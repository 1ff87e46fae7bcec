//! Consistency between the native executors, their deterministic
//! virtual-thread twins, and the machine cost model.

use multicore_bfs::core::algo::hybrid::ForcedDirection;
use multicore_bfs::core::algo::level::{bfs, bfs_deterministic, VariantConfig};
use multicore_bfs::core::algo::{NativeRun, ENQUEUE_BATCH};
use multicore_bfs::gen::prelude::*;
use multicore_bfs::machine::model::MachineModel;
use multicore_bfs::machine::profile::{Direction, LevelProfile, ThreadCounts, WorkProfile};
use multicore_bfs::machine::topology::MachineSpec;

/// Asserts that `native` equals its model-mode twin in parents, profile
/// header, level shape and every per-thread counter, except that native
/// `atomic_ops` exceed the model's by `enqueues(level, native counts)`.
fn assert_model_is_native_minus(
    native: &NativeRun,
    model: &NativeRun,
    what: &str,
    enqueues: impl Fn(&LevelProfile, &ThreadCounts) -> u64,
) {
    assert_eq!(native.parents, model.parents, "{what}");
    assert_eq!(native.visited, model.visited, "{what}");
    let header = |p: &WorkProfile| WorkProfile {
        levels: Vec::new(),
        ..p.clone()
    };
    assert_eq!(header(&native.profile), header(&model.profile), "{what}");
    let (nl, ml) = (&native.profile.levels, &model.profile.levels);
    assert_eq!(nl.len(), ml.len(), "{what}");
    for (level, (n, m)) in nl.iter().zip(ml).enumerate() {
        assert_eq!(
            (n.barriers, n.direction),
            (m.barriers, m.direction),
            "{what} level {level}"
        );
        for (tid, (n_counts, m_counts)) in n.threads.iter().zip(&m.threads).enumerate() {
            let without_atomics = |c: &ThreadCounts| ThreadCounts {
                atomic_ops: 0,
                ..*c
            };
            assert_eq!(
                (n_counts.atomic_ops, without_atomics(n_counts)),
                (
                    m_counts.atomic_ops + enqueues(n, n_counts),
                    without_atomics(m_counts)
                ),
                "{what} level {level} thread {tid}"
            );
        }
    }
}

fn consistency_graphs() -> [(&'static str, multicore_bfs::graph::csr::CsrGraph); 2] {
    [
        ("rmat", RmatBuilder::new(12, 8).seed(1).build()),
        ("uniform", UniformBuilder::new(1 << 13, 8).seed(13).build()),
    ]
}

#[test]
fn simulated_counts_match_native_single_socket() {
    let g = UniformBuilder::new(4_096, 8).seed(10).build();
    let native = bfs(&g, 0, 4, VariantConfig::algorithm2());
    let sim = bfs_deterministic(&g, 0, 4, VariantConfig::algorithm2());
    let (nt, st) = (native.profile.total(), sim.profile.total());
    // Structure-determined counts must agree exactly.
    assert_eq!(nt.edges_scanned, st.edges_scanned);
    assert_eq!(nt.vertices_scanned, st.vertices_scanned);
    assert_eq!(nt.bitmap_reads, st.bitmap_reads);
    assert_eq!(nt.parent_writes, st.parent_writes);
    assert_eq!(native.profile.num_levels(), sim.profile.num_levels());
    // Race-dependent counts (atomics) may differ slightly, but only upward
    // in the native run (lost races retry the atomic).
    assert!(nt.atomic_ops >= st.atomic_ops);
    // And by no more than the number of discovered vertices.
    assert!(nt.atomic_ops - st.atomic_ops <= nt.parent_writes + g.num_vertices() as u64 / 16);
}

#[test]
fn simulated_channel_traffic_matches_native_multi_socket() {
    let g = RmatBuilder::new(11, 6).seed(11).build();
    let native = bfs(&g, 0, 4, VariantConfig::algorithm3(2));
    let sim = bfs_deterministic(&g, 0, 4, VariantConfig::algorithm3(2));
    let (nt, st) = (native.profile.total(), sim.profile.total());
    // Channel traffic is fully determined by the partition and the
    // reachable edge set.
    assert_eq!(nt.channel_items, st.channel_items);
    assert_eq!(nt.channel_drained, st.channel_drained);
    assert_eq!(nt.edges_scanned, st.edges_scanned);
}

#[test]
fn level_model_is_the_native_code_minus_enqueue_charges() {
    // At one thread per socket the level loop has no races: every claim on
    // a socket's state comes from that socket's one thread, in frontier
    // order in phase 1, in send order in phase 2, and in word order in a
    // bottom-up sweep. The model-mode twin (the same per-level code on
    // virtual threads) must match the native run exactly, except that a
    // native top-down level also charges for enqueueing each discovery: one
    // LockedEnqueue each with locked queues, one reservation per
    // ENQUEUE_BATCH with chunked ones. A bottom-up sweep enqueues nothing.
    for (name, g) in &consistency_graphs() {
        for config in [
            VariantConfig::algorithm1(),
            VariantConfig::algorithm2(),
            VariantConfig::algorithm3(2),
            VariantConfig::algorithm3(4),
        ] {
            let native = bfs(g, 0, config.sockets, config);
            let model = bfs_deterministic(g, 0, config.sockets, config);
            let what = format!("{name} {config:?}");
            assert_model_is_native_minus(&native, &model, &what, |l, c| match l.direction {
                Direction::BottomUp => 0,
                Direction::TopDown if config.locked_queues => c.parent_writes,
                Direction::TopDown => c.parent_writes.div_ceil(ENQUEUE_BATCH as u64),
            });
        }
    }
}

#[test]
fn hybrid_model_is_the_native_code_minus_batched_enqueue() {
    // At one thread the native hybrid has no races, so its model-mode twin
    // (the same level loop on one virtual thread) must match it exactly.
    // The one difference is the discovery sink: a native top-down level
    // appends to the next queue in ENQUEUE_BATCH-sized reservations, one
    // atomic each, where the model pushes every discovery directly. A
    // bottom-up sweep enqueues nothing.
    for (name, g) in &consistency_graphs() {
        for policy in [
            ForcedDirection::Auto,
            ForcedDirection::TopDown,
            ForcedDirection::BottomUp,
            ForcedDirection::Alternate,
        ] {
            let config = VariantConfig::hybrid(policy);
            let native = bfs(g, 0, 1, config);
            let model = bfs_deterministic(g, 0, 1, config);
            assert_model_is_native_minus(&native, &model, &format!("{name} {policy:?}"), |l, c| {
                match l.direction {
                    Direction::TopDown => c.parent_writes.div_ceil(ENQUEUE_BATCH as u64),
                    Direction::BottomUp => 0,
                }
            });
        }
    }
}

#[test]
fn model_time_decreases_with_threads_within_socket() {
    let g = UniformBuilder::new(1 << 13, 8).seed(12).build();
    let model = MachineModel::nehalem_ep();
    let mut prev = f64::INFINITY;
    for threads in [1usize, 2, 4] {
        let run = bfs_deterministic(&g, 0, threads, VariantConfig::algorithm2());
        let t = model.predict(&run.profile).seconds;
        assert!(t < prev, "threads {threads}: {t} !< {prev}");
        prev = t;
    }
}

#[test]
fn channels_beat_shared_state_across_sockets() {
    // The paper's central claim, as a hard invariant of the model.
    let g = UniformBuilder::new(1 << 13, 8).seed(13).build();
    for model in [MachineModel::nehalem_ep(), MachineModel::nehalem_ex()] {
        let threads = model.spec.total_cores();
        let sockets = model.spec.sockets;
        let with = bfs_deterministic(&g, 0, threads, VariantConfig::algorithm3(sockets));
        let without = bfs_deterministic(
            &g,
            0,
            threads,
            VariantConfig::algorithm2_multisocket(sockets),
        );
        let (tw, tn) = (
            model.predict(&with.profile).seconds,
            model.predict(&without.profile).seconds,
        );
        assert!(
            tw < tn,
            "{}: channels {tw:.5}s must beat shared state {tn:.5}s",
            model.spec.name
        );
    }
}

#[test]
fn optimization_ladder_is_ordered_single_socket() {
    // bitmap < no-bitmap, test-then-set < always-atomic, in predicted time
    // (single socket, paper-size working sets irrelevant at this scale but
    // the ordering must hold anyway).
    let g = UniformBuilder::new(1 << 13, 8).seed(14).build();
    let model = MachineModel::nehalem_ep();
    let time = |c: VariantConfig| {
        model
            .predict(&bfs_deterministic(&g, 0, 4, c).profile)
            .seconds
    };
    let alg1 = time(VariantConfig::algorithm1());
    let alg2 = time(VariantConfig::algorithm2());
    let no_tts = time(VariantConfig {
        test_then_set: false,
        ..VariantConfig::algorithm2()
    });
    assert!(alg2 < no_tts, "test-then-set must help: {alg2} !< {no_tts}");
    assert!(
        alg2 < alg1,
        "algorithm 2 must beat algorithm 1: {alg2} !< {alg1}"
    );
}

#[test]
fn batching_beats_unbatched_channels() {
    let g = UniformBuilder::new(1 << 13, 8).seed(15).build();
    let model = MachineModel::nehalem_ep();
    let batched = bfs_deterministic(&g, 0, 8, VariantConfig::algorithm3(2));
    let unbatched = bfs_deterministic(
        &g,
        0,
        8,
        VariantConfig {
            batch: 1,
            ..VariantConfig::algorithm3(2)
        },
    );
    assert!(
        model.predict(&batched.profile).seconds * 2.0 < model.predict(&unbatched.profile).seconds,
        "batching must be at least a 2x win"
    );
}

#[test]
fn rmat_rate_exceeds_uniform_rate() {
    // Paper §IV: "R-MAT graphs have higher processing rates than uniformly
    // random graphs".
    let model = MachineModel::nehalem_ep();
    let uni = UniformBuilder::new(1 << 14, 8).seed(16).build();
    let rmat = RmatBuilder::new(14, 8).seed(16).build();
    let rate = |g| {
        let run = bfs_deterministic(g, 0, 8, VariantConfig::algorithm3(2));
        model.predict(&run.profile).edges_per_second
    };
    assert!(
        rate(&rmat) > rate(&uni),
        "rmat {:.3e} must exceed uniform {:.3e}",
        rate(&rmat),
        rate(&uni)
    );
}

#[test]
fn fig2_pipelining_and_fig3_collapse_reproduce() {
    let m = MachineModel::nehalem_ep();
    // Fig. 2: pipelining gains ~8x at deep batch.
    let gain = m.random_read_rate(8 << 20, 16) / m.random_read_rate(8 << 20, 1);
    assert!((5.0..10.0).contains(&gain), "gain {gain}");
    // Fig. 3: crossing the socket drops the atomic rate.
    assert!(m.fetch_add_rate(5) < m.fetch_add_rate(4));
    let ratio = m.fetch_add_rate(8) / m.fetch_add_rate(3);
    assert!(
        (0.8..1.25).contains(&ratio),
        "paper: 8 threads/2 sockets ≈ 3/1; got {ratio}"
    );
}

#[test]
fn ex_has_more_parallel_headroom_than_ep() {
    // The EX's 64 threads must deliver a higher best-case rate than the
    // EP's 16 on the same workload class.
    let g = UniformBuilder::new(1 << 14, 8).seed(17).build();
    let ep = MachineModel::nehalem_ep();
    let ex = MachineModel::nehalem_ex();
    let ep_rate = ep
        .predict(&bfs_deterministic(&g, 0, 16, VariantConfig::algorithm3(2)).profile)
        .edges_per_second;
    let ex_rate = ex
        .predict(&bfs_deterministic(&g, 0, 64, VariantConfig::algorithm3(4)).profile)
        .edges_per_second;
    assert!(ex_rate > ep_rate, "EX {ex_rate:.3e} !> EP {ep_rate:.3e}");
}

#[test]
fn speedup_bands_match_paper() {
    // EX speedup at 64 threads must land in the paper's 14-24 band and the
    // EP must be clearly parallel — both evaluated at *paper scale* via the
    // count-extrapolation the figure harness uses (at toy scale barriers
    // legitimately dominate and speedups collapse).
    let g = UniformBuilder::new(1 << 17, 8).seed(18).build();
    let paper_n: u64 = 32 << 20;
    let factor = paper_n / (1 << 17);
    let ex = MachineModel::nehalem_ex();
    let rate = |model: &MachineModel, threads, config| {
        mcbfs_bench::model_rate(&g, factor, paper_n, threads, config, model)
    };
    let s64 =
        rate(&ex, 64, VariantConfig::algorithm3(4)) / rate(&ex, 1, VariantConfig::algorithm2());
    assert!((12.0..26.0).contains(&s64), "EX speedup {s64}");
    let ep = MachineModel::nehalem_ep();
    let s16 =
        rate(&ep, 16, VariantConfig::algorithm3(2)) / rate(&ep, 1, VariantConfig::algorithm2());
    assert!(s16 > 3.0, "EP speedup {s16}");
}

#[test]
fn custom_machine_specs_price_sanely() {
    let g = UniformBuilder::new(1 << 12, 8).seed(19).build();
    let single_core = MachineModel::with_spec(MachineSpec::custom("1x1", 1, 1, 1));
    let big = MachineModel::with_spec(MachineSpec::custom("8x8", 8, 8, 2));
    let run1 = bfs_deterministic(&g, 0, 1, VariantConfig::algorithm2());
    let run_big = bfs_deterministic(&g, 0, 64, VariantConfig::algorithm3(8));
    let t1 = single_core.predict(&run1.profile).seconds;
    let tbig = big.predict(&run_big.profile).seconds;
    assert!(tbig < t1);
    assert!(t1.is_finite() && tbig > 0.0);
}
