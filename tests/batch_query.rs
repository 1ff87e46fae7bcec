//! Acceptance tests for the batched query engine (ISSUE 4).
//!
//! Two pillars:
//!
//! 1. **Depth parity.** For batch sizes {1, 7, 64}, the per-source depth
//!    arrays coming out of the engine are byte-identical to the sequential
//!    reference on scale-14 uniform and R-MAT graphs — in native mode
//!    (racing MS-BFS claims) and in model mode (deterministic executor).
//!    Batching may change parents, never distances.
//! 2. **Work sharing.** On a scale-16 R-MAT graph, one 64-wide top-down
//!    MS-BFS wave examines at least 8x fewer edges than 64 singleton
//!    searches from the same roots, and the same wave under the direction
//!    switch goes bottom-up with fewer atomic operations.

use multicore_bfs::core::algo::hybrid::ForcedDirection;
use multicore_bfs::core::kernel::sample_roots;
use multicore_bfs::core::runner::{Algorithm, ExecMode};
use multicore_bfs::gen::prelude::*;
use multicore_bfs::graph::csr::CsrGraph;
use multicore_bfs::graph::validate::{reachable_edges, sequential_levels};
use multicore_bfs::machine::model::MachineModel;
use multicore_bfs::query::{ms_bfs, MsBfsRun, Query, QueryEngine, Slot};

/// Runs `queries` through the engine at each batch size and checks every
/// outcome's depth array against the sequential reference.
fn assert_depth_parity(g: &CsrGraph, label: &str, mode: ExecMode) {
    let roots = sample_roots(g, 64, 2026);
    let queries: Vec<Query> = roots
        .iter()
        .map(|&r| Query::Distances { root: r })
        .collect();
    let reference: Vec<Vec<u32>> = roots.iter().map(|&r| sequential_levels(g, r)).collect();
    for batch in [1usize, 7, 64] {
        let report = QueryEngine::new(g)
            .threads(4)
            .max_batch(batch)
            .fallback(Algorithm::Sequential)
            .mode(mode.clone())
            .execute(&queries);
        assert_eq!(report.outcomes.len(), queries.len());
        assert_eq!(report.waves.len(), queries.len().div_ceil(batch));
        for (i, outcome) in report.outcomes.iter().enumerate() {
            assert_eq!(outcome.query.source(), roots[i]);
            let depths = outcome
                .result
                .depths()
                .expect("distance queries carry depths");
            assert_eq!(
                depths,
                &reference[i][..],
                "{label}: batch={batch} root={} depth array diverged",
                roots[i]
            );
        }
    }
}

#[test]
fn depth_parity_uniform_scale14_native() {
    let g = UniformBuilder::new(1 << 14, 8).seed(14).build();
    assert_depth_parity(&g, "uniform-14 native", ExecMode::Native);
}

#[test]
fn depth_parity_uniform_scale14_model() {
    let g = UniformBuilder::new(1 << 14, 8).seed(14).build();
    assert_depth_parity(
        &g,
        "uniform-14 model",
        ExecMode::model(MachineModel::nehalem_ep()),
    );
}

#[test]
fn depth_parity_rmat_scale14_native() {
    let g = RmatBuilder::new(14, 8).seed(41).permute(true).build();
    assert_depth_parity(&g, "rmat-14 native", ExecMode::Native);
}

#[test]
fn depth_parity_rmat_scale14_model() {
    let g = RmatBuilder::new(14, 8).seed(41).permute(true).build();
    assert_depth_parity(
        &g,
        "rmat-14 model",
        ExecMode::model(MachineModel::nehalem_ex()),
    );
}

#[test]
fn batched_64_wave_examines_8x_fewer_edges_than_64_singletons() {
    // The batched speedup comes from work sharing: one 64-wide sweep scans
    // each vertex's adjacency once per level in which any of the 64
    // searches reaches it, where 64 separate searches scan it 64 times.
    // Edge examinations are deterministic counts, so the floor holds on
    // any host; wall-clock speedup is measured by `fig_batch_throughput`.
    // Both sides run top-down: a bottom-up level skips edges by another
    // rule, which `auto_wave_goes_bottom_up_without_atomics` covers.
    let g = RmatBuilder::new(16, 8).seed(16).permute(true).build();
    let roots = sample_roots(&g, 64, 2026);
    let td = ForcedDirection::TopDown;
    let scanned = |run: MsBfsRun| run.profile.total().edges_scanned;
    let wave = scanned(ms_bfs(&g, &Slot::maps(&roots, false), 2, td).finish());
    let singletons: u64 = roots
        .iter()
        .map(|&r| scanned(ms_bfs(&g, &Slot::maps(&[r], false), 1, td).finish()))
        .sum();
    let reachable: u64 = roots
        .iter()
        .map(|&r| reachable_edges(&g, &sequential_levels(&g, r)))
        .sum();
    // A lone search scans exactly the adjacency of every vertex it reaches.
    assert_eq!(singletons, reachable);
    assert!(
        wave * 8 <= singletons,
        "64-wide wave examined {wave} edges, 64 singletons {singletons}: \
         only {:.2}x shared",
        singletons as f64 / wave as f64
    );
}

#[test]
fn auto_wave_goes_bottom_up_without_atomics() {
    // The same scale-16 wave under the direction switch: its dense middle
    // levels pull over the source masks with plain stores, so the wave
    // answers the same depths with strictly fewer locked operations.
    let g = RmatBuilder::new(16, 8).seed(16).permute(true).build();
    let roots = sample_roots(&g, 64, 2026);
    let slots = Slot::maps(&roots, false);
    let auto = ms_bfs(&g, &slots, 2, ForcedDirection::Auto).finish();
    let top_down = ms_bfs(&g, &slots, 2, ForcedDirection::TopDown).finish();
    let dirs = auto.profile.direction_string();
    assert!(
        dirs.contains('B'),
        "expected bottom-up levels, got {dirs:?}"
    );
    assert_eq!(auto.slots, top_down.slots);
    let atomics = |run: &MsBfsRun| run.profile.total().atomic_ops;
    assert!(
        atomics(&auto) < atomics(&top_down),
        "auto {dirs}: {} atomic ops, top-down {}",
        atomics(&auto),
        atomics(&top_down)
    );
}

#[test]
fn batcher_waves_preserve_strict_fifo_ticket_order() {
    // Regression for the serving scheduler's ordering contract: tickets
    // are dense submission indices, and sealed waves replay them in
    // strict FIFO order even under concurrent producers — the property
    // the wire layer's tag-matching and the accounting tests build on.
    use multicore_bfs::query::{BatcherOpts, QueryBatcher};
    use std::time::Duration;

    let batcher = QueryBatcher::new(
        BatcherOpts {
            max_batch: 7,
            max_wait: Duration::from_secs(60),
        },
        512,
    );
    std::thread::scope(|scope| {
        for producer in 0..4u32 {
            let batcher = &batcher;
            scope.spawn(move || {
                for i in 0..96 {
                    // Root encodes the producer so the mapping ticket ->
                    // query is checkable after the interleaving.
                    let root = producer * 1_000 + i;
                    let ticket = batcher
                        .try_submit(Query::Distances { root })
                        .expect("sized for the submission set");
                    assert!(ticket < 384);
                }
            });
        }
    });
    assert_eq!(batcher.submitted(), 384);
    let mut next_ticket = 0u64;
    let mut roots_seen = Vec::new();
    while let Some(wave) = batcher.take_wave() {
        assert!(wave.len() <= 7, "wave wider than max_batch");
        for admitted in wave {
            assert_eq!(
                admitted.id, next_ticket,
                "waves must replay tickets densely, in submission order"
            );
            next_ticket += 1;
            roots_seen.push(admitted.query.source());
        }
    }
    assert_eq!(next_ticket, 384, "no submission lost or duplicated");
    // Each producer's own submissions stay in its program order.
    for producer in 0..4u32 {
        let mine: Vec<u32> = roots_seen
            .iter()
            .copied()
            .filter(|r| r / 1_000 == producer)
            .collect();
        let expected: Vec<u32> = (0..96).map(|i| producer * 1_000 + i).collect();
        assert_eq!(mine, expected, "producer {producer} reordered");
    }
}

#[test]
fn heterogeneous_batch_round_trips_all_kinds() {
    let g = RmatBuilder::new(12, 8).seed(5).permute(true).build();
    let levels = sequential_levels(&g, 3);
    let far = (0..g.num_vertices() as u32)
        .find(|&v| levels[v as usize] == 3)
        .expect("distance-3 vertex");
    let unreachable = (0..g.num_vertices() as u32).find(|&v| levels[v as usize] == u32::MAX);
    let mut queries = vec![
        Query::Distances { root: 3 },
        Query::Parents { root: 3 },
        Query::StCon { s: 3, t: far },
        Query::Reachable { from: 3, to: far },
    ];
    if let Some(u) = unreachable {
        queries.push(Query::Reachable { from: 3, to: u });
    }
    let report = QueryEngine::new(&g).threads(2).execute(&queries);
    use multicore_bfs::query::QueryResult::*;
    match &report.outcomes[2].result {
        StCon { distance } => assert_eq!(*distance, Some(3)),
        other => panic!("expected StCon, got {other:?}"),
    }
    match &report.outcomes[3].result {
        Reachable { reachable } => assert!(reachable),
        other => panic!("expected Reachable, got {other:?}"),
    }
    if unreachable.is_some() {
        match &report.outcomes[4].result {
            Reachable { reachable } => assert!(!reachable),
            other => panic!("expected Reachable, got {other:?}"),
        }
    }
}
