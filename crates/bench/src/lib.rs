//! Benchmark harness shared utilities.
//!
//! Every figure/table of the paper has a binary in `src/bin/` that uses the
//! pieces here: a tiny CLI ([`cli`]), a row-oriented reporter that prints
//! aligned tables and dumps machine-readable JSON ([`report`]), and the
//! scaled workload catalogue ([`workloads`]) mapping the paper's graph
//! sizes to host-feasible defaults.

pub mod cli;
pub mod figures;
pub mod report;
pub mod workloads;

use mcbfs_machine::profile::WorkProfile;

/// Linearly extrapolates a scaled-run profile to paper-scale counts.
///
/// Rationale (documented in DESIGN.md §7): paper-size graphs (up to 1 B
/// edges) exceed this host's memory/time budget, but the *per-edge*
/// operation mix of the level-synchronous BFS is scale-invariant — each
/// scanned edge probes the visited structure once, each claimed vertex is
/// enqueued once. We therefore simulate the same workload shape at `1/k`
/// scale, multiply every count by `k`, and set the working-set fields
/// (`num_vertices`, `visited_bytes`) to the paper's true sizes so the cost
/// model prices cache residency for the *real* graph. The level count of
/// the scaled graph is kept (BFS depth grows only logarithmically, so the
/// barrier-cost error is a few percent).
pub fn scale_profile(mut profile: WorkProfile, factor: u64) -> WorkProfile {
    for level in &mut profile.levels {
        for t in &mut level.threads {
            t.vertices_scanned *= factor;
            t.edges_scanned *= factor;
            t.bitmap_reads *= factor;
            t.remote_bitmap_reads *= factor;
            t.atomic_ops *= factor;
            t.remote_atomic_ops *= factor;
            t.parent_writes *= factor;
            t.queue_pushes *= factor;
            t.channel_items *= factor;
            t.channel_batches *= factor;
            t.channel_drained *= factor;
            t.edges_skipped *= factor;
        }
    }
    profile.num_vertices *= factor;
    profile.visited_bytes *= factor;
    profile.edges_traversed *= factor;
    profile
}

/// The paper's thread-to-algorithm policy: "we used the best performing
/// algorithm for each thread configuration — when the threads run on the
/// same socket, we disable inter-socket channels". Returns the number of
/// socket groups Algorithm 3 should use (1 ⇒ run Algorithm 2).
pub fn sockets_for_threads(spec: &mcbfs_machine::topology::MachineSpec, threads: usize) -> usize {
    spec.sockets_used(threads)
}

/// Runs `config` on `threads` virtual threads on the (scaled) `graph`,
/// extrapolates the counts back to paper scale with `factor` / `paper_n`,
/// and prices the result on `model`. Returns predicted edges/second at
/// paper scale.
pub fn model_rate(
    graph: &mcbfs_graph::csr::CsrGraph,
    factor: u64,
    paper_n: u64,
    threads: usize,
    config: mcbfs_core::algo::level::VariantConfig,
    model: &mcbfs_machine::model::MachineModel,
) -> f64 {
    let run = mcbfs_core::algo::level::bfs_deterministic(graph, 0, threads, config);
    let mut profile = scale_profile(run.profile, factor);
    // Pin the working-set fields to the paper's exact vertex count (the
    // scaled n times factor can differ by rounding for non-power-of-two
    // paper sizes).
    profile.num_vertices = paper_n;
    profile.visited_bytes = if config.use_bitmap {
        paper_n.div_ceil(8)
    } else {
        paper_n * 4
    };
    model.predict(&profile).edges_per_second
}

/// Measures the native wall-clock rate of `algorithm` on this host (best of
/// `reps` runs), in edges/second at the graph's own (scaled) size.
pub fn native_rate(
    graph: &mcbfs_graph::csr::CsrGraph,
    threads: usize,
    algorithm: mcbfs_core::runner::Algorithm,
    reps: usize,
) -> f64 {
    let runner = mcbfs_core::runner::BfsRunner::new(graph)
        .algorithm(algorithm)
        .threads(threads);
    (0..reps.max(1))
        .map(|_| runner.run(0).stats.edges_per_second())
        .fold(0.0f64, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcbfs_machine::profile::{LevelProfile, ThreadCounts};
    use mcbfs_machine::topology::MachineSpec;

    #[test]
    fn scale_profile_multiplies_counts_and_sizes() {
        let mut level = LevelProfile::new(1, 2);
        level.threads[0] = ThreadCounts {
            edges_scanned: 5,
            bitmap_reads: 5,
            atomic_ops: 2,
            ..Default::default()
        };
        let p = WorkProfile {
            levels: vec![level],
            threads: 1,
            sockets: 1,
            num_vertices: 10,
            visited_bytes: 2,
            pipelined: true,
            sharded_state: true,
            edges_traversed: 5,
        };
        let scaled = scale_profile(p, 64);
        assert_eq!(scaled.levels[0].threads[0].edges_scanned, 320);
        assert_eq!(scaled.num_vertices, 640);
        assert_eq!(scaled.visited_bytes, 128);
        assert_eq!(scaled.edges_traversed, 320);
        assert_eq!(scaled.num_levels(), 1);
    }

    #[test]
    fn sockets_policy_matches_paper() {
        let ep = MachineSpec::nehalem_ep();
        assert_eq!(sockets_for_threads(&ep, 4), 1); // one socket: channels off
        assert_eq!(sockets_for_threads(&ep, 8), 2);
        let ex = MachineSpec::nehalem_ex();
        assert_eq!(sockets_for_threads(&ex, 8), 1);
        assert_eq!(sockets_for_threads(&ex, 64), 4);
    }
}
