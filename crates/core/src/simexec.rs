//! The simulated executor: deterministic virtual-thread execution.
//!
//! To reproduce the paper's 16-thread Nehalem EP and 64-thread Nehalem EX
//! figures on hosts without that hardware, Algorithms 1–3 and the Fig. 5
//! ablations are re-executed *logically*: a single host thread walks the
//! same level-synchronous schedule the real implementation follows — per
//! virtual socket, the frontier is handed out to virtual threads in
//! [`DEQUEUE_CHUNK`]-sized chunks; remote discoveries travel through
//! virtual channels and are drained in phase 2 — while exact
//! per-virtual-thread operation counts are recorded. The resulting [`WorkProfile`] is priced by
//! [`mcbfs_machine::model::MachineModel::predict`].
//!
//! Because claims are resolved in deterministic order the simulation also
//! produces a valid BFS parent array, which the tests validate against the
//! native implementations.
//!
//! The direction-optimizing hybrid and the MS-BFS kernel have no model
//! here: their model modes run their own native per-level code on virtual
//! threads (`algo::hybrid::bfs_hybrid_deterministic`,
//! `mcbfs_query::msbfs::ms_bfs_deterministic`).

use crate::algo::{DEQUEUE_CHUNK, ENQUEUE_BATCH};
use mcbfs_graph::csr::{CsrGraph, VertexId, UNVISITED};
use mcbfs_graph::partition::VertexPartition;
use mcbfs_machine::profile::{LevelProfile, ThreadCounts, WorkProfile};

/// Which algorithm variant the virtual execution follows. The three named
/// algorithms of the paper are [`VariantConfig::algorithm1`],
/// [`VariantConfig::algorithm2`] and [`VariantConfig::algorithm3`];
/// everything else is an ablation for the Fig. 5 optimization study.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VariantConfig {
    /// Visited bitmap (1 bit/vertex) vs. parent-array claims (4 B/vertex).
    pub use_bitmap: bool,
    /// Plain-load check before the claiming atomic.
    pub test_then_set: bool,
    /// Per-operation locked queues (Algorithm 1) vs. chunked/reserved
    /// frontier queues (Algorithms 2–3).
    pub locked_queues: bool,
    /// Remote discoveries via batched channels (Algorithm 3) vs. direct
    /// atomics on the owning socket's state.
    pub channels: bool,
    /// Channel batch size (1 = unbatched ablation).
    pub batch: usize,
    /// Software-pipelined probe streams (prefetch batches in flight).
    pub pipelined: bool,
    /// Virtual socket groups.
    pub sockets: usize,
}

impl VariantConfig {
    /// Algorithm 1: locked shared queues, no bitmap, no pre-check, no
    /// pipelining, one logical state domain.
    pub fn algorithm1() -> Self {
        Self {
            use_bitmap: false,
            test_then_set: false,
            locked_queues: true,
            channels: false,
            batch: 1,
            pipelined: false,
            sockets: 1,
        }
    }

    /// Algorithm 2: bitmap, test-then-set, chunked queues, pipelined,
    /// single socket domain.
    pub fn algorithm2() -> Self {
        Self {
            use_bitmap: true,
            test_then_set: true,
            locked_queues: false,
            channels: false,
            batch: 1,
            pipelined: true,
            sockets: 1,
        }
    }

    /// Algorithm 3 on `sockets` sockets: everything on, batched channels.
    pub fn algorithm3(sockets: usize) -> Self {
        Self {
            use_bitmap: true,
            test_then_set: true,
            locked_queues: false,
            channels: true,
            batch: ENQUEUE_BATCH,
            pipelined: true,
            sockets: sockets.max(1),
        }
    }

    /// Algorithm 2 semantics stretched over multiple sockets *without*
    /// channels: every claim on another socket's shard is a remote atomic.
    /// This is what Fig. 3 warns about and what Fig. 5's middle curves are.
    pub fn algorithm2_multisocket(sockets: usize) -> Self {
        Self {
            sockets: sockets.max(1),
            ..Self::algorithm2()
        }
    }
}

/// Result of a simulated execution.
#[derive(Debug, Clone)]
pub struct SimRun {
    /// A valid BFS parent array (deterministic for a given config).
    pub parents: Vec<VertexId>,
    /// Exact per-level, per-virtual-thread operation counts.
    pub profile: WorkProfile,
    /// Vertices reached, including the root.
    pub visited: u64,
}

/// Executes `config` on `threads` virtual threads and returns the counts.
pub fn simulate(graph: &CsrGraph, root: VertexId, threads: usize, config: VariantConfig) -> SimRun {
    let n = graph.num_vertices();
    assert!((root as usize) < n, "root {root} out of range 0..{n}");
    let sockets = config.sockets.max(1);
    let threads = threads.max(sockets);
    let partition = VertexPartition::new(n, sockets);
    let socket_of_thread = |tid: usize| -> usize { tid * sockets / threads };
    // Threads of each socket, in tid order.
    let socket_threads: Vec<Vec<usize>> = (0..sockets)
        .map(|s| (0..threads).filter(|&t| socket_of_thread(t) == s).collect())
        .collect();
    let mut parents = vec![UNVISITED; n];
    let mut visited = vec![false; n];
    parents[root as usize] = root;
    visited[root as usize] = true;
    let mut visited_count = 1u64;
    let mut frontier: Vec<Vec<VertexId>> = vec![Vec::new(); sockets];
    frontier[partition.socket_of(root)].push(root);
    let mut levels: Vec<LevelProfile> = Vec::new();
    let mut edges_traversed = 0u64;
    let barriers = if config.channels && sockets > 1 { 3 } else { 2 };

    while frontier.iter().any(|f| !f.is_empty()) {
        let mut level = LevelProfile::new(threads, barriers);
        let mut next: Vec<Vec<VertexId>> = vec![Vec::new(); sockets];
        // Remote tuples per destination socket, gathered in phase 1.
        let mut inbox: Vec<Vec<(VertexId, VertexId)>> = vec![Vec::new(); sockets];

        // ---- Phase 1: each socket's threads scan its frontier. ----
        for s in 0..sockets {
            let workers = &socket_threads[s];
            // Per-thread channel batch fill level, per destination.
            let mut batch_fill: Vec<Vec<u64>> = vec![vec![0; sockets]; workers.len()];
            // Greedy dynamic scheduling at vertex granularity: the real
            // implementation's threads grab the next chunk as they finish
            // the last, so work continuously flows to the least-loaded
            // worker. (At paper scale a frontier holds thousands of chunks
            // per thread; scheduling whole chunks here would freeze a
            // scaled-down imbalance that the real machine never sees, so
            // vertices are balanced individually while the chunk-grab
            // atomics are still charged once per DEQUEUE_CHUNK vertices.)
            let mut load: Vec<u64> = vec![0; workers.len()];
            for &u in &frontier[s] {
                let wi = (0..workers.len())
                    .min_by_key(|&w| (load[w], w))
                    .expect("socket has at least one worker");
                let tid = workers[wi];
                let counts = &mut level.threads[tid];
                counts.vertices_scanned += 1;
                let mut chunk_edges = 0u64;
                {
                    for &v in graph.neighbors(u) {
                        counts.edges_scanned += 1;
                        chunk_edges += 1;
                        let dst = partition.socket_of(v);
                        if config.channels && dst != s {
                            counts.channel_items += 1;
                            batch_fill[wi][dst] += 1;
                            if batch_fill[wi][dst] as usize >= config.batch.max(1) {
                                counts.channel_batches += 1;
                                batch_fill[wi][dst] = 0;
                            }
                            inbox[dst].push((v, u));
                        } else {
                            let remote = dst != s;
                            claim(
                                &mut parents,
                                &mut visited,
                                &mut visited_count,
                                &mut next[dst],
                                v,
                                u,
                                counts,
                                &config,
                                remote,
                            );
                        }
                    }
                }
                load[wi] += chunk_edges.max(1);
            }
            // Dequeue-reservation atomics: one per DEQUEUE_CHUNK vertices
            // (or one per vertex with the Algorithm 1 locked queue).
            for &tid in workers.iter() {
                let counts = &mut level.threads[tid];
                counts.atomic_ops += if config.locked_queues {
                    counts.vertices_scanned
                } else {
                    counts.vertices_scanned.div_ceil(DEQUEUE_CHUNK as u64)
                };
            }
            // Final flushes of partially-filled batches.
            for (wi, fills) in batch_fill.iter().enumerate() {
                let counts = &mut level.threads[workers[wi]];
                counts.channel_batches += fills.iter().filter(|&&f| f > 0).count() as u64;
            }
        }

        // ---- Phase 2: sockets drain their inboxes. ----
        if config.channels {
            for s in 0..sockets {
                let workers = &socket_threads[s];
                let tuples = core::mem::take(&mut inbox[s]);
                let mut load: Vec<u64> = vec![0; workers.len()];
                // Fine-grained balancing, as in phase 1 (batch recv costs
                // are amortized into channel_drain_ns by the model).
                for chunk in tuples.chunks(64) {
                    let wi = (0..workers.len())
                        .min_by_key(|&w| (load[w], w))
                        .expect("socket has at least one worker");
                    load[wi] += chunk.len() as u64;
                    let tid = workers[wi];
                    let counts = &mut level.threads[tid];
                    for &(v, u) in chunk {
                        counts.channel_drained += 1;
                        claim(
                            &mut parents,
                            &mut visited,
                            &mut visited_count,
                            &mut next[s],
                            v,
                            u,
                            counts,
                            &config,
                            false,
                        );
                    }
                }
            }
        }

        // Queue-push reservations: one per ENQUEUE_BATCH per thread,
        // already folded into queue_pushes cost in the model; nothing to do.
        edges_traversed += level.total().edges_scanned;
        levels.push(level);
        frontier = next;
    }

    let visited_bytes = if config.use_bitmap {
        (n as u64).div_ceil(8)
    } else {
        (n as u64) * 4
    };
    let profile = WorkProfile {
        levels,
        threads,
        sockets,
        num_vertices: n as u64,
        visited_bytes,
        pipelined: config.pipelined,
        sharded_state: config.channels || sockets == 1,
        edges_traversed,
    };
    SimRun {
        parents,
        profile,
        visited: visited_count,
    }
}

/// Claim logic shared by both phases: probe, maybe atomic, maybe own.
#[allow(clippy::too_many_arguments)]
fn claim(
    parents: &mut [VertexId],
    visited: &mut [bool],
    visited_count: &mut u64,
    next: &mut Vec<VertexId>,
    v: VertexId,
    u: VertexId,
    counts: &mut ThreadCounts,
    config: &VariantConfig,
    remote: bool,
) {
    counts.bitmap_reads += 1;
    if remote {
        counts.remote_bitmap_reads += 1;
    }
    let already = visited[v as usize];
    let atomic = !config.test_then_set || !already;
    if atomic {
        counts.atomic_ops += 1;
        if remote {
            counts.remote_atomic_ops += 1;
        }
    }
    if !already {
        visited[v as usize] = true;
        parents[v as usize] = u;
        *visited_count += 1;
        counts.parent_writes += 1;
        counts.queue_pushes += 1;
        next.push(v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcbfs_gen::prelude::*;
    use mcbfs_graph::validate::validate_bfs_tree;

    fn graph() -> CsrGraph {
        RmatBuilder::new(10, 6).seed(42).build()
    }

    #[test]
    fn all_variants_produce_valid_trees() {
        let g = graph();
        let configs = [
            VariantConfig::algorithm1(),
            VariantConfig::algorithm2(),
            VariantConfig::algorithm3(2),
            VariantConfig::algorithm3(4),
            VariantConfig::algorithm2_multisocket(4),
        ];
        for c in configs {
            for threads in [1, 4, 16] {
                let run = simulate(&g, 0, threads, c);
                validate_bfs_tree(&g, 0, &run.parents)
                    .unwrap_or_else(|e| panic!("{c:?} x{threads}: {e}"));
            }
        }
    }

    #[test]
    fn deterministic_across_calls() {
        let g = graph();
        let a = simulate(&g, 0, 16, VariantConfig::algorithm3(4));
        let b = simulate(&g, 0, 16, VariantConfig::algorithm3(4));
        assert_eq!(a.parents, b.parents);
        assert_eq!(a.profile, b.profile);
    }

    #[test]
    fn matches_native_reachability() {
        let g = graph();
        let native = crate::algo::sequential::bfs_sequential(&g, 0);
        for c in [
            VariantConfig::algorithm1(),
            VariantConfig::algorithm2(),
            VariantConfig::algorithm3(2),
        ] {
            let sim = simulate(&g, 0, 8, c);
            assert_eq!(sim.visited, native.visited, "{c:?}");
            assert_eq!(
                sim.profile.edges_traversed, native.profile.edges_traversed,
                "{c:?}"
            );
        }
    }

    #[test]
    fn work_is_spread_over_virtual_threads() {
        let g = UniformBuilder::new(1 << 12, 8).seed(3).build();
        let run = simulate(&g, 0, 8, VariantConfig::algorithm2());
        // In the big middle level every thread must have scanned something.
        let busiest = run
            .profile
            .levels
            .iter()
            .max_by_key(|l| l.total().edges_scanned)
            .unwrap();
        assert!(busiest.threads.iter().all(|t| t.edges_scanned > 0));
        // And the imbalance should be mild on a uniform graph.
        let max = busiest
            .threads
            .iter()
            .map(|t| t.edges_scanned)
            .max()
            .unwrap();
        let min = busiest
            .threads
            .iter()
            .map(|t| t.edges_scanned)
            .min()
            .unwrap();
        assert!(max < 3 * min.max(1), "imbalance {max}/{min}");
    }

    #[test]
    fn algorithm1_counts_atomics_per_edge_and_queue_op() {
        let g = graph();
        let a1 = simulate(&g, 0, 4, VariantConfig::algorithm1());
        let t = a1.profile.total();
        // Per-vertex dequeues + per-edge claims: at least one atomic per
        // scanned edge plus one per dequeued vertex.
        assert!(t.atomic_ops >= t.edges_scanned + t.vertices_scanned);
        assert!(!a1.profile.pipelined);
        assert_eq!(a1.profile.visited_bytes, a1.profile.num_vertices * 4);
    }

    #[test]
    fn test_then_set_cuts_atomics_in_simulation() {
        let g = graph();
        let a2 = simulate(&g, 0, 4, VariantConfig::algorithm2());
        let no_tts = VariantConfig {
            test_then_set: false,
            ..VariantConfig::algorithm2()
        };
        let a2n = simulate(&g, 0, 4, no_tts);
        assert!(a2.profile.total().atomic_ops * 2 < a2n.profile.total().atomic_ops);
    }

    #[test]
    fn channels_eliminate_remote_atomics() {
        let g = graph();
        let with = simulate(&g, 0, 8, VariantConfig::algorithm3(4));
        let without = simulate(&g, 0, 8, VariantConfig::algorithm2_multisocket(4));
        assert_eq!(with.profile.total().remote_atomic_ops, 0);
        assert!(without.profile.total().remote_atomic_ops > 0);
        assert!(with.profile.total().channel_items > 0);
        assert_eq!(without.profile.total().channel_items, 0);
    }

    #[test]
    fn batching_divides_channel_batches() {
        let g = graph();
        let batched = simulate(&g, 0, 8, VariantConfig::algorithm3(4));
        let unbatched = simulate(
            &g,
            0,
            8,
            VariantConfig {
                batch: 1,
                ..VariantConfig::algorithm3(4)
            },
        );
        let (b, u) = (
            batched.profile.total().channel_batches,
            unbatched.profile.total().channel_batches,
        );
        assert_eq!(u, unbatched.profile.total().channel_items);
        assert!(b * 4 < u, "batched {b} vs unbatched {u}");
    }

    #[test]
    fn barriers_reflect_two_phase_structure() {
        let g = graph();
        let a3 = simulate(&g, 0, 8, VariantConfig::algorithm3(2));
        let a2 = simulate(&g, 0, 8, VariantConfig::algorithm2());
        assert!(a3.profile.levels.iter().all(|l| l.barriers == 3));
        assert!(a2.profile.levels.iter().all(|l| l.barriers == 2));
    }

    #[test]
    fn single_vertex_graph() {
        let g = CsrGraph::from_edges(1, &[]);
        let run = simulate(&g, 0, 4, VariantConfig::algorithm3(2));
        assert_eq!(run.parents, vec![0]);
        assert_eq!(run.visited, 1);
        assert_eq!(run.profile.num_levels(), 1);
    }
}
