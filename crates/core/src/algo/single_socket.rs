//! Algorithm 2: the optimized single-socket BFS.
//!
//! Three changes over Algorithm 1, each measurable in isolation through
//! [`SingleSocketOpts`] (this is how the Fig. 5 optimization study and the
//! Fig. 4 atomics count are produced):
//!
//! 1. **Visited bitmap** — the random-probe working set shrinks from
//!    4 bytes to 1 bit per vertex, moving it up the cache hierarchy;
//! 2. **test-then-set** — a plain load precedes the `lock or`, skipping the
//!    atomic whenever the vertex is already visited (lines 13–15 of the
//!    paper's pseudo-code);
//! 3. **chunked frontier queues** — dequeues claim [`DEQUEUE_CHUNK`]
//!    vertices with one `fetch_add` and enqueues reserve batches of up to
//!    [`ENQUEUE_BATCH`] slots, replacing the per-vertex lock round-trips.

use crate::algo::parents::AtomicParents;
use crate::algo::{NativeRun, DEQUEUE_CHUNK, ENQUEUE_BATCH};
use crate::instrument::Recorder;
use core::sync::atomic::{AtomicBool, Ordering};
use mcbfs_graph::bitmap::AtomicBitmap;
use mcbfs_graph::csr::{CsrGraph, VertexId};
use mcbfs_machine::profile::ThreadCounts;
use mcbfs_sync::barrier::SpinBarrier;
use mcbfs_sync::pool::scoped_run;
use mcbfs_sync::ticket::TicketLock;
use mcbfs_sync::workq::SharedQueue;
use mcbfs_trace::{EventKind, SpanTimer};
use std::time::Instant;

/// Ablation switches for Algorithm 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SingleSocketOpts {
    /// Mark visited vertices in the 1-bit-per-vertex bitmap (`true`, the
    /// paper's design) or claim directly on the parent array (`false`).
    pub use_bitmap: bool,
    /// Check with a plain load before issuing the atomic (`true`, the
    /// paper's design) or go straight to the atomic (`false`).
    pub test_then_set: bool,
    /// Software-pipeline the probes: scan an adjacency list in two passes —
    /// first issue all the independent bitmap loads (the CPU overlaps their
    /// misses, the §II "keeping multiple memory requests in flight" trick),
    /// then claim the candidates that tested unvisited. Only meaningful
    /// with `use_bitmap && test_then_set`.
    pub software_pipeline: bool,
}

impl Default for SingleSocketOpts {
    fn default() -> Self {
        Self {
            use_bitmap: true,
            test_then_set: true,
            software_pipeline: true,
        }
    }
}

/// Independent probes issued per software-pipelining round — matches the
/// ~10 outstanding requests the paper measures per thread, rounded up to
/// fill the last prefetch batch.
const PROBE_BATCH: usize = 16;

/// Runs Algorithm 2 from `root` on `threads` worker threads.
pub fn bfs_single_socket(
    graph: &CsrGraph,
    root: VertexId,
    threads: usize,
    opts: SingleSocketOpts,
) -> NativeRun {
    let n = graph.num_vertices();
    assert!((root as usize) < n, "root {root} out of range 0..{n}");
    let threads = threads.max(1);
    let parents = AtomicParents::new(n);
    parents.store(root, root);
    let bitmap = AtomicBitmap::new(if opts.use_bitmap { n } else { 0 });
    if opts.use_bitmap {
        bitmap.set_atomic(root as usize);
    }
    let queues: [SharedQueue<VertexId>; 2] =
        [SharedQueue::with_capacity(n), SharedQueue::with_capacity(n)];
    queues[0].push(root);
    let barrier = SpinBarrier::new(threads);
    let done = AtomicBool::new(false);
    let recorder = Recorder::new(threads, 1, 2);
    let edge_total: TicketLock<u64> = TicketLock::new(0);

    let start = Instant::now();
    scoped_run(threads, |tid| {
        mcbfs_trace::register_worker(tid);
        let mut series: Vec<ThreadCounts> = Vec::new();
        let mut parity = 0usize;
        let mut local_edges = 0u64;
        let mut buffer: Vec<VertexId> = Vec::with_capacity(ENQUEUE_BATCH);
        loop {
            let level_index = series.len() as u64;
            let level_span = SpanTimer::start();
            let cq = &queues[parity];
            let nq = &queues[1 - parity];
            let mut counts = ThreadCounts::default();
            while let Some(chunk) = cq.take_chunk(DEQUEUE_CHUNK) {
                counts.atomic_ops += 1; // chunk reservation fetch_add
                for &u in chunk {
                    counts.vertices_scanned += 1;
                    if opts.use_bitmap && opts.test_then_set && opts.software_pipeline {
                        // Two-pass pipelined scan: pass 1 issues the whole
                        // batch of independent probes (their cache misses
                        // overlap), pass 2 claims only the candidates.
                        for probe_chunk in graph.neighbors(u).chunks(PROBE_BATCH) {
                            let mut candidate = [false; PROBE_BATCH];
                            for (i, &v) in probe_chunk.iter().enumerate() {
                                counts.edges_scanned += 1;
                                counts.bitmap_reads += 1;
                                candidate[i] = !bitmap.test(v as usize);
                            }
                            for (i, &v) in probe_chunk.iter().enumerate() {
                                if !candidate[i] {
                                    continue;
                                }
                                counts.atomic_ops += 1;
                                if bitmap.set_atomic(v as usize).claimed() {
                                    parents.store(v, u);
                                    counts.parent_writes += 1;
                                    counts.queue_pushes += 1;
                                    buffer.push(v);
                                    if buffer.len() == ENQUEUE_BATCH {
                                        counts.atomic_ops += 1;
                                        nq.push_batch(&buffer);
                                        buffer.clear();
                                    }
                                }
                            }
                        }
                        continue;
                    }
                    for &v in graph.neighbors(u) {
                        counts.edges_scanned += 1;
                        let claimed = if opts.use_bitmap {
                            counts.bitmap_reads += 1;
                            let outcome = if opts.test_then_set {
                                bitmap.claim(v as usize)
                            } else {
                                bitmap.set_atomic(v as usize)
                            };
                            if outcome.used_atomic() {
                                counts.atomic_ops += 1;
                            }
                            outcome.claimed()
                        } else {
                            // No-bitmap ablation: probe (and claim on) the
                            // parent array itself.
                            counts.bitmap_reads += 1;
                            if opts.test_then_set && parents.is_visited(v) {
                                false
                            } else {
                                counts.atomic_ops += 1;
                                parents.try_claim(v, u)
                            }
                        };
                        if claimed {
                            if opts.use_bitmap {
                                parents.store(v, u);
                            }
                            counts.parent_writes += 1;
                            counts.queue_pushes += 1;
                            buffer.push(v);
                            if buffer.len() == ENQUEUE_BATCH {
                                counts.atomic_ops += 1; // batch reservation
                                nq.push_batch(&buffer);
                                buffer.clear();
                            }
                        }
                    }
                }
            }
            if !buffer.is_empty() {
                counts.atomic_ops += 1;
                nq.push_batch(&buffer);
                buffer.clear();
            }
            local_edges += counts.edges_scanned;
            series.push(counts);
            if barrier.wait() {
                done.store(nq.is_empty(), Ordering::Release);
                cq.reset();
            }
            barrier.wait();
            level_span.finish(EventKind::Level, level_index);
            parity = 1 - parity;
            if done.load(Ordering::Acquire) {
                break;
            }
        }
        *edge_total.lock() += local_edges;
        recorder.deposit(tid, series);
        mcbfs_trace::flush_thread();
    });
    let seconds = start.elapsed().as_secs_f64();
    let edges_traversed = edge_total.into_inner();
    let visited_bytes = if opts.use_bitmap {
        (n as u64).div_ceil(8)
    } else {
        n as u64 * 4
    };
    let profile = recorder.into_profile(n as u64, visited_bytes, true, edges_traversed);
    let parents = parents.into_vec();
    let visited = parents
        .iter()
        .filter(|&&p| p != mcbfs_graph::csr::UNVISITED)
        .count() as u64;
    NativeRun {
        parents,
        profile,
        seconds,
        visited,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcbfs_gen::prelude::*;
    use mcbfs_graph::validate::validate_bfs_tree;

    fn all_opts() -> Vec<SingleSocketOpts> {
        vec![
            SingleSocketOpts::default(), // pipelined two-pass scan
            SingleSocketOpts {
                use_bitmap: true,
                test_then_set: true,
                software_pipeline: false,
            },
            SingleSocketOpts {
                use_bitmap: true,
                test_then_set: false,
                software_pipeline: false,
            },
            SingleSocketOpts {
                use_bitmap: false,
                test_then_set: true,
                software_pipeline: false,
            },
            SingleSocketOpts {
                use_bitmap: false,
                test_then_set: false,
                software_pipeline: false,
            },
        ]
    }

    #[test]
    fn every_ablation_produces_valid_trees() {
        let g = RmatBuilder::new(10, 6).seed(21).build();
        for opts in all_opts() {
            for threads in [1, 2, 4] {
                let run = bfs_single_socket(&g, 3, threads, opts);
                validate_bfs_tree(&g, 3, &run.parents)
                    .unwrap_or_else(|e| panic!("opts {opts:?} threads {threads}: {e}"));
            }
        }
    }

    #[test]
    fn matches_sequential_reachability() {
        let g = UniformBuilder::new(2_000, 4).seed(8).build();
        let seq = crate::algo::sequential::bfs_sequential(&g, 0);
        let par = bfs_single_socket(&g, 0, 4, SingleSocketOpts::default());
        assert_eq!(seq.visited, par.visited);
        assert_eq!(seq.profile.edges_traversed, par.profile.edges_traversed);
    }

    #[test]
    fn test_then_set_reduces_atomics() {
        let g = UniformBuilder::new(4_096, 8).seed(13).build();
        let with = bfs_single_socket(&g, 0, 2, SingleSocketOpts::default());
        let without = bfs_single_socket(
            &g,
            0,
            2,
            SingleSocketOpts {
                use_bitmap: true,
                test_then_set: false,
                software_pipeline: false,
            },
        );
        let (a_with, a_without) = (
            with.profile.total().atomic_ops,
            without.profile.total().atomic_ops,
        );
        assert!(
            a_with * 2 < a_without,
            "test-then-set must cut atomics: {a_with} vs {a_without}"
        );
    }

    #[test]
    fn fig4_shape_atomics_collapse_in_late_levels() {
        // In late levels, bitmap reads vastly outnumber atomics: the Fig. 4
        // phenomenon.
        let g = UniformBuilder::new(1 << 14, 8).seed(4).build();
        let run = bfs_single_socket(&g, 0, 2, SingleSocketOpts::default());
        let series = run.profile.bitmap_vs_atomics_series();
        let late = &series[series.len().saturating_sub(2)..];
        for &(reads, atomics) in late {
            if reads > 1000 {
                assert!(
                    atomics * 3 < reads,
                    "late level: {atomics} atomics vs {reads} reads"
                );
            }
        }
    }

    #[test]
    fn disconnected_graph() {
        let g = CsrGraph::from_edges_symmetric(100, &[(0, 1), (1, 2), (50, 51)]);
        let run = bfs_single_socket(&g, 0, 3, SingleSocketOpts::default());
        assert_eq!(run.visited, 3);
        validate_bfs_tree(&g, 0, &run.parents).unwrap();
    }

    #[test]
    fn profile_working_set_reflects_bitmap_choice() {
        let g = CsrGraph::from_edges_symmetric(1_000, &[(0, 1)]);
        let with = bfs_single_socket(&g, 0, 1, SingleSocketOpts::default());
        let without = bfs_single_socket(
            &g,
            0,
            1,
            SingleSocketOpts {
                use_bitmap: false,
                test_then_set: true,
                software_pipeline: false,
            },
        );
        assert_eq!(with.profile.visited_bytes, 125);
        assert_eq!(without.profile.visited_bytes, 4_000);
    }

    #[test]
    fn pipelined_and_scalar_scans_agree_on_counts() {
        let g = UniformBuilder::new(4_096, 8).seed(17).build();
        let pipelined = bfs_single_socket(&g, 0, 2, SingleSocketOpts::default());
        let scalar = bfs_single_socket(
            &g,
            0,
            2,
            SingleSocketOpts {
                use_bitmap: true,
                test_then_set: true,
                software_pipeline: false,
            },
        );
        // Structure-determined counts are identical; only the instruction
        // schedule differs.
        assert_eq!(pipelined.visited, scalar.visited);
        let (p, s) = (pipelined.profile.total(), scalar.profile.total());
        assert_eq!(p.edges_scanned, s.edges_scanned);
        assert_eq!(p.bitmap_reads, s.bitmap_reads);
        assert_eq!(p.parent_writes, s.parent_writes);
    }

    #[test]
    fn star_graph_two_levels() {
        let edges: Vec<_> = (1..64u32).map(|i| (0, i)).collect();
        let g = CsrGraph::from_edges_symmetric(64, &edges);
        let run = bfs_single_socket(&g, 0, 4, SingleSocketOpts::default());
        validate_bfs_tree(&g, 0, &run.parents).unwrap();
        assert_eq!(run.profile.num_levels(), 2);
    }
}
