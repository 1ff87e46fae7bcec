//! Algorithm 1: the high-level parallel BFS.
//!
//! The paper's starting point (and the bottom curve of its Fig. 5): a
//! shared current queue and next queue, both protected by locks
//! (`LockedDequeue`/`LockedEnqueue`), and parent claims performed directly
//! on the parent array with an atomic compare-exchange. Every discovery
//! attempt costs a `lock cmpxchg` and every queue operation a lock
//! round-trip — all on cache lines shared by every thread, which is exactly
//! the pattern Fig. 3 shows collapsing across sockets.

use crate::algo::parents::AtomicParents;
use crate::algo::NativeRun;
use crate::instrument::Recorder;
use core::sync::atomic::{AtomicBool, Ordering};
use mcbfs_graph::csr::{CsrGraph, VertexId};
use mcbfs_machine::profile::ThreadCounts;
use mcbfs_sync::barrier::SpinBarrier;
use mcbfs_sync::pool::scoped_run;
use mcbfs_sync::ticket::TicketLock;
use mcbfs_sync::workq::LockedQueue;
use mcbfs_trace::{EventKind, SpanTimer};
use std::time::Instant;

/// Runs Algorithm 1 from `root` on `threads` worker threads.
pub fn bfs_simple(graph: &CsrGraph, root: VertexId, threads: usize) -> NativeRun {
    let n = graph.num_vertices();
    assert!((root as usize) < n, "root {root} out of range 0..{n}");
    let threads = threads.max(1);
    let parents = AtomicParents::new(n);
    parents.store(root, root);
    // Queue parity: queues[level % 2] is the current queue.
    let queues = [LockedQueue::with_capacity(n), LockedQueue::with_capacity(n)];
    queues[0].enqueue(root);
    let barrier = SpinBarrier::new(threads);
    let done = AtomicBool::new(false);
    let recorder = Recorder::new(threads, 1, 2);
    let deposits: TicketLock<u64> = TicketLock::new(0); // total edges

    let start = Instant::now();
    scoped_run(threads, |tid| {
        mcbfs_trace::register_worker(tid);
        let mut series: Vec<ThreadCounts> = Vec::new();
        let mut parity = 0usize;
        let mut local_edges = 0u64;
        loop {
            let level_index = series.len() as u64;
            let level_span = SpanTimer::start();
            let cq = &queues[parity];
            let nq = &queues[1 - parity];
            let mut counts = ThreadCounts::default();
            while let Some(u) = cq.dequeue() {
                // LockedDequeue: one lock round-trip (ticket fetch_add +
                // release store) — charge one atomic.
                counts.atomic_ops += 1;
                counts.vertices_scanned += 1;
                for &v in graph.neighbors(u) {
                    counts.edges_scanned += 1;
                    // Algorithm 1 has no bitmap and no pre-check: the claim
                    // is an unconditional atomic on the parent array.
                    counts.atomic_ops += 1;
                    if parents.try_claim(v, u) {
                        counts.parent_writes += 1;
                        counts.queue_pushes += 1;
                        counts.atomic_ops += 1; // LockedEnqueue
                        nq.enqueue(v);
                    }
                }
            }
            local_edges += counts.edges_scanned;
            series.push(counts);
            if barrier.wait() {
                // Leader decides termination for everyone.
                done.store(nq.is_empty(), Ordering::Release);
            }
            barrier.wait();
            level_span.finish(EventKind::Level, level_index);
            parity = 1 - parity;
            if done.load(Ordering::Acquire) {
                break;
            }
        }
        *deposits.lock() += local_edges;
        recorder.deposit(tid, series);
        mcbfs_trace::flush_thread();
    });
    let seconds = start.elapsed().as_secs_f64();
    let edges_traversed = deposits.into_inner();
    // No bitmap: the random probe target is the 4-byte-per-vertex parent
    // array itself, and nothing is software-pipelined.
    let profile = recorder.into_profile(n as u64, n as u64 * 4, false, edges_traversed);
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
    use mcbfs_graph::validate::validate_bfs_tree;

    fn cycle(n: usize) -> CsrGraph {
        let edges: Vec<_> = (0..n as u32).map(|i| (i, ((i + 1) % n as u32))).collect();
        CsrGraph::from_edges_symmetric(n, &edges)
    }

    #[test]
    fn single_thread_matches_reference() {
        let g = cycle(64);
        let run = bfs_simple(&g, 0, 1);
        let info = validate_bfs_tree(&g, 0, &run.parents).unwrap();
        assert_eq!(info.visited, 64);
        assert_eq!(run.visited, 64);
    }

    #[test]
    fn multi_thread_produces_valid_tree() {
        let g = cycle(500);
        for threads in [2, 3, 4, 8] {
            let run = bfs_simple(&g, 7, threads);
            let info = validate_bfs_tree(&g, 7, &run.parents).unwrap();
            assert_eq!(info.visited, 500, "threads = {threads}");
        }
    }

    #[test]
    fn disconnected_components_stay_unvisited() {
        let g = CsrGraph::from_edges_symmetric(10, &[(0, 1), (1, 2), (5, 6)]);
        let run = bfs_simple(&g, 0, 4);
        assert_eq!(run.visited, 3);
        validate_bfs_tree(&g, 0, &run.parents).unwrap();
    }

    #[test]
    fn counts_unconditional_atomics() {
        // Algorithm 1 issues at least one atomic per scanned edge.
        let g = cycle(100);
        let run = bfs_simple(&g, 0, 2);
        let totals = run.profile.total();
        assert!(totals.atomic_ops >= totals.edges_scanned);
        assert_eq!(totals.bitmap_reads, 0);
        assert!(!run.profile.pipelined);
    }

    #[test]
    fn edges_traversed_equals_component_degree_sum() {
        let g = cycle(32);
        let run = bfs_simple(&g, 0, 3);
        assert_eq!(run.profile.edges_traversed, 64); // every vertex degree 2
    }

    #[test]
    fn singleton_graph() {
        let g = CsrGraph::from_edges(1, &[]);
        let run = bfs_simple(&g, 0, 4);
        assert_eq!(run.parents, vec![0]);
        assert_eq!(run.visited, 1);
    }
}
