//! Sequential BFS baseline.
//!
//! The paper stresses that "few parallel algorithms outperform their best
//! sequential implementations" on graph problems; every speedup figure is
//! therefore anchored to a tuned single-threaded traversal. This one uses
//! the same CSR layout and a plain (non-atomic) visited bitmap, so it is
//! the honest single-thread comparator — not a strawman.

use crate::algo::NativeRun;
use crate::instrument::Recorder;
use mcbfs_graph::csr::{CsrGraph, VertexId, UNVISITED};
use mcbfs_machine::profile::ThreadCounts;
use mcbfs_trace::{EventKind, SpanTimer};
use std::time::Instant;

/// Runs a sequential BFS from `root`, with the same instrumentation and
/// result shape as the parallel variants.
pub fn bfs_sequential(graph: &CsrGraph, root: VertexId) -> NativeRun {
    let n = graph.num_vertices();
    assert!((root as usize) < n, "root {root} out of range 0..{n}");
    let mut parents = vec![UNVISITED; n];
    let mut visited_words = vec![0u64; n.div_ceil(64)];
    let mut current: Vec<VertexId> = Vec::with_capacity(1024);
    let mut next: Vec<VertexId> = Vec::with_capacity(1024);
    parents[root as usize] = root;
    visited_words[root as usize / 64] |= 1 << (root as usize % 64);
    current.push(root);
    // Timed from here, as the parallel executors are: building the state
    // is not search time.
    let start = Instant::now();
    let mut levels: Vec<ThreadCounts> = Vec::new();
    let mut visited = 1u64;
    let mut edges_traversed = 0u64;
    mcbfs_trace::register_worker(0);
    while !current.is_empty() {
        let level_index = levels.len() as u64;
        let level_span = SpanTimer::start();
        let mut counts = ThreadCounts::default();
        for &u in &current {
            counts.vertices_scanned += 1;
            for &v in graph.neighbors(u) {
                counts.edges_scanned += 1;
                counts.bitmap_reads += 1;
                let (w, mask) = (v as usize / 64, 1u64 << (v as usize % 64));
                if visited_words[w] & mask == 0 {
                    visited_words[w] |= mask;
                    parents[v as usize] = u;
                    counts.parent_writes += 1;
                    counts.queue_pushes += 1;
                    next.push(v);
                    visited += 1;
                }
            }
        }
        edges_traversed += counts.edges_scanned;
        levels.push(counts);
        core::mem::swap(&mut current, &mut next);
        next.clear();
        level_span.finish(EventKind::Level, level_index);
    }
    let seconds = start.elapsed().as_secs_f64();
    let recorder = Recorder::new(1, 1, 0);
    recorder.deposit(0, levels);
    mcbfs_trace::flush_thread();
    let profile = recorder.into_profile(n as u64, (n as u64).div_ceil(8), false, edges_traversed);
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

    #[test]
    fn explores_a_path() {
        let g = CsrGraph::from_edges_symmetric(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let run = bfs_sequential(&g, 0);
        assert_eq!(run.parents, vec![0, 0, 1, 2, 3]);
        assert_eq!(run.visited, 5);
        assert_eq!(run.profile.num_levels(), 5);
        validate_bfs_tree(&g, 0, &run.parents).unwrap();
    }

    #[test]
    fn handles_disconnected_graph() {
        let g = CsrGraph::from_edges_symmetric(6, &[(0, 1), (3, 4)]);
        let run = bfs_sequential(&g, 0);
        assert_eq!(run.visited, 2);
        assert_eq!(run.parents[3], UNVISITED);
        assert_eq!(run.parents[5], UNVISITED);
        validate_bfs_tree(&g, 0, &run.parents).unwrap();
    }

    #[test]
    fn counts_edges_traversed() {
        let g = CsrGraph::from_edges_symmetric(4, &[(0, 1), (0, 2), (0, 3)]);
        let run = bfs_sequential(&g, 0);
        // Root scans 3 edges; each leaf scans its 1 back-edge.
        assert_eq!(run.profile.edges_traversed, 6);
        assert_eq!(run.profile.total().bitmap_reads, 6);
    }

    #[test]
    fn root_in_middle_of_component() {
        let g = CsrGraph::from_edges_symmetric(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let run = bfs_sequential(&g, 2);
        validate_bfs_tree(&g, 2, &run.parents).unwrap();
        assert_eq!(run.profile.num_levels(), 3);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_bad_root() {
        let g = CsrGraph::from_edges(2, &[]);
        bfs_sequential(&g, 5);
    }

    #[test]
    fn single_vertex() {
        let g = CsrGraph::from_edges(1, &[]);
        let run = bfs_sequential(&g, 0);
        assert_eq!(run.parents, vec![0]);
        assert_eq!(run.visited, 1);
    }
}
