//! Direction-optimizing hybrid BFS (top-down / bottom-up switching).
//!
//! The paper's Algorithms 1–3 are strictly top-down: every level scans all
//! edges out of the frontier, even in the dense middle levels where >90% of
//! probed neighbours are already visited (the Fig. 4 phenomenon). The
//! canonical fix from the follow-up literature is to run those levels
//! *bottom-up*: sweep the unvisited vertices and search each one's
//! adjacency for a frontier member, stopping at the first hit — on
//! low-diameter graphs the early exit skips the bulk of the edge
//! examinations.
//!
//! This module combines both:
//!
//! * **top-down levels** *are* Algorithm 2's levels: the traversal state
//!   is a [`level`](super::level) state configured by
//!   [`VariantConfig::algorithm2`], and a top-down level hands its chunked
//!   frontier to that module's scan — 16-probe pipelined windows of
//!   test-then-set claims on the visited bitmap, batched enqueues;
//! * **bottom-up levels** sweep the visited bitmap word by word (64
//!   not-yet-visited flags per load), probe a *dense* frontier bitmap, and
//!   early-exit each adjacency scan — skipped entries are counted in
//!   `edges_skipped` so the saving is visible in profiles;
//! * the **switch heuristic** follows Beamer et al.: go bottom-up when the
//!   frontier's out-edge count exceeds `1/ALPHA` of the edges still
//!   incident to unvisited vertices, return top-down when the frontier
//!   shrinks below `n / BETA` vertices.
//!
//! Each of these pieces is written once. [`bfs_hybrid`] runs them on real
//! threads; [`bfs_hybrid_deterministic`], the model-mode executor, runs the
//! same pieces on virtual threads on the calling thread.
//!
//! Bottom-up correctness requires a symmetric (undirected) graph — `u`
//! finds its parent by scanning its own adjacency, which must mirror the
//! parent's. Every generator in this workspace emits symmetric graphs.

use crate::algo::level::{Buffers, Direct, Hop, LevelState, Sink, VariantConfig};
use crate::algo::NativeRun;
use crate::instrument::Recorder;
use core::ops::Range;
use core::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use crossbeam::utils::CachePadded;
use mcbfs_graph::bitmap::{bits_of_word, AtomicBitmap};
use mcbfs_graph::csr::{CsrGraph, VertexId};
use mcbfs_graph::frontier::{chunk_of, densify_chunk, sparsify_chunk};
use mcbfs_machine::profile::Direction::{BottomUp, TopDown};
use mcbfs_machine::profile::{Direction, LevelProfile, ThreadCounts};
use mcbfs_sync::barrier::SpinBarrier;
use mcbfs_sync::channel::ChannelMatrix;
use mcbfs_sync::pool::scoped_run;
use mcbfs_sync::ticket::TicketLock;
use mcbfs_trace::{EventKind, SpanTimer};
use std::time::Instant;

/// Switch top-down → bottom-up when
/// `frontier_edges > unexplored_edges / ALPHA` (Beamer's default).
pub const ALPHA: f64 = 14.0;

/// Switch bottom-up → top-down when `frontier_vertices < n / BETA`
/// (Beamer's default).
pub const BETA: f64 = 24.0;

/// Direction policy: the heuristic plus three forcing modes for ablation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ForcedDirection {
    /// Decide per level with the ALPHA/BETA heuristic (the real design).
    #[default]
    Auto,
    /// Every level top-down — Algorithm 2's traversal, run by the same
    /// scan and claims: parents and profile equal
    /// [`VariantConfig::algorithm2`]'s wherever no race decides them (one
    /// native thread, or model mode).
    TopDown,
    /// Every level bottom-up — pays the full unvisited sweep even on
    /// sparse levels; the upper bound on what switching must beat.
    BottomUp,
    /// Alternate directions every level — exercises both conversion paths
    /// regardless of graph shape (test/ablation mode).
    Alternate,
}

/// A top-down level's sink: `level`'s sink, tallying Beamer's m_f — the
/// adjacency entries of every vertex discovered — as discoveries happen.
struct Tally<'g, S> {
    graph: &'g CsrGraph,
    inner: S,
    found_edges: u64,
}

impl<'g, S: Sink> Tally<'g, S> {
    fn new(graph: &'g CsrGraph, inner: S) -> Self {
        Self {
            graph,
            inner,
            found_edges: 0,
        }
    }
}

impl<S: Sink> Sink for Tally<'_, S> {
    #[inline]
    fn discovered(&mut self, dst: usize, v: VertexId, counts: &mut ThreadCounts) {
        self.found_edges += self.graph.degree(v) as u64;
        self.inner.discovered(dst, v, counts);
    }

    fn send(&mut self, dst: usize, hop: Hop, counts: &mut ThreadCounts) {
        self.inner.send(dst, hop, counts);
    }

    fn run_as(&mut self, tid: usize) {
        self.inner.run_as(tid);
    }
}

/// The traversal state both executors drive: Algorithm 2's level state
/// (parents, the visited bitmap and the sparse frontier pair) plus the
/// dense frontier pair of the bottom-up levels. Level L reads index L%2 and
/// writes index (L+1)%2.
struct HybridState<'g> {
    graph: &'g CsrGraph,
    /// Always [`VariantConfig::algorithm2`]'s: one socket, so one visited
    /// shard holds every vertex, and chunked frontier queues.
    level: LevelState<'g>,
    dense: [AtomicBitmap; 2],
}

impl<'g> HybridState<'g> {
    /// `root` visited and in the index-0 frontier of both representations;
    /// the copy the first level does not read is reset with the one it does.
    fn new(graph: &'g CsrGraph, root: VertexId) -> Self {
        let level = LevelState::new(graph, root, VariantConfig::algorithm2());
        let n = graph.num_vertices();
        let dense = [AtomicBitmap::new(n), AtomicBitmap::new(n)];
        dense[0].set_atomic(root as usize);
        Self {
            graph,
            level,
            dense,
        }
    }

    /// Bottom-up sweep of the visited-bitmap `words`: every unvisited
    /// vertex searches its adjacency for a member of the dense frontier at
    /// `parity` and stops at the first hit. The caller owns the word range,
    /// so claims within it are race-free plain stores — no lock-prefixed
    /// operations at all. Returns the sweep's share of m_f.
    fn sweep_bottom_up(
        &self,
        parity: usize,
        words: Range<usize>,
        counts: &mut ThreadCounts,
    ) -> u64 {
        let graph = self.graph;
        let (parents, visited, _) = self.level.single_socket(parity);
        let (cur, nxt) = (&self.dense[parity], &self.dense[1 - parity]);
        let mut found_edges = 0;
        for wi in words {
            let unvisited = !visited.word(wi) & visited.word_mask(wi);
            if unvisited == 0 {
                continue;
            }
            let mut claimed_mask = 0u64;
            for bit in bits_of_word(unvisited) {
                let u = (wi * 64 + bit) as VertexId;
                let neigh = graph.neighbors(u);
                let hit = neigh.iter().position(|&v| cur.test(v as usize));
                let examined = hit.map_or(neigh.len(), |i| i + 1) as u64;
                counts.vertices_scanned += 1;
                counts.edges_scanned += examined;
                counts.bitmap_reads += examined;
                if let Some(i) = hit {
                    parents.store(u, neigh[i]);
                    counts.parent_writes += 1;
                    counts.queue_pushes += 1;
                    counts.edges_skipped += (neigh.len() - 1 - i) as u64;
                    claimed_mask |= 1u64 << bit;
                    found_edges += neigh.len() as u64;
                }
            }
            if claimed_mask != 0 {
                visited.set_word(wi, visited.word(wi) | claimed_mask);
                nxt.set_word(wi, claimed_mask);
            }
        }
        found_edges
    }

    /// Thread `tid`'s share of converting the frontier at index `next` into
    /// the representation direction `to` reads. Returns the cost, which is
    /// charged to the level the conversion prepares.
    fn convert(&self, next: usize, to: Direction, tid: usize, threads: usize) -> ThreadCounts {
        let (_, _, sparse) = self.level.single_socket(next);
        let dense = &self.dense[next];
        let mut cost = ThreadCounts::default();
        if to == BottomUp {
            let converted = densify_chunk(sparse, dense, tid, threads);
            cost.atomic_ops = converted as u64; // fetch_or per vertex
        } else {
            let converted = sparsify_chunk(dense, sparse, tid, threads);
            cost.queue_pushes = converted as u64;
            cost.atomic_ops = 1; // batch reservation
        }
        cost
    }

    /// Empties both frontiers at `parity` once their level has consumed
    /// them, including a stale copy a conversion left behind.
    fn reset(&self, parity: usize) {
        let (_, _, sparse) = self.level.single_socket(parity);
        sparse.reset();
        self.dense[parity].clear();
    }
}

/// The decision between levels: Beamer's heuristic or a forced policy,
/// plus the log of every level's direction.
struct Switch {
    policy: ForcedDirection,
    n: usize,
    /// Directed edges still incident to unvisited vertices (Beamer's m_u).
    unexplored_edges: u64,
    directions: Vec<Direction>,
}

impl Switch {
    fn new(graph: &CsrGraph, root: VertexId, policy: ForcedDirection) -> Self {
        Self {
            policy,
            n: graph.num_vertices(),
            unexplored_edges: graph.num_edges() as u64 - graph.degree(root) as u64,
            directions: Vec::new(),
        }
    }

    /// The first level's direction.
    fn initial(&self) -> Direction {
        match self.policy {
            ForcedDirection::BottomUp => BottomUp,
            _ => TopDown,
        }
    }

    /// Logs a finished level that ran in direction `dir` and discovered
    /// `found` vertices with `found_edges` adjacency entries, and picks the
    /// next level's direction.
    fn next(&mut self, dir: Direction, found: u64, found_edges: u64) -> Direction {
        self.directions.push(dir);
        self.unexplored_edges = self.unexplored_edges.saturating_sub(found_edges);
        match self.policy {
            ForcedDirection::TopDown => TopDown,
            ForcedDirection::BottomUp => BottomUp,
            ForcedDirection::Alternate if dir == TopDown => BottomUp,
            ForcedDirection::Alternate => TopDown,
            ForcedDirection::Auto => {
                if dir == TopDown && found_edges as f64 > self.unexplored_edges as f64 / ALPHA {
                    BottomUp
                } else if dir == BottomUp && (found as f64) < self.n as f64 / BETA {
                    TopDown
                } else {
                    dir
                }
            }
        }
    }

    /// Stamps each level of `run`'s profile with the direction it ran in.
    fn stamp(self, mut run: NativeRun) -> NativeRun {
        for (level, d) in run.profile.levels.iter_mut().zip(self.directions) {
            level.direction = d;
        }
        run
    }
}

/// Runs direction-optimizing BFS from `root` on `threads` worker threads.
pub fn bfs_hybrid(
    graph: &CsrGraph,
    root: VertexId,
    threads: usize,
    policy: ForcedDirection,
) -> NativeRun {
    let threads = threads.max(1);
    let st = HybridState::new(graph, root);
    let level = &st.level;
    let switch = Switch::new(graph, root, policy);
    let initial_dir = switch.initial();
    let switch = TicketLock::new(switch);
    let barrier = SpinBarrier::new(threads);
    let done = AtomicBool::new(false);
    let next_dir = AtomicU8::new(initial_dir as u8);
    // Per-thread discovery tallies for the switch (n_f and m_f), summed by
    // the leader.
    let found_count: Vec<CachePadded<AtomicU64>> =
        (0..threads).map(|_| Default::default()).collect();
    let found_edges: Vec<CachePadded<AtomicU64>> =
        (0..threads).map(|_| Default::default()).collect();
    let recorder = Recorder::new(threads, 1, 2);
    // One socket sends no hops, so its ring stays empty.
    let links = ChannelMatrix::<Hop>::new(1, 0);

    let start = Instant::now();
    scoped_run(threads, |tid| {
        mcbfs_trace::register_worker(tid);
        let mut sink = Tally::new(graph, Buffers::new(level, &links, &[], 0));
        let mut series: Vec<ThreadCounts> = Vec::new();
        let mut parity = 0usize;
        let mut dir = initial_dir;
        // Conversion work between levels is charged to the level it
        // prepares, carried over in this accumulator.
        let mut carry = ThreadCounts::default();
        loop {
            let level_index = series.len() as u64;
            let level_span = SpanTimer::start();
            let mut counts = core::mem::take(&mut carry);
            let m_f = if dir == TopDown {
                sink.inner.start_level(level, parity);
                level.scan_share(0, parity, &mut counts, &mut sink);
                sink.inner.flush_local(&mut counts);
                core::mem::take(&mut sink.found_edges)
            } else {
                let (_, visited, _) = level.single_socket(parity);
                let words = chunk_of(visited.num_words(), tid, threads);
                st.sweep_bottom_up(parity, words, &mut counts)
            };
            found_count[tid].store(counts.parent_writes, Ordering::Relaxed);
            found_edges[tid].store(m_f, Ordering::Relaxed);
            series.push(counts);

            if barrier.wait() {
                // Leader: sum the tallies, pick the next direction, recycle
                // the consumed frontiers.
                let n_f: u64 = found_count.iter().map(|c| c.load(Ordering::Relaxed)).sum();
                let m_f: u64 = found_edges.iter().map(|c| c.load(Ordering::Relaxed)).sum();
                let decided = switch.lock().next(dir, n_f, m_f);
                next_dir.store(decided as u8, Ordering::Relaxed);
                done.store(n_f == 0, Ordering::Relaxed);
                st.reset(parity);
                if decided != dir && n_f != 0 {
                    mcbfs_trace::instant(EventKind::DirectionSwitch, decided as u64);
                }
            }
            barrier.wait();
            level_span.finish(EventKind::Level, level_index);
            let decided = if next_dir.load(Ordering::Relaxed) == BottomUp as u8 {
                BottomUp
            } else {
                TopDown
            };
            if done.load(Ordering::Relaxed) {
                break;
            }
            // The next frontier sits at index 1-parity in the
            // representation `dir` built; convert when `decided` needs the
            // other one. All threads compute the same predicate, so the
            // extra barrier stays uniform.
            if dir != decided {
                let convert_span = SpanTimer::start();
                carry = st.convert(1 - parity, decided, tid, threads);
                barrier.wait();
                convert_span.finish(EventKind::Convert, decided as u64);
            }
            parity = 1 - parity;
            dir = decided;
        }
        recorder.deposit(tid, series);
        mcbfs_trace::flush_thread();
    });
    let seconds = start.elapsed().as_secs_f64();
    let run = st.level.into_run(recorder.into_levels(), threads, seconds);
    switch.into_inner().stamp(run)
}

/// Runs [`bfs_hybrid`] as `threads` deterministic virtual threads on the
/// calling thread — the model-mode executor. Each level calls the same
/// top-down scan, bottom-up sweep, frontier conversion and direction
/// switch as the native threads, on a fixed schedule:
///
/// * a top-down level is phase 1 of
///   [`bfs_deterministic`](super::level::bfs_deterministic) with every
///   virtual thread in one team: vertices go one at a time, in frontier
///   order, to the least-loaded virtual thread, each virtual thread pays
///   one dequeue atomic per [`DEQUEUE_CHUNK`](super::DEQUEUE_CHUNK)
///   vertices it took, and discoveries go straight to the next queue in
///   claim order, with no batched-enqueue reservation;
/// * bottom-up word ranges and conversions use the native per-thread
///   shares.
///
/// Parents and profile are deterministic; `seconds` is `0.0` (callers price
/// the profile with a machine model). At one thread the run equals a native
/// one except in `atomic_ops` on top-down levels, where native also pays
/// ⌈`parent_writes` / [`ENQUEUE_BATCH`](super::ENQUEUE_BATCH)⌉ enqueue
/// reservations.
pub fn bfs_hybrid_deterministic(
    graph: &CsrGraph,
    root: VertexId,
    threads: usize,
    policy: ForcedDirection,
) -> NativeRun {
    let threads = threads.max(1);
    let st = HybridState::new(graph, root);
    let mut switch = Switch::new(graph, root, policy);
    let mut dir = switch.initial();
    let team: Vec<usize> = (0..threads).collect();
    let mut levels: Vec<LevelProfile> = Vec::new();
    let mut carry = vec![ThreadCounts::default(); threads];
    let mut parity = 0usize;
    loop {
        let mut level = LevelProfile::new(threads, 2);
        level.threads = carry;
        let m_f = if dir == TopDown {
            let mut sink = Tally::new(graph, Direct::new(&st.level, parity, threads));
            st.level
                .scan_team(0, parity, &team, &mut level.threads, &mut sink);
            sink.found_edges
        } else {
            let (_, visited, _) = st.level.single_socket(parity);
            let words = visited.num_words();
            let share =
                |(tid, counts)| st.sweep_bottom_up(parity, chunk_of(words, tid, threads), counts);
            level.threads.iter_mut().enumerate().map(share).sum()
        };
        let n_f = level.total().parent_writes;
        levels.push(level);
        let decided = switch.next(dir, n_f, m_f);
        st.reset(parity);
        if n_f == 0 {
            break;
        }
        carry = (0..threads)
            .map(|tid| {
                if decided == dir {
                    ThreadCounts::default()
                } else {
                    st.convert(1 - parity, decided, tid, threads)
                }
            })
            .collect();
        parity = 1 - parity;
        dir = decided;
    }
    switch.stamp(st.level.into_run(levels, threads, 0.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::level::{bfs, bfs_deterministic};
    use mcbfs_gen::prelude::*;
    use mcbfs_graph::validate::validate_bfs_tree;

    fn policies() -> [ForcedDirection; 4] {
        [
            ForcedDirection::Auto,
            ForcedDirection::TopDown,
            ForcedDirection::BottomUp,
            ForcedDirection::Alternate,
        ]
    }

    #[test]
    fn every_policy_produces_valid_trees() {
        let g = RmatBuilder::new(10, 6).seed(21).build();
        for policy in policies() {
            for threads in [1, 2, 4] {
                let run = bfs_hybrid(&g, 3, threads, policy);
                validate_bfs_tree(&g, 3, &run.parents)
                    .unwrap_or_else(|e| panic!("{policy:?} x{threads}: {e}"));
            }
        }
    }

    #[test]
    fn matches_sequential_reachability() {
        let g = UniformBuilder::new(2_000, 4).seed(8).build();
        let seq = crate::algo::sequential::bfs_sequential(&g, 0);
        for policy in policies() {
            let run = bfs_hybrid(&g, 0, 4, policy);
            assert_eq!(run.visited, seq.visited, "{policy:?}");
        }
    }

    #[test]
    fn auto_switches_bottom_up_and_cuts_edges_on_rmat() {
        let g = RmatBuilder::new(12, 8).seed(5).build();
        let hybrid = bfs_hybrid(&g, 0, 2, ForcedDirection::Auto);
        let topdown = bfs(&g, 0, 2, VariantConfig::algorithm2());
        let dirs = hybrid.profile.direction_string();
        assert!(
            dirs.contains('B'),
            "expected bottom-up levels, got {dirs:?}"
        );
        assert!(
            hybrid.profile.edges_traversed * 2 <= topdown.profile.edges_traversed,
            "hybrid {} vs top-down {} edges examined",
            hybrid.profile.edges_traversed,
            topdown.profile.edges_traversed
        );
        assert!(hybrid.profile.total().edges_skipped > 0);
    }

    #[test]
    fn forced_top_down_matches_algorithm2_edge_counts() {
        let g = UniformBuilder::new(4_096, 8).seed(13).build();
        let (td, a2) = (ForcedDirection::TopDown, VariantConfig::algorithm2());
        let forced = bfs_hybrid(&g, 0, 2, td);
        assert_eq!(
            forced.profile.edges_traversed,
            bfs(&g, 0, 2, a2).profile.edges_traversed
        );
        assert!(forced.profile.direction_string().chars().all(|d| d == 'T'));
        assert_eq!(forced.profile.total().edges_skipped, 0);
        // Forced top-down runs Algorithm 2's scan itself: with no races at
        // one native thread, and on any virtual-thread schedule, parents
        // and profile are Algorithm 2's exactly.
        for (forced, alg2) in [
            (bfs_hybrid(&g, 0, 1, td), bfs(&g, 0, 1, a2)),
            (
                bfs_hybrid_deterministic(&g, 0, 4, td),
                bfs_deterministic(&g, 0, 4, a2),
            ),
        ] {
            assert_eq!(
                (forced.parents, forced.profile),
                (alg2.parents, alg2.profile)
            );
        }
    }

    #[test]
    fn bottom_up_uses_no_claim_atomics_in_sweep_levels() {
        // Forced bottom-up from the root: every level's claims are plain
        // word stores, so atomics only come from conversions (none here).
        let g = UniformBuilder::new(1_024, 6).seed(3).build();
        let run = bfs_hybrid(&g, 0, 4, ForcedDirection::BottomUp);
        validate_bfs_tree(&g, 0, &run.parents).unwrap();
        assert_eq!(run.profile.total().atomic_ops, 0);
        assert!(run.profile.direction_string().chars().all(|c| c == 'B'));
    }

    #[test]
    fn alternate_exercises_both_conversions() {
        let g = UniformBuilder::new(2_048, 6).seed(9).build();
        let run = bfs_hybrid(&g, 0, 3, ForcedDirection::Alternate);
        validate_bfs_tree(&g, 0, &run.parents).unwrap();
        let dirs = run.profile.direction_string();
        assert!(dirs.starts_with("TB"), "got {dirs:?}");
        assert!(
            dirs.as_bytes().windows(2).all(|w| w[0] != w[1]),
            "got {dirs:?}"
        );
    }

    #[test]
    fn deterministic_executor_is_valid_and_repeatable() {
        let g = RmatBuilder::new(10, 6).seed(42).build();
        for policy in policies() {
            let a = bfs_hybrid_deterministic(&g, 0, 8, policy);
            let b = bfs_hybrid_deterministic(&g, 0, 8, policy);
            assert_eq!(a.parents, b.parents, "{policy:?}");
            assert_eq!(a.profile, b.profile, "{policy:?}");
            validate_bfs_tree(&g, 0, &a.parents).unwrap_or_else(|e| panic!("{policy:?}: {e}"));
        }
    }

    #[test]
    fn deterministic_executor_follows_native_directions_and_skips_edges() {
        let g = RmatBuilder::new(11, 8).seed(7).build();
        let model = bfs_hybrid_deterministic(&g, 0, 4, ForcedDirection::Auto);
        let native = bfs_hybrid(&g, 0, 4, ForcedDirection::Auto);
        // The switch's inputs depend only on the level structure, so any
        // thread count and interleaving yields the same schedule.
        let dirs = model.profile.direction_string();
        assert_eq!(dirs, native.profile.direction_string());
        assert!(
            dirs.contains('B'),
            "expected bottom-up levels, got {dirs:?}"
        );
        assert!(model.profile.total().edges_skipped > 0);
        assert_eq!(model.visited, native.visited);
        assert_eq!(model.seconds, 0.0);
    }

    #[test]
    fn disconnected_graph() {
        let g = CsrGraph::from_edges_symmetric(100, &[(0, 1), (1, 2), (50, 51)]);
        for policy in policies() {
            for run in [
                bfs_hybrid(&g, 0, 3, policy),
                bfs_hybrid_deterministic(&g, 0, 3, policy),
            ] {
                assert_eq!(run.visited, 3, "{policy:?}");
                validate_bfs_tree(&g, 0, &run.parents).unwrap();
            }
        }
    }

    #[test]
    fn single_vertex_graph() {
        let g = CsrGraph::from_edges(1, &[]);
        let run = bfs_hybrid(&g, 0, 2, ForcedDirection::Auto);
        assert_eq!(run.parents, vec![0]);
        assert_eq!(run.visited, 1);
    }

    #[test]
    fn star_graph_two_levels() {
        let edges: Vec<_> = (1..64u32).map(|i| (0, i)).collect();
        let g = CsrGraph::from_edges_symmetric(64, &edges);
        let run = bfs_hybrid(&g, 0, 4, ForcedDirection::Auto);
        validate_bfs_tree(&g, 0, &run.parents).unwrap();
        assert_eq!(run.profile.num_levels(), 2);
    }
}
