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
//! * **top-down levels** reuse Algorithm 2's machinery — the chunked
//!   [`SharedQueue`] frontier, the visited [`AtomicBitmap`] with
//!   test-then-set claims;
//! * **bottom-up levels** sweep the visited bitmap word by word (64
//!   not-yet-visited flags per load), probe a *dense* frontier bitmap, and
//!   early-exit each adjacency scan — skipped entries are counted in
//!   `edges_skipped` so the saving is visible in profiles;
//! * the **switch heuristic** follows Beamer et al.: go bottom-up when the
//!   frontier's out-edge count exceeds `1/alpha` of the edges still
//!   incident to unvisited vertices, return top-down when the frontier
//!   shrinks below `n / beta` vertices.
//!
//! Each of these pieces is written once. [`bfs_hybrid`] runs them on real
//! threads; [`bfs_hybrid_deterministic`], the model-mode executor, runs the
//! same pieces on virtual threads on the calling thread.
//!
//! Bottom-up correctness requires a symmetric (undirected) graph — `u`
//! finds its parent by scanning its own adjacency, which must mirror the
//! parent's. Every generator in this workspace emits symmetric graphs.

use crate::algo::parents::AtomicParents;
use crate::algo::{NativeRun, DEQUEUE_CHUNK, ENQUEUE_BATCH};
use crate::instrument::Recorder;
use core::ops::Range;
use core::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use crossbeam::utils::CachePadded;
use mcbfs_graph::bitmap::{bits_of_word, AtomicBitmap};
use mcbfs_graph::csr::{CsrGraph, VertexId, UNVISITED};
use mcbfs_graph::frontier::{chunk_of, densify_chunk, sparsify_chunk};
use mcbfs_machine::profile::{Direction, LevelProfile, ThreadCounts, WorkProfile};
use mcbfs_sync::barrier::SpinBarrier;
use mcbfs_sync::pool::scoped_run;
use mcbfs_sync::ticket::TicketLock;
use mcbfs_sync::workq::SharedQueue;
use mcbfs_trace::{EventKind, SpanTimer};
use std::time::Instant;

/// Direction policy: the heuristic plus three forcing modes for ablation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ForcedDirection {
    /// Decide per level with the alpha/beta heuristic (the real design).
    #[default]
    Auto,
    /// Every level top-down — degenerates to Algorithm 2's traversal
    /// pattern (scalar claims, no software pipelining).
    TopDown,
    /// Every level bottom-up — pays the full unvisited sweep even on
    /// sparse levels; the upper bound on what switching must beat.
    BottomUp,
    /// Alternate directions every level — exercises both conversion paths
    /// regardless of graph shape (test/ablation mode).
    Alternate,
}

/// Tunables of the hybrid traversal.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HybridOpts {
    /// Switch top-down → bottom-up when
    /// `frontier_edges > unexplored_edges / alpha`. Beamer's default 14.
    pub alpha: f64,
    /// Switch bottom-up → top-down when `frontier_vertices < n / beta`.
    /// Beamer's default 24.
    pub beta: f64,
    /// Direction policy (heuristic or forced).
    pub forced_direction: ForcedDirection,
}

impl Default for HybridOpts {
    fn default() -> Self {
        Self {
            alpha: 14.0,
            beta: 24.0,
            forced_direction: ForcedDirection::Auto,
        }
    }
}

impl HybridOpts {
    /// Heuristic opts with a forced/auto direction policy.
    pub fn with_policy(policy: ForcedDirection) -> Self {
        Self {
            forced_direction: policy,
            ..Self::default()
        }
    }
}

const TOP_DOWN: u8 = 0;
const BOTTOM_UP: u8 = 1;

fn dir_of(code: u8) -> Direction {
    if code == BOTTOM_UP {
        Direction::BottomUp
    } else {
        Direction::TopDown
    }
}

/// One thread's share of one level: its operation counts plus the
/// adjacency entries of the vertices it discovered (its share of Beamer's
/// m_f). Every discovery writes one parent, so `counts.parent_writes` is
/// its share of n_f.
#[derive(Default)]
struct LevelWork {
    counts: ThreadCounts,
    found_edges: u64,
}

/// The traversal state both executors drive: parents, the visited bitmap
/// and double-buffered frontiers in both representations. Level L reads
/// index L%2 and writes index (L+1)%2.
struct HybridState<'g> {
    graph: &'g CsrGraph,
    parents: AtomicParents,
    visited: AtomicBitmap,
    sparse: [SharedQueue<VertexId>; 2],
    dense: [AtomicBitmap; 2],
}

impl<'g> HybridState<'g> {
    /// `root` visited and placed in the index-0 frontier of the
    /// representation the first level, run in direction `dir`, reads.
    fn new(graph: &'g CsrGraph, root: VertexId, dir: u8) -> Self {
        let n = graph.num_vertices();
        assert!((root as usize) < n, "root {root} out of range 0..{n}");
        let st = Self {
            graph,
            parents: AtomicParents::new(n),
            visited: AtomicBitmap::new(n),
            sparse: [SharedQueue::with_capacity(n), SharedQueue::with_capacity(n)],
            dense: [AtomicBitmap::new(n), AtomicBitmap::new(n)],
        };
        st.parents.store(root, root);
        st.visited.set_atomic(root as usize);
        if dir == TOP_DOWN {
            st.sparse[0].push(root);
        } else {
            st.dense[0].set_atomic(root as usize);
        }
        st
    }

    /// Top-down step for frontier vertex `u`: claims each unvisited
    /// neighbour with a test-then-set and hands it to `discover`, which
    /// charges its own enqueue costs.
    #[inline]
    fn expand_top_down(
        &self,
        u: VertexId,
        work: &mut LevelWork,
        mut discover: impl FnMut(VertexId, &mut ThreadCounts),
    ) {
        let counts = &mut work.counts;
        counts.vertices_scanned += 1;
        for &v in self.graph.neighbors(u) {
            counts.edges_scanned += 1;
            counts.bitmap_reads += 1;
            let outcome = self.visited.claim(v as usize);
            if outcome.used_atomic() {
                counts.atomic_ops += 1;
            }
            if outcome.claimed() {
                self.parents.store(v, u);
                counts.parent_writes += 1;
                counts.queue_pushes += 1;
                work.found_edges += self.graph.degree(v) as u64;
                discover(v, counts);
            }
        }
    }

    /// Bottom-up sweep of the visited-bitmap `words`: every unvisited
    /// vertex searches its adjacency for a member of the dense frontier at
    /// `parity` and stops at the first hit. The caller owns the word range,
    /// so claims within it are race-free plain stores — no lock-prefixed
    /// operations at all.
    fn sweep_bottom_up(&self, parity: usize, words: Range<usize>, work: &mut LevelWork) {
        let (cur, nxt) = (&self.dense[parity], &self.dense[1 - parity]);
        let counts = &mut work.counts;
        for wi in words {
            let unvisited = !self.visited.word(wi) & self.visited.word_mask(wi);
            if unvisited == 0 {
                continue;
            }
            let mut claimed_mask = 0u64;
            for bit in bits_of_word(unvisited) {
                let u = (wi * 64 + bit) as VertexId;
                counts.vertices_scanned += 1;
                let neigh = self.graph.neighbors(u);
                for (i, &v) in neigh.iter().enumerate() {
                    counts.edges_scanned += 1;
                    counts.bitmap_reads += 1;
                    if cur.test(v as usize) {
                        self.parents.store(u, v);
                        counts.parent_writes += 1;
                        counts.queue_pushes += 1;
                        counts.edges_skipped += (neigh.len() - 1 - i) as u64;
                        claimed_mask |= 1u64 << bit;
                        work.found_edges += neigh.len() as u64;
                        break;
                    }
                }
            }
            if claimed_mask != 0 {
                self.visited
                    .set_word(wi, self.visited.word(wi) | claimed_mask);
                nxt.set_word(wi, claimed_mask);
            }
        }
    }

    /// Thread `tid`'s share of converting the frontier at index `next` into
    /// the representation direction `to` reads. Returns the cost, which is
    /// charged to the level the conversion prepares.
    fn convert(&self, next: usize, to: u8, tid: usize, threads: usize) -> ThreadCounts {
        let mut cost = ThreadCounts::default();
        if to == BOTTOM_UP {
            let converted = densify_chunk(&self.sparse[next], &self.dense[next], tid, threads);
            cost.atomic_ops = converted as u64; // fetch_or per vertex
        } else {
            let converted = sparsify_chunk(&self.dense[next], &self.sparse[next], tid, threads);
            cost.queue_pushes = converted as u64;
            cost.atomic_ops = 1; // batch reservation
        }
        cost
    }

    /// Empties both frontiers at `parity` once their level has consumed
    /// them, including a stale copy a conversion left behind.
    fn reset(&self, parity: usize) {
        self.sparse[parity].reset();
        self.dense[parity].clear();
    }

    fn into_run(
        self,
        mut profile: WorkProfile,
        directions: Vec<Direction>,
        seconds: f64,
    ) -> NativeRun {
        for (level, d) in profile.levels.iter_mut().zip(directions) {
            level.direction = d;
        }
        let parents = self.parents.into_vec();
        let visited = parents.iter().filter(|&&p| p != UNVISITED).count() as u64;
        NativeRun {
            parents,
            profile,
            seconds,
            visited,
        }
    }
}

/// The decision between levels: Beamer's heuristic or a forced policy,
/// plus the log of every level's direction.
struct Switch {
    opts: HybridOpts,
    n: usize,
    /// Directed edges still incident to unvisited vertices (Beamer's m_u).
    unexplored_edges: u64,
    directions: Vec<Direction>,
}

impl Switch {
    fn new(graph: &CsrGraph, root: VertexId, opts: HybridOpts) -> Self {
        Self {
            opts,
            n: graph.num_vertices(),
            unexplored_edges: graph.num_edges() as u64 - graph.degree(root) as u64,
            directions: Vec::new(),
        }
    }

    /// The first level's direction.
    fn initial(&self) -> u8 {
        match self.opts.forced_direction {
            ForcedDirection::BottomUp => BOTTOM_UP,
            _ => TOP_DOWN,
        }
    }

    /// Logs a finished level that ran in direction `dir` and discovered
    /// `found` vertices with `found_edges` adjacency entries, and picks the
    /// next level's direction.
    fn next(&mut self, dir: u8, found: u64, found_edges: u64) -> u8 {
        self.directions.push(dir_of(dir));
        self.unexplored_edges = self.unexplored_edges.saturating_sub(found_edges);
        let opts = &self.opts;
        match opts.forced_direction {
            ForcedDirection::TopDown => TOP_DOWN,
            ForcedDirection::BottomUp => BOTTOM_UP,
            ForcedDirection::Alternate => 1 - dir,
            ForcedDirection::Auto => {
                if dir == TOP_DOWN && found_edges as f64 > self.unexplored_edges as f64 / opts.alpha
                {
                    BOTTOM_UP
                } else if dir == BOTTOM_UP && (found as f64) < self.n as f64 / opts.beta {
                    TOP_DOWN
                } else {
                    dir
                }
            }
        }
    }
}

/// Runs direction-optimizing BFS from `root` on `threads` worker threads.
pub fn bfs_hybrid(graph: &CsrGraph, root: VertexId, threads: usize, opts: HybridOpts) -> NativeRun {
    let threads = threads.max(1);
    let switch = Switch::new(graph, root, opts);
    let initial_dir = switch.initial();
    let st = HybridState::new(graph, root, initial_dir);
    let switch = TicketLock::new(switch);
    let barrier = SpinBarrier::new(threads);
    let done = AtomicBool::new(false);
    let next_dir = AtomicU8::new(initial_dir);
    // Per-thread discovery tallies for the switch, summed by the leader.
    let found_count: Vec<CachePadded<AtomicU64>> = (0..threads)
        .map(|_| CachePadded::new(AtomicU64::new(0)))
        .collect();
    let found_edges: Vec<CachePadded<AtomicU64>> = (0..threads)
        .map(|_| CachePadded::new(AtomicU64::new(0)))
        .collect();
    let recorder = Recorder::new(threads, 1, 2);
    let edge_total: TicketLock<u64> = TicketLock::new(0);

    let start = Instant::now();
    scoped_run(threads, |tid| {
        mcbfs_trace::register_worker(tid);
        let mut series: Vec<ThreadCounts> = Vec::new();
        let mut parity = 0usize;
        let mut dir = initial_dir;
        let mut local_edges = 0u64;
        // Conversion work between levels is charged to the level it
        // prepares, carried over in this accumulator.
        let mut carry = ThreadCounts::default();
        let mut buffer: Vec<VertexId> = Vec::with_capacity(ENQUEUE_BATCH);
        loop {
            let level_index = series.len() as u64;
            let level_span = SpanTimer::start();
            let mut work = LevelWork {
                counts: core::mem::take(&mut carry),
                ..LevelWork::default()
            };
            if dir == TOP_DOWN {
                let (cq, nq) = (&st.sparse[parity], &st.sparse[1 - parity]);
                // Discoveries gather in a per-thread buffer that one
                // reservation appends to the next queue.
                let mut enqueue = |v, counts: &mut ThreadCounts| {
                    buffer.push(v);
                    if buffer.len() == ENQUEUE_BATCH {
                        counts.atomic_ops += 1; // batch reservation
                        nq.push_batch(&buffer);
                        buffer.clear();
                    }
                };
                while let Some(chunk) = cq.take_chunk(DEQUEUE_CHUNK) {
                    work.counts.atomic_ops += 1; // chunk reservation fetch_add
                    for &u in chunk {
                        st.expand_top_down(u, &mut work, &mut enqueue);
                    }
                }
                if !buffer.is_empty() {
                    work.counts.atomic_ops += 1;
                    nq.push_batch(&buffer);
                    buffer.clear();
                }
            } else {
                let words = chunk_of(st.visited.num_words(), tid, threads);
                st.sweep_bottom_up(parity, words, &mut work);
            }
            found_count[tid].store(work.counts.parent_writes, Ordering::Relaxed);
            found_edges[tid].store(work.found_edges, Ordering::Relaxed);
            local_edges += work.counts.edges_scanned;
            series.push(work.counts);

            if barrier.wait() {
                // Leader: sum the tallies, pick the next direction, recycle
                // the consumed frontiers.
                let n_f: u64 = found_count.iter().map(|c| c.load(Ordering::Relaxed)).sum();
                let m_f: u64 = found_edges.iter().map(|c| c.load(Ordering::Relaxed)).sum();
                let decided = switch.lock().next(dir, n_f, m_f);
                next_dir.store(decided, Ordering::Relaxed);
                done.store(n_f == 0, Ordering::Relaxed);
                st.reset(parity);
                if decided != dir && n_f != 0 {
                    mcbfs_trace::instant(EventKind::DirectionSwitch, decided as u64);
                }
            }
            barrier.wait();
            level_span.finish(EventKind::Level, level_index);
            let decided = next_dir.load(Ordering::Relaxed);
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
        *edge_total.lock() += local_edges;
        recorder.deposit(tid, series);
        mcbfs_trace::flush_thread();
    });
    let seconds = start.elapsed().as_secs_f64();
    let n = graph.num_vertices() as u64;
    let profile = recorder.into_profile(n, n.div_ceil(8), true, edge_total.into_inner());
    st.into_run(profile, switch.into_inner().directions, seconds)
}

/// Runs [`bfs_hybrid`] as `threads` deterministic virtual threads on the
/// calling thread — the model-mode executor. Each level calls the same
/// top-down expansion, bottom-up sweep, frontier conversion and direction
/// switch as the native threads, on a fixed schedule:
///
/// * top-down vertices go one at a time, in frontier order, to the
///   least-loaded virtual thread (its load grows by the vertex's degree,
///   at least 1; ties go to the lowest id), and each virtual thread pays
///   one dequeue atomic per [`DEQUEUE_CHUNK`] vertices it took;
/// * discoveries go straight to the next queue in claim order, with no
///   batched-enqueue reservation;
/// * bottom-up word ranges and conversions use the native per-thread
///   shares.
///
/// Parents and profile are deterministic; `seconds` is `0.0` (callers price
/// the profile with a machine model). At one thread the run equals a native
/// one except in `atomic_ops` on top-down levels, where native also pays
/// ⌈`parent_writes` / [`ENQUEUE_BATCH`]⌉ enqueue reservations.
pub fn bfs_hybrid_deterministic(
    graph: &CsrGraph,
    root: VertexId,
    threads: usize,
    opts: HybridOpts,
) -> NativeRun {
    let threads = threads.max(1);
    let mut switch = Switch::new(graph, root, opts);
    let mut dir = switch.initial();
    let st = HybridState::new(graph, root, dir);
    let mut levels: Vec<LevelProfile> = Vec::new();
    let mut carry = vec![ThreadCounts::default(); threads];
    let mut parity = 0usize;
    loop {
        let mut work: Vec<LevelWork> = carry
            .into_iter()
            .map(|counts| LevelWork {
                counts,
                ..LevelWork::default()
            })
            .collect();
        if dir == TOP_DOWN {
            let nq = &st.sparse[1 - parity];
            let mut load = vec![0u64; threads];
            for &u in st.sparse[parity].as_slice() {
                let tid = (0..threads)
                    .min_by_key(|&t| (load[t], t))
                    .expect("at least one virtual thread");
                st.expand_top_down(u, &mut work[tid], |v, _| nq.push(v));
                load[tid] += (graph.degree(u) as u64).max(1);
            }
            for w in &mut work {
                w.counts.atomic_ops += w.counts.vertices_scanned.div_ceil(DEQUEUE_CHUNK as u64);
            }
        } else {
            for (tid, w) in work.iter_mut().enumerate() {
                st.sweep_bottom_up(parity, chunk_of(st.visited.num_words(), tid, threads), w);
            }
        }
        let found: u64 = work.iter().map(|w| w.counts.parent_writes).sum();
        let found_edges: u64 = work.iter().map(|w| w.found_edges).sum();
        let mut level = LevelProfile::new(threads, 2);
        level.threads = work.into_iter().map(|w| w.counts).collect();
        levels.push(level);
        let decided = switch.next(dir, found, found_edges);
        st.reset(parity);
        if found == 0 {
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
    let n = graph.num_vertices() as u64;
    let profile = WorkProfile {
        edges_traversed: levels.iter().map(|l| l.total().edges_scanned).sum(),
        levels,
        threads,
        sockets: 1,
        num_vertices: n,
        visited_bytes: n.div_ceil(8),
        pipelined: true,
        sharded_state: true,
    };
    st.into_run(profile, switch.directions, 0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::level::{bfs, VariantConfig};
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
                let run = bfs_hybrid(&g, 3, threads, HybridOpts::with_policy(policy));
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
            let run = bfs_hybrid(&g, 0, 4, HybridOpts::with_policy(policy));
            assert_eq!(run.visited, seq.visited, "{policy:?}");
        }
    }

    #[test]
    fn auto_switches_bottom_up_and_cuts_edges_on_rmat() {
        let g = RmatBuilder::new(12, 8).seed(5).build();
        let hybrid = bfs_hybrid(&g, 0, 2, HybridOpts::default());
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
        let forced = bfs_hybrid(&g, 0, 2, HybridOpts::with_policy(ForcedDirection::TopDown));
        let alg2 = bfs(&g, 0, 2, VariantConfig::algorithm2());
        assert_eq!(forced.profile.edges_traversed, alg2.profile.edges_traversed);
        assert_eq!(
            forced
                .profile
                .direction_string()
                .chars()
                .collect::<Vec<_>>(),
            vec!['T'; forced.profile.num_levels()]
        );
        assert_eq!(forced.profile.total().edges_skipped, 0);
    }

    #[test]
    fn bottom_up_uses_no_claim_atomics_in_sweep_levels() {
        // Forced bottom-up from the root: every level's claims are plain
        // word stores, so atomics only come from conversions (none here).
        let g = UniformBuilder::new(1_024, 6).seed(3).build();
        let run = bfs_hybrid(&g, 0, 4, HybridOpts::with_policy(ForcedDirection::BottomUp));
        validate_bfs_tree(&g, 0, &run.parents).unwrap();
        assert_eq!(run.profile.total().atomic_ops, 0);
        assert!(run.profile.direction_string().chars().all(|c| c == 'B'));
    }

    #[test]
    fn alternate_exercises_both_conversions() {
        let g = UniformBuilder::new(2_048, 6).seed(9).build();
        let run = bfs_hybrid(
            &g,
            0,
            3,
            HybridOpts::with_policy(ForcedDirection::Alternate),
        );
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
            let opts = HybridOpts::with_policy(policy);
            let a = bfs_hybrid_deterministic(&g, 0, 8, opts);
            let b = bfs_hybrid_deterministic(&g, 0, 8, opts);
            assert_eq!(a.parents, b.parents, "{policy:?}");
            assert_eq!(a.profile, b.profile, "{policy:?}");
            validate_bfs_tree(&g, 0, &a.parents).unwrap_or_else(|e| panic!("{policy:?}: {e}"));
        }
    }

    #[test]
    fn deterministic_executor_follows_native_directions_and_skips_edges() {
        let g = RmatBuilder::new(11, 8).seed(7).build();
        let model = bfs_hybrid_deterministic(&g, 0, 4, HybridOpts::default());
        let native = bfs_hybrid(&g, 0, 4, HybridOpts::default());
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
            let opts = HybridOpts::with_policy(policy);
            for run in [
                bfs_hybrid(&g, 0, 3, opts),
                bfs_hybrid_deterministic(&g, 0, 3, opts),
            ] {
                assert_eq!(run.visited, 3, "{policy:?}");
                validate_bfs_tree(&g, 0, &run.parents).unwrap();
            }
        }
    }

    #[test]
    fn single_vertex_graph() {
        let g = CsrGraph::from_edges(1, &[]);
        let run = bfs_hybrid(&g, 0, 2, HybridOpts::default());
        assert_eq!(run.parents, vec![0]);
        assert_eq!(run.visited, 1);
    }

    #[test]
    fn star_graph_two_levels() {
        let edges: Vec<_> = (1..64u32).map(|i| (0, i)).collect();
        let g = CsrGraph::from_edges_symmetric(64, &edges);
        let run = bfs_hybrid(&g, 0, 4, HybridOpts::default());
        validate_bfs_tree(&g, 0, &run.parents).unwrap();
        assert_eq!(run.profile.num_levels(), 2);
    }
}
