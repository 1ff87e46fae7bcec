//! Bit-parallel multi-source BFS: up to 64 concurrent searches share one
//! CSR sweep.
//!
//! The paper's throughput experiments run independent searches
//! back-to-back; a batched query engine can do much better, because the
//! expensive part of every level — streaming the adjacency arrays through
//! the memory system — is identical across searches. This kernel packs one
//! bit per source into a `u64` mask per vertex (the MS-BFS technique of
//! Then et al., VLDB 2015) so a single edge scan advances every search in
//! the wave at once.
//!
//! State layout reuses [`AtomicBitmap`]'s word accessors directly: a bitmap
//! of `n × 64` bits is exactly an array of `n` atomic source-masks, where
//! word `v` holds the set of sources whose search has reached vertex `v`.
//! Discovery is `d = visit[v] & !seen[w]`; the winner of the
//! `fetch_or` claim (`new = d & !prev`) owns the (source, vertex) pair, so
//! parents are written exactly once and depths — which are level numbers,
//! identical for every claim order — are deterministic. That determinism is
//! what lets the native executor and the model-mode executor produce
//! bit-identical depth arrays.
//!
//! [`MsBfs`] is the one kernel, Buluç–Madduri's 1D BFS over an
//! [`OwnedAdjacency`]: [`MsBfs::scan`] claims owned neighbours inline and
//! hands foreign ones to the caller's sink, [`MsBfs::apply`] claims one
//! routed discovery, and the level step is `depth + 1`. [`ms_bfs`] and
//! [`ms_bfs_deterministic`] run it over a [`CsrGraph`] (the `p = 1` case,
//! monomorphised to carry no owner test and no range offset); the shard
//! worker runs it over a [`CsrShard`] on one thread.

use mcbfs_core::instrument::Recorder;
use mcbfs_graph::bitmap::{bits_of_word, AtomicBitmap};
use mcbfs_graph::csr::{CsrGraph, VertexId};
use mcbfs_graph::frontier::chunk_of;
use mcbfs_graph::shard::CsrShard;
use mcbfs_machine::profile::{ThreadCounts, WorkProfile};
use mcbfs_sync::barrier::SpinBarrier;
use mcbfs_sync::pool::scoped_run;
use mcbfs_trace::{EventKind, SpanTimer};
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::time::Instant;

/// Widest wave one kernel invocation can carry: one bit per source in a
/// `u64` mask.
pub const MAX_SOURCES: usize = 64;

/// The rows one kernel instance owns: a contiguous global vertex range,
/// with neighbours as global ids.
pub trait OwnedAdjacency: Sync {
    /// The global vertex ids whose rows this adjacency holds.
    fn owned_range(&self) -> Range<usize>;

    /// Neighbours (global ids) of owned vertex `owned_range().start + local`.
    fn row(&self, local: usize) -> &[VertexId];

    /// True when global vertex `v` lies in the owned range.
    fn owns(&self, v: VertexId) -> bool;
}

/// The whole graph: owns `0..n`, so the owner test is a constant.
impl OwnedAdjacency for CsrGraph {
    #[inline]
    fn owned_range(&self) -> Range<usize> {
        0..CsrGraph::num_vertices(self)
    }

    #[inline]
    fn row(&self, local: usize) -> &[VertexId] {
        self.neighbors(local as VertexId)
    }

    #[inline]
    fn owns(&self, _: VertexId) -> bool {
        true
    }
}

/// One 1D shard: owns its rows; cut edges lead to other owners.
impl OwnedAdjacency for CsrShard {
    fn owned_range(&self) -> Range<usize> {
        CsrShard::owned_range(self)
    }

    #[inline]
    fn row(&self, local: usize) -> &[VertexId] {
        self.neighbors_global(local)
    }

    #[inline]
    fn owns(&self, v: VertexId) -> bool {
        self.owner_of(v) == self.index()
    }
}

/// Result of one multi-source sweep.
#[derive(Debug)]
pub struct MsBfsRun {
    /// `depths[q][v]` = hop distance of `v` from `sources[q]`
    /// (`u32::MAX` when unreached). Deterministic across executors and
    /// thread counts.
    pub depths: Vec<Vec<u32>>,
    /// `parents[q][v]` = BFS-tree parent of `v` in search `q`
    /// (`UNVISITED` when unreached); present when requested. Each entry is
    /// written by exactly one claim winner, but *which* tree emerges may
    /// vary across native interleavings.
    pub parents: Option<Vec<Vec<VertexId>>>,
    /// Per-level × per-thread operation counts of the shared sweep.
    pub profile: WorkProfile,
    /// Wall-clock seconds (native) or `0.0` (deterministic executor —
    /// callers price the profile with a machine model).
    pub seconds: f64,
    /// Levels executed (including the final empty-discovery sweep).
    pub levels: usize,
}

/// The search state of one wave over an owned range: three mask arrays of
/// one word per owned vertex plus flat source-major depth/parent grids.
pub struct MsBfs<'a, A: OwnedAdjacency> {
    adj: &'a A,
    /// Wave width: the number of sources.
    k: usize,
    /// Owned vertices: the stride of the grids.
    len: usize,
    /// Word `v` = sources that have *ever* reached `v`.
    seen: AtomicBitmap,
    /// Double-buffered frontiers; word `v` = sources whose frontier
    /// contains `v` this level (index by depth parity).
    visit: [AtomicBitmap; 2],
    /// `depth_grid[q * len + v]` holds `depth + 1` (`0` = unreached). The
    /// offset-by-one encoding lets the grid come from a zeroed allocation —
    /// pages the sweep never touches are never materialized, and grid setup
    /// costs nothing inside the serving clock.
    depth_grid: Vec<AtomicU32>,
    /// `parent_grid[q * len + v]` holds `parent + 1` (`0` = unreached);
    /// allocated only when parents were requested.
    parent_grid: Option<Vec<AtomicU32>>,
}

/// A zero-initialized atomic grid straight from the allocator, so that
/// `vec![0u32; len]` is a calloc of lazily-zeroed pages and there is no
/// per-element construction pass.
fn zeroed_atomic_grid(len: usize) -> Vec<AtomicU32> {
    let mut v = std::mem::ManuallyDrop::new(vec![0u32; len]);
    // SAFETY: `AtomicU32` has the same size, alignment and bit validity as
    // `u32`, and `v` is never dropped, so the new `Vec` is the allocation's
    // only owner.
    unsafe { Vec::from_raw_parts(v.as_mut_ptr().cast(), v.len(), v.capacity()) }
}

impl<'a, A: OwnedAdjacency> MsBfs<'a, A> {
    /// Seeds a wave: search `q` starts at `sources[q]`, with depth 0 and
    /// itself as parent. Sources outside the owned range are another
    /// owner's seeds and leave this range's frontier empty.
    ///
    /// # Panics
    /// Panics when `sources` is empty or wider than [`MAX_SOURCES`], or
    /// when an owned source lies outside the owned range.
    pub fn new(adj: &'a A, sources: &[VertexId], record_parents: bool) -> Self {
        let owned = adj.owned_range();
        let len = owned.len();
        let k = sources.len();
        assert!(
            (1..=MAX_SOURCES).contains(&k),
            "wave width {k} outside 1..={MAX_SOURCES}"
        );
        let wave = Self {
            adj,
            k,
            len,
            seen: AtomicBitmap::new(len * 64),
            visit: [AtomicBitmap::new(len * 64), AtomicBitmap::new(len * 64)],
            depth_grid: zeroed_atomic_grid(len * k),
            parent_grid: record_parents.then(|| zeroed_atomic_grid(len * k)),
        };
        for (q, &s) in sources.iter().enumerate() {
            if !adj.owns(s) {
                continue;
            }
            assert!(owned.contains(&(s as usize)), "source {s} out of range");
            let local = s as usize - owned.start;
            let bit = 1u64 << q;
            wave.seen.or_word(local, bit);
            wave.visit[0].or_word(local, bit);
            wave.depth_grid[q * len + local].store(1, Ordering::Relaxed);
            if let Some(pg) = &wave.parent_grid {
                pg[q * len + local].store(s + 1, Ordering::Relaxed);
            }
        }
        wave
    }

    /// Thread `tid`'s share of level `depth` (the depth its discoveries
    /// get, 1 for the sources' level): scans the owned vertices whose
    /// frontier word is non-zero, claims undiscovered (source, neighbour)
    /// pairs of owned neighbours in the next frontier, and passes every
    /// foreign neighbour to `foreign(v, u, mask)` — `v` the neighbour, `u`
    /// its parent, `mask` the sources at `u`. Returns the operation counts;
    /// `parent_writes` is the number of pairs claimed.
    // Out of line on purpose: inlined into a driver's level loop, the
    // counters of the per-edge path spill to the stack, and a 64-wide wave
    // on a scale-18 R-MAT runs about 5% slower.
    #[inline(never)]
    pub fn scan(
        &self,
        depth: u32,
        tid: usize,
        threads: usize,
        mut foreign: impl FnMut(VertexId, VertexId, u64),
    ) -> ThreadCounts {
        let owned = self.adj.owned_range();
        let cur = &self.visit[(depth as usize + 1) % 2];
        let mut c = ThreadCounts::default();
        for local in chunk_of(self.len, tid, threads) {
            let mask = cur.word(local);
            if mask == 0 {
                continue;
            }
            // Consuming the word as we go leaves this buffer all-zero for its
            // next life as the other parity's frontier: that is what makes
            // the level step a bare `depth + 1`.
            cur.set_word(local, 0);
            c.vertices_scanned += 1;
            let u = (owned.start + local) as VertexId;
            for &w in self.adj.row(local) {
                c.edges_scanned += 1;
                if !self.adj.owns(w) {
                    foreign(w, u, mask);
                    continue;
                }
                self.claim(&mut c, w as usize - owned.start, u, mask, depth);
            }
        }
        c
    }

    /// Claims a discovery routed in from another owner at level `depth`:
    /// owned vertex `v` reached from `u` by the sources in `mask`.
    ///
    /// # Panics
    /// Panics when `v` lies outside the owned range.
    pub fn apply(&self, depth: u32, v: VertexId, u: VertexId, mask: u64) {
        let local = v as usize - self.adj.owned_range().start;
        self.claim(&mut ThreadCounts::default(), local, u, mask, depth);
    }

    /// The claim: stamps depth `depth` and parent `u` on owned vertex
    /// `local` for every source of `mask` that has not reached it yet.
    #[inline(always)]
    fn claim(&self, c: &mut ThreadCounts, local: usize, u: VertexId, mask: u64, depth: u32) {
        c.bitmap_reads += 1;
        let d = mask & !self.seen.word(local);
        if d == 0 {
            c.edges_skipped += 1;
            return;
        }
        c.atomic_ops += 1;
        let new = d & !self.seen.or_word(local, d);
        if new == 0 {
            c.edges_skipped += 1;
            return;
        }
        c.atomic_ops += 1;
        self.visit[depth as usize % 2].or_word(local, new);
        let claimed = new.count_ones() as u64;
        c.parent_writes += claimed;
        c.queue_pushes += claimed;
        let len = self.len;
        for q in bits_of_word(new) {
            self.depth_grid[q * len + local].store(depth + 1, Ordering::Relaxed);
            if let Some(pg) = &self.parent_grid {
                pg[q * len + local].store(u + 1, Ordering::Relaxed);
            }
        }
    }

    /// Per source, the depth (`u32::MAX` unreached) and, when recorded,
    /// the parent (`UNVISITED` unreached) of every owned vertex. The grids
    /// store value + 1 with 0 = unreached, so one wrapping decrement
    /// decodes both.
    pub fn rows(&self) -> (Vec<Vec<u32>>, Option<Vec<Vec<VertexId>>>) {
        let rows = |grid: &[AtomicU32]| -> Vec<Vec<u32>> {
            (0..self.k)
                .map(|q| {
                    grid[q * self.len..(q + 1) * self.len]
                        .iter()
                        .map(|a| a.load(Ordering::Relaxed).wrapping_sub(1))
                        .collect()
                })
                .collect()
        };
        (
            rows(&self.depth_grid),
            self.parent_grid.as_deref().map(rows),
        )
    }
}

/// The in-process sink: a [`CsrGraph`] owns every neighbour.
fn owns_all(_: VertexId, _: VertexId, _: u64) {
    unreachable!("an in-process wave owns every vertex")
}

/// A completed sweep whose per-query arrays are still in the shared grids.
///
/// Splitting execution from extraction lets the query engine keep result
/// decoration (depth arrays, histograms, TEPS numerators) outside the
/// serving clock — the Graph500 convention that validation and statistics
/// are not part of the timed kernel.
pub struct RawMsBfs<'g> {
    wave: MsBfs<'g, CsrGraph>,
    recorder: Recorder,
    /// Kernel wall-clock seconds (native) or `0.0` (deterministic
    /// executor — callers price the profile with a machine model).
    pub seconds: f64,
}

impl RawMsBfs<'_> {
    /// Extracts the per-query depth/parent arrays and the work profile.
    pub fn finish(self) -> MsBfsRun {
        let n = self.wave.len;
        // Working set the cost model prices: seen + two frontier buffers,
        // one word per vertex each.
        let visited_bytes = 3 * n as u64 * 8;
        let mut profile = self
            .recorder
            .into_profile(n as u64, visited_bytes, false, 0);
        profile.edges_traversed = profile.total().edges_scanned;
        let (depths, parents) = self.wave.rows();
        MsBfsRun {
            depths,
            parents,
            levels: profile.num_levels(),
            profile,
            seconds: self.seconds,
        }
    }
}

/// Runs the wave on real threads (level-synchronous, two barrier episodes
/// per level, per-level trace spans when a session is active). The grids
/// stay in the returned [`RawMsBfs`] until [`RawMsBfs::finish`], which the
/// serving path calls outside its clock.
pub fn ms_bfs<'g>(
    graph: &'g CsrGraph,
    sources: &[VertexId],
    threads: usize,
    record_parents: bool,
) -> RawMsBfs<'g> {
    let threads = threads.max(1);
    let wave = MsBfs::new(graph, sources, record_parents);
    let recorder = Recorder::new(threads, 1, 2);
    let barrier = SpinBarrier::new(threads);
    let done = AtomicBool::new(false);
    let found_counts: Vec<AtomicU64> = (0..threads).map(|_| AtomicU64::new(0)).collect();
    let start = Instant::now();
    scoped_run(threads, |tid| {
        let mut series: Vec<ThreadCounts> = Vec::new();
        let mut depth = 1u32;
        loop {
            let timer = SpanTimer::start();
            let c = wave.scan(depth, tid, threads, owns_all);
            found_counts[tid].store(c.parent_writes, Ordering::Relaxed);
            series.push(c);
            timer.finish(EventKind::Level, (depth - 1) as u64);
            if barrier.wait() {
                let total: u64 = found_counts.iter().map(|f| f.load(Ordering::Relaxed)).sum();
                done.store(total == 0, Ordering::Release);
            }
            barrier.wait();
            if done.load(Ordering::Acquire) {
                break;
            }
            depth += 1;
        }
        recorder.deposit(tid, series);
        mcbfs_trace::flush_thread();
    });
    let seconds = start.elapsed().as_secs_f64();
    RawMsBfs {
        wave,
        recorder,
        seconds,
    }
}

/// Runs the wave as `virtual_threads` deterministic virtual workers on the
/// calling thread — the model-mode executor. Depths, frontiers and the
/// per-level work partition are identical to a native run with the same
/// thread count; only the claim *winners* (parents) can differ natively.
pub fn ms_bfs_deterministic<'g>(
    graph: &'g CsrGraph,
    sources: &[VertexId],
    virtual_threads: usize,
    record_parents: bool,
) -> RawMsBfs<'g> {
    let threads = virtual_threads.max(1);
    let wave = MsBfs::new(graph, sources, record_parents);
    let recorder = Recorder::new(threads, 1, 2);
    let mut series: Vec<Vec<ThreadCounts>> = vec![Vec::new(); threads];
    let mut depth = 1u32;
    loop {
        let mut found = 0u64;
        for (tid, s) in series.iter_mut().enumerate() {
            let c = wave.scan(depth, tid, threads, owns_all);
            found += c.parent_writes;
            s.push(c);
        }
        if found == 0 {
            break;
        }
        depth += 1;
    }
    for (tid, s) in series.into_iter().enumerate() {
        recorder.deposit(tid, s);
    }
    RawMsBfs {
        wave,
        recorder,
        seconds: 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcbfs_gen::prelude::*;
    use mcbfs_graph::csr::UNVISITED;
    use mcbfs_graph::validate::sequential_levels;

    fn check_against_sequential(g: &CsrGraph, sources: &[VertexId], threads: usize) {
        let run = ms_bfs(g, sources, threads, true).finish();
        for (q, &s) in sources.iter().enumerate() {
            assert_eq!(run.depths[q], sequential_levels(g, s), "source {s}");
        }
        // Parent arrays must be consistent with the depth arrays.
        let parents = run.parents.expect("requested");
        for (q, (ps, ds)) in parents.iter().zip(&run.depths).enumerate() {
            for (v, (&p, &d)) in ps.iter().zip(ds).enumerate() {
                if d == u32::MAX {
                    assert_eq!(p, UNVISITED);
                } else if d == 0 {
                    assert_eq!(p as usize, v, "root of search {q}");
                } else {
                    assert_eq!(ds[p as usize], d - 1, "parent one level up");
                    assert!(g.has_edge(p, v as VertexId), "tree edge exists");
                }
            }
        }
    }

    #[test]
    fn wave_matches_sequential_bfs_per_source() {
        let g = RmatBuilder::new(9, 8).seed(11).build();
        let sources: Vec<VertexId> = (0..17).map(|i| (i * 13) % 512).collect();
        check_against_sequential(&g, &sources, 3);
    }

    #[test]
    fn full_width_wave_on_uniform_graph() {
        let g = UniformBuilder::new(800, 6).seed(4).build();
        let sources: Vec<VertexId> = (0..64).map(|i| i as VertexId * 7 % 800).collect();
        check_against_sequential(&g, &sources, 4);
    }

    #[test]
    fn singleton_and_duplicate_sources() {
        let g = UniformBuilder::new(300, 5).seed(9).build();
        check_against_sequential(&g, &[42], 2);
        // Two queries from the same root share mask bits without conflict.
        check_against_sequential(&g, &[7, 7, 21], 2);
    }

    #[test]
    fn deterministic_executor_matches_native_depths() {
        let g = RmatBuilder::new(8, 8).seed(3).build();
        let sources: Vec<VertexId> = vec![0, 5, 100, 200];
        // One thread: one claim order, so the same tree and the same counts.
        let native = ms_bfs(&g, &sources, 1, true).finish();
        let model = ms_bfs_deterministic(&g, &sources, 1, true).finish();
        assert_eq!(native.depths, model.depths);
        assert_eq!(native.parents, model.parents);
        assert_eq!(native.profile, model.profile);
        assert_eq!(native.levels, model.levels);
        // Four threads: the frontier and its partition are the same, so are
        // every thread's scans; which thread wins a claim is not.
        let native = ms_bfs(&g, &sources, 4, false).finish();
        let model = ms_bfs_deterministic(&g, &sources, 4, false).finish();
        assert_eq!(native.depths, model.depths);
        assert_eq!(native.levels, model.levels);
        assert_eq!(native.profile.levels.len(), model.profile.levels.len());
        for (l, (a, b)) in native
            .profile
            .levels
            .iter()
            .zip(&model.profile.levels)
            .enumerate()
        {
            let scans = |c: &ThreadCounts| (c.vertices_scanned, c.edges_scanned, c.bitmap_reads);
            let a_scans: Vec<_> = a.threads.iter().map(scans).collect();
            let b_scans: Vec<_> = b.threads.iter().map(scans).collect();
            assert_eq!(a_scans, b_scans, "level {l}");
            assert_eq!(
                a.total().parent_writes,
                b.total().parent_writes,
                "level {l}"
            );
        }
        let rerun = ms_bfs_deterministic(&g, &sources, 4, false).finish();
        assert_eq!(model.depths, rerun.depths);
        assert_eq!(model.profile, rerun.profile);
    }

    #[test]
    fn foreign_sources_do_not_seed_and_empty_waves_terminate() {
        let edges: Vec<(u32, u32)> = (0..10).map(|i| (i, (i + 1) % 10)).collect();
        let g = CsrGraph::from_edges_symmetric(10, &edges);
        let s1 = CsrShard::cut(&g, 2, 1); // owns 5..10
        let wave = MsBfs::new(&s1, &[0], false);
        // Source 0 is shard 0's; shard 1 starts with an empty frontier.
        let mut foreign = 0;
        let c = wave.scan(1, 0, 1, |_, _, _| foreign += 1);
        assert_eq!((c.parent_writes, foreign, c.edges_scanned), (0, 0, 0));
        assert_eq!(wave.rows(), (vec![vec![u32::MAX; 5]], None));
    }

    #[test]
    fn profile_counts_are_plausible() {
        let g = UniformBuilder::new(500, 8).seed(1).build();
        let run = ms_bfs(&g, &[0, 1, 2], 2, false).finish();
        let t = run.profile.total();
        assert!(t.edges_scanned > 0);
        assert_eq!(run.profile.edges_traversed, t.edges_scanned);
        // Every (source, vertex) pair is claimed at most once.
        let reached: u64 = run
            .depths
            .iter()
            .flatten()
            .filter(|&&d| d != u32::MAX && d != 0)
            .count() as u64;
        assert_eq!(t.parent_writes, reached);
        assert!(run.seconds > 0.0);
        assert_eq!(run.levels, run.profile.num_levels());
    }

    #[test]
    #[should_panic(expected = "wave width")]
    fn oversized_wave_panics() {
        let g = CsrGraph::from_edges(2, &[(0, 1)]);
        let sources = vec![0; 65];
        ms_bfs(&g, &sources, 1, false).finish();
    }
}
