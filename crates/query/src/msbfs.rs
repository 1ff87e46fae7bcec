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

use mcbfs_core::instrument::Recorder;
use mcbfs_graph::bitmap::{bits_of_word, AtomicBitmap};
use mcbfs_graph::csr::{CsrGraph, VertexId};
use mcbfs_graph::frontier::chunk_of;
use mcbfs_machine::profile::{ThreadCounts, WorkProfile};
use mcbfs_sync::barrier::SpinBarrier;
use mcbfs_sync::pool::scoped_run;
use mcbfs_trace::{EventKind, SpanTimer};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::time::Instant;

/// Widest wave one kernel invocation can carry: one bit per source in a
/// `u64` mask.
pub const MAX_SOURCES: usize = 64;

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

/// The shared search state: three `n`-word mask arrays plus flat
/// source-major depth/parent grids.
struct MsState<'g> {
    graph: &'g CsrGraph,
    /// Word `v` = sources that have *ever* reached `v`.
    seen: AtomicBitmap,
    /// Double-buffered frontiers; word `v` = sources whose frontier
    /// contains `v` this level (index by parity).
    visit: [AtomicBitmap; 2],
    /// `depth_grid[q * n + v]` holds `depth + 1` (`0` = unreached). The
    /// offset-by-one encoding lets the grid come from a zeroed allocation —
    /// pages the sweep never touches are never materialized, and grid setup
    /// costs nothing inside the serving clock.
    depth_grid: Vec<AtomicU32>,
    /// `parent_grid[q * n + v]` holds `parent + 1` (`0` = unreached);
    /// allocated only when parents were requested.
    parent_grid: Option<Vec<AtomicU32>>,
}

/// A zero-initialized atomic grid straight from the allocator.
/// `AtomicU32` has the same size, alignment and bit validity as `u32`, so
/// reinterpreting a `vec![0u32; len]` (a calloc, i.e. lazily-zeroed pages)
/// is sound and avoids a per-element construction pass.
fn zeroed_atomic_grid(len: usize) -> Vec<AtomicU32> {
    let mut v = std::mem::ManuallyDrop::new(vec![0u32; len]);
    unsafe { Vec::from_raw_parts(v.as_mut_ptr().cast(), v.len(), v.capacity()) }
}

impl<'g> MsState<'g> {
    fn new(graph: &'g CsrGraph, sources: &[VertexId], record_parents: bool) -> Self {
        let n = graph.num_vertices();
        let k = sources.len();
        assert!(
            (1..=MAX_SOURCES).contains(&k),
            "wave width {k} outside 1..={MAX_SOURCES}"
        );
        for &s in sources {
            assert!((s as usize) < n, "source {s} out of range");
        }
        let state = Self {
            graph,
            seen: AtomicBitmap::new(n * 64),
            visit: [AtomicBitmap::new(n * 64), AtomicBitmap::new(n * 64)],
            depth_grid: zeroed_atomic_grid(n * k),
            parent_grid: record_parents.then(|| zeroed_atomic_grid(n * k)),
        };
        for (q, &s) in sources.iter().enumerate() {
            let bit = 1u64 << q;
            state.seen.or_word(s as usize, bit);
            state.visit[0].or_word(s as usize, bit);
            state.depth_grid[q * n + s as usize].store(1, Ordering::Relaxed);
            if let Some(pg) = &state.parent_grid {
                pg[q * n + s as usize].store(s + 1, Ordering::Relaxed);
            }
        }
        state
    }
}

/// One thread's share of one level: scan the vertices whose current-frontier
/// word is non-zero, claim undiscovered (source, vertex) pairs in the next
/// frontier. Returns the operation counts and the number of pairs this
/// thread discovered.
fn sweep(
    st: &MsState<'_>,
    tid: usize,
    threads: usize,
    depth: u32,
    parity: usize,
) -> (ThreadCounts, u64) {
    let n = st.graph.num_vertices();
    let cur = &st.visit[parity];
    let nxt = &st.visit[parity ^ 1];
    let mut c = ThreadCounts::default();
    let mut found = 0u64;
    for v in chunk_of(n, tid, threads) {
        let mask = cur.word(v);
        if mask == 0 {
            continue;
        }
        // Consuming the word as we go leaves this buffer all-zero for its
        // next life as the other parity's frontier.
        cur.set_word(v, 0);
        c.vertices_scanned += 1;
        for &w in st.graph.neighbors(v as VertexId) {
            let wi = w as usize;
            c.edges_scanned += 1;
            c.bitmap_reads += 1;
            let d = mask & !st.seen.word(wi);
            if d == 0 {
                c.edges_skipped += 1;
                continue;
            }
            c.atomic_ops += 1;
            let new = d & !st.seen.or_word(wi, d);
            if new == 0 {
                c.edges_skipped += 1;
                continue;
            }
            c.atomic_ops += 1;
            nxt.or_word(wi, new);
            let claimed = new.count_ones() as u64;
            c.parent_writes += claimed;
            c.queue_pushes += claimed;
            found += claimed;
            for q in bits_of_word(new) {
                st.depth_grid[q * n + wi].store(depth + 1, Ordering::Relaxed);
                if let Some(pg) = &st.parent_grid {
                    pg[q * n + wi].store(v as VertexId + 1, Ordering::Relaxed);
                }
            }
        }
    }
    (c, found)
}

/// A completed sweep whose per-query arrays are still in the shared grids.
///
/// Splitting execution from extraction lets the query engine keep result
/// decoration (depth arrays, histograms, TEPS numerators) outside the
/// serving clock — the Graph500 convention that validation and statistics
/// are not part of the timed kernel.
pub struct RawMsBfs<'g> {
    graph: &'g CsrGraph,
    k: usize,
    st: MsState<'g>,
    recorder: Recorder,
    total_edges: u64,
    /// Kernel wall-clock seconds (native) or `0.0` (deterministic
    /// executor — callers price the profile with a machine model).
    pub seconds: f64,
}

impl RawMsBfs<'_> {
    /// Extracts the per-query depth/parent arrays and the work profile.
    pub fn finish(self) -> MsBfsRun {
        let n = self.graph.num_vertices();
        // Working set the cost model prices: seen + two frontier buffers,
        // one word per vertex each.
        let visited_bytes = 3 * n as u64 * 8;
        let profile = self
            .recorder
            .into_profile(n as u64, visited_bytes, false, self.total_edges);
        let levels = profile.num_levels();
        // The grids store value + 1 with 0 = unreached; the wrapping
        // decrement maps 0 to `u32::MAX` (== `UNVISITED` for parents).
        let load = |grid: &[AtomicU32], q: usize| -> Vec<u32> {
            grid[q * n..(q + 1) * n]
                .iter()
                .map(|a| a.load(Ordering::Relaxed).wrapping_sub(1))
                .collect()
        };
        let depths = (0..self.k).map(|q| load(&self.st.depth_grid, q)).collect();
        let parents = self
            .st
            .parent_grid
            .as_ref()
            .map(|pg| (0..self.k).map(|q| load(pg, q)).collect());
        MsBfsRun {
            depths,
            parents,
            profile,
            seconds: self.seconds,
            levels,
        }
    }
}

/// Runs the wave on real threads (level-synchronous, two barrier episodes
/// per level, per-level trace spans when a session is active).
pub fn ms_bfs(
    graph: &CsrGraph,
    sources: &[VertexId],
    threads: usize,
    record_parents: bool,
) -> MsBfsRun {
    ms_bfs_raw(graph, sources, threads, record_parents).finish()
}

/// [`ms_bfs`] without the result extraction — the serving-path entry point.
pub fn ms_bfs_raw<'g>(
    graph: &'g CsrGraph,
    sources: &[VertexId],
    threads: usize,
    record_parents: bool,
) -> RawMsBfs<'g> {
    let threads = threads.max(1);
    let st = MsState::new(graph, sources, record_parents);
    let recorder = Recorder::new(threads, 1, 2);
    let barrier = SpinBarrier::new(threads);
    let done = AtomicBool::new(false);
    let found_counts: Vec<AtomicU64> = (0..threads).map(|_| AtomicU64::new(0)).collect();
    let total_edges = AtomicU64::new(0);
    let start = Instant::now();
    scoped_run(threads, |tid| {
        let mut series: Vec<ThreadCounts> = Vec::new();
        let mut depth = 1u32;
        loop {
            let timer = SpanTimer::start();
            let parity = ((depth - 1) % 2) as usize;
            let (c, found) = sweep(&st, tid, threads, depth, parity);
            found_counts[tid].store(found, Ordering::Relaxed);
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
        total_edges.fetch_add(
            series.iter().map(|c| c.edges_scanned).sum::<u64>(),
            Ordering::Relaxed,
        );
        recorder.deposit(tid, series);
        mcbfs_trace::flush_thread();
    });
    let seconds = start.elapsed().as_secs_f64();
    RawMsBfs {
        graph,
        k: sources.len(),
        st,
        recorder,
        total_edges: total_edges.into_inner(),
        seconds,
    }
}

/// Runs the wave as `virtual_threads` deterministic virtual workers on the
/// calling thread — the model-mode executor. Depths, frontiers and the
/// per-level work partition are identical to a native run with the same
/// thread count; only the claim *winners* (parents) can differ natively.
pub fn ms_bfs_deterministic(
    graph: &CsrGraph,
    sources: &[VertexId],
    virtual_threads: usize,
    record_parents: bool,
) -> MsBfsRun {
    ms_bfs_deterministic_raw(graph, sources, virtual_threads, record_parents).finish()
}

/// [`ms_bfs_deterministic`] without the result extraction.
pub fn ms_bfs_deterministic_raw<'g>(
    graph: &'g CsrGraph,
    sources: &[VertexId],
    virtual_threads: usize,
    record_parents: bool,
) -> RawMsBfs<'g> {
    let threads = virtual_threads.max(1);
    let st = MsState::new(graph, sources, record_parents);
    let recorder = Recorder::new(threads, 1, 2);
    let mut series: Vec<Vec<ThreadCounts>> = vec![Vec::new(); threads];
    let mut total_edges = 0u64;
    let mut depth = 1u32;
    loop {
        let parity = ((depth - 1) % 2) as usize;
        let mut found = 0u64;
        for (tid, s) in series.iter_mut().enumerate() {
            let (c, f) = sweep(&st, tid, threads, depth, parity);
            total_edges += c.edges_scanned;
            s.push(c);
            found += f;
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
        graph,
        k: sources.len(),
        st,
        recorder,
        total_edges,
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
        let run = ms_bfs(g, sources, threads, true);
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
        let native = ms_bfs(&g, &sources, 4, false);
        let model = ms_bfs_deterministic(&g, &sources, 4, false);
        assert_eq!(native.depths, model.depths);
        assert_eq!(native.levels, model.levels);
        // Identical work partition → identical per-level totals.
        assert_eq!(
            native.profile.total().edges_scanned,
            model.profile.total().edges_scanned
        );
        let rerun = ms_bfs_deterministic(&g, &sources, 4, false);
        assert_eq!(model.depths, rerun.depths);
        assert_eq!(model.profile, rerun.profile);
    }

    #[test]
    fn profile_counts_are_plausible() {
        let g = UniformBuilder::new(500, 8).seed(1).build();
        let run = ms_bfs(&g, &[0, 1, 2], 2, false);
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
        ms_bfs(&g, &sources, 1, false);
    }
}
