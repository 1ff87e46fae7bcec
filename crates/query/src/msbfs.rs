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
//! A level runs in one of two directions:
//!
//! * **top-down** — the frontier's words push: discovery is
//!   `d = visit[v] & !seen[w]`, and the winner of the `fetch_or` claim
//!   (`new = d & !prev`) owns the (source, vertex) pair, so parents are
//!   written exactly once;
//! * **bottom-up** — the vertices still missing some live source pull:
//!   vertex `v` ORs the frontier words of its neighbours, stops once it
//!   holds every source it misses, and stores its own `seen`, frontier,
//!   depth and parent words. A thread writes only the vertices of its
//!   `chunk_of` share, so the level issues no lock-prefixed operation at
//!   all — the §III rule that locked read-modify-writes are what multicore
//!   BFS must avoid. Its parents are the first frontier neighbour per
//!   source in adjacency order, the same under any thread count.
//!
//! Depths are level numbers, identical under either direction and any
//! claim order. That determinism is what lets the native executor and the
//! model-mode executor produce bit-identical depth arrays.
//!
//! The direction is picked per level by [`Switch`], the level loop's
//! ALPHA/BETA rule, fed with word counts: a word joins the frontier when it
//! gains any bit (m_f sums their degrees), and leaves m_u once it holds
//! every source. [`ForcedDirection`] forces either direction or strict
//! alternation for tests and ablations. Like the hybrid's, a bottom-up
//! level needs a symmetric graph: `v` finds its parents by scanning its own
//! row, which must mirror theirs.
//!
//! [`MsBfs`] is the one kernel, Buluç–Madduri's 1D BFS over an
//! [`OwnedAdjacency`]: [`MsBfs::scan`] claims owned neighbours inline and
//! hands foreign ones to the caller's sink, [`MsBfs::apply`] claims one
//! routed discovery, and the level step is `depth + 1`. [`ms_bfs`] and
//! [`ms_bfs_deterministic`] run it over a [`CsrGraph`] (the `p = 1` case,
//! monomorphised to carry no owner test and no range offset) in either
//! direction; the shard worker runs it over a [`CsrShard`] on one thread,
//! top-down only, because a bottom-up level reads the frontier words of
//! neighbours another shard owns.

use mcbfs_core::algo::hybrid::{ForcedDirection, Switch};
use mcbfs_core::instrument::Recorder;
use mcbfs_graph::bitmap::{bits_of_word, AtomicBitmap};
use mcbfs_graph::csr::{CsrGraph, VertexId};
use mcbfs_graph::frontier::chunk_of;
use mcbfs_graph::shard::CsrShard;
use mcbfs_machine::profile::Direction::{self, BottomUp, TopDown};
use mcbfs_machine::profile::{ThreadCounts, WorkProfile};
use mcbfs_sync::barrier::SpinBarrier;
use mcbfs_sync::pool::scoped_run;
use mcbfs_trace::{EventKind, SpanTimer};
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicU8, Ordering};
use std::sync::Mutex;
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
    /// (`u32::MAX` when unreached). Deterministic across executors,
    /// directions and thread counts.
    pub depths: Vec<Vec<u32>>,
    /// `parents[q][v]` = BFS-tree parent of `v` in search `q`
    /// (`UNVISITED` when unreached); present when requested. Each entry is
    /// written once, but *which* tree emerges may vary across native
    /// interleavings of top-down claims.
    pub parents: Option<Vec<Vec<VertexId>>>,
    /// Per-level × per-thread operation counts of the shared sweep, each
    /// level stamped with the direction it ran in.
    pub profile: WorkProfile,
    /// Wall-clock seconds (native) or `0.0` (deterministic executor —
    /// callers price the profile with a machine model).
    pub seconds: f64,
    /// Levels executed (including the final empty-discovery sweep).
    pub levels: usize,
}

/// What one thread's share of a level found, counted in mask words: the
/// direction switch's inputs, and the sources still searching.
#[derive(Default)]
struct Found {
    /// Words that gained a bit: the next frontier's size.
    words: u64,
    /// Adjacency entries of those words (m_f).
    edges: u64,
    /// Adjacency entries of the words that came to hold every source.
    settled_edges: u64,
    /// Sources with a bit in the next frontier.
    live: u64,
}

impl Found {
    fn add(&mut self, other: &Found) {
        self.words += other.words;
        self.edges += other.edges;
        self.settled_edges += other.settled_edges;
        self.live |= other.live;
    }
}

/// The search state of one wave over an owned range: three mask arrays of
/// one word per owned vertex plus flat source-major depth/parent grids.
pub struct MsBfs<'a, A: OwnedAdjacency> {
    adj: &'a A,
    /// Wave width: the number of sources.
    k: usize,
    /// One bit per source: the `seen` word of a settled vertex.
    full: u64,
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
            full: u64::MAX >> (MAX_SOURCES - k),
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

    /// Thread `tid`'s share of top-down level `depth` (the depth its
    /// discoveries get, 1 for the sources' level): scans the owned vertices
    /// whose frontier word is non-zero, claims undiscovered (source,
    /// neighbour) pairs of owned neighbours in the next frontier, and
    /// passes every foreign neighbour to `foreign(v, u, mask)` — `v` the
    /// neighbour, `u` its parent, `mask` the sources at `u`. Returns the
    /// operation counts; `parent_writes` is the number of pairs claimed.
    pub fn scan(
        &self,
        depth: u32,
        tid: usize,
        threads: usize,
        foreign: impl FnMut(VertexId, VertexId, u64),
    ) -> ThreadCounts {
        self.top_down(depth, tid, threads, &mut Found::default(), foreign)
    }

    /// [`MsBfs::scan`], tallying what it found in `found`.
    // Out of line on purpose: inlined into a driver's level loop, the
    // counters of the per-edge path spill to the stack, and a 64-wide wave
    // on a scale-18 R-MAT runs about 5% slower.
    #[inline(never)]
    fn top_down(
        &self,
        depth: u32,
        tid: usize,
        threads: usize,
        found: &mut Found,
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
                self.claim(&mut c, found, w as usize - owned.start, u, mask, depth);
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
        let (mut c, mut found): (ThreadCounts, Found) = Default::default();
        self.claim(&mut c, &mut found, local, u, mask, depth);
    }

    /// The claim: stamps depth `depth` and parent `u` on owned vertex
    /// `local` for every source of `mask` that has not reached it yet.
    #[inline(always)]
    fn claim(
        &self,
        c: &mut ThreadCounts,
        found: &mut Found,
        local: usize,
        u: VertexId,
        mask: u64,
        depth: u32,
    ) {
        c.bitmap_reads += 1;
        let d = mask & !self.seen.word(local);
        if d == 0 {
            c.edges_skipped += 1;
            return;
        }
        c.atomic_ops += 1;
        let prev = self.seen.or_word(local, d);
        let new = d & !prev;
        if new == 0 {
            c.edges_skipped += 1;
            return;
        }
        c.atomic_ops += 1;
        // Exactly one claim per level finds the next word empty, and exactly
        // one ever completes the seen word, so the tallies count each word
        // once however the claims race.
        if self.visit[depth as usize % 2].or_word(local, new) == 0 {
            found.words += 1;
            found.edges += self.adj.row(local).len() as u64;
        }
        if prev | d == self.full {
            found.settled_edges += self.adj.row(local).len() as u64;
        }
        found.live |= new;
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

/// The directions: a [`CsrGraph`] wave owns every frontier word, so its
/// levels can also pull.
impl MsBfs<'_, CsrGraph> {
    /// The wave's direction switch: m_u starts at every edge but those of
    /// the vertices the sources already settle (a vertex that is every
    /// source, as in a one-wide wave).
    fn switch(&self, sources: &[VertexId], policy: ForcedDirection) -> Switch {
        let mut settled: Vec<VertexId> = sources
            .iter()
            .copied()
            .filter(|&s| self.seen.word(s as usize) == self.full)
            .collect();
        settled.sort_unstable();
        settled.dedup();
        let settled_edges: u64 = settled.iter().map(|&s| self.adj.degree(s) as u64).sum();
        let unexplored = self.adj.num_edges() as u64 - settled_edges;
        Switch::new(policy, self.len, unexplored)
    }

    /// Thread `tid`'s share of level `depth` in direction `dir`; `live` is
    /// the set of sources the previous level's frontier holds.
    fn level(
        &self,
        dir: Direction,
        depth: u32,
        live: u64,
        tid: usize,
        threads: usize,
        found: &mut Found,
    ) -> ThreadCounts {
        match dir {
            TopDown => self.top_down(depth, tid, threads, found, owns_all),
            BottomUp => self.bottom_up(depth, live, tid, threads, found),
        }
    }

    /// Thread `tid`'s share of bottom-up level `depth`: every vertex of its
    /// `chunk_of` share that misses some source of `live` ORs its
    /// neighbours' frontier words, stopping once it holds all it misses,
    /// and stores the result as its next-frontier word. Only this thread
    /// writes those vertices' words, so every store is plain and the level
    /// counts no atomic operation; unread adjacency entries count as
    /// `edges_skipped`.
    #[inline(never)]
    fn bottom_up(
        &self,
        depth: u32,
        live: u64,
        tid: usize,
        threads: usize,
        found: &mut Found,
    ) -> ThreadCounts {
        let cur = &self.visit[(depth as usize + 1) % 2];
        let next = &self.visit[depth as usize % 2];
        let len = self.len;
        let mut c = ThreadCounts::default();
        for v in chunk_of(len, tid, threads) {
            let seen = self.seen.word(v);
            let missing = live & !seen;
            // The store also overwrites what this buffer held two levels
            // ago, when the level before was bottom-up too.
            if missing == 0 {
                next.set_word(v, 0);
                continue;
            }
            let row = self.adj.row(v);
            let mut acc = 0u64;
            let mut examined = row.len();
            for (i, &u) in row.iter().enumerate() {
                let new = cur.word(u as usize) & missing & !acc;
                if new == 0 {
                    continue;
                }
                acc |= new;
                if let Some(pg) = &self.parent_grid {
                    for q in bits_of_word(new) {
                        pg[q * len + v].store(u + 1, Ordering::Relaxed);
                    }
                }
                if acc == missing {
                    examined = i + 1;
                    break;
                }
            }
            next.set_word(v, acc);
            c.vertices_scanned += 1;
            c.edges_scanned += examined as u64;
            c.bitmap_reads += examined as u64;
            c.edges_skipped += (row.len() - examined) as u64;
            if acc == 0 {
                continue;
            }
            self.seen.set_word(v, seen | acc);
            let claimed = acc.count_ones() as u64;
            c.parent_writes += claimed;
            c.queue_pushes += claimed;
            for q in bits_of_word(acc) {
                self.depth_grid[q * len + v].store(depth + 1, Ordering::Relaxed);
            }
            found.words += 1;
            found.edges += row.len() as u64;
            if seen | acc == self.full {
                found.settled_edges += row.len() as u64;
            }
            found.live |= acc;
        }
        c
    }

    /// Thread `tid`'s share of zeroing the frontier buffer top-down level
    /// `depth` ORs its claims into. A top-down scan leaves the frontier it
    /// consumed all-zero; a bottom-up level leaves it in place, so a
    /// top-down level after a bottom-up one clears it first.
    fn clear_next(&self, depth: u32, tid: usize, threads: usize) {
        let next = &self.visit[depth as usize % 2];
        for v in chunk_of(self.len, tid, threads) {
            next.set_word(v, 0);
        }
    }
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
    switch: Switch,
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
        self.switch.stamp(&mut profile);
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

/// Runs the wave on real threads under direction policy `policy`
/// (level-synchronous, two barrier episodes per level and one more before a
/// top-down level that follows a bottom-up one, per-level trace spans and
/// a `DirectionSwitch` instant per change when a session is active). The
/// grids stay in the returned [`RawMsBfs`] until [`RawMsBfs::finish`],
/// which the serving path calls outside its clock.
pub fn ms_bfs<'g>(
    graph: &'g CsrGraph,
    sources: &[VertexId],
    threads: usize,
    record_parents: bool,
    policy: ForcedDirection,
) -> RawMsBfs<'g> {
    let threads = threads.max(1);
    let wave = MsBfs::new(graph, sources, record_parents);
    let switch = wave.switch(sources, policy);
    let first_dir = switch.initial();
    let switch = Mutex::new(switch);
    let recorder = Recorder::new(threads, 1, 2);
    let barrier = SpinBarrier::new(threads);
    let done = AtomicBool::new(false);
    // The level's tallies, summed under a plain mutex (a `TicketLock` would
    // trace its bookkeeping as lock spans), and the leader's picks for the
    // next level, read after the barrier that follows its stores.
    let level_found = Mutex::new(Found::default());
    let next_dir = AtomicU8::new(first_dir as u8);
    let live = AtomicU64::new(wave.full);
    let start = Instant::now();
    scoped_run(threads, |tid| {
        let mut series: Vec<ThreadCounts> = Vec::new();
        let mut depth = 1u32;
        let mut dir = first_dir;
        loop {
            let timer = SpanTimer::start();
            let mut found = Found::default();
            let live_now = live.load(Ordering::Relaxed);
            series.push(wave.level(dir, depth, live_now, tid, threads, &mut found));
            level_found.lock().expect("tally lock").add(&found);
            timer.finish(EventKind::Level, (depth - 1) as u64);
            if barrier.wait() {
                let found = core::mem::take(&mut *level_found.lock().expect("tally lock"));
                let decided = switch.lock().expect("switch lock").next(
                    dir,
                    found.words,
                    found.edges,
                    found.settled_edges,
                );
                next_dir.store(decided as u8, Ordering::Relaxed);
                live.store(found.live, Ordering::Relaxed);
                done.store(found.words == 0, Ordering::Release);
                if decided != dir && found.words != 0 {
                    mcbfs_trace::instant(EventKind::DirectionSwitch, decided as u64);
                }
            }
            barrier.wait();
            if done.load(Ordering::Acquire) {
                break;
            }
            depth += 1;
            let decided = if next_dir.load(Ordering::Relaxed) == BottomUp as u8 {
                BottomUp
            } else {
                TopDown
            };
            if dir == BottomUp && decided == TopDown {
                wave.clear_next(depth, tid, threads);
                barrier.wait();
            }
            dir = decided;
        }
        recorder.deposit(tid, series);
        mcbfs_trace::flush_thread();
    });
    let seconds = start.elapsed().as_secs_f64();
    RawMsBfs {
        wave,
        recorder,
        switch: switch.into_inner().expect("switch lock"),
        seconds,
    }
}

/// Runs the wave as `virtual_threads` deterministic virtual workers on the
/// calling thread — the model-mode executor. Depths, frontiers, directions
/// and the per-level work partition are identical to a native run with the
/// same thread count; only the winners of top-down claims (parents) can
/// differ natively.
pub fn ms_bfs_deterministic<'g>(
    graph: &'g CsrGraph,
    sources: &[VertexId],
    virtual_threads: usize,
    record_parents: bool,
    policy: ForcedDirection,
) -> RawMsBfs<'g> {
    let threads = virtual_threads.max(1);
    let wave = MsBfs::new(graph, sources, record_parents);
    let mut switch = wave.switch(sources, policy);
    let mut dir = switch.initial();
    let recorder = Recorder::new(threads, 1, 2);
    let mut series: Vec<Vec<ThreadCounts>> = vec![Vec::new(); threads];
    let mut live = wave.full;
    let mut depth = 1u32;
    loop {
        let mut found = Found::default();
        for (tid, s) in series.iter_mut().enumerate() {
            s.push(wave.level(dir, depth, live, tid, threads, &mut found));
        }
        let decided = switch.next(dir, found.words, found.edges, found.settled_edges);
        if found.words == 0 {
            break;
        }
        live = found.live;
        depth += 1;
        if dir == BottomUp && decided == TopDown {
            for tid in 0..threads {
                wave.clear_next(depth, tid, threads);
            }
        }
        dir = decided;
    }
    for (tid, s) in series.into_iter().enumerate() {
        recorder.deposit(tid, s);
    }
    RawMsBfs {
        wave,
        recorder,
        switch,
        seconds: 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcbfs_gen::prelude::*;
    use mcbfs_graph::csr::UNVISITED;
    use mcbfs_graph::validate::sequential_levels;

    const POLICIES: [ForcedDirection; 4] = [
        ForcedDirection::Auto,
        ForcedDirection::TopDown,
        ForcedDirection::BottomUp,
        ForcedDirection::Alternate,
    ];

    fn check_against_sequential(g: &CsrGraph, sources: &[VertexId], threads: usize) {
        for policy in POLICIES {
            let run = ms_bfs(g, sources, threads, true, policy).finish();
            for (q, &s) in sources.iter().enumerate() {
                assert_eq!(
                    run.depths[q],
                    sequential_levels(g, s),
                    "{policy:?} source {s}"
                );
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
        for policy in POLICIES {
            // One thread: one claim order, so the same tree, the same
            // counts and the same directions.
            let native = ms_bfs(&g, &sources, 1, true, policy).finish();
            let model = ms_bfs_deterministic(&g, &sources, 1, true, policy).finish();
            assert_eq!(native.depths, model.depths, "{policy:?}");
            assert_eq!(native.parents, model.parents, "{policy:?}");
            assert_eq!(native.profile, model.profile, "{policy:?}");
            assert_eq!(native.levels, model.levels, "{policy:?}");
            // Four threads: the frontier and its partition are the same, so
            // are every thread's scans and the switch's inputs; which thread
            // wins a top-down claim is not.
            let native = ms_bfs(&g, &sources, 4, false, policy).finish();
            let model = ms_bfs_deterministic(&g, &sources, 4, false, policy).finish();
            assert_eq!(native.depths, model.depths, "{policy:?}");
            assert_eq!(native.levels, model.levels, "{policy:?}");
            assert_eq!(
                native.profile.direction_string(),
                model.profile.direction_string(),
                "{policy:?}"
            );
            assert_eq!(native.profile.levels.len(), model.profile.levels.len());
            for (l, (a, b)) in native
                .profile
                .levels
                .iter()
                .zip(&model.profile.levels)
                .enumerate()
            {
                let scans =
                    |c: &ThreadCounts| (c.vertices_scanned, c.edges_scanned, c.bitmap_reads);
                let a_scans: Vec<_> = a.threads.iter().map(scans).collect();
                let b_scans: Vec<_> = b.threads.iter().map(scans).collect();
                assert_eq!(a_scans, b_scans, "{policy:?} level {l}");
                assert_eq!(
                    a.total().parent_writes,
                    b.total().parent_writes,
                    "{policy:?} level {l}"
                );
            }
            let rerun = ms_bfs_deterministic(&g, &sources, 4, false, policy).finish();
            assert_eq!(model.depths, rerun.depths);
            assert_eq!(model.profile, rerun.profile);
        }
    }

    #[test]
    fn bottom_up_levels_are_atomic_free_and_pick_the_same_parents_at_any_thread_count() {
        let g = RmatBuilder::new(10, 8).seed(6).build();
        let sources: Vec<VertexId> = (0..40).map(|i| i * 25).collect();
        let one = ms_bfs(&g, &sources, 1, true, ForcedDirection::BottomUp).finish();
        assert!(one.profile.direction_string().chars().all(|c| c == 'B'));
        assert_eq!(one.profile.total().atomic_ops, 0);
        assert!(one.profile.total().edges_skipped > 0);
        // A pulled parent is the first frontier neighbour in adjacency
        // order, whoever sweeps the vertex.
        for threads in [2, 3] {
            let native = ms_bfs(&g, &sources, threads, true, ForcedDirection::BottomUp).finish();
            let model =
                ms_bfs_deterministic(&g, &sources, threads, true, ForcedDirection::BottomUp)
                    .finish();
            assert_eq!(native.parents, one.parents, "x{threads}");
            assert_eq!(model.parents, one.parents, "x{threads}");
        }
    }

    #[test]
    fn auto_switches_both_ways_and_alternate_strictly_alternates() {
        let g = RmatBuilder::new(12, 8).seed(5).build();
        let sources: Vec<VertexId> = (0..64).map(|i| i * 61).collect();
        let auto = ms_bfs_deterministic(&g, &sources, 2, false, ForcedDirection::Auto).finish();
        let dirs = auto.profile.direction_string();
        assert!(dirs.starts_with('T') && dirs.contains("TB"), "got {dirs:?}");
        // Every bottom-up level is atomic-free, every top-down one is not.
        for level in &auto.profile.levels {
            let atomics = level.total().atomic_ops;
            match level.direction {
                BottomUp => assert_eq!(atomics, 0),
                TopDown => assert!(atomics > 0 || level.total().parent_writes == 0),
            }
        }
        let alt = ms_bfs(&g, &sources, 2, false, ForcedDirection::Alternate).finish();
        let dirs = alt.profile.direction_string();
        assert!(dirs.starts_with("TB"), "got {dirs:?}");
        assert!(
            dirs.as_bytes().windows(2).all(|w| w[0] != w[1]),
            "got {dirs:?}"
        );
        assert_eq!(alt.depths, auto.depths);
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
        for policy in POLICIES {
            let run = ms_bfs(&g, &[0, 1, 2], 2, false, policy).finish();
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
            assert_eq!(t.parent_writes, reached, "{policy:?}");
            assert!(run.seconds > 0.0);
            assert_eq!(run.levels, run.profile.num_levels());
        }
    }

    #[test]
    #[should_panic(expected = "wave width")]
    fn oversized_wave_panics() {
        let g = CsrGraph::from_edges(2, &[(0, 1)]);
        let sources = vec![0; 65];
        ms_bfs(&g, &sources, 1, false, ForcedDirection::Auto).finish();
    }
}
