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
//! model-mode executor produce bit-identical answers.
//!
//! Each wave slot is a [`Slot`]: a map query, which needs the depth row of
//! every vertex (and maybe the parent row), or a point query, which needs
//! one depth. Every claim tallies, per slot, the vertex it adds and that
//! vertex's degree; the tallies are merged at each level's end into every
//! slot's depth histogram and TEPS numerator (the paper's `ma`), and a
//! point slot's answer is the level at which its target's `seen` bit first
//! lands. Only map slots get rows in the depth and parent grids, so a
//! point-only wave allocates no grid and runs no whole-array pass after
//! its search.
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
//! hands foreign ones to the caller's sink, [`MsBfs::apply`] claims a
//! level's routed discoveries, and the level step is `depth + 1`.
//! [`ms_bfs`] and [`ms_bfs_deterministic`] run it over a [`CsrGraph`] (the
//! `p = 1` case, monomorphised to carry no owner test and no range offset)
//! in either direction; the shard worker runs it over a [`CsrShard`] on one
//! thread, top-down only, because a bottom-up level reads the frontier
//! words of neighbours another shard owns.

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

/// What one wave slot asks of the kernel. Every slot gets its depth
/// histogram and TEPS numerator from the per-level tallies; a map slot
/// also gets its rows, a point slot the depth of its target.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Slot {
    /// A map query: the depth of every owned vertex from `source`, and its
    /// BFS-tree parent when `parents`.
    Map {
        /// Search root.
        source: VertexId,
        /// Record the parent row too.
        parents: bool,
    },
    /// A point query: the depth at which the search from `source` reaches
    /// `target`, an owned vertex.
    Point {
        /// Search root.
        source: VertexId,
        /// The vertex whose depth answers the query.
        target: VertexId,
    },
}

impl Slot {
    /// One map slot per source, all recording parents or none.
    pub fn maps(sources: &[VertexId], parents: bool) -> Vec<Slot> {
        sources
            .iter()
            .map(|&source| Slot::Map { source, parents })
            .collect()
    }

    /// The search root.
    pub fn source(&self) -> VertexId {
        match *self {
            Slot::Map { source, .. } | Slot::Point { source, .. } => source,
        }
    }
}

/// One slot's answer over the owned range, read off the kernel's tallies,
/// plus the rows its [`Slot`] asked for.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SlotAnswer {
    /// Reached owned vertices per depth (`depth_histogram[d]`), up to the
    /// deepest one. Over a whole graph this is the search's histogram.
    pub depth_histogram: Vec<u64>,
    /// Adjacency entries of every reached owned vertex: the TEPS
    /// numerator (a shard's share of it).
    pub edges: u64,
    /// A point slot's answer: its target's depth, `None` when unreached.
    /// `None` for map slots.
    pub target_depth: Option<u32>,
    /// A map slot's depth row (`u32::MAX` unreached). Deterministic across
    /// executors, directions and thread counts.
    pub depths: Option<Vec<u32>>,
    /// The parent row of a map slot that records parents (`UNVISITED`
    /// unreached). Each entry is written once, but *which* tree emerges may
    /// vary across native interleavings of top-down claims.
    pub parents: Option<Vec<VertexId>>,
}

/// Result of one multi-source sweep.
#[derive(Debug)]
pub struct MsBfsRun {
    /// Per slot, in wave order: its answer.
    pub slots: Vec<SlotAnswer>,
    /// Per-level × per-thread operation counts of the shared sweep, each
    /// level stamped with the direction it ran in.
    pub profile: WorkProfile,
    /// Wall-clock seconds (native) or `0.0` (deterministic executor —
    /// callers price the profile with a machine model).
    pub seconds: f64,
    /// Levels executed (including the final empty-discovery sweep).
    pub levels: usize,
}

/// What one thread's share of a level found: the direction switch's
/// inputs, counted in mask words, the sources still searching, and the
/// per-slot tallies of the vertices each search gained.
struct Found {
    /// Words that gained a bit: the next frontier's size.
    words: u64,
    /// Adjacency entries of those words (m_f).
    edges: u64,
    /// Adjacency entries of the words that came to hold every source.
    settled_edges: u64,
    /// Sources with a bit in the next frontier.
    live: u64,
    /// Per slot: the vertices its search claimed.
    claims: [u64; MAX_SOURCES],
    /// Per slot: the adjacency entries of those vertices.
    claimed_edges: [u64; MAX_SOURCES],
}

impl Default for Found {
    fn default() -> Self {
        Self {
            words: 0,
            edges: 0,
            settled_edges: 0,
            live: 0,
            claims: [0; MAX_SOURCES],
            claimed_edges: [0; MAX_SOURCES],
        }
    }
}

impl Found {
    fn add(&mut self, other: &Found) {
        self.words += other.words;
        self.edges += other.edges;
        self.settled_edges += other.settled_edges;
        self.live |= other.live;
        for q in 0..MAX_SOURCES {
            self.claims[q] += other.claims[q];
            self.claimed_edges[q] += other.claimed_edges[q];
        }
    }

    /// Tallies one owned vertex, with `degree` adjacency entries, for every
    /// slot of `new`.
    #[inline(always)]
    fn claimed(&mut self, new: u64, degree: u64) {
        for q in bits_of_word(new) {
            self.claims[q] += 1;
            self.claimed_edges[q] += degree;
        }
    }
}

/// The per-slot answers a wave has tallied so far.
struct Tally {
    histograms: Vec<Vec<u64>>,
    edges: Vec<u64>,
    target_depths: Vec<Option<u32>>,
}

/// The set of the slots in `slots` that `pick` selects, one bit each.
fn slot_mask(slots: &[Slot], pick: impl Fn(&Slot) -> bool) -> u64 {
    slots
        .iter()
        .enumerate()
        .filter(|(_, s)| pick(s))
        .fold(0, |mask, (q, _)| mask | 1 << q)
}

/// The row of slot `q` in a grid that holds one row per slot of `rows`:
/// `q`'s rank among them.
#[inline(always)]
fn grid_row(rows: u64, q: usize) -> usize {
    (rows & ((1u64 << q) - 1)).count_ones() as usize
}

/// The search state of one wave over an owned range: three mask arrays of
/// one word per owned vertex, flat source-major depth/parent grids with a
/// row for each map slot only, and the per-slot tallies.
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
    /// The map slots: those with a depth row.
    depth_rows: u64,
    /// `depth_grid[grid_row(depth_rows, q) * len + v]` holds `depth + 1`
    /// (`0` = unreached). The offset-by-one encoding lets the grid come
    /// from a zeroed allocation — pages the sweep never touches are never
    /// materialized, and grid setup costs nothing inside the serving clock.
    depth_grid: Vec<AtomicU32>,
    /// The map slots that record parents.
    parent_rows: u64,
    /// `parent_grid[grid_row(parent_rows, q) * len + v]` holds
    /// `parent + 1` (`0` = unreached).
    parent_grid: Vec<AtomicU32>,
    /// Point slots as (slot, owned index of the target).
    points: Vec<(usize, usize)>,
    /// Per-slot answers, merged from the claims' tallies level by level.
    tally: Mutex<Tally>,
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
    /// Seeds a wave: search `q` starts at `slots[q]`'s source, with depth 0
    /// and itself as parent. Sources outside the owned range are another
    /// owner's seeds and leave this range's frontier empty.
    ///
    /// # Panics
    /// Panics when `slots` is empty or wider than [`MAX_SOURCES`], or when
    /// an owned source or a point slot's target lies outside the owned
    /// range.
    pub fn new(adj: &'a A, slots: &[Slot]) -> Self {
        let owned = adj.owned_range();
        let len = owned.len();
        let k = slots.len();
        assert!(
            (1..=MAX_SOURCES).contains(&k),
            "wave width {k} outside 1..={MAX_SOURCES}"
        );
        let depth_rows = slot_mask(slots, |s| matches!(s, Slot::Map { .. }));
        let parent_rows = slot_mask(slots, |s| matches!(s, Slot::Map { parents: true, .. }));
        let points = slots
            .iter()
            .enumerate()
            .filter_map(|(q, slot)| match *slot {
                Slot::Point { target, .. } => {
                    assert!(
                        owned.contains(&(target as usize)),
                        "target {target} out of range"
                    );
                    Some((q, target as usize - owned.start))
                }
                Slot::Map { .. } => None,
            })
            .collect();
        let grid = |rows: u64| zeroed_atomic_grid(rows.count_ones() as usize * len);
        let wave = Self {
            adj,
            k,
            full: u64::MAX >> (MAX_SOURCES - k),
            len,
            seen: AtomicBitmap::new(len * 64),
            visit: [AtomicBitmap::new(len * 64), AtomicBitmap::new(len * 64)],
            depth_rows,
            depth_grid: grid(depth_rows),
            parent_rows,
            parent_grid: grid(parent_rows),
            points,
            tally: Mutex::new(Tally {
                histograms: vec![Vec::new(); k],
                edges: vec![0; k],
                target_depths: vec![None; k],
            }),
        };
        let mut seeds = Found::default();
        for (q, slot) in slots.iter().enumerate() {
            let s = slot.source();
            if !adj.owns(s) {
                continue;
            }
            assert!(owned.contains(&(s as usize)), "source {s} out of range");
            let local = s as usize - owned.start;
            let bit = 1u64 << q;
            wave.seen.or_word(local, bit);
            wave.visit[0].or_word(local, bit);
            seeds.claimed(bit, adj.row(local).len() as u64);
            wave.store_depths(bit, local, 0);
            wave.store_parents(bit, local, s);
        }
        wave.deposit(0, &seeds);
        wave
    }

    /// Stores depth `depth` of owned vertex `local` in the depth rows of
    /// the slots of `new` that have one.
    #[inline(always)]
    fn store_depths(&self, new: u64, local: usize, depth: u32) {
        Self::store(
            &self.depth_grid,
            self.depth_rows,
            new,
            self.len,
            local,
            depth + 1,
        );
    }

    /// Stores parent `u` of owned vertex `local` in the parent rows of the
    /// slots of `new` that have one.
    #[inline(always)]
    fn store_parents(&self, new: u64, local: usize, u: VertexId) {
        Self::store(
            &self.parent_grid,
            self.parent_rows,
            new,
            self.len,
            local,
            u + 1,
        );
    }

    /// Stores `value` at owned vertex `local` in `grid`'s row of every slot
    /// of `new` that `rows` gives one.
    #[inline(always)]
    fn store(grid: &[AtomicU32], rows: u64, new: u64, len: usize, local: usize, value: u32) {
        for q in bits_of_word(new & rows) {
            grid[grid_row(rows, q) * len + local].store(value, Ordering::Relaxed);
        }
    }

    /// Merges the tallies of discoveries at depth `depth` into the wave's
    /// answers, then answers every open point slot whose target's `seen`
    /// bit has landed: at `depth`, since the check runs at every level's
    /// end (and at seeding, for a target equal to its source).
    fn deposit(&self, depth: u32, found: &Found) {
        let mut tally = self.tally.lock().expect("tally lock");
        let depth_index = depth as usize;
        for q in 0..self.k {
            let claims = found.claims[q];
            if claims > 0 {
                let histogram = &mut tally.histograms[q];
                if histogram.len() <= depth_index {
                    histogram.resize(depth_index + 1, 0);
                }
                histogram[depth_index] += claims;
            }
            tally.edges[q] += found.claimed_edges[q];
        }
        for &(q, target) in &self.points {
            if tally.target_depths[q].is_none() && self.seen.word(target) >> q & 1 == 1 {
                tally.target_depths[q] = Some(depth);
            }
        }
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
        let mut found = Found::default();
        let counts = self.top_down(depth, tid, threads, &mut found, foreign);
        self.deposit(depth, &found);
        counts
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

    /// Claims the discoveries routed in from other owners at level
    /// `depth`: each `(v, u, mask)` is owned vertex `v` reached from `u` by
    /// the sources in `mask`.
    ///
    /// # Panics
    /// Panics when some `v` lies outside the owned range.
    pub fn apply(&self, depth: u32, routed: impl IntoIterator<Item = (VertexId, VertexId, u64)>) {
        let start = self.adj.owned_range().start;
        let (mut c, mut found): (ThreadCounts, Found) = Default::default();
        for (v, u, mask) in routed {
            self.claim(&mut c, &mut found, v as usize - start, u, mask, depth);
        }
        self.deposit(depth, &found);
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
        let degree = self.adj.row(local).len() as u64;
        // Exactly one claim per level finds the next word empty, and exactly
        // one ever completes the seen word, so the tallies count each word
        // once however the claims race; each (source, vertex) pair is
        // claimed once, so are the per-slot tallies.
        if self.visit[depth as usize % 2].or_word(local, new) == 0 {
            found.words += 1;
            found.edges += degree;
        }
        if prev | d == self.full {
            found.settled_edges += degree;
        }
        found.live |= new;
        found.claimed(new, degree);
        let claimed = new.count_ones() as u64;
        c.parent_writes += claimed;
        c.queue_pushes += claimed;
        self.store_depths(new, local, depth);
        self.store_parents(new, local, u);
    }

    /// The wave's per-slot answers: histogram, TEPS numerator and point
    /// answer from the tallies, and, for map slots only, the depth and
    /// parent rows decoded from the grids. The grids store value + 1 with
    /// 0 = unreached, so one wrapping decrement decodes both.
    pub fn into_answers(self) -> Vec<SlotAnswer> {
        let Tally {
            histograms,
            edges,
            target_depths,
        } = self.tally.into_inner().expect("tally lock");
        let len = self.len;
        let row = |grid: &[AtomicU32], rows: u64, q: usize| -> Option<Vec<u32>> {
            (rows >> q & 1 == 1).then(|| {
                let r = grid_row(rows, q);
                grid[r * len..(r + 1) * len]
                    .iter()
                    .map(|a| a.load(Ordering::Relaxed).wrapping_sub(1))
                    .collect()
            })
        };
        histograms
            .into_iter()
            .zip(edges)
            .zip(target_depths)
            .enumerate()
            .map(|(q, ((depth_histogram, edges), target_depth))| SlotAnswer {
                depth_histogram,
                edges,
                target_depth,
                depths: row(&self.depth_grid, self.depth_rows, q),
                parents: row(&self.parent_grid, self.parent_rows, q),
            })
            .collect()
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
    fn switch(&self, slots: &[Slot], policy: ForcedDirection) -> Switch {
        let mut settled: Vec<VertexId> = slots
            .iter()
            .map(Slot::source)
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
        let mut c = ThreadCounts::default();
        for v in chunk_of(self.len, tid, threads) {
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
                self.store_parents(new, v, u);
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
            self.store_depths(acc, v, depth);
            let degree = row.len() as u64;
            found.words += 1;
            found.edges += degree;
            if seen | acc == self.full {
                found.settled_edges += degree;
            }
            found.live |= acc;
            found.claimed(acc, degree);
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

/// A completed sweep whose map slots' rows are still in the shared grids.
///
/// Splitting execution from extraction lets the query engine keep row
/// decoding outside the serving clock — the Graph500 convention that
/// validation and statistics are not part of the timed kernel. Only map
/// slots have rows to extract: every slot's histogram and TEPS numerator,
/// and a point slot's answer, are already tallied when the sweep ends.
pub struct RawMsBfs<'g> {
    wave: MsBfs<'g, CsrGraph>,
    recorder: Recorder,
    switch: Switch,
    /// Kernel wall-clock seconds (native) or `0.0` (deterministic
    /// executor — callers price the profile with a machine model).
    pub seconds: f64,
}

impl RawMsBfs<'_> {
    /// Extracts the per-slot answers, decoding the map slots' rows, and
    /// the work profile.
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
        MsBfsRun {
            slots: self.wave.into_answers(),
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
    slots: &[Slot],
    threads: usize,
    policy: ForcedDirection,
) -> RawMsBfs<'g> {
    let threads = threads.max(1);
    let wave = MsBfs::new(graph, slots);
    let switch = wave.switch(slots, policy);
    let first_dir = switch.initial();
    let switch = Mutex::new(switch);
    let recorder = Recorder::new(threads, 1, 2);
    let barrier = SpinBarrier::new(threads);
    let done = AtomicBool::new(false);
    // The level's tallies, summed under a plain mutex (a `TicketLock` would
    // trace its bookkeeping as lock spans) and deposited by the leader, and
    // the leader's picks for the next level, read after the barrier that
    // follows its stores.
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
                wave.deposit(depth, &found);
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
    slots: &[Slot],
    virtual_threads: usize,
    policy: ForcedDirection,
) -> RawMsBfs<'g> {
    let threads = virtual_threads.max(1);
    let wave = MsBfs::new(graph, slots);
    let mut switch = wave.switch(slots, policy);
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
        wave.deposit(depth, &found);
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

    /// Per slot, the depth rows of an all-map wave.
    fn depths(run: &MsBfsRun) -> Vec<Vec<u32>> {
        let row = |a: &SlotAnswer| a.depths.clone().expect("map slot");
        run.slots.iter().map(row).collect()
    }

    /// Per slot, the parent rows of an all-map wave that records parents.
    fn parents(run: &MsBfsRun) -> Vec<Vec<VertexId>> {
        let row = |a: &SlotAnswer| a.parents.clone().expect("parents recorded");
        run.slots.iter().map(row).collect()
    }

    fn check_against_sequential(g: &CsrGraph, sources: &[VertexId], threads: usize) {
        let slots = Slot::maps(sources, true);
        for policy in POLICIES {
            let run = ms_bfs(g, &slots, threads, policy).finish();
            let depths = depths(&run);
            for (q, &s) in sources.iter().enumerate() {
                assert_eq!(depths[q], sequential_levels(g, s), "{policy:?} source {s}");
            }
            // Parent arrays must be consistent with the depth arrays.
            for (q, (ps, ds)) in parents(&run).iter().zip(&depths).enumerate() {
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
        let (trees, rows) = (Slot::maps(&sources, true), Slot::maps(&sources, false));
        for policy in POLICIES {
            // One thread: one claim order, so the same tree, the same
            // counts and the same directions.
            let native = ms_bfs(&g, &trees, 1, policy).finish();
            let model = ms_bfs_deterministic(&g, &trees, 1, policy).finish();
            assert_eq!(native.slots, model.slots, "{policy:?}");
            assert_eq!(native.profile, model.profile, "{policy:?}");
            assert_eq!(native.levels, model.levels, "{policy:?}");
            // Four threads: the frontier and its partition are the same, so
            // are every thread's scans and the switch's inputs; which thread
            // wins a top-down claim is not.
            let native = ms_bfs(&g, &rows, 4, policy).finish();
            let model = ms_bfs_deterministic(&g, &rows, 4, policy).finish();
            assert_eq!(native.slots, model.slots, "{policy:?}");
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
            let rerun = ms_bfs_deterministic(&g, &rows, 4, policy).finish();
            assert_eq!(model.slots, rerun.slots);
            assert_eq!(model.profile, rerun.profile);
        }
    }

    #[test]
    fn bottom_up_levels_are_atomic_free_and_pick_the_same_parents_at_any_thread_count() {
        let g = RmatBuilder::new(10, 8).seed(6).build();
        let slots = Slot::maps(&(0..40).map(|i| i * 25).collect::<Vec<_>>(), true);
        let one = ms_bfs(&g, &slots, 1, ForcedDirection::BottomUp).finish();
        assert!(one.profile.direction_string().chars().all(|c| c == 'B'));
        assert_eq!(one.profile.total().atomic_ops, 0);
        assert!(one.profile.total().edges_skipped > 0);
        // A pulled parent is the first frontier neighbour in adjacency
        // order, whoever sweeps the vertex.
        for threads in [2, 3] {
            let native = ms_bfs(&g, &slots, threads, ForcedDirection::BottomUp).finish();
            let model =
                ms_bfs_deterministic(&g, &slots, threads, ForcedDirection::BottomUp).finish();
            assert_eq!(parents(&native), parents(&one), "x{threads}");
            assert_eq!(parents(&model), parents(&one), "x{threads}");
        }
    }

    #[test]
    fn auto_switches_both_ways_and_alternate_strictly_alternates() {
        let g = RmatBuilder::new(12, 8).seed(5).build();
        let slots = Slot::maps(&(0..64).map(|i| i * 61).collect::<Vec<_>>(), false);
        let auto = ms_bfs_deterministic(&g, &slots, 2, ForcedDirection::Auto).finish();
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
        let alt = ms_bfs(&g, &slots, 2, ForcedDirection::Alternate).finish();
        let dirs = alt.profile.direction_string();
        assert!(dirs.starts_with("TB"), "got {dirs:?}");
        assert!(
            dirs.as_bytes().windows(2).all(|w| w[0] != w[1]),
            "got {dirs:?}"
        );
        assert_eq!(alt.slots, auto.slots);
    }

    #[test]
    fn foreign_sources_do_not_seed_and_empty_waves_terminate() {
        let edges: Vec<(u32, u32)> = (0..10).map(|i| (i, (i + 1) % 10)).collect();
        let g = CsrGraph::from_edges_symmetric(10, &edges);
        let s1 = CsrShard::cut(&g, 2, 1); // owns 5..10
        let wave = MsBfs::new(&s1, &Slot::maps(&[0], false));
        // Source 0 is shard 0's; shard 1 starts with an empty frontier.
        let mut foreign = 0;
        let c = wave.scan(1, 0, 1, |_, _, _| foreign += 1);
        assert_eq!((c.parent_writes, foreign, c.edges_scanned), (0, 0, 0));
        let answer = SlotAnswer {
            depth_histogram: vec![],
            edges: 0,
            target_depth: None,
            depths: Some(vec![u32::MAX; 5]),
            parents: None,
        };
        assert_eq!(wave.into_answers(), [answer]);
    }

    #[test]
    fn profile_counts_are_plausible() {
        let g = UniformBuilder::new(500, 8).seed(1).build();
        for policy in POLICIES {
            let run = ms_bfs(&g, &Slot::maps(&[0, 1, 2], false), 2, policy).finish();
            let t = run.profile.total();
            assert!(t.edges_scanned > 0);
            assert_eq!(run.profile.edges_traversed, t.edges_scanned);
            // Every (source, vertex) pair is claimed at most once.
            let reached: u64 = depths(&run)
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
    fn point_slots_answer_off_the_seen_words_and_get_no_rows() {
        // A path 0-1-2-3 and, apart from it, an edge 4-5.
        let g = CsrGraph::from_edges_symmetric(6, &[(0, 1), (1, 2), (2, 3), (4, 5)]);
        let points = [
            Slot::Point {
                source: 0,
                target: 3,
            },
            Slot::Point {
                source: 2,
                target: 2,
            },
            Slot::Point {
                source: 0,
                target: 5,
            },
        ];
        let wave = MsBfs::new(&g, &points);
        assert!(wave.depth_grid.is_empty() && wave.parent_grid.is_empty());
        let mixed = [
            &points[..],
            &[Slot::Map {
                source: 4,
                parents: true,
            }],
        ]
        .concat();
        for policy in POLICIES {
            for run in [
                ms_bfs(&g, &mixed, 2, policy).finish(),
                ms_bfs_deterministic(&g, &mixed, 2, policy).finish(),
            ] {
                let depths: Vec<Option<u32>> = run.slots.iter().map(|a| a.target_depth).collect();
                assert_eq!(depths, [Some(3), Some(0), None, None], "{policy:?}");
                let histograms: Vec<&[u64]> =
                    run.slots.iter().map(|a| &a.depth_histogram[..]).collect();
                assert_eq!(
                    histograms,
                    [&[1, 1, 1, 1][..], &[1, 2, 1], &[1, 1, 1, 1], &[1, 1]]
                );
                let edges: Vec<u64> = run.slots.iter().map(|a| a.edges).collect();
                assert_eq!(edges, [6, 6, 6, 2], "{policy:?}");
                assert!(run.slots[..3].iter().all(|a| a.depths.is_none()));
                let map = &run.slots[3];
                let unreached = u32::MAX;
                assert_eq!(
                    map.depths.as_deref(),
                    Some(&[unreached, unreached, unreached, unreached, 0, 1][..])
                );
                assert_eq!(map.parents.as_ref().map(|p| (p[4], p[5])), Some((4, 4)));
            }
        }
    }

    #[test]
    #[should_panic(expected = "wave width")]
    fn oversized_wave_panics() {
        let g = CsrGraph::from_edges(2, &[(0, 1)]);
        let slots = Slot::maps(&[0; 65], false);
        ms_bfs(&g, &slots, 1, ForcedDirection::Auto).finish();
    }
}
