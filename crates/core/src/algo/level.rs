//! Algorithms 1–3: one partitioned level-synchronous loop.
//!
//! The paper's three algorithms (§III) are one loop refined three times,
//! and here they are one loop configured by a [`VariantConfig`] with five
//! policies:
//!
//! * **claim** — a compare-exchange on the parent array (Algorithm 1), or
//!   a `lock or` on the 1-bit-per-vertex visited bitmap, optionally behind
//!   a plain-load *test-then-set* that skips the atomic for vertices
//!   already visited (Fig. 4) and optionally issued in two passes over
//!   windows of 16 probes, so a window's cache misses overlap
//!   (the §II "multiple memory requests in flight" trick);
//! * **queue** — per-socket lock-protected queues with one lock round-trip
//!   per dequeue and enqueue (Algorithm 1), or [`SharedQueue`]s that hand
//!   out [`DEQUEUE_CHUNK`] vertices per `fetch_add` and take discoveries in
//!   reservations of up to [`ENQUEUE_BATCH`] (Algorithms 2–3);
//! * **remote discovery** — a neighbour owned by another socket is either
//!   claimed directly on its owner's state (a remote atomic, what Fig. 3
//!   warns about) or sent as a `(vertex, parent)` hop through a batched
//!   FastForward channel that its owner drains in a second phase of the
//!   level, so every atomic stays socket-local (Algorithm 3);
//! * **sockets** — the [`VertexPartition`]: each socket owns one block of
//!   vertices, with its bitmap shard and frontier queues. Threads are split
//!   into socket groups in id order; on a host with fewer sockets the groups
//!   are logical and the machine model prices them as physical sockets;
//! * **direction** — every level top-down, as in the paper, or some levels
//!   bottom-up, by Beamer's heuristic or forced: the direction-optimizing
//!   [`hybrid`](super::hybrid), which holds the switch and the bottom-up
//!   pieces. A level that changes direction converts the frontier first.
//!
//! A top-down level is built from four pieces: scan one frontier vertex,
//! probe and claim one neighbour, drain one inbox chunk, and flush a
//! thread's buffers; a bottom-up level from one, a sweep over a share of the
//! visited bitmap. [`bfs`] runs them on real threads; [`bfs_deterministic`],
//! the model-mode executor, runs the same pieces on virtual threads on the
//! calling thread. Both run every variant.

use crate::algo::hybrid::{ForcedDirection, Switch, Tally};
use crate::algo::parents::AtomicParents;
use crate::algo::{NativeRun, DEQUEUE_CHUNK, ENQUEUE_BATCH};
use crate::instrument::Recorder;
use core::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use crossbeam::utils::CachePadded;
use mcbfs_graph::bitmap::{AtomicBitmap, ClaimOutcome};
use mcbfs_graph::csr::{CsrGraph, VertexId, UNVISITED};
use mcbfs_graph::partition::VertexPartition;
use mcbfs_machine::profile::Direction::{BottomUp, TopDown};
use mcbfs_machine::profile::{LevelProfile, ThreadCounts, WorkProfile};
use mcbfs_sync::barrier::SpinBarrier;
use mcbfs_sync::channel::ChannelMatrix;
use mcbfs_sync::pool::scoped_run;
use mcbfs_sync::ticket::TicketLock;
use mcbfs_sync::workq::{LockedQueue, SharedQueue};
use mcbfs_trace::{EventKind, SpanTimer};
use std::time::Instant;

/// A `(vertex, parent)` tuple travelling through an inter-socket channel —
/// line 26 of the paper's Algorithm 3.
pub(super) type Hop = (VertexId, VertexId);

/// Batches per segment of each inter-socket channel. Phase 1 never drains,
/// so a channel that fills one links another.
const CHANNEL_CAPACITY: usize = 1 << 12;

/// Independent probes issued per software-pipelining window — matches the
/// ~10 outstanding requests the paper measures per thread, rounded up to
/// fill the last prefetch batch.
const PROBE_BATCH: usize = 16;

/// Hops a virtual thread takes from its socket's inbox at a time in the
/// deterministic schedule's phase 2; native threads take whole batches.
const DRAIN_CHUNK: usize = 64;

/// The policies of one algorithm variant. The three named algorithms of
/// the paper are [`VariantConfig::algorithm1`], [`VariantConfig::algorithm2`]
/// and [`VariantConfig::algorithm3`]; everything else is an ablation for the
/// Fig. 5 optimization study.
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
    /// Per-level direction: always top-down (Algorithms 1–3), or switching
    /// to bottom-up levels by Beamer's heuristic or by force (the hybrid,
    /// which needs one socket, the bitmap and chunked queues).
    pub direction: ForcedDirection,
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
            direction: ForcedDirection::TopDown,
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
            direction: ForcedDirection::TopDown,
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
            direction: ForcedDirection::TopDown,
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

    /// The direction-optimizing hybrid under `direction`: Algorithm 2's
    /// state and top-down levels, plus bottom-up levels. `hybrid(TopDown)`
    /// is [`VariantConfig::algorithm2`].
    pub fn hybrid(direction: ForcedDirection) -> Self {
        Self {
            direction,
            ..Self::algorithm2()
        }
    }

    /// `true` when levels have a phase 2 that drains the channels.
    fn two_phase(&self) -> bool {
        self.channels && self.sockets > 1
    }
}

/// The socket thread `tid` of `threads` works for: contiguous id groups.
fn socket_of_thread(tid: usize, sockets: usize, threads: usize) -> usize {
    tid * sockets / threads
}

/// One socket's frontier queue.
pub(super) enum Frontier {
    /// Algorithm 1's FIFO: one lock round-trip per operation.
    Locked(LockedQueue<VertexId>),
    /// The chunked array of Algorithms 2–3.
    Chunked(Box<SharedQueue<VertexId>>),
}

impl Frontier {
    fn new(locked: bool, capacity: usize) -> Self {
        if locked {
            Frontier::Locked(LockedQueue::with_capacity(capacity))
        } else {
            Frontier::Chunked(Box::new(SharedQueue::with_capacity(capacity)))
        }
    }

    /// Appends one vertex without charging anything.
    fn push(&self, v: VertexId) {
        match self {
            Frontier::Locked(q) => q.enqueue(v),
            Frontier::Chunked(q) => q.push(v),
        }
    }

    /// Takes the next vertex in queue order.
    fn pop(&self) -> Option<VertexId> {
        match self {
            Frontier::Locked(q) => q.dequeue(),
            Frontier::Chunked(q) => q.take_chunk(1).map(|chunk| chunk[0]),
        }
    }

    /// Hands vertices to `scan` until the frontier runs dry, one vertex per
    /// lock round-trip or [`DEQUEUE_CHUNK`] per `fetch_add`; each costs the
    /// calling thread one atomic.
    fn for_each_share(
        &self,
        counts: &mut ThreadCounts,
        mut scan: impl FnMut(VertexId, &mut ThreadCounts),
    ) {
        match self {
            Frontier::Locked(q) => {
                while let Some(u) = q.dequeue() {
                    counts.atomic_ops += 1;
                    scan(u, counts);
                }
            }
            Frontier::Chunked(q) => {
                while let Some(chunk) = q.take_chunk(DEQUEUE_CHUNK) {
                    counts.atomic_ops += 1;
                    for &u in chunk {
                        scan(u, counts);
                    }
                }
            }
        }
    }

    /// Empties the queue once its level has consumed it.
    fn reset(&self) {
        match self {
            Frontier::Locked(q) => q.clear(),
            Frontier::Chunked(q) => q.reset(),
        }
    }
}

/// Where one thread's discoveries go.
pub(super) trait Sink {
    /// `v`, just claimed on socket `dst`'s state, joins `dst`'s next
    /// frontier.
    fn discovered(&mut self, dst: usize, v: VertexId, counts: &mut ThreadCounts);
    /// `hop` goes to socket `dst`'s inbox, to be claimed there in phase 2.
    fn send(&mut self, dst: usize, hop: Hop, counts: &mut ThreadCounts);
    /// Virtual thread `tid` runs the scans that follow (deterministic
    /// executor only).
    fn run_as(&mut self, _tid: usize) {}
}

/// The traversal state both executors drive: parents, one visited-bitmap
/// shard and one double-buffered frontier per socket, plus the dense
/// frontier pair of bottom-up levels. Level L reads index L % 2 of both
/// frontier pairs and writes index (L + 1) % 2. The bottom-up pieces are an
/// `impl` block in [`hybrid`](super::hybrid), so the fields they touch are
/// visible there.
pub(super) struct LevelState<'g> {
    pub(super) graph: &'g CsrGraph,
    config: VariantConfig,
    partition: VertexPartition,
    pub(super) parents: AtomicParents,
    /// Empty when claims go to the parent array.
    pub(super) visited: Vec<AtomicBitmap>,
    pub(super) queues: [Vec<Frontier>; 2],
    /// Zero bits long unless the direction switches.
    pub(super) dense: [AtomicBitmap; 2],
}

impl<'g> LevelState<'g> {
    /// `root` visited and in its socket's first frontier, in both
    /// representations when the direction switches.
    fn new(graph: &'g CsrGraph, root: VertexId, mut config: VariantConfig) -> Self {
        let n = graph.num_vertices();
        assert!((root as usize) < n, "root {root} out of range 0..{n}");
        config.sockets = config.sockets.max(1);
        config.batch = config.batch.max(1);
        let switches = config.direction != ForcedDirection::TopDown;
        assert!(
            !switches || (config.sockets == 1 && config.use_bitmap && !config.locked_queues),
            "a switching direction needs one socket, the bitmap and chunked queues: {config:?}"
        );
        let partition = VertexPartition::new(n, config.sockets);
        let frontiers = || -> Vec<Frontier> {
            (0..config.sockets)
                .map(|s| Frontier::new(config.locked_queues, partition.len(s).max(1)))
                .collect()
        };
        let st = Self {
            graph,
            config,
            parents: AtomicParents::new(n),
            visited: if config.use_bitmap {
                (0..config.sockets)
                    .map(|s| AtomicBitmap::new(partition.len(s)))
                    .collect()
            } else {
                Vec::new()
            },
            queues: [frontiers(), frontiers()],
            dense: [0, 1].map(|_| AtomicBitmap::new(if switches { n } else { 0 })),
            partition,
        };
        st.parents.store(root, root);
        let (socket, bit) = st.owner(root);
        if config.use_bitmap {
            st.visited[socket].set_atomic(bit);
        }
        st.queues[0][socket].push(root);
        if switches {
            st.dense[0].set_atomic(root as usize);
        }
        st
    }

    /// Empties the frontiers at `parity` once their level has consumed
    /// them, including a stale copy a conversion left behind.
    fn reset(&self, parity: usize) {
        for q in &self.queues[parity] {
            q.reset();
        }
        self.dense[parity].clear();
    }

    /// The socket owning `v` and `v`'s bit in that socket's shard.
    #[inline]
    fn owner(&self, v: VertexId) -> (usize, usize) {
        let socket = self.partition.socket_of(v);
        (socket, v as usize - self.partition.range(socket).start)
    }

    /// Scans frontier vertex `u` for a thread of socket `s`. A neighbour
    /// owned by another socket leaves through `sink` when channels are on;
    /// every other one is probed and claimed. Pipelined with test-then-set,
    /// this runs in two passes over windows of [`PROBE_BATCH`] neighbours,
    /// so a window's probes are in flight together; otherwise each window
    /// is one neighbour.
    #[inline]
    fn scan(&self, s: usize, u: VertexId, counts: &mut ThreadCounts, sink: &mut impl Sink) {
        // A copy of the loop per window width and per need for routing (one
        // socket owns every vertex) keeps the hot path's state in registers.
        let c = &self.config;
        match (c.sockets > 1, c.pipelined && c.test_then_set) {
            (false, true) => self.scan_windows::<false, PROBE_BATCH>(s, u, counts, sink),
            (false, false) => self.scan_windows::<false, 1>(s, u, counts, sink),
            (true, true) => self.scan_windows::<true, PROBE_BATCH>(s, u, counts, sink),
            (true, false) => self.scan_windows::<true, 1>(s, u, counts, sink),
        }
    }

    #[inline(always)]
    fn scan_windows<const ROUTED: bool, const WIDTH: usize>(
        &self,
        s: usize,
        u: VertexId,
        counts: &mut ThreadCounts,
        sink: &mut impl Sink,
    ) {
        let owner = |v: VertexId| {
            if ROUTED {
                self.owner(v)
            } else {
                (0, v as usize)
            }
        };
        let neighbors = self.graph.neighbors(u);
        counts.vertices_scanned += 1;
        counts.edges_scanned += neighbors.len() as u64;
        // Probes are tallied in locals: `counts` escapes into the sink and
        // the claim, so per-edge increments on it would go through memory.
        let (mut probes, mut remote_probes) = (0, 0);
        for window in neighbors.chunks(WIDTH) {
            let mut candidate = [false; WIDTH];
            for (i, &v) in window.iter().enumerate() {
                let (dst, bit) = owner(v);
                if ROUTED && self.config.channels && dst != s {
                    counts.channel_items += 1;
                    sink.send(dst, (v, u), counts);
                } else {
                    probes += 1;
                    remote_probes += (dst != s) as u64;
                    candidate[i] = self.probe(v, (dst, bit));
                }
            }
            for (i, &v) in window.iter().enumerate() {
                if candidate[i] {
                    self.claim(s, v, u, owner(v), counts, sink);
                }
            }
        }
        counts.bitmap_reads += probes;
        counts.remote_bitmap_reads += remote_probes;
    }

    /// Native phase 1 for a thread of socket `s`: scans the shares of its
    /// frontier at `parity` this thread takes, until the frontier runs dry.
    #[inline]
    fn scan_share(&self, s: usize, parity: usize, counts: &mut ThreadCounts, sink: &mut impl Sink) {
        self.queues[parity][s].for_each_share(counts, |u, counts| self.scan(s, u, counts, sink));
    }

    /// Drains one chunk of socket `s`'s inbox: each hop is a claim on
    /// `s`'s own state.
    fn drain(&self, s: usize, hops: &[Hop], counts: &mut ThreadCounts, sink: &mut impl Sink) {
        for &(v, u) in hops {
            counts.channel_drained += 1;
            counts.bitmap_reads += 1;
            let owner = self.owner(v);
            if self.probe(v, owner) {
                self.claim(s, v, u, owner, counts, sink);
            }
        }
    }

    /// Deterministic phase 1 for socket `s`: each vertex of its frontier at
    /// `parity` goes, in queue order, to the least-loaded thread of `team`
    /// (its load grows by the vertex's degree, at least 1; ties go to the
    /// lowest id), and each thread then pays the dequeue atomics of the
    /// vertices it took — one each with locked queues, one per
    /// [`DEQUEUE_CHUNK`] otherwise.
    fn scan_team(
        &self,
        s: usize,
        parity: usize,
        team: &[usize],
        threads: &mut [ThreadCounts],
        sink: &mut impl Sink,
    ) {
        let current = &self.queues[parity][s];
        let mut load = vec![0u64; team.len()];
        while let Some(u) = current.pop() {
            let w = least_loaded(&load);
            sink.run_as(team[w]);
            self.scan(s, u, &mut threads[team[w]], sink);
            load[w] += (self.graph.degree(u) as u64).max(1);
        }
        for &tid in team {
            let counts = &mut threads[tid];
            let taken = counts.vertices_scanned;
            counts.atomic_ops += if self.config.locked_queues {
                taken
            } else {
                taken.div_ceil(DEQUEUE_CHUNK as u64)
            };
        }
    }

    /// The probe of a claim, one read of `v`'s visited state, which the
    /// caller charges. Returns whether the claim goes on to its atomic —
    /// always without test-then-set, only for an unvisited `v` with it.
    #[inline]
    fn probe(&self, v: VertexId, (dst, bit): (usize, usize)) -> bool {
        if !self.config.test_then_set {
            return true;
        }
        let visited = if self.config.use_bitmap {
            self.visited[dst].test(bit)
        } else {
            self.parents.is_visited(v)
        };
        !visited
    }

    /// The atomic of a claim. Test-then-set re-tests first: an earlier
    /// claim in the same pipelined window may have taken `v`.
    #[inline(always)]
    fn claim(
        &self,
        s: usize,
        v: VertexId,
        parent: VertexId,
        (dst, bit): (usize, usize),
        counts: &mut ThreadCounts,
        sink: &mut impl Sink,
    ) {
        let tts = self.config.test_then_set;
        let outcome = if self.config.use_bitmap {
            if tts {
                self.visited[dst].claim(bit)
            } else {
                self.visited[dst].set_atomic(bit)
            }
        } else if tts && self.parents.is_visited(v) {
            ClaimOutcome::AlreadyVisited
        } else if self.parents.try_claim(v, parent) {
            ClaimOutcome::Claimed
        } else {
            ClaimOutcome::LostRace
        };
        if outcome.used_atomic() {
            counts.atomic_ops += 1;
            if dst != s {
                counts.remote_atomic_ops += 1;
            }
        }
        if outcome.claimed() {
            if self.config.use_bitmap {
                self.parents.store(v, parent);
            }
            counts.parent_writes += 1;
            counts.queue_pushes += 1;
            sink.discovered(dst, v, counts);
        }
    }

    /// Two barriers close a level; a phase 2 adds one before it.
    fn barriers_per_level(&self) -> u32 {
        2 + self.config.two_phase() as u32
    }

    /// The run's result. `found_edges` is the root's degree plus every
    /// level's m_f, which [`Tally`] and the bottom-up sweep count unless
    /// the direction is [`ForcedDirection::TopDown`]; a top-down-only
    /// search scans each reached row once, whole, so its scans are the
    /// same number.
    fn into_run(
        self,
        levels: Vec<LevelProfile>,
        threads: usize,
        seconds: f64,
        found_edges: u64,
    ) -> NativeRun {
        let n = self.graph.num_vertices() as u64;
        let config = self.config;
        let edges_traversed = levels.iter().map(|l| l.total().edges_scanned).sum();
        let profile = WorkProfile {
            edges_traversed,
            levels,
            threads,
            sockets: config.sockets,
            num_vertices: n,
            visited_bytes: if config.use_bitmap {
                n.div_ceil(8)
            } else {
                n * 4
            },
            pipelined: config.pipelined,
            sharded_state: config.channels || config.sockets == 1,
        };
        let parents = self.parents.into_vec();
        let visited = parents.iter().filter(|&&p| p != UNVISITED).count() as u64;
        NativeRun {
            parents,
            profile,
            seconds,
            visited,
            reached_edges: if config.direction == ForcedDirection::TopDown {
                edges_traversed
            } else {
                found_edges
            },
        }
    }
}

/// A native thread's sink: discoveries gather per destination socket into
/// reservations on the shared next queues (or take the lock, with locked
/// queues), and hops gather per destination into channel batches, each of
/// which moves whole into the channel toward its owner.
struct Buffers<'a> {
    next: &'a [Frontier],
    links: &'a ChannelMatrix<Hop>,
    socket: usize,
    batch: usize,
    local: Vec<Vec<VertexId>>,
    remote: Vec<Vec<Hop>>,
}

impl Sink for Buffers<'_> {
    fn discovered(&mut self, dst: usize, v: VertexId, counts: &mut ThreadCounts) {
        match &self.next[dst] {
            Frontier::Locked(q) => {
                counts.atomic_ops += 1; // LockedEnqueue
                q.enqueue(v);
            }
            Frontier::Chunked(q) => {
                let buf = &mut self.local[dst];
                buf.push(v);
                if buf.len() == ENQUEUE_BATCH {
                    counts.atomic_ops += 1; // batch reservation
                    q.push_batch(buf);
                    buf.clear();
                }
            }
        }
    }

    fn send(&mut self, dst: usize, hop: Hop, counts: &mut ThreadCounts) {
        self.remote[dst].push(hop);
        if self.remote[dst].len() >= self.batch {
            self.ship(dst, counts);
        }
    }
}

impl<'a> Buffers<'a> {
    /// Empty buffers for a thread of `socket`, writing the frontiers at
    /// index 1 first.
    fn new(st: &'a LevelState, links: &'a ChannelMatrix<Hop>, socket: usize) -> Self {
        Self {
            next: &st.queues[1],
            links,
            socket,
            batch: st.config.batch,
            local: vec![Vec::new(); st.config.sockets],
            remote: vec![Vec::new(); st.config.sockets],
        }
    }

    /// Points discoveries at the frontiers a level reading `parity` writes.
    fn start_level(&mut self, st: &'a LevelState, parity: usize) {
        self.next = &st.queues[1 - parity];
    }

    /// Moves hop buffer `dst` into its channel as one batch.
    fn ship(&mut self, dst: usize, counts: &mut ThreadCounts) {
        counts.channel_batches += 1;
        let batch = core::mem::replace(&mut self.remote[dst], Vec::with_capacity(self.batch));
        self.links.channel(self.socket, dst).send(batch);
    }

    /// Sends every partly filled channel batch (end of phase 1).
    fn flush_remote(&mut self, counts: &mut ThreadCounts) {
        for dst in 0..self.remote.len() {
            if !self.remote[dst].is_empty() {
                self.ship(dst, counts);
            }
        }
    }

    /// Appends every partly filled discovery buffer (end of the level).
    fn flush_local(&mut self, counts: &mut ThreadCounts) {
        for (buf, next) in self.local.iter_mut().zip(self.next) {
            if let Frontier::Chunked(q) = next {
                if !buf.is_empty() {
                    counts.atomic_ops += 1;
                    q.push_batch(buf);
                    buf.clear();
                }
            }
        }
    }
}

/// The direction switch of a search from `root`: every edge but the
/// root's is unexplored.
fn switch_for(graph: &CsrGraph, root: VertexId, policy: ForcedDirection) -> Switch {
    let unexplored = graph.num_edges() as u64 - graph.degree(root) as u64;
    Switch::new(policy, graph.num_vertices(), unexplored)
}

/// Runs the variant `config` from `root` on `threads` worker threads (at
/// least one per socket).
pub fn bfs(graph: &CsrGraph, root: VertexId, threads: usize, config: VariantConfig) -> NativeRun {
    let st = LevelState::new(graph, root, config);
    let config = st.config;
    let sockets = config.sockets;
    let threads = threads.max(sockets);
    // Rings only exist to be drained in phase 2.
    let capacity = if config.two_phase() {
        CHANNEL_CAPACITY
    } else {
        0
    };
    let links = ChannelMatrix::<Hop>::new(sockets, capacity);
    let barrier = SpinBarrier::new(threads);
    let switch = switch_for(graph, root, config.direction);
    let first_dir = switch.initial();
    let switch = TicketLock::new(switch);
    let done = AtomicBool::new(false);
    // The leader's pick for the next level, read after the barrier that
    // follows its store, which orders the two.
    let next_dir = AtomicU8::new(first_dir as u8);
    // Per-thread discovery tallies of a level (n_f and m_f), summed by the
    // leader after the barrier that follows the stores, which orders them.
    let found_count: Vec<CachePadded<AtomicU64>> =
        (0..threads).map(|_| Default::default()).collect();
    let found_edges: Vec<CachePadded<AtomicU64>> =
        (0..threads).map(|_| Default::default()).collect();
    // The root's degree plus every level's m_f, added by the leader.
    let reached = AtomicU64::new(graph.degree(root) as u64);
    let recorder = Recorder::new(threads, sockets, st.barriers_per_level());

    let start = Instant::now();
    scoped_run(threads, |tid| {
        mcbfs_trace::register_worker(tid);
        let s = socket_of_thread(tid, sockets, threads);
        let buffers = Buffers::new(&st, &links, s);
        let mut sink = Tally::new(graph, config.direction, buffers);
        let mut series: Vec<ThreadCounts> = Vec::new();
        let mut parity = 0usize;
        let mut dir = first_dir;
        // Conversion work between levels is charged to the level it
        // prepares, carried over in this accumulator.
        let mut carry = ThreadCounts::default();
        loop {
            let level_index = series.len() as u64;
            let level_span = SpanTimer::start();
            let mut counts = core::mem::take(&mut carry);
            let m_f = if dir == TopDown {
                sink.inner.start_level(&st, parity);

                // Phase 1: scan this socket's frontier.
                st.scan_share(s, parity, &mut counts, &mut sink);

                // Phase 2: claim what the other sockets sent here.
                if config.two_phase() {
                    sink.inner.flush_remote(&mut counts);
                    barrier.wait();
                    // Each inbound channel in socket order, a whole batch
                    // per receive, in send order.
                    for from in (0..sockets).filter(|&from| from != s) {
                        let channel = links.channel(from, s);
                        while let Some(hops) = channel.recv() {
                            st.drain(s, &hops, &mut counts, &mut sink);
                        }
                    }
                }
                sink.inner.flush_local(&mut counts);
                sink.take_found_edges()
            } else {
                st.sweep_bottom_up(parity, tid, threads, &mut counts)
            };
            found_count[tid].store(counts.parent_writes, Ordering::Relaxed);
            found_edges[tid].store(m_f, Ordering::Relaxed);
            series.push(counts);

            if barrier.wait() {
                // Leader: sum the tallies, decide termination and the next
                // direction, recycle the consumed frontiers.
                let n_f: u64 = found_count.iter().map(|c| c.load(Ordering::Relaxed)).sum();
                let m_f: u64 = found_edges.iter().map(|c| c.load(Ordering::Relaxed)).sum();
                reached.fetch_add(m_f, Ordering::Relaxed);
                let decided = switch.lock().next(dir, n_f, m_f, m_f);
                next_dir.store(decided as u8, Ordering::Relaxed);
                done.store(n_f == 0, Ordering::Release);
                st.reset(parity);
                if decided != dir && n_f != 0 {
                    mcbfs_trace::instant(EventKind::DirectionSwitch, decided as u64);
                }
            }
            barrier.wait();
            level_span.finish(EventKind::Level, level_index);
            if done.load(Ordering::Acquire) {
                break;
            }
            let decided = if next_dir.load(Ordering::Relaxed) == BottomUp as u8 {
                BottomUp
            } else {
                TopDown
            };
            // The next frontier sits at index 1-parity in the representation
            // `dir` built; convert when `decided` reads the other one. All
            // threads compute the same predicate, so the extra barrier stays
            // uniform.
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
    let found = reached.into_inner();
    let mut run = st.into_run(recorder.into_levels(), threads, seconds, found);
    switch.into_inner().stamp(&mut run.profile);
    run
}

/// The deterministic driver's sink: discoveries go straight to the owner's
/// next queue and hops straight to the owner's inbox, in send order. Channel
/// batches are counted per (virtual thread, destination), not formed.
struct Direct<'a> {
    next: &'a [Frontier],
    inbox: Vec<Vec<Hop>>,
    /// Hops since the last batch, per virtual thread and destination.
    fill: Vec<Vec<usize>>,
    /// The virtual thread whose scan or drain is running.
    tid: usize,
    batch: usize,
}

impl Sink for Direct<'_> {
    fn discovered(&mut self, dst: usize, v: VertexId, _: &mut ThreadCounts) {
        self.next[dst].push(v);
    }

    fn send(&mut self, dst: usize, hop: Hop, counts: &mut ThreadCounts) {
        self.inbox[dst].push(hop);
        let fill = &mut self.fill[self.tid][dst];
        *fill += 1;
        if *fill >= self.batch {
            counts.channel_batches += 1;
            *fill = 0;
        }
    }

    fn run_as(&mut self, tid: usize) {
        self.tid = tid;
    }
}

impl<'a> Direct<'a> {
    /// An empty sink for `threads` virtual threads at a level that reads
    /// the frontiers at `parity`.
    fn new(st: &'a LevelState, parity: usize, threads: usize) -> Self {
        Self {
            next: &st.queues[1 - parity],
            inbox: vec![Vec::new(); st.config.sockets],
            fill: vec![vec![0; st.config.sockets]; threads],
            tid: 0,
            batch: st.config.batch,
        }
    }
}

/// The least-loaded worker, ties to the lowest index.
fn least_loaded(load: &[u64]) -> usize {
    (0..load.len())
        .min_by_key(|&w| (load[w], w))
        .expect("every socket has a worker")
}

/// Runs [`bfs`] as `threads` deterministic virtual threads (at least one
/// per socket) on the calling thread — the model-mode executor. Each level
/// calls the same scan, claim, drain, sweep and conversion pieces and the
/// same direction switch as the native threads, on a fixed schedule:
///
/// * phase 1 goes socket by socket; each vertex of a socket's frontier
///   goes, in queue order, to the least-loaded virtual thread of that
///   socket (its load grows by the vertex's degree, at least 1; ties go to
///   the lowest id), and each thread pays the dequeue atomics of the
///   vertices it took — one each with locked queues, one per
///   [`DEQUEUE_CHUNK`] otherwise;
/// * discoveries go straight to the owner's next queue, with no enqueue
///   reservation or `LockedEnqueue` charge;
/// * hops go straight to the owner's inbox; a thread pays one channel
///   batch per `batch` hops it sent to one socket, plus one per partly
///   filled batch at the end of phase 1;
/// * phase 2 drains each socket's inbox in send order, 64 hops at a time,
///   each chunk to the least-loaded thread of the socket (its load grows by
///   the chunk length);
/// * bottom-up sweeps and frontier conversions use the native per-thread
///   shares.
///
/// Parents and profile are deterministic; `seconds` is `0.0` (callers price
/// the profile with a machine model). At one thread per socket, with all
/// discoveries local (Algorithms 1–3 and the hybrid), the run equals a
/// native one except in `atomic_ops` on top-down levels, where native also
/// pays one `LockedEnqueue` per discovery with locked queues, or
/// ⌈`parent_writes` / [`ENQUEUE_BATCH`]⌉ enqueue reservations with chunked
/// ones.
pub fn bfs_deterministic(
    graph: &CsrGraph,
    root: VertexId,
    threads: usize,
    config: VariantConfig,
) -> NativeRun {
    let st = LevelState::new(graph, root, config);
    let config = st.config;
    let sockets = config.sockets;
    let threads = threads.max(sockets);
    let teams: Vec<Vec<usize>> = (0..sockets)
        .map(|s| {
            (0..threads)
                .filter(|&t| socket_of_thread(t, sockets, threads) == s)
                .collect()
        })
        .collect();
    let mut switch = switch_for(graph, root, config.direction);
    let mut dir = switch.initial();
    let mut levels: Vec<LevelProfile> = Vec::new();
    let mut carry = vec![ThreadCounts::default(); threads];
    let mut parity = 0usize;
    let mut reached = graph.degree(root) as u64;
    loop {
        let mut level = LevelProfile::new(threads, st.barriers_per_level());
        level.threads = carry;
        let m_f = if dir == TopDown {
            let direct = Direct::new(&st, parity, threads);
            let mut sink = Tally::new(graph, config.direction, direct);
            for (s, team) in teams.iter().enumerate() {
                st.scan_team(s, parity, team, &mut level.threads, &mut sink);
            }
            for (counts, fills) in level.threads.iter_mut().zip(&sink.inner.fill) {
                counts.channel_batches += fills.iter().filter(|&&f| f > 0).count() as u64;
            }
            for (s, team) in teams.iter().enumerate() {
                let hops = core::mem::take(&mut sink.inner.inbox[s]);
                let mut load = vec![0u64; team.len()];
                for chunk in hops.chunks(DRAIN_CHUNK) {
                    let w = least_loaded(&load);
                    load[w] += chunk.len() as u64;
                    sink.run_as(team[w]);
                    st.drain(s, chunk, &mut level.threads[team[w]], &mut sink);
                }
            }
            sink.take_found_edges()
        } else {
            let sweep = |(tid, counts)| st.sweep_bottom_up(parity, tid, threads, counts);
            level.threads.iter_mut().enumerate().map(sweep).sum()
        };
        let n_f = level.total().parent_writes;
        reached += m_f;
        levels.push(level);
        let decided = switch.next(dir, n_f, m_f, m_f);
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
    let mut run = st.into_run(levels, threads, 0.0, reached);
    switch.stamp(&mut run.profile);
    run
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::sequential::bfs_sequential;
    use mcbfs_gen::prelude::*;
    use mcbfs_graph::validate::validate_bfs_tree;

    fn both(g: &CsrGraph, threads: usize, config: VariantConfig) -> [NativeRun; 2] {
        [
            bfs(g, 0, threads, config),
            bfs_deterministic(g, 0, threads, config),
        ]
    }

    /// The named algorithms and the Fig. 5 ablations.
    fn variants() -> Vec<VariantConfig> {
        let (a1, a2, a3) = (
            VariantConfig::algorithm1(),
            VariantConfig::algorithm2(),
            VariantConfig::algorithm3(2),
        );
        let mut all = vec![a1, a2, a3, VariantConfig::algorithm3(1)];
        all.push(VariantConfig::algorithm3(4));
        all.push(VariantConfig::algorithm3(8));
        all.push(VariantConfig::algorithm2_multisocket(4));
        all.push(VariantConfig { sockets: 2, ..a1 });
        all.push(VariantConfig { batch: 1, ..a3 });
        all.push(VariantConfig {
            use_bitmap: false,
            ..a2
        });
        for (use_bitmap, test_then_set) in [(true, true), (true, false), (false, false)] {
            let pipelined = false;
            all.push(VariantConfig {
                use_bitmap,
                test_then_set,
                pipelined,
                ..a2
            });
        }
        all
    }

    #[test]
    fn every_variant_yields_the_sequential_reach_in_both_executors() {
        let g = RmatBuilder::new(10, 6).seed(21).build();
        let seq = bfs_sequential(&g, 0);
        for config in variants() {
            for threads in [1, 2, 4] {
                for run in both(&g, threads, config) {
                    validate_bfs_tree(&g, 0, &run.parents)
                        .unwrap_or_else(|e| panic!("{config:?} x{threads}: {e}"));
                    assert_eq!(run.visited, seq.visited, "{config:?} x{threads}");
                    assert_eq!(run.profile.edges_traversed, seq.profile.edges_traversed);
                }
            }
        }
    }

    #[test]
    fn small_shapes_in_both_executors() {
        let sym = CsrGraph::from_edges_symmetric;
        let ring: Vec<_> = (0..100u32).map(|i| (i, (i + 1) % 100)).collect();
        let star: Vec<_> = (1..64u32).map(|i| (0, i)).collect();
        let graphs = [
            ("ring", sym(100, &ring), 100, 51),
            ("star", sym(64, &star), 64, 2),
            ("islands", sym(1_000, &[(0, 999), (999, 500)]), 3, 3),
            (
                "path",
                sym(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]),
                6,
                6,
            ),
            ("singleton", CsrGraph::from_edges(1, &[]), 1, 1),
        ];
        for (name, g, visited, levels) in &graphs {
            for config in variants() {
                for run in both(g, 8, config) {
                    validate_bfs_tree(g, 0, &run.parents)
                        .unwrap_or_else(|e| panic!("{name} {config:?}: {e}"));
                    assert_eq!(run.visited, *visited, "{name} {config:?}");
                    assert_eq!(run.profile.num_levels(), *levels, "{name} {config:?}");
                }
            }
        }
    }

    #[test]
    fn profile_header_reflects_the_policies() {
        let g = UniformBuilder::new(1_000, 4).seed(1).build();
        let a2 = VariantConfig::algorithm2();
        let shared = VariantConfig::algorithm2_multisocket(2);
        for (config, expected) in [
            (a2, (125, true, true, 2)),
            (
                VariantConfig {
                    pipelined: false,
                    ..a2
                },
                (125, false, true, 2),
            ),
            (VariantConfig::algorithm1(), (4_000, false, true, 2)),
            (shared, (125, true, false, 2)),
            (VariantConfig::algorithm3(1), (125, true, true, 2)),
            (VariantConfig::algorithm3(2), (125, true, true, 3)),
        ] {
            for run in both(&g, 2, config) {
                let p = run.profile;
                let barriers = p.levels[0].barriers;
                let header = (p.visited_bytes, p.pipelined, p.sharded_state, barriers);
                assert_eq!(header, expected, "{config:?}");
            }
        }
    }

    #[test]
    fn algorithm1_pays_an_atomic_per_edge_dequeue_and_enqueue() {
        let g = RmatBuilder::new(10, 6).seed(42).build();
        let [native, model] = both(&g, 1, VariantConfig::algorithm1());
        let (n, m) = (native.profile.total(), model.profile.total());
        assert_eq!(n.bitmap_reads, n.edges_scanned);
        assert_eq!(m.atomic_ops, m.edges_scanned + m.vertices_scanned);
        assert_eq!(n.atomic_ops, m.atomic_ops + n.parent_writes);
    }

    #[test]
    fn test_then_set_cuts_atomics_and_collapses_them_in_late_levels() {
        let g = UniformBuilder::new(1 << 14, 8).seed(4).build();
        let a2 = VariantConfig::algorithm2();
        let always = VariantConfig {
            test_then_set: false,
            ..a2
        };
        for (with, without) in both(&g, 2, a2).iter().zip(both(&g, 2, always)) {
            let with_atomics = with.profile.total().atomic_ops;
            assert!(with_atomics * 2 < without.profile.total().atomic_ops);
            // Fig. 4: late levels read the bitmap far more often than they
            // issue atomics.
            let series = with.profile.bitmap_vs_atomics_series();
            for &(reads, atomics) in &series[series.len() - 2..] {
                assert!(reads <= 1000 || atomics * 3 < reads, "{atomics} vs {reads}");
            }
        }
    }

    #[test]
    fn pipelined_pass_two_retests_before_its_atomic() {
        // Vertex 0's adjacency is [1, 1, 1, 2, 2]: one window of five
        // candidates, of which only the first probe of each vertex claims.
        let dup = CsrGraph::from_edges_symmetric(3, &[(0, 1), (0, 1), (0, 2), (0, 1), (0, 2)]);
        let level0 = bfs(&dup, 0, 1, VariantConfig::algorithm2()).profile.levels[0].threads[0];
        assert_eq!((level0.bitmap_reads, level0.atomic_ops), (5, 1 + 2 + 1));
        // Pipelining changes the instruction schedule, never the counts.
        let g = UniformBuilder::new(4_096, 8).seed(17).build();
        let a2 = VariantConfig::algorithm2();
        let pipelined = bfs(&g, 0, 1, a2);
        let scalar = bfs(
            &g,
            0,
            1,
            VariantConfig {
                pipelined: false,
                ..a2
            },
        );
        assert_eq!(pipelined.parents, scalar.parents);
        assert_eq!(pipelined.profile.levels, scalar.profile.levels);
    }

    #[test]
    fn channels_carry_every_remote_discovery() {
        // A path zig-zagging between the two halves of the id space sends
        // every edge it scans through a channel.
        let zigzag: Vec<_> = (0..31u32)
            .flat_map(|i| [(i, 32 + i), (32 + i, i + 1)])
            .collect();
        let g = CsrGraph::from_edges_symmetric(64, &zigzag);
        for run in both(&g, 2, VariantConfig::algorithm3(2)) {
            let t = run.profile.total();
            assert_eq!((run.visited, t.channel_items), (63, t.edges_scanned));
        }
        let g = UniformBuilder::new(4_096, 8).seed(9).build();
        let a3 = VariantConfig::algorithm3(4);
        let configs = [a3, VariantConfig { batch: 1, ..a3 }];
        let [batched, unbatched] = configs.map(|c| bfs_deterministic(&g, 0, 8, c).profile.total());
        assert_eq!(batched.remote_atomic_ops, 0);
        assert!(batched.channel_batches * 8 < batched.channel_items);
        assert_eq!(unbatched.channel_batches, unbatched.channel_items);
        let shared = VariantConfig::algorithm2_multisocket(4);
        let shared = bfs_deterministic(&g, 0, 8, shared).profile.total();
        assert!(shared.remote_atomic_ops > 0 && shared.channel_items == 0);
    }

    #[test]
    fn busy_level_drains_every_hop_it_sends() {
        // No thread drains while sockets scan: the busiest thread sends
        // more than 3 × `CHANNEL_CAPACITY` hops in one level, and phase 2
        // claims every hop sent.
        let g = UniformBuilder::new(1 << 14, 8).seed(14).build();
        let run = bfs(&g, 0, 4, VariantConfig::algorithm3(4));
        validate_bfs_tree(&g, 0, &run.parents).unwrap();
        let levels = run.profile.levels.iter();
        let busiest = levels.flat_map(|l| &l.threads).map(|t| t.channel_items);
        assert!(busiest.max().unwrap() > 3 * CHANNEL_CAPACITY as u64);
        let total = run.profile.total();
        assert_eq!(total.channel_drained, total.channel_items);
    }

    #[test]
    fn deterministic_executor_is_repeatable_and_balanced() {
        let g = UniformBuilder::new(1 << 12, 8).seed(3).build();
        let a = bfs_deterministic(&g, 0, 16, VariantConfig::algorithm3(4));
        let b = bfs_deterministic(&g, 0, 16, VariantConfig::algorithm3(4));
        assert_eq!(
            (a.parents, a.profile, a.seconds),
            (b.parents, b.profile, 0.0)
        );
        let run = bfs_deterministic(&g, 0, 8, VariantConfig::algorithm2());
        let levels = run.profile.levels.iter();
        let busiest = levels.max_by_key(|l| l.total().edges_scanned).unwrap();
        let edges: Vec<u64> = busiest.threads.iter().map(|t| t.edges_scanned).collect();
        let (min, max) = (edges.iter().min().unwrap(), edges.iter().max().unwrap());
        assert!(*min > 0 && *max < 3 * min, "imbalance {max}/{min}");
    }
}
