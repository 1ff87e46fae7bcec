//! Operation-count profiles: the interface between the instrumented BFS
//! algorithms and the machine cost model.
//!
//! The level-synchronous structure of the algorithm makes its performance
//! analyzable: total time is the sum over levels of the *slowest thread's*
//! work plus the barrier costs. A [`WorkProfile`] records, per level and
//! per thread, the counts of each operation class the model knows how to
//! price (bitmap probes, `lock`-prefixed atomics, edge scans, queue and
//! channel traffic).

use serde::{Deserialize, Serialize};

/// Traversal direction of one BFS level. The paper's Algorithms 1–3 are
/// strictly [`Direction::TopDown`]; the direction-optimizing extension
/// switches dense middle levels to [`Direction::BottomUp`], and tags each
/// level so the heuristic's decisions are visible in profiles and reports.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum Direction {
    /// Scan edges out of the frontier, claiming unvisited neighbours.
    #[default]
    TopDown,
    /// Scan unvisited vertices, searching their adjacency for a frontier
    /// member and stopping at the first hit.
    BottomUp,
}

impl Direction {
    /// One-letter tag used in compact per-level direction strings ("TTBBT").
    pub fn letter(self) -> char {
        match self {
            Direction::TopDown => 'T',
            Direction::BottomUp => 'B',
        }
    }
}

/// Operation counts for one thread within one BFS level.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ThreadCounts {
    /// Vertices dequeued from the current frontier by this thread.
    pub vertices_scanned: u64,
    /// Adjacency entries examined (edge traversals).
    pub edges_scanned: u64,
    /// Plain (non-atomic) bitmap probes.
    pub bitmap_reads: u64,
    /// Bitmap probes that targeted state homed on a *different* socket
    /// (only possible when the visited structure is shared, not sharded);
    /// these pay remote latency and pipeline poorly under invalidations.
    pub remote_bitmap_reads: u64,
    /// `lock`-prefixed read-modify-writes issued (bitmap fetch-or,
    /// queue-cursor fetch-add, …).
    pub atomic_ops: u64,
    /// Atomics that targeted state owned by a *different* socket — these
    /// pay the cross-socket coherence penalty of Fig. 3.
    pub remote_atomic_ops: u64,
    /// Parent-array writes (random stores).
    pub parent_writes: u64,
    /// Vertices enqueued into the local next-frontier.
    pub queue_pushes: u64,
    /// Tuples pushed into inter-socket channels.
    pub channel_items: u64,
    /// Channel batch operations (lock acquisitions on a channel endpoint).
    pub channel_batches: u64,
    /// Tuples drained from this socket's incoming channels.
    pub channel_drained: u64,
    /// Adjacency entries *not* examined because a bottom-up scan
    /// early-exited at the first frontier parent. Work avoided, not work
    /// done — excluded from [`ThreadCounts::total_ops`] and priced at zero
    /// by the cost model; reported so the direction-optimizing saving is
    /// visible next to `edges_scanned`.
    pub edges_skipped: u64,
}

impl ThreadCounts {
    /// Component-wise accumulation.
    pub fn add(&mut self, other: &ThreadCounts) {
        self.vertices_scanned += other.vertices_scanned;
        self.edges_scanned += other.edges_scanned;
        self.bitmap_reads += other.bitmap_reads;
        self.remote_bitmap_reads += other.remote_bitmap_reads;
        self.atomic_ops += other.atomic_ops;
        self.remote_atomic_ops += other.remote_atomic_ops;
        self.parent_writes += other.parent_writes;
        self.queue_pushes += other.queue_pushes;
        self.channel_items += other.channel_items;
        self.channel_batches += other.channel_batches;
        self.channel_drained += other.channel_drained;
        self.edges_skipped += other.edges_skipped;
    }

    /// Sum of all counted operations (sanity/diagnostics).
    pub fn total_ops(&self) -> u64 {
        self.vertices_scanned
            + self.edges_scanned
            + self.bitmap_reads
            + self.atomic_ops
            + self.parent_writes
            + self.queue_pushes
            + self.channel_items
            + self.channel_drained
    }
}

/// Counts for every thread within one BFS level.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LevelProfile {
    /// Per-thread operation counts; index = thread id.
    pub threads: Vec<ThreadCounts>,
    /// Barrier episodes this level executed (2 for the two-phase
    /// multi-socket algorithm, 1 for single-socket).
    pub barriers: u32,
    /// Traversal direction this level ran in (`TopDown` for every
    /// non-hybrid algorithm).
    pub direction: Direction,
}

impl LevelProfile {
    /// A level profile for `threads` threads with zeroed counts.
    pub fn new(threads: usize, barriers: u32) -> Self {
        Self {
            threads: vec![ThreadCounts::default(); threads],
            barriers,
            direction: Direction::TopDown,
        }
    }

    /// Aggregate counts over all threads.
    pub fn total(&self) -> ThreadCounts {
        let mut acc = ThreadCounts::default();
        for t in &self.threads {
            acc.add(t);
        }
        acc
    }
}

/// A complete per-level, per-thread profile of one BFS execution, together
/// with the structural facts the model needs to price it.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct WorkProfile {
    /// One entry per BFS level, in execution order.
    pub levels: Vec<LevelProfile>,
    /// Worker threads used.
    pub threads: usize,
    /// Socket groups used (1 for the single-socket algorithm).
    pub sockets: usize,
    /// Number of vertices in the graph (sizes the parent working set).
    pub num_vertices: u64,
    /// Bytes of the visited structure randomly probed per edge — `n/8` for
    /// the bitmap variants, `4n` when the parent array doubles as the
    /// visited marker (the no-bitmap ablation).
    pub visited_bytes: u64,
    /// Whether accesses are software-pipelined (prefetch batches in
    /// flight); the naive Algorithm 1 variant is not.
    pub pipelined: bool,
    /// Whether the visited structure is sharded per socket (Algorithm 3)
    /// rather than shared by all sockets; sharded state is probed locally.
    pub sharded_state: bool,
    /// Total edges traversed (`ma` in the paper's rate definition).
    pub edges_traversed: u64,
}

impl WorkProfile {
    /// Aggregate counts over the whole run.
    pub fn total(&self) -> ThreadCounts {
        let mut acc = ThreadCounts::default();
        for l in &self.levels {
            acc.add(&l.total());
        }
        acc
    }

    /// Number of BFS levels.
    pub fn num_levels(&self) -> usize {
        self.levels.len()
    }

    /// Compact per-level direction string, e.g. `"TTBBBT"` — one letter per
    /// level in execution order. All-`T` for the non-hybrid algorithms.
    pub fn direction_string(&self) -> String {
        self.levels.iter().map(|l| l.direction.letter()).collect()
    }

    /// Per-level `(bitmap_reads, atomic_ops)` aggregates — exactly the two
    /// series plotted in the paper's Fig. 4.
    pub fn bitmap_vs_atomics_series(&self) -> Vec<(u64, u64)> {
        self.levels
            .iter()
            .map(|l| {
                let t = l.total();
                (t.bitmap_reads, t.atomic_ops)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_counts(x: u64) -> ThreadCounts {
        ThreadCounts {
            vertices_scanned: x,
            edges_scanned: 10 * x,
            bitmap_reads: 10 * x,
            remote_bitmap_reads: x / 2,
            atomic_ops: x,
            remote_atomic_ops: x / 2,
            parent_writes: x,
            queue_pushes: x,
            channel_items: x / 4,
            channel_batches: x / 16,
            channel_drained: x / 4,
            edges_skipped: 3 * x,
        }
    }

    #[test]
    fn thread_counts_add() {
        let mut a = sample_counts(8);
        a.add(&sample_counts(16));
        assert_eq!(a.vertices_scanned, 24);
        assert_eq!(a.edges_scanned, 240);
        assert_eq!(a.channel_batches, 1);
        assert_eq!(a.edges_skipped, 72);
    }

    #[test]
    fn edges_skipped_not_in_total_ops() {
        // Skipped edges are avoided work; only executed operations sum.
        let c = ThreadCounts {
            edges_skipped: 1_000,
            ..Default::default()
        };
        assert_eq!(c.total_ops(), 0);
    }

    #[test]
    fn direction_defaults_and_letters() {
        let l = LevelProfile::new(1, 1);
        assert_eq!(l.direction, Direction::TopDown);
        assert_eq!(Direction::TopDown.letter(), 'T');
        assert_eq!(Direction::BottomUp.letter(), 'B');
    }

    #[test]
    fn direction_string_reflects_per_level_tags() {
        let mut p = WorkProfile {
            threads: 1,
            sockets: 1,
            num_vertices: 4,
            visited_bytes: 1,
            pipelined: true,
            sharded_state: true,
            edges_traversed: 0,
            levels: vec![LevelProfile::new(1, 1); 3],
        };
        p.levels[1].direction = Direction::BottomUp;
        assert_eq!(p.direction_string(), "TBT");
    }

    #[test]
    fn level_profile_total() {
        let mut l = LevelProfile::new(3, 2);
        l.threads[0] = sample_counts(4);
        l.threads[2] = sample_counts(8);
        assert_eq!(l.total().edges_scanned, 120);
        assert_eq!(l.barriers, 2);
    }

    #[test]
    fn work_profile_aggregates() {
        let mut p = WorkProfile {
            threads: 2,
            sockets: 1,
            num_vertices: 100,
            visited_bytes: 13,
            pipelined: true,
            sharded_state: true,
            edges_traversed: 0,
            levels: vec![],
        };
        for x in [2u64, 4, 8] {
            let mut l = LevelProfile::new(2, 1);
            l.threads[0] = sample_counts(x);
            p.levels.push(l);
        }
        assert_eq!(p.num_levels(), 3);
        assert_eq!(p.total().vertices_scanned, 14);
        let series = p.bitmap_vs_atomics_series();
        assert_eq!(series, vec![(20, 2), (40, 4), (80, 8)]);
    }

    #[test]
    fn total_ops_sums_components() {
        let c = sample_counts(16);
        assert_eq!(c.total_ops(), 16 + 160 + 160 + 16 + 16 + 16 + 4 + 4);
    }
}
