//! Instrumentation: operation counting shared by every algorithm variant.
//!
//! Counters are plain (thread-local) integers — counting must not perturb
//! what is being counted, so there are no atomics on the hot path. Each
//! worker accumulates a [`ThreadCounts`] per BFS level and deposits its
//! series once at the end of the run; [`Recorder`] assembles the per-level
//! × per-thread [`WorkProfile`] the machine model consumes, and
//! [`BfsStats`] summarizes a run for humans.

use mcbfs_machine::profile::{LevelProfile, ThreadCounts, WorkProfile};
use mcbfs_sync::ticket::TicketLock;
use serde::{Deserialize, Serialize};

/// Human-facing summary of one BFS execution.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BfsStats {
    /// Wall-clock seconds (native executor) or predicted seconds (model).
    pub seconds: f64,
    /// Edges traversed (`ma` — scanned adjacency entries of visited
    /// vertices), the numerator of the paper's rate metric.
    pub edges_traversed: u64,
    /// Vertices reached, including the root.
    pub vertices_visited: u64,
    /// BFS levels executed.
    pub levels: u32,
    /// Worker threads used.
    pub threads: usize,
    /// Socket groups used.
    pub sockets: usize,
    /// Aggregate operation counts over the whole run.
    pub totals: ThreadCounts,
    /// Vertices per hop depth (`depth_histogram[d]` = vertices at depth
    /// `d`), always reported in the *original* vertex labelling. Invariant
    /// under cache-locality reordering — two runs of the same search on
    /// differently-labelled copies of one graph must produce identical
    /// histograms, which CI asserts for `--reorder`.
    pub depth_histogram: Vec<u64>,
}

impl BfsStats {
    /// Edges per second — the unit of every figure in the paper.
    ///
    /// Model runs on trivial graphs can predict a duration below the
    /// clock's resolution; the elapsed time is clamped to one nanosecond so
    /// the rate stays finite instead of collapsing to zero (or dividing by
    /// zero).
    pub fn edges_per_second(&self) -> f64 {
        self.edges_traversed as f64 / self.seconds.max(1e-9)
    }

    /// Millions of edges per second (the paper's "ME/s").
    pub fn me_per_s(&self) -> f64 {
        self.edges_per_second() / 1e6
    }
}

/// Collects per-thread level series and assembles a [`WorkProfile`].
pub struct Recorder {
    threads: usize,
    sockets: usize,
    barriers_per_level: u32,
    deposits: TicketLock<Vec<(usize, Vec<ThreadCounts>)>>,
}

impl Recorder {
    /// A recorder for `threads` workers grouped into `sockets`, where each
    /// level performs `barriers_per_level` barrier episodes.
    pub fn new(threads: usize, sockets: usize, barriers_per_level: u32) -> Self {
        Self {
            threads,
            sockets,
            barriers_per_level,
            deposits: TicketLock::new(Vec::new()),
        }
    }

    /// Deposits thread `tid`'s per-level count series (called once per
    /// thread, at the end of the parallel region).
    pub fn deposit(&self, tid: usize, series: Vec<ThreadCounts>) {
        self.deposits.lock().push((tid, series));
    }

    /// Assembles the profile. `num_vertices`, `visited_bytes` and
    /// `pipelined` describe the variant's working-set structure for the
    /// cost model; `edges_traversed` is the run's `ma`.
    pub fn into_profile(
        self,
        num_vertices: u64,
        visited_bytes: u64,
        pipelined: bool,
        edges_traversed: u64,
    ) -> WorkProfile {
        let (threads, sockets) = (self.threads, self.sockets);
        WorkProfile {
            levels: self.into_levels(),
            threads,
            sockets,
            num_vertices,
            visited_bytes,
            pipelined,
            sharded_state: true,
            edges_traversed,
        }
    }

    /// The per-level, per-thread counts alone, for executors that fill in
    /// the rest of the profile themselves.
    pub fn into_levels(self) -> Vec<LevelProfile> {
        let deposits = self.deposits.into_inner();
        let num_levels = deposits.iter().map(|(_, s)| s.len()).max().unwrap_or(0);
        let mut levels: Vec<LevelProfile> = (0..num_levels)
            .map(|_| LevelProfile::new(self.threads, self.barriers_per_level))
            .collect();
        for (tid, series) in deposits {
            for (l, counts) in series.into_iter().enumerate() {
                levels[l].threads[tid] = counts;
            }
        }
        levels
    }
}

/// Derives a [`BfsStats`] from a finished profile and measured time.
///
/// `depth_histogram` is read off the per-level claim counts: level `L`'s
/// `parent_writes` are exactly the vertices at depth `L + 1` (every
/// executor counts successful claims only), the root is depth 0 and the
/// last level claims none, so the histogram is `[1, claims(0), claims(1),
/// …]` cut at the first zero. Counts do not depend on labels, so a
/// reordered run needs no remapping. `vertices_visited` is the executor's
/// own count (of the final parent array, in the level and hybrid
/// executors), so `sum(depth_histogram) == vertices_visited` is a check.
pub fn stats_from_profile(profile: &WorkProfile, seconds: f64, vertices_visited: u64) -> BfsStats {
    let claims = profile
        .levels
        .iter()
        .map(|level| level.total().parent_writes);
    let depth_histogram: Vec<u64> = std::iter::once(1)
        .chain(claims.take_while(|&c| c > 0))
        .collect();
    debug_assert_eq!(depth_histogram.iter().sum::<u64>(), vertices_visited);
    BfsStats {
        seconds,
        edges_traversed: profile.edges_traversed,
        vertices_visited,
        levels: profile.num_levels() as u32,
        threads: profile.threads,
        sockets: profile.sockets,
        totals: profile.total(),
        depth_histogram,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_rate_math() {
        let s = BfsStats {
            seconds: 2.0,
            edges_traversed: 10_000_000,
            vertices_visited: 100,
            levels: 3,
            threads: 4,
            sockets: 1,
            totals: ThreadCounts::default(),
            depth_histogram: Vec::new(),
        };
        assert_eq!(s.edges_per_second(), 5_000_000.0);
        assert_eq!(s.me_per_s(), 5.0);
    }

    #[test]
    fn zero_seconds_rate_clamps_to_min_tick() {
        // A zero-duration run (model prediction under the clock tick) must
        // not report a zero rate — the duration is clamped to 1 ns.
        let s = BfsStats {
            seconds: 0.0,
            edges_traversed: 5,
            vertices_visited: 1,
            levels: 0,
            threads: 1,
            sockets: 1,
            totals: ThreadCounts::default(),
            depth_histogram: Vec::new(),
        };
        assert!(s.edges_per_second().is_finite());
        assert_eq!(s.edges_per_second(), 5.0 / 1e-9);
    }

    #[test]
    fn recorder_assembles_profile_by_tid_and_level() {
        let rec = Recorder::new(2, 1, 1);
        let c = |x: u64| ThreadCounts {
            edges_scanned: x,
            ..Default::default()
        };
        rec.deposit(1, vec![c(10), c(20)]);
        rec.deposit(0, vec![c(1)]); // thread 0 went idle after level 0
        let profile = rec.into_profile(100, 13, true, 31);
        assert_eq!(profile.num_levels(), 2);
        assert_eq!(profile.levels[0].threads[0].edges_scanned, 1);
        assert_eq!(profile.levels[0].threads[1].edges_scanned, 10);
        assert_eq!(profile.levels[1].threads[0].edges_scanned, 0);
        assert_eq!(profile.levels[1].threads[1].edges_scanned, 20);
        assert_eq!(profile.edges_traversed, 31);
        assert!(profile.pipelined);
    }

    #[test]
    fn recorder_with_no_deposits_is_empty() {
        let rec = Recorder::new(3, 1, 2);
        let profile = rec.into_profile(10, 2, false, 0);
        assert_eq!(profile.num_levels(), 0);
        assert_eq!(profile.threads, 3);
    }

    #[test]
    fn stats_from_profile_copies_fields() {
        let rec = Recorder::new(1, 1, 1);
        let level = |edges_scanned, parent_writes| ThreadCounts {
            edges_scanned,
            parent_writes,
            ..Default::default()
        };
        rec.deposit(0, vec![level(3, 3), level(4, 0)]);
        let profile = rec.into_profile(10, 2, true, 7);
        let stats = stats_from_profile(&profile, 0.5, 4);
        assert_eq!(stats.levels, 2);
        assert_eq!(stats.totals.edges_scanned, 7);
        assert_eq!(stats.me_per_s(), 14.0 / 1e6);
        // The root, then each level's claims; the last level claims none.
        assert_eq!(stats.depth_histogram, vec![1, 3]);
    }
}
