//! The front door: configure an algorithm, an executor and a thread count,
//! then run BFS.

use crate::algo::hybrid::ForcedDirection;
use crate::algo::level::{bfs, bfs_deterministic, VariantConfig};
use crate::algo::sequential::bfs_sequential;
use crate::instrument::{stats_from_profile, BfsStats};
use crate::observe;
use mcbfs_graph::csr::{CsrGraph, VertexId};
use mcbfs_graph::reorder::Reorder;
use mcbfs_machine::model::MachineModel;
use mcbfs_machine::profile::WorkProfile;
use mcbfs_trace::Trace;

/// Default seed of the [`Reorder::Random`] shuffle — fixed so a
/// `--reorder random` run is reproducible without extra flags.
pub const DEFAULT_REORDER_SEED: u64 = 0x5EED;

/// Which of the paper's algorithms to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algorithm {
    /// Single-threaded reference traversal.
    Sequential,
    /// Algorithm 1: locked shared queues, unconditional atomic claims.
    Simple,
    /// Algorithm 2: bitmap + test-then-set + chunked queues.
    SingleSocket,
    /// Algorithm 3: per-socket partitions and batched inter-socket
    /// channels.
    MultiSocket {
        /// Number of socket groups.
        sockets: usize,
    },
    /// Direction-optimizing extension: Algorithm 2's levels plus bottom-up
    /// sweep levels over the dense frontier bitmap, in the same level loop
    /// ([`VariantConfig::hybrid`]).
    Hybrid {
        /// Per-level direction policy (heuristic or forced).
        policy: ForcedDirection,
    },
}

impl Algorithm {
    /// The heuristic-driven hybrid.
    pub fn hybrid() -> Self {
        Algorithm::Hybrid {
            policy: ForcedDirection::Auto,
        }
    }

    /// The level loop's [`VariantConfig`]; `None` for the sequential
    /// search, which has an executor of its own.
    pub fn variant_config(&self) -> Option<VariantConfig> {
        match *self {
            Algorithm::Simple => Some(VariantConfig::algorithm1()),
            Algorithm::SingleSocket => Some(VariantConfig::algorithm2()),
            Algorithm::MultiSocket { sockets } => Some(VariantConfig::algorithm3(sockets)),
            Algorithm::Hybrid { policy } => Some(VariantConfig::hybrid(policy)),
            Algorithm::Sequential => None,
        }
    }
}

/// How to execute: real threads or the machine model.
#[derive(Debug, Clone)]
pub enum ExecMode {
    /// Real threads on this host; `stats.seconds` is wall-clock time.
    Native,
    /// Deterministic virtual execution priced by a machine model;
    /// `stats.seconds` is the model's prediction for that machine
    /// (boxed: the spec + params are much larger than the unit variant).
    Model(Box<MachineModel>),
}

impl ExecMode {
    /// Convenience constructor for model mode.
    pub fn model(model: MachineModel) -> Self {
        ExecMode::Model(Box::new(model))
    }
}

/// Result of one BFS run.
#[derive(Debug, Clone)]
pub struct BfsResult {
    /// Parent array (`parents[root] == root`; unreached = `UNVISITED`).
    pub parents: Vec<VertexId>,
    /// Summary statistics (timing per the [`ExecMode`]).
    pub stats: BfsStats,
    /// The full per-level, per-thread operation profile.
    pub profile: WorkProfile,
    /// Collected event trace when the runner was [`BfsRunner::traced`] and
    /// the `trace` feature is compiled in; `None` otherwise.
    pub trace: Option<Trace>,
}

/// Builder-style runner.
///
/// # Examples
///
/// ```
/// use mcbfs_core::runner::{Algorithm, BfsRunner};
/// use mcbfs_gen::prelude::*;
///
/// let g = UniformBuilder::new(1_000, 8).seed(5).build();
/// let result = BfsRunner::new(&g)
///     .algorithm(Algorithm::MultiSocket { sockets: 2 })
///     .threads(4)
///     .run(0);
/// assert_eq!(result.parents[0], 0);
/// assert!(result.stats.edges_traversed > 0);
/// ```
pub struct BfsRunner<'g> {
    graph: &'g CsrGraph,
    algorithm: Algorithm,
    threads: usize,
    mode: ExecMode,
    trace: bool,
    reorder: Reorder,
    reorder_seed: u64,
}

impl<'g> BfsRunner<'g> {
    /// A runner for `graph` with defaults: Algorithm 2, one thread, native
    /// execution, no tracing, no reordering.
    pub fn new(graph: &'g CsrGraph) -> Self {
        Self {
            graph,
            algorithm: Algorithm::SingleSocket,
            threads: 1,
            mode: ExecMode::Native,
            trace: false,
            reorder: Reorder::None,
            reorder_seed: DEFAULT_REORDER_SEED,
        }
    }

    /// Selects the algorithm.
    pub fn algorithm(mut self, algorithm: Algorithm) -> Self {
        self.algorithm = algorithm;
        self
    }

    /// Sets the worker-thread count (virtual threads in model mode).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Selects the execution mode.
    pub fn mode(mut self, mode: ExecMode) -> Self {
        self.mode = mode;
        self
    }

    /// Enables event tracing: the run opens an `mcbfs-trace` session and
    /// [`BfsResult::trace`] carries the collected events (None when the
    /// `trace` feature is compiled out).
    pub fn traced(mut self, trace: bool) -> Self {
        self.trace = trace;
        self
    }

    /// Selects a cache-locality vertex reordering. The runner relabels the
    /// graph through the ordering's permutation, runs the search on the
    /// relabelled copy (where the hot visit state is packed into few cache
    /// lines), and maps parents back to the *original* vertex ids — so
    /// [`BfsResult::parents`] is a valid BFS tree of the input graph with
    /// depths identical to an unreordered run, whatever the ordering.
    pub fn reorder(mut self, reorder: Reorder) -> Self {
        self.reorder = reorder;
        self
    }

    /// Seed of the [`Reorder::Random`] shuffle (default
    /// [`DEFAULT_REORDER_SEED`]; the other orderings are deterministic in
    /// the graph alone).
    pub fn reorder_seed(mut self, seed: u64) -> Self {
        self.reorder_seed = seed;
        self
    }

    /// Worker threads the selected algorithm will actually use.
    fn effective_threads(&self) -> usize {
        match self.algorithm {
            Algorithm::Sequential => 1,
            Algorithm::MultiSocket { sockets } => self.threads.max(sockets),
            _ => self.threads,
        }
    }

    fn algorithm_label(&self) -> String {
        match self.algorithm {
            Algorithm::Sequential => "sequential".to_string(),
            Algorithm::Simple => "simple".to_string(),
            Algorithm::SingleSocket => "single-socket".to_string(),
            Algorithm::MultiSocket { sockets } => format!("multi-socket:{sockets}"),
            Algorithm::Hybrid { policy } => format!(
                "hybrid:{}",
                match policy {
                    ForcedDirection::Auto => "auto",
                    ForcedDirection::TopDown => "td",
                    ForcedDirection::BottomUp => "bu",
                    ForcedDirection::Alternate => "alternate",
                }
            ),
        }
    }

    /// Runs BFS from `root` (an id in the *original* labelling — the
    /// reordering, if any, is an internal execution detail).
    pub fn run(&self, root: VertexId) -> BfsResult {
        if self.trace {
            let reorder_note = if self.reorder == Reorder::None {
                String::new()
            } else {
                format!(" reorder={}", self.reorder.name())
            };
            mcbfs_trace::start(mcbfs_trace::RunMeta {
                label: format!(
                    "n={} m={} root={root}{reorder_note}",
                    self.graph.num_vertices(),
                    self.graph.num_edges()
                ),
                algorithm: self.algorithm_label(),
                mode: match self.mode {
                    ExecMode::Native => "native".to_string(),
                    ExecMode::Model(_) => "model".to_string(),
                },
                threads: self.effective_threads(),
            });
        }
        // With a reordering selected, execute on the relabelled copy and
        // map the results back; the caller only ever sees original ids.
        let mut result = match self.reorder.permutation(self.graph, self.reorder_seed) {
            None => self.run_inner(self.graph, root),
            Some(permutation) => {
                let permuted = self.graph.permute(&permutation);
                let mut r = self.run_inner(&permuted, permutation.to_new(root));
                r.parents = permutation.map_parents_back(&r.parents);
                r
            }
        };
        if self.trace {
            mcbfs_trace::record_level_meta(observe::level_meta(&result.profile));
            result.trace = mcbfs_trace::finish();
        }
        result
    }

    fn run_inner(&self, graph: &CsrGraph, root: VertexId) -> BfsResult {
        let native = matches!(self.mode, ExecMode::Native);
        let threads = self.threads;
        let run = match self.algorithm.variant_config() {
            Some(config) if native => bfs(graph, root, threads, config),
            Some(config) => bfs_deterministic(graph, root, threads, config),
            None if native => bfs_sequential(graph, root),
            // The sequential search has no model of its own: model mode
            // prices Algorithm 2 on one thread.
            None => bfs_deterministic(graph, root, 1, VariantConfig::algorithm2()),
        };
        let seconds = match &self.mode {
            ExecMode::Native => run.seconds,
            ExecMode::Model(model) => {
                let prediction = model.predict(&run.profile);
                if self.trace {
                    // The modelled timeline goes through the same trace
                    // pipeline as native runs: one level span per virtual
                    // thread per level, idle tails as barrier waits.
                    observe::inject_model_timeline(&run.profile, &prediction.level_seconds);
                }
                prediction.seconds
            }
        };
        BfsResult {
            stats: stats_from_profile(&run.profile, seconds, run.visited),
            parents: run.parents,
            profile: run.profile,
            trace: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcbfs_gen::prelude::*;
    use mcbfs_graph::validate::{depth_histogram, depths_from_parents, validate_bfs_tree};

    fn graph() -> CsrGraph {
        UniformBuilder::new(2_000, 6).seed(77).build()
    }

    #[test]
    fn native_runner_all_algorithms() {
        let g = graph();
        for algo in [
            Algorithm::Sequential,
            Algorithm::Simple,
            Algorithm::SingleSocket,
            Algorithm::MultiSocket { sockets: 2 },
            Algorithm::hybrid(),
        ] {
            let r = BfsRunner::new(&g).algorithm(algo).threads(4).run(0);
            validate_bfs_tree(&g, 0, &r.parents).unwrap_or_else(|e| panic!("{algo:?}: {e}"));
            assert!(r.stats.seconds > 0.0);
            assert!(r.stats.me_per_s() > 0.0);
        }
    }

    #[test]
    fn model_runner_predicts_time() {
        let g = graph();
        let model = MachineModel::nehalem_ep();
        let r = BfsRunner::new(&g)
            .algorithm(Algorithm::MultiSocket { sockets: 2 })
            .threads(8)
            .mode(ExecMode::model(model))
            .run(0);
        validate_bfs_tree(&g, 0, &r.parents).unwrap();
        assert!(r.stats.seconds > 0.0);
        assert_eq!(r.stats.threads, 8);
        assert_eq!(r.stats.sockets, 2);
    }

    #[test]
    fn model_mode_speedup_shape() {
        // More model threads must predict faster execution (EP, Alg 2,
        // within one socket).
        let g = UniformBuilder::new(1 << 13, 8).seed(3).build();
        let model = MachineModel::nehalem_ep();
        let time = |threads| {
            BfsRunner::new(&g)
                .algorithm(Algorithm::SingleSocket)
                .threads(threads)
                .mode(ExecMode::model(model.clone()))
                .run(0)
                .stats
                .seconds
        };
        let t1 = time(1);
        let t4 = time(4);
        assert!(t4 < t1 / 2.0, "t1={t1:.5} t4={t4:.5}");
    }

    #[test]
    fn sequential_in_model_mode_uses_one_thread() {
        let g = graph();
        let r = BfsRunner::new(&g)
            .algorithm(Algorithm::Sequential)
            .threads(16)
            .mode(ExecMode::model(MachineModel::nehalem_ep()))
            .run(0);
        assert_eq!(r.stats.threads, 1);
    }

    #[test]
    fn zero_threads_clamped() {
        let g = graph();
        let r = BfsRunner::new(&g).threads(0).run(0);
        assert_eq!(r.stats.threads, 1);
    }

    #[test]
    fn depth_histogram_from_level_counts_matches_parent_depths() {
        // The histogram is read off the per-level claim counts; it must be
        // the one the parent array spells out, in every executor, with and
        // without a reordering, and sum to the independently counted
        // visited vertices.
        let graphs = [
            // Skewed and shallow, with a few vertices unreached from 17.
            (RmatBuilder::new(10, 8).seed(9).build(), 17),
            // Sparse and deeper (9 levels from 0).
            (UniformBuilder::new(1_500, 2).seed(4).build(), 0),
        ];
        let algorithms = [
            Algorithm::Sequential,
            Algorithm::Simple,
            Algorithm::SingleSocket,
            Algorithm::MultiSocket { sockets: 2 },
            Algorithm::hybrid(),
            Algorithm::Hybrid {
                policy: ForcedDirection::TopDown,
            },
            Algorithm::Hybrid {
                policy: ForcedDirection::BottomUp,
            },
            Algorithm::Hybrid {
                policy: ForcedDirection::Alternate,
            },
        ];
        let model = ExecMode::model(MachineModel::nehalem_ep());
        for (g, root) in &graphs {
            for algo in algorithms {
                for threads in [1, 4] {
                    for (mode_name, mode) in [("native", &ExecMode::Native), ("model", &model)] {
                        for reorder in [Reorder::None, Reorder::Degree] {
                            let r = BfsRunner::new(g)
                                .algorithm(algo)
                                .threads(threads)
                                .mode(mode.clone())
                                .reorder(reorder)
                                .run(*root);
                            let case = format!("{algo:?} x{threads} {mode_name} {reorder}");
                            let hist = &r.stats.depth_histogram;
                            assert_eq!(
                                *hist,
                                depth_histogram(&depths_from_parents(&r.parents)),
                                "{case}"
                            );
                            assert_eq!(hist[0], 1, "{case}"); // the root alone at depth 0
                            assert_eq!(
                                hist.iter().sum::<u64>(),
                                r.stats.vertices_visited,
                                "{case}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn reordered_runs_report_original_ids_and_identical_depths() {
        let g = RmatBuilder::new(10, 8).seed(9).build();
        let root = 17;
        let baseline = BfsRunner::new(&g).threads(2).run(root);
        for reorder in [Reorder::Degree, Reorder::Bfs, Reorder::Random] {
            for algo in [
                Algorithm::Sequential,
                Algorithm::SingleSocket,
                Algorithm::MultiSocket { sockets: 2 },
                Algorithm::hybrid(),
            ] {
                let r = BfsRunner::new(&g)
                    .algorithm(algo)
                    .threads(4)
                    .reorder(reorder)
                    .run(root);
                // Parents are in original ids and form a valid tree of the
                // original graph...
                validate_bfs_tree(&g, root, &r.parents)
                    .unwrap_or_else(|e| panic!("{reorder} {algo:?}: {e}"));
                // ...with depths bit-identical to the unreordered run.
                assert_eq!(
                    r.stats.depth_histogram, baseline.stats.depth_histogram,
                    "{reorder} {algo:?}"
                );
                assert_eq!(r.stats.vertices_visited, baseline.stats.vertices_visited);
            }
        }
    }

    #[test]
    fn reorder_random_seed_changes_layout_not_results() {
        let g = graph();
        let a = BfsRunner::new(&g)
            .reorder(Reorder::Random)
            .reorder_seed(1)
            .run(0);
        let b = BfsRunner::new(&g)
            .reorder(Reorder::Random)
            .reorder_seed(2)
            .run(0);
        assert_eq!(a.stats.depth_histogram, b.stats.depth_histogram);
        validate_bfs_tree(&g, 0, &a.parents).unwrap();
        validate_bfs_tree(&g, 0, &b.parents).unwrap();
    }

    #[test]
    fn hybrid_runner_in_both_modes() {
        let g = RmatBuilder::new(11, 8).seed(2).build();
        let native = BfsRunner::new(&g)
            .algorithm(Algorithm::hybrid())
            .threads(4)
            .run(0);
        validate_bfs_tree(&g, 0, &native.parents).unwrap();
        assert!(native.profile.direction_string().contains('B'));
        let modeled = BfsRunner::new(&g)
            .algorithm(Algorithm::hybrid())
            .threads(4)
            .mode(ExecMode::model(MachineModel::nehalem_ep()))
            .run(0);
        validate_bfs_tree(&g, 0, &modeled.parents).unwrap();
        assert!(modeled.stats.seconds > 0.0);
        assert_eq!(
            modeled.profile.direction_string(),
            native.profile.direction_string()
        );
    }
}
