//! The batched query engine: admit heterogeneous queries, execute in waves.
//!
//! Queries are sealed into waves of up to [`MAX_SOURCES`] by the
//! [`QueryBatcher`], then each wave runs the bit-parallel multi-source
//! kernel ([`crate::msbfs`]) — or falls back to the paper's single-search
//! algorithms for singleton waves, where MS-BFS has no sharing to exploit.
//! Wave dispatch generalizes `core::throughput`: with `sockets > 1`,
//! [`run_batch`] hands the waves round-robin to concurrent dispatchers,
//! each driving its waves on its own thread group — the multi-instance
//! regime of the paper's Fig. 10, with waves in place of whole independent
//! benchmark instances.
//!
//! Execution is mode-polymorphic like `BfsRunner`: native waves measure
//! wall-clock, model waves run the deterministic executor and price the
//! resulting profiles with a [`MachineModel`] — so a batched serving
//! experiment is exactly reproducible on this host.
//!
//! A query's answer costs what it asks. Every search's depth histogram and
//! TEPS numerator come from counts its kernel already keeps: the MS-BFS
//! per-slot tallies, or a singleton's per-level claim counts and m_f. A
//! point query (`stcon`/`reachable`) reads one depth — its target's, off
//! the wave's `seen` words or up the singleton's parent chain — so no
//! whole-array pass runs after its search; only map queries
//! (`distances`/`parents`) decode n-long rows.

use crate::batcher::{run_batch, run_traced, Admitted};
use crate::msbfs::{ms_bfs, ms_bfs_deterministic, MsBfsRun, Slot, SlotAnswer, MAX_SOURCES};
use mcbfs_core::algo::hybrid::ForcedDirection;
use mcbfs_core::runner::{Algorithm, BfsRunner, ExecMode};
use mcbfs_graph::csr::{CsrGraph, VertexId};
use mcbfs_graph::validate::{depth_in_tree, depths_from_parents};
use mcbfs_trace::{EventKind, SpanTimer, Trace};

/// One admitted query. `Default` because callers derive `Default` over
/// records that hold one (the benchmark's client outcome does).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Query {
    /// Full BFS tree from `root` (parents + depths).
    Parents {
        /// Search root.
        root: VertexId,
    },
    /// Hop distances from `root` only.
    Distances {
        /// Search root.
        root: VertexId,
    },
    /// Shortest-path length between `s` and `t`, if connected.
    StCon {
        /// One endpoint (the wave source).
        s: VertexId,
        /// The other endpoint.
        t: VertexId,
    },
    /// Boolean reachability from `from` to `to`.
    Reachable {
        /// Source endpoint (the wave source).
        from: VertexId,
        /// Destination endpoint.
        to: VertexId,
    },
}

impl Default for Query {
    fn default() -> Self {
        Query::Distances { root: 0 }
    }
}

impl Query {
    /// The vertex whose search answers this query (its wave-slot source).
    pub fn source(&self) -> VertexId {
        match *self {
            Query::Parents { root } | Query::Distances { root } => root,
            Query::StCon { s, .. } => s,
            Query::Reachable { from, .. } => from,
        }
    }

    /// The destination endpoint, for the point-to-point query kinds.
    pub fn target(&self) -> Option<VertexId> {
        match *self {
            Query::StCon { t, .. } => Some(t),
            Query::Reachable { to, .. } => Some(to),
            _ => None,
        }
    }

    /// Short kind tag used in stats output.
    pub fn kind_name(&self) -> &'static str {
        match self {
            Query::Parents { .. } => "parents",
            Query::Distances { .. } => "distances",
            Query::StCon { .. } => "stcon",
            Query::Reachable { .. } => "reachable",
        }
    }

    fn wants_parents(&self) -> bool {
        matches!(self, Query::Parents { .. })
    }

    /// The kernel slot answering this query: a point slot for the
    /// point-to-point kinds, a map slot otherwise. An in-process wave and
    /// a shard worker's both build their kernel from these.
    pub fn slot(&self) -> Slot {
        let source = self.source();
        match self.target() {
            Some(target) => Slot::Point { source, target },
            None => Slot::Map {
                source,
                parents: self.wants_parents(),
            },
        }
    }
}

/// The answer to one [`Query`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum QueryResult {
    /// BFS tree (`parents[root] == root`, unreached = `UNVISITED`).
    Parents {
        /// Parent array.
        parents: Vec<VertexId>,
        /// Hop distances (`u32::MAX` unreached).
        depths: Vec<u32>,
    },
    /// Hop distances (`u32::MAX` unreached).
    Distances {
        /// Hop distances (`u32::MAX` unreached).
        depths: Vec<u32>,
    },
    /// Shortest-path length, `None` when disconnected.
    StCon {
        /// Hop distance `s → t` if connected.
        distance: Option<u32>,
    },
    /// Whether the destination is reachable.
    Reachable {
        /// True when a path exists.
        reachable: bool,
    },
}

impl QueryResult {
    /// The depth array, for the kinds that return one.
    pub fn depths(&self) -> Option<&[u32]> {
        match self {
            QueryResult::Parents { depths, .. } | QueryResult::Distances { depths } => Some(depths),
            _ => None,
        }
    }
}

/// One finished query with its serving metrics.
#[derive(Clone, Debug)]
pub struct QueryOutcome {
    /// Admission ticket (submission index).
    pub id: u64,
    /// The query as admitted.
    pub query: Query,
    /// Its answer.
    pub result: QueryResult,
    /// Index of the wave that served it.
    pub wave: usize,
    /// Seconds from **submission** to this query's wave completing:
    /// `queue_seconds` plus the running sum of wave seconds on its
    /// dispatcher (kernel wall-clock native, predicted in model mode).
    pub latency_seconds: f64,
    /// Seconds spent queued in the batcher, submission to wave seal.
    pub queue_seconds: f64,
    /// Execution seconds of the wave that served this query.
    pub service_seconds: f64,
    /// TEPS numerator: adjacency entries of every vertex this search
    /// reached.
    pub edges: u64,
    /// Vertices per hop depth of this search.
    pub depth_histogram: Vec<u64>,
}

/// Per-wave execution record.
#[derive(Clone, Debug)]
pub struct WaveStats {
    /// Index in wave order.
    pub wave: usize,
    /// Queries served by this wave.
    pub queries: usize,
    /// BFS levels the wave executed.
    pub levels: usize,
    /// Execution seconds of this wave alone.
    pub seconds: f64,
    /// Sum of the wave's per-query TEPS numerators.
    pub edges: u64,
    /// True when the singleton fallback algorithm ran instead of MS-BFS.
    pub fallback: bool,
    /// Dispatch slot (socket group) that executed the wave.
    pub socket: usize,
}

/// Everything the engine knows after serving one batch.
#[derive(Debug, Default)]
pub struct BatchReport {
    /// Per-query outcomes in submission order.
    pub outcomes: Vec<QueryOutcome>,
    /// Per-wave execution records in wave order.
    pub waves: Vec<WaveStats>,
    /// Makespan of the whole batch: the largest per-query latency, so the
    /// slowest dispatcher's serial schedule, as in `core::throughput`.
    /// Natively it counts kernels and queue time, not admission, dispatcher
    /// start-up or result assembly. A one-wave report from an executor
    /// holds that wave's seconds.
    pub seconds: f64,
    /// Collected events when tracing was enabled (and compiled in).
    pub trace: Option<Trace>,
}

impl BatchReport {
    /// Sum of the per-query TEPS numerators.
    pub fn total_edges(&self) -> u64 {
        self.outcomes.iter().map(|o| o.edges).sum()
    }

    /// Aggregate serving rate: total reachable edges over makespan.
    pub fn aggregate_teps(&self) -> f64 {
        self.total_edges() as f64 / self.seconds.max(1e-9)
    }

    /// The nearest-rank `q`-quantile of per-query latency (0 ≤ q ≤ 1),
    /// seconds (see [`crate::stats::nearest_rank_quantile`]).
    pub fn latency_quantile(&self, q: f64) -> f64 {
        let lat: Vec<f64> = self.outcomes.iter().map(|o| o.latency_seconds).collect();
        crate::stats::nearest_rank_quantile(&lat, q)
    }
}

/// Builder-style batched query engine.
///
/// # Examples
///
/// ```
/// use mcbfs_gen::prelude::*;
/// use mcbfs_query::engine::{Query, QueryEngine, QueryResult};
///
/// let g = UniformBuilder::new(1_000, 8).seed(5).build();
/// let queries: Vec<Query> = (0..10).map(|i| Query::Distances { root: i * 7 }).collect();
/// let report = QueryEngine::new(&g).threads(2).execute(&queries);
/// assert_eq!(report.outcomes.len(), 10);
/// match &report.outcomes[0].result {
///     QueryResult::Distances { depths } => assert_eq!(depths[0], 0),
///     other => panic!("unexpected {other:?}"),
/// }
/// ```
pub struct QueryEngine<'g> {
    graph: &'g CsrGraph,
    threads: usize,
    max_batch: usize,
    sockets: usize,
    fallback: Algorithm,
    mode: ExecMode,
    trace: bool,
}

impl<'g> QueryEngine<'g> {
    /// An engine with defaults: 1 thread per wave, full-width batches,
    /// serial dispatch, hybrid singleton fallback, native execution, no
    /// tracing.
    pub fn new(graph: &'g CsrGraph) -> Self {
        Self {
            graph,
            threads: 1,
            max_batch: MAX_SOURCES,
            sockets: 1,
            fallback: Algorithm::hybrid(),
            mode: ExecMode::Native,
            trace: false,
        }
    }

    /// Worker threads per wave.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Maximum queries per wave (clamped to `1..=`[`MAX_SOURCES`]).
    pub fn max_batch(mut self, max_batch: usize) -> Self {
        self.max_batch = max_batch.clamp(1, MAX_SOURCES);
        self
    }

    /// Concurrent wave dispatchers (socket groups) for
    /// [`QueryEngine::execute`], each `threads` wide — the throughput-mode
    /// generalization. Waves go round-robin over the groups, and the
    /// slowest group sets the makespan. A served wave runs on the
    /// scheduler's thread, so this has no effect on serving.
    pub fn sockets(mut self, sockets: usize) -> Self {
        self.sockets = sockets.max(1);
        self
    }

    /// Algorithm for singleton waves, where MS-BFS has nothing to share
    /// (default: the direction-optimizing hybrid; `MultiSocket` is the
    /// other sensible choice).
    pub fn fallback(mut self, fallback: Algorithm) -> Self {
        self.fallback = fallback;
        self
    }

    /// Selects native or model execution.
    pub fn mode(mut self, mode: ExecMode) -> Self {
        self.mode = mode;
        self
    }

    /// Enables `mcbfs-trace` capture (`BatchAdmit`/`BatchExecute` spans plus
    /// the kernel's per-level spans).
    pub fn traced(mut self, trace: bool) -> Self {
        self.trace = trace;
        self
    }

    /// Serves one batch: [`run_batch`] admits `queries` and runs the sealed
    /// waves on `sockets` dispatchers through [`QueryEngine::execute_wave`];
    /// outcomes come back in submission order.
    pub fn execute(&self, queries: &[Query]) -> BatchReport {
        let meta = self.trace.then(|| mcbfs_trace::RunMeta {
            label: format!(
                "n={} m={} queries={}",
                self.graph.num_vertices(),
                self.graph.num_edges(),
                queries.len()
            ),
            algorithm: format!("batched-msbfs:{}", self.max_batch),
            mode: match self.mode {
                ExecMode::Native => "native".to_string(),
                ExecMode::Model(_) => "model".to_string(),
            },
            threads: self.threads,
        });
        run_traced(meta, || {
            run_batch(queries, self.max_batch, self.sockets, |wave| {
                self.execute_wave(wave)
            })
        })
    }

    /// Executes one sealed wave on the calling thread: the traversal
    /// (MS-BFS for 2+ queries, the fallback algorithm for singletons)
    /// inside a [`EventKind::BatchExecute`] span and the serving clock,
    /// then answers and statistics outside both. Each query's histogram
    /// and TEPS numerator come from its search's tallies and a point
    /// query's answer from its target's depth; only map queries decode
    /// rows (a singleton's from its parent array). The serving scheduler
    /// and the offline [`QueryEngine::execute`] both run it, so wire
    /// answers match offline answers by construction. Outcomes come back
    /// in wave order, each with its queue time (zero in model mode, which
    /// prices only the modelled schedule) and the wave's seconds as service
    /// time.
    pub fn execute_wave(&self, wave: &[Admitted]) -> BatchReport {
        let timer = SpanTimer::start();
        let (answers, levels, seconds) = if let [single] = wave {
            let query = single.query;
            let r = BfsRunner::new(self.graph)
                .algorithm(self.fallback)
                .threads(self.threads)
                .mode(self.mode.clone())
                .run(query.source());
            timer.finish(EventKind::BatchExecute, 1);
            let (levels, seconds) = (r.stats.levels as usize, r.stats.seconds);
            let answer = SlotAnswer {
                target_depth: query.target().and_then(|t| depth_in_tree(&r.parents, t)),
                depths: query
                    .target()
                    .is_none()
                    .then(|| depths_from_parents(&r.parents)),
                parents: query.wants_parents().then_some(r.parents),
                depth_histogram: r.stats.depth_histogram,
                edges: r.reached_edges,
            };
            (vec![answer], levels, seconds)
        } else {
            let slots: Vec<Slot> = wave.iter().map(|a| a.query.slot()).collect();
            let (graph, threads, auto) = (self.graph, self.threads, ForcedDirection::Auto);
            let raw = match &self.mode {
                ExecMode::Native => ms_bfs(graph, &slots, threads, auto),
                ExecMode::Model(_) => ms_bfs_deterministic(graph, &slots, threads, auto),
            };
            timer.finish(EventKind::BatchExecute, wave.len() as u64);
            let native_seconds = raw.seconds;
            let MsBfsRun {
                slots,
                profile,
                levels,
                ..
            } = raw.finish();
            let seconds = match &self.mode {
                ExecMode::Native => native_seconds,
                ExecMode::Model(model) => model.predict(&profile).seconds,
            };
            (slots, levels, seconds)
        };
        let modelled = matches!(self.mode, ExecMode::Model(_));
        let (outcomes, mut stats) = wave_outcomes(0, wave, answers, levels, seconds, modelled);
        stats.fallback = wave.len() == 1;
        BatchReport {
            outcomes,
            seconds: stats.seconds,
            waves: vec![stats],
            trace: None,
        }
    }
}

/// Projects one wave's per-slot answers onto its queries' results: slot
/// `s` of `answers` belongs to `wave[s]`, and holds its histogram, its TEPS
/// numerator, a point query's target depth, and the rows a map query asked
/// for. Every wave executor assembles its outcomes here — the engine's
/// kernels and the sharded cluster alike. Each outcome's service time is
/// the wave's `seconds`, and its latency that plus its admission queue
/// time, which is zero when `modelled` (a modelled wave prices only the
/// modelled schedule, not the wall-clock batcher queue); the
/// [`WaveStats`] record `levels` and `seconds` as given, on socket 0, not
/// a fallback.
///
/// # Panics
/// Panics when a map query's answer lacks a row it asked for.
pub fn wave_outcomes(
    index: usize,
    wave: &[Admitted],
    answers: Vec<SlotAnswer>,
    levels: usize,
    seconds: f64,
    modelled: bool,
) -> (Vec<QueryOutcome>, WaveStats) {
    let outcomes: Vec<QueryOutcome> = wave
        .iter()
        .zip(answers)
        .map(|(&Admitted { id, query, queued }, answer)| {
            let SlotAnswer {
                depth_histogram,
                edges,
                target_depth,
                depths,
                parents,
            } = answer;
            let row = "a map query's answer carries its depth row";
            let result = match query {
                Query::Parents { .. } => QueryResult::Parents {
                    parents: parents.expect("a parents query's answer carries its tree"),
                    depths: depths.expect(row),
                },
                Query::Distances { .. } => QueryResult::Distances {
                    depths: depths.expect(row),
                },
                Query::StCon { .. } => QueryResult::StCon {
                    distance: target_depth,
                },
                Query::Reachable { .. } => QueryResult::Reachable {
                    reachable: target_depth.is_some(),
                },
            };
            let queue_seconds = if modelled { 0.0 } else { queued.as_secs_f64() };
            QueryOutcome {
                id,
                query,
                result,
                wave: index,
                latency_seconds: queue_seconds + seconds,
                queue_seconds,
                service_seconds: seconds,
                edges,
                depth_histogram,
            }
        })
        .collect();
    let stats = WaveStats {
        wave: index,
        queries: wave.len(),
        levels,
        seconds,
        edges: outcomes.iter().map(|o| o.edges).sum(),
        fallback: false,
        socket: 0,
    };
    (outcomes, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcbfs_gen::prelude::*;
    use mcbfs_graph::validate::{sequential_levels, validate_bfs_tree};
    use mcbfs_machine::model::MachineModel;

    fn graph() -> CsrGraph {
        RmatBuilder::new(9, 8).seed(21).build()
    }

    #[test]
    fn heterogeneous_batch_answers_every_kind() {
        let g = graph();
        let levels0 = sequential_levels(&g, 0);
        let far = levels0
            .iter()
            .position(|&d| d != u32::MAX && d >= 2)
            .unwrap() as VertexId;
        let unreached = levels0
            .iter()
            .position(|&d| d == u32::MAX)
            .map(|v| v as VertexId);
        let mut queries = vec![
            Query::Parents { root: 0 },
            Query::Distances { root: 3 },
            Query::StCon { s: 0, t: far },
            Query::Reachable { from: 0, to: far },
        ];
        if let Some(u) = unreached {
            queries.push(Query::Reachable { from: 0, to: u });
        }
        let report = QueryEngine::new(&g).threads(2).execute(&queries);
        assert_eq!(report.outcomes.len(), queries.len());
        match &report.outcomes[0].result {
            QueryResult::Parents { parents, depths } => {
                validate_bfs_tree(&g, 0, parents).expect("valid tree");
                assert_eq!(depths, &levels0);
            }
            other => panic!("unexpected {other:?}"),
        }
        match &report.outcomes[1].result {
            QueryResult::Distances { depths } => assert_eq!(depths, &sequential_levels(&g, 3)),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(
            report.outcomes[2].result,
            QueryResult::StCon {
                distance: Some(levels0[far as usize]),
            }
        );
        assert_eq!(
            report.outcomes[3].result,
            QueryResult::Reachable { reachable: true }
        );
        if unreached.is_some() {
            assert_eq!(
                report.outcomes[4].result,
                QueryResult::Reachable { reachable: false }
            );
        }
        assert!(report.aggregate_teps() > 0.0);
        assert!(report.seconds > 0.0);
    }

    #[test]
    fn singleton_batch_uses_fallback() {
        let g = graph();
        let report = QueryEngine::new(&g)
            .threads(2)
            .execute(&[Query::Distances { root: 5 }]);
        assert_eq!(report.waves.len(), 1);
        assert!(report.waves[0].fallback);
        assert_eq!(
            report.outcomes[0].result.depths().unwrap(),
            &sequential_levels(&g, 5)[..]
        );
    }

    #[test]
    fn singleton_answers_come_from_the_runs_counts_under_every_fallback() {
        use mcbfs_core::algo::hybrid::ForcedDirection::*;
        use mcbfs_graph::validate::{depth_histogram, reachable_edges};
        let g = graph();
        let levels = sequential_levels(&g, 7);
        let unreached = levels.iter().position(|&d| d == u32::MAX).unwrap_or(0) as VertexId;
        let far = levels
            .iter()
            .enumerate()
            .max_by_key(|&(_, &d)| d.wrapping_add(1));
        let far = far.map(|(v, _)| v as VertexId).unwrap();
        let queries = [
            Query::StCon { s: 7, t: far },
            Query::StCon { s: 7, t: unreached },
            Query::Reachable { from: 7, to: 7 },
            Query::Distances { root: 7 },
        ];
        let fallbacks = [
            Algorithm::Sequential,
            Algorithm::Simple,
            Algorithm::SingleSocket,
            Algorithm::MultiSocket { sockets: 2 },
        ]
        .into_iter()
        .chain([Auto, TopDown, BottomUp, Alternate].map(|policy| Algorithm::Hybrid { policy }));
        for fallback in fallbacks {
            for mode in [
                ExecMode::Native,
                ExecMode::model(MachineModel::nehalem_ep()),
            ] {
                for threads in [1, 4] {
                    let engine = QueryEngine::new(&g)
                        .fallback(fallback)
                        .mode(mode.clone())
                        .threads(threads);
                    for query in queries {
                        let case = format!("{fallback:?} {mode:?} x{threads} {query:?}");
                        let o = &engine.execute(&[query]).outcomes[0];
                        assert_eq!(o.edges, reachable_edges(&g, &levels), "{case}");
                        assert_eq!(o.depth_histogram, depth_histogram(&levels), "{case}");
                        let depth = query.target().map(|t| levels[t as usize]);
                        let expected = match query {
                            Query::StCon { .. } => QueryResult::StCon {
                                distance: depth.filter(|&d| d != u32::MAX),
                            },
                            Query::Reachable { .. } => QueryResult::Reachable {
                                reachable: depth != Some(u32::MAX),
                            },
                            _ => QueryResult::Distances {
                                depths: levels.clone(),
                            },
                        };
                        assert_eq!(o.result, expected, "{case}");
                    }
                }
            }
        }
    }

    #[test]
    fn wave_splitting_respects_max_batch() {
        let g = graph();
        let queries: Vec<Query> = (0..10).map(|i| Query::Distances { root: i }).collect();
        let report = QueryEngine::new(&g).max_batch(4).execute(&queries);
        assert_eq!(
            report.waves.iter().map(|w| w.queries).collect::<Vec<_>>(),
            vec![4, 4, 2]
        );
        // The trailing singleton rule only applies to waves of exactly 1.
        assert!(report.waves.iter().all(|w| !w.fallback));
        // Outcomes come back in submission order regardless of wave.
        let ids: Vec<u64> = report.outcomes.iter().map(|o| o.id).collect();
        assert_eq!(ids, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn model_mode_is_deterministic_and_matches_native_depths() {
        let g = graph();
        let queries: Vec<Query> = (0..7).map(|i| Query::Distances { root: i * 31 }).collect();
        let model = || ExecMode::model(MachineModel::nehalem_ep());
        let native = QueryEngine::new(&g).threads(2).execute(&queries);
        let a = QueryEngine::new(&g)
            .threads(2)
            .mode(model())
            .execute(&queries);
        let b = QueryEngine::new(&g)
            .threads(2)
            .mode(model())
            .execute(&queries);
        assert_eq!(a.seconds, b.seconds);
        assert!(a.seconds > 0.0);
        for ((na, ma), mb) in native.outcomes.iter().zip(&a.outcomes).zip(&b.outcomes) {
            assert_eq!(ma.result, mb.result);
            assert_eq!(na.result.depths(), ma.result.depths());
            assert_eq!(ma.latency_seconds, mb.latency_seconds);
        }
    }

    #[test]
    fn multi_socket_dispatch_serves_all_waves() {
        let g = graph();
        let queries: Vec<Query> = (0..12).map(|i| Query::Distances { root: i * 17 }).collect();
        let report = QueryEngine::new(&g)
            .max_batch(3)
            .sockets(2)
            .execute(&queries);
        assert_eq!(report.waves.len(), 4);
        assert_eq!(report.outcomes.len(), 12);
        for o in &report.outcomes {
            assert_eq!(
                o.result.depths().unwrap(),
                &sequential_levels(&g, o.query.source())[..],
                "query {:?}",
                o.query
            );
            assert!(o.latency_seconds > 0.0 && o.latency_seconds <= report.seconds + 1e-9);
        }
        // Model-mode round-robin: slowest socket group bounds the makespan.
        let m = QueryEngine::new(&g)
            .max_batch(3)
            .sockets(2)
            .mode(ExecMode::model(MachineModel::nehalem_ep()))
            .execute(&queries);
        let per_socket: Vec<f64> = (0..2)
            .map(|s| {
                m.waves
                    .iter()
                    .filter(|w| w.socket == s)
                    .map(|w| w.seconds)
                    .sum()
            })
            .collect();
        let slowest = per_socket.iter().fold(0.0f64, |a, &b| a.max(b));
        assert!((m.seconds - slowest).abs() < 1e-12);
    }

    #[test]
    fn latency_quantiles_and_empty_batch() {
        let g = graph();
        let empty = QueryEngine::new(&g).execute(&[]);
        assert_eq!(empty.outcomes.len(), 0);
        assert_eq!(empty.latency_quantile(0.5), 0.0);
        assert_eq!(empty.aggregate_teps(), 0.0);

        let queries: Vec<Query> = (0..5).map(|i| Query::Distances { root: i }).collect();
        let report = QueryEngine::new(&g).max_batch(2).execute(&queries);
        let p0 = report.latency_quantile(0.0);
        let p100 = report.latency_quantile(1.0);
        assert!(p0 > 0.0 && p0 <= report.latency_quantile(0.5));
        assert!(report.latency_quantile(0.5) <= p100);
        assert!(p100 <= report.seconds + 1e-9);
    }
}
