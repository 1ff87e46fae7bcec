//! The in-process sharded engine: one process simulating the cluster.
//!
//! [`ShardedEngine`] is the sharded level loop ([`crate::exchange`]) over
//! in-process links: each link hands its frames straight to the worker's
//! own frame handler instead of a socket, and **encodes every exchange
//! frame with [`swire::encode`]**, the encoder the live router and workers
//! write with, to count its bytes. That makes its
//! per-level frame/byte accounting the model's prediction of the live
//! cluster's native exchange volume: same queries, same shard count ⇒
//! the same code moves byte-identical frames ⇒ identical counts (the
//! acceptance check behind `fig_shard_scaling` and the CI cluster
//! pipeline).
//!
//! Execution is mode-polymorphic like `QueryEngine`: native mode times
//! the in-process loop on the wall clock; model mode prices each level
//! as the slowest shard's scan (edges × the sequential-scan cost) plus
//! the exchange term ([`MachineModel::exchange_seconds`] over the
//! level's frames and bytes) — the 1D-decomposition cost shape of
//! distributed BFS (Buluç & Madduri), with the router as the only link.
//!
//! The offline [`ShardedEngine::execute`] is `mcbfs_query::run_batch` on
//! one dispatcher, the driver `QueryEngine::execute` uses too: waves run
//! one after another, a query's latency is its queue time plus the wave
//! seconds up to and including its own wave, and the makespan is the
//! largest latency.

use crate::exchange::{bad_data, Cluster, ExchangeLog, ShardLink};
use crate::swire::{self, ShardFrame};
use crate::worker::{handle_frame, Wave};
use mcbfs_graph::csr::CsrGraph;
use mcbfs_graph::shard::CsrShard;
use mcbfs_machine::model::MachineModel;
use mcbfs_query::{run_batch, run_traced, Admitted, BatchReport, Query};
use mcbfs_serve::WaveExecutor;
use mcbfs_trace::RunMeta;
use std::io;

/// A multi-shard query engine running the cluster protocol in-process.
///
/// Implements [`WaveExecutor`], so `serve_with` can put a sharded
/// single-process server on the wire; the offline [`ShardedEngine::execute`]
/// serves a query list through the same driver as `QueryEngine::execute`.
pub struct ShardedEngine {
    shards: Vec<CsrShard>,
    max_batch: usize,
    /// `Some` prices levels on the machine model instead of the wall clock.
    model: Option<MachineModel>,
    trace: bool,
    cluster: Cluster,
}

impl ShardedEngine {
    /// Cuts `graph` into `shards` 1D ranges and builds an engine over them.
    pub fn new(graph: &CsrGraph, shards: usize) -> Self {
        let shards: Vec<CsrShard> = (0..shards.max(1))
            .map(|i| CsrShard::cut(graph, shards.max(1), i))
            .collect();
        let owned = shards.iter().map(CsrShard::owned_range).collect();
        Self {
            shards,
            max_batch: 64,
            model: None,
            trace: false,
            cluster: Cluster::new(graph.num_vertices() as u64, graph.num_edges() as u64, owned),
        }
    }

    /// Maximum queries per wave for [`ShardedEngine::execute`].
    pub fn max_batch(mut self, max_batch: usize) -> Self {
        self.max_batch = max_batch.clamp(1, 64);
        self
    }

    /// Switches to model mode: levels are priced as compute + exchange on
    /// `model` instead of the wall clock.
    pub fn model(mut self, model: MachineModel) -> Self {
        self.model = Some(model);
        self
    }

    /// Enables `mcbfs-trace` capture for [`ShardedEngine::execute`]: one
    /// `ShardExchange` span per level of every wave.
    pub fn traced(mut self, trace: bool) -> Self {
        self.trace = trace;
        self
    }

    /// Global vertex count.
    pub fn num_vertices(&self) -> u64 {
        self.cluster.n
    }

    /// Global directed edge count.
    pub fn num_edges(&self) -> u64 {
        self.cluster.m
    }

    /// The cumulative per-level exchange log (all waves so far).
    pub fn exchange_log(&self) -> ExchangeLog {
        self.cluster.exchange_log()
    }

    /// Offline counterpart of `QueryEngine::execute`: [`run_batch`] chunks
    /// `queries` into waves of `max_batch` and serves them one after
    /// another through the sharded level loop, so a query's latency is the
    /// running sum of wave seconds up to its own wave. Outcomes come back
    /// in submission order.
    pub fn execute(&self, queries: &[Query]) -> BatchReport {
        let meta = self.trace.then(|| RunMeta {
            label: format!(
                "n={} m={} queries={}",
                self.cluster.n,
                self.cluster.m,
                queries.len()
            ),
            algorithm: format!("sharded-msbfs:{}x{}", self.max_batch, self.shards.len()),
            mode: if self.model.is_some() {
                "model"
            } else {
                "native"
            }
            .to_string(),
            threads: 1,
        });
        run_traced(meta, || {
            run_batch(queries, self.max_batch, 1, |wave| self.execute_wave(wave))
        })
    }
}

/// An in-process link: each frame goes straight to the worker's own frame
/// handler over a shard held in memory. Only `exchange` and `merged`
/// frames are encoded, for the ledger's byte count (the length of
/// [`swire::encode`]'s output, as on a live link); the O(slots × n)
/// `wave_result` never is.
struct LocalLink<'s> {
    shard: &'s CsrShard,
    wave: Option<Wave<'s>>,
    reply: Option<ShardFrame>,
}

impl ShardLink for LocalLink<'_> {
    fn send(&mut self, frame: ShardFrame) -> io::Result<u64> {
        let len = exchange_len(&frame);
        self.reply = handle_frame(self.shard, &mut self.wave, frame);
        Ok(len)
    }

    fn recv(&mut self) -> io::Result<(ShardFrame, u64)> {
        let frame = self.reply.take().ok_or_else(|| {
            bad_data(format!(
                "shard {} rejected the previous frame",
                self.shard.index()
            ))
        })?;
        let len = exchange_len(&frame);
        Ok((frame, len))
    }
}

/// Encoded length of an `exchange` or `merged` frame; 0 for any other.
fn exchange_len(frame: &ShardFrame) -> u64 {
    match frame {
        ShardFrame::Exchange { .. } | ShardFrame::Merged { .. } => {
            swire::encode(frame).len() as u64
        }
        _ => 0,
    }
}

impl WaveExecutor for ShardedEngine {
    fn execute_wave(&self, wave: &[Admitted]) -> BatchReport {
        let mut links: Vec<LocalLink> = self
            .shards
            .iter()
            .map(|shard| LocalLink {
                shard,
                wave: None,
                reply: None,
            })
            .collect();
        self.cluster
            .execute_wave(&mut links, wave, self.model.as_ref())
            .expect("in-process shards answer every frame the loop sends")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exchange::LevelExchange;
    use mcbfs_gen::prelude::*;
    use mcbfs_graph::validate::{sequential_levels, validate_bfs_tree};
    use mcbfs_query::QueryResult;

    fn graph() -> CsrGraph {
        RmatBuilder::new(9, 8).seed(21).build()
    }

    fn ring(n: u32) -> CsrGraph {
        let edges: Vec<(u32, u32)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
        CsrGraph::from_edges_symmetric(n as usize, &edges)
    }

    #[test]
    fn sharded_depths_match_the_single_process_engine() {
        // Rings wrap discoveries across every shard boundary; 7 shards tile
        // 23 vertices unevenly.
        let cases = [
            (graph(), vec![0, 31, 62, 93, 124, 155]),
            (ring(23), vec![0, 5, 11]),
        ];
        for (g, roots) in cases {
            let queries: Vec<Query> = roots
                .iter()
                .flat_map(|&root| [Query::Distances { root }, Query::Parents { root }])
                .collect();
            let single = mcbfs_query::QueryEngine::new(&g)
                .threads(1)
                .execute(&queries);
            for shards in [1, 2, 4, 7] {
                let report = ShardedEngine::new(&g, shards).execute(&queries);
                assert_eq!(report.outcomes.len(), queries.len());
                for (a, b) in single.outcomes.iter().zip(&report.outcomes) {
                    assert_eq!(a.result.depths(), b.result.depths(), "{shards} shards");
                    assert_eq!(a.edges, b.edges, "{shards} shards");
                    // One shard scans in the one-thread engine's order: one
                    // kernel, one tree.
                    if shards == 1 {
                        assert_eq!(a.result, b.result);
                    }
                }
            }
        }
    }

    #[test]
    fn parents_are_valid_bfs_trees() {
        // Disconnected: only the root's two-vertex island is reached.
        let islands = CsrGraph::from_edges_symmetric(100, &[(0, 1), (98, 99)]);
        // Rooted at the last vertex of the last shard.
        let uniform = UniformBuilder::new(1_001, 4).seed(23).build();
        let cases = [
            (graph(), 3, vec![0, 77]),
            (ring(16), 3, vec![4]),
            (islands, 4, vec![99]),
            (uniform, 3, vec![1_000]),
        ];
        for (g, shards, roots) in cases {
            let queries: Vec<Query> = roots.iter().map(|&root| Query::Parents { root }).collect();
            let report = ShardedEngine::new(&g, shards).execute(&queries);
            for o in &report.outcomes {
                let QueryResult::Parents { parents, depths } = &o.result else {
                    panic!("expected parents result");
                };
                let root = o.query.source();
                validate_bfs_tree(&g, root, parents).expect("valid tree");
                assert_eq!(depths, &sequential_levels(&g, root));
            }
        }
    }

    #[test]
    fn model_mode_is_deterministic_and_logs_exchange() {
        let g = graph();
        let queries: Vec<Query> = (0..8).map(|i| Query::Distances { root: i * 17 }).collect();
        let run = |_: u32| {
            let e = ShardedEngine::new(&g, 4).model(MachineModel::nehalem_ep());
            let report = e.execute(&queries);
            (report.seconds, e.exchange_log())
        };
        let (sec_a, log_a) = run(0);
        let (sec_b, log_b) = run(1);
        assert_eq!(sec_a, sec_b);
        assert!(sec_a > 0.0);
        assert_eq!(log_a, log_b);
        assert!(log_a.total_frames() > 0);
        assert!(log_a.total_bytes() > 0);
        // Every level moves 2 frames per shard (one up, one down), except
        // the final all-empty level which only pays the upward frames.
        let per_wave: Vec<&LevelExchange> = log_a.levels.iter().filter(|l| l.wave == 0).collect();
        let last = per_wave.last().unwrap();
        assert_eq!(last.frames, 4);
        for l in &per_wave[..per_wave.len() - 1] {
            assert_eq!(l.frames, 8, "level {}", l.level);
        }
    }

    #[test]
    fn latency_is_the_running_sum_of_wave_seconds() {
        let g = graph();
        let queries: Vec<Query> = (0..6).map(|i| Query::Distances { root: i * 29 }).collect();
        let report = ShardedEngine::new(&g, 3)
            .max_batch(2)
            .model(MachineModel::nehalem_ep())
            .execute(&queries);
        assert_eq!(report.waves.len(), 3);
        let mut clock = 0.0;
        let done: Vec<f64> = report
            .waves
            .iter()
            .map(|w| {
                clock += w.seconds;
                clock
            })
            .collect();
        for o in &report.outcomes {
            assert_eq!(o.latency_seconds, done[o.wave], "query {}", o.id);
        }
        let largest = report.outcomes.iter().map(|o| o.latency_seconds);
        assert_eq!(report.seconds, largest.fold(0.0, f64::max));
        assert!(done[0] < done[2]);
    }

    #[test]
    fn single_shard_routes_no_items() {
        let g = graph();
        let e = ShardedEngine::new(&g, 1).model(MachineModel::nehalem_ep());
        let _ = e.execute(&[Query::Distances { root: 0 }, Query::Distances { root: 9 }]);
        assert_eq!(e.exchange_log().total_items(), 0);
    }
}
