//! Multi-instance throughput mode (the paper's Fig. 10).
//!
//! "We run a single BFS per socket and run multiple instances of the
//! algorithm on different graphs on different sockets. This is
//! representative of the SSCA#2 benchmarks." Each instance is an
//! independent Algorithm 2 search confined to one socket's cores; the
//! metric is the aggregate edges/second over all instances.

use crate::algo::level::{bfs, bfs_deterministic, VariantConfig};
use mcbfs_graph::csr::{CsrGraph, VertexId};
use mcbfs_machine::model::MachineModel;
use mcbfs_sync::pool::scoped_run;
use mcbfs_sync::ticket::TicketLock;
use std::time::Instant;

/// Aggregate result of a throughput run.
#[derive(Debug, Clone, PartialEq)]
pub struct ThroughputStats {
    /// Number of concurrent BFS instances (one per socket).
    pub instances: usize,
    /// Threads each instance used.
    pub threads_per_instance: usize,
    /// Per-instance edges traversed.
    pub edges_per_instance: Vec<u64>,
    /// Wall-clock (native) or predicted (model) seconds for the whole set.
    pub seconds: f64,
}

impl ThroughputStats {
    /// Aggregate processing rate over all instances, edges/second.
    pub fn aggregate_edges_per_second(&self) -> f64 {
        if self.seconds > 0.0 {
            self.edges_per_instance.iter().sum::<u64>() as f64 / self.seconds
        } else {
            0.0
        }
    }
}

/// Runs one independent BFS per graph concurrently (native threads),
/// `threads_per_instance` workers each, and reports aggregate throughput.
pub fn throughput_native(
    graphs: &[CsrGraph],
    roots: &[VertexId],
    threads_per_instance: usize,
) -> ThroughputStats {
    assert_eq!(graphs.len(), roots.len(), "one root per graph");
    assert!(!graphs.is_empty(), "need at least one instance");
    let edges: TicketLock<Vec<(usize, u64)>> = TicketLock::new(Vec::new());
    let start = Instant::now();
    scoped_run(graphs.len(), |instance| {
        let run = bfs(
            &graphs[instance],
            roots[instance],
            threads_per_instance,
            VariantConfig::algorithm2(),
        );
        edges.lock().push((instance, run.profile.edges_traversed));
    });
    let seconds = start.elapsed().as_secs_f64();
    let mut pairs = edges.into_inner();
    pairs.sort_unstable_by_key(|&(i, _)| i);
    ThroughputStats {
        instances: graphs.len(),
        threads_per_instance,
        edges_per_instance: pairs.into_iter().map(|(_, e)| e).collect(),
        seconds,
    }
}

/// Model-mode equivalent: each instance is priced independently on its own
/// socket (the paper's point is exactly that the sockets don't interfere),
/// and the set finishes when the slowest instance does.
pub fn throughput_model(
    graphs: &[CsrGraph],
    roots: &[VertexId],
    threads_per_instance: usize,
    model: &MachineModel,
) -> ThroughputStats {
    assert_eq!(graphs.len(), roots.len(), "one root per graph");
    assert!(!graphs.is_empty(), "need at least one instance");
    let mut edges = Vec::with_capacity(graphs.len());
    let mut slowest: f64 = 0.0;
    for (g, &r) in graphs.iter().zip(roots) {
        let run = bfs_deterministic(g, r, threads_per_instance, VariantConfig::algorithm2());
        let pred = model.predict(&run.profile);
        edges.push(run.profile.edges_traversed);
        slowest = slowest.max(pred.seconds);
    }
    ThroughputStats {
        instances: graphs.len(),
        threads_per_instance,
        edges_per_instance: edges,
        seconds: slowest,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcbfs_gen::prelude::*;

    fn graphs(k: usize) -> (Vec<CsrGraph>, Vec<VertexId>) {
        let gs: Vec<_> = (0..k)
            .map(|i| UniformBuilder::new(1_000, 6).seed(100 + i as u64).build())
            .collect();
        (gs, vec![0; k])
    }

    #[test]
    fn native_throughput_counts_all_instances() {
        let (gs, roots) = graphs(3);
        let t = throughput_native(&gs, &roots, 2);
        assert_eq!(t.instances, 3);
        assert_eq!(t.edges_per_instance.len(), 3);
        assert!(t.edges_per_instance.iter().all(|&e| e > 0));
        assert!(t.aggregate_edges_per_second() > 0.0);
    }

    #[test]
    fn model_throughput_scales_with_instances() {
        // Independent sockets: aggregate rate grows close to linearly with
        // the instance count.
        let model = MachineModel::nehalem_ex();
        let (g1, r1) = graphs(1);
        let (g4, r4) = graphs(4);
        let t1 = throughput_model(&g1, &r1, 8, &model);
        let t4 = throughput_model(&g4, &r4, 8, &model);
        let ratio = t4.aggregate_edges_per_second() / t1.aggregate_edges_per_second();
        assert!(
            (2.5..4.5).contains(&ratio),
            "4 instances should be ~4x one: ratio {ratio}"
        );
    }

    #[test]
    #[should_panic(expected = "one root per graph")]
    fn mismatched_roots_rejected() {
        let (gs, _) = graphs(2);
        throughput_native(&gs, &[0], 1);
    }

    #[test]
    fn zero_seconds_guard() {
        let t = ThroughputStats {
            instances: 1,
            threads_per_instance: 1,
            edges_per_instance: vec![10],
            seconds: 0.0,
        };
        assert_eq!(t.aggregate_edges_per_second(), 0.0);
    }
}
