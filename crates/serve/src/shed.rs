//! Admission accounting and the `stats` snapshot.
//!
//! The shedding *decision* is the batcher's bounded queue
//! (`query::QueryBatcher::try_submit` returns `Overloaded` past the
//! high-water mark, under the batcher's one lock); this module is the
//! policy around it — every request ends in exactly one counter
//! (`served`, `shed`, `timeouts`, or `errors`), so `served + shed +
//! timeouts + errors == admitted + shed + errors` is checkable from the
//! outside and nothing is ever dropped silently. What is admitted but not
//! yet counted, parked or inside a running wave, is `in_flight`. A bounded
//! reservoir of recent served latencies feeds the live quantiles in
//! [`ServerStats`].

use mcbfs_query::nearest_rank_quantile;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Recent served-latency samples kept for the live quantiles.
const LATENCY_WINDOW: usize = 4096;

/// Live server statistics, as exposed by the `stats` wire command.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ServerStats {
    /// Vertices in the served graph (the loadgen handshake reads this to
    /// pick query endpoints).
    pub vertices: u64,
    /// Directed edges in the served graph.
    pub edges: u64,
    /// Seconds since the server started.
    pub uptime_seconds: f64,
    /// Connections accepted over the server's lifetime.
    pub connections: u64,
    /// Queries admitted into the batcher.
    pub admitted: u64,
    /// Queries answered with `ok`.
    pub served: u64,
    /// Queries rejected at admission (`overloaded` or `draining`).
    pub shed: u64,
    /// Queries answered with `timeout` (deadline expired).
    pub timeouts: u64,
    /// Query frames that parsed but could not be executed (e.g. vertex
    /// out of range) and were answered with `error`.
    pub errors: u64,
    /// Inbound lines that failed to parse as `mcbfs-wire-v1` frames.
    pub protocol_errors: u64,
    /// Queries admitted but not yet answered (`admitted − served −
    /// timeouts`): parked in the batcher or inside a running wave.
    pub in_flight: u64,
    /// Waves executed.
    pub waves: u64,
    /// Sum of served queries' TEPS numerators.
    pub served_edges: u64,
    /// Aggregate serving rate over the uptime (`served_edges / uptime`).
    pub aggregate_teps: f64,
    /// Median served latency over the recent window, milliseconds.
    pub p50_latency_ms: f64,
    /// 99th-percentile served latency over the recent window.
    pub p99_latency_ms: f64,
    /// 99.9th-percentile served latency over the recent window.
    pub p999_latency_ms: f64,
}

impl ServerStats {
    /// Merges the stats of a multi-process topology (e.g. a router plus
    /// its shard workers) into one cluster view.
    ///
    /// Monotone counters are **summed**, `uptime_seconds` takes the
    /// maximum, `aggregate_teps` is recomputed from the merged sums, and
    /// the latency quantiles are nearest-rank quantiles over the
    /// **concatenated** per-process sample windows — exact, because each
    /// process contributes its bounded raw window rather than its
    /// pre-computed quantiles (quantiles of quantiles would be wrong for
    /// any skewed split of traffic).
    ///
    /// Callers pass one entry per process and zero any field a process
    /// does not own, so sums never double-count: in the router topology
    /// the workers own the graph shape (`vertices`/`edges` sum to the
    /// global graph because each shard owns a disjoint vertex range and
    /// stores each directed edge once) while the router owns the
    /// client-facing counters, `waves` and `served_edges`.
    ///
    /// # Panics
    /// Panics when `parts` is empty or `windows.len() != parts.len()`.
    pub fn merge(parts: &[ServerStats], windows: &[Vec<f64>]) -> ServerStats {
        assert!(!parts.is_empty(), "merge needs at least one process");
        assert_eq!(parts.len(), windows.len(), "one latency window per process");
        let sum = |f: fn(&ServerStats) -> u64| parts.iter().map(f).sum::<u64>();
        let uptime = parts
            .iter()
            .map(|p| p.uptime_seconds)
            .fold(0.0_f64, f64::max);
        let served_edges = sum(|p| p.served_edges);
        let lat: Vec<f64> = windows.iter().flatten().copied().collect();
        ServerStats {
            vertices: sum(|p| p.vertices),
            edges: sum(|p| p.edges),
            uptime_seconds: uptime,
            connections: sum(|p| p.connections),
            admitted: sum(|p| p.admitted),
            served: sum(|p| p.served),
            shed: sum(|p| p.shed),
            timeouts: sum(|p| p.timeouts),
            errors: sum(|p| p.errors),
            protocol_errors: sum(|p| p.protocol_errors),
            in_flight: sum(|p| p.in_flight),
            waves: sum(|p| p.waves),
            served_edges,
            aggregate_teps: if uptime > 0.0 {
                served_edges as f64 / uptime
            } else {
                0.0
            },
            p50_latency_ms: nearest_rank_quantile(&lat, 0.5),
            p99_latency_ms: nearest_rank_quantile(&lat, 0.99),
            p999_latency_ms: nearest_rank_quantile(&lat, 0.999),
        }
    }
}

/// Lock-light counters shared by the connection readers and the scheduler.
pub struct StatsHub {
    vertices: u64,
    edges: u64,
    started: Instant,
    /// Accepted connections.
    pub connections: AtomicU64,
    /// Queries answered with `ok`.
    pub served: AtomicU64,
    /// Queries rejected at admission.
    pub shed: AtomicU64,
    /// Queries answered with `timeout`.
    pub timeouts: AtomicU64,
    /// Executable-but-invalid query frames answered with `error`.
    pub errors: AtomicU64,
    /// Unparseable inbound lines.
    pub protocol_errors: AtomicU64,
    /// Waves executed by the scheduler.
    pub waves: AtomicU64,
    /// Sum of served TEPS numerators.
    pub served_edges: AtomicU64,
    latencies_ms: Mutex<VecDeque<f64>>,
}

impl StatsHub {
    /// A fresh hub for a graph of the given shape.
    pub fn new(vertices: u64, edges: u64) -> Self {
        Self {
            vertices,
            edges,
            started: Instant::now(),
            connections: AtomicU64::new(0),
            served: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            timeouts: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            protocol_errors: AtomicU64::new(0),
            waves: AtomicU64::new(0),
            served_edges: AtomicU64::new(0),
            latencies_ms: Mutex::new(VecDeque::with_capacity(LATENCY_WINDOW)),
        }
    }

    /// Records one served query's latency into the quantile window.
    pub fn record_latency_ms(&self, ms: f64) {
        let mut w = self.latencies_ms.lock().expect("latency window lock");
        if w.len() == LATENCY_WINDOW {
            w.pop_front();
        }
        w.push_back(ms);
    }

    /// The raw recent-latency window (insertion order). Multi-process
    /// topologies ship this alongside the snapshot so
    /// [`ServerStats::merge`] can compute exact cluster-wide quantiles.
    pub fn latency_window(&self) -> Vec<f64> {
        let w = self.latencies_ms.lock().expect("latency window lock");
        w.iter().copied().collect()
    }

    /// Snapshots everything into a wire-serializable [`ServerStats`].
    /// `admitted` comes from the batcher, which issues the tickets; what of
    /// it is not yet served or timed out is `in_flight`.
    pub fn snapshot(&self, admitted: u64) -> ServerStats {
        let lat: Vec<f64> = {
            let w = self.latencies_ms.lock().expect("latency window lock");
            w.iter().copied().collect()
        };
        let uptime = self.started.elapsed().as_secs_f64();
        let served_edges = self.served_edges.load(Ordering::Relaxed);
        let served = self.served.load(Ordering::Relaxed);
        let timeouts = self.timeouts.load(Ordering::Relaxed);
        ServerStats {
            vertices: self.vertices,
            edges: self.edges,
            uptime_seconds: uptime,
            connections: self.connections.load(Ordering::Relaxed),
            admitted,
            served,
            shed: self.shed.load(Ordering::Relaxed),
            timeouts,
            errors: self.errors.load(Ordering::Relaxed),
            protocol_errors: self.protocol_errors.load(Ordering::Relaxed),
            // Queries admitted after `admitted` was read may already be
            // counted here.
            in_flight: admitted.saturating_sub(served + timeouts),
            waves: self.waves.load(Ordering::Relaxed),
            served_edges,
            aggregate_teps: if uptime > 0.0 {
                served_edges as f64 / uptime
            } else {
                0.0
            },
            p50_latency_ms: nearest_rank_quantile(&lat, 0.5),
            p99_latency_ms: nearest_rank_quantile(&lat, 0.99),
            p999_latency_ms: nearest_rank_quantile(&lat, 0.999),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reflects_counters_and_quantiles() {
        let hub = StatsHub::new(100, 600);
        hub.served.store(3, Ordering::Relaxed);
        hub.shed.store(1, Ordering::Relaxed);
        hub.served_edges.store(900, Ordering::Relaxed);
        for ms in [1.0, 2.0, 3.0] {
            hub.record_latency_ms(ms);
        }
        let s = hub.snapshot(4);
        assert_eq!(s.vertices, 100);
        assert_eq!(s.admitted, 4);
        assert_eq!(s.served, 3);
        assert_eq!(s.shed, 1);
        assert_eq!(s.in_flight, 1, "admitted, neither served nor timed out");
        assert_eq!(s.p50_latency_ms, 2.0);
        assert_eq!(s.p999_latency_ms, 3.0);
        assert!(s.aggregate_teps > 0.0);
        // Named-field struct: the stub derive round-trips it.
        let back: ServerStats = serde_json::from_str(&serde_json::to_string(&s).unwrap()).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn merge_sums_counters_and_takes_exact_quantiles() {
        // A router (client tier, no graph) over two workers (graph tier,
        // no client counters): the merged view must carry the global
        // graph shape and the router's accounting, with quantiles over
        // the union of the sample windows.
        let router = ServerStats {
            vertices: 0,
            edges: 0,
            uptime_seconds: 2.0,
            connections: 5,
            admitted: 10,
            served: 8,
            shed: 1,
            timeouts: 1,
            errors: 0,
            protocol_errors: 0,
            in_flight: 0,
            waves: 3,
            served_edges: 1000,
            aggregate_teps: 500.0,
            p50_latency_ms: 2.0,
            p99_latency_ms: 4.0,
            p999_latency_ms: 4.0,
        };
        let worker = |n: u64, m: u64| ServerStats {
            vertices: n,
            edges: m,
            uptime_seconds: 3.0,
            connections: 1,
            ..ServerStats::default()
        };
        let merged = ServerStats::merge(
            &[router.clone(), worker(60, 300), worker(40, 200)],
            &[vec![2.0, 4.0, 1.0, 3.0], vec![], vec![]],
        );
        assert_eq!(merged.vertices, 100);
        assert_eq!(merged.edges, 500);
        assert_eq!(merged.connections, 7);
        assert_eq!(merged.served, 8);
        assert_eq!(merged.waves, 3);
        assert_eq!(merged.uptime_seconds, 3.0);
        assert!((merged.aggregate_teps - 1000.0 / 3.0).abs() < 1e-9);
        assert_eq!(merged.p50_latency_ms, 2.0);
        assert_eq!(merged.p999_latency_ms, 4.0);
    }

    #[test]
    fn merge_quantiles_beat_quantiles_of_quantiles() {
        // Two processes with very different traffic: the exact merged
        // p50 over the union differs from any average of per-process
        // quantiles — the reason workers ship raw windows.
        let zero = ServerStats::merge(&[StatsHub::new(0, 0).snapshot(0)], &[vec![]]);
        let a: Vec<f64> = (0..99).map(|i| 1.0 + i as f64 * 0.001).collect();
        let b = vec![100.0];
        let merged = ServerStats::merge(&[zero.clone(), zero.clone()], &[a.clone(), b.clone()]);
        // 100 samples total; nearest-rank p50 is the 50th smallest ≈ 1.049.
        assert!(merged.p50_latency_ms < 2.0, "{}", merged.p50_latency_ms);
        assert_eq!(merged.p999_latency_ms, 100.0);
        let naive = (nearest_rank_quantile(&a, 0.5) + nearest_rank_quantile(&b, 0.5)) / 2.0;
        assert!(naive > 50.0, "averaging per-process quantiles misleads");
    }

    #[test]
    #[should_panic(expected = "one latency window per process")]
    fn merge_requires_window_per_process() {
        let s = StatsHub::new(0, 0).snapshot(0);
        let _ = ServerStats::merge(&[s], &[]);
    }

    #[test]
    fn latency_window_accessor_matches_contents() {
        let hub = StatsHub::new(1, 1);
        for ms in [5.0, 7.0] {
            hub.record_latency_ms(ms);
        }
        assert_eq!(hub.latency_window(), vec![5.0, 7.0]);
    }

    #[test]
    fn latency_window_is_bounded() {
        let hub = StatsHub::new(1, 1);
        for i in 0..(LATENCY_WINDOW + 100) {
            hub.record_latency_ms(i as f64);
        }
        let w = hub.latencies_ms.lock().unwrap();
        assert_eq!(w.len(), LATENCY_WINDOW);
        assert_eq!(*w.front().unwrap(), 100.0);
    }
}
