//! The memory-hierarchy cost model.
//!
//! Every performance phenomenon in the paper's evaluation is explained by
//! the authors with a handful of mechanisms, measured in their §II
//! microbenchmarks:
//!
//! 1. **Random-access latency is set by the cache level the working set
//!    fits in** (Fig. 2's staircase): ~2 ns in L1 up to ~200 ns in far
//!    memory (TLB-miss regime).
//! 2. **Memory pipelining hides latency ~8×**: a thread can keep ~10 reads
//!    in flight, a socket ~50 (EP) / ~75 (EX).
//! 3. **`lock`-prefixed atomics do not pipeline** and collapse across
//!    sockets (Fig. 3): 8 cores on two sockets match only 3 cores on one.
//! 4. **Channels amortize**: ~20 ns per FastForward operation, ~30 ns per
//!    vertex fully amortized with batching.
//! 5. **Barriers are cheap but per-level**: high-diameter graphs feel them.
//!
//! [`MachineModel::predict`] prices an instrumented BFS run (a
//! [`WorkProfile`]) using exactly these mechanisms: per level, the slowest
//! thread's operation costs plus barrier time; summed over levels. Because
//! the *counts* come from executing the real algorithm logic and the
//! *constants* come from the paper's own microbenchmarks, the predicted
//! curves reproduce the paper's shapes (who wins, where the socket-boundary
//! slope change falls, cache-size sensitivity) without curve-fitting to the
//! published results.

use crate::profile::WorkProfile;
use crate::topology::MachineSpec;
use serde::{Deserialize, Serialize};

/// Calibrated cost constants (nanoseconds unless noted).
///
/// Defaults are calibrated from the paper's §II measurements on Nehalem and
/// the quoted channel costs of §III; see each field's doc for the source.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CostParams {
    /// Dependent random-read latency with the working set in L1.
    pub lat_l1_ns: f64,
    /// ... in L2.
    pub lat_l2_ns: f64,
    /// ... in L3. Fig. 2: an 8 MB working set sustains ~20 M single reads/s
    /// ⇒ ~50 ns effective (address generation included).
    pub lat_l3_ns: f64,
    /// ... in local memory (≤ 1 GB working set). Fig. 2 mid-range plateau.
    pub lat_mem_ns: f64,
    /// ... in local memory beyond 1 GB (TLB-miss regime). Fig. 2: 2 GB
    /// working sets sustain ~5 M single reads/s ⇒ ~200 ns.
    pub lat_mem_big_ns: f64,
    /// Multiplier on memory latency for lines homed on a remote socket.
    pub remote_mem_factor: f64,
    /// Fraction of the nominal pipeline depth that is actually achieved
    /// ("about 10" outstanding requests deliver ~8× in Fig. 2).
    pub pipeline_efficiency: f64,
    /// Amortized cost of scanning one CSR adjacency entry (sequential,
    /// hardware-prefetched).
    pub seq_edge_ns: f64,
    /// Uncontended `lock xadd`/`lock or` on a local line.
    pub atomic_local_ns: f64,
    /// Extra serialization per additional thread hammering atomics on the
    /// same socket (Fig. 3's sublinear single-socket curve).
    pub atomic_contention_alpha: f64,
    /// Extra cost factor per *additional socket* sharing atomic targets
    /// (Fig. 3's collapse: tuned so 8 cores on 2 sockets ≈ 3 cores on 1).
    pub atomic_remote_slope: f64,
    /// Producer-side amortized cost per tuple through a batched channel
    /// (the paper's "normalized cost per vertex insertion is only 30 ns"
    /// covers insertion + drain; we split it across the two sides).
    pub channel_item_ns: f64,
    /// Consumer-side amortized cost per tuple drained from a channel
    /// (batched FastForward dequeue + lock share).
    pub channel_drain_ns: f64,
    /// Pipeline depth achievable on *remote, invalidation-contended* lines
    /// — the coherence protocol serializes these probes almost completely.
    pub remote_probe_depth: f64,
    /// Cache-to-cache transfer latency for a line modified by another
    /// socket (Molka et al. [21] measure ~100-130 ns on Nehalem). Charged
    /// for probes of write-hot shared state regardless of working-set size.
    pub coherence_miss_ns: f64,
    /// Per-batch fixed cost (two ticket-lock round trips + cursor update;
    /// paper: enqueue/dequeue ~20 ns each plus locking).
    pub channel_batch_ns: f64,
    /// Centralized barrier: fixed cost...
    pub barrier_base_ns: f64,
    /// ...plus this much per participating thread.
    pub barrier_per_thread_ns: f64,
    /// Amortized next-queue push (chunk-reserved, mostly L1-resident).
    pub queue_push_ns: f64,
    /// Throughput of a core's second SMT thread relative to the first
    /// (Nehalem SMT yields ~30-40% extra on memory-bound code).
    pub smt_yield: f64,
    /// Sustained random-access memory bandwidth per socket, bytes/s
    /// (3 × DDR3-1066 ≈ 25.6 GB/s theoretical; ~60% sustained).
    pub mem_bw_per_socket: f64,
    /// Fixed cost of one frontier-exchange frame crossing a shard link
    /// (framing, syscall, and receiver wakeup; loopback TCP with a
    /// write+read round measures in the tens of microseconds).
    pub link_frame_ns: f64,
    /// Streaming cost per payload byte on a shard link (loopback is
    /// memcpy-bound: ~1 GB/s effective for newline-JSON frames once
    /// encode/decode is charged to the link).
    pub link_byte_ns: f64,
}

impl Default for CostParams {
    fn default() -> Self {
        Self {
            lat_l1_ns: 2.0,
            lat_l2_ns: 6.0,
            lat_l3_ns: 50.0,
            lat_mem_ns: 120.0,
            lat_mem_big_ns: 200.0,
            remote_mem_factor: 2.0,
            pipeline_efficiency: 0.8,
            seq_edge_ns: 1.1,
            atomic_local_ns: 18.0,
            atomic_contention_alpha: 0.15,
            atomic_remote_slope: 0.7,
            channel_item_ns: 12.0,
            channel_drain_ns: 6.0,
            remote_probe_depth: 1.0,
            coherence_miss_ns: 120.0,
            channel_batch_ns: 160.0,
            barrier_base_ns: 400.0,
            barrier_per_thread_ns: 120.0,
            queue_push_ns: 4.0,
            smt_yield: 0.35,
            mem_bw_per_socket: 15.0e9,
            link_frame_ns: 25_000.0,
            link_byte_ns: 1.0,
        }
    }
}

/// Where the modelled cycles go: fractions of the aggregate (all-thread)
/// work, normalized to sum to 1 when any work exists. The numbers behind
/// "what should we optimize next" — e.g. Algorithm 1 is dominated by
/// `atomics`, Algorithm 3 at 4 sockets by `channels`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct CostBreakdown {
    /// Sequential adjacency scanning.
    pub edge_scan: f64,
    /// Random visited-structure probes (local + remote) and adjacency
    /// fetches.
    pub memory: f64,
    /// `lock`-prefixed read-modify-writes.
    pub atomics: f64,
    /// Frontier-queue pushes and parent stores.
    pub queues: f64,
    /// Inter-socket channel sends, batches and drains.
    pub channels: f64,
    /// Barrier episodes (aggregate thread-seconds).
    pub barriers: f64,
}

/// Predicted timing of one BFS execution.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Prediction {
    /// Total predicted wall-clock seconds.
    pub seconds: f64,
    /// Per-level predicted seconds.
    pub level_seconds: Vec<f64>,
    /// Edges traversed per second (the paper's reporting unit).
    pub edges_per_second: f64,
    /// Fraction of total time spent in barriers (diagnostic).
    pub barrier_fraction: f64,
    /// Aggregate cost composition (diagnostic).
    pub breakdown: CostBreakdown,
}

/// A [`MachineSpec`] paired with [`CostParams`]: prices profiles and
/// microbenchmark sweeps.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct MachineModel {
    /// The machine being modelled.
    pub spec: MachineSpec,
    /// The cost constants in force.
    pub params: CostParams,
}

impl MachineModel {
    /// A model of the paper's dual-socket Nehalem EP.
    pub fn nehalem_ep() -> Self {
        Self {
            spec: MachineSpec::nehalem_ep(),
            params: CostParams::default(),
        }
    }

    /// A model of the paper's 4-socket Nehalem EX. Lower clock, bigger L3,
    /// four memory channels (the paper: "effectively doubling memory
    /// bandwidth"), deeper per-socket pipelining.
    pub fn nehalem_ex() -> Self {
        let mut params = CostParams::default();
        // 2.26 GHz vs 2.93 GHz: core-bound costs scale with the clock.
        let clock = 2.93 / 2.26;
        params.seq_edge_ns *= clock;
        params.queue_push_ns *= clock;
        params.atomic_local_ns *= clock;
        // The EX's L3 is a ring of segments and its DDR3 sits behind
        // buffer chips: both add latency relative to the EP.
        params.lat_l3_ns = 90.0;
        params.lat_mem_ns = 300.0;
        params.lat_mem_big_ns = 500.0;
        params.channel_item_ns *= clock;
        params.channel_drain_ns *= clock;
        params.mem_bw_per_socket = 20.0e9;
        Self {
            spec: MachineSpec::nehalem_ex(),
            params,
        }
    }

    /// Model for an arbitrary spec with default constants.
    pub fn with_spec(spec: MachineSpec) -> Self {
        Self {
            spec,
            params: CostParams::default(),
        }
    }

    /// Effective dependent random-access latency (ns) for a working set of
    /// `bytes`, log-interpolated between cache-level plateaus (the smooth
    /// ramps visible in Fig. 2).
    pub fn random_latency_ns(&self, bytes: u64) -> f64 {
        let p = &self.params;
        let s = &self.spec;
        let pts: [(f64, f64); 5] = [
            (s.l1_bytes as f64, p.lat_l1_ns),
            (s.l2_bytes as f64, p.lat_l2_ns),
            (s.l3_bytes as f64, p.lat_l3_ns),
            (1e9, p.lat_mem_ns),
            (8e9, p.lat_mem_big_ns),
        ];
        let b = (bytes.max(1)) as f64;
        if b <= pts[0].0 {
            return pts[0].1;
        }
        for w in pts.windows(2) {
            let (x0, y0) = w[0];
            let (x1, y1) = w[1];
            if b <= x1 {
                // Log-linear interpolation between plateau corners.
                let t = (b.ln() - x0.ln()) / (x1.ln() - x0.ln());
                return y0 + t * (y1 - y0);
            }
        }
        pts[4].1
    }

    /// Effective pipeline depth for software-pipelined access streams:
    /// `batch` independent requests per iteration, capped by the
    /// per-thread limit and derated by the achieved efficiency.
    pub fn pipeline_depth(&self, batch: usize) -> f64 {
        let depth = batch.min(self.spec.max_outstanding_per_thread) as f64;
        (depth * self.params.pipeline_efficiency).max(1.0)
    }

    /// Random-read rate (reads/second) for one thread issuing batches of
    /// `batch` independent reads over a working set of `bytes` — the model
    /// behind Fig. 2.
    pub fn random_read_rate(&self, bytes: u64, batch: usize) -> f64 {
        self.pipeline_depth(batch) / (self.random_latency_ns(bytes) * 1e-9)
    }

    /// Cross-socket penalty factor on atomics when the targets are shared
    /// by `sockets_used` sockets.
    fn atomic_socket_penalty(&self, sockets_used: usize) -> f64 {
        1.0 + self.params.atomic_remote_slope * (sockets_used.saturating_sub(1)) as f64
    }

    /// Aggregate fetch-and-add rate (ops/second) of `threads` threads
    /// hammering a shared buffer — the model behind Fig. 3.
    pub fn fetch_add_rate(&self, threads: usize) -> f64 {
        let threads = threads.max(1).min(self.spec.total_threads());
        let sockets_used = self.spec.sockets_used(threads);
        let p = &self.params;
        let mut total = 0.0;
        for s in 0..sockets_used {
            let t = self.spec.threads_on_socket(s, threads);
            if t == 0 {
                continue;
            }
            // Serialization grows with *total* contenders; cross-socket
            // sharing multiplies every op's cost (line ping-pong).
            let per_op = p.atomic_local_ns
                * (1.0 + p.atomic_contention_alpha * (threads - 1) as f64)
                * self.atomic_socket_penalty(sockets_used);
            total += t as f64 / (per_op * 1e-9);
        }
        total
    }

    /// SMT derating: when `threads` exceeds the physical core count, both
    /// siblings share a core; each runs at `(1 + yield) / 2` of full speed.
    fn smt_slowdown(&self, threads: usize) -> f64 {
        if threads > self.spec.total_cores() {
            2.0 / (1.0 + self.params.smt_yield)
        } else {
            1.0
        }
    }

    /// Barrier episode cost in seconds for `threads` participants.
    pub fn barrier_seconds(&self, threads: usize) -> f64 {
        (self.params.barrier_base_ns + self.params.barrier_per_thread_ns * threads as f64) * 1e-9
    }

    /// Predicted seconds for one level of sharded frontier exchange:
    /// `frames` link crossings (each paying the fixed per-frame cost) plus
    /// `bytes` of total payload streamed across the links. Used by the
    /// sharded engine's model mode to price router↔worker communication —
    /// message volume × link cost, per level.
    pub fn exchange_seconds(&self, frames: u64, bytes: u64) -> f64 {
        (frames as f64 * self.params.link_frame_ns + bytes as f64 * self.params.link_byte_ns) * 1e-9
    }

    /// Prices one instrumented BFS run.
    pub fn predict(&self, profile: &WorkProfile) -> Prediction {
        let p = &self.params;
        let threads = profile.threads.max(1);
        let sockets = profile.sockets.max(1);
        let smt = self.smt_slowdown(threads);
        // Visited-structure probes: with sharded state (Algorithm 3) a
        // thread only touches its socket's shard; with shared state the
        // whole structure is in play.
        let shard_bytes = if profile.sharded_state {
            (profile.visited_bytes / sockets as u64).max(1)
        } else {
            profile.visited_bytes.max(1)
        };
        let probe_lat = self.random_latency_ns(shard_bytes);
        let threads_per_socket_f = threads.div_ceil(sockets).max(1) as f64;
        // Per-thread pipeline depth, bounded by the socket-level
        // outstanding-request budget the paper measures (§II: ~50 on EP,
        // ~75 on EX) shared by all threads on the socket.
        let depth = if profile.pipelined {
            let per_thread = self.pipeline_depth(self.spec.max_outstanding_per_thread);
            let socket_share = (self.spec.max_outstanding_per_socket as f64
                * self.params.pipeline_efficiency
                / threads_per_socket_f)
                .max(1.0);
            per_thread.min(socket_share)
        } else {
            1.0
        };
        let probe_ns = probe_lat / depth;
        // Remote probes on shared state: the visited structure is written
        // concurrently by the other sockets, so a remote probe is a
        // cache-to-cache coherence transfer — its cost does not shrink with
        // the working set, and the invalidation traffic defeats memory
        // pipelining (the mechanism behind Fig. 3's collapse).
        let remote_probe_ns = probe_lat.max(p.coherence_miss_ns) * p.remote_mem_factor
            / depth.min(p.remote_probe_depth);
        // Parent stores: 4 bytes per visited vertex, random; stores retire
        // asynchronously so charge half a dependent latency.
        let parent_bytes = (profile.num_vertices * 4 / sockets as u64).max(1);
        let parent_ns = 0.5 * self.random_latency_ns(parent_bytes) / depth;
        let atomic_penalty = self.atomic_socket_penalty(sockets);
        let contention = 1.0 + p.atomic_contention_alpha * (threads_per_socket_f - 1.0);
        // Dequeuing a frontier vertex dereferences its adjacency list — a
        // random access into the CSR arrays (offsets + first targets line),
        // hidden by the same prefetch pipeline as the visited probes.
        let graph_bytes = profile.num_vertices * 8 + profile.edges_traversed * 4;
        let adj_fetch_ns = self.random_latency_ns(graph_bytes.max(1)) / depth;

        let mut level_seconds = Vec::with_capacity(profile.levels.len());
        let mut total = 0.0;
        let mut barrier_total = 0.0;
        let mut bd = CostBreakdown::default();
        for level in &profile.levels {
            let mut slowest: f64 = 0.0;
            for t in &level.threads {
                // Memory-stall component: dependent random accesses.
                let mem_ns = (t.bitmap_reads - t.remote_bitmap_reads) as f64 * probe_ns
                    + t.remote_bitmap_reads as f64 * remote_probe_ns
                    + t.vertices_scanned as f64 * adj_fetch_ns
                    + t.parent_writes as f64 * parent_ns
                    + t.channel_drained as f64 * probe_ns;
                // Execution component: instruction work, atomics, channels.
                let cpu_ns = t.edges_scanned as f64 * p.seq_edge_ns
                    + (t.atomic_ops - t.remote_atomic_ops) as f64 * p.atomic_local_ns * contention
                    + t.remote_atomic_ops as f64 * p.atomic_local_ns * contention * atomic_penalty
                    + t.queue_pushes as f64 * p.queue_push_ns
                    + t.channel_items as f64 * p.channel_item_ns
                    + t.channel_batches as f64 * p.channel_batch_ns
                    + t.channel_drained as f64 * p.channel_drain_ns;
                // With software pipelining (prefetch batches in flight) the
                // memory stalls overlap the execution stream — the paper:
                // "most operations are overlapped with carefully placed
                // _mm_prefetch intrinsics". Without it they serialize.
                let ns = if profile.pipelined {
                    mem_ns.max(cpu_ns) + 0.15 * mem_ns.min(cpu_ns)
                } else {
                    mem_ns + cpu_ns
                };
                slowest = slowest.max(ns * smt);
                // Aggregate (all-thread) composition for the breakdown.
                bd.edge_scan += t.edges_scanned as f64 * p.seq_edge_ns;
                bd.memory += mem_ns;
                bd.atomics += (t.atomic_ops - t.remote_atomic_ops) as f64
                    * p.atomic_local_ns
                    * contention
                    + t.remote_atomic_ops as f64 * p.atomic_local_ns * contention * atomic_penalty;
                bd.queues +=
                    t.queue_pushes as f64 * p.queue_push_ns + t.parent_writes as f64 * parent_ns;
                bd.channels += t.channel_items as f64 * p.channel_item_ns
                    + t.channel_batches as f64 * p.channel_batch_ns
                    + t.channel_drained as f64 * p.channel_drain_ns;
            }
            // Per-socket memory-bandwidth ceiling: traffic that misses the
            // hierarchy (probes beyond L3 pull a line each; edges stream).
            let agg = level.total();
            let probe_traffic = if shard_bytes > self.spec.l3_bytes as u64 {
                (agg.bitmap_reads + agg.parent_writes) as f64 * self.spec.cacheline as f64
            } else {
                0.0
            };
            let stream_traffic = agg.edges_scanned as f64 * 4.0;
            let bw = p.mem_bw_per_socket * sockets as f64;
            let bw_floor_s = (probe_traffic + stream_traffic) / bw;
            let compute_s = slowest * 1e-9;
            let barrier_s = level.barriers as f64 * self.barrier_seconds(threads);
            let level_s = compute_s.max(bw_floor_s) + barrier_s;
            barrier_total += barrier_s;
            bd.barriers += barrier_s * 1e9 * threads as f64;
            level_seconds.push(level_s);
            total += level_s;
        }
        let eps = if total > 0.0 {
            profile.edges_traversed as f64 / total
        } else {
            0.0
        };
        // Normalize the breakdown to fractions.
        let bd_total =
            bd.edge_scan + bd.memory + bd.atomics + bd.queues + bd.channels + bd.barriers;
        if bd_total > 0.0 {
            bd.edge_scan /= bd_total;
            bd.memory /= bd_total;
            bd.atomics /= bd_total;
            bd.queues /= bd_total;
            bd.channels /= bd_total;
            bd.barriers /= bd_total;
        }
        Prediction {
            seconds: total,
            edges_per_second: eps,
            barrier_fraction: if total > 0.0 {
                barrier_total / total
            } else {
                0.0
            },
            level_seconds,
            breakdown: bd,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::{LevelProfile, ThreadCounts};

    fn ep() -> MachineModel {
        MachineModel::nehalem_ep()
    }

    #[test]
    fn exchange_cost_is_linear_in_frames_and_bytes() {
        let m = ep();
        assert_eq!(m.exchange_seconds(0, 0), 0.0);
        let per_frame = m.exchange_seconds(1, 0);
        let per_byte = m.exchange_seconds(0, 1);
        assert!(per_frame > 0.0 && per_byte > 0.0);
        // A frame costs orders of magnitude more than a byte: volume only
        // dominates once payloads reach tens of kilobytes.
        assert!(per_frame > 1_000.0 * per_byte);
        let combined = m.exchange_seconds(8, 10_000);
        assert!((combined - (8.0 * per_frame + 10_000.0 * per_byte)).abs() < 1e-15);
    }

    #[test]
    fn latency_staircase_is_monotone() {
        let m = ep();
        let sizes = [
            1u64 << 12,
            1 << 15,
            1 << 18,
            1 << 21,
            1 << 23,
            1 << 27,
            1 << 31,
            1 << 33,
        ];
        let lats: Vec<f64> = sizes.iter().map(|&s| m.random_latency_ns(s)).collect();
        for w in lats.windows(2) {
            assert!(
                w[0] <= w[1] + 1e-9,
                "latency must be non-decreasing: {lats:?}"
            );
        }
        assert!(lats[0] <= 3.0);
        assert!(*lats.last().unwrap() >= 190.0);
    }

    #[test]
    fn fig2_calibration_points() {
        let m = ep();
        // 8 MB working set, batch 16: the paper reports ~160 M reads/s.
        let r = m.random_read_rate(8 << 20, 16);
        assert!(
            (1.2e8..2.2e8).contains(&r),
            "8MB/batch-16 rate {r:.3e} should be ~160M/s"
        );
        // 2 GB, batch 16: ~40 M reads/s.
        let r = m.random_read_rate(2 << 30, 16);
        assert!((2.8e7..5.5e7).contains(&r), "2GB/batch-16 rate {r:.3e}");
        // Pipelining buys ~8x.
        let gain = m.random_read_rate(8 << 20, 16) / m.random_read_rate(8 << 20, 1);
        assert!((6.0..10.0).contains(&gain), "pipelining gain {gain}");
    }

    #[test]
    fn pipeline_depth_saturates_at_hw_limit() {
        let m = ep();
        assert_eq!(m.pipeline_depth(1), 1.0);
        assert!(m.pipeline_depth(16) <= 10.0 * 0.8 + 1e-9);
        assert_eq!(m.pipeline_depth(64), m.pipeline_depth(16));
    }

    #[test]
    fn fig3_socket_crossing_collapse() {
        let m = ep();
        // Monotone growth within the first socket.
        let r1 = m.fetch_add_rate(1);
        let r3 = m.fetch_add_rate(3);
        let r4 = m.fetch_add_rate(4);
        assert!(r3 > r1 && r4 > r3);
        // The paper: "using 8 cores on two sockets, we achieve the same
        // processing rate of only 3 cores on a single socket."
        let r5 = m.fetch_add_rate(5);
        let r8 = m.fetch_add_rate(8);
        assert!(
            r5 < r4,
            "crossing the socket must drop the rate: r4={r4:.3e} r5={r5:.3e}"
        );
        let ratio = r8 / r3;
        assert!(
            (0.6..1.6).contains(&ratio),
            "8 threads/2 sockets should approximate 3 threads/1 socket, ratio {ratio}"
        );
    }

    #[test]
    fn barrier_cost_scales_with_threads() {
        let m = ep();
        assert!(m.barrier_seconds(16) > m.barrier_seconds(1));
        assert!(m.barrier_seconds(1) > 0.0);
    }

    fn profile_with(threads: usize, edges_per_thread: u64, pipelined: bool) -> WorkProfile {
        let mut level = LevelProfile::new(threads, 1);
        for t in &mut level.threads {
            *t = ThreadCounts {
                vertices_scanned: edges_per_thread / 8,
                edges_scanned: edges_per_thread,
                bitmap_reads: edges_per_thread,
                remote_bitmap_reads: 0,
                atomic_ops: edges_per_thread / 8,
                remote_atomic_ops: 0,
                parent_writes: edges_per_thread / 8,
                queue_pushes: edges_per_thread / 8,
                channel_items: 0,
                channel_batches: 0,
                channel_drained: 0,
                edges_skipped: 0,
            };
        }
        WorkProfile {
            levels: vec![level],
            threads,
            sockets: 1,
            num_vertices: 1 << 20,
            visited_bytes: 1 << 17,
            pipelined,
            sharded_state: true,
            edges_traversed: edges_per_thread * threads as u64,
        }
    }

    #[test]
    fn prediction_scales_with_threads() {
        let m = ep();
        // Same total work divided over more threads must get faster.
        let p1 = m.predict(&profile_with(1, 8_000_000, true));
        let total = 8_000_000u64;
        let mut p4_profile = profile_with(4, total / 4, true);
        p4_profile.edges_traversed = total;
        let p4 = m.predict(&p4_profile);
        assert!(
            p4.seconds < p1.seconds / 3.0,
            "4 threads {:.4}s vs 1 thread {:.4}s",
            p4.seconds,
            p1.seconds
        );
    }

    #[test]
    fn pipelining_speeds_up_prediction() {
        let m = ep();
        let fast = m.predict(&profile_with(4, 1_000_000, true));
        let slow = m.predict(&profile_with(4, 1_000_000, false));
        assert!(slow.seconds > 2.0 * fast.seconds);
    }

    #[test]
    fn prediction_reports_consistent_rate() {
        let m = ep();
        let prof = profile_with(2, 1_000_000, true);
        let p = m.predict(&prof);
        assert!((p.edges_per_second - prof.edges_traversed as f64 / p.seconds).abs() < 1.0);
        assert_eq!(p.level_seconds.len(), 1);
        assert!(p.barrier_fraction > 0.0 && p.barrier_fraction < 0.5);
    }

    #[test]
    fn breakdown_fractions_sum_to_one() {
        let m = ep();
        let p = m.predict(&profile_with(2, 1_000_000, true));
        let b = p.breakdown;
        let sum = b.edge_scan + b.memory + b.atomics + b.queues + b.channels + b.barriers;
        assert!((sum - 1.0).abs() < 1e-9, "sum {sum}");
        // This profile has no channel traffic.
        assert_eq!(b.channels, 0.0);
        assert!(b.memory > 0.0 && b.atomics > 0.0);
    }

    #[test]
    fn empty_profile_prices_to_zero() {
        let m = ep();
        let p = m.predict(&WorkProfile::default());
        assert_eq!(p.seconds, 0.0);
        assert_eq!(p.edges_per_second, 0.0);
    }

    #[test]
    fn ex_model_reflects_clock_difference() {
        let ex = MachineModel::nehalem_ex();
        let ep = MachineModel::nehalem_ep();
        assert!(ex.params.seq_edge_ns > ep.params.seq_edge_ns);
        assert_eq!(ex.spec.total_threads(), 64);
    }

    #[test]
    fn single_thread_bfs_rate_in_plausible_band() {
        // Arity-8 uniform graph, 1M vertices, bitmap 128KB: a single EP
        // thread should land in the 50-200 ME/s band the paper's Fig. 6
        // implies for one thread.
        let m = ep();
        let p = m.predict(&profile_with(1, 8_000_000, true));
        assert!(
            (5.0e7..2.5e8).contains(&p.edges_per_second),
            "single-thread rate {:.3e}",
            p.edges_per_second
        );
    }
}
