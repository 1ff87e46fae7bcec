//! Host calibration: fit [`CostParams`] to the machine this code runs on.
//!
//! The paper's methodology — "a high-level algorithmic design that captures
//! the machine-independent aspects ... with an implementation that embeds
//! processor-specific optimizations" — implies the model should be
//! portable. This module runs the same §II microbenchmarks natively
//! (dependent random reads per cache level, pipelining gain, atomic
//! throughput) and derives a parameter set for the host, so model-mode
//! predictions can be made for *this* machine, not just the Nehalems.

use crate::memlat::{fetch_add_benchmark, random_read_benchmark};
use crate::model::CostParams;

/// How much work the calibration run performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CalibrationEffort {
    /// A few hundred milliseconds; coarse constants.
    Quick,
    /// Several seconds; tighter constants.
    Thorough,
}

impl CalibrationEffort {
    fn reads(self) -> usize {
        match self {
            CalibrationEffort::Quick => 40_000,
            CalibrationEffort::Thorough => 2_000_000,
        }
    }
}

/// Measured latency points from the host (diagnostic by-product of
/// [`calibrate_host`]).
#[derive(Debug, Clone, PartialEq)]
pub struct CalibrationReport {
    /// `(working set bytes, dependent-read ns)` per probed level.
    pub latency_points: Vec<(usize, f64)>,
    /// Measured batch-16 / batch-1 gain at a memory-resident working set.
    pub pipelining_gain: f64,
    /// Single-thread atomic fetch-add cost, ns.
    pub atomic_ns: f64,
    /// The fitted parameters.
    pub params: CostParams,
}

/// Measures the host and returns fitted parameters plus the raw points.
///
/// The returned [`CostParams`] replaces the latency staircase, pipelining
/// efficiency and atomic cost; structural constants that need
/// multi-socket hardware to measure (cross-socket slopes, channel costs)
/// are inherited from the Nehalem calibration.
pub fn calibrate_host(effort: CalibrationEffort) -> CalibrationReport {
    let reads = effort.reads();
    let lat_at = |bytes: usize| -> f64 {
        let r = random_read_benchmark(bytes, 1, reads);
        1e9 / r.reads_per_second
    };
    // Probe the canonical levels: well inside L1, L2, L3, and memory.
    let points: Vec<(usize, f64)> = [16 << 10, 128 << 10, 2 << 20, 32 << 20]
        .into_iter()
        .map(|b| (b, lat_at(b)))
        .collect();

    // Pipelining gain at a memory-resident size.
    let ws = 16 << 20;
    let r1 = random_read_benchmark(ws, 1, reads);
    let r16 = random_read_benchmark(ws, 16, reads / 4);
    let gain = (r16.reads_per_second / r1.reads_per_second).max(1.0);

    // Single-thread atomic cost.
    let fa = fetch_add_benchmark(1, 4 << 20, reads);
    let atomic_ns = 1e9 / fa.ops_per_second;

    let mut params = CostParams::default();
    params.lat_l1_ns = points[0].1.max(0.3);
    params.lat_l2_ns = points[1].1.max(params.lat_l1_ns);
    params.lat_l3_ns = points[2].1.max(params.lat_l2_ns);
    params.lat_mem_ns = points[3].1.max(params.lat_l3_ns);
    params.lat_mem_big_ns = params.lat_mem_ns * 1.6;
    // Gain of g at nominal depth 10 ⇒ efficiency g/10 (clamped).
    params.pipeline_efficiency = (gain / 10.0).clamp(0.1, 1.0);
    params.atomic_local_ns = atomic_ns.max(1.0);

    CalibrationReport {
        latency_points: points,
        pipelining_gain: gain,
        atomic_ns,
        params,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_produces_sane_constants() {
        let report = calibrate_host(CalibrationEffort::Quick);
        let p = &report.params;
        // Monotone staircase.
        assert!(p.lat_l1_ns <= p.lat_l2_ns);
        assert!(p.lat_l2_ns <= p.lat_l3_ns);
        assert!(p.lat_l3_ns <= p.lat_mem_ns);
        assert!(p.lat_mem_ns <= p.lat_mem_big_ns);
        // Physically plausible magnitudes — generous bounds because tests
        // run unoptimized and possibly on virtualized hardware.
        assert!(
            p.lat_l1_ns > 0.1 && p.lat_l1_ns < 500.0,
            "L1 {}",
            p.lat_l1_ns
        );
        assert!(p.lat_mem_ns < 10_000.0, "mem {}", p.lat_mem_ns);
        assert!((0.1..=1.0).contains(&p.pipeline_efficiency));
        assert!(p.atomic_local_ns >= 1.0 && p.atomic_local_ns < 1_000.0);
        assert_eq!(report.latency_points.len(), 4);
    }
}
