//! Native memory-latency microbenchmarks (the paper's §II experiments).
//!
//! Two experiments, runnable on any host:
//!
//! * [`random_read_benchmark`] — Fig. 2: dependent random reads over a
//!   working set, issued in software-pipelined batches of independent
//!   chains. Larger batches keep more requests in flight and expose the
//!   hardware's memory-level parallelism.
//! * [`fetch_add_benchmark`] — Fig. 3: concurrent `fetch_add`s at random
//!   offsets of a shared buffer from an increasing number of threads.
//!
//! On the paper's Nehalems these measure the real staircase and the real
//! cross-socket collapse; on this reproduction's host they provide the
//! native data points printed next to the model's curves.

use mcbfs_sync::pool::scoped_run;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// A simple xorshift PRNG — deterministic, dependency-free address stream.
#[derive(Clone)]
pub struct XorShift64 {
    state: u64,
}

impl XorShift64 {
    /// Seeds the generator (zero is remapped to a fixed odd constant).
    pub fn new(seed: u64) -> Self {
        Self {
            state: if seed == 0 { 0x9E3779B97F4A7C15 } else { seed },
        }
    }

    /// Next pseudo-random 64-bit value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x
    }
}

/// Builds a working set of `len` u64 slots containing a uniformly random
/// permutation cycle (`buf[i]` = index of the next element), so that chasing
/// pointers defeats every prefetcher — the access pattern of Fig. 2.
pub fn permutation_cycle(len: usize, seed: u64) -> Vec<u64> {
    let len = len.max(2);
    let mut order: Vec<u64> = (0..len as u64).collect();
    let mut rng = XorShift64::new(seed);
    // Fisher–Yates.
    for i in (1..len).rev() {
        let j = (rng.next_u64() % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    let mut buf = vec![0u64; len];
    for w in order.windows(2) {
        buf[w[0] as usize] = w[1];
    }
    buf[*order.last().unwrap() as usize] = order[0];
    buf
}

/// Result of one [`random_read_benchmark`] configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ReadBenchResult {
    /// Working set size in bytes.
    pub working_set_bytes: usize,
    /// Number of independent chains kept in flight.
    pub batch: usize,
    /// Measured reads per second.
    pub reads_per_second: f64,
}

/// Measures dependent random-read throughput over a `working_set_bytes`
/// buffer with `batch` independent pointer chains (the software-pipelining
/// trick of Fig. 2), doing `reads_per_chain` reads on each chain.
pub fn random_read_benchmark(
    working_set_bytes: usize,
    batch: usize,
    reads_per_chain: usize,
) -> ReadBenchResult {
    let len = (working_set_bytes / 8).max(2);
    let buf = permutation_cycle(len, 0xFEED);
    let batch = batch.clamp(1, 64);
    // Start each chain at a distinct offset of the cycle.
    let mut cursors: Vec<u64> = (0..batch as u64)
        .map(|i| (i * (len as u64 / batch as u64 + 1)) % len as u64)
        .collect();
    let start = Instant::now();
    for _ in 0..reads_per_chain {
        // The reads within one round are independent — the CPU can overlap
        // their misses; consecutive rounds are dependent per chain.
        for c in cursors.iter_mut() {
            *c = buf[*c as usize];
        }
    }
    let elapsed = start.elapsed().as_secs_f64();
    // Defeat dead-code elimination.
    let sink: u64 = cursors.iter().sum();
    std::hint::black_box(sink);
    let total_reads = (reads_per_chain * batch) as f64;
    ReadBenchResult {
        working_set_bytes,
        batch,
        reads_per_second: total_reads / elapsed.max(1e-12),
    }
}

/// Result of one [`fetch_add_benchmark`] configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct FetchAddBenchResult {
    /// Number of threads issuing atomics.
    pub threads: usize,
    /// Measured fetch-and-add operations per second (all threads).
    pub ops_per_second: f64,
}

/// Measures aggregate `fetch_add` throughput of `threads` threads updating
/// random slots of a shared `buffer_bytes` buffer (`ops_per_thread` each) —
/// the experiment of Fig. 3.
pub fn fetch_add_benchmark(
    threads: usize,
    buffer_bytes: usize,
    ops_per_thread: usize,
) -> FetchAddBenchResult {
    let len = (buffer_bytes / 8).max(1);
    let buf: Vec<AtomicU64> = (0..len).map(|_| AtomicU64::new(0)).collect();
    let threads = threads.max(1);
    let start = Instant::now();
    scoped_run(threads, |tid| {
        let mut rng = XorShift64::new(0xABCD ^ tid as u64);
        for _ in 0..ops_per_thread {
            let idx = (rng.next_u64() % len as u64) as usize;
            buf[idx].fetch_add(1, Ordering::Relaxed);
        }
    });
    let elapsed = start.elapsed().as_secs_f64();
    let total: u64 = buf.iter().map(|a| a.load(Ordering::Relaxed)).sum();
    assert_eq!(total, (threads * ops_per_thread) as u64);
    FetchAddBenchResult {
        threads,
        ops_per_second: total as f64 / elapsed.max(1e-12),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xorshift_is_deterministic_and_nonzero() {
        let mut a = XorShift64::new(42);
        let mut b = XorShift64::new(42);
        for _ in 0..100 {
            let x = a.next_u64();
            assert_eq!(x, b.next_u64());
            assert_ne!(x, 0);
        }
        let mut z = XorShift64::new(0);
        assert_ne!(z.next_u64(), 0);
    }

    #[test]
    fn permutation_cycle_is_a_single_cycle() {
        let buf = permutation_cycle(257, 7);
        let mut seen = vec![false; 257];
        let mut cursor = 0u64;
        for _ in 0..257 {
            assert!(!seen[cursor as usize], "revisited {cursor} early");
            seen[cursor as usize] = true;
            cursor = buf[cursor as usize];
        }
        assert_eq!(cursor, 0, "must close the cycle");
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn permutation_cycle_handles_tiny_sizes() {
        let buf = permutation_cycle(1, 3); // clamped to 2
        assert_eq!(buf.len(), 2);
        assert_eq!(buf[buf[0] as usize], 0);
    }

    #[test]
    fn read_benchmark_reports_positive_rate() {
        let r = random_read_benchmark(1 << 16, 4, 20_000);
        assert!(r.reads_per_second > 1e6, "rate {:.3e}", r.reads_per_second);
        assert_eq!(r.batch, 4);
    }

    #[test]
    fn batching_does_not_hurt() {
        // Even on a busy CI host, batch-8 should never be slower than ~0.7x
        // batch-1 (it is usually several times faster).
        let r1 = random_read_benchmark(1 << 22, 1, 50_000);
        let r8 = random_read_benchmark(1 << 22, 8, 50_000);
        assert!(
            r8.reads_per_second > 0.7 * r1.reads_per_second,
            "batch-8 {:.3e} vs batch-1 {:.3e}",
            r8.reads_per_second,
            r1.reads_per_second
        );
    }

    #[test]
    fn fetch_add_benchmark_counts_every_op() {
        let r = fetch_add_benchmark(2, 1 << 12, 10_000);
        assert_eq!(r.threads, 2);
        assert!(r.ops_per_second > 1e5);
    }

    #[test]
    fn batch_is_clamped() {
        let r = random_read_benchmark(1 << 12, 0, 1_000);
        assert_eq!(r.batch, 1);
    }
}
