//! Spin barriers for the `Synchronize` steps of the level-synchronous BFS.
//!
//! Algorithms 2 and 3 synchronize all worker threads twice per BFS level
//! (end of local phase, end of remote-drain phase). A centralized
//! sense-reversing barrier costs one `fetch_add` per thread per episode and
//! a broadcast store; on the paper's systems that is far cheaper than an OS
//! barrier and its cost model is easy to reason about (the machine-model
//! crate charges it explicitly).

use core::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering};
use std::hint;

use mcbfs_trace::{EventKind, SpanTimer};

/// A reusable centralized sense-reversing spin barrier.
///
/// Unlike `std::sync::Barrier` this never parks threads on the happy path,
/// matching the paper's busy-wait synchronization; on an oversubscribed host
/// it degrades gracefully by yielding after a spin budget.
///
/// # Examples
///
/// ```
/// use mcbfs_sync::barrier::SpinBarrier;
/// use std::sync::atomic::{AtomicUsize, Ordering};
///
/// let barrier = SpinBarrier::new(4);
/// let phase1 = AtomicUsize::new(0);
/// std::thread::scope(|s| {
///     for _ in 0..4 {
///         s.spawn(|| {
///             phase1.fetch_add(1, Ordering::SeqCst);
///             barrier.wait();
///             // everyone observed all phase-1 increments
///             assert_eq!(phase1.load(Ordering::SeqCst), 4);
///         });
///     }
/// });
/// ```
pub struct SpinBarrier {
    parties: usize,
    arrived: AtomicUsize,
    sense: AtomicBool,
    /// Completed episodes — used by tests and by the instrumentation layer
    /// to count synchronization rounds per BFS.
    episodes: AtomicU32,
}

impl SpinBarrier {
    /// Creates a barrier for `parties` threads (minimum 1).
    pub fn new(parties: usize) -> Self {
        Self {
            parties: parties.max(1),
            arrived: AtomicUsize::new(0),
            sense: AtomicBool::new(false),
            episodes: AtomicU32::new(0),
        }
    }

    /// Blocks (spinning) until all `parties` threads have called `wait`.
    ///
    /// Returns `true` for exactly one caller per episode (the last arriver),
    /// mirroring `std::sync::BarrierWaitResult::is_leader`.
    pub fn wait(&self) -> bool {
        let wait = SpanTimer::start();
        let local_sense = !self.sense.load(Ordering::Relaxed);
        let pos = self.arrived.fetch_add(1, Ordering::AcqRel);
        if pos + 1 == self.parties {
            // Last arriver: reset the counter and flip the sense, releasing
            // every spinner.
            self.arrived.store(0, Ordering::Relaxed);
            self.episodes.fetch_add(1, Ordering::Relaxed);
            self.sense.store(local_sense, Ordering::Release);
            wait.finish(EventKind::BarrierWait, 1);
            true
        } else {
            let mut spins = 0u32;
            while self.sense.load(Ordering::Acquire) != local_sense {
                hint::spin_loop();
                spins += 1;
                if spins > 1 << 14 {
                    // Single-core hosts need the leader to get CPU time.
                    std::thread::yield_now();
                }
            }
            wait.finish(EventKind::BarrierWait, 0);
            false
        }
    }

    /// Completed barrier episodes so far.
    pub fn episodes(&self) -> u32 {
        self.episodes.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn single_party_never_blocks() {
        let b = SpinBarrier::new(1);
        assert!(b.wait());
        assert!(b.wait());
        assert_eq!(b.episodes(), 2);
    }

    #[test]
    fn zero_parties_clamped_to_one() {
        let b = SpinBarrier::new(0);
        assert!(b.wait());
        assert!(b.wait());
    }

    #[test]
    fn exactly_one_leader_per_episode() {
        const THREADS: usize = 8;
        const EPISODES: usize = 50;
        let b = Arc::new(SpinBarrier::new(THREADS));
        let leaders = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                let b = Arc::clone(&b);
                let leaders = Arc::clone(&leaders);
                s.spawn(move || {
                    for _ in 0..EPISODES {
                        if b.wait() {
                            leaders.fetch_add(1, Ordering::SeqCst);
                        }
                    }
                });
            }
        });
        assert_eq!(leaders.load(Ordering::SeqCst), EPISODES);
        assert_eq!(b.episodes(), EPISODES as u32);
    }

    #[test]
    fn barrier_orders_phases() {
        // Classic barrier litmus: writes before the barrier are visible
        // after it, across many episodes.
        const THREADS: usize = 4;
        const ROUNDS: usize = 200;
        let b = Arc::new(SpinBarrier::new(THREADS));
        let counters: Arc<Vec<AtomicUsize>> =
            Arc::new((0..THREADS).map(|_| AtomicUsize::new(0)).collect());
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let b = Arc::clone(&b);
                let counters = Arc::clone(&counters);
                s.spawn(move || {
                    for round in 1..=ROUNDS {
                        counters[t].store(round, Ordering::Release);
                        b.wait();
                        for c in counters.iter() {
                            assert!(c.load(Ordering::Acquire) >= round);
                        }
                        b.wait();
                    }
                });
            }
        });
    }

    #[test]
    fn reusable_across_many_episodes() {
        let b = Arc::new(SpinBarrier::new(2));
        std::thread::scope(|s| {
            for _ in 0..2 {
                let b = Arc::clone(&b);
                s.spawn(move || {
                    for _ in 0..1_000 {
                        b.wait();
                    }
                });
            }
        });
        assert_eq!(b.episodes(), 1_000);
    }
}
