//! FastForward: a cache-optimized single-producer/single-consumer lock-free
//! queue (Giacomoni, Moseley, Vachharajani, PPoPP'08).
//!
//! The defining idea is that the producer and consumer never share an index:
//! each slot carries its own *full* flag, the producer keeps a private tail,
//! the consumer a private head, and the only cache lines that move between
//! the two cores are the slots themselves. The paper's measurement on
//! Nehalem puts enqueue/dequeue at ~20 ns, and — crucially for the BFS —
//! "both sender and receiver can make independent progress without
//! generating any unneeded coherence traffic".
//!
//! This implementation stores each slot's flag and payload together and pads
//! slots to the cache-line size, trading memory for the elimination of
//! false sharing between adjacent slots, exactly as the original paper's
//! `NULL`-sentinel layout does for pointer-sized payloads.

use core::sync::atomic::{AtomicBool, Ordering};
use crossbeam::utils::CachePadded;
use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::Arc;

struct Slot<T> {
    full: AtomicBool,
    value: UnsafeCell<MaybeUninit<T>>,
}

/// Fixed-capacity single-producer/single-consumer lock-free ring buffer.
///
/// Use [`FastForward::with_capacity`] and split it into a
/// ([`Producer`], [`Consumer`]) pair, each of which can move to its own
/// thread. Capacities are rounded up to a power of two so index wrapping is
/// a mask.
///
/// # Examples
///
/// ```
/// use mcbfs_sync::fastforward::FastForward;
///
/// let (mut tx, mut rx) = FastForward::with_capacity(64);
/// std::thread::scope(|s| {
///     s.spawn(move || {
///         for i in 0..1000u64 {
///             while tx.push(i).is_err() {}
///         }
///     });
///     s.spawn(move || {
///         for i in 0..1000u64 {
///             loop {
///                 if let Some(v) = rx.pop() {
///                     assert_eq!(v, i);
///                     break;
///                 }
///             }
///         }
///     });
/// });
/// ```
pub struct FastForward<T> {
    slots: Box<[CachePadded<Slot<T>>]>,
    mask: usize,
}

// SAFETY: the producer/consumer split guarantees at most one writer and one
// reader per slot at a time, mediated by the `full` flag.
unsafe impl<T: Send> Send for FastForward<T> {}
unsafe impl<T: Send> Sync for FastForward<T> {}

impl<T> FastForward<T> {
    /// Creates a queue with at least `capacity` slots (rounded up to a power
    /// of two, minimum 2) and splits it into its producer and consumer
    /// endpoints.
    pub fn with_capacity(capacity: usize) -> (Producer<T>, Consumer<T>) {
        let cap = capacity.max(2).next_power_of_two();
        let slots: Box<[CachePadded<Slot<T>>]> = (0..cap)
            .map(|_| {
                CachePadded::new(Slot {
                    full: AtomicBool::new(false),
                    value: UnsafeCell::new(MaybeUninit::uninit()),
                })
            })
            .collect();
        let q = Arc::new(FastForward {
            slots,
            mask: cap - 1,
        });
        (
            Producer {
                queue: Arc::clone(&q),
                tail: 0,
            },
            Consumer { queue: q, head: 0 },
        )
    }

    /// Capacity in slots.
    pub fn capacity(&self) -> usize {
        self.mask + 1
    }
}

impl<T> Drop for FastForward<T> {
    fn drop(&mut self) {
        // Drop any values still sitting in full slots.
        for slot in self.slots.iter() {
            if slot.full.load(Ordering::Relaxed) {
                // SAFETY: we have exclusive access in drop, and `full`
                // means the slot holds an initialized value.
                unsafe { (*slot.value.get()).assume_init_drop() };
            }
        }
    }
}

/// Error returned by [`Producer::push`] when the queue is full; gives the
/// value back to the caller.
#[derive(Debug, PartialEq, Eq)]
pub struct Full<T>(pub T);

/// The sending endpoint of a [`FastForward`] queue.
pub struct Producer<T> {
    queue: Arc<FastForward<T>>,
    tail: usize,
}

impl<T> Producer<T> {
    /// Attempts to enqueue `value`; fails (returning it) if the next slot is
    /// still occupied, i.e. the queue is full.
    #[inline]
    pub fn push(&mut self, value: T) -> Result<(), Full<T>> {
        let slot = &self.queue.slots[self.tail & self.queue.mask];
        if slot.full.load(Ordering::Acquire) {
            return Err(Full(value));
        }
        // SAFETY: the slot is empty and only this producer writes slots.
        unsafe { (*slot.value.get()).write(value) };
        slot.full.store(true, Ordering::Release);
        self.tail = self.tail.wrapping_add(1);
        Ok(())
    }

    /// Capacity of the underlying ring.
    pub fn capacity(&self) -> usize {
        self.queue.capacity()
    }
}

/// The receiving endpoint of a [`FastForward`] queue.
pub struct Consumer<T> {
    queue: Arc<FastForward<T>>,
    head: usize,
}

impl<T> Consumer<T> {
    /// Attempts to dequeue; returns `None` when the queue is empty.
    #[inline]
    pub fn pop(&mut self) -> Option<T> {
        let slot = &self.queue.slots[self.head & self.queue.mask];
        if !slot.full.load(Ordering::Acquire) {
            return None;
        }
        // SAFETY: `full` guarantees an initialized value and only this
        // consumer reads slots.
        let value = unsafe { (*slot.value.get()).assume_init_read() };
        slot.full.store(false, Ordering::Release);
        self.head = self.head.wrapping_add(1);
        Some(value)
    }

    /// Drains at most `max` elements into `out`; returns how many were moved.
    pub fn pop_into(&mut self, out: &mut Vec<T>, max: usize) -> usize {
        let mut n = 0;
        while n < max {
            match self.pop() {
                Some(v) => {
                    out.push(v);
                    n += 1;
                }
                None => break,
            }
        }
        n
    }

    /// `true` if the head slot is currently empty (racy snapshot).
    pub fn is_empty(&self) -> bool {
        !self.queue.slots[self.head & self.queue.mask]
            .full
            .load(Ordering::Acquire)
    }

    /// Capacity of the underlying ring.
    pub fn capacity(&self) -> usize {
        self.queue.capacity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_pop_roundtrip() {
        let (mut tx, mut rx) = FastForward::with_capacity(8);
        assert!(rx.pop().is_none());
        tx.push(1).unwrap();
        tx.push(2).unwrap();
        assert_eq!(rx.pop(), Some(1));
        assert_eq!(rx.pop(), Some(2));
        assert_eq!(rx.pop(), None);
    }

    #[test]
    fn capacity_rounds_to_power_of_two() {
        let (tx, _rx) = FastForward::<u8>::with_capacity(5);
        assert_eq!(tx.capacity(), 8);
        let (tx, _rx) = FastForward::<u8>::with_capacity(0);
        assert_eq!(tx.capacity(), 2);
    }

    #[test]
    fn full_queue_rejects() {
        let (mut tx, mut rx) = FastForward::with_capacity(2);
        tx.push(10).unwrap();
        tx.push(11).unwrap();
        assert_eq!(tx.push(12), Err(Full(12)));
        assert_eq!(rx.pop(), Some(10));
        tx.push(12).unwrap();
        assert_eq!(rx.pop(), Some(11));
        assert_eq!(rx.pop(), Some(12));
    }

    #[test]
    fn fifo_order_across_threads() {
        const N: u64 = 100_000;
        let (mut tx, mut rx) = FastForward::with_capacity(128);
        std::thread::scope(|s| {
            s.spawn(move || {
                for i in 0..N {
                    let mut v = i;
                    while let Err(Full(back)) = tx.push(v) {
                        v = back;
                        std::hint::spin_loop();
                    }
                }
            });
            s.spawn(move || {
                let mut expected = 0;
                while expected < N {
                    if let Some(v) = rx.pop() {
                        assert_eq!(v, expected);
                        expected += 1;
                    }
                }
            });
        });
    }

    #[test]
    fn pop_into_respects_max() {
        let (mut tx, mut rx) = FastForward::with_capacity(16);
        for i in 0..10 {
            tx.push(i).unwrap();
        }
        let mut out = Vec::new();
        assert_eq!(rx.pop_into(&mut out, 4), 4);
        assert_eq!(out, vec![0, 1, 2, 3]);
        assert_eq!(rx.pop_into(&mut out, 100), 6);
        assert_eq!(out.len(), 10);
    }

    #[test]
    fn drop_releases_queued_values() {
        // Detect leaks/double-drops with a drop counter.
        use std::sync::atomic::AtomicUsize;
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        #[derive(Debug)]
        struct D;
        impl Drop for D {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::SeqCst);
            }
        }
        DROPS.store(0, Ordering::SeqCst);
        {
            let (mut tx, mut rx) = FastForward::with_capacity(8);
            tx.push(D).unwrap();
            tx.push(D).unwrap();
            tx.push(D).unwrap();
            drop(rx.pop()); // one dropped here
        }
        assert_eq!(DROPS.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn is_empty_tracks_head() {
        let (mut tx, mut rx) = FastForward::with_capacity(4);
        assert!(rx.is_empty());
        tx.push(5).unwrap();
        assert!(!rx.is_empty());
        rx.pop();
        assert!(rx.is_empty());
    }
}
