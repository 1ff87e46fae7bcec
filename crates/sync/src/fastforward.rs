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
//!
//! The ring never rejects a value. When the producer finds its next slot
//! still full, it links a fresh ring of the same size — a *segment* — behind
//! the current one and carries on there; the consumer follows the link once
//! it has emptied the old segment, and frees it. So a push never waits for
//! the consumer, values come out in push order, and memory grows with what
//! is pushed and not yet popped.

use core::ptr;
use core::sync::atomic::{AtomicBool, AtomicPtr, Ordering};
use crossbeam::utils::CachePadded;
use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::Arc;

struct Slot<T> {
    full: AtomicBool,
    value: UnsafeCell<MaybeUninit<T>>,
}

/// One ring of the queue, and the link to the ring the producer moved on
/// to once this one filled.
struct Segment<T> {
    slots: Box<[CachePadded<Slot<T>>]>,
    next: AtomicPtr<Segment<T>>,
}

impl<T> Segment<T> {
    /// A heap-allocated empty segment of `cap` slots, as a raw pointer the
    /// queue owns.
    fn alloc(cap: usize) -> *mut Self {
        let slots = (0..cap)
            .map(|_| {
                CachePadded::new(Slot {
                    full: AtomicBool::new(false),
                    value: UnsafeCell::new(MaybeUninit::uninit()),
                })
            })
            .collect();
        Box::into_raw(Box::new(Segment {
            slots,
            next: AtomicPtr::new(ptr::null_mut()),
        }))
    }

    /// The slot of position `index`, wrapped by the power-of-two length.
    #[inline]
    fn slot(&self, index: usize) -> &Slot<T> {
        &self.slots[index & (self.slots.len() - 1)]
    }
}

impl<T> Drop for Segment<T> {
    fn drop(&mut self) {
        for slot in self.slots.iter_mut() {
            if *slot.full.get_mut() {
                // SAFETY: `full` means the slot holds an initialized value,
                // and `&mut self` means no endpoint can reach it.
                unsafe { slot.value.get_mut().assume_init_drop() };
            }
        }
    }
}

/// Unbounded single-producer/single-consumer lock-free queue: a chain of
/// fixed-size rings.
///
/// Use [`FastForward::with_capacity`] and split it into a
/// ([`Producer`], [`Consumer`]) pair, each of which can move to its own
/// thread. Segment capacities are rounded up to a power of two so index
/// wrapping is a mask.
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
///             tx.push(i);
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
    /// The consumer's segment, the oldest one still linked; every later one
    /// hangs off its `next` chain.
    first: AtomicPtr<Segment<T>>,
    /// Slots per segment.
    capacity: usize,
}

// SAFETY: `first` and `capacity` are only read or written as the endpoints
// describe: the producer/consumer split allows at most one writer and one
// reader per slot at a time, mediated by the `full` flag, a segment is
// freed only by the consumer once the producer has linked past it, and
// values of `T: Send` may be dropped on whichever thread drops the queue.
unsafe impl<T: Send> Send for FastForward<T> {}
unsafe impl<T: Send> Sync for FastForward<T> {}

impl<T> FastForward<T> {
    /// Creates a queue whose segments hold at least `capacity` slots
    /// (rounded up to a power of two, minimum 2) and splits it into its
    /// producer and consumer endpoints.
    pub fn with_capacity(capacity: usize) -> (Producer<T>, Consumer<T>) {
        let cap = capacity.max(2).next_power_of_two();
        let segment = Segment::alloc(cap);
        let q = Arc::new(FastForward {
            first: AtomicPtr::new(segment),
            capacity: cap,
        });
        (
            Producer {
                queue: Arc::clone(&q),
                segment,
                tail: 0,
            },
            Consumer {
                queue: q,
                segment,
                head: 0,
            },
        )
    }
}

impl<T> Drop for FastForward<T> {
    fn drop(&mut self) {
        // Both endpoints are gone: free the chain, dropping what was never
        // popped.
        let mut segment = *self.first.get_mut();
        while !segment.is_null() {
            // SAFETY: every linked segment came from `Segment::alloc` and is
            // owned by the chain alone now.
            let mut owned = unsafe { Box::from_raw(segment) };
            segment = *owned.next.get_mut();
        }
    }
}

/// The sending endpoint of a [`FastForward`] queue.
pub struct Producer<T> {
    queue: Arc<FastForward<T>>,
    segment: *mut Segment<T>,
    tail: usize,
}

// SAFETY: `queue` keeps the chain that `segment` points into allocated, and
// only this endpoint writes the slots of `segment` and moves `tail`; the
// values it sends are `T: Send`.
unsafe impl<T: Send> Send for Producer<T> {}

impl<T> Producer<T> {
    /// Enqueues `value`. When the next slot is still full, links a fresh
    /// segment and writes there: a push never fails and never waits.
    #[inline]
    pub fn push(&mut self, value: T) {
        let mut slot = self.slot();
        if slot.full.load(Ordering::Acquire) {
            slot = self.link_segment();
        }
        // SAFETY: the slot is empty and only this producer writes slots.
        unsafe { (*slot.value.get()).write(value) };
        slot.full.store(true, Ordering::Release);
        self.tail = self.tail.wrapping_add(1);
    }

    /// The slot the next push writes.
    #[inline]
    fn slot(&self) -> &Slot<T> {
        // SAFETY: the consumer frees a segment only after following its
        // link, and once `link_segment` sets that link the producer's
        // segment is the new one.
        unsafe { (*self.segment).slot(self.tail) }
    }

    /// Links a fresh segment behind the full one and moves to its first
    /// slot.
    #[cold]
    fn link_segment(&mut self) -> &Slot<T> {
        let next = Segment::alloc(self.capacity());
        // SAFETY: the segment is still the producer's (see `slot`). Release
        // pairs with the consumer's acquiring load of the link, so a consumer
        // that sees the link also sees every value written here before it.
        unsafe { (*self.segment).next.store(next, Ordering::Release) };
        self.segment = next;
        self.tail = 0;
        self.slot()
    }

    /// Capacity of one segment in slots.
    pub fn capacity(&self) -> usize {
        self.queue.capacity
    }
}

/// The receiving endpoint of a [`FastForward`] queue.
pub struct Consumer<T> {
    queue: Arc<FastForward<T>>,
    segment: *mut Segment<T>,
    head: usize,
}

// SAFETY: `queue` keeps the chain that `segment` points into allocated, and
// only this endpoint reads the slots of `segment`, moves `head` and frees a
// drained segment; the values it takes are `T: Send`.
unsafe impl<T: Send> Send for Consumer<T> {}

impl<T> Consumer<T> {
    /// Dequeues the oldest value; returns `None` when the queue is empty.
    #[inline]
    pub fn pop(&mut self) -> Option<T> {
        loop {
            // SAFETY: only `follow_link` frees a segment, and it first moves
            // the consumer off it.
            let slot = unsafe { (*self.segment).slot(self.head) };
            if slot.full.load(Ordering::Acquire) {
                // SAFETY: `full` guarantees an initialized value and only
                // this consumer reads slots.
                let value = unsafe { (*slot.value.get()).assume_init_read() };
                slot.full.store(false, Ordering::Release);
                self.head = self.head.wrapping_add(1);
                return Some(value);
            }
            if !self.follow_link() {
                return None;
            }
        }
    }

    /// Called on an empty head slot: moves to the next segment and frees
    /// this one once the producer has linked past it and it is drained.
    /// Returns `false` when there is no link, so the queue is empty.
    #[cold]
    fn follow_link(&mut self) -> bool {
        // SAFETY: the consumer's segment is allocated until the free below.
        let segment = unsafe { &*self.segment };
        let next = segment.next.load(Ordering::Acquire);
        if next.is_null() {
            return false;
        }
        // The producer wrote every value of this segment before linking,
        // but the caller's load of the head slot may have missed the last
        // one; only now, after the acquiring load of the link, does an
        // empty head slot mean the segment is drained.
        if segment.slot(self.head).full.load(Ordering::Acquire) {
            return true;
        }
        // Relaxed: the queue reads `first` only in its `Drop`, which the
        // `Arc` orders after this endpoint's last use.
        self.queue.first.store(next, Ordering::Relaxed);
        // SAFETY: the producer has moved to `next` and never writes here
        // again, no slot is full, and nothing else points at the segment.
        drop(unsafe { Box::from_raw(self.segment) });
        self.segment = next;
        self.head = 0;
        true
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_pop_roundtrip() {
        let (mut tx, mut rx) = FastForward::with_capacity(8);
        assert!(rx.pop().is_none());
        tx.push(1);
        tx.push(2);
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
    fn full_segment_links_the_next() {
        let (mut tx, mut rx) = FastForward::with_capacity(2);
        tx.push(10);
        tx.push(11);
        tx.push(12); // the third push opens a second segment
        assert_eq!(rx.pop(), Some(10));
        tx.push(13); // still the second segment: the first is never reused
        assert_eq!(rx.pop(), Some(11));
        assert_eq!(rx.pop(), Some(12));
        assert_eq!(rx.pop(), Some(13));
        assert_eq!(rx.pop(), None);
        tx.push(14);
        assert_eq!(rx.pop(), Some(14));
    }

    #[test]
    fn fifo_order_across_threads() {
        // Two-slot segments: the producer links a new one every time it
        // laps the consumer, so the consumer keeps meeting fresh links.
        // Four queues at once oversubscribe the cores, so the scheduler
        // also preempts consumers between their load of an empty slot and
        // their load of the link, where a producer can fill the slot and
        // link past it.
        const N: u64 = 100_000;
        std::thread::scope(|s| {
            for _ in 0..4 {
                let (mut tx, mut rx) = FastForward::with_capacity(2);
                s.spawn(move || {
                    for i in 0..N {
                        tx.push(i);
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
                    assert_eq!(rx.pop(), None);
                });
            }
        });
    }

    #[test]
    fn pop_into_respects_max() {
        let (mut tx, mut rx) = FastForward::with_capacity(16);
        for i in 0..10 {
            tx.push(i);
        }
        let mut out = Vec::new();
        assert_eq!(rx.pop_into(&mut out, 4), 4);
        assert_eq!(out, vec![0, 1, 2, 3]);
        assert_eq!(rx.pop_into(&mut out, 100), 6);
        assert_eq!(out.len(), 10);
    }

    #[test]
    fn drop_releases_queued_values() {
        // Detect leaks/double-drops with a drop counter. Ten values fill
        // five two-slot segments; one is popped, and the four segments
        // linked after the first are never reached by the consumer.
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
            let (mut tx, mut rx) = FastForward::with_capacity(2);
            for _ in 0..10 {
                tx.push(D);
            }
            drop(rx.pop()); // one dropped here
            assert_eq!(DROPS.load(Ordering::SeqCst), 1);
        }
        assert_eq!(DROPS.load(Ordering::SeqCst), 10);
    }
}
