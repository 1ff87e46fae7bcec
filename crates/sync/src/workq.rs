//! Work queues for the level-synchronous BFS frontier.
//!
//! Two designs, matching the paper's progression:
//!
//! * [`LockedQueue`] — the naive shared queue of Algorithm 1, where every
//!   `LockedEnqueue`/`LockedDequeue` takes a lock. Kept as the baseline the
//!   optimization study (Fig. 5) starts from.
//! * [`SharedQueue`] — the optimized frontier array. A BFS level only ever
//!   *dequeues* from the current queue and *enqueues* into the next queue,
//!   with a barrier between levels, so each operation reduces to one
//!   `fetch_add` reservation on a cursor plus unsynchronized slot writes,
//!   and dequeues hand out whole **chunks** to amortize the atomic.

use crate::ticket::TicketLock;
use core::sync::atomic::{AtomicUsize, Ordering};
use crossbeam::utils::CachePadded;
use std::cell::UnsafeCell;
use std::collections::VecDeque;

/// A simple lock-protected FIFO queue (`LockedEnqueue` / `LockedDequeue` of
/// Algorithm 1). Correct under any interleaving, slow under contention.
pub struct LockedQueue<T> {
    inner: TicketLock<VecDeque<T>>,
}

impl<T> LockedQueue<T> {
    /// Creates an empty queue with room for `capacity` elements.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            inner: TicketLock::new(VecDeque::with_capacity(capacity)),
        }
    }

    /// Appends one element (one lock round-trip).
    pub fn enqueue(&self, value: T) {
        self.inner.lock().push_back(value);
    }

    /// Removes the front element (one lock round-trip).
    pub fn dequeue(&self) -> Option<T> {
        self.inner.lock().pop_front()
    }

    /// Number of queued elements.
    pub fn len(&self) -> usize {
        self.inner.lock().len()
    }

    /// `true` if no elements are queued.
    pub fn is_empty(&self) -> bool {
        self.inner.lock().is_empty()
    }

    /// Removes all elements.
    pub fn clear(&self) {
        self.inner.lock().clear();
    }
}

impl<T> Default for LockedQueue<T> {
    fn default() -> Self {
        Self::with_capacity(0)
    }
}

/// A fixed-capacity frontier queue with atomic batch reservation.
///
/// Within one BFS level the queue is used in exactly one of two modes:
///
/// * **enqueue mode** (it is the *next* queue): threads reserve slot ranges
///   with one `fetch_add` per batch and fill them without further
///   synchronization;
/// * **dequeue mode** (it is the *current* queue): threads claim chunks of
///   the committed prefix with one `fetch_add` per chunk.
///
/// The level barrier between the two modes publishes the writes, so slots
/// need no per-element flags. The caller is responsible for respecting the
/// mode discipline; all methods are memory-safe regardless, but a dequeue
/// racing an enqueue may observe default-initialized elements, which is why
/// `T: Copy + Default`.
///
/// # Examples
///
/// ```
/// use mcbfs_sync::workq::SharedQueue;
///
/// let q: SharedQueue<u32> = SharedQueue::with_capacity(100);
/// q.push_batch(&[1, 2, 3]);
/// q.push(4);
/// assert_eq!(q.len(), 4);
/// let chunk = q.take_chunk(2).unwrap();
/// assert_eq!(chunk, &[1, 2]);
/// let chunk = q.take_chunk(10).unwrap();
/// assert_eq!(chunk, &[3, 4]);
/// assert!(q.take_chunk(1).is_none());
/// ```
pub struct SharedQueue<T> {
    slots: Box<[UnsafeCell<T>]>,
    /// Next slot to hand out to a dequeuer.
    head: CachePadded<AtomicUsize>,
    /// Next slot to hand out to an enqueuer; `min(tail, capacity)` is the
    /// committed length after the level barrier.
    tail: CachePadded<AtomicUsize>,
}

// SAFETY: concurrent access is mediated by the atomic cursors; racing reads
// and writes never touch the same slot because reservations are disjoint.
unsafe impl<T: Send + Copy> Send for SharedQueue<T> {}
unsafe impl<T: Send + Copy> Sync for SharedQueue<T> {}

impl<T: Copy + Default> SharedQueue<T> {
    /// Creates a queue that can hold up to `capacity` elements between
    /// resets. For a BFS frontier, `capacity = |V|` is always sufficient
    /// because a vertex enters a frontier at most once.
    pub fn with_capacity(capacity: usize) -> Self {
        let slots: Box<[UnsafeCell<T>]> = (0..capacity)
            .map(|_| UnsafeCell::new(T::default()))
            .collect();
        Self {
            slots,
            head: CachePadded::new(AtomicUsize::new(0)),
            tail: CachePadded::new(AtomicUsize::new(0)),
        }
    }

    /// Maximum number of elements the queue can hold.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Appends one element.
    ///
    /// # Panics
    /// Panics if the queue is full — for a BFS frontier that indicates a
    /// logic error (a vertex enqueued twice), so failing loudly is correct.
    #[inline]
    pub fn push(&self, value: T) {
        self.push_batch(core::slice::from_ref(&value));
    }

    /// Appends all of `batch` with a single cursor reservation.
    ///
    /// # Panics
    /// Panics if fewer than `batch.len()` slots remain.
    pub fn push_batch(&self, batch: &[T]) {
        if batch.is_empty() {
            return;
        }
        let start = self.tail.fetch_add(batch.len(), Ordering::Relaxed);
        assert!(
            start + batch.len() <= self.slots.len(),
            "SharedQueue overflow: reserved {}..{} of {} slots",
            start,
            start + batch.len(),
            self.slots.len()
        );
        for (i, v) in batch.iter().enumerate() {
            // SAFETY: slots [start, start+len) are exclusively ours — the
            // fetch_add reservation is disjoint per caller, and dequeuers
            // only read below the committed tail of the *previous* phase.
            unsafe { *self.slots[start + i].get() = *v };
        }
    }

    /// Claims up to `chunk` elements from the front; returns `None` when the
    /// queue is exhausted.
    ///
    /// The returned slice stays valid until [`SharedQueue::reset`]; elements
    /// are not removed from memory, only the cursor advances.
    pub fn take_chunk(&self, chunk: usize) -> Option<&[T]> {
        let chunk = chunk.max(1);
        let committed = self.len_committed();
        let start = self.head.fetch_add(chunk, Ordering::Relaxed);
        if start >= committed {
            return None;
        }
        let end = (start + chunk).min(committed);
        // SAFETY: [start, end) is below the committed tail; the mode
        // discipline guarantees no concurrent writes to those slots, and
        // `T: Copy` means no drop hazards.
        let slice = unsafe {
            core::slice::from_raw_parts(self.slots[start].get() as *const T, end - start)
        };
        Some(slice)
    }

    /// Committed length: number of elements enqueued so far (saturating at
    /// capacity; `tail` may conceptually overshoot only on a panicked push).
    pub fn len_committed(&self) -> usize {
        self.tail.load(Ordering::Acquire).min(self.slots.len())
    }

    /// Number of elements enqueued so far. Meaningful between phases.
    pub fn len(&self) -> usize {
        self.len_committed()
    }

    /// `true` if nothing has been enqueued since the last reset.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// View of the full committed contents (between phases).
    pub fn as_slice(&self) -> &[T] {
        let committed = self.len_committed();
        if committed == 0 {
            return &[];
        }
        // SAFETY: as in `take_chunk`.
        unsafe { core::slice::from_raw_parts(self.slots[0].get() as *const T, committed) }
    }

    /// Empties the queue and rewinds both cursors. Requires `&self` because
    /// the level driver resets queues from the leader thread between
    /// barriers; callers must ensure no concurrent operations.
    pub fn reset(&self) {
        self.head.store(0, Ordering::Relaxed);
        self.tail.store(0, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn locked_queue_fifo() {
        let q = LockedQueue::with_capacity(4);
        assert!(q.is_empty());
        q.enqueue(1);
        q.enqueue(2);
        assert_eq!(q.len(), 2);
        assert_eq!(q.dequeue(), Some(1));
        assert_eq!(q.dequeue(), Some(2));
        assert_eq!(q.dequeue(), None);
    }

    #[test]
    fn locked_queue_clear() {
        let q = LockedQueue::default();
        q.enqueue(9);
        q.clear();
        assert!(q.is_empty());
    }

    #[test]
    fn locked_queue_concurrent_counts() {
        let q = Arc::new(LockedQueue::with_capacity(0));
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let q = Arc::clone(&q);
                s.spawn(move || {
                    for i in 0..1000 {
                        q.enqueue(t * 1000 + i);
                    }
                });
            }
        });
        assert_eq!(q.len(), 4000);
        let mut seen = std::collections::HashSet::new();
        while let Some(v) = q.dequeue() {
            assert!(seen.insert(v));
        }
        assert_eq!(seen.len(), 4000);
    }

    #[test]
    fn shared_queue_basic() {
        let q: SharedQueue<u32> = SharedQueue::with_capacity(8);
        q.push(7);
        q.push_batch(&[8, 9]);
        assert_eq!(q.as_slice(), &[7, 8, 9]);
        assert_eq!(q.take_chunk(2).unwrap(), &[7, 8]);
        assert_eq!(q.take_chunk(2).unwrap(), &[9]);
        assert!(q.take_chunk(2).is_none());
    }

    #[test]
    fn shared_queue_reset() {
        let q: SharedQueue<u32> = SharedQueue::with_capacity(4);
        q.push_batch(&[1, 2]);
        assert_eq!(q.take_chunk(4).unwrap(), &[1, 2]);
        q.reset();
        assert!(q.is_empty());
        assert!(q.take_chunk(1).is_none());
        q.push(3);
        assert_eq!(q.as_slice(), &[3]);
    }

    #[test]
    fn empty_batch_is_noop() {
        let q: SharedQueue<u32> = SharedQueue::with_capacity(2);
        q.push_batch(&[]);
        assert!(q.is_empty());
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn overflow_panics() {
        let q: SharedQueue<u32> = SharedQueue::with_capacity(2);
        q.push_batch(&[1, 2, 3]);
    }

    #[test]
    fn concurrent_enqueue_then_chunked_dequeue() {
        const THREADS: usize = 4;
        const PER: usize = 5_000;
        let q: Arc<SharedQueue<u64>> = Arc::new(SharedQueue::with_capacity(THREADS * PER));
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let q = Arc::clone(&q);
                s.spawn(move || {
                    let base = (t * PER) as u64;
                    let items: Vec<u64> = (0..PER as u64).map(|i| base + i).collect();
                    for batch in items.chunks(97) {
                        q.push_batch(batch);
                    }
                });
            }
        });
        assert_eq!(q.len(), THREADS * PER);
        // Phase 2: concurrent chunked dequeue must hand out each element
        // exactly once.
        let seen: Arc<Vec<core::sync::atomic::AtomicUsize>> = Arc::new(
            (0..THREADS * PER)
                .map(|_| core::sync::atomic::AtomicUsize::new(0))
                .collect(),
        );
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                let q = Arc::clone(&q);
                let seen = Arc::clone(&seen);
                s.spawn(move || {
                    while let Some(chunk) = q.take_chunk(64) {
                        for &v in chunk {
                            seen[v as usize].fetch_add(1, Ordering::SeqCst);
                        }
                    }
                });
            }
        });
        assert!(seen.iter().all(|c| c.load(Ordering::SeqCst) == 1));
    }
}
