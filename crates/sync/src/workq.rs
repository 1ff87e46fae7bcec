//! Work queues for the level-synchronous BFS frontier.
//!
//! Three designs, matching the paper's progression and the serving layer
//! built on top of it:
//!
//! * [`LockedQueue`] — the naive shared queue of Algorithm 1, where every
//!   `LockedEnqueue`/`LockedDequeue` takes a lock. Kept as the baseline the
//!   optimization study (Fig. 5) starts from.
//! * [`SharedQueue`] — the optimized frontier array. A BFS level only ever
//!   *dequeues* from the current queue and *enqueues* into the next queue,
//!   with a barrier between levels, so each operation reduces to one
//!   `fetch_add` reservation on a cursor plus unsynchronized slot writes,
//!   and dequeues hand out whole **chunks** to amortize the atomic.
//! * [`ContinuousQueue`] — the serving-mode sibling of `SharedQueue`: the
//!   same reserve-then-write idiom bent into a bounded ring so producers
//!   and the consumer overlap indefinitely (no level barrier, no reset).
//!   Slots are published through an in-order commit cursor, so the single
//!   consumer always observes strict ticket (FIFO) order; `try_push`
//!   rejects instead of blocking when the ring is full, which is the
//!   admission-control primitive the query server's load shedding builds
//!   on, and a close flag lets a shutdown drain the queue without racing
//!   late producers.

use crate::ticket::TicketLock;
use core::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
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

/// Why a producer's `try_push` did not enqueue.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PushError {
    /// The ring holds `capacity` uncommitted-or-unconsumed elements; the
    /// caller should shed the item (admission control), not spin.
    Full,
    /// [`ContinuousQueue::close`] was called; no further elements are
    /// admitted, but already-committed ones remain drainable.
    Closed,
}

/// A bounded multi-producer / single-consumer ring with strict FIFO
/// tickets, built for continuous serving (no phases, no reset).
///
/// Producers reserve a **ticket** with a bounded CAS on the tail cursor —
/// the reservation fails with [`PushError::Full`] instead of overwriting or
/// blocking — write their slot, then publish it by advancing the commit
/// cursor *in ticket order* (a short spin while earlier tickets finish
/// their writes). The consumer therefore always sees a contiguous,
/// FIFO-ordered committed prefix: ticket `k` is dequeued `k`-th, which is
/// the property the query batcher's submission-order contract rests on.
///
/// The consumer side is **single-threaded by contract** (one scheduler
/// thread); `pop_chunk`/`peek` are not safe to call concurrently with each
/// other from multiple threads, though they are always memory-safe against
/// producers.
///
/// # Examples
///
/// ```
/// use mcbfs_sync::workq::{ContinuousQueue, PushError};
///
/// let q: ContinuousQueue<u32> = ContinuousQueue::with_capacity(2);
/// assert_eq!(q.try_push(7), Ok(0));
/// assert_eq!(q.try_push(8), Ok(1));
/// assert_eq!(q.try_push(9), Err(PushError::Full));
/// let mut out = Vec::new();
/// assert_eq!(q.pop_chunk(&mut out, 8), 2);
/// assert_eq!(out, vec![(0, 7), (1, 8)]);
/// assert_eq!(q.try_push(9), Ok(2)); // tickets keep counting
/// q.close();
/// assert_eq!(q.try_push(10), Err(PushError::Closed));
/// assert_eq!(q.peek(), Some((2, 9))); // committed items stay drainable
/// ```
pub struct ContinuousQueue<T> {
    slots: Box<[UnsafeCell<T>]>,
    /// Next ticket to consume.
    head: CachePadded<AtomicUsize>,
    /// Tickets `[head, committed)` are written and published.
    committed: CachePadded<AtomicUsize>,
    /// Next ticket to reserve.
    tail: CachePadded<AtomicUsize>,
    closed: AtomicBool,
}

// SAFETY: slot access is mediated by the cursors — producers own the slot
// of their reserved ticket until they advance `committed`, and the single
// consumer only reads tickets below `committed`.
unsafe impl<T: Send + Copy> Send for ContinuousQueue<T> {}
unsafe impl<T: Send + Copy> Sync for ContinuousQueue<T> {}

impl<T: Copy + Default> ContinuousQueue<T> {
    /// A ring holding at most `capacity` in-flight elements (clamped to
    /// ≥ 1).
    pub fn with_capacity(capacity: usize) -> Self {
        let slots: Box<[UnsafeCell<T>]> = (0..capacity.max(1))
            .map(|_| UnsafeCell::new(T::default()))
            .collect();
        Self {
            slots,
            head: CachePadded::new(AtomicUsize::new(0)),
            committed: CachePadded::new(AtomicUsize::new(0)),
            tail: CachePadded::new(AtomicUsize::new(0)),
            closed: AtomicBool::new(false),
        }
    }

    /// Maximum number of in-flight (pushed, not yet popped) elements.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Attempts to enqueue `value`, returning its ticket (the global
    /// submission index, dense from 0) or the reason it was rejected.
    /// Never blocks beyond the in-order commit handoff.
    pub fn try_push(&self, value: T) -> Result<u64, PushError> {
        if self.closed.load(Ordering::Acquire) {
            return Err(PushError::Closed);
        }
        // Reserve a ticket, bounded by the ring: the full check and the
        // reservation are one CAS, so capacity can never be oversubscribed
        // (head only moves forward, which only creates room).
        let mut ticket = self.tail.load(Ordering::Relaxed);
        loop {
            let head = self.head.load(Ordering::Acquire);
            if head > ticket {
                // Stale snapshot: other producers already advanced the tail
                // past our ticket and the consumer drained it. Refresh.
                ticket = self.tail.load(Ordering::Relaxed);
                continue;
            }
            if ticket - head >= self.slots.len() {
                return Err(PushError::Full);
            }
            match self.tail.compare_exchange_weak(
                ticket,
                ticket + 1,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(now) => ticket = now,
            }
        }
        // SAFETY: ticket is ours alone until we advance `committed` past
        // it, and the full check above proved slot `ticket % cap` has been
        // consumed (head > ticket - cap).
        unsafe { *self.slots[ticket % self.slots.len()].get() = value };
        // Publish in ticket order: wait for ticket - 1 to commit first.
        // The wait is bounded by the slot-write time of earlier producers.
        while self.committed.load(Ordering::Acquire) != ticket {
            core::hint::spin_loop();
        }
        self.committed.store(ticket + 1, Ordering::Release);
        Ok(ticket as u64)
    }

    /// Copies up to `max` committed elements (FIFO, tagged with their
    /// tickets) into `out` and consumes them. Returns the number taken.
    /// Single consumer only.
    pub fn pop_chunk(&self, out: &mut Vec<(u64, T)>, max: usize) -> usize {
        let head = self.head.load(Ordering::Relaxed);
        let committed = self.committed.load(Ordering::Acquire);
        let n = (committed - head).min(max);
        for ticket in head..head + n {
            // SAFETY: tickets below `committed` are fully written, and as
            // the only consumer nothing else advances `head` under us; a
            // producer can only reuse the slot after head moves past it.
            let v = unsafe { *self.slots[ticket % self.slots.len()].get() };
            out.push((ticket as u64, v));
        }
        self.head.store(head + n, Ordering::Release);
        n
    }

    /// The front element and its ticket, without consuming it. Single
    /// consumer only.
    pub fn peek(&self) -> Option<(u64, T)> {
        let head = self.head.load(Ordering::Relaxed);
        if self.committed.load(Ordering::Acquire) == head {
            return None;
        }
        // SAFETY: as in `pop_chunk`.
        let v = unsafe { *self.slots[head % self.slots.len()].get() };
        Some((head as u64, v))
    }

    /// Committed elements awaiting the consumer. Racy by nature (producers
    /// and the consumer move concurrently) — a load-time snapshot.
    pub fn len(&self) -> usize {
        let committed = self.committed.load(Ordering::Acquire);
        committed.saturating_sub(self.head.load(Ordering::Acquire))
    }

    /// `true` when no committed element is pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total tickets ever issued (the next push's ticket).
    pub fn tickets_issued(&self) -> u64 {
        self.tail.load(Ordering::Acquire) as u64
    }

    /// Stops admitting new elements; pending ones remain drainable. Part of
    /// the shutdown handshake: close, then drain until [`Self::is_empty`].
    pub fn close(&self) {
        self.closed.store(true, Ordering::Release);
    }

    /// `true` once [`Self::close`] has been called.
    pub fn is_closed(&self) -> bool {
        self.closed.load(Ordering::Acquire)
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
    fn continuous_queue_fifo_tickets_and_ring_reuse() {
        let q: ContinuousQueue<u32> = ContinuousQueue::with_capacity(4);
        let mut out = Vec::new();
        // Three laps around a capacity-4 ring: tickets stay dense and FIFO.
        for lap in 0..3u32 {
            for i in 0..4u32 {
                assert_eq!(q.try_push(lap * 10 + i), Ok((lap * 4 + i) as u64));
            }
            assert_eq!(q.try_push(99), Err(PushError::Full));
            out.clear();
            assert_eq!(q.pop_chunk(&mut out, 2), 2);
            assert_eq!(q.pop_chunk(&mut out, 8), 2);
            let expect: Vec<(u64, u32)> = (0..4u32)
                .map(|i| ((lap * 4 + i) as u64, lap * 10 + i))
                .collect();
            assert_eq!(out, expect);
        }
        assert!(q.is_empty());
        assert_eq!(q.tickets_issued(), 12);
    }

    #[test]
    fn continuous_queue_close_drains_but_rejects() {
        let q: ContinuousQueue<u8> = ContinuousQueue::with_capacity(8);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        assert!(!q.is_closed());
        q.close();
        assert!(q.is_closed());
        assert_eq!(q.try_push(3), Err(PushError::Closed));
        assert_eq!(q.peek(), Some((0, 1)));
        let mut out = Vec::new();
        assert_eq!(q.pop_chunk(&mut out, 10), 2);
        assert_eq!(out, vec![(0, 1), (1, 2)]);
        assert!(q.is_empty());
    }

    #[test]
    fn continuous_queue_concurrent_producers_stay_fifo_by_ticket() {
        const PRODUCERS: usize = 4;
        const PER: usize = 10_000;
        let q: Arc<ContinuousQueue<u64>> = Arc::new(ContinuousQueue::with_capacity(64));
        let drained = Arc::new(TicketLock::new(Vec::<(u64, u64)>::new()));
        std::thread::scope(|s| {
            for t in 0..PRODUCERS as u64 {
                let q = Arc::clone(&q);
                s.spawn(move || {
                    for i in 0..PER as u64 {
                        // Bounded ring: spin on Full like a producer that
                        // got past admission control but found a burst.
                        loop {
                            match q.try_push(t * PER as u64 + i) {
                                Ok(_) => break,
                                Err(PushError::Full) => std::hint::spin_loop(),
                                Err(PushError::Closed) => panic!("never closed"),
                            }
                        }
                    }
                });
            }
            // Single consumer drains concurrently.
            let q = Arc::clone(&q);
            let drained = Arc::clone(&drained);
            s.spawn(move || {
                let mut got = Vec::new();
                while got.len() < PRODUCERS * PER {
                    q.pop_chunk(&mut got, 128);
                }
                *drained.lock() = got;
            });
        });
        let got = drained.lock().clone();
        assert_eq!(got.len(), PRODUCERS * PER);
        // Tickets come out dense and strictly increasing (FIFO), and no
        // value is lost or duplicated.
        for (i, &(ticket, _)) in got.iter().enumerate() {
            assert_eq!(ticket, i as u64);
        }
        let mut values: Vec<u64> = got.iter().map(|&(_, v)| v).collect();
        values.sort_unstable();
        assert_eq!(values, (0..(PRODUCERS * PER) as u64).collect::<Vec<_>>());
        // Per-producer submission order is preserved through the tickets.
        for t in 0..PRODUCERS as u64 {
            let mine: Vec<u64> = got
                .iter()
                .map(|&(_, v)| v)
                .filter(|&v| v / PER as u64 == t)
                .collect();
            assert!(
                mine.windows(2).all(|w| w[0] < w[1]),
                "producer {t} reordered"
            );
        }
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
