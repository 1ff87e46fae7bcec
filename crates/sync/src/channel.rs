//! Inter-socket communication channels.
//!
//! The paper's key optimization (§III, Algorithm 3): a *remote channel* is a
//! [`FastForward`] queue whose producer and consumer endpoints are each
//! protected by a [`TicketLock`], so that the many threads of a socket can
//! share one low-coherence-traffic queue per destination socket. Insertions
//! are **batched** — "rather than inserting at a granularity of a single
//! vertex, each thread batches a set of vertices to amortize the locking
//! overhead" — bringing the normalized cost per vertex insertion to ~30 ns
//! on the paper's Nehalem systems.

use crate::fastforward::{Consumer, FastForward, Producer};
use crate::ticket::TicketLock;

use mcbfs_trace::{EventKind, SpanTimer};

/// A multi-producer/multi-consumer channel of batches built from a
/// FastForward SPSC queue with a ticket lock on each endpoint.
///
/// Each slot carries one sender's whole batch, a `Vec<T>` — the pointer
/// payload of Giacomoni's original FastForward — so a send or a receive is
/// one lock round-trip and one slot, whatever the batch length. A send
/// never blocks and never fails: when the ring is full the queue links a
/// fresh segment, so memory grows with the batches sent and not yet
/// received. Batches come out in the order their sends took the lock. The
/// channel keeps no count of its own, so the only state producers and
/// consumers share is the segments' slots.
///
/// # Examples
///
/// ```
/// use mcbfs_sync::channel::SocketChannel;
///
/// let ch: SocketChannel<u64> = SocketChannel::with_capacity(1024);
/// ch.send(vec![1, 2, 3]);
/// ch.send(vec![4]);
/// assert_eq!(ch.recv(), Some(vec![1, 2, 3]));
/// assert_eq!(ch.recv(), Some(vec![4]));
/// assert_eq!(ch.recv(), None);
/// ```
pub struct SocketChannel<T> {
    tx: TicketLock<Producer<Vec<T>>>,
    rx: TicketLock<Consumer<Vec<T>>>,
}

impl<T> SocketChannel<T> {
    /// Creates a channel whose queue segments hold at least `capacity`
    /// batches each.
    pub fn with_capacity(capacity: usize) -> Self {
        let (tx, rx) = FastForward::with_capacity(capacity);
        Self {
            tx: TicketLock::new(tx),
            rx: TicketLock::new(rx),
        }
    }

    /// Sends `batch` as one slot, taking the producer lock once.
    ///
    /// Traced as a [`EventKind::ChannelSend`] span carrying the batch
    /// length.
    pub fn send(&self, batch: Vec<T>) {
        let send = SpanTimer::start();
        let items = batch.len() as u64;
        self.tx.lock().push(batch);
        send.finish(EventKind::ChannelSend, items);
    }

    /// Receives the oldest batch, taking the consumer lock once; `None`
    /// when the channel is empty.
    ///
    /// A batch is traced as a [`EventKind::ChannelRecv`] span carrying its
    /// length. Empty polls are not recorded: phase 2 of Algorithm 3 polls
    /// until empty and would flood the trace with no-op drains.
    pub fn recv(&self) -> Option<Vec<T>> {
        let recv = SpanTimer::start();
        let batch = self.rx.lock().pop()?;
        recv.finish(EventKind::ChannelRecv, batch.len() as u64);
        Some(batch)
    }
}

/// The full mesh of channels between `sockets` sockets: one
/// [`SocketChannel`] per ordered (from, to) pair with `from != to`.
///
/// A thread on socket `from` sends into `channel(from, to)`, and socket
/// `to` drains every `channel(from, to)` in phase 2 of a level.
/// The paper allocates each socket's queue in that socket's local memory;
/// here placement is captured by the index structure (and by the machine
/// model, which charges remote-write costs for the producer side).
pub struct ChannelMatrix<T> {
    sockets: usize,
    /// Row-major `[from][to]`; the diagonal holds unused minimal channels
    /// to keep indexing branch-free.
    channels: Vec<SocketChannel<T>>,
}

impl<T> ChannelMatrix<T> {
    /// Builds an all-pairs mesh for `sockets` sockets, each channel's
    /// segments holding `capacity` batches.
    pub fn new(sockets: usize, capacity: usize) -> Self {
        assert!(sockets >= 1, "need at least one socket");
        let channels = (0..sockets * sockets)
            .map(|i| {
                let diagonal = i % (sockets + 1) == 0;
                SocketChannel::with_capacity(if diagonal { 0 } else { capacity })
            })
            .collect();
        Self { sockets, channels }
    }

    /// The channel from socket `from` to socket `to`.
    ///
    /// # Panics
    /// Panics if `from == to` (local vertices never go through a channel) or
    /// either index is out of range.
    pub fn channel(&self, from: usize, to: usize) -> &SocketChannel<T> {
        assert!(from != to, "local traffic must not use the channel mesh");
        assert!(from < self.sockets && to < self.sockets);
        &self.channels[from * self.sockets + to]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use core::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn batch_roundtrip() {
        let ch = SocketChannel::with_capacity(16);
        let items: Vec<u32> = (0..10).collect();
        ch.send(items.clone());
        assert_eq!(ch.recv(), Some(items));
        assert_eq!(ch.recv(), None);
    }

    #[test]
    fn batches_past_three_segments_arrive_in_send_order() {
        // Nothing is received while the sender fills more than three
        // segments, as in phase 1 of an Algorithm 3 level.
        let ch = SocketChannel::with_capacity(4);
        let batches: Vec<Vec<u32>> = (0..3 * 4 + 3).map(|b| (b..b + 5).collect()).collect();
        for batch in &batches {
            ch.send(batch.clone());
        }
        let received: Vec<Vec<u32>> = std::iter::from_fn(|| ch.recv()).collect();
        assert_eq!(received, batches);
    }

    #[test]
    fn multi_producer_multi_consumer_preserves_elements() {
        const PRODUCERS: usize = 4;
        const CONSUMERS: usize = 2;
        const PER: u64 = 10_000;
        let ch = Arc::new(SocketChannel::with_capacity(16));
        let sum = Arc::new(AtomicU64::new(0));
        let received = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|s| {
            for p in 0..PRODUCERS as u64 {
                let ch = Arc::clone(&ch);
                s.spawn(move || {
                    let items: Vec<u64> = (p * PER..(p + 1) * PER).collect();
                    for batch in items.chunks(64) {
                        ch.send(batch.to_vec());
                    }
                });
            }
            for _ in 0..CONSUMERS {
                let ch = Arc::clone(&ch);
                let sum = Arc::clone(&sum);
                let received = Arc::clone(&received);
                s.spawn(move || {
                    let total = PRODUCERS as u64 * PER;
                    while received.load(Ordering::Acquire) < total as usize {
                        if let Some(batch) = ch.recv() {
                            let local: u64 = batch.iter().sum();
                            sum.fetch_add(local, Ordering::Relaxed);
                            received.fetch_add(batch.len(), Ordering::AcqRel);
                        }
                    }
                });
            }
        });
        let total = PRODUCERS as u64 * PER;
        assert_eq!(sum.load(Ordering::SeqCst), total * (total - 1) / 2);
        assert_eq!(ch.recv(), None);
    }

    #[test]
    fn matrix_indexing_and_incoming() {
        let m: ChannelMatrix<u32> = ChannelMatrix::new(3, 8);
        m.channel(0, 1).send(vec![1, 2]);
        m.channel(2, 1).send(vec![3]);
        let m = &m;
        let mut got: Vec<u32> = [0, 2]
            .into_iter()
            .flat_map(|from| std::iter::from_fn(move || m.channel(from, 1).recv()))
            .flatten()
            .collect();
        got.sort_unstable();
        assert_eq!(got, vec![1, 2, 3]);
        assert_eq!(m.channel(1, 0).recv(), None);
    }

    #[test]
    #[should_panic(expected = "local traffic")]
    fn matrix_rejects_diagonal() {
        let m: ChannelMatrix<u32> = ChannelMatrix::new(2, 8);
        let _ = m.channel(1, 1);
    }
}
