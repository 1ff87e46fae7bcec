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

/// A multi-producer/multi-consumer channel built from a FastForward SPSC
/// queue with a ticket lock on each endpoint.
///
/// Sends and receives are batch-oriented and never block: a send delivers
/// the prefix that fits in the ring and hands the rest back to the caller
/// (Algorithm 3 spills it into an overflow lane), and a receive returns
/// what is available. The channel keeps no count of its own, so the only
/// state producers and consumers share is the ring's slots.
///
/// # Examples
///
/// ```
/// use mcbfs_sync::channel::SocketChannel;
///
/// let ch: SocketChannel<u64> = SocketChannel::with_capacity(1024);
/// assert_eq!(ch.try_send_batch(&[1, 2, 3]), 3);
/// let mut out = Vec::new();
/// ch.recv_batch(&mut out, usize::MAX);
/// assert_eq!(out, vec![1, 2, 3]);
/// ```
pub struct SocketChannel<T> {
    tx: TicketLock<Producer<T>>,
    rx: TicketLock<Consumer<T>>,
}

impl<T> SocketChannel<T> {
    /// Creates a channel whose internal ring holds at least `capacity`
    /// elements.
    pub fn with_capacity(capacity: usize) -> Self {
        let (tx, rx) = FastForward::with_capacity(capacity);
        Self {
            tx: TicketLock::new(tx),
            rx: TicketLock::new(rx),
        }
    }

    /// Sends as many elements of `items` as currently fit in the ring,
    /// taking the producer lock once, and returns how many were sent (a
    /// prefix of `items`). Never spins — callers that must not block while
    /// their own socket's consumers are busy (phase 1 of Algorithm 3) use
    /// this and divert the remainder to an overflow buffer.
    ///
    /// Traced as a [`EventKind::ChannelSend`] span carrying the elements
    /// sent, followed by a [`EventKind::ChannelStall`] instant carrying the
    /// elements left over when some did not fit.
    pub fn try_send_batch(&self, items: &[T]) -> usize
    where
        T: Copy,
    {
        let send = SpanTimer::start();
        let mut tx = self.tx.lock();
        let mut sent = 0;
        for &v in items {
            if tx.push(v).is_err() {
                break;
            }
            sent += 1;
        }
        drop(tx);
        send.finish(EventKind::ChannelSend, sent as u64);
        if send.is_armed() && sent < items.len() {
            mcbfs_trace::instant(EventKind::ChannelStall, (items.len() - sent) as u64);
        }
        sent
    }

    /// Receives up to `max` elements into `out`, taking the consumer lock
    /// once. Returns the number of elements appended.
    pub fn recv_batch(&self, out: &mut Vec<T>, max: usize) -> usize {
        let recv = SpanTimer::start();
        let mut rx = self.rx.lock();
        let n = rx.pop_into(out, max);
        drop(rx);
        if n > 0 {
            // Empty polls are not recorded: phase 2 of Algorithm 3 polls
            // in a loop and would flood the trace with no-op drains.
            recv.finish(EventKind::ChannelRecv, n as u64);
        }
        n
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
    /// Builds an all-pairs mesh for `sockets` sockets, each channel with
    /// `capacity` slots.
    pub fn new(sockets: usize, capacity: usize) -> Self {
        assert!(sockets >= 1, "need at least one socket");
        let channels = (0..sockets * sockets)
            .map(|_| SocketChannel::with_capacity(capacity))
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
        assert_eq!(ch.try_send_batch(&items), 10);
        let mut out = Vec::new();
        assert_eq!(ch.recv_batch(&mut out, 100), 10);
        assert_eq!(out, items);
        assert_eq!(ch.recv_batch(&mut out, 100), 0);
    }

    #[test]
    fn recv_respects_max() {
        let ch = SocketChannel::with_capacity(16);
        let items: Vec<u32> = (0..10).collect();
        ch.try_send_batch(&items);
        let mut out = Vec::new();
        assert_eq!(ch.recv_batch(&mut out, 3), 3);
        assert_eq!(ch.recv_batch(&mut out, usize::MAX), 7);
    }

    #[test]
    fn multi_producer_multi_consumer_preserves_elements() {
        const PRODUCERS: usize = 4;
        const CONSUMERS: usize = 2;
        const PER: u64 = 10_000;
        let ch = Arc::new(SocketChannel::with_capacity(256));
        let sum = Arc::new(AtomicU64::new(0));
        let received = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|s| {
            for p in 0..PRODUCERS as u64 {
                let ch = Arc::clone(&ch);
                s.spawn(move || {
                    let items: Vec<u64> = (p * PER..(p + 1) * PER).collect();
                    for batch in items.chunks(64) {
                        let mut sent = ch.try_send_batch(batch);
                        while sent < batch.len() {
                            std::thread::yield_now();
                            sent += ch.try_send_batch(&batch[sent..]);
                        }
                    }
                });
            }
            for _ in 0..CONSUMERS {
                let ch = Arc::clone(&ch);
                let sum = Arc::clone(&sum);
                let received = Arc::clone(&received);
                s.spawn(move || {
                    let mut out = Vec::new();
                    let total = PRODUCERS as u64 * PER;
                    while received.load(Ordering::Acquire) < total as usize {
                        out.clear();
                        let n = ch.recv_batch(&mut out, 128);
                        if n > 0 {
                            let local: u64 = out.iter().sum();
                            sum.fetch_add(local, Ordering::Relaxed);
                            received.fetch_add(n, Ordering::AcqRel);
                        }
                    }
                });
            }
        });
        let total = PRODUCERS as u64 * PER;
        assert_eq!(sum.load(Ordering::SeqCst), total * (total - 1) / 2);
        assert_eq!(ch.recv_batch(&mut Vec::new(), usize::MAX), 0);
    }

    #[test]
    fn try_send_batch_sends_prefix_without_blocking() {
        let ch = SocketChannel::with_capacity(4);
        let items = [1u32, 2, 3, 4, 5, 6];
        let sent = ch.try_send_batch(&items);
        assert_eq!(sent, 4);
        // Nothing fits now.
        assert_eq!(ch.try_send_batch(&items[sent..]), 0);
        let mut out = Vec::new();
        ch.recv_batch(&mut out, 2);
        assert_eq!(ch.try_send_batch(&items[sent..]), 2);
        ch.recv_batch(&mut out, usize::MAX);
        assert_eq!(out, vec![1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn matrix_indexing_and_incoming() {
        let m: ChannelMatrix<u32> = ChannelMatrix::new(3, 8);
        m.channel(0, 1).try_send_batch(&[1, 2]);
        m.channel(2, 1).try_send_batch(&[3]);
        let mut got = Vec::new();
        for from in [0, 2] {
            m.channel(from, 1).recv_batch(&mut got, usize::MAX);
        }
        got.sort_unstable();
        assert_eq!(got, vec![1, 2, 3]);
        assert_eq!(m.channel(1, 0).recv_batch(&mut got, usize::MAX), 0);
    }

    #[test]
    #[should_panic(expected = "local traffic")]
    fn matrix_rejects_diagonal() {
        let m: ChannelMatrix<u32> = ChannelMatrix::new(2, 8);
        let _ = m.channel(1, 1);
    }
}
