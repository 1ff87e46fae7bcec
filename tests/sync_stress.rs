//! Stress tests of the synchronization substrate under realistic BFS-like
//! composition: channels + barriers + pools, and failure injection.

use multicore_bfs::sync::barrier::SpinBarrier;
use multicore_bfs::sync::channel::{ChannelMatrix, SocketChannel};
use multicore_bfs::sync::pool::scoped_run;
use multicore_bfs::sync::ticket::TicketLock;
use multicore_bfs::sync::workq::SharedQueue;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

#[test]
fn two_phase_level_protocol_conserves_tuples() {
    // Mimics one Algorithm 3 level: 2 "sockets" x 2 threads; phase 1 moves
    // each full batch into the channel, barrier, phase 2 receives whole
    // batches until the channel is empty; repeat for several levels.
    const SOCKETS: usize = 2;
    const THREADS: usize = 4;
    const LEVELS: usize = 20;
    const PER_THREAD: usize = 500;
    const BATCH: usize = 64;
    let links: ChannelMatrix<u64> = ChannelMatrix::new(SOCKETS, 1 << 10);
    let barrier = SpinBarrier::new(THREADS);
    let received = AtomicU64::new(0);
    scoped_run(THREADS, |tid| {
        let socket = tid / 2;
        let peer = 1 - socket;
        for level in 0..LEVELS {
            let mut buf = Vec::with_capacity(BATCH);
            for i in 0..PER_THREAD {
                buf.push((level * PER_THREAD + i) as u64);
                if buf.len() == BATCH {
                    links.channel(socket, peer).send(core::mem::take(&mut buf));
                }
            }
            links.channel(socket, peer).send(buf);
            barrier.wait();
            while let Some(batch) = links.channel(peer, socket).recv() {
                received.fetch_add(batch.len() as u64, Ordering::Relaxed);
            }
            barrier.wait();
        }
    });
    assert_eq!(
        received.load(Ordering::Relaxed),
        (THREADS * LEVELS * PER_THREAD) as u64
    );
    assert_eq!(links.channel(0, 1).recv(), None);
    assert_eq!(links.channel(1, 0).recv(), None);
}

#[test]
fn channel_survives_capacity_one() {
    // Degenerate ring: every batch fills its segment, so each send links a
    // new one while the consumer follows (and, on a single-core host,
    // forces a scheduler handoff — keep the count modest).
    const ITEMS: u32 = 500;
    let ch: SocketChannel<u32> = SocketChannel::with_capacity(1);
    scoped_run(2, |tid| {
        if tid == 0 {
            for i in 0..ITEMS {
                ch.send(vec![i]);
            }
        } else {
            let mut got = 0u32;
            while got < ITEMS {
                let Some(batch) = ch.recv() else {
                    std::thread::yield_now();
                    continue;
                };
                assert_eq!(batch, [got]);
                got += 1;
            }
        }
    });
    assert_eq!(ch.recv(), None);
}

#[test]
fn shared_queue_full_bfs_lifecycle() {
    // Frontier parity-swap discipline over many levels with concurrent
    // enqueue/dequeue phases.
    const THREADS: usize = 4;
    const N: usize = 1 << 12;
    let queues: [SharedQueue<u32>; 2] =
        [SharedQueue::with_capacity(N), SharedQueue::with_capacity(N)];
    queues[0].push_batch(&(0..64u32).collect::<Vec<_>>());
    let barrier = SpinBarrier::new(THREADS);
    let total = AtomicU64::new(0);
    scoped_run(THREADS, |_tid| {
        let mut parity = 0;
        for level in 0..6 {
            let cq = &queues[parity];
            let nq = &queues[1 - parity];
            while let Some(chunk) = cq.take_chunk(16) {
                total.fetch_add(chunk.len() as u64, Ordering::Relaxed);
                // Each dequeued element spawns 2 next-level elements until
                // the queue would overflow.
                if level < 5 {
                    let children: Vec<u32> = chunk.iter().map(|&v| v.wrapping_mul(2)).collect();
                    nq.push_batch(&children);
                    let children2: Vec<u32> = chunk
                        .iter()
                        .map(|&v| v.wrapping_mul(2).wrapping_add(1))
                        .collect();
                    nq.push_batch(&children2);
                }
            }
            if barrier.wait() {
                cq.reset();
            }
            barrier.wait();
            parity = 1 - parity;
        }
    });
    // 64 * (1 + 2 + 4 + 8 + 16 + 32) = 64 * 63
    assert_eq!(total.load(Ordering::Relaxed), 64 * 63);
}

#[test]
fn pool_and_barrier_compose_over_many_generations() {
    // One barrier outlives 25 forked teams: its generations must carry
    // over from one parallel region to the next.
    let barrier = SpinBarrier::new(6);
    let counter = AtomicU64::new(0);
    for _ in 0..25 {
        scoped_run(6, |_tid| {
            counter.fetch_add(1, Ordering::Relaxed);
            barrier.wait();
            counter.fetch_add(1, Ordering::Relaxed);
            barrier.wait();
        });
    }
    assert_eq!(counter.load(Ordering::Relaxed), 25 * 6 * 2);
}

#[test]
fn ticket_lock_fifo_under_heavy_contention() {
    // Record acquisition order: with a ticket lock, a thread that queued
    // earlier must never be overtaken twice in a row by the same peer
    // (weak fairness smoke test — strict FIFO is unobservable from outside,
    // but total counts must balance).
    let lock = Arc::new(TicketLock::new(Vec::<usize>::new()));
    scoped_run(4, |tid| {
        for _ in 0..500 {
            lock.lock().push(tid);
        }
    });
    let log = lock.lock();
    assert_eq!(log.len(), 2_000);
    for t in 0..4 {
        assert_eq!(log.iter().filter(|&&x| x == t).count(), 500);
    }
}
