//! Algorithm 3: the multi-socket BFS with inter-socket channels.
//!
//! The paper's key insight (Fig. 3): random atomic updates cannot scale
//! across sockets — coherence traffic for line invalidation and cache
//! locking means "using 8 cores on two sockets, we achieve the same
//! processing rate of only 3 cores on a single socket". Algorithm 3
//! therefore makes *all* atomics socket-local:
//!
//! * the vertex range is partitioned, one block per socket, and each
//!   socket owns the parent slots, bitmap shard and frontier queues of its
//!   block;
//! * a thread that discovers a neighbour owned by another socket does not
//!   touch that socket's state — it enqueues the `(vertex, parent)` tuple
//!   into a batched FastForward channel toward the owner;
//! * each level runs in two phases: scan the local frontier (enqueueing
//!   remote discoveries into channels), synchronize, then drain the
//!   incoming channels — so the receiving socket applies all claims with
//!   purely local atomics.
//!
//! On a host with fewer sockets than requested the "sockets" are thread
//! groups; the algorithm is identical and the machine model prices the
//! channel traffic as if the groups were physical sockets.

use crate::algo::parents::AtomicParents;
use crate::algo::{NativeRun, DEQUEUE_CHUNK, ENQUEUE_BATCH};
use crate::instrument::Recorder;
use core::sync::atomic::{AtomicBool, Ordering};
use mcbfs_graph::bitmap::AtomicBitmap;
use mcbfs_graph::csr::{CsrGraph, VertexId};
use mcbfs_graph::partition::VertexPartition;
use mcbfs_machine::profile::ThreadCounts;
use mcbfs_sync::barrier::SpinBarrier;
use mcbfs_sync::channel::ChannelMatrix;
use mcbfs_sync::pool::scoped_run;
use mcbfs_sync::ticket::TicketLock;
use mcbfs_sync::workq::SharedQueue;
use mcbfs_trace::{EventKind, SpanTimer};
use std::time::Instant;

/// A `(vertex, parent)` tuple travelling through an inter-socket channel —
/// line 26 of the paper's Algorithm 3.
pub type Hop = (VertexId, VertexId);

/// Configuration for Algorithm 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MultiSocketOpts {
    /// Number of socket groups (each gets a vertex block, a bitmap shard,
    /// its own frontier queues, and channel endpoints).
    pub sockets: usize,
    /// Remote tuples buffered per destination before a channel flush; 1
    /// disables batching (the Fig. 5 ablation).
    pub batch: usize,
    /// Plain-load check before the claiming atomic (as in Algorithm 2).
    pub test_then_set: bool,
    /// Ring capacity of each inter-socket channel.
    pub channel_capacity: usize,
}

impl Default for MultiSocketOpts {
    fn default() -> Self {
        Self {
            sockets: 2,
            batch: ENQUEUE_BATCH,
            test_then_set: true,
            channel_capacity: 1 << 12,
        }
    }
}

impl MultiSocketOpts {
    /// Options for `sockets` socket groups, defaults otherwise.
    pub fn with_sockets(sockets: usize) -> Self {
        Self {
            sockets,
            ..Self::default()
        }
    }
}

/// Runs Algorithm 3 from `root` on `threads` workers in `opts.sockets`
/// groups.
pub fn bfs_multi_socket(
    graph: &CsrGraph,
    root: VertexId,
    threads: usize,
    opts: MultiSocketOpts,
) -> NativeRun {
    let n = graph.num_vertices();
    assert!((root as usize) < n, "root {root} out of range 0..{n}");
    let sockets = opts.sockets.max(1);
    let threads = threads.max(sockets);
    let batch = opts.batch.max(1);
    let partition = VertexPartition::new(n, sockets);
    let parents = AtomicParents::new(n);
    parents.store(root, root);
    let bitmaps: Vec<AtomicBitmap> = (0..sockets)
        .map(|s| AtomicBitmap::new(partition.len(s)))
        .collect();
    let root_socket = partition.socket_of(root);
    bitmaps[root_socket].set_atomic(partition.local_index(root));
    let queues: [Vec<SharedQueue<VertexId>>; 2] = [
        (0..sockets)
            .map(|s| SharedQueue::with_capacity(partition.len(s).max(1)))
            .collect(),
        (0..sockets)
            .map(|s| SharedQueue::with_capacity(partition.len(s).max(1)))
            .collect(),
    ];
    queues[0][root_socket].push(root);
    let links = ChannelMatrix::<Hop>::new(sockets, opts.channel_capacity);
    let overflows: Vec<TicketLock<Vec<Hop>>> = (0..sockets * sockets)
        .map(|_| TicketLock::new(Vec::new()))
        .collect();
    let barrier = SpinBarrier::new(threads);
    let done = AtomicBool::new(false);
    let recorder = Recorder::new(threads, sockets, 3);
    let edge_total: TicketLock<u64> = TicketLock::new(0);
    let socket_of_thread = |tid: usize| -> usize { tid * sockets / threads };

    let start = Instant::now();
    scoped_run(threads, |tid| {
        mcbfs_trace::register_worker(tid);
        let this = socket_of_thread(tid);
        let mut series: Vec<ThreadCounts> = Vec::new();
        let mut parity = 0usize;
        let mut local_edges = 0u64;
        let mut local_buf: Vec<VertexId> = Vec::with_capacity(ENQUEUE_BATCH);
        let mut remote_bufs: Vec<Vec<Hop>> =
            (0..sockets).map(|_| Vec::with_capacity(batch)).collect();
        let mut scratch: Vec<Hop> = Vec::with_capacity(1024);

        // Claims `v` (a vertex owned by socket `s`) for `parent`, updating
        // shared state and `counts`; returns true on ownership.
        let claim_local = |s: usize,
                           v: VertexId,
                           parent: VertexId,
                           counts: &mut ThreadCounts,
                           local_buf: &mut Vec<VertexId>,
                           nq: &SharedQueue<VertexId>| {
            let bit = partition.local_index(v);
            counts.bitmap_reads += 1;
            let outcome = if opts.test_then_set {
                bitmaps[s].claim(bit)
            } else {
                bitmaps[s].set_atomic(bit)
            };
            if outcome.used_atomic() {
                counts.atomic_ops += 1;
            }
            if outcome.claimed() {
                parents.store(v, parent);
                counts.parent_writes += 1;
                counts.queue_pushes += 1;
                local_buf.push(v);
                if local_buf.len() == ENQUEUE_BATCH {
                    counts.atomic_ops += 1;
                    nq.push_batch(local_buf);
                    local_buf.clear();
                }
            }
        };

        loop {
            let level_index = series.len() as u64;
            let level_span = SpanTimer::start();
            let cq = &queues[parity][this];
            let nq = &queues[1 - parity][this];
            let mut counts = ThreadCounts::default();

            // ---- Phase 1: scan the local frontier. ----
            while let Some(chunk) = cq.take_chunk(DEQUEUE_CHUNK) {
                counts.atomic_ops += 1;
                for &u in chunk {
                    counts.vertices_scanned += 1;
                    for &v in graph.neighbors(u) {
                        counts.edges_scanned += 1;
                        let dst = partition.socket_of(v);
                        if dst == this {
                            claim_local(this, v, u, &mut counts, &mut local_buf, nq);
                        } else {
                            let rb = &mut remote_bufs[dst];
                            rb.push((v, u));
                            counts.channel_items += 1;
                            if rb.len() >= batch {
                                counts.channel_batches += 1;
                                flush_remote(&links, &overflows, sockets, this, dst, rb);
                            }
                        }
                    }
                }
            }
            for (dst, rb) in remote_bufs.iter_mut().enumerate() {
                if dst != this && !rb.is_empty() {
                    counts.channel_batches += 1;
                    flush_remote(&links, &overflows, sockets, this, dst, rb);
                }
            }
            barrier.wait();

            // ---- Phase 2: drain this socket's incoming channels. ----
            for from in 0..sockets {
                if from == this {
                    continue;
                }
                let ch = links.channel(from, this);
                loop {
                    scratch.clear();
                    if ch.recv_batch(&mut scratch, 1024) == 0 {
                        break;
                    }
                    for &(v, u) in &scratch {
                        counts.channel_drained += 1;
                        claim_local(this, v, u, &mut counts, &mut local_buf, nq);
                    }
                }
                // Overflow lane (rare): whichever of the socket's threads
                // arrives first takes the whole vector.
                let spilled = core::mem::take(&mut *overflows[from * sockets + this].lock());
                for (v, u) in spilled {
                    counts.channel_drained += 1;
                    claim_local(this, v, u, &mut counts, &mut local_buf, nq);
                }
            }
            if !local_buf.is_empty() {
                counts.atomic_ops += 1;
                nq.push_batch(&local_buf);
                local_buf.clear();
            }
            local_edges += counts.edges_scanned;
            series.push(counts);
            barrier.wait();

            // ---- Level bookkeeping (global leader). ----
            if tid == 0 {
                let next_empty = queues[1 - parity].iter().all(|q| q.is_empty());
                for q in &queues[parity] {
                    q.reset();
                }
                done.store(next_empty, Ordering::Release);
            }
            barrier.wait();
            level_span.finish(EventKind::Level, level_index);
            parity = 1 - parity;
            if done.load(Ordering::Acquire) {
                break;
            }
        }
        *edge_total.lock() += local_edges;
        recorder.deposit(tid, series);
        mcbfs_trace::flush_thread();
    });
    let seconds = start.elapsed().as_secs_f64();
    let edges_traversed = edge_total.into_inner();
    let profile = recorder.into_profile(n as u64, (n as u64).div_ceil(8), true, edges_traversed);
    let parents = parents.into_vec();
    let visited = parents
        .iter()
        .filter(|&&p| p != mcbfs_graph::csr::UNVISITED)
        .count() as u64;
    NativeRun {
        parents,
        profile,
        seconds,
        visited,
    }
}

/// Pushes a remote buffer through the bounded channel, spilling whatever
/// does not fit into the overflow lane; the buffer is left empty.
fn flush_remote(
    links: &ChannelMatrix<Hop>,
    overflows: &[TicketLock<Vec<Hop>>],
    sockets: usize,
    from: usize,
    to: usize,
    buf: &mut Vec<Hop>,
) {
    let sent = links.channel(from, to).try_send_batch(buf);
    if sent < buf.len() {
        overflows[from * sockets + to]
            .lock()
            .extend_from_slice(&buf[sent..]);
    }
    buf.clear();
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcbfs_gen::prelude::*;
    use mcbfs_graph::validate::validate_bfs_tree;

    #[test]
    fn two_sockets_valid_tree() {
        let g = RmatBuilder::new(10, 8).seed(2).build();
        for threads in [2, 4, 8] {
            let run = bfs_multi_socket(&g, 0, threads, MultiSocketOpts::with_sockets(2));
            validate_bfs_tree(&g, 0, &run.parents)
                .unwrap_or_else(|e| panic!("threads {threads}: {e}"));
        }
    }

    #[test]
    fn four_sockets_valid_tree() {
        let g = UniformBuilder::new(3_000, 8).seed(6).build();
        let run = bfs_multi_socket(&g, 17, 8, MultiSocketOpts::with_sockets(4));
        let info = validate_bfs_tree(&g, 17, &run.parents).unwrap();
        assert_eq!(info.visited as u64, run.visited);
    }

    #[test]
    fn matches_sequential_reachability_and_edges() {
        let g = UniformBuilder::new(2_048, 6).seed(3).build();
        let seq = crate::algo::sequential::bfs_sequential(&g, 5);
        let par = bfs_multi_socket(&g, 5, 4, MultiSocketOpts::with_sockets(2));
        assert_eq!(seq.visited, par.visited);
        assert_eq!(seq.profile.edges_traversed, par.profile.edges_traversed);
    }

    #[test]
    fn unbatched_channels_still_correct() {
        let g = RmatBuilder::new(9, 6).seed(11).build();
        let opts = MultiSocketOpts {
            sockets: 2,
            batch: 1,
            ..Default::default()
        };
        let run = bfs_multi_socket(&g, 0, 4, opts);
        validate_bfs_tree(&g, 0, &run.parents).unwrap();
        // Unbatched: one channel batch per remote item.
        let t = run.profile.total();
        assert_eq!(t.channel_batches, t.channel_items);
    }

    #[test]
    fn batching_reduces_channel_batches() {
        let g = UniformBuilder::new(4_096, 8).seed(9).build();
        let batched = bfs_multi_socket(&g, 0, 4, MultiSocketOpts::with_sockets(2));
        let t = batched.profile.total();
        assert!(
            t.channel_items > 0,
            "partitioned uniform graph must cross sockets"
        );
        assert!(
            t.channel_batches * 8 < t.channel_items,
            "batches {} vs items {}",
            t.channel_batches,
            t.channel_items
        );
    }

    #[test]
    fn tiny_channel_capacity_exercises_overflow() {
        // Force the overflow lane: capacity 2 with thousands of crossings.
        let g = UniformBuilder::new(2_000, 8).seed(14).build();
        let opts = MultiSocketOpts {
            sockets: 4,
            batch: 16,
            test_then_set: true,
            channel_capacity: 2,
        };
        let run = bfs_multi_socket(&g, 0, 4, opts);
        validate_bfs_tree(&g, 0, &run.parents).unwrap();
    }

    #[test]
    fn remote_tuples_flow_between_sockets() {
        // A path that zig-zags between the two halves of the id space
        // forces every edge through a channel.
        let n = 64u32;
        let half = n / 2;
        let mut edges = Vec::new();
        for i in 0..half - 1 {
            edges.push((i, half + i));
            edges.push((half + i, i + 1));
        }
        let g = CsrGraph::from_edges_symmetric(n as usize, &edges);
        let run = bfs_multi_socket(&g, 0, 2, MultiSocketOpts::with_sockets(2));
        validate_bfs_tree(&g, 0, &run.parents).unwrap();
        assert_eq!(run.visited, n as u64 - 1); // vertex n-1 (= half-1+half+... ) check below
        let t = run.profile.total();
        assert!(t.channel_items as usize >= (n as usize - 2));
    }

    #[test]
    fn disconnected_graph_multi_socket() {
        let g = CsrGraph::from_edges_symmetric(1_000, &[(0, 999), (999, 500)]);
        let run = bfs_multi_socket(&g, 0, 4, MultiSocketOpts::with_sockets(4));
        assert_eq!(run.visited, 3);
        validate_bfs_tree(&g, 0, &run.parents).unwrap();
    }

    #[test]
    fn more_sockets_than_meaningful_blocks() {
        let g = CsrGraph::from_edges_symmetric(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]);
        let run = bfs_multi_socket(&g, 0, 8, MultiSocketOpts::with_sockets(8));
        validate_bfs_tree(&g, 0, &run.parents).unwrap();
        assert_eq!(run.visited, 6);
    }

    #[test]
    fn single_socket_degenerates_to_algorithm_2() {
        let g = UniformBuilder::new(1_024, 4).seed(1).build();
        let run = bfs_multi_socket(&g, 0, 4, MultiSocketOpts::with_sockets(1));
        validate_bfs_tree(&g, 0, &run.parents).unwrap();
        assert_eq!(run.profile.total().channel_items, 0);
    }
}
