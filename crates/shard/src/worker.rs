//! The shard worker process: one owned vertex range, served over swire.
//!
//! A worker binds a TCP listener, accepts its router (one connection at a
//! time — a router that restarts simply reconnects), and then runs a
//! frame-driven state machine over `mcbfs_query::MsBfs` on its owned rows:
//! `hello` → `meta`, `wave_start` → scan → `exchange` up, `merged` →
//! apply, next level, scan → `exchange` up,
//! `wave_finish` → `wave_result`, `stats` → `stats_reply`. The worker
//! never initiates: every frame it sends answers a router frame, which
//! keeps the protocol lock-step and deadlock-free over a single duplex
//! stream. Frames arrive through [`swire::FrameReader`] and leave through
//! [`swire::encode`]; a frame that fails to read or decode is logged and
//! drops that connection, never the worker.
//!
//! The upward sink sends each (vertex, slot bit) pair at most once per
//! wave: [`Wave`] remembers the bits already sent for every vertex, the
//! sender-side twin of the owner's `mask & !seen` claim test.
//!
//! Shutdown mirrors the serving front: a [`ShutdownHandle`] (or SIGINT
//! via `mcbfs_serve::arm_sigint`) is polled between frames, and while no
//! frame arrives, every 50 ms; the worker finishes the frame in hand,
//! closes, and returns its final stats part.

use crate::swire::{self, Bucket, ExchangeItem, FrameReader, ShardFrame, ShardMeta};
use mcbfs_graph::shard::CsrShard;
use mcbfs_query::{MsBfs, Slot};
use mcbfs_serve::{accept_loop, ServerStats, ShutdownHandle};
use std::io::{BufReader, ErrorKind, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::{Duration, Instant};

/// How long a connection's read blocks before the loop polls for
/// shutdown: the serving front's drain-poll period.
const DRAIN_POLL: Duration = Duration::from_millis(50);

/// Runs a shard worker until `shutdown` is requested. `on_ready` fires
/// once with the bound address (port 0 picks a free port). Returns the
/// worker's final [`ServerStats`] part: it owns its shard's graph shape
/// and its accepted-connection count; every client-facing counter is zero
/// because clients never talk to workers (see [`ServerStats::merge`]).
pub fn run_worker<F: FnOnce(SocketAddr)>(
    shard: &CsrShard,
    addr: &str,
    shutdown: &ShutdownHandle,
    on_ready: F,
) -> std::io::Result<ServerStats> {
    let listener = TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    let bound = listener.local_addr()?;
    on_ready(bound);
    let started = Instant::now();
    let mut connections = 0u64;
    accept_loop(&listener, shutdown, |stream| {
        connections += 1;
        serve_router(shard, stream, shutdown, started, connections);
    });
    Ok(stats_part(shard, started, connections))
}

/// The worker's [`ServerStats`] contribution.
fn stats_part(shard: &CsrShard, started: Instant, connections: u64) -> ServerStats {
    ServerStats {
        vertices: shard.owned_len() as u64,
        edges: shard.local_edges() as u64,
        uptime_seconds: started.elapsed().as_secs_f64(),
        connections,
        ..ServerStats::default()
    }
}

fn send(stream: &mut TcpStream, frame: &ShardFrame) -> std::io::Result<()> {
    stream.write_all(&swire::encode(frame))?;
    stream.flush()
}

/// One router connection's frame loop: until the router closes, a frame
/// fails to read or decode, or shutdown is requested.
fn serve_router(
    shard: &CsrShard,
    stream: TcpStream,
    shutdown: &ShutdownHandle,
    started: Instant,
    connections: u64,
) {
    // Exchange frames are often sub-MTU; Nagle would hold them behind
    // delayed ACKs on every level.
    stream.set_nodelay(true).ok();
    let Ok(mut writer) = stream.try_clone() else {
        return;
    };
    if stream.set_read_timeout(Some(DRAIN_POLL)).is_err() {
        return;
    }
    let mut frames = FrameReader::new(BufReader::new(stream));
    let mut wave: Option<Wave> = None;
    while !shutdown.requested() {
        let frame = match frames.next_frame() {
            Ok(Some(bytes)) => swire::decode(&bytes).map_err(|e| e.to_string()),
            Ok(None) => return,
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => continue,
            Err(e) => Err(e.to_string()),
        };
        let frame = match frame {
            Ok(frame) => frame,
            Err(e) => {
                eprintln!("shard {}: bad router frame: {e}", shard.index());
                return;
            }
        };
        let reply = match frame {
            ShardFrame::Stats => Some(ShardFrame::StatsReply {
                stats: stats_part(shard, started, connections),
            }),
            frame => handle_frame(shard, &mut wave, frame),
        };
        let Some(reply) = reply else { return };
        if send(&mut writer, &reply).is_err() {
            return;
        }
    }
}

/// One wave in flight on a shard: the multi-source kernel over the owned
/// rows, the level its next scan runs (discoveries get depth
/// `level + 1`), and the slot bits already sent for each vertex.
pub(crate) struct Wave<'s> {
    kernel: MsBfs<'s, CsrShard>,
    level: u32,
    /// Word `v` = the slot bits this wave has sent to `v`'s owner, indexed
    /// by global vertex; only foreign words are ever set.
    sent: Vec<u64>,
}

/// The worker's answer to one router frame (`stats` aside, which the
/// connection loop answers from its own counters), shared by the live
/// worker and the in-process engine's links. `None` means the frame
/// breaks the protocol or names vertices this shard cannot hold: it is
/// logged, and the live worker drops the connection.
pub(crate) fn handle_frame<'s>(
    shard: &'s CsrShard,
    wave: &mut Option<Wave<'s>>,
    frame: ShardFrame,
) -> Option<ShardFrame> {
    let reject = |why: String| {
        eprintln!("shard {}: {why}", shard.index());
        None
    };
    match frame {
        ShardFrame::Hello => Some(ShardFrame::Meta(ShardMeta {
            n: shard.num_vertices() as u64,
            shards: shard.shards() as u64,
            index: shard.index() as u64,
            owned_start: shard.owned_range().start as u64,
            owned_end: shard.owned_range().end as u64,
            local_edges: shard.local_edges() as u64,
            cut_edges: shard.cut_edges() as u64,
        })),
        ShardFrame::WaveStart {
            wave: id,
            sources,
            record_parents,
        } => {
            let n = shard.num_vertices();
            if !(1..=64).contains(&sources.len()) || sources.iter().any(|&s| s as usize >= n) {
                return reject(format!(
                    "wave_start needs 1..=64 sources in 0..{n}, got {} sources",
                    sources.len()
                ));
            }
            // The router stitches every slot's owned rows: all map slots.
            let w = wave.insert(Wave {
                kernel: MsBfs::new(shard, &Slot::maps(&sources, record_parents)),
                level: 0,
                sent: vec![0; n],
            });
            Some(exchange_frame(shard, id, w))
        }
        ShardFrame::Merged {
            wave: id, items, ..
        } => {
            let Some(w) = wave else {
                return reject("merged frame outside a wave".to_string());
            };
            let owned = shard.owned_range();
            if let Some(item) = items.iter().find(|i| !owned.contains(&(i.v as usize))) {
                return reject(format!(
                    "merged item for vertex {} outside the owned range {owned:?}",
                    item.v
                ));
            }
            let routed = items.iter().map(|i| (i.v, i.u, i.mask));
            w.kernel.apply(w.level + 1, routed);
            w.level += 1;
            Some(exchange_frame(shard, id, w))
        }
        ShardFrame::WaveFinish { wave: id } => match wave.take() {
            Some(w) => Some(wave_result(id, w)),
            None => reject("wave_finish outside a wave".to_string()),
        },
        other => reject(format!("unexpected frame from router: {other:?}")),
    }
}

/// Scans the wave's current level and builds the upward shard-exchange
/// frame: each foreign discovery bucketed by owner, in owned-vertex then
/// CSR order; non-empty buckets only, in destination order.
///
/// An item carries only the bits not yet sent for its vertex, and is
/// dropped when none are left. That changes no answer: a bit sent at an
/// earlier level was claimed at the owner by then, and one sent earlier
/// in this level's scan order comes first in the owner's merged apply
/// order, so either way the owner's `mask & !seen` test would skip it.
fn exchange_frame(shard: &CsrShard, wave: u64, w: &mut Wave) -> ShardFrame {
    let mut buckets = vec![Vec::new(); shard.shards()];
    let sent = &mut w.sent;
    let counts = w.kernel.scan(w.level + 1, 0, 1, |v, u, mask| {
        let mask = mask & !sent[v as usize];
        if mask != 0 {
            sent[v as usize] |= mask;
            buckets[shard.owner_of(v)].push(ExchangeItem { v, u, mask });
        }
    });
    ShardFrame::Exchange {
        wave,
        level: w.level as u64,
        buckets: buckets
            .into_iter()
            .enumerate()
            .filter(|(_, items)| !items.is_empty())
            .map(|(dst, items)| Bucket {
                dst: dst as u64,
                items,
            })
            .collect(),
        local_next: counts.parent_writes > 0,
        edges_scanned: counts.edges_scanned,
    }
}

/// The wave's owned-range answer: per slot, depths and parents of the
/// owned vertices, the adjacency entries of the reached ones (the TEPS
/// numerator's share), and the highest owned depth + 1 as `levels`. The
/// last two come from the kernel's tallies: a slot's owned histogram ends
/// at its deepest owned vertex.
fn wave_result(wave: u64, w: Wave) -> ShardFrame {
    let answers = w.kernel.into_answers();
    let levels = answers.iter().map(|a| a.depth_histogram.len()).max();
    let slot_edges = answers.iter().map(|a| a.edges).collect();
    let mut depths = Vec::with_capacity(answers.len());
    let mut parents = Vec::new();
    for answer in answers {
        depths.push(answer.depths.expect("worker slots are map slots"));
        parents.extend(answer.parents);
    }
    ShardFrame::WaveResult {
        wave,
        // A wave records parents for every slot or for none.
        parents: (!parents.is_empty()).then_some(parents),
        depths,
        slot_edges,
        levels: levels.unwrap_or(0) as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcbfs_graph::csr::CsrGraph;
    use std::net::Shutdown;
    use std::sync::mpsc;

    /// Collects the worker's replies on `stream` until the worker closes
    /// the connection; panics if it stays open for 10 s instead.
    fn replies_until_closed(stream: TcpStream) -> Vec<ShardFrame> {
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("read timeout");
        let mut frames = FrameReader::new(stream);
        let mut replies = Vec::new();
        loop {
            match frames.next_frame() {
                Ok(Some(bytes)) => replies.push(swire::decode(&bytes).expect("reply decodes")),
                Ok(None) => return replies,
                Err(e) => panic!("worker kept the connection open: {e} after {replies:?}"),
            }
        }
    }

    /// Writes `bytes` on a fresh connection and collects the replies.
    fn send_bytes(addr: SocketAddr, bytes: &[u8]) -> Vec<ShardFrame> {
        let mut stream = TcpStream::connect(addr).expect("connect to worker");
        stream.write_all(bytes).expect("send bytes");
        replies_until_closed(stream)
    }

    fn send_frames(addr: SocketAddr, frames: &[ShardFrame]) -> Vec<ShardFrame> {
        send_bytes(
            addr,
            &frames.iter().flat_map(swire::encode).collect::<Vec<_>>(),
        )
    }

    fn wave_start(sources: Vec<u32>) -> ShardFrame {
        ShardFrame::WaveStart {
            wave: 0,
            sources,
            record_parents: true,
        }
    }

    /// Stops the worker when the test body ends, a failed assertion
    /// included, so the scope can join it.
    struct StopOnDrop(ShutdownHandle);

    impl Drop for StopOnDrop {
        fn drop(&mut self) {
            self.0.request();
        }
    }

    #[test]
    fn malformed_router_frames_drop_the_connection_not_the_worker() {
        let g = CsrGraph::from_edges_symmetric(8, &[(0, 4), (4, 5), (5, 6)]);
        let shard = CsrShard::cut(&g, 2, 1); // owns 4..8
        let shutdown = ShutdownHandle::new();
        std::thread::scope(|scope| {
            let stop = StopOnDrop(shutdown.clone());
            let (ready, bound) = mpsc::channel();
            let worker = scope.spawn(|| {
                run_worker(&shard, "127.0.0.1:0", &shutdown, move |addr| {
                    ready.send(addr).expect("report bound address")
                })
            });
            let addr = bound.recv().expect("worker bound");
            for bad in [vec![], (0..65).map(|v| v % 8).collect(), vec![4, 8]] {
                let replies = send_frames(addr, &[wave_start(bad)]);
                assert!(replies.is_empty(), "{replies:?}");
            }
            // A merged item for vertex 0, which shard 1 does not own.
            let stray = ShardFrame::Merged {
                wave: 0,
                level: 0,
                items: vec![ExchangeItem {
                    v: 0,
                    u: 4,
                    mask: 1,
                }],
            };
            let replies = send_frames(addr, &[wave_start(vec![4]), stray]);
            assert!(
                matches!(replies[..], [ShardFrame::Exchange { .. }]),
                "{replies:?}"
            );
            // A swire-v1 JSON line fails on its header, though its first
            // four bytes read as a ~578 MB length.
            let replies = send_bytes(addr, b"{\"v\":1,\"cmd\":\"hello\"}\n");
            assert!(replies.is_empty(), "{replies:?}");
            // A stream that ends mid-frame: the router half-closes after
            // half a hello.
            let mut stream = TcpStream::connect(addr).expect("connect to worker");
            let hello = swire::encode(&ShardFrame::Hello);
            stream
                .write_all(&hello[..hello.len() / 2])
                .expect("half a hello");
            stream.shutdown(Shutdown::Write).expect("half-close");
            let replies = replies_until_closed(stream);
            assert!(replies.is_empty(), "{replies:?}");
            // The listener still serves a fresh connection, even when a
            // frame arrives split across the worker's 50 ms read timeout.
            let mut stream = TcpStream::connect(addr).expect("reconnect");
            let (head, tail) = hello.split_at(hello.len() / 2);
            stream.write_all(head).expect("send hello head");
            std::thread::sleep(Duration::from_millis(150));
            stream.write_all(tail).expect("send hello tail");
            stream.shutdown(Shutdown::Write).expect("half-close");
            let replies = replies_until_closed(stream);
            assert!(
                matches!(replies[..], [ShardFrame::Meta(ShardMeta { index: 1, .. })]),
                "{replies:?}"
            );
            drop(stop);
            worker
                .join()
                .expect("worker thread")
                .expect("worker result");
        });
    }

    #[test]
    fn a_foreign_bit_is_sent_once_per_wave_with_its_first_parent() {
        // Shard 0 owns 0..4; vertex 5 is foreign. Slot 0 (from 0) reaches
        // 5 from 1 and from 2 at level 1 and from 3 at level 2; slot 1
        // (from 3) reaches it from 3 at level 0 and from 1 at level 1.
        let g =
            CsrGraph::from_edges_symmetric(8, &[(0, 1), (0, 2), (1, 5), (2, 5), (1, 3), (3, 5)]);
        let shard = CsrShard::cut(&g, 2, 0);
        assert_eq!(shard.owned_range(), 0..4);
        let mut wave = None;
        let mut frame = handle_frame(&shard, &mut wave, wave_start(vec![0, 3]));
        let mut sent = Vec::new();
        for level in 0u64.. {
            let Some(ShardFrame::Exchange {
                buckets,
                local_next,
                ..
            }) = frame
            else {
                panic!("expected an exchange frame, got {frame:?}");
            };
            for bucket in &buckets {
                assert_eq!(bucket.dst, 1);
                sent.extend(bucket.items.iter().map(|i| (level, *i)));
            }
            if !local_next && buckets.is_empty() {
                break;
            }
            let merged = ShardFrame::Merged {
                wave: 0,
                level,
                items: Vec::new(),
            };
            frame = handle_frame(&shard, &mut wave, merged);
        }
        let item = |v, u, mask| ExchangeItem { v, u, mask };
        assert_eq!(
            sent,
            [(0, item(5, 3, 0b10)), (1, item(5, 1, 0b01))],
            "slot 1's bit goes at level 0 from 3; slot 0's at level 1 from 1, \
             its first discoverer in scan order, and never again"
        );
    }
}
