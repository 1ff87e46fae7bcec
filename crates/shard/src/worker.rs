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
//! stream.
//!
//! Shutdown mirrors the serving front: a [`ShutdownHandle`] (or SIGINT
//! via `mcbfs_serve::arm_sigint`) is polled between frames; the worker
//! finishes the frame in hand, closes, and returns its final stats part.

use crate::swire::{self, Bucket, ExchangeItem, ShardFrame, ShardMeta};
use mcbfs_graph::shard::CsrShard;
use mcbfs_query::MsBfs;
use mcbfs_serve::{accept_loop, read_lines, ServerStats, ShutdownHandle};
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::Instant;

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
    stream.write_all(swire::encode(frame).as_bytes())?;
    stream.flush()
}

/// One router connection's frame loop.
fn serve_router(
    shard: &CsrShard,
    stream: TcpStream,
    shutdown: &ShutdownHandle,
    started: Instant,
    connections: u64,
) {
    let Ok(mut writer) = stream.try_clone() else {
        return;
    };
    let mut wave: Option<Wave> = None;
    read_lines(
        stream,
        || shutdown.requested(),
        |text| {
            let frame = match swire::decode(text) {
                Ok(f) => f,
                Err(e) => {
                    eprintln!("shard {}: bad router frame: {e}", shard.index());
                    return false;
                }
            };
            let reply = match frame {
                ShardFrame::Stats => Some(ShardFrame::StatsReply {
                    stats: stats_part(shard, started, connections),
                }),
                frame => handle_frame(shard, &mut wave, frame),
            };
            reply.is_some_and(|reply| send(&mut writer, &reply).is_ok())
        },
    );
}

/// One wave in flight on a shard: the multi-source kernel over the owned
/// rows, and the level its next scan runs (discoveries get depth
/// `level + 1`).
pub(crate) struct Wave<'s> {
    kernel: MsBfs<'s, CsrShard>,
    level: u32,
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
            let w = wave.insert(Wave {
                kernel: MsBfs::new(shard, &sources, record_parents),
                level: 0,
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
            for item in &items {
                w.kernel.apply(w.level + 1, item.v, item.u, item.mask);
            }
            w.level += 1;
            Some(exchange_frame(shard, id, w))
        }
        ShardFrame::WaveFinish { wave: id } => match wave.take() {
            Some(w) => Some(wave_result(shard, id, &w)),
            None => reject("wave_finish outside a wave".to_string()),
        },
        other => reject(format!("unexpected frame from router: {other:?}")),
    }
}

/// Scans the wave's current level and builds the upward shard-exchange
/// frame: each foreign discovery bucketed by owner, in owned-vertex then
/// CSR order; non-empty buckets only, in destination order.
fn exchange_frame(shard: &CsrShard, wave: u64, w: &Wave) -> ShardFrame {
    let mut buckets = vec![Vec::new(); shard.shards()];
    let counts = w.kernel.scan(w.level + 1, 0, 1, |v, u, mask| {
        buckets[shard.owner_of(v)].push(ExchangeItem { v, u, mask })
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
/// numerator's share), and the highest owned depth + 1 as `levels`.
fn wave_result(shard: &CsrShard, wave: u64, w: &Wave) -> ShardFrame {
    let (depths, parents) = w.kernel.rows();
    let slot_edges = depths
        .iter()
        .map(|row| {
            row.iter()
                .enumerate()
                .filter(|&(_, &d)| d != u32::MAX)
                .map(|(local, _)| shard.degree_local(local) as u64)
                .sum()
        })
        .collect();
    // Unreached vertices (`u32::MAX`) wrap to 0.
    let levels = depths.iter().flatten().map(|&d| d.wrapping_add(1)).max();
    ShardFrame::WaveResult {
        wave,
        parents,
        depths,
        slot_edges,
        levels: levels.unwrap_or(0) as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcbfs_graph::csr::CsrGraph;
    use std::io::{BufRead, BufReader};
    use std::sync::mpsc;
    use std::time::Duration;

    /// Writes `frames` on a fresh connection and collects the worker's
    /// replies until it closes the connection (or goes quiet for 10 s).
    fn replies_until_closed(addr: SocketAddr, frames: &[ShardFrame]) -> Vec<ShardFrame> {
        let mut stream = TcpStream::connect(addr).expect("connect to worker");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("read timeout");
        for frame in frames {
            send(&mut stream, frame).expect("send frame");
        }
        BufReader::new(stream)
            .lines()
            .map_while(Result::ok)
            .map(|line| swire::decode(&line).expect("worker reply decodes"))
            .collect()
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
                let replies = replies_until_closed(addr, &[wave_start(bad)]);
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
            let replies = replies_until_closed(addr, &[wave_start(vec![4]), stray]);
            assert!(
                matches!(replies[..], [ShardFrame::Exchange { .. }]),
                "{replies:?}"
            );
            // The listener still serves a fresh connection, even when a
            // frame arrives split across the worker's 50 ms read timeout.
            let mut stream = TcpStream::connect(addr).expect("reconnect");
            let hello = swire::encode(&ShardFrame::Hello);
            let (head, tail) = hello.split_at(hello.len() / 2);
            stream.write_all(head.as_bytes()).expect("send hello head");
            std::thread::sleep(Duration::from_millis(150));
            stream.write_all(tail.as_bytes()).expect("send hello tail");
            let mut line = String::new();
            BufReader::new(stream)
                .read_line(&mut line)
                .expect("read meta");
            assert!(matches!(
                swire::decode(&line),
                Ok(ShardFrame::Meta(ShardMeta { index: 1, .. }))
            ));
            drop(stop);
            worker
                .join()
                .expect("worker thread")
                .expect("worker result");
        });
    }
}
