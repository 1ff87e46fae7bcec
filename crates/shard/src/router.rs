//! The scatter/gather router: `mcbfs-wire-v1` in front, swire behind.
//!
//! A [`Router`] holds one TCP connection per shard worker. Plugged into
//! `mcbfs_serve::serve_with` as the [`WaveExecutor`], it leaves the whole
//! client-facing front (wire protocol, admission, continuous batching,
//! deadlines, drain) untouched and replaces only the kernel: each sealed
//! wave runs through the sharded level loop ([`crate::exchange`]) over
//! the worker connections. The exchange is star-wise — workers never talk
//! to each other; the router gathers every worker's destination-bucketed
//! `exchange` frame, merges buckets per destination in shard order, and
//! delivers one `merged` frame per worker per level — and the per-shard
//! `wave_result` answers are merged slot by slot into the answers clients
//! expect. Each link writes [`swire::encode`]'s bytes and cuts the
//! worker's replies with a [`FrameReader`]. The per-level frame/byte/item
//! counts accumulate in an [`ExchangeLog`] whose live byte counts equal
//! the in-process engine's model-mode prediction, because both run the
//! same loop and measure the same encoder's output.

use crate::exchange::{bad_data, Cluster, ExchangeLog, ShardLink};
use crate::swire::{self, FrameReader, ShardFrame, ShardMeta};
use mcbfs_query::{Admitted, BatchReport};
use mcbfs_serve::{ServerStats, WaveExecutor};
use std::io::{self, BufReader, Write};
use std::net::TcpStream;
use std::sync::Mutex;

/// One connected shard worker.
struct TcpLink {
    reader: FrameReader<BufReader<TcpStream>>,
    writer: TcpStream,
    meta: ShardMeta,
}

impl ShardLink for TcpLink {
    fn send(&mut self, frame: ShardFrame) -> io::Result<u64> {
        let bytes = swire::encode(&frame);
        self.writer.write_all(&bytes)?;
        self.writer.flush()?;
        Ok(bytes.len() as u64)
    }

    /// Blocks until the worker's next frame arrives; returns it with its
    /// encoded length (the exchange byte count of the upward link).
    fn recv(&mut self) -> io::Result<(ShardFrame, u64)> {
        let bytes = self.reader.next_frame()?.ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::UnexpectedEof,
                format!("shard {} closed its connection", self.meta.index),
            )
        })?;
        let frame = swire::decode(&bytes)
            .map_err(|e| bad_data(format!("shard {}: {e}", self.meta.index)))?;
        Ok((frame, bytes.len() as u64))
    }
}

/// A scatter/gather wave executor over shard-worker connections.
pub struct Router {
    links: Mutex<Vec<TcpLink>>,
    cluster: Cluster,
}

impl Router {
    /// Connects to one worker per address, handshakes (`hello` → `meta`),
    /// and validates that the workers form exactly one partition: dense
    /// shard indices, one graph, contiguous owned ranges covering `0..n`.
    pub fn connect(addrs: &[String]) -> io::Result<Router> {
        assert!(!addrs.is_empty(), "router needs at least one worker");
        let mut links = Vec::with_capacity(addrs.len());
        for addr in addrs {
            let stream = TcpStream::connect(addr)?;
            stream.set_nodelay(true).ok();
            let reader = FrameReader::new(BufReader::new(stream.try_clone()?));
            let mut link = TcpLink {
                reader,
                writer: stream,
                meta: ShardMeta::default(),
            };
            link.send(ShardFrame::Hello)?;
            match link.recv()? {
                (ShardFrame::Meta(meta), _) => link.meta = meta,
                (other, _) => {
                    return Err(bad_data(format!(
                        "expected meta from {addr}, got {other:?}"
                    )))
                }
            }
            links.push(link);
        }
        links.sort_by_key(|l| l.meta.index);
        let k = links.len() as u64;
        let n = links[0].meta.n;
        let mut expect_start = 0u64;
        for (i, link) in links.iter().enumerate() {
            let m = &link.meta;
            if m.index != i as u64 || m.shards != k {
                return Err(bad_data(format!(
                    "worker set is not one {k}-way partition: found shard {}of{}",
                    m.index, m.shards
                )));
            }
            if m.n != n {
                return Err(bad_data(format!(
                    "shard {} cut from a different graph (n={} vs {n})",
                    m.index, m.n
                )));
            }
            if m.owned_start != expect_start || m.owned_end < m.owned_start {
                return Err(bad_data(format!(
                    "shard {} owns {}..{} but the previous range ended at {expect_start}",
                    m.index, m.owned_start, m.owned_end
                )));
            }
            expect_start = m.owned_end;
        }
        if expect_start != n {
            return Err(bad_data(format!(
                "owned ranges cover 0..{expect_start}, graph has {n} vertices"
            )));
        }
        let m = links.iter().map(|l| l.meta.local_edges).sum();
        let owned = links
            .iter()
            .map(|l| l.meta.owned_start as usize..l.meta.owned_end as usize)
            .collect();
        Ok(Router {
            links: Mutex::new(links),
            cluster: Cluster::new(n, m, owned),
        })
    }

    /// Global vertex count (from the workers' metadata).
    pub fn num_vertices(&self) -> u64 {
        self.cluster.n
    }

    /// Global directed edge count.
    pub fn num_edges(&self) -> u64 {
        self.cluster.m
    }

    /// Connected shard workers.
    pub fn num_shards(&self) -> usize {
        self.links.lock().expect("router links lock").len()
    }

    /// The cumulative per-level exchange log (native byte counts of the
    /// live links).
    pub fn exchange_log(&self) -> ExchangeLog {
        self.cluster.exchange_log()
    }
}

impl WaveExecutor for Router {
    /// Drives one wave through the cluster. Any worker failure mid-wave is
    /// unrecoverable for that wave and panics (taking the serving process
    /// down rather than answering queries wrong).
    fn execute_wave(&self, wave: &[Admitted]) -> BatchReport {
        let mut links = self.links.lock().expect("router links lock");
        self.cluster
            .execute_wave(&mut links[..], wave, None)
            .expect("worker connection failed mid-wave")
    }

    /// Merges the workers' stats parts into the router's snapshot: the
    /// router owns every client-facing counter, the workers own the graph
    /// shape, and the merged quantiles come from the router's raw latency
    /// window (workers never observe client latency). A worker that fails
    /// to answer degrades the reply to the router-local view.
    fn merged_stats(&self, local: ServerStats, window: &[f64]) -> ServerStats {
        let mut links = self.links.lock().expect("router links lock");
        let mut parts = vec![ServerStats {
            vertices: 0,
            edges: 0,
            ..local.clone()
        }];
        let mut windows = vec![window.to_vec()];
        for link in links.iter_mut() {
            let reply = link
                .send(ShardFrame::Stats)
                .and_then(|_| link.recv())
                .map(|(frame, _)| frame);
            match reply {
                Ok(ShardFrame::StatsReply { stats }) => {
                    parts.push(stats);
                    windows.push(Vec::new());
                }
                _ => return local,
            }
        }
        ServerStats::merge(&parts, &windows)
    }
}

/// By-reference delegation so a caller can hand the router to
/// `serve_with` and still read its [`ExchangeLog`] after the drain.
impl WaveExecutor for &Router {
    fn execute_wave(&self, wave: &[Admitted]) -> BatchReport {
        (**self).execute_wave(wave)
    }

    fn merged_stats(&self, local: ServerStats, window: &[f64]) -> ServerStats {
        (**self).merged_stats(local, window)
    }
}
