//! The sharded level loop: the one implementation of the 1D
//! level-synchronous frontier exchange of distributed BFS (Buluç &
//! Madduri).
//!
//! `Cluster::execute_wave` drives one wave over a set of `ShardLink`s,
//! one per shard, in the router's star order: `wave_start` to every
//! shard; per level, every shard's `exchange` frame in, then one `merged`
//! frame out per shard (buckets merged per destination, senders in shard
//! order, sent even when empty because it releases the shard into its
//! next level); `wave_finish` to every shard before any `wave_result` is
//! read. The per-shard owned ranges are then stitched into global arrays,
//! which [`mcbfs_query::wave_outcomes`] turns into answers exactly as it
//! does for the single-process engine. The live [`crate::Router`] runs
//! this loop over TCP links to worker processes and the in-process
//! [`crate::ShardedEngine`] over local links into the worker's own frame
//! handler, so both move byte-identical frames and keep the same
//! per-level [`ExchangeLog`].
//!
//! Frames from a link are checked before use: a bucket addressed to a
//! shard that does not exist, or a `wave_result` shaped unlike the wave,
//! fails the wave with [`io::ErrorKind::InvalidData`].
//!
//! Instrumentation: each blocking read of a shard's next frame is a
//! [`EventKind::ShardWait`] span (arg = level), and each level's
//! communication a [`EventKind::ShardExchange`] span (arg = bytes moved).

use crate::swire::ShardFrame;
use mcbfs_machine::model::MachineModel;
use mcbfs_query::{wave_outcomes, Admitted, BatchReport, Query, QueryOutcome, WaveStats};
use mcbfs_trace::{EventKind, SpanTimer};
use std::io;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Exchange accounting for one (wave, level) step: how many swire frames
/// crossed the router's links and how many payload bytes they carried.
#[derive(Clone, Copy, Debug, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct LevelExchange {
    /// Wave id.
    pub wave: u64,
    /// BFS level.
    pub level: u64,
    /// Frames crossed (one up per worker + one down per worker).
    pub frames: u64,
    /// Total encoded bytes of those frames.
    pub bytes: u64,
    /// Exchange items routed (cross-shard discoveries).
    pub items: u64,
}

/// Cumulative per-level exchange log of an engine or router.
#[derive(Clone, Debug, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ExchangeLog {
    /// One entry per (wave, level), in execution order.
    pub levels: Vec<LevelExchange>,
}

impl ExchangeLog {
    /// Total frames crossed.
    pub fn total_frames(&self) -> u64 {
        self.levels.iter().map(|l| l.frames).sum()
    }

    /// Total exchange bytes.
    pub fn total_bytes(&self) -> u64 {
        self.levels.iter().map(|l| l.bytes).sum()
    }

    /// Total items routed.
    pub fn total_items(&self) -> u64 {
        self.levels.iter().map(|l| l.items).sum()
    }
}

/// One router-side connection to a shard, as the level loop sees it.
pub(crate) trait ShardLink {
    /// Sends `frame` and returns its encoded length. Every `merged` frame
    /// must be measured; a link may report 0 for the other frames.
    fn send(&mut self, frame: ShardFrame) -> io::Result<u64>;

    /// Blocks until the shard's next frame and returns it with its
    /// encoded length, which must be measured for every `exchange` frame.
    fn recv(&mut self) -> io::Result<(ShardFrame, u64)>;
}

/// What the level loop knows about a partition, plus its cumulative
/// exchange ledger: the state the engine and the router share.
pub(crate) struct Cluster {
    /// Global vertex count.
    pub n: u64,
    /// Global directed edge count.
    pub m: u64,
    /// Per shard, in link order: the owned global vertex range. The
    /// ranges tile `0..n`.
    owned: Vec<Range<usize>>,
    waves: AtomicU64,
    exchange: Mutex<ExchangeLog>,
}

impl Cluster {
    pub fn new(n: u64, m: u64, owned: Vec<Range<usize>>) -> Self {
        Self {
            n,
            m,
            owned,
            waves: AtomicU64::new(0),
            exchange: Mutex::new(ExchangeLog::default()),
        }
    }

    /// The cumulative per-level exchange log (all waves so far).
    pub fn exchange_log(&self) -> ExchangeLog {
        self.exchange.lock().expect("exchange log lock").clone()
    }

    /// Serves one sealed wave over `links`, one per shard in shard order.
    /// With `model`, each level is priced as the slowest shard's scan
    /// (edges × the sequential-scan cost) plus the exchange term over the
    /// level's frames and bytes, instead of timed on the wall clock.
    pub fn execute_wave<L: ShardLink>(
        &self,
        links: &mut [L],
        wave: &[Admitted],
        model: Option<&MachineModel>,
    ) -> io::Result<BatchReport> {
        if wave.is_empty() {
            return Ok(BatchReport::default());
        }
        let wave_id = self.waves.fetch_add(1, Ordering::Relaxed);
        let (mut outcomes, stats) = self.run_wave(links, wave, wave_id, model)?;
        outcomes.sort_by_key(|o| o.id);
        Ok(BatchReport {
            outcomes,
            seconds: stats.seconds,
            waves: vec![stats],
            ..BatchReport::default()
        })
    }

    fn run_wave<L: ShardLink>(
        &self,
        links: &mut [L],
        wave: &[Admitted],
        wave_id: u64,
        model: Option<&MachineModel>,
    ) -> io::Result<(Vec<QueryOutcome>, WaveStats)> {
        let start = Instant::now();
        let sources: Vec<u32> = wave.iter().map(|a| a.query.source()).collect();
        let record_parents = wave
            .iter()
            .any(|a| matches!(a.query, Query::Parents { .. }));
        let shards = links.len();
        for link in links.iter_mut() {
            link.send(ShardFrame::WaveStart {
                wave: wave_id,
                sources: sources.clone(),
                record_parents,
            })?;
        }
        let mut modeled = 0.0f64;
        let mut ledger = Vec::new();
        for level in 0u64.. {
            let mut entry = LevelExchange {
                wave: wave_id,
                level,
                ..LevelExchange::default()
            };
            // Per sender: its discoveries, indexed by destination shard.
            let mut outbound = Vec::with_capacity(shards);
            let mut local_next = false;
            let mut slowest_scan = 0u64;
            for (index, link) in links.iter_mut().enumerate() {
                let wait = SpanTimer::start();
                let (frame, len) = link.recv()?;
                wait.finish(EventKind::ShardWait, level);
                let ShardFrame::Exchange {
                    wave,
                    level: got_level,
                    buckets,
                    local_next: next,
                    edges_scanned,
                } = frame
                else {
                    return Err(bad_data(format!(
                        "shard {index}: expected exchange, got another frame"
                    )));
                };
                if wave != wave_id || got_level != level {
                    return Err(bad_data(format!(
                        "shard {index}: exchange for wave {wave} level {got_level}, expected wave {wave_id} level {level}"
                    )));
                }
                entry.frames += 1;
                entry.bytes += len;
                local_next |= next;
                slowest_scan = slowest_scan.max(edges_scanned);
                let mut dense = vec![Vec::new(); shards];
                for bucket in buckets {
                    let Some(slot) = usize::try_from(bucket.dst)
                        .ok()
                        .and_then(|dst| dense.get_mut(dst))
                    else {
                        return Err(bad_data(format!(
                            "shard {index}: bucket for shard {} of a {shards}-shard cluster",
                            bucket.dst
                        )));
                    };
                    entry.items += bucket.items.len() as u64;
                    *slot = bucket.items;
                }
                outbound.push(dense);
            }
            let timer = SpanTimer::start();
            let done = !local_next && entry.items == 0;
            if !done {
                for (dst, link) in links.iter_mut().enumerate() {
                    let items = outbound
                        .iter()
                        .flat_map(|buckets| buckets[dst].iter().copied())
                        .collect();
                    entry.frames += 1;
                    entry.bytes += link.send(ShardFrame::Merged {
                        wave: wave_id,
                        level,
                        items,
                    })?;
                }
            }
            timer.finish(EventKind::ShardExchange, entry.bytes);
            if let Some(model) = model {
                modeled += slowest_scan as f64 * model.params.seq_edge_ns * 1e-9
                    + model.exchange_seconds(entry.frames, entry.bytes);
            }
            ledger.push(entry);
            if done {
                break;
            }
        }
        // Gather and stitch the owned ranges.
        let n = self.n as usize;
        let slots = sources.len();
        let mut depths = vec![vec![u32::MAX; n]; slots];
        let mut parents = record_parents.then(|| vec![vec![u32::MAX; n]; slots]);
        let mut slot_edges = vec![0u64; slots];
        let mut levels = 0u64;
        for link in links.iter_mut() {
            link.send(ShardFrame::WaveFinish { wave: wave_id })?;
        }
        for (index, (link, range)) in links.iter_mut().zip(&self.owned).enumerate() {
            let (frame, _) = link.recv()?;
            let ShardFrame::WaveResult {
                wave,
                depths: own_depths,
                parents: own_parents,
                slot_edges: own_edges,
                levels: own_levels,
            } = frame
            else {
                return Err(bad_data(format!("shard {index}: expected wave_result")));
            };
            if wave != wave_id {
                return Err(bad_data(format!(
                    "shard {index}: wave_result for wave {wave}, expected {wave_id}"
                )));
            }
            let shaped = |rows: &Vec<Vec<u32>>| {
                rows.len() == slots && rows.iter().all(|row| row.len() == range.len())
            };
            if !shaped(&own_depths)
                || own_edges.len() != slots
                || own_parents.as_ref().map_or(record_parents, |p| !shaped(p))
            {
                return Err(bad_data(format!(
                    "shard {index}: wave_result is not {slots} slots over {} owned vertices",
                    range.len()
                )));
            }
            levels = levels.max(own_levels);
            for slot in 0..slots {
                depths[slot][range.clone()].copy_from_slice(&own_depths[slot]);
                slot_edges[slot] += own_edges[slot];
                if let (Some(all), Some(own)) = (&mut parents, &own_parents) {
                    all[slot][range.clone()].copy_from_slice(&own[slot]);
                }
            }
        }
        self.exchange
            .lock()
            .expect("exchange log lock")
            .levels
            .extend(ledger);
        let seconds = match model {
            Some(_) => modeled,
            None => start.elapsed().as_secs_f64(),
        };
        let (mut outcomes, stats) = wave_outcomes(
            wave_id as usize,
            wave,
            depths,
            parents,
            |slot, _| slot_edges[slot],
            levels as usize,
            seconds,
        );
        for o in &mut outcomes {
            // A modelled wave prices only the modelled schedule, not the
            // wall-clock batcher queue time.
            if model.is_some() {
                o.queue_seconds = 0.0;
            }
            o.service_seconds = seconds;
            o.latency_seconds = o.queue_seconds + seconds;
        }
        Ok((outcomes, stats))
    }
}

pub(crate) fn bad_data(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::swire::{Bucket, ExchangeItem};
    use std::collections::VecDeque;
    use std::time::Duration;

    /// A fake shard that replays scripted frames and ignores what the loop
    /// sends it.
    struct Scripted(VecDeque<ShardFrame>);

    impl ShardLink for Scripted {
        fn send(&mut self, _frame: ShardFrame) -> io::Result<u64> {
            Ok(0)
        }

        fn recv(&mut self) -> io::Result<(ShardFrame, u64)> {
            let frame = self.0.pop_front().expect("script covers every read");
            Ok((frame, 0))
        }
    }

    const DISTANCES: Query = Query::Distances { root: 0 };

    /// One `query` from vertex 0 over a single shard owning 0..3, answered
    /// by `script`.
    fn drive(query: Query, script: Vec<ShardFrame>) -> io::Result<BatchReport> {
        let wave = [Admitted {
            id: 0,
            query,
            queued: Duration::ZERO,
        }];
        let owned = std::iter::once(0..3).collect();
        Cluster::new(3, 0, owned).execute_wave(&mut [Scripted(script.into())], &wave, None)
    }

    /// A level-0 exchange frame: no discoveries (the wave ends), or one
    /// item bucketed for shard `dst`.
    fn exchange(dst: Option<u64>) -> ShardFrame {
        let item = ExchangeItem {
            v: 1,
            u: 0,
            mask: 1,
        };
        ShardFrame::Exchange {
            wave: 0,
            level: 0,
            buckets: dst
                .into_iter()
                .map(|dst| Bucket {
                    dst,
                    items: vec![item],
                })
                .collect(),
            local_next: false,
            edges_scanned: 0,
        }
    }

    fn result(depths: Vec<Vec<u32>>, slot_edges: Vec<u64>) -> ShardFrame {
        ShardFrame::WaveResult {
            wave: 0,
            depths,
            parents: None,
            slot_edges,
            levels: 1,
        }
    }

    #[test]
    fn well_formed_frames_are_stitched() {
        let report = drive(
            DISTANCES,
            vec![exchange(None), result(vec![vec![0, u32::MAX, 1]], vec![4])],
        )
        .expect("well-formed wave");
        let outcome = &report.outcomes[0];
        assert_eq!(outcome.result.depths(), Some(&[0, u32::MAX, 1][..]));
        assert_eq!(outcome.edges, 4);
    }

    #[test]
    fn malformed_worker_frames_are_invalid_data() {
        let parents = Query::Parents { root: 0 };
        let scripts = [
            // Buckets addressed past the last shard.
            (DISTANCES, vec![exchange(Some(1))]),
            (DISTANCES, vec![exchange(Some(u64::MAX))]),
            // Results with the wrong slot count or per-slot length.
            (DISTANCES, vec![exchange(None), result(vec![], vec![4])]),
            (
                DISTANCES,
                vec![exchange(None), result(vec![vec![0], vec![0]], vec![4, 4])],
            ),
            (
                DISTANCES,
                vec![exchange(None), result(vec![vec![0, 1]], vec![4])],
            ),
            (
                DISTANCES,
                vec![exchange(None), result(vec![vec![0, 1, 2]], vec![])],
            ),
            // A parents wave answered without parents.
            (
                parents,
                vec![exchange(None), result(vec![vec![0, 1, 2]], vec![4])],
            ),
        ];
        for (query, script) in scripts {
            let err = drive(query, script.clone()).expect_err("malformed frames fail the wave");
            assert_eq!(
                err.kind(),
                io::ErrorKind::InvalidData,
                "{query:?} {script:?}"
            );
        }
    }
}
