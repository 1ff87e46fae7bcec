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
//! read. `wave_start` carries each query's [`Slot`], from the same
//! `Query::slot` the single-process engine builds its kernel from, and
//! each `wave_result` the shard kernel's [`SlotAnswer`]s over its owned
//! range. The loop merges every slot's answers in shard order
//! ([`SlotAnswer::merge`]: histograms and TEPS numerators sum, the target
//! depth is its owner's, map rows concatenate), and
//! [`mcbfs_query::wave_outcomes`] turns the answers into outcomes exactly
//! as it does for the single-process engine. The live [`crate::Router`] runs
//! this loop over TCP links to worker processes and the in-process
//! [`crate::ShardedEngine`] over local links into the worker's own frame
//! handler, so both move byte-identical frames and keep the same
//! per-level [`ExchangeLog`].
//!
//! Frames from a link are checked before use: a bucket addressed to a
//! shard that does not exist, or a `wave_result` shaped unlike what its
//! slots ask of that shard, fails the wave with
//! [`io::ErrorKind::InvalidData`].
//!
//! Instrumentation: each blocking read of a shard's next frame is a
//! [`EventKind::ShardWait`] span (arg = level), and each level's
//! communication a [`EventKind::ShardExchange`] span (arg = bytes moved).

use crate::swire::ShardFrame;
use mcbfs_machine::model::MachineModel;
use mcbfs_query::{wave_outcomes, Admitted, BatchReport, Slot, SlotAnswer};
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
        let start = Instant::now();
        let slots: Vec<Slot> = wave.iter().map(|a| a.query.slot()).collect();
        let shards = links.len();
        for link in links.iter_mut() {
            link.send(ShardFrame::WaveStart {
                wave: wave_id,
                slots: slots.clone(),
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
        for link in links.iter_mut() {
            link.send(ShardFrame::WaveFinish { wave: wave_id })?;
        }
        // Merge the owned ranges' answers, in shard (so range) order.
        let mut answers = vec![SlotAnswer::default(); slots.len()];
        for (index, (link, range)) in links.iter_mut().zip(&self.owned).enumerate() {
            let (frame, _) = link.recv()?;
            let ShardFrame::WaveResult {
                wave,
                answers: parts,
            } = frame
            else {
                return Err(bad_data(format!("shard {index}: expected wave_result")));
            };
            if wave != wave_id {
                return Err(bad_data(format!(
                    "shard {index}: wave_result for wave {wave}, expected {wave_id}"
                )));
            }
            let shaped = |(slot, part): (&Slot, &SlotAnswer)| answers_for(slot, part, range);
            if parts.len() != slots.len() || !slots.iter().zip(&parts).all(shaped) {
                return Err(bad_data(format!(
                    "shard {index}: wave_result does not answer the wave's {} slots over \
                     owned vertices {range:?}",
                    slots.len()
                )));
            }
            for (answer, part) in answers.iter_mut().zip(parts) {
                answer.merge(part);
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
        // The wave's levels: its deepest search's histogram.
        let levels = answers
            .iter()
            .map(|a| a.depth_histogram.len())
            .max()
            .unwrap_or(0);
        let index = wave_id as usize;
        let (mut outcomes, stats) =
            wave_outcomes(index, wave, answers, levels, seconds, model.is_some());
        outcomes.sort_by_key(|o| o.id);
        Ok(BatchReport {
            outcomes,
            seconds,
            waves: vec![stats],
            ..BatchReport::default()
        })
    }
}

/// True when `part` holds what `slot` asks of the shard owning `range`:
/// a depth row over the range for a map slot, a parent row too when it
/// records parents, and a target depth only from the target's owner.
fn answers_for(slot: &Slot, part: &SlotAnswer, range: &Range<usize>) -> bool {
    let (map, tree, owns_target) = match *slot {
        Slot::Map { parents, .. } => (true, parents, false),
        Slot::Point { target, .. } => (false, false, range.contains(&(target as usize))),
    };
    let row = |asked: bool, row: &Option<Vec<u32>>| {
        row.as_ref().map(Vec::len) == asked.then_some(range.len())
    };
    row(map, &part.depths)
        && row(tree, &part.parents)
        && (owns_target || part.target_depth.is_none())
}

pub(crate) fn bad_data(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::swire::{Bucket, ExchangeItem};
    use mcbfs_query::{Query, QueryResult};
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

    /// One `query` from vertex 0 over two shards owning 0..3 and 3..5,
    /// answered by `scripts`.
    fn drive(query: Query, scripts: [Vec<ShardFrame>; 2]) -> io::Result<BatchReport> {
        let wave = [Admitted {
            id: 0,
            query,
            queued: Duration::ZERO,
        }];
        let mut links = scripts.map(|script| Scripted(script.into()));
        Cluster::new(5, 0, vec![0..3, 3..5]).execute_wave(&mut links, &wave, None)
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

    /// One shard's answer to its single slot.
    fn part(histogram: &[u64], target_depth: Option<u32>, depths: Option<&[u32]>) -> SlotAnswer {
        SlotAnswer {
            depth_histogram: histogram.to_vec(),
            edges: histogram.iter().sum(),
            target_depth,
            depths: depths.map(<[u32]>::to_vec),
            parents: None,
        }
    }

    /// A shard's script: the wave ends at level 0 and it answers `answers`.
    fn script(answers: Vec<SlotAnswer>) -> Vec<ShardFrame> {
        vec![exchange(None), ShardFrame::WaveResult { wave: 0, answers }]
    }

    #[test]
    fn well_formed_answers_are_merged_in_shard_order() {
        let report = drive(
            DISTANCES,
            [
                script(vec![part(&[1, 0, 1], None, Some(&[0, u32::MAX, 2]))]),
                script(vec![part(&[0, 2, 0, 1], None, Some(&[1, 3]))]),
            ],
        )
        .expect("well-formed wave");
        let outcome = &report.outcomes[0];
        assert_eq!(outcome.result.depths(), Some(&[0, u32::MAX, 2, 1, 3][..]));
        assert_eq!(outcome.depth_histogram, [1, 2, 1, 1]);
        assert_eq!(outcome.edges, 5);
        assert_eq!(report.waves[0].levels, 4);
        // A point query's depth is its target's owner's.
        let stcon = Query::StCon { s: 0, t: 4 };
        let report = drive(
            stcon,
            [
                script(vec![part(&[1], None, None)]),
                script(vec![part(&[0, 0, 1], Some(2), None)]),
            ],
        )
        .expect("well-formed wave");
        let outcome = &report.outcomes[0];
        assert_eq!(outcome.result, QueryResult::StCon { distance: Some(2) });
        assert_eq!(outcome.depth_histogram, [1, 0, 1]);
    }

    #[test]
    fn malformed_worker_frames_are_invalid_data() {
        let parents = Query::Parents { root: 0 };
        let stcon = Query::StCon { s: 0, t: 4 };
        let fine = |depths: &[u32]| script(vec![part(&[1], None, Some(depths))]);
        let point = |target_depth| script(vec![part(&[1], target_depth, None)]);
        let scripts = [
            // Buckets addressed past the last shard.
            (DISTANCES, [vec![exchange(Some(2))], vec![exchange(None)]]),
            (
                DISTANCES,
                [vec![exchange(Some(u64::MAX))], vec![exchange(None)]],
            ),
            // Results with the wrong slot count or row length.
            (DISTANCES, [script(vec![]), fine(&[0, 1])]),
            (
                DISTANCES,
                [
                    script(vec![part(&[1], None, Some(&[0, 1, 2])); 2]),
                    fine(&[0, 1]),
                ],
            ),
            (DISTANCES, [fine(&[0, 1, 2]), fine(&[0, 1, 2])]),
            // A map query answered without its row.
            (DISTANCES, [fine(&[0, 1, 2]), point(None)]),
            // A parents query answered without parents.
            (parents, [fine(&[0, 1, 2]), fine(&[0, 1])]),
            // A point query answered with a row, or with a target depth
            // from a shard that does not own the target.
            (stcon, [fine(&[0, 1, 2]), point(Some(1))]),
            (stcon, [point(Some(1)), point(Some(1))]),
        ];
        for (query, [a, b]) in scripts {
            let err = drive(query, [a.clone(), b.clone()]).expect_err("malformed frames fail");
            assert_eq!(
                err.kind(),
                io::ErrorKind::InvalidData,
                "{query:?} {a:?} {b:?}"
            );
        }
    }
}
