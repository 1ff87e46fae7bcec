//! Admission control: collect submitted queries into waves.
//!
//! The serving loop's contract is the classic batching trade-off — wait a
//! little to fill a wide wave (throughput), but never hold a query longer
//! than `max_wait` (latency). Pending queries live in a
//! [`ContinuousQueue`] — the bounded ring variant of the fetch-add frontier
//! array the BFS levels use — so submission from concurrent producers is
//! one bounded ticket reservation, sealing a wave is one chunked pop, and
//! the ticket **is** the submission index: waves preserve strict FIFO
//! ticket order by construction, across any producer interleaving.
//!
//! Built for continuous serving: the ring is bounded, [`QueryBatcher::try_submit`]
//! reports `Overloaded` instead of growing without limit (the server's load
//! shedding), every pending query carries its submission timestamp (so the
//! scheduler can close waves on an age deadline and report queue time
//! separately from service time), and [`QueryBatcher::close`] drains-then-stops
//! for graceful shutdown.

use crate::engine::{BatchReport, Query};
use crate::msbfs::MAX_SOURCES;
use mcbfs_sync::workq::{ContinuousQueue, PushError};
use mcbfs_trace::{EventKind, RunMeta, TraceEvent};
use std::time::{Duration, Instant};

/// Admission policy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BatcherOpts {
    /// Seal a wave as soon as this many queries are pending (clamped to
    /// `1..=`[`MAX_SOURCES`]).
    pub max_batch: usize,
    /// Seal a partial wave once its oldest query has waited this long.
    pub max_wait: Duration,
}

impl Default for BatcherOpts {
    fn default() -> Self {
        Self {
            max_batch: MAX_SOURCES,
            max_wait: Duration::from_millis(2),
        }
    }
}

/// Why a submission was not admitted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AdmitError {
    /// Pending depth reached the batcher's capacity; the caller should
    /// shed the query with an explicit reply, never drop it silently.
    Overloaded,
    /// The batcher is draining for shutdown.
    Closed,
}

/// One queued query. `Copy + Default` so it can ride the
/// `sync::workq::ContinuousQueue` admission ring.
#[derive(Clone, Copy, Debug, Default)]
struct Pending {
    query: Query,
    /// Submission time, nanoseconds since the batcher's epoch.
    submit_ns: u64,
}

/// One query sealed into a wave, with its admission metadata.
#[derive(Clone, Copy, Debug)]
pub struct Admitted {
    /// Admission ticket (dense from 0 — also the submission index).
    pub id: u64,
    /// The query as admitted.
    pub query: Query,
    /// Time the query spent queued, submission to wave seal.
    pub queued: Duration,
}

/// Collects concurrently-submitted queries and seals them into waves of at
/// most `max_batch`, in strict submission (ticket) order.
pub struct QueryBatcher {
    queue: ContinuousQueue<Pending>,
    opts: BatcherOpts,
    /// Clock origin for the per-query submission timestamps.
    epoch: Instant,
}

impl QueryBatcher {
    /// A batcher whose pending depth is bounded by `capacity` (the
    /// admission-control high-water mark; submissions beyond it report
    /// [`AdmitError::Overloaded`]).
    pub fn new(opts: BatcherOpts, capacity: usize) -> Self {
        let opts = BatcherOpts {
            max_batch: opts.max_batch.clamp(1, MAX_SOURCES),
            ..opts
        };
        Self {
            queue: ContinuousQueue::with_capacity(capacity.max(1)),
            opts,
            epoch: Instant::now(),
        }
    }

    /// The effective (clamped) admission policy.
    pub fn opts(&self) -> BatcherOpts {
        self.opts
    }

    /// Submits one query, returning its admission ticket (sequential from
    /// 0 — also its index in the submission order), or the reason it was
    /// rejected. Rejection is a normal serving outcome (shed or draining),
    /// never a panic.
    pub fn try_submit(&self, query: Query) -> Result<u64, AdmitError> {
        let pending = Pending {
            query,
            submit_ns: self.epoch.elapsed().as_nanos() as u64,
        };
        self.queue.try_push(pending).map_err(|e| match e {
            PushError::Full => AdmitError::Overloaded,
            PushError::Closed => AdmitError::Closed,
        })
    }

    /// Submits one query, panicking on rejection — for offline batch
    /// callers that sized the batcher to their query set and never close
    /// it mid-run.
    pub fn submit(&self, query: Query) -> u64 {
        self.try_submit(query)
            .expect("batcher sized for the submission set and not closed")
    }

    /// Queries submitted but not yet sealed into a wave.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Total queries ever admitted (the next ticket to be issued).
    pub fn submitted(&self) -> u64 {
        self.queue.tickets_issued()
    }

    /// Age of the oldest still-pending query, or `None` when drained.
    pub fn oldest_age(&self) -> Option<Duration> {
        let (_, front) = self.queue.peek()?;
        Some(
            self.epoch
                .elapsed()
                .saturating_sub(Duration::from_nanos(front.submit_ns)),
        )
    }

    /// True when the policy says a wave should be sealed now: a full batch
    /// is pending, or a partial one has aged past `max_wait` (the
    /// continuous-batching close condition — whichever fires first).
    pub fn ready(&self) -> bool {
        let pending = self.pending();
        if pending >= self.opts.max_batch {
            return true;
        }
        pending > 0
            && self
                .oldest_age()
                .is_some_and(|age| age >= self.opts.max_wait)
    }

    /// Seals and returns the next wave (up to `max_batch` queries in
    /// strict ticket order), or `None` when nothing is pending. Records a
    /// [`EventKind::BatchAdmit`] span covering the oldest query's wait when
    /// a trace session is active.
    pub fn take_wave(&self) -> Option<Vec<Admitted>> {
        let mut chunk: Vec<(u64, Pending)> = Vec::with_capacity(self.opts.max_batch);
        if self.queue.pop_chunk(&mut chunk, self.opts.max_batch) == 0 {
            return None;
        }
        let sealed_ns = self.epoch.elapsed().as_nanos() as u64;
        let wave: Vec<Admitted> = chunk
            .into_iter()
            .map(|(id, p)| Admitted {
                id,
                query: p.query,
                queued: Duration::from_nanos(sealed_ns.saturating_sub(p.submit_ns)),
            })
            .collect();
        if mcbfs_trace::enabled() {
            // Backdate the span to the first admission so the trace shows
            // the true batching delay, not just the seal call.
            let now = mcbfs_trace::now_ns();
            let dur = wave[0].queued.as_nanos() as u64;
            mcbfs_trace::inject(
                0,
                vec![TraceEvent {
                    start_ns: now.saturating_sub(dur),
                    dur_ns: dur,
                    kind: EventKind::BatchAdmit,
                    arg: wave.len() as u64,
                }],
            );
        }
        Some(wave)
    }

    /// Seals everything pending into consecutive waves (a flush — ignores
    /// `max_wait`).
    pub fn drain(&self) -> Vec<Vec<Admitted>> {
        let mut waves = Vec::new();
        while let Some(wave) = self.take_wave() {
            waves.push(wave);
        }
        waves
    }

    /// Stops admitting; pending queries remain sealable. The shutdown
    /// handshake is close → drain → exit.
    pub fn close(&self) {
        self.queue.close();
    }

    /// `true` once [`QueryBatcher::close`] has been called.
    pub fn is_closed(&self) -> bool {
        self.queue.is_closed()
    }
}

/// Serves `queries` offline, the throughput mode of `core::throughput`
/// with waves in place of whole searches: admits them through a
/// [`QueryBatcher`] (no age deadline), gives wave `w` to dispatcher
/// `w % dispatchers` (the caller's thread when there is one, scoped
/// threads otherwise), and runs each through `execute_wave`, which returns
/// a one-wave report. Each query's latency is its queue time plus its
/// dispatcher's running sum of wave seconds, and the makespan is the
/// largest latency, so the slowest dispatcher sets it. Waves come back in
/// wave order, outcomes in submission order.
pub fn run_batch(
    queries: &[Query],
    max_batch: usize,
    dispatchers: usize,
    execute_wave: impl Fn(&[Admitted]) -> BatchReport + Sync,
) -> BatchReport {
    let batcher = QueryBatcher::new(
        BatcherOpts {
            max_batch,
            max_wait: Duration::ZERO,
        },
        queries.len().max(1),
    );
    for &q in queries {
        batcher.submit(q);
    }
    let waves = batcher.drain();
    let dispatchers = dispatchers.clamp(1, waves.len().max(1));
    let dispatch = |d: usize| -> Vec<BatchReport> {
        let mut clock = 0.0f64;
        let reports = (d..waves.len()).step_by(dispatchers).map(|w| {
            let mut report = execute_wave(&waves[w]);
            for stats in &mut report.waves {
                clock += stats.seconds;
                stats.wave = w;
                stats.socket = d;
            }
            for o in &mut report.outcomes {
                o.wave = w;
                o.latency_seconds = o.queue_seconds + clock;
            }
            report
        });
        reports.collect()
    };
    let reports = if dispatchers == 1 {
        dispatch(0)
    } else {
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..dispatchers)
                .map(|d| {
                    s.spawn(move || {
                        let reports = dispatch(d);
                        mcbfs_trace::flush_thread();
                        reports
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("wave dispatcher"))
                .collect()
        })
    };
    let mut batch = BatchReport::default();
    for report in reports {
        batch.outcomes.extend(report.outcomes);
        batch.waves.extend(report.waves);
    }
    batch.waves.sort_by_key(|s| s.wave);
    batch.outcomes.sort_by_key(|o| o.id);
    batch.seconds = batch
        .outcomes
        .iter()
        .fold(0.0, |a, o| a.max(o.latency_seconds));
    batch
}

/// Runs `serve` inside a trace session described by `meta`, when there is
/// one: the calling thread records as worker 0, and the report carries
/// what the session collected (nothing on a build without the `trace`
/// feature). Both offline engines open their session here.
pub fn run_traced(meta: Option<RunMeta>, serve: impl FnOnce() -> BatchReport) -> BatchReport {
    let Some(meta) = meta else {
        return serve();
    };
    mcbfs_trace::start(meta);
    mcbfs_trace::register_worker(0);
    let mut report = serve();
    mcbfs_trace::flush_thread();
    report.trace = mcbfs_trace::finish();
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(root: u32) -> Query {
        Query::Distances { root }
    }

    fn ids(waves: &[Vec<Admitted>]) -> Vec<u64> {
        waves.iter().flatten().map(|a| a.id).collect()
    }

    #[test]
    fn seals_in_submission_order_with_max_batch() {
        let b = QueryBatcher::new(
            BatcherOpts {
                max_batch: 3,
                max_wait: Duration::from_secs(60),
            },
            10,
        );
        for i in 0..7 {
            assert_eq!(b.submit(q(i)), i as u64);
        }
        assert!(b.ready(), "full batch pending");
        let waves = b.drain();
        assert_eq!(waves.len(), 3);
        assert_eq!(waves[0].len(), 3);
        assert_eq!(waves[2].len(), 1);
        assert_eq!(ids(&waves), (0..7).collect::<Vec<_>>());
        assert_eq!(b.pending(), 0);
        assert!(b.take_wave().is_none());
    }

    #[test]
    fn partial_wave_ready_only_after_max_wait() {
        let b = QueryBatcher::new(
            BatcherOpts {
                max_batch: 8,
                max_wait: Duration::from_millis(1),
            },
            4,
        );
        assert!(!b.ready(), "empty batcher never ready");
        b.submit(q(0));
        std::thread::sleep(Duration::from_millis(2));
        assert!(b.ready(), "aged partial wave is ready");
        let wave = b.take_wave().unwrap();
        assert_eq!(wave.len(), 1);
        assert!(
            wave[0].queued >= Duration::from_millis(2),
            "queued {:?} under the sleep",
            wave[0].queued
        );
        assert!(!b.ready());
    }

    #[test]
    fn max_batch_clamped_to_kernel_width() {
        let b = QueryBatcher::new(
            BatcherOpts {
                max_batch: 1000,
                max_wait: Duration::ZERO,
            },
            128,
        );
        assert_eq!(b.opts().max_batch, MAX_SOURCES);
        for i in 0..80 {
            b.submit(q(i));
        }
        let waves = b.drain();
        assert_eq!(waves[0].len(), MAX_SOURCES);
        assert_eq!(waves[1].len(), 80 - MAX_SOURCES);
    }

    #[test]
    fn bounded_admission_sheds_then_recovers() {
        let b = QueryBatcher::new(BatcherOpts::default(), 2);
        assert_eq!(b.try_submit(q(0)), Ok(0));
        assert_eq!(b.try_submit(q(1)), Ok(1));
        assert_eq!(b.try_submit(q(2)), Err(AdmitError::Overloaded));
        let wave = b.take_wave().unwrap();
        assert_eq!(wave.len(), 2);
        // Depth freed: admission resumes with the next dense ticket.
        assert_eq!(b.try_submit(q(3)), Ok(2));
        assert_eq!(b.submitted(), 3);
    }

    #[test]
    fn close_drains_then_rejects() {
        let b = QueryBatcher::new(BatcherOpts::default(), 8);
        b.submit(q(0));
        b.close();
        assert!(b.is_closed());
        assert_eq!(b.try_submit(q(1)), Err(AdmitError::Closed));
        assert_eq!(b.take_wave().unwrap().len(), 1);
        assert!(b.take_wave().is_none());
    }

    #[test]
    fn reusable_after_drain_to_empty() {
        // Regression: the previous SharedQueue-backed batcher lost queries
        // submitted after a drain had overshot the dequeue cursor.
        let b = QueryBatcher::new(BatcherOpts::default(), 8);
        b.submit(q(0));
        assert_eq!(b.drain().len(), 1);
        assert!(b.take_wave().is_none());
        b.submit(q(1));
        let waves = b.drain();
        assert_eq!(waves.len(), 1);
        assert_eq!(waves[0][0].id, 1);
        assert_eq!(
            waves[0][0].query,
            Query::Distances { root: 1 },
            "post-drain submission must not be lost"
        );
    }

    #[test]
    fn concurrent_submission_loses_nothing_and_stays_fifo() {
        let b = QueryBatcher::new(BatcherOpts::default(), 400);
        std::thread::scope(|s| {
            for t in 0..4 {
                let b = &b;
                s.spawn(move || {
                    for i in 0..100 {
                        b.submit(q(t * 100 + i));
                    }
                });
            }
        });
        let waves = b.drain();
        // Tickets are dense, and waves preserve strict ticket order even
        // under concurrent submission — no sort needed.
        assert_eq!(ids(&waves), (0..400).collect::<Vec<_>>());
    }

    #[test]
    fn run_batch_schedules_waves_round_robin_on_running_clocks() {
        // Wave w of [0,1] [2,3] [4,5] [6] takes 2w + 1 seconds, and its
        // queries report 0.5 s of queue time.
        let execute_wave = |wave: &[Admitted]| {
            let seconds = wave[0].id as f64 + 1.0;
            let answer = crate::msbfs::SlotAnswer {
                depth_histogram: vec![1],
                edges: 1,
                target_depth: None,
                depths: Some(vec![0]),
                parents: None,
            };
            let answers = vec![answer; wave.len()];
            let (mut outcomes, stats) = crate::engine::wave_outcomes(9, wave, answers, 1, seconds);
            for o in &mut outcomes {
                o.queue_seconds = 0.5;
            }
            BatchReport {
                outcomes,
                seconds,
                waves: vec![stats],
                trace: None,
            }
        };
        let queries: Vec<Query> = (0..7).map(|_| q(0)).collect();
        // One dispatcher: 1, 1+3, 1+3+5, 1+3+5+7.
        let serial = run_batch(&queries, 2, 1, execute_wave);
        let latency: Vec<f64> = serial.outcomes.iter().map(|o| o.latency_seconds).collect();
        assert_eq!(latency, [1.5, 1.5, 4.5, 4.5, 9.5, 9.5, 16.5]);
        assert_eq!(serial.seconds, 16.5);
        // Two dispatchers: waves 0 and 2 on one (1, 1+5), 1 and 3 on the
        // other (3, 3+7); the second sets the makespan.
        let pair = run_batch(&queries, 2, 2, execute_wave);
        let latency: Vec<f64> = pair.outcomes.iter().map(|o| o.latency_seconds).collect();
        assert_eq!(latency, [1.5, 1.5, 3.5, 3.5, 6.5, 6.5, 10.5]);
        assert_eq!(pair.seconds, 10.5);
        let placed: Vec<(usize, usize)> = pair.waves.iter().map(|w| (w.wave, w.socket)).collect();
        assert_eq!(placed, [(0, 0), (1, 1), (2, 0), (3, 1)]);
        let waves: Vec<usize> = pair.outcomes.iter().map(|o| o.wave).collect();
        assert_eq!(waves, [0, 0, 1, 1, 2, 2, 3]);
        assert_eq!(pair.total_edges(), 7);
    }
}
