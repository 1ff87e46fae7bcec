//! `serve-point`, `serve-map` and `cluster-point`: the query service,
//! driven over loopback TCP by the wire-v1 client in phases —
//!
//! * warm-up: closed loop, discarded;
//! * paced: open loop, Poisson arrivals at the workload's fixed rate,
//!   latency timed from each request's scheduled send time;
//! * saturation: closed loop, 2 connections × `sat_inflight` outstanding.
//!
//! An untraced run alternates paced and saturation phases over
//! [`ROUNDS`] rounds. A traced run runs each phase once, adds a solo phase
//! (one request in flight, so every wave is a singleton) and times every
//! wave through [`crate::trace::Timed`].

use crate::client::{self, Outcome, Phase, Req, Status};
use crate::inputs::{self, GraphSpec, Sources};
use crate::metrics::Report;
use crate::oracle::{self, Tally};
use crate::stats::{self, mean, median, percentile, poisson_offsets};
use crate::system::{self, System, Tracing};
use crate::trace::{join_key, JoinKey, Spans, WaveLog, WaveRecord, LANE_CLIENT};
use mcbfs_graph::csr::CsrGraph;
use mcbfs_query::Query;
use mcbfs_serve::wire::{self, Response};
use mcbfs_shard::{ExchangeItem, LevelExchange, ShardFrame};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeSet, HashMap};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The request mix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mix {
    /// Half `stcon`, half `reachable`: replies of a few hundred bytes.
    Point,
    /// 80% `distances`, 20% `parents`: replies carry whole per-vertex
    /// arrays.
    Map,
}

pub struct ServingCfg {
    pub graph: GraphSpec,
    pub mix: Mix,
    /// Open-loop arrival rate of the paced phase, queries per second.
    pub paced_qps: f64,
    /// Roughly the saturated rate on the calibration host; sizes the prebuilt
    /// request lists of the closed-loop phases.
    pub sat_qps: f64,
    /// Requests outstanding per connection at saturation.
    pub sat_inflight: usize,
    /// Client-side deadline after which a request counts as unresolved.
    pub deadline: Duration,
}

const SETUPS: usize = 5;
const TRACED_SETUPS: usize = 3;
const ROUNDS: usize = 3;
/// Shares of the run: warm-up, then the paced and saturation phases of all
/// rounds together (a traced run: solo, paced, saturation).
const WARMUP_SHARE: f64 = 0.05;
const PACED_SHARE: f64 = 0.65;
const SAT_SHARE: f64 = 0.25;
const SOLO_SHARE: f64 = 0.1;
const TRACED_PACED_SHARE: f64 = 0.6;
/// Paced requests at least: p90 needs 100 served, with a margin.
const MIN_PACED: usize = 110;
/// A traced paced phase also needs 100 waves for the wave-time p90, and
/// at the paced rates a wave holds up to about 1.4 queries.
const MIN_TRACED_PACED: usize = 170;
/// A generator later than this at p90 invalidates the run.
const MAX_LATE_MS: f64 = 5.0;
/// Oracle sample per run: point answers, distance maps, BFS trees.
const KEEP: [usize; 3] = [256, 64, 16];

/// Builds request lists from the seed: distinct sources within a list, and
/// the first [`KEEP`] replies of each kind kept for the oracle.
struct Requests<'g> {
    graph: &'g CsrGraph,
    mix: Mix,
    rng: SmallRng,
    kept: [usize; 3],
}

impl<'g> Requests<'g> {
    fn lists(&mut self, lists: usize, each: usize, keep: bool) -> Vec<Vec<Req>> {
        let mut sources = Sources::new(self.graph);
        let n = self.graph.num_vertices() as u32;
        // The mix holds exactly in every list, in a seeded order: a tail
        // percentile that falls in the slower kind then does not move with
        // the luck of the draw.
        let second_share = match self.mix {
            Mix::Point => 0.5,
            Mix::Map => 0.2,
        };
        (0..lists)
            .map(|_| {
                let mut second: Vec<bool> = (0..each)
                    .map(|i| (i as f64) < second_share * each as f64)
                    .collect();
                for i in (1..each).rev() {
                    second.swap(i, self.rng.gen_range(0..=i));
                }
                (0..each)
                    .map(|tag| {
                        let s = sources.draw(&mut self.rng);
                        let query = match (self.mix, second[tag]) {
                            (Mix::Point, false) => Query::StCon {
                                s,
                                t: self.rng.gen_range(0..n),
                            },
                            (Mix::Point, true) => Query::Reachable {
                                from: s,
                                to: self.rng.gen_range(0..n),
                            },
                            (Mix::Map, false) => Query::Distances { root: s },
                            (Mix::Map, true) => Query::Parents { root: s },
                        };
                        let slot = match query {
                            Query::StCon { .. } | Query::Reachable { .. } => 0,
                            Query::Distances { .. } => 1,
                            Query::Parents { .. } => 2,
                        };
                        let kept = keep && self.kept[slot] < KEEP[slot];
                        self.kept[slot] += kept as usize;
                        Req::new(tag, query, kept)
                    })
                    .collect()
            })
            .collect()
    }
}

fn io(e: std::io::Error) -> String {
    format!("client: {e}")
}

/// Runs the phases against one hosted system.
struct Load<'g> {
    cfg: &'g ServingCfg,
    seconds: f64,
    requests: Requests<'g>,
}

impl Load<'_> {
    fn share(&self, share: f64) -> Duration {
        Duration::from_secs_f64(self.seconds * share)
    }

    /// Closed loop on `conns` connections for `share` of the run (at least
    /// `min_each` requests per connection).
    fn closed(
        &mut self,
        sys: &System,
        conns: usize,
        inflight: usize,
        share: f64,
        min_each: usize,
        keep: bool,
    ) -> Result<Phase, String> {
        let run_for = self.share(share);
        // Lists long enough that the time limit, not the list, ends the
        // phase at up to eight times the nominal saturated rate.
        let each = min_each
            .max((self.cfg.sat_qps * run_for.as_secs_f64() * 8.0 / conns as f64).ceil() as usize)
            + inflight;
        let lists = self.requests.lists(conns, each, keep);
        client::closed_loop(
            sys.addr,
            &lists,
            inflight,
            run_for,
            min_each,
            self.cfg.deadline,
        )
        .map_err(io)
    }

    fn warmup(&mut self, sys: &System) -> Result<Phase, String> {
        self.closed(sys, 2, 4, WARMUP_SHARE, 0, false)
    }

    fn saturate(&mut self, sys: &System, share: f64) -> Result<Phase, String> {
        let inflight = self.cfg.sat_inflight;
        self.closed(sys, 2, inflight, share, inflight, true)
    }

    /// An open-loop schedule for `share` of the run at the paced rate (at
    /// least `min` requests), drawn before any phase runs it.
    fn schedule(&mut self, share: f64, min: usize) -> Schedule {
        let qps = self.cfg.paced_qps;
        let n = ((qps * self.seconds * share).ceil() as usize).max(min);
        let offsets = poisson_offsets(&mut self.requests.rng, qps, n);
        let reqs = self.requests.lists(1, n, true).pop().expect("one list");
        Schedule { reqs, offsets }
    }

    fn paced(&self, sys: &System, schedule: &Schedule) -> Result<Phase, String> {
        client::open_loop(
            sys.addr,
            &schedule.reqs,
            &schedule.offsets,
            self.cfg.deadline,
        )
        .map_err(io)
    }
}

struct Schedule {
    reqs: Vec<Req>,
    offsets: Vec<Duration>,
}

fn served(phase: &Phase) -> impl Iterator<Item = &Outcome> {
    phase.outcomes.iter().filter(|o| o.status == Status::Served)
}

fn latencies(phase: &Phase) -> Vec<f64> {
    served(phase).filter_map(Outcome::latency_ms).collect()
}

fn wall_ms(phase: &Phase) -> f64 {
    phase.ended.duration_since(phase.started).as_secs_f64() * 1e3
}

/// Million reachable-edge visits answered per second: the served queries'
/// TEPS numerators over the time from the phase start to its last reply.
fn served_meps(phase: &Phase) -> Result<f64, String> {
    let last = served(phase)
        .filter_map(|o| o.done)
        .max()
        .ok_or("no request was served at saturation")?;
    let edges: u64 = served(phase).map(|o| o.edges).sum();
    Ok(edges as f64 / last.duration_since(phase.started).as_secs_f64() / 1e6)
}

/// Checks that the generator kept to its schedule; returns its p90
/// lateness in milliseconds.
fn check_lateness(paced: &[&Phase]) -> Result<f64, String> {
    let late: Vec<f64> = paced
        .iter()
        .flat_map(|p| &p.outcomes)
        .filter_map(Outcome::late_ms)
        .collect();
    let p90 = percentile(&late, 0.9, "generator lateness")?;
    if p90 > MAX_LATE_MS {
        return Err(format!(
            "run invalid: the load generator sent {p90:.2} ms late at p90 (limit {MAX_LATE_MS} ms)"
        ));
    }
    Ok(p90)
}

/// Counts outcomes into the report and returns the per-status counts.
fn account(report: &mut Report, phases: &[&Phase]) -> HashMap<Status, u64> {
    let mut counts = HashMap::new();
    for o in phases.iter().flat_map(|p| &p.outcomes) {
        *counts.entry(o.status).or_insert(0) += 1;
        report.attempted += 1;
        report.failed += (o.status != Status::Served) as u64;
    }
    counts
}

fn check(graph: &CsrGraph, report: &mut Report, phases: &[&Phase]) {
    let kept: Vec<(Query, &_)> = phases
        .iter()
        .flat_map(|p| &p.outcomes)
        .filter_map(|o| o.kept.as_ref().map(|r| (o.query, r)))
        .collect();
    let tally: Tally = oracle::check_replies(graph, &kept);
    report.checked = tally.checked;
    report.wrong = tally.wrong;
    if let Some(e) = tally.first_error {
        report.note(format!("WRONG: {e}"));
    }
}

/// Per set-up: total seconds, load milliseconds, `Router::connect`
/// milliseconds.
#[derive(Default)]
struct SetUps {
    total_s: Vec<f64>,
    load_ms: Vec<f64>,
    connect_ms: Vec<f64>,
}

/// Starts the system `times` times from the page-cache-warm files and keeps
/// the last one running.
fn set_up(
    spec: &GraphSpec,
    times: usize,
    tracing: Option<&Tracing>,
) -> Result<(System, SetUps), String> {
    let mut setups = SetUps::default();
    for i in 0..times {
        let t0 = Instant::now();
        let sys = system::start(spec, tracing)?;
        setups.total_s.push(t0.elapsed().as_secs_f64());
        setups.load_ms.push(sys.load_ms);
        setups.connect_ms.push(sys.connect_ms);
        if i + 1 == times {
            return Ok((sys, setups));
        }
        sys.stop()?;
    }
    Err("no set-up ran".to_string())
}

pub fn run(
    cfg: &ServingCfg,
    seed: u64,
    seconds: f64,
    traced: bool,
    in_child: bool,
    trace_path: &Path,
) -> Result<Report, String> {
    cfg.graph.ensure(in_child)?;
    cfg.graph.warm()?;
    let tracing = traced.then(|| Tracing {
        log: Arc::new(WaveLog::default()),
        spans: Arc::new(Spans::new()),
    });
    let setups = if traced { TRACED_SETUPS } else { SETUPS };
    let (sys, setups) = set_up(&cfg.graph, setups, tracing.as_ref())?;
    // The client draws sources from the graph it serves; a cluster's
    // client reads the whole CSR (small at cluster scale).
    let graph = match &sys.graph {
        Some(g) => Arc::clone(g),
        None => Arc::new(inputs::read_csr(&cfg.graph.csr_path())?),
    };
    let mut load = Load {
        cfg,
        seconds,
        requests: Requests {
            graph: &graph,
            mix: cfg.mix,
            rng: SmallRng::seed_from_u64(seed),
            kept: [0; 3],
        },
    };
    let mut report = Report::default();
    let outcome = match &tracing {
        None => untraced(&mut load, &sys, &mut report, &setups.total_s),
        Some(tracing) => traced_run(&mut load, &sys, &mut report, tracing, &setups, trace_path),
    };
    // A system that fails to stop (a thread that panicked or hangs) is
    // reported, not fatal: its failed requests are already counted.
    if let Err(e) = sys.stop() {
        eprintln!("teardown: {e}");
        report.note(format!("teardown: {e}"));
    }
    let phases = outcome?;
    check(&graph, &mut report, &phases.iter().collect::<Vec<_>>());
    Ok(report)
}

/// End-to-end metrics; returns the phases whose kept replies the oracle
/// checks.
///
/// Paced and saturation phases alternate over [`ROUNDS`] rounds, and every
/// paced phase replays one schedule — the same requests at the same
/// offsets. The host's other tenants steal CPU in bursts, which only ever
/// slow a request down, so each request's latency is its best over the
/// replays, and throughput is the best round's: what the system does when
/// the host leaves it alone, which is what a change to the system moves.
fn untraced(
    d: &mut Load,
    sys: &System,
    report: &mut Report,
    setup_s: &[f64],
) -> Result<Vec<Phase>, String> {
    // The footprint of loading and hosting the system. Under load the
    // allocator's per-thread arenas add a few MB that vary from run to run
    // with thread scheduling, not with the program.
    let peak = crate::peak_rss_mb()?;
    let warm = d.warmup(sys)?;
    let schedule = d.schedule(PACED_SHARE / ROUNDS as f64, MIN_PACED);
    let mut best = vec![f64::INFINITY; schedule.reqs.len()];
    let (mut phases, mut meps, mut p50) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..ROUNDS {
        let paced = d.paced(sys, &schedule)?;
        for (b, o) in best.iter_mut().zip(&paced.outcomes) {
            if let Some(ms) = o.latency_ms().filter(|_| o.status == Status::Served) {
                *b = b.min(ms);
            }
        }
        p50.push(percentile(&latencies(&paced), 0.5, "paced latency")?);
        let sat = d.saturate(sys, SAT_SHARE / ROUNDS as f64)?;
        meps.push(served_meps(&sat)?);
        phases.push(paced);
        phases.push(sat);
    }
    let counts = account(report, &phases.iter().chain([&warm]).collect::<Vec<_>>());
    let paced: Vec<&Phase> = phases.iter().step_by(2).collect();
    let late = check_lateness(&paced)?;
    let best: Vec<f64> = best.into_iter().filter(|b| b.is_finite()).collect();
    report.set("setup_s", median(setup_s), Some(setup_s.len()));
    report.set("peak_rss_mb", peak, None);
    report.set(
        "bfs_meps",
        meps.iter().copied().fold(0.0, f64::max),
        Some(ROUNDS),
    );
    report.set(
        "latency_p50_ms",
        percentile(&best, 0.5, "paced latency")?,
        Some(best.len()),
    );
    report.set(
        "latency_p90_ms",
        percentile(&best, 0.9, "paced latency")?,
        Some(best.len()),
    );
    report.note(format!(
        "{ROUNDS} rounds of {} paced requests at {} qps (generator p90 lateness {late:.3} ms, \
         per-round p50 {p50:.3?} ms) and saturation at 2 x {} ({meps:.2?} ME/s); outcomes {counts:?}",
        schedule.reqs.len(),
        d.cfg.paced_qps,
        d.cfg.sat_inflight
    ));
    Ok(phases)
}

fn waves_in(log: &WaveLog, phase: &Phase) -> Vec<WaveRecord> {
    log.between(phase.started, phase.ended)
}

fn record_requests(spans: &Spans, phase: &Phase) {
    for o in &phase.outcomes {
        if let (Some(sent), Some(done)) = (o.sent, o.done) {
            let (kind, s, t) = join_key(&o.query);
            let t = t.map_or("null".to_string(), |t| t.to_string());
            let args = format!(
                "\"kind\":\"{kind}\",\"source\":{s},\"target\":{t},\"status\":\"{:?}\"",
                o.status
            );
            spans.record(
                "client.request",
                LANE_CLIENT + o.conn as u32,
                format!("{}:{}", o.conn, o.tag),
                o.due.unwrap_or(sent),
                done,
                args,
            );
        }
    }
}

/// Per-layer metrics; returns the phases whose kept replies the oracle
/// checks.
fn traced_run(
    d: &mut Load,
    sys: &System,
    report: &mut Report,
    tracing: &Tracing,
    setups: &SetUps,
    trace_path: &Path,
) -> Result<Vec<Phase>, String> {
    let warm = d.warmup(sys)?;
    let solo = d.closed(sys, 1, 1, SOLO_SHARE, stats::min_samples(0.5) + 10, false)?;
    let exchange_before = sys.router.as_ref().map(|r| r.exchange_log().levels.len());
    let schedule = d.schedule(TRACED_PACED_SHARE, MIN_TRACED_PACED);
    let paced = d.paced(sys, &schedule)?;
    let exchange: Option<Vec<LevelExchange>> = sys
        .router
        .as_ref()
        .zip(exchange_before)
        .map(|(r, before)| r.exchange_log().levels.split_off(before));
    let sat = d.saturate(sys, SAT_SHARE)?;
    let counts = account(report, &[&warm, &solo, &paced, &sat]);
    let log = &tracing.log;

    let load_ms = &setups.load_ms;
    report.set("graph.load_ms", median(load_ms), Some(load_ms.len()));

    // Solo: one request in flight, so every wave is a singleton.
    let solo_lat = latencies(&solo);
    let solo_waves: Vec<f64> = waves_in(log, &solo).iter().map(WaveRecord::ms).collect();
    report.set(
        "serve.solo_p50_ms",
        percentile(&solo_lat, 0.5, "solo latency")?,
        Some(solo_lat.len()),
    );
    report.set(
        "query.solo_wave_ms_p50",
        percentile(&solo_waves, 0.5, "solo wave time")?,
        Some(solo_waves.len()),
    );

    // Paced: wave time, width, queueing, and the residual left for the
    // wire, admission and reply routing once both are subtracted.
    let waves = waves_in(log, &paced);
    let wave_ms: Vec<f64> = waves.iter().map(WaveRecord::ms).collect();
    let widths: Vec<f64> = waves.iter().map(|w| w.keys.len() as f64).collect();
    let queued: Vec<f64> = waves
        .iter()
        .flat_map(|w| w.queued.iter().map(|q| q.as_secs_f64() * 1e3))
        .collect();
    let mut joined: HashMap<JoinKey, (f64, f64)> = HashMap::new();
    for w in &waves {
        for (key, q) in w.keys.iter().zip(&w.queued) {
            joined.insert(*key, (q.as_secs_f64() * 1e3, w.ms()));
        }
    }
    let residual: Vec<f64> = served(&paced)
        .filter_map(|o| {
            let (q, w) = joined.get(&join_key(&o.query))?;
            let client_ms = o.done?.duration_since(o.sent?).as_secs_f64() * 1e3;
            Some(client_ms - q - w)
        })
        .collect();
    let served_paced = served(&paced).count();
    let bookkeeping_ms: f64 = waves
        .iter()
        .map(|w| w.bookkeeping.as_secs_f64() * 1e3 * w.keys.len() as f64)
        .sum();
    let paced_lat = latencies(&paced);
    let late: Vec<f64> = paced.outcomes.iter().filter_map(Outcome::late_ms).collect();
    report.set(
        "query.wave_ms_p50",
        percentile(&wave_ms, 0.5, "paced wave time")?,
        Some(wave_ms.len()),
    );
    report.set(
        "query.wave_ms_p90",
        percentile(&wave_ms, 0.9, "paced wave time")?,
        Some(wave_ms.len()),
    );
    report.set("query.wave_width_paced", mean(&widths), Some(widths.len()));
    report.set(
        "query.singleton_share",
        widths.iter().filter(|&&w| w == 1.0).count() as f64 / widths.len().max(1) as f64,
        Some(widths.len()),
    );
    report.set(
        "query.queue_ms_p50",
        percentile(&queued, 0.5, "queue time")?,
        Some(queued.len()),
    );
    report.set(
        "query.queue_ms_p90",
        percentile(&queued, 0.9, "queue time")?,
        Some(queued.len()),
    );
    report.set(
        "query.busy_share_paced",
        wave_ms.iter().sum::<f64>() / wall_ms(&paced),
        None,
    );
    report.set(
        "serve.residual_ms_p50",
        percentile(&residual, 0.5, "residual")?,
        Some(residual.len()),
    );
    report.set(
        "serve.residual_ms_p90",
        percentile(&residual, 0.9, "residual")?,
        Some(residual.len()),
    );
    report.set(
        "serve.joined_share",
        residual.iter().filter(|&&r| r >= 0.0).count() as f64 / served_paced.max(1) as f64,
        Some(served_paced),
    );
    report.set(
        "serve.gen_late_ms_p90",
        percentile(&late, 0.9, "generator lateness")?,
        Some(late.len()),
    );
    report.set(
        "trace.overhead_share",
        bookkeeping_ms / paced_lat.iter().sum::<f64>().max(1e-9),
        Some(waves.len()),
    );
    report.note(format!(
        "paced p50 {:.3} ms ~ queue {:.3} + wave {:.3} + residual {:.3} ms (medians, n={})",
        percentile(&paced_lat, 0.5, "paced latency")?,
        percentile(&queued, 0.5, "queue time")?,
        percentile(&wave_ms, 0.5, "paced wave time")?,
        percentile(&residual, 0.5, "residual")?,
        paced_lat.len()
    ));

    // Saturation: executor cost per query and how busy it stayed.
    let sat_waves = waves_in(log, &sat);
    let sat_ms: f64 = sat_waves.iter().map(WaveRecord::ms).sum();
    let sat_queries: usize = sat_waves.iter().map(|w| w.keys.len()).sum();
    report.set(
        "query.us_per_query_sat",
        sat_ms * 1e3 / sat_queries.max(1) as f64,
        Some(sat_queries),
    );
    report.set(
        "query.wave_width_sat",
        sat_queries as f64 / sat_waves.len().max(1) as f64,
        Some(sat_waves.len()),
    );
    report.set("query.busy_share_sat", sat_ms / wall_ms(&sat), None);

    // Wire: reply sizes and the client's decode, plus `wire::encode`
    // replayed on the kept replies.
    let replies: Vec<&Outcome> = [&solo, &paced, &sat].into_iter().flat_map(served).collect();
    let kb: Vec<f64> = replies
        .iter()
        .map(|o| o.reply_bytes as f64 / 1024.0)
        .collect();
    let decode_us: Vec<f64> = replies.iter().map(|o| o.decode_ns as f64 / 1e3).collect();
    let mut encode_us = Vec::new();
    for reply in [&paced, &sat]
        .into_iter()
        .flat_map(|p| &p.outcomes)
        .filter_map(|o| o.kept.clone())
        .take(64)
    {
        let frame = Response::Ok(reply);
        let t0 = Instant::now();
        let line = wire::encode(&frame);
        encode_us.push(t0.elapsed().as_secs_f64() * 1e6);
        std::hint::black_box(line);
    }
    report.set("serve.reply_kb_mean", mean(&kb), Some(kb.len()));
    report.set(
        "serve.decode_us_per_reply",
        mean(&decode_us),
        Some(decode_us.len()),
    );
    report.set(
        "serve.encode_us_per_reply",
        mean(&encode_us),
        Some(encode_us.len()),
    );
    let attempted = report.attempted.max(1) as f64;
    let share = |s: Status| *counts.get(&s).unwrap_or(&0) as f64 / attempted;
    report.set("serve.shed_share", share(Status::Shed), None);
    report.set("serve.timeout_share", share(Status::Timeout), None);
    report.set("serve.error_share", share(Status::Error), None);
    report.set("serve.unresolved_share", share(Status::Unresolved), None);

    if let Some(levels) = exchange {
        shard_metrics(
            report,
            &levels,
            median(&setups.connect_ms),
            d.requests.graph.num_vertices() as u32,
        );
    }
    report.zero_unmeasured_layers();

    for phase in [&solo, &paced, &sat] {
        record_requests(&tracing.spans, phase);
    }
    tracing
        .spans
        .write_chrome(trace_path)
        .map_err(|e| format!("{}: {e}", trace_path.display()))?;
    report.note(format!("trace written to {}", trace_path.display()));
    Ok(vec![paced, sat])
}

/// The paced phase's shard exchange, from `Router::exchange_log` deltas.
fn shard_metrics(report: &mut Report, levels: &[LevelExchange], connect_ms: f64, n: u32) {
    let waves = levels
        .iter()
        .map(|l| l.wave)
        .collect::<BTreeSet<_>>()
        .len()
        .max(1) as f64;
    let sum = |f: fn(&LevelExchange) -> u64| levels.iter().map(f).sum::<u64>() as f64;
    let (frames, items, bytes) = (sum(|l| l.frames), sum(|l| l.items), sum(|l| l.bytes));
    report.set("shard.connect_ms", connect_ms, None);
    report.set(
        "shard.levels_per_wave",
        levels.len() as f64 / waves,
        Some(waves as usize),
    );
    report.set(
        "shard.frames_per_wave",
        frames / waves,
        Some(waves as usize),
    );
    report.set("shard.items_per_wave", items / waves, Some(waves as usize));
    report.set("shard.bytes_per_wave", bytes / waves, Some(waves as usize));
    report.set("shard.bytes_per_item", bytes / items.max(1.0), None);
    // One level's merged frame at the phase's mean size, encoded and
    // decoded by the swire codec.
    let per_level = (items / levels.len().max(1) as f64).round() as usize;
    let mut rng = SmallRng::seed_from_u64(per_level as u64);
    let frame = ShardFrame::Merged {
        wave: 0,
        level: 1,
        items: (0..per_level)
            .map(|_| ExchangeItem {
                v: rng.gen_range(0..n),
                u: rng.gen_range(0..n),
                mask: 1 << rng.gen_range(0..2u32),
            })
            .collect(),
    };
    let rounds: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            let line = mcbfs_shard::swire::encode(&frame);
            let back = mcbfs_shard::swire::decode(&line);
            std::hint::black_box(back.is_ok());
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    report.set("shard.swire_us_per_level", median(&rounds), Some(per_level));
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A shard worker that stops between two phases takes the router's
    /// scheduler down mid-wave; the client must count the unanswered
    /// requests as failed and end the phase at its deadline, and teardown
    /// must still return.
    #[test]
    fn a_stopped_shard_worker_fails_requests_without_hanging() {
        let spec = GraphSpec {
            scale: 9,
            seed: 7,
            shards: 2,
        };
        spec.ensure(false).expect("graph files");
        let cfg = ServingCfg {
            graph: spec,
            mix: Mix::Point,
            paced_qps: 200.0,
            sat_qps: 200.0,
            sat_inflight: 4,
            deadline: Duration::from_secs(1),
        };
        let sys = system::start(&spec, None).expect("cluster up");
        let graph = inputs::read_csr(&spec.csr_path()).expect("graph");
        let mut load = Load {
            cfg: &cfg,
            seconds: 1.0,
            requests: Requests {
                graph: &graph,
                mix: cfg.mix,
                rng: SmallRng::seed_from_u64(3),
                kept: [0; 3],
            },
        };
        let schedule = load.schedule(0.0, 40);
        let before = load.paced(&sys, &schedule).expect("phase runs");
        assert_eq!(
            served(&before).count(),
            40,
            "a healthy cluster answers everything"
        );
        sys.kill_worker(1);
        let started = Instant::now();
        let after = load.paced(&sys, &schedule).expect("phase runs");
        let mut report = Report::default();
        account(&mut report, &[&after]);
        assert!(
            report.failed > 0,
            "requests after the worker stopped must fail"
        );
        let _ = sys.stop();
        assert!(
            started.elapsed() < Duration::from_secs(30),
            "took {:?}",
            started.elapsed()
        );
    }
}
