//! Open/closed-loop load generator for the serving front-end.
//!
//! Open loop: requests arrive on a seeded Poisson process at the offered
//! rate regardless of completions — the honest way to measure a server
//! under load, since a closed loop self-throttles exactly when the server
//! slows down (coordinated omission). Closed loop: each connection keeps
//! one request in flight, the classic concurrency-limited client.
//!
//! Every run ends in a full accounting: each sent request resolves to
//! exactly one of `served`/`shed`/`timeouts`/`errors` (or `unresolved` if
//! the grace window expires), so `served + shed + timeouts + errors +
//! unresolved == submitted` always holds — the invariant CI asserts.

use crate::wire::{self, Request, Response};
use mcbfs_query::{nearest_rank_quantile, Query};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Load generator configuration.
#[derive(Clone, Debug)]
pub struct LoadgenOpts {
    /// Server address, e.g. `127.0.0.1:7411`.
    pub addr: String,
    /// Parallel connections.
    pub connections: usize,
    /// How long to keep offering load.
    pub duration: Duration,
    /// Offered aggregate rate in queries/second (open loop, Poisson
    /// arrivals split evenly across connections); `None` runs closed-loop
    /// (one request in flight per connection).
    pub rate: Option<f64>,
    /// RNG seed for arrivals and query synthesis.
    pub seed: u64,
    /// Per-request deadline forwarded to the server.
    pub deadline_ms: Option<f64>,
    /// Latency SLO used for the attainment/goodput metrics.
    pub slo_ms: f64,
    /// How long to wait for outstanding responses after the send window.
    pub grace: Duration,
}

impl Default for LoadgenOpts {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:7411".to_string(),
            connections: 4,
            duration: Duration::from_secs(5),
            rate: None,
            seed: 1,
            deadline_ms: None,
            slo_ms: 50.0,
            grace: Duration::from_secs(10),
        }
    }
}

/// One run's report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LoadReport {
    /// Requests sent.
    pub submitted: u64,
    /// `ok` responses.
    pub served: u64,
    /// `rejected` responses (overloaded or draining).
    pub shed: u64,
    /// `timeout` responses.
    pub timeouts: u64,
    /// `error` responses plus unparseable reply lines.
    pub errors: u64,
    /// Requests with no response inside the grace window.
    pub unresolved: u64,
    /// Wall-clock seconds from first send to last response.
    pub seconds: f64,
    /// Offered rate (queries/second; for closed loop, the achieved rate).
    pub offered_qps: f64,
    /// `served / seconds`.
    pub achieved_qps: f64,
    /// Served-within-SLO completions per second.
    pub goodput_qps: f64,
    /// Sum of served TEPS numerators over the wall clock.
    pub aggregate_teps: f64,
    /// Median served latency, milliseconds (client-measured, send to
    /// response).
    pub p50_latency_ms: f64,
    /// 99th-percentile served latency, milliseconds.
    pub p99_latency_ms: f64,
    /// 99.9th-percentile served latency, milliseconds.
    pub p999_latency_ms: f64,
    /// The SLO threshold the attainment numbers refer to, milliseconds.
    pub slo_ms: f64,
    /// Fraction of submitted requests served within the SLO.
    pub slo_attainment: f64,
}

/// What one request resolved to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Resolution {
    Served,
    Shed,
    Timeout,
    Error,
}

#[derive(Clone, Copy, Debug)]
struct Sample {
    resolution: Resolution,
    latency_ms: f64,
    edges: u64,
}

/// Per-connection in-flight table: tag → send time.
type Outstanding = Mutex<Vec<(u64, Instant)>>;

fn take_sent(outstanding: &Outstanding, tag: u64) -> Option<Instant> {
    let mut o = outstanding.lock().expect("outstanding lock");
    let idx = o.iter().position(|&(t, _)| t == tag)?;
    Some(o.swap_remove(idx).1)
}

/// Draws an exponential inter-arrival gap for rate `lambda` (per second).
fn exp_gap(rng: &mut SmallRng, lambda: f64) -> Duration {
    let u: f64 = rng.gen();
    Duration::from_secs_f64((-(1.0 - u).ln() / lambda).min(10.0))
}

/// Synthesizes one query over `vertices` with the serving mix: mostly
/// point-to-point probes, some distance maps, occasional full trees.
fn synth_query(rng: &mut SmallRng, vertices: u32) -> Query {
    let v = |rng: &mut SmallRng| rng.gen_range(0..vertices);
    match rng.gen_range(0..10u32) {
        0 => Query::Parents { root: v(rng) },
        1..=2 => Query::Distances { root: v(rng) },
        3..=6 => Query::StCon {
            s: v(rng),
            t: v(rng),
        },
        _ => Query::Reachable {
            from: v(rng),
            to: v(rng),
        },
    }
}

fn classify(response: &Response) -> (u64, Resolution, u64) {
    match response {
        Response::Ok(r) => (r.tag, Resolution::Served, r.edges),
        Response::Rejected { tag, .. } => (*tag, Resolution::Shed, 0),
        Response::Timeout { tag, .. } => (*tag, Resolution::Timeout, 0),
        Response::Error { tag, .. } => (tag.unwrap_or(u64::MAX), Resolution::Error, 0),
        // Pong/Stats never answer a query tag; fold them away.
        Response::Pong { tag } | Response::Stats { tag, .. } => (*tag, Resolution::Error, 0),
    }
}

/// Handshake: asks the server for its stats frame to learn the graph
/// shape (and that it is alive).
pub fn fetch_stats(addr: &str) -> std::io::Result<crate::shed::ServerStats> {
    let stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    let mut writer = stream.try_clone()?;
    writer.write_all(wire::encode(&Request::Stats { tag: 0 }).as_bytes())?;
    writer.flush()?;
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line)?;
    match wire::decode::<Response>(&line) {
        Ok(Response::Stats { stats, .. }) => Ok(stats),
        other => Err(std::io::Error::new(
            ErrorKind::InvalidData,
            format!("expected stats frame, got {other:?}"),
        )),
    }
}

/// Runs one load generation session against a live server and reports.
pub fn run(opts: &LoadgenOpts) -> std::io::Result<LoadReport> {
    let stats = fetch_stats(&opts.addr)?;
    let vertices = (stats.vertices as u32).max(1);
    let connections = opts.connections.max(1);
    let per_conn_rate = opts.rate.map(|r| (r / connections as f64).max(1e-3));

    let started = Instant::now();
    let results: Vec<std::io::Result<(u64, Vec<Sample>)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..connections)
            .map(|c| {
                let opts = opts.clone();
                scope.spawn(move || match per_conn_rate {
                    Some(rate) => open_loop_connection(&opts, c, rate, vertices),
                    None => closed_loop_connection(&opts, c, vertices),
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("loadgen connection thread"))
            .collect()
    });
    let seconds = started.elapsed().as_secs_f64().max(1e-9);

    let mut submitted = 0u64;
    let mut samples: Vec<Sample> = Vec::new();
    for r in results {
        let (sent, s) = r?;
        submitted += sent;
        samples.extend(s);
    }
    let count = |res: Resolution| samples.iter().filter(|s| s.resolution == res).count() as u64;
    let served = count(Resolution::Served);
    let within_slo = samples
        .iter()
        .filter(|s| s.resolution == Resolution::Served && s.latency_ms <= opts.slo_ms)
        .count() as u64;
    let served_lat: Vec<f64> = samples
        .iter()
        .filter(|s| s.resolution == Resolution::Served)
        .map(|s| s.latency_ms)
        .collect();
    let served_edges: u64 = samples
        .iter()
        .filter(|s| s.resolution == Resolution::Served)
        .map(|s| s.edges)
        .sum();
    Ok(LoadReport {
        submitted,
        served,
        shed: count(Resolution::Shed),
        timeouts: count(Resolution::Timeout),
        errors: count(Resolution::Error),
        unresolved: submitted - samples.len() as u64,
        seconds,
        offered_qps: opts.rate.unwrap_or(submitted as f64 / seconds),
        achieved_qps: served as f64 / seconds,
        goodput_qps: within_slo as f64 / seconds,
        aggregate_teps: served_edges as f64 / seconds,
        p50_latency_ms: nearest_rank_quantile(&served_lat, 0.5),
        p99_latency_ms: nearest_rank_quantile(&served_lat, 0.99),
        p999_latency_ms: nearest_rank_quantile(&served_lat, 0.999),
        slo_ms: opts.slo_ms,
        slo_attainment: if submitted > 0 {
            within_slo as f64 / submitted as f64
        } else {
            0.0
        },
    })
}

/// Open loop: this thread sends on the Poisson schedule; a reader thread
/// resolves responses concurrently. Returns (sent, samples).
fn open_loop_connection(
    opts: &LoadgenOpts,
    conn: usize,
    rate: f64,
    vertices: u32,
) -> std::io::Result<(u64, Vec<Sample>)> {
    let stream = TcpStream::connect(&opts.addr)?;
    stream.set_nodelay(true).ok();
    stream.set_read_timeout(Some(Duration::from_millis(50)))?;
    let mut writer = stream.try_clone()?;

    let outstanding = Outstanding::default();
    let samples: Mutex<Vec<Sample>> = Mutex::new(Vec::new());
    let done_sending = AtomicBool::new(false);
    let mut rng = SmallRng::seed_from_u64(opts.seed.wrapping_add(conn as u64 * 0x9E37));
    let mut sent = 0u64;

    std::thread::scope(|scope| -> std::io::Result<()> {
        let reader_handle = scope.spawn(|| {
            let mut reader = BufReader::new(stream);
            let mut line = Vec::new();
            let mut grace_start: Option<Instant> = None;
            loop {
                if done_sending.load(Ordering::Acquire) {
                    let empty = outstanding.lock().expect("outstanding lock").is_empty();
                    let grace = grace_start.get_or_insert_with(Instant::now);
                    if empty || grace.elapsed() > opts.grace {
                        break;
                    }
                }
                // A timeout can land mid-frame: the bytes read so far stay
                // in `line` and the next read appends the rest.
                match reader.read_until(b'\n', &mut line) {
                    Ok(0) => break,
                    Ok(_) => {
                        let decoded = wire::decode::<Response>(&String::from_utf8_lossy(&line));
                        line.clear();
                        let Ok(response) = decoded else {
                            continue;
                        };
                        let (tag, resolution, edges) = classify(&response);
                        if let Some(at) = take_sent(&outstanding, tag) {
                            samples.lock().expect("samples lock").push(Sample {
                                resolution,
                                latency_ms: at.elapsed().as_secs_f64() * 1e3,
                                edges,
                            });
                        }
                    }
                    Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
                    Err(_) => break,
                }
            }
        });

        let start = Instant::now();
        let mut next = start + exp_gap(&mut rng, rate);
        while start.elapsed() < opts.duration {
            let now = Instant::now();
            if next > now {
                std::thread::sleep((next - now).min(Duration::from_millis(20)));
                continue;
            }
            next += exp_gap(&mut rng, rate);
            let tag = sent;
            let frame = wire::encode(&Request::Query {
                tag,
                query: synth_query(&mut rng, vertices),
                deadline_ms: opts.deadline_ms,
            });
            outstanding
                .lock()
                .expect("outstanding lock")
                .push((tag, Instant::now()));
            if writer
                .write_all(frame.as_bytes())
                .and_then(|_| writer.flush())
                .is_err()
            {
                // Server went away mid-run: the unanswered request stays
                // outstanding and ends up in `unresolved`.
                break;
            }
            sent += 1;
        }
        done_sending.store(true, Ordering::Release);
        let _ = reader_handle.join();
        Ok(())
    })?;

    Ok((sent, samples.into_inner().expect("samples lock")))
}

/// Closed loop: one request in flight; the next is sent when the previous
/// resolves.
fn closed_loop_connection(
    opts: &LoadgenOpts,
    conn: usize,
    vertices: u32,
) -> std::io::Result<(u64, Vec<Sample>)> {
    let stream = TcpStream::connect(&opts.addr)?;
    stream.set_nodelay(true).ok();
    stream.set_read_timeout(Some(opts.grace))?;
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    let mut rng = SmallRng::seed_from_u64(opts.seed.wrapping_add(conn as u64 * 0x9E37));
    let mut samples = Vec::new();
    let mut sent = 0u64;
    let start = Instant::now();
    let mut line = String::new();
    while start.elapsed() < opts.duration {
        let tag = sent;
        let frame = wire::encode(&Request::Query {
            tag,
            query: synth_query(&mut rng, vertices),
            deadline_ms: opts.deadline_ms,
        });
        let at = Instant::now();
        if writer
            .write_all(frame.as_bytes())
            .and_then(|_| writer.flush())
            .is_err()
        {
            break;
        }
        sent += 1;
        line.clear();
        match reader.read_line(&mut line) {
            Ok(n) if n > 0 => {
                if let Ok(response) = wire::decode::<Response>(&line) {
                    let (rtag, resolution, edges) = classify(&response);
                    if rtag == tag {
                        samples.push(Sample {
                            resolution,
                            latency_ms: at.elapsed().as_secs_f64() * 1e3,
                            edges,
                        });
                    }
                }
            }
            _ => break,
        }
    }
    Ok((sent, samples))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_gaps_average_near_rate() {
        let mut rng = SmallRng::seed_from_u64(5);
        let rate = 200.0;
        let mean: f64 = (0..20_000)
            .map(|_| exp_gap(&mut rng, rate).as_secs_f64())
            .sum::<f64>()
            / 20_000.0;
        // Exponential mean 1/λ = 5ms; a 20k-sample average lands close.
        assert!((mean - 1.0 / rate).abs() < 0.0005, "mean gap {mean}");
    }

    #[test]
    fn synthesized_queries_stay_in_range() {
        let mut rng = SmallRng::seed_from_u64(9);
        let mut kinds = std::collections::HashSet::new();
        for _ in 0..1000 {
            let q = synth_query(&mut rng, 37);
            assert!(q.source() < 37);
            if let Some(t) = q.target() {
                assert!(t < 37);
            }
            kinds.insert(q.kind_name());
        }
        assert_eq!(kinds.len(), 4, "mix covers all kinds: {kinds:?}");
    }
}
