//! Spans for the traced run, recorded from the benchmark's own files around
//! calls into each layer, kept in memory and written as Chrome-trace JSON
//! (`chrome://tracing`, Perfetto) when the run ends.
//!
//! Span names: `setup.*` (each set-up step), `client.request` (id
//! `conn:tag`), `batcher.queue` (id = ticket; admission to the start of its
//! wave), `executor.wave` (id = wave index; args = ticket ids and the
//! `(kind, source, target)` keys that join waves to client requests) and
//! `core.search` (id = root). A span's self time is its duration minus the
//! part covered by its children. A `client.request`'s children are the
//! `batcher.queue` and `executor.wave` spans carrying its key, so its self
//! time is the residual left to the wire, admission and reply routing.

use mcbfs_query::{Admitted, BatchReport, Query};
use mcbfs_serve::{ServerStats, WaveExecutor};
use std::fmt::Write as _;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Chrome-trace rows.
pub const LANE_SETUP: u32 = 0;
pub const LANE_CLIENT: u32 = 1; // + connection index
pub const LANE_EXECUTOR: u32 = 3;
pub const LANE_CORE: u32 = 4;
pub const LANE_BATCHER: u32 = 5;
const LANE_NAMES: [&str; 6] = [
    "setup",
    "client conn 0",
    "client conn 1",
    "executor",
    "core",
    "batcher",
];

struct Span {
    name: &'static str,
    lane: u32,
    id: String,
    start: Instant,
    end: Instant,
    args: String,
}

/// In-memory span store shared by the threads of one run.
pub struct Spans {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Spans {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Records a finished span; `args` is the body of a JSON object.
    pub fn record(
        &self,
        name: &'static str,
        lane: u32,
        id: String,
        start: Instant,
        end: Instant,
        args: String,
    ) {
        self.spans.lock().expect("span store lock").push(Span {
            name,
            lane,
            id,
            start,
            end,
            args,
        });
    }

    /// Writes every span as one Chrome-trace JSON document.
    pub fn write_chrome(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans.lock().expect("span store lock");
        let us = |t: Instant| t.saturating_duration_since(self.epoch).as_secs_f64() * 1e6;
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        for (i, lane) in LANE_NAMES.iter().enumerate() {
            let _ = write!(
                out,
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{i},\"args\":{{\"name\":\"{lane}\"}}}},"
            );
        }
        for (i, s) in spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":0,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":\"{}\"{}{}}}}}",
                s.name,
                s.lane,
                us(s.start),
                us(s.end) - us(s.start),
                s.id,
                if s.args.is_empty() { "" } else { "," },
                s.args
            );
        }
        out.push_str("]}");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// The key that joins a client request to the wave that served it; unique
/// within a phase because a phase draws distinct sources.
pub type JoinKey = (&'static str, u32, Option<u32>);

pub fn join_key(q: &Query) -> JoinKey {
    (q.kind_name(), q.source(), q.target())
}

/// One executed wave, as seen from outside the executor.
#[derive(Clone)]
pub struct WaveRecord {
    pub start: Instant,
    pub end: Instant,
    pub keys: Vec<JoinKey>,
    pub queued: Vec<Duration>,
    /// Time this wrapper spent recording the wave after it ran: the
    /// tracing cost added to every query of the wave.
    pub bookkeeping: Duration,
}

impl WaveRecord {
    pub fn ms(&self) -> f64 {
        self.end.duration_since(self.start).as_secs_f64() * 1e3
    }
}

/// Waves executed so far, in order.
#[derive(Default)]
pub struct WaveLog {
    waves: Mutex<Vec<WaveRecord>>,
}

impl WaveLog {
    /// Waves that started at or after `since` and ended by `until`.
    pub fn between(&self, since: Instant, until: Instant) -> Vec<WaveRecord> {
        let waves = self.waves.lock().expect("wave log lock");
        waves
            .iter()
            .filter(|w| w.start >= since && w.end <= until)
            .cloned()
            .collect()
    }
}

/// Times every `execute_wave` of the executor it wraps; the serving front
/// is unchanged, since `serve_with` accepts any executor.
pub struct Timed<E> {
    pub inner: E,
    pub log: Arc<WaveLog>,
    pub spans: Arc<Spans>,
}

impl<E: WaveExecutor> WaveExecutor for Timed<E> {
    fn execute_wave(&self, wave: &[Admitted]) -> BatchReport {
        let start = Instant::now();
        let report = self.inner.execute_wave(wave);
        let end = Instant::now();
        let keys: Vec<JoinKey> = wave.iter().map(|a| join_key(&a.query)).collect();
        let mut waves = self.log.waves.lock().expect("wave log lock");
        let mut args = String::from("\"tickets\":[");
        for (i, a) in wave.iter().enumerate() {
            let _ = write!(args, "{}{}", if i > 0 { "," } else { "" }, a.id);
        }
        args.push_str("],\"keys\":[");
        for (i, (kind, s, t)) in keys.iter().enumerate() {
            let t = t.map_or("null".to_string(), |t| t.to_string());
            let _ = write!(args, "{}[\"{kind}\",{s},{t}]", if i > 0 { "," } else { "" });
        }
        args.push(']');
        for (a, (kind, s, t)) in wave.iter().zip(&keys) {
            let t = t.map_or("null".to_string(), |t| t.to_string());
            let key = format!("\"key\":[\"{kind}\",{s},{t}]");
            self.spans.record(
                "batcher.queue",
                LANE_BATCHER,
                a.id.to_string(),
                start - a.queued,
                start,
                key,
            );
        }
        self.spans.record(
            "executor.wave",
            LANE_EXECUTOR,
            waves.len().to_string(),
            start,
            end,
            args,
        );
        let queued = wave.iter().map(|a| a.queued).collect();
        waves.push(WaveRecord {
            start,
            end,
            keys,
            queued,
            bookkeeping: end.elapsed(),
        });
        report
    }

    fn merged_stats(&self, local: ServerStats, window: &[f64]) -> ServerStats {
        self.inner.merged_stats(local, window)
    }
}
