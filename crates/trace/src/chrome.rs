//! Chrome-trace (Trace Event Format) exporter.
//!
//! Emits the JSON object form — `{"displayTimeUnit":…,"traceEvents":[…]}` —
//! that `chrome://tracing` and Perfetto load directly: one row per worker
//! thread, `X` (complete) events for spans and `i` events for instants,
//! with timestamps in microseconds.
//!
//! The vendored `serde` stub has no `Serialize` impl for its `Value` tree,
//! so this writer builds the JSON by hand; strings still go through
//! `serde_json`'s escaper to stay correct.

use crate::event::{EventKind, TraceEvent};
use crate::session::{Trace, UNTAGGED_BASE};

/// Renders a trace as a Chrome-trace JSON document.
pub fn to_chrome_json(trace: &Trace) -> String {
    let mut out = String::with_capacity(256 + trace.event_count() * 128);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    let mut first = true;
    let mut push = |s: String, out: &mut String| {
        if !std::mem::take(&mut first) {
            out.push(',');
        }
        out.push_str(&s);
    };

    let process_name = format!(
        "mcbfs {} ({}, {})",
        trace.meta.label, trace.meta.algorithm, trace.meta.mode
    );
    push(metadata_event(0, "process_name", &process_name), &mut out);
    for t in &trace.threads {
        let name = if t.tid >= UNTAGGED_BASE {
            format!("untagged-{}", t.tid - UNTAGGED_BASE)
        } else {
            format!("worker-{}", t.tid)
        };
        push(metadata_event(t.tid, "thread_name", &name), &mut out);
    }
    for t in &trace.threads {
        for e in &t.events {
            push(event_json(trace, t.tid, e), &mut out);
        }
    }
    out.push_str("]}");
    out
}

/// JSON-escapes a string, including the surrounding quotes.
fn quoted(s: &str) -> String {
    serde_json::to_string(&s.to_string()).expect("string serialization is infallible")
}

fn metadata_event(tid: usize, name: &str, arg_name: &str) -> String {
    format!(
        "{{\"name\":{},\"ph\":\"M\",\"pid\":0,\"tid\":{},\"ts\":0,\"args\":{{\"name\":{}}}}}",
        quoted(name),
        tid,
        quoted(arg_name)
    )
}

/// Microseconds with nanosecond precision, as Chrome expects.
fn us(ns: u64) -> String {
    format!("{:.3}", ns as f64 / 1_000.0)
}

fn direction_name(code: u64) -> &'static str {
    if code == 1 {
        "bu"
    } else {
        "td"
    }
}

fn event_json(trace: &Trace, tid: usize, e: &TraceEvent) -> String {
    let (name, args) = match e.kind {
        EventKind::Level => {
            let lvl = e.arg as usize;
            match trace.levels.get(lvl) {
                Some(m) => (
                    format!("level {} ({})", lvl, m.direction),
                    format!(
                        "{{\"level\":{},\"direction\":{},\"frontier\":{},\"edges_scanned\":{}}}",
                        lvl,
                        quoted(&m.direction),
                        m.frontier,
                        m.edges_scanned
                    ),
                ),
                None => (format!("level {lvl}"), format!("{{\"level\":{lvl}}}")),
            }
        }
        EventKind::Convert => (
            format!("convert to {}", direction_name(e.arg)),
            format!("{{\"to\":{}}}", quoted(direction_name(e.arg))),
        ),
        EventKind::DirectionSwitch => (
            format!("switch to {}", direction_name(e.arg)),
            format!("{{\"to\":{}}}", quoted(direction_name(e.arg))),
        ),
        EventKind::BarrierWait => (
            e.kind.name().to_string(),
            format!("{{\"leader\":{}}}", e.arg),
        ),
        EventKind::ChannelSend | EventKind::ChannelRecv => (
            e.kind.name().to_string(),
            format!("{{\"items\":{}}}", e.arg),
        ),
        EventKind::ChannelOccupancy => (
            e.kind.name().to_string(),
            format!("{{\"pending\":{}}}", e.arg),
        ),
        EventKind::ChannelStall => (
            e.kind.name().to_string(),
            format!("{{\"spilled\":{}}}", e.arg),
        ),
        EventKind::BatchAdmit | EventKind::BatchExecute => (
            format!("{} ({} queries)", e.kind.name(), e.arg),
            format!("{{\"queries\":{}}}", e.arg),
        ),
        EventKind::QueryShed => (
            e.kind.name().to_string(),
            format!("{{\"pending\":{}}}", e.arg),
        ),
        EventKind::DeadlineMiss => (
            e.kind.name().to_string(),
            format!("{{\"in_flight_us\":{}}}", e.arg),
        ),
        EventKind::ShardExchange => (
            e.kind.name().to_string(),
            format!("{{\"bytes\":{}}}", e.arg),
        ),
        EventKind::ShardWait => (
            e.kind.name().to_string(),
            format!("{{\"level\":{}}}", e.arg),
        ),
        EventKind::LockWait | EventKind::LockHold => (e.kind.name().to_string(), "{}".to_string()),
    };
    if e.kind.is_span() {
        format!(
            "{{\"name\":{},\"cat\":{},\"ph\":\"X\",\"pid\":0,\"tid\":{},\"ts\":{},\"dur\":{},\"args\":{}}}",
            quoted(&name),
            quoted(e.kind.category()),
            tid,
            us(e.start_ns),
            us(e.dur_ns),
            args
        )
    } else {
        format!(
            "{{\"name\":{},\"cat\":{},\"ph\":\"i\",\"s\":\"t\",\"pid\":0,\"tid\":{},\"ts\":{},\"args\":{}}}",
            quoted(&name),
            quoted(e.kind.category()),
            tid,
            us(e.start_ns),
            args
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::{LevelMeta, RunMeta, ThreadTrace};
    use serde::Deserialize;

    fn sample_trace() -> Trace {
        Trace {
            meta: RunMeta {
                label: "rmat-10".into(),
                algorithm: "hybrid:auto".into(),
                mode: "native".into(),
                threads: 2,
            },
            levels: vec![
                LevelMeta {
                    level: 0,
                    direction: "td".into(),
                    frontier: 1,
                    edges_scanned: 8,
                },
                LevelMeta {
                    level: 1,
                    direction: "bu".into(),
                    frontier: 7,
                    edges_scanned: 120,
                },
            ],
            threads: vec![
                ThreadTrace {
                    tid: 0,
                    events: vec![
                        TraceEvent {
                            start_ns: 0,
                            dur_ns: 1_500,
                            kind: EventKind::Level,
                            arg: 0,
                        },
                        TraceEvent {
                            start_ns: 400,
                            dur_ns: 300,
                            kind: EventKind::BarrierWait,
                            arg: 1,
                        },
                        TraceEvent {
                            start_ns: 1_600,
                            dur_ns: 0,
                            kind: EventKind::DirectionSwitch,
                            arg: 1,
                        },
                        TraceEvent {
                            start_ns: 1_700,
                            dur_ns: 2_000,
                            kind: EventKind::Level,
                            arg: 1,
                        },
                    ],
                    dropped: 0,
                },
                ThreadTrace {
                    tid: 1,
                    events: vec![
                        TraceEvent {
                            start_ns: 100,
                            dur_ns: 1_400,
                            kind: EventKind::Level,
                            arg: 0,
                        },
                        TraceEvent {
                            start_ns: 200,
                            dur_ns: 64,
                            kind: EventKind::LockWait,
                            arg: 0,
                        },
                        TraceEvent {
                            start_ns: 1_800,
                            dur_ns: 1_900,
                            kind: EventKind::Level,
                            arg: 1,
                        },
                    ],
                    dropped: 0,
                },
            ],
        }
    }

    // Typed mirror of the Chrome document for the round-trip test. The
    // derive stub ignores JSON fields not declared here (dur, cat, args,
    // s), which is exactly what a schema check wants.
    #[derive(Deserialize)]
    #[allow(non_snake_case)]
    struct ChromeDoc {
        displayTimeUnit: String,
        traceEvents: Vec<ChromeEvent>,
    }

    #[derive(Deserialize)]
    struct ChromeEvent {
        name: String,
        ph: String,
        pid: u64,
        tid: u64,
        ts: f64,
    }

    #[test]
    fn round_trips_as_valid_chrome_trace_json() {
        let trace = sample_trace();
        let json = to_chrome_json(&trace);
        let doc: ChromeDoc = serde_json::from_str(&json).expect("chrome JSON parses");
        assert_eq!(doc.displayTimeUnit, "ms");
        // 1 process_name + 2 thread_name + 7 events.
        assert_eq!(doc.traceEvents.len(), 10);
        for e in &doc.traceEvents {
            assert_eq!(e.pid, 0);
            assert!(["M", "X", "i"].contains(&e.ph.as_str()), "ph {}", e.ph);
            assert!(e.ts >= 0.0);
            assert!(!e.name.is_empty());
        }
        let spans = doc.traceEvents.iter().filter(|e| e.ph == "X").count();
        assert_eq!(spans, 6);
        let level_spans = doc
            .traceEvents
            .iter()
            .filter(|e| e.name.starts_with("level "))
            .count();
        assert_eq!(level_spans, trace.level_span_count());
        // Level names carry the per-level direction from the metadata.
        assert!(json.contains("\"level 1 (bu)\""));
        assert!(doc.traceEvents.iter().any(|e| e.tid == 1));
    }

    #[test]
    fn timestamps_are_microseconds() {
        let json = to_chrome_json(&sample_trace());
        // 1500 ns span duration renders as 1.500 µs.
        assert!(json.contains("\"dur\":1.500"), "{json}");
    }

    #[test]
    fn empty_trace_still_parses() {
        let json = to_chrome_json(&Trace::default());
        let doc: ChromeDoc = serde_json::from_str(&json).expect("parses");
        assert_eq!(doc.traceEvents.len(), 1); // just process_name
    }
}
