//! Trace pipeline integration: native and modelled executions of the same
//! search must flow through the trace session identically — one level span
//! per thread per BFS level in both modes — and both exporters must produce
//! output the other end can parse.
//!
//! Trace sessions are process-global, so every test that opens one holds
//! `SESSION_LOCK` for its duration (the test harness runs tests on
//! concurrent threads).

#![cfg(feature = "trace")]

use multicore_bfs::core::runner::{Algorithm, BfsResult, BfsRunner, ExecMode};
use multicore_bfs::gen::prelude::*;
use multicore_bfs::graph::csr::CsrGraph;
use multicore_bfs::machine::model::MachineModel;
use multicore_bfs::trace::{
    parse_line, to_chrome_json, to_jsonl, EventKind, Record, Trace, SCHEMA,
};
use std::sync::Mutex;

static SESSION_LOCK: Mutex<()> = Mutex::new(());

fn graph() -> CsrGraph {
    RmatBuilder::new(10, 8).seed(7).build()
}

fn traced_run(graph: &CsrGraph, algorithm: Algorithm, threads: usize, mode: ExecMode) -> BfsResult {
    BfsRunner::new(graph)
        .algorithm(algorithm)
        .threads(threads)
        .mode(mode)
        .traced(true)
        .run(0)
}

fn trace_of(result: &BfsResult) -> &Trace {
    result
        .trace
        .as_ref()
        .expect("traced run must carry a trace")
}

#[test]
fn native_and_model_emit_same_level_spans() {
    let _guard = SESSION_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let g = graph();
    for (algorithm, threads) in [
        (Algorithm::hybrid(), 2usize),
        (Algorithm::SingleSocket, 2),
        (Algorithm::MultiSocket { sockets: 2 }, 2),
    ] {
        let native = traced_run(&g, algorithm, threads, ExecMode::Native);
        let model = traced_run(
            &g,
            algorithm,
            threads,
            ExecMode::model(MachineModel::nehalem_ep()),
        );
        let (nt, mt) = (trace_of(&native), trace_of(&model));
        assert_eq!(nt.meta.mode, "native");
        assert_eq!(mt.meta.mode, "model");
        // Same input, same algorithm: both executors run the same number
        // of levels and threads, so the span counts must agree exactly.
        assert_eq!(
            nt.level_span_count(),
            mt.level_span_count(),
            "{algorithm:?} x{threads}: native vs model level spans"
        );
        assert_eq!(
            nt.level_span_count() as u32,
            native.stats.levels * threads as u32,
            "{algorithm:?}: one level span per thread per level"
        );
        assert_eq!(nt.levels.len(), mt.levels.len());
        assert_eq!(nt.dropped_events(), 0);
        assert_eq!(mt.dropped_events(), 0);
        // One direction switch per change of direction between levels, and
        // one frontier conversion per thread per change, in both executors;
        // a top-down-only run converts no frontier.
        for (run, trace) in [(&native, nt), (&model, mt)] {
            let count = |kind| {
                let events = trace.threads.iter().flat_map(|t| &t.events);
                events.filter(|e| e.kind == kind).count()
            };
            let dirs = run.profile.direction_string();
            let changes = dirs.as_bytes().windows(2).filter(|w| w[0] != w[1]).count();
            let what = format!("{algorithm:?} {} {dirs}", trace.meta.mode);
            assert_eq!(count(EventKind::DirectionSwitch), changes, "{what}");
            assert_eq!(count(EventKind::Convert), threads * changes, "{what}");
            if algorithm == Algorithm::hybrid() {
                assert!(changes > 0, "{what}: the hybrid never switched");
            }
        }
    }
}

#[test]
fn sequential_native_and_model_parity() {
    let _guard = SESSION_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let g = graph();
    let native = traced_run(&g, Algorithm::Sequential, 1, ExecMode::Native);
    let model = traced_run(
        &g,
        Algorithm::Sequential,
        1,
        ExecMode::model(MachineModel::nehalem_ep()),
    );
    assert_eq!(
        trace_of(&native).level_span_count(),
        trace_of(&model).level_span_count()
    );
}

#[test]
fn jsonl_export_round_trips_line_by_line() {
    let _guard = SESSION_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let g = graph();
    let result = traced_run(&g, Algorithm::hybrid(), 2, ExecMode::Native);
    let trace = trace_of(&result);
    let jsonl = to_jsonl(trace);
    let mut runs = 0usize;
    let mut levels = 0usize;
    for line in jsonl.lines() {
        match parse_line(line).unwrap_or_else(|e| panic!("bad line {line:?}: {e}")) {
            Record::Run(r) => {
                runs += 1;
                assert_eq!(r.schema, SCHEMA);
                assert_eq!(r.mode, "native");
                assert_eq!(r.levels, u64::from(result.stats.levels));
                assert_eq!(r.level_spans as usize, trace.level_span_count());
            }
            Record::Level(l) => {
                levels += 1;
                assert_eq!(l.schema, SCHEMA);
                assert!(l.direction == "td" || l.direction == "bu");
                assert!(l.level < u64::from(result.stats.levels));
                assert!(l.span_ns > 0);
            }
        }
    }
    assert_eq!(runs, 1, "exactly one run header");
    assert_eq!(levels, trace.level_span_count());
}

#[test]
fn chrome_export_contains_every_level_span() {
    let _guard = SESSION_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let g = graph();
    let result = traced_run(&g, Algorithm::hybrid(), 2, ExecMode::Native);
    let trace = trace_of(&result);
    let json = to_chrome_json(trace);
    assert!(json.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
    assert!(json.ends_with("]}"));
    for level in 0..result.stats.levels {
        assert!(
            json.contains(&format!("\"level {level} ")),
            "level {level} span missing from Chrome export"
        );
    }
    // At least one complete event per level span.
    assert!(json.matches("\"ph\":\"X\"").count() >= trace.level_span_count());
}

#[test]
fn untraced_run_carries_no_trace() {
    // No session is opened, so no lock needed — but hold it anyway to keep
    // this from observing a neighbours' session through `traced(false)`.
    let _guard = SESSION_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let g = graph();
    let result = BfsRunner::new(&g)
        .algorithm(Algorithm::hybrid())
        .threads(2)
        .run(0);
    assert!(result.trace.is_none());
}

#[test]
fn level_metadata_matches_profile() {
    let _guard = SESSION_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let g = graph();
    let result = traced_run(&g, Algorithm::SingleSocket, 2, ExecMode::Native);
    let trace = trace_of(&result);
    assert_eq!(trace.levels.len(), result.profile.num_levels());
    let scanned: u64 = trace.levels.iter().map(|l| l.edges_scanned).sum();
    assert_eq!(scanned, result.profile.total().edges_scanned);
}

#[test]
fn multi_socket_run_traces_every_channel_hop() {
    // Algorithm 3 moves every cross-socket hop through a channel in whole
    // batches: the `ChannelSend` args alone account for every hop, and no
    // send ever stalls.
    let _guard = SESSION_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let g = graph();
    let result = traced_run(
        &g,
        Algorithm::MultiSocket { sockets: 2 },
        2,
        ExecMode::Native,
    );
    let trace = trace_of(&result);
    assert_eq!(trace.dropped_events(), 0);
    let events = || trace.threads.iter().flat_map(|t| &t.events);
    let sends = events()
        .filter(|e| e.kind == EventKind::ChannelSend)
        .count();
    assert!(sends > 0, "no channel send traced");
    let shipped: u64 = events()
        .filter(|e| e.kind == EventKind::ChannelSend)
        .map(|e| e.arg)
        .sum();
    assert_eq!(shipped, result.stats.totals.channel_items);
    assert!(events().all(|e| e.kind != EventKind::ChannelStall));
}

#[test]
fn sharded_query_writes_its_shard_exchanges_to_the_trace() {
    // `mcbfs query --shards N --trace` opens the same session as the
    // unsharded path, so the file holds every level's exchange span.
    use std::process::Command;
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("sharded-trace");
    std::fs::create_dir_all(&dir).expect("create the work directory");
    std::fs::write(dir.join("sources.txt"), "0\n17\n101\n").expect("write sources");
    let mcbfs = |args: &str| {
        let status = Command::new(env!("CARGO_BIN_EXE_mcbfs"))
            .args(args.split_whitespace())
            .current_dir(&dir)
            .output()
            .expect("spawn mcbfs")
            .status;
        assert!(status.success(), "mcbfs {args}: {status}");
    };
    mcbfs("generate --kind rmat --scale 10 --degree 8 --seed 3 --out g.csr");
    let _ = std::fs::remove_file(dir.join("t.json"));
    mcbfs("query --graph g.csr --sources sources.txt --batch 3 --shards 2 --trace t.json");
    let chrome = std::fs::read_to_string(dir.join("t.json")).expect("trace file written");
    assert!(
        chrome.starts_with("{\"displayTimeUnit\""),
        "not a Chrome trace"
    );
    let exchanges = chrome.matches("{\"name\":\"shard_exchange\"").count();
    assert!(exchanges > 0, "no shard_exchange event in the trace");
}
