//! `mcbfs` — command-line front end to the multicore-bfs library.
//!
//! ```text
//! mcbfs generate --kind rmat --scale 18 --degree 8 --out g.csr
//! mcbfs bfs --graph g.csr --root 0 --threads 4 --algorithm multi:2
//! mcbfs kernel --graph g.csr --searches 16 --threads 4 [--batched]
//! mcbfs query --graph g.csr --sources sources.txt --batch 64
//! mcbfs components --graph g.csr
//! mcbfs stcon --graph g.csr --source 0 --target 99
//! mcbfs serve --graph g.csr --addr 127.0.0.1:7411 --max-batch 64
//! mcbfs loadgen --addr 127.0.0.1:7411 --rate 500 --duration-s 5
//! mcbfs partition --graph g.csr --shards 4
//! mcbfs shard --shard g.shard0of4.csr --addr 127.0.0.1:7501
//! mcbfs router --workers 127.0.0.1:7501,127.0.0.1:7502 --addr 127.0.0.1:7411
//! mcbfs model --machine ex --graph g.csr --threads 64
//! mcbfs calibrate
//! ```

use multicore_bfs::core::algo::hybrid::ForcedDirection;
use multicore_bfs::core::components::connected_components;
use multicore_bfs::core::kernel::run_kernel;
use multicore_bfs::core::runner::{Algorithm, BfsRunner, ExecMode, DEFAULT_REORDER_SEED};
use multicore_bfs::core::stcon::{st_connectivity, StConReport, StConnectivity};
use multicore_bfs::gen::grid::{GridBuilder, Stencil};
use multicore_bfs::gen::prelude::*;
use multicore_bfs::gen::stats::{degree_stats, locality_stats};
use multicore_bfs::graph::csr::CsrGraph;
use multicore_bfs::graph::io;
use multicore_bfs::graph::reorder::Reorder;
use multicore_bfs::graph::shard::{shard_file_name, CsrShard};
use multicore_bfs::machine::calibrate::{calibrate_host, CalibrationEffort};
use multicore_bfs::machine::model::MachineModel;
use multicore_bfs::prelude::validate_bfs_tree;
use multicore_bfs::query::{batch_stats, run_batched_kernel, Query, QueryEngine};
use std::collections::HashMap;
use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::process::exit;

fn main() {
    let mut args = std::env::args().skip(1);
    let Some(cmd) = args.next() else {
        usage("");
    };
    let opts = parse_flags(args.collect());
    match cmd.as_str() {
        "generate" => cmd_generate(&opts),
        "bfs" => cmd_bfs(&opts),
        "info" => cmd_info(&opts),
        "kernel" => cmd_kernel(&opts),
        "query" => cmd_query(&opts),
        "components" => cmd_components(&opts),
        "stcon" => cmd_stcon(&opts),
        "serve" => cmd_serve(&opts),
        "loadgen" => cmd_loadgen(&opts),
        "partition" => cmd_partition(&opts),
        "shard" => cmd_shard(&opts),
        "router" => cmd_router(&opts),
        "model" => cmd_model(&opts),
        "calibrate" => cmd_calibrate(&opts),
        "--help" | "-h" | "help" => usage(""),
        other => usage(&format!("unknown command {other:?}")),
    }
}

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("error: {err}");
    }
    eprintln!(
        "usage: mcbfs <command> [flags]\n\
         commands:\n\
         \x20 generate    --kind uniform|rmat|ssca2|grid --scale N | --vertices N\n\
         \x20             [--degree D] [--seed S] [--permute]\n\
         \x20             [--reorder none|degree|bfs|random] --out PATH\n\
         \x20 bfs         --graph PATH [--root R] [--threads T]\n\
         \x20             [--algorithm seq|simple|single|multi:S|hybrid[:auto|td|bu|alt]]\n\
         \x20             [--mode native|model] [--machine ep|ex]\n\
         \x20             [--reorder none|degree|bfs|random] [--reorder-seed S]\n\
         \x20             [--trace FILE.json] [--metrics FILE.jsonl] [--stats-json FILE]\n\
         \x20 info        --graph PATH\n\
         \x20 kernel      --graph PATH [--searches K] [--threads T] [--seed S]\n\
         \x20             [--algorithm A] [--batched] [--batch B]\n\
         \x20 query       --graph PATH --sources FILE [--batch B] [--threads T]\n\
         \x20             [--sockets S] [--mode native|model] [--machine ep|ex]\n\
         \x20             [--shards N] (offline sharded engine; with --mode model\n\
         \x20             the exchange volume predicts a live N-shard cluster)\n\
         \x20             [--trace FILE.json] [--metrics FILE.jsonl] [--stats-json FILE]\n\
         \x20 query       --addr HOST:PORT --sources FILE\n\
         \x20             [--deadline-ms D] [--stats-json FILE]  (remote client)\n\
         \x20 components  --graph PATH [--threads T]\n\
         \x20 stcon       --graph PATH --source S --target T [--stats-json FILE]\n\
         \x20             (exit code 1 when disconnected)\n\
         \x20 serve       --graph PATH [--addr HOST:PORT] [--threads T]\n\
         \x20             [--max-batch B] [--max-wait-us U] [--queue-cap Q]\n\
         \x20             [--deadline-ms D] [--stats-json FILE]\n\
         \x20             (SIGINT drains in-flight waves, then exits)\n\
         \x20 loadgen     --addr HOST:PORT [--rate QPS | --closed-loop]\n\
         \x20             [--connections C] [--duration-s S] [--seed S]\n\
         \x20             [--deadline-ms D] [--slo-ms L] [--smoke] [--stats-json FILE]\n\
         \x20 partition   --graph PATH --shards N [--out PATH]\n\
         \x20             (writes PATH-derived *.shardKofN.csr slice files)\n\
         \x20 shard       --shard PATH.shardKofN.csr [--addr HOST:PORT]\n\
         \x20             (one shard worker; speaks swire-v3 to its router)\n\
         \x20 router      --workers HOST:PORT,HOST:PORT,... [--addr HOST:PORT]\n\
         \x20             [--max-batch B] [--max-wait-us U] [--queue-cap Q]\n\
         \x20             [--deadline-ms D] [--stats-json FILE]\n\
         \x20             (wire-v1 front over shard workers; SIGINT drains)\n\
         \x20 model       --graph PATH --machine ep|ex [--threads T]\n\
         \x20             [--reorder none|degree|bfs|random] [--reorder-seed S]\n\
         \x20             [--trace FILE.json] [--metrics FILE.jsonl] [--stats-json FILE]\n\
         \x20 calibrate   [--thorough]"
    );
    exit(if err.is_empty() { 0 } else { 2 });
}

fn parse_flags(raw: Vec<String>) -> HashMap<String, String> {
    let mut out = HashMap::new();
    let mut it = raw.into_iter().peekable();
    while let Some(flag) = it.next() {
        let Some(name) = flag.strip_prefix("--") else {
            usage(&format!("expected a --flag, got {flag:?}"));
        };
        // Boolean flags: next token is another flag or absent.
        let value = match it.peek() {
            Some(v) if !v.starts_with("--") => it.next().unwrap(),
            _ => "true".to_string(),
        };
        out.insert(name.to_string(), value);
    }
    out
}

fn get<T: std::str::FromStr>(opts: &HashMap<String, String>, key: &str, default: T) -> T {
    match opts.get(key) {
        Some(raw) => raw
            .parse()
            .unwrap_or_else(|_| usage(&format!("bad --{key} {raw:?}"))),
        None => default,
    }
}

fn require(opts: &HashMap<String, String>, key: &str) -> String {
    opts.get(key)
        .cloned()
        .unwrap_or_else(|| usage(&format!("missing --{key}")))
}

fn parse_machine(name: &str) -> MachineModel {
    match name {
        "ep" => MachineModel::nehalem_ep(),
        "ex" => MachineModel::nehalem_ex(),
        other => usage(&format!("unknown --machine {other:?} (ep|ex)")),
    }
}

fn write_text_file(path: &str, contents: &str) {
    std::fs::write(path, contents).unwrap_or_else(|e| usage(&format!("cannot write {path}: {e}")));
}

/// Handles `--trace` / `--metrics` for any run that may carry a trace.
fn write_trace_exports(
    opts: &HashMap<String, String>,
    trace: Option<&multicore_bfs::trace::Trace>,
) {
    if !(opts.contains_key("trace") || opts.contains_key("metrics")) {
        return;
    }
    let Some(trace) = trace else {
        usage("--trace/--metrics need the `trace` cargo feature (rebuild with default features)")
    };
    if let Some(path) = opts.get("trace") {
        write_text_file(path, &multicore_bfs::trace::to_chrome_json(trace));
        println!(
            "wrote Chrome trace {path}: {} events across {} threads",
            trace.event_count(),
            trace.threads.len()
        );
    }
    if let Some(path) = opts.get("metrics") {
        write_text_file(path, &multicore_bfs::trace::to_jsonl(trace));
        println!(
            "wrote metrics JSONL {path}: {} level spans",
            trace.level_span_count()
        );
    }
}

/// Handles `--trace`, `--metrics` and `--stats-json` for a finished run.
fn write_exports(opts: &HashMap<String, String>, result: &multicore_bfs::core::BfsResult) {
    write_trace_exports(opts, result.trace.as_ref());
    if let Some(path) = opts.get("stats-json") {
        let json = serde_json::to_string_pretty(&result.stats).expect("serialize stats");
        write_text_file(path, &json);
        println!("wrote stats JSON {path}");
    }
}

fn load_graph(opts: &HashMap<String, String>) -> CsrGraph {
    load_graph_tagged(opts).0
}

fn load_graph_tagged(opts: &HashMap<String, String>) -> (CsrGraph, Reorder) {
    let path = require(opts, "graph");
    let file = File::open(&path).unwrap_or_else(|e| usage(&format!("cannot open {path}: {e}")));
    io::read_csr_tagged(&mut BufReader::new(file))
        .unwrap_or_else(|e| usage(&format!("cannot parse {path}: {e}")))
}

fn parse_reorder(opts: &HashMap<String, String>) -> Reorder {
    match opts.get("reorder") {
        None => Reorder::None,
        Some(spec) => Reorder::parse(spec)
            .unwrap_or_else(|| usage(&format!("bad --reorder {spec:?} (none|degree|bfs|random)"))),
    }
}

fn cmd_generate(opts: &HashMap<String, String>) {
    let kind = get(opts, "kind", "rmat".to_string());
    let seed: u64 = get(opts, "seed", 42u64);
    let degree: usize = get(opts, "degree", 8usize);
    let graph = match kind.as_str() {
        "uniform" => {
            let n: usize = get(opts, "vertices", 1usize << get(opts, "scale", 16u32));
            UniformBuilder::new(n, degree).seed(seed).build()
        }
        "rmat" => {
            let scale: u32 = get(opts, "scale", 16u32);
            RmatBuilder::new(scale, degree)
                .seed(seed)
                .permute(opts.contains_key("permute"))
                .build()
        }
        "ssca2" => {
            let n: usize = get(opts, "vertices", 1usize << get(opts, "scale", 16u32));
            Ssca2Builder::new(n).seed(seed).build()
        }
        "grid" => {
            let side: usize = get(opts, "side", 512usize);
            GridBuilder::new(side, Stencil::Eight).build()
        }
        other => usage(&format!("unknown --kind {other:?}")),
    };
    // Optional cache-locality relabelling, recorded in the file header so
    // the saved graph is self-describing (`mcbfs info` surfaces it).
    let reorder = parse_reorder(opts);
    let graph = match reorder.permutation(&graph, get(opts, "reorder-seed", DEFAULT_REORDER_SEED)) {
        None => graph,
        Some(permutation) => graph.permute(&permutation),
    };
    let out = require(opts, "out");
    let f = File::create(&out).unwrap_or_else(|e| usage(&format!("cannot create {out}: {e}")));
    io::write_csr_tagged(&mut BufWriter::new(f), &graph, reorder).expect("serialize graph");
    println!(
        "wrote {}: {} vertices, {} edges, max degree {}, ordering {}",
        out,
        graph.num_vertices(),
        graph.num_edges(),
        graph.max_degree(),
        reorder
    );
}

fn parse_algorithm(spec: &str) -> Algorithm {
    match spec {
        "seq" | "sequential" => Algorithm::Sequential,
        "simple" | "alg1" => Algorithm::Simple,
        "single" | "alg2" => Algorithm::SingleSocket,
        "hybrid" => Algorithm::hybrid(),
        other => {
            if let Some(s) = other.strip_prefix("multi:") {
                let sockets = s
                    .parse()
                    .unwrap_or_else(|_| usage(&format!("bad socket count {s:?}")));
                Algorithm::MultiSocket { sockets }
            } else if let Some(p) = other.strip_prefix("hybrid:") {
                let policy = match p {
                    "auto" => ForcedDirection::Auto,
                    "td" | "top-down" => ForcedDirection::TopDown,
                    "bu" | "bottom-up" => ForcedDirection::BottomUp,
                    "alt" | "alternate" => ForcedDirection::Alternate,
                    bad => usage(&format!("bad hybrid policy {bad:?} (auto|td|bu|alt)")),
                };
                Algorithm::Hybrid { policy }
            } else {
                usage(&format!("unknown --algorithm {other:?}"))
            }
        }
    }
}

/// Returns `v` if the graph has it, and otherwise exits through `usage`
/// before a library assert can panic on it.
fn check_vertex(role: &str, v: u32, n: usize) -> u32 {
    if v as usize >= n {
        usage(&format!("{role} {v} out of range (graph has {n} vertices)"));
    }
    v
}

fn cmd_bfs(opts: &HashMap<String, String>) {
    let graph = load_graph(opts);
    let root = check_vertex("root", get(opts, "root", 0u32), graph.num_vertices());
    let threads: usize = get(opts, "threads", 1usize);
    let algorithm = parse_algorithm(&get(opts, "algorithm", "single".to_string()));
    let mode_name = get(opts, "mode", "native".to_string());
    let mode = match mode_name.as_str() {
        "native" => ExecMode::Native,
        "model" => ExecMode::model(parse_machine(&get(opts, "machine", "ex".to_string()))),
        other => usage(&format!("unknown --mode {other:?} (native|model)")),
    };
    let traced = opts.contains_key("trace") || opts.contains_key("metrics");
    let reorder = parse_reorder(opts);
    let result = BfsRunner::new(&graph)
        .algorithm(algorithm)
        .threads(threads)
        .mode(mode)
        .traced(traced)
        .reorder(reorder)
        .reorder_seed(get(opts, "reorder-seed", DEFAULT_REORDER_SEED))
        .run(root);
    let tree = validate_bfs_tree(&graph, root, &result.parents)
        .unwrap_or_else(|e| usage(&format!("produced invalid tree: {e}")));
    let s = &result.stats;
    let reorder_note = if reorder == Reorder::None {
        String::new()
    } else {
        format!(" [reorder={reorder}, results in original ids]")
    };
    // The Graph500 rate counts every adjacency entry of a reached vertex,
    // however few of them the search examined (the hybrid's bottom-up
    // levels stop at the first frontier neighbour).
    let reachable = tree.reachable_edges;
    println!(
        "[{}] visited {} of {} vertices in {} levels; {:.3} ms; {:.1} ME/s ({} edges examined); \
         {:.1} ME/s Graph500 ({} reachable entries){}",
        mode_name,
        s.vertices_visited,
        graph.num_vertices(),
        s.levels,
        s.seconds * 1e3,
        s.me_per_s(),
        s.edges_traversed,
        reachable as f64 / s.seconds.max(1e-9) / 1e6,
        reachable,
        reorder_note
    );
    write_exports(opts, &result);
    if matches!(algorithm, Algorithm::Hybrid { .. }) {
        let skipped = result.profile.total().edges_skipped;
        println!(
            "directions: {} ({} edges skipped by bottom-up early exit)",
            result.profile.direction_string(),
            skipped
        );
    }
}

/// `mcbfs info`: structural, degree and cache-locality facts of a saved
/// graph, including the vertex ordering recorded in its header. Shard
/// files (from `mcbfs partition`) get their shard metadata instead.
fn cmd_info(opts: &HashMap<String, String>) {
    let path = require(opts, "graph");
    let mut magic = [0u8; 4];
    {
        use std::io::Read;
        let mut f =
            File::open(&path).unwrap_or_else(|e| usage(&format!("cannot open {path}: {e}")));
        f.read_exact(&mut magic)
            .unwrap_or_else(|e| usage(&format!("cannot read {path}: {e}")));
    }
    if &magic == io::SHARD_MAGIC {
        let file = File::open(&path).unwrap_or_else(|e| usage(&format!("cannot open {path}: {e}")));
        let shard = io::read_shard(&mut BufReader::new(file))
            .unwrap_or_else(|e| usage(&format!("cannot parse {path}: {e}")));
        let range = shard.owned_range();
        println!(
            "{}: shard {} of {} over a {}-vertex graph",
            path,
            shard.index(),
            shard.shards(),
            shard.num_vertices()
        );
        println!(
            "  owns [{}, {}): {} vertices, {} local edges",
            range.start,
            range.end,
            shard.owned_len(),
            shard.local_edges()
        );
        println!(
            "  cut edges: {} ({:.1}% of local edges leave the shard)",
            shard.cut_edges(),
            1e2 * shard.cut_edges() as f64 / shard.local_edges().max(1) as f64
        );
        return;
    }
    let (graph, reorder) = load_graph_tagged(opts);
    println!(
        "{}: {} vertices, {} directed edges, {:.1} MB",
        path,
        graph.num_vertices(),
        graph.num_edges(),
        graph.memory_bytes() as f64 / (1 << 20) as f64
    );
    println!("  vertex ordering: {reorder}");
    let d = degree_stats(&graph);
    println!(
        "  degree: min {} / mean {:.2} / max {}; std dev {:.2}; gini {:.3}; {} isolated",
        d.min, d.mean, d.max, d.std_dev, d.gini, d.isolated
    );
    let l = locality_stats(&graph);
    println!(
        "  locality: mean neighbor ID-gap {:.1}, mean adjacency span {:.1}, max gap {}",
        l.mean_neighbor_gap, l.mean_adjacency_span, l.max_neighbor_gap
    );
}

fn cmd_kernel(opts: &HashMap<String, String>) {
    let graph = load_graph(opts);
    let searches: usize = get(opts, "searches", 16usize);
    let threads: usize = get(opts, "threads", 1usize);
    let seed: u64 = get(opts, "seed", 1u64);
    let algorithm = parse_algorithm(&get(opts, "algorithm", "single".to_string()));
    let stats = run_kernel(&graph, algorithm, threads, ExecMode::Native, searches, seed);
    println!(
        "{} searches: harmonic mean {:.2} MTEPS, min {:.2}, median {:.2}, max {:.2}",
        stats.searches,
        stats.harmonic_mean_teps / 1e6,
        stats.quantile(0.0) / 1e6,
        stats.median() / 1e6,
        stats.quantile(1.0) / 1e6,
    );
    if opts.contains_key("batched") {
        let batch: usize = get(opts, "batch", 64usize);
        let r = run_batched_kernel(
            &graph,
            algorithm,
            threads,
            ExecMode::Native,
            searches,
            seed,
            batch,
        );
        println!(
            "batched (same {} roots, {} wave{} of <={}): sequential loop {:.2} MTEPS \
             ({:.3} ms), batched {:.2} MTEPS ({:.3} ms), speedup {:.2}x",
            r.roots.len(),
            r.waves,
            if r.waves == 1 { "" } else { "s" },
            batch,
            r.sequential_teps() / 1e6,
            r.sequential_seconds * 1e3,
            r.batched_teps() / 1e6,
            r.batched_seconds * 1e3,
            r.speedup()
        );
    }
}

/// Reads whitespace/newline-separated vertex ids from a file.
fn read_sources(path: &str, n: usize) -> Vec<u32> {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| usage(&format!("cannot read {path}: {e}")));
    let sources: Vec<u32> = text
        .split_whitespace()
        .map(|tok| {
            tok.parse()
                .unwrap_or_else(|_| usage(&format!("bad vertex id {tok:?} in {path}")))
        })
        .collect();
    if sources.is_empty() {
        usage(&format!("{path} contains no vertex ids"));
    }
    for &s in &sources {
        check_vertex("source", s, n);
    }
    sources
}

/// `--stats-json` payload of `mcbfs query --shards N`: the usual batch
/// stats plus the per-level shard-exchange ledger (in model mode this is
/// the byte-exact prediction of a live N-shard cluster's traffic).
#[derive(serde::Serialize)]
struct ShardedQueryStats {
    shards: u64,
    stats: multicore_bfs::query::BatchStats,
    exchange: multicore_bfs::shard::ExchangeLog,
}

/// `mcbfs query`: serve one distances query per source offline, through
/// `QueryEngine` or, with `--shards N`, the in-process sharded engine —
/// the same level-synchronous exchange protocol the live router/worker
/// cluster speaks, minus the sockets.
fn cmd_query(opts: &HashMap<String, String>) {
    use multicore_bfs::shard::ShardedEngine;
    if opts.contains_key("addr") {
        return cmd_query_remote(opts);
    }
    let graph = load_graph(opts);
    let sources = read_sources(&require(opts, "sources"), graph.num_vertices());
    let batch: usize = get(opts, "batch", 64usize);
    let mode_name = get(opts, "mode", "native".to_string());
    let model = match mode_name.as_str() {
        "native" => None,
        "model" => Some(parse_machine(&get(opts, "machine", "ex".to_string()))),
        other => usage(&format!("unknown --mode {other:?} (native|model)")),
    };
    let shards = opts
        .contains_key("shards")
        .then(|| get(opts, "shards", 1usize));
    if shards == Some(0) {
        usage("--shards must be at least 1");
    }
    let queries: Vec<Query> = sources
        .iter()
        .map(|&root| Query::Distances { root })
        .collect();
    // A sharded run serves on one thread and one dispatcher.
    let (threads, sockets) = match shards {
        Some(_) => (1, 1),
        None => (get(opts, "threads", 1usize), get(opts, "sockets", 1usize)),
    };
    let traced = opts.contains_key("trace") || opts.contains_key("metrics");
    let (report, sharded) = match shards {
        Some(shards) => {
            let mut engine = ShardedEngine::new(&graph, shards)
                .max_batch(batch)
                .traced(traced);
            if let Some(model) = model {
                engine = engine.model(model);
            }
            let report = engine.execute(&queries);
            (report, Some((shards as u64, engine.exchange_log())))
        }
        None => {
            let report = QueryEngine::new(&graph)
                .threads(threads)
                .max_batch(batch)
                .sockets(sockets)
                .mode(model.map_or(ExecMode::Native, ExecMode::model))
                .traced(traced)
                .execute(&queries);
            (report, None)
        }
    };
    let stats = batch_stats(&report, batch, threads, sockets, &mode_name);
    println!(
        "[{}] {} queries in {} wave{}{}: {:.3} ms makespan, {:.2} aggregate MTEPS, \
         latency p50 {:.3} ms / p99 {:.3} ms",
        mode_name,
        stats.queries,
        stats.waves,
        if stats.waves == 1 { "" } else { "s" },
        shards.map_or(String::new(), |n| format!(" over {n} shard slices")),
        stats.seconds * 1e3,
        stats.aggregate_teps / 1e6,
        stats.p50_latency_ms,
        stats.p99_latency_ms
    );
    for w in &report.waves {
        println!(
            "  wave {}: {} queries, {} levels, {:.3} ms, {} edges{}",
            w.wave,
            w.queries,
            w.levels,
            w.seconds * 1e3,
            w.edges,
            if w.fallback { " (fallback)" } else { "" }
        );
    }
    if let Some((_, exchange)) = &sharded {
        println!(
            "  exchange: {} frames, {} bytes, {} items over {} level rounds",
            exchange.total_frames(),
            exchange.total_bytes(),
            exchange.total_items(),
            exchange.levels.len()
        );
    }
    write_trace_exports(opts, report.trace.as_ref());
    if let Some(path) = opts.get("stats-json") {
        let json = match sharded {
            Some((shards, exchange)) => serde_json::to_string_pretty(&ShardedQueryStats {
                shards,
                stats,
                exchange,
            }),
            None => serde_json::to_string_pretty(&stats),
        };
        write_text_file(path, &json.expect("serialize stats"));
        println!("wrote stats JSON {path}");
    }
}

/// `--stats-json` payload of `mcbfs query --addr`.
#[derive(serde::Serialize)]
struct RemoteQueryStats {
    submitted: u64,
    served: u64,
    rejected: u64,
    timeouts: u64,
    errors: u64,
    seconds: f64,
    edges: u64,
    p50_latency_ms: f64,
    p99_latency_ms: f64,
}

/// `mcbfs query --addr`: drive a live wire-v1 server (single-process
/// `mcbfs serve` or a sharded `mcbfs router` — the protocol is the same)
/// with one distances query per source, pipelined on one connection.
fn cmd_query_remote(opts: &HashMap<String, String>) {
    use multicore_bfs::query::nearest_rank_quantile;
    use multicore_bfs::serve::{loadgen, wire};
    use multicore_bfs::serve::{Request, Response};
    use std::io::{BufRead, Write};
    let addr = require(opts, "addr");
    let deadline_ms: f64 = get(opts, "deadline-ms", -1.0f64);
    // Handshake: the stats reply carries the graph shape, which bounds
    // the source ids exactly as the local path does.
    let stats =
        loadgen::fetch_stats(&addr).unwrap_or_else(|e| usage(&format!("cannot reach {addr}: {e}")));
    let sources = read_sources(&require(opts, "sources"), stats.vertices as usize);
    let stream = std::net::TcpStream::connect(&addr)
        .unwrap_or_else(|e| usage(&format!("cannot connect to {addr}: {e}")));
    stream.set_nodelay(true).ok();
    let mut writer = stream
        .try_clone()
        .unwrap_or_else(|e| usage(&format!("cannot clone connection: {e}")));
    let mut reader = BufReader::new(stream);
    let mut line = String::new();

    let start = std::time::Instant::now();
    for (tag, &root) in sources.iter().enumerate() {
        let request = Request::Query {
            tag: tag as u64,
            query: Query::Distances { root },
            deadline_ms: (deadline_ms > 0.0).then_some(deadline_ms),
        };
        writer
            .write_all(wire::encode(&request).as_bytes())
            .unwrap_or_else(|e| usage(&format!("query write failed: {e}")));
    }
    writer
        .flush()
        .unwrap_or_else(|e| usage(&format!("query write failed: {e}")));

    let (mut served, mut rejected, mut timeouts, mut errors) = (0u64, 0u64, 0u64, 0u64);
    let mut edges = 0u64;
    let mut latencies = Vec::new();
    let mut remaining = sources.len();
    while remaining > 0 {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) => usage("server closed the connection mid-batch"),
            Ok(_) => {}
            Err(e) => usage(&format!("reply read failed: {e}")),
        }
        if line.trim().is_empty() {
            continue;
        }
        match wire::decode::<Response>(&line) {
            Ok(Response::Ok(reply)) => {
                served += 1;
                edges += reply.edges;
                latencies.push(reply.latency_ms);
                remaining -= 1;
            }
            Ok(Response::Rejected { .. }) => {
                rejected += 1;
                remaining -= 1;
            }
            Ok(Response::Timeout { .. }) => {
                timeouts += 1;
                remaining -= 1;
            }
            Ok(Response::Error { .. }) => {
                errors += 1;
                remaining -= 1;
            }
            // Stray pong/stats replies are not part of this batch.
            Ok(_) => {}
            Err(e) => usage(&format!("bad server frame: {e}")),
        }
    }
    let seconds = start.elapsed().as_secs_f64();
    let p50 = nearest_rank_quantile(&latencies, 0.50);
    let p99 = nearest_rank_quantile(&latencies, 0.99);
    println!(
        "[remote {addr}] {} queries in {:.3} ms: {} served / {} rejected / \
         {} timeout / {} error; {:.2} aggregate MTEPS, latency p50 {:.3} ms / p99 {:.3} ms",
        sources.len(),
        seconds * 1e3,
        served,
        rejected,
        timeouts,
        errors,
        if seconds > 0.0 {
            edges as f64 / seconds / 1e6
        } else {
            0.0
        },
        p50,
        p99
    );
    if let Some(path) = opts.get("stats-json") {
        let payload = RemoteQueryStats {
            submitted: sources.len() as u64,
            served,
            rejected,
            timeouts,
            errors,
            seconds,
            edges,
            p50_latency_ms: p50,
            p99_latency_ms: p99,
        };
        let json = serde_json::to_string_pretty(&payload).expect("serialize stats");
        write_text_file(path, &json);
        println!("wrote stats JSON {path}");
    }
}

fn cmd_components(opts: &HashMap<String, String>) {
    let graph = load_graph(opts);
    let threads: usize = get(opts, "threads", 1usize);
    let c = connected_components(&graph, threads, 4_096);
    println!("{} components; largest {} vertices", c.count(), c.largest());
    for (root, size) in c.sizes.iter().take(5) {
        println!("  root {root}: {size}");
    }
}

fn cmd_stcon(opts: &HashMap<String, String>) {
    let graph = load_graph(opts);
    let n = graph.num_vertices();
    let s = check_vertex("source", get(opts, "source", 0u32), n);
    let t = check_vertex("target", get(opts, "target", 0u32), n);
    let start = std::time::Instant::now();
    let result = st_connectivity(&graph, s, t);
    let seconds = start.elapsed().as_secs_f64();
    if let Some(path) = opts.get("stats-json") {
        let report = StConReport::new(s, t, &result, seconds);
        let json = serde_json::to_string_pretty(&report).expect("serialize stats");
        write_text_file(path, &json);
        println!("wrote stats JSON {path}");
    }
    match result {
        StConnectivity::Connected { path, explored } => {
            println!(
                "connected: {} hops ({explored} vertices explored, {:.3} ms)",
                path.len() - 1,
                seconds * 1e3
            );
            if path.len() <= 20 {
                println!("  path: {path:?}");
            }
        }
        StConnectivity::Disconnected { explored } => {
            println!(
                "disconnected (explored {explored} vertices, {:.3} ms)",
                seconds * 1e3
            );
            // Scriptability: a missing path is a distinguishable exit code.
            exit(1);
        }
    }
}

/// The serving front's flags, shared by `serve` and `router`: `--addr
/// --max-batch --max-wait-us --queue-cap --deadline-ms`, each defaulting
/// to `ServeOpts::default()`.
fn serve_opts(opts: &HashMap<String, String>) -> multicore_bfs::serve::ServeOpts {
    use std::time::Duration;
    let defaults = multicore_bfs::serve::ServeOpts::default();
    let max_wait_us = defaults.max_wait.as_micros() as u64;
    let deadline_s: f64 = get(opts, "deadline-ms", -1.0f64) / 1e3;
    multicore_bfs::serve::ServeOpts {
        addr: get(opts, "addr", defaults.addr.clone()),
        max_batch: get(opts, "max-batch", defaults.max_batch),
        max_wait: Duration::from_micros(get(opts, "max-wait-us", max_wait_us)),
        queue_cap: get(opts, "queue-cap", defaults.queue_cap),
        default_deadline: (deadline_s > 0.0).then(|| Duration::from_secs_f64(deadline_s)),
        ..defaults
    }
}

/// Prints the accounting line a drained `serve` or `router` ends with.
fn print_drained(stats: &multicore_bfs::serve::ServerStats) {
    println!(
        "drained and stopped after {:.1}s: {} admitted, {} served, {} shed, \
         {} timeouts, {} errors, {} protocol errors, {} waves, p99 {:.3} ms",
        stats.uptime_seconds,
        stats.admitted,
        stats.served,
        stats.shed,
        stats.timeouts,
        stats.errors,
        stats.protocol_errors,
        stats.waves,
        stats.p99_latency_ms
    );
}

/// `mcbfs serve`: run the wire-v1 query server until SIGINT, then drain.
fn cmd_serve(opts: &HashMap<String, String>) {
    use multicore_bfs::serve::{arm_sigint, serve, ServeOpts, ShutdownHandle};
    let graph = load_graph(opts);
    let serve_opts = ServeOpts {
        threads: get(opts, "threads", 0usize),
        ..serve_opts(opts)
    };
    arm_sigint();
    let shutdown = ShutdownHandle::new();
    let stats = serve(&graph, &serve_opts, &shutdown, |addr| {
        println!(
            "mcbfs-serve (wire-v1) listening on {addr}: {} vertices, {} edges, \
             max_batch {}, max_wait {:?}, queue_cap {}",
            graph.num_vertices(),
            graph.num_edges(),
            serve_opts.max_batch,
            serve_opts.max_wait,
            serve_opts.queue_cap
        );
    })
    .unwrap_or_else(|e| usage(&format!("serve failed: {e}")));
    print_drained(&stats);
    if let Some(path) = opts.get("stats-json") {
        let json = serde_json::to_string_pretty(&stats).expect("serialize stats");
        write_text_file(path, &json);
        println!("wrote stats JSON {path}");
    }
}

/// `mcbfs loadgen`: drive a live server and report latency/throughput.
fn cmd_loadgen(opts: &HashMap<String, String>) {
    use multicore_bfs::serve::{loadgen, LoadgenOpts};
    let smoke = opts.contains_key("smoke");
    let closed = opts.contains_key("closed-loop");
    let deadline_ms: f64 = get(opts, "deadline-ms", -1.0f64);
    let lopts = LoadgenOpts {
        addr: get(opts, "addr", "127.0.0.1:7411".to_string()),
        connections: get(opts, "connections", if smoke { 2 } else { 4 }),
        duration: std::time::Duration::from_secs_f64(get(
            opts,
            "duration-s",
            if smoke { 1.5f64 } else { 5.0 },
        )),
        rate: if closed {
            None
        } else {
            Some(get(opts, "rate", if smoke { 300.0f64 } else { 500.0 }))
        },
        seed: get(opts, "seed", 1u64),
        deadline_ms: (deadline_ms > 0.0).then_some(deadline_ms),
        slo_ms: get(opts, "slo-ms", 50.0f64),
        grace: std::time::Duration::from_secs_f64(get(opts, "grace-s", 10.0f64)),
    };
    let report = loadgen::run(&lopts).unwrap_or_else(|e| usage(&format!("loadgen failed: {e}")));
    println!(
        "{} loop vs {}: offered {:.0} qps for {:.1}s",
        if lopts.rate.is_some() {
            "open"
        } else {
            "closed"
        },
        lopts.addr,
        report.offered_qps,
        report.seconds
    );
    println!(
        "  submitted {} -> served {} / shed {} / timeout {} / error {} / unresolved {}",
        report.submitted,
        report.served,
        report.shed,
        report.timeouts,
        report.errors,
        report.unresolved
    );
    println!(
        "  achieved {:.1} qps, goodput {:.1} qps, {:.2} aggregate MTEPS",
        report.achieved_qps,
        report.goodput_qps,
        report.aggregate_teps / 1e6
    );
    println!(
        "  latency p50 {:.3} / p99 {:.3} / p999 {:.3} ms; SLO {:.1} ms attainment {:.1}%",
        report.p50_latency_ms,
        report.p99_latency_ms,
        report.p999_latency_ms,
        report.slo_ms,
        report.slo_attainment * 1e2
    );
    if let Some(path) = opts.get("stats-json") {
        let json = serde_json::to_string_pretty(&report).expect("serialize report");
        write_text_file(path, &json);
        println!("wrote stats JSON {path}");
    }
}

/// `mcbfs partition`: cut a saved CSR into N contiguous vertex-range
/// shard files that `mcbfs shard` workers load.
fn cmd_partition(opts: &HashMap<String, String>) {
    let graph = load_graph(opts);
    let shards: usize = get(opts, "shards", 0usize);
    if shards == 0 {
        usage("--shards must be at least 1");
    }
    let base = opts
        .get("out")
        .cloned()
        .unwrap_or_else(|| require(opts, "graph"));
    let mut cut_total = 0usize;
    for index in 0..shards {
        let shard = CsrShard::cut(&graph, shards, index);
        let path = shard_file_name(&base, index, shards);
        let f =
            File::create(&path).unwrap_or_else(|e| usage(&format!("cannot create {path}: {e}")));
        io::write_shard(&mut BufWriter::new(f), &shard).expect("serialize shard");
        cut_total += shard.cut_edges();
        println!(
            "wrote {}: owns [{}, {}) ({} vertices), {} local edges ({} cut)",
            path,
            shard.owned_range().start,
            shard.owned_range().end,
            shard.owned_len(),
            shard.local_edges(),
            shard.cut_edges()
        );
    }
    println!(
        "partitioned {} vertices, {} edges into {} shards; {:.1}% of edges cross shards",
        graph.num_vertices(),
        graph.num_edges(),
        shards,
        1e2 * cut_total as f64 / graph.num_edges().max(1) as f64
    );
}

/// `mcbfs shard`: run one shard worker until SIGINT. The worker owns a
/// vertex range and answers its router over swire-v3; clients never
/// connect here.
fn cmd_shard(opts: &HashMap<String, String>) {
    use multicore_bfs::serve::{arm_sigint, ShutdownHandle};
    use multicore_bfs::shard::run_worker;
    let path = require(opts, "shard");
    let file = File::open(&path).unwrap_or_else(|e| usage(&format!("cannot open {path}: {e}")));
    let shard = io::read_shard(&mut BufReader::new(file))
        .unwrap_or_else(|e| usage(&format!("cannot parse {path}: {e}")));
    let addr = get(opts, "addr", "127.0.0.1:7501".to_string());
    arm_sigint();
    let shutdown = ShutdownHandle::new();
    let stats = run_worker(&shard, &addr, &shutdown, |bound| {
        println!(
            "mcbfs-shard (swire-v3) listening on {bound}: shard {} of {}, \
             owns [{}, {}) of {} vertices, {} local edges ({} cut)",
            shard.index(),
            shard.shards(),
            shard.owned_range().start,
            shard.owned_range().end,
            shard.num_vertices(),
            shard.local_edges(),
            shard.cut_edges()
        );
    })
    .unwrap_or_else(|e| usage(&format!("shard worker failed: {e}")));
    println!(
        "drained and stopped after {:.1}s: {} router connections",
        stats.uptime_seconds, stats.connections
    );
}

/// `--stats-json` payload of `mcbfs router`: the merged cluster stats
/// plus the per-level shard-exchange ledger observed on the live links.
#[derive(serde::Serialize)]
struct RouterStats {
    stats: multicore_bfs::serve::ServerStats,
    exchange: multicore_bfs::shard::ExchangeLog,
}

/// `mcbfs router`: the scatter/gather front — wire-v1 to clients,
/// swire-v3 to the shard workers listed in `--workers`. SIGINT drains
/// in-flight waves and then reports the merged cluster stats.
fn cmd_router(opts: &HashMap<String, String>) {
    use multicore_bfs::serve::{arm_sigint, serve_with, ShutdownHandle};
    use multicore_bfs::shard::Router;
    let workers: Vec<String> = require(opts, "workers")
        .split(',')
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .collect();
    if workers.is_empty() {
        usage("--workers needs at least one HOST:PORT");
    }
    let router = Router::connect(&workers)
        .unwrap_or_else(|e| usage(&format!("cannot connect to shard workers: {e}")));
    let serve_opts = serve_opts(opts);
    arm_sigint();
    let shutdown = ShutdownHandle::new();
    let (vertices, edges, shards) = (
        router.num_vertices(),
        router.num_edges(),
        router.num_shards(),
    );
    let stats = serve_with(&router, vertices, edges, &serve_opts, &shutdown, |addr| {
        println!(
            "mcbfs-router (wire-v1) listening on {addr}: {vertices} vertices, {edges} edges \
             over {shards} shard workers, max_batch {}, max_wait {:?}, queue_cap {}",
            serve_opts.max_batch, serve_opts.max_wait, serve_opts.queue_cap
        );
    })
    .unwrap_or_else(|e| usage(&format!("router failed: {e}")));
    let exchange = router.exchange_log();
    print_drained(&stats);
    println!(
        "  exchange: {} frames, {} bytes, {} items over {} level rounds",
        exchange.total_frames(),
        exchange.total_bytes(),
        exchange.total_items(),
        exchange.levels.len()
    );
    if let Some(path) = opts.get("stats-json") {
        let payload = RouterStats { stats, exchange };
        let json = serde_json::to_string_pretty(&payload).expect("serialize stats");
        write_text_file(path, &json);
        println!("wrote stats JSON {path}");
    }
}

fn cmd_model(opts: &HashMap<String, String>) {
    let graph = load_graph(opts);
    let model = parse_machine(&get(opts, "machine", "ex".to_string()));
    let threads: usize = get(opts, "threads", model.spec.total_threads());
    let sockets = model.spec.sockets_used(threads);
    let algorithm = if sockets > 1 {
        Algorithm::MultiSocket { sockets }
    } else {
        Algorithm::SingleSocket
    };
    let root = check_vertex("root", get(opts, "root", 0u32), graph.num_vertices());
    let traced = opts.contains_key("trace") || opts.contains_key("metrics");
    let result = BfsRunner::new(&graph)
        .algorithm(algorithm)
        .threads(threads)
        .mode(ExecMode::model(model.clone()))
        .traced(traced)
        .reorder(parse_reorder(opts))
        .reorder_seed(get(opts, "reorder-seed", DEFAULT_REORDER_SEED))
        .run(root);
    println!(
        "{} @ {} threads ({} sockets): predicted {:.3} ms, {:.1} ME/s",
        model.spec.name,
        threads,
        sockets,
        result.stats.seconds * 1e3,
        result.stats.me_per_s()
    );
    write_exports(opts, &result);
}

fn cmd_calibrate(opts: &HashMap<String, String>) {
    let effort = if opts.contains_key("thorough") {
        CalibrationEffort::Thorough
    } else {
        CalibrationEffort::Quick
    };
    println!("calibrating this host ({effort:?}) ...");
    let report = calibrate_host(effort);
    for (bytes, ns) in &report.latency_points {
        println!(
            "  {:>10} B working set: {:>8.1} ns/dependent read",
            bytes, ns
        );
    }
    println!(
        "  pipelining gain (batch 16 vs 1): {:.1}x",
        report.pipelining_gain
    );
    println!("  fetch_add: {:.1} ns", report.atomic_ns);
    println!(
        "fitted params: L1 {:.1} / L2 {:.1} / L3 {:.1} / mem {:.1} ns, efficiency {:.2}",
        report.params.lat_l1_ns,
        report.params.lat_l2_ns,
        report.params.lat_l3_ns,
        report.params.lat_mem_ns,
        report.params.pipeline_efficiency
    );
}
