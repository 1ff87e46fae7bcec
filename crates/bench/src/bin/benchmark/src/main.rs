//! The layered benchmark: one invocation runs one workload against the
//! system hosted in this process and prints every metric by name and unit,
//! ending with a one-line JSON result. See README.md for the workloads, the
//! metrics and how to read a traced run.
//!
//! ```text
//! benchmark --workload <name> --seed <u64> [--seconds <s>] [--trace 0|1]
//! benchmark --smoke
//! benchmark --compare A.json B.json
//! ```

mod client;
mod inputs;
mod metrics;
mod oracle;
mod serving;
mod stats;
mod system;
mod trace;
mod traverse;

use inputs::GraphSpec;
use metrics::{Report, END_TO_END, PER_LAYER};
use serving::{Mix, ServingCfg};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

const WORKLOADS: [&str; 4] = ["traverse-rmat", "serve-point", "serve-map", "cluster-point"];

enum Workload {
    Traverse(GraphSpec),
    Serving(ServingCfg),
}

/// The workloads; `smoke` shrinks graphs to scale 10–12 and raises the
/// paced rates so one-second phases still give the percentiles their
/// samples.
fn workload(name: &str, smoke: bool) -> Option<Workload> {
    let graph = |scale: u32, smoke_scale: u32, shards: usize| GraphSpec {
        scale: if smoke { smoke_scale } else { scale },
        seed: 1,
        shards,
    };
    let serving = |graph, mix, paced_qps: f64, smoke_qps: f64, sat_qps, sat_inflight| {
        Workload::Serving(ServingCfg {
            graph,
            mix,
            paced_qps: if smoke { smoke_qps } else { paced_qps },
            sat_qps,
            sat_inflight,
            deadline: Duration::from_secs(10),
        })
    };
    Some(match name {
        "traverse-rmat" => Workload::Traverse(graph(20, 12, 0)),
        "serve-point" => serving(graph(16, 11, 0), Mix::Point, 25.0, 200.0, 275.0, 32),
        "serve-map" => serving(graph(16, 11, 0), Mix::Map, 21.0, 200.0, 120.0, 32),
        "cluster-point" => serving(graph(11, 10, 2), Mix::Point, 21.0, 150.0, 200.0, 8),
        _ => return None,
    })
}

fn trace_path(workload: &str, seed: u64) -> PathBuf {
    inputs::cache_dir()
        .with_file_name("benchmark-traces")
        .join(format!("{workload}-seed{seed}.json"))
}

fn run_workload(
    name: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
) -> Result<Report, String> {
    let path = trace_path(name, seed);
    // Generating the large graph in a child process keeps its memory out
    // of this process's peak RSS; smoke graphs are generated in place.
    let in_child = !smoke;
    match workload(name, smoke).ok_or_else(|| format!("unknown workload `{name}`"))? {
        Workload::Traverse(spec) => traverse::run(&spec, seed, seconds, traced, in_child, &path),
        Workload::Serving(cfg) => serving::run(&cfg, seed, seconds, traced, in_child, &path),
    }
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Runs every workload small and briefly; errors unless each prints every
/// end-to-end metric with no failed request and every answer correct.
fn smoke() -> Result<String, String> {
    let mut out = String::new();
    for name in WORKLOADS {
        let report = run_workload(name, 1, 1.0, false, true)?;
        let text = report.render(END_TO_END)?;
        if report.failed > 0 || !report.correct() {
            return Err(format!(
                "{name}: {} failed, {} wrong\n{text}",
                report.failed, report.wrong
            ));
        }
        out.push_str(&format!("== {name}\n{text}"));
    }
    Ok(out)
}

const USAGE: &str =
    "usage: benchmark --workload <traverse-rmat|serve-point|serve-map|cluster-point> \
--seed <u64> [--seconds <s>] [--trace 0|1]\n       benchmark --smoke\n       \
benchmark --compare A.json B.json";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: String::new(),
        seed: 1,
        seconds: 24.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => parsed.workload = value()?.clone(),
            "--seed" => parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                parsed.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(parsed.seconds > 0.0 && parsed.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if !WORKLOADS.contains(&parsed.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("--smoke") => smoke(),
        Some("--compare") if args.len() == 3 => metrics::compare(&args[1], &args[2]),
        // Internal: the child process that generates a missing input graph.
        Some("--generate") if args.len() == 4 => (|| {
            let number = |s: &str| s.parse::<u64>().map_err(|e| format!("--generate {s}: {e}"));
            GraphSpec {
                scale: number(&args[1])? as u32,
                seed: number(&args[2])?,
                shards: number(&args[3])? as usize,
            }
            .generate()
            .map(|()| String::new())
        })(),
        _ => match parse(&args) {
            Err(e) => {
                eprintln!("error: {e}\n{USAGE}");
                return ExitCode::from(2);
            }
            Ok(a) => run_workload(&a.workload, a.seed, a.seconds, a.trace, false)
                .and_then(|r| r.render(if a.trace { PER_LAYER } else { END_TO_END })),
        },
    };
    match result {
        Ok(text) => {
            print!("{text}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn smoke_run_prints_every_metric_with_nothing_failed() {
        let started = Instant::now();
        let text = smoke().unwrap_or_else(|e| panic!("smoke run failed: {e}"));
        for def in END_TO_END {
            assert_eq!(
                text.lines().filter(|l| l.starts_with(def.name)).count(),
                WORKLOADS.len(),
                "{} printed once per workload",
                def.name
            );
        }
        let results = text.lines().filter(|l| l.starts_with('{'));
        assert!(results.clone().count() == WORKLOADS.len());
        assert!(results
            .into_iter()
            .all(|l| l.contains("\"correct\": true, ") && l.contains("\"failed\": 0, ")));
        assert!(
            started.elapsed() < Duration::from_secs(10),
            "smoke took {:?}",
            started.elapsed()
        );
    }

    #[test]
    fn bad_arguments_are_refused() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        assert!(parse(&args(
            "--workload serve-point --seed 3 --seconds 2 --trace 1"
        ))
        .is_ok());
        assert!(parse(&args("--workload nope --seed 3")).is_err());
        assert!(parse(&args("--workload serve-point --trace 2")).is_err());
        assert!(parse(&args("--workload serve-point --seed x")).is_err());
        assert!(parse(&args("--workload serve-point --seconds 0")).is_err());
    }
}
