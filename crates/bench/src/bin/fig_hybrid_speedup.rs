//! Direction-optimizing extension study: hybrid BFS vs. Algorithm 2.
//!
//! Not a figure of the source paper — this quantifies the post-paper
//! direction-optimizing optimization (DESIGN.md §"Direction-optimizing
//! extension") on the paper's three graph classes: R-MAT, uniform and
//! SSCA#2. Two measurements per class and thread count:
//!
//! * **edges examined** — `WorkProfile::edges_traversed` of the hybrid vs.
//!   the strictly top-down Algorithm 2 (the work saving; on low-diameter
//!   graphs the hybrid should examine well under half the edges);
//! * **TEPS** — with the *input* edge count `m` as the common numerator
//!   for both algorithms, so the rates stay comparable (dividing each
//!   algorithm by its own examined-edge count would overrate the one doing
//!   more work — the standard direction-optimizing benchmarking caveat).
//!
//! `--mode native` (default spirit of this figure) measures wall clock on
//! this host; `--mode model` prices the deterministic schedules (Algorithm
//! 2's and the hybrid's own code on virtual threads) on the Nehalem EP
//! model at the scaled graph's own size.

use mcbfs_bench::cli::{Args, Mode};
use mcbfs_bench::report::Report;
use mcbfs_bench::workloads::{rate_cases, Family};
use mcbfs_core::algo::hybrid::ForcedDirection;
use mcbfs_core::algo::level::{bfs, bfs_deterministic, VariantConfig};
use mcbfs_core::runner::{Algorithm, BfsRunner};
use mcbfs_gen::prelude::*;
use mcbfs_graph::csr::CsrGraph;
use mcbfs_machine::model::MachineModel;
use std::io::Write;
use std::path::Path;

fn build_workloads(args: &Args) -> Vec<(&'static str, CsrGraph)> {
    let rmat = rate_cases(Family::Rmat, args.scale)[0].build();
    let uniform = rate_cases(Family::Uniform, args.scale)[0].build();
    // SSCA#2 at the same vertex count as the scaled R-MAT class (the
    // paper's Fig. 10 workload family).
    let n = rmat.num_vertices();
    let ssca2 = Ssca2Builder::new(n).seed(7).build();
    vec![("rmat", rmat), ("uniform", uniform), ("ssca2", ssca2)]
}

/// Re-runs the hybrid search traced and appends its JSONL record stream
/// (one run header + one record per level per thread) to `path` — the
/// per-level wait-time detail behind the aggregate TEPS rows.
fn append_metrics(path: &Path, family: &str, graph: &CsrGraph, threads: &[usize]) {
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .unwrap_or_else(|e| panic!("cannot open {}: {e}", path.display()));
    for &t in threads {
        let result = BfsRunner::new(graph)
            .algorithm(Algorithm::hybrid())
            .threads(t)
            .traced(true)
            .run(0);
        let Some(trace) = result.trace.as_ref() else {
            eprintln!("# --metrics ignored: built without the `trace` feature");
            return;
        };
        file.write_all(mcbfs_trace::to_jsonl(trace).as_bytes())
            .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
        eprintln!(
            "# {family} x{t}: appended {} level spans to {}",
            trace.level_span_count(),
            path.display()
        );
    }
}

fn main() {
    let args = Args::parse("fig_hybrid_speedup");
    let threads = args.threads.clone().unwrap_or_else(|| vec![1, 2, 4]);
    let mut report = Report::new(
        "Direction-optimizing hybrid vs Algorithm 2: edges examined and TEPS \
         (common numerator m)",
        "threads",
    );

    for (family, graph) in build_workloads(&args) {
        let m = graph.num_edges() as f64;
        eprintln!(
            "# {family}: {} vertices, {} directed edges",
            graph.num_vertices(),
            graph.num_edges()
        );
        if args.mode.wants_native() || args.mode == Mode::Both {
            for &t in &threads {
                let alg2 = bfs(&graph, 0, t, VariantConfig::algorithm2());
                let hybrid = bfs(&graph, 0, t, VariantConfig::hybrid(ForcedDirection::Auto));
                report.push(
                    "edges_examined",
                    &format!("{family} alg2"),
                    t as f64,
                    alg2.profile.edges_traversed as f64 / 1e6,
                    "Medges",
                );
                report.push(
                    "edges_examined",
                    &format!("{family} hybrid"),
                    t as f64,
                    hybrid.profile.edges_traversed as f64 / 1e6,
                    "Medges",
                );
                report.push(
                    "teps_native",
                    &format!("{family} alg2"),
                    t as f64,
                    m / alg2.seconds / 1e6,
                    "MTEPS",
                );
                report.push(
                    "teps_native",
                    &format!("{family} hybrid"),
                    t as f64,
                    m / hybrid.seconds / 1e6,
                    "MTEPS",
                );
                let ratio = alg2.profile.edges_traversed as f64
                    / hybrid.profile.edges_traversed.max(1) as f64;
                println!(
                    "# {family} x{t}: hybrid examined {:.1}x fewer edges \
                     ({} vs {}), directions {}",
                    ratio,
                    hybrid.profile.edges_traversed,
                    alg2.profile.edges_traversed,
                    hybrid.profile.direction_string()
                );
            }
        }
        if args.mode.wants_model() {
            let model = MachineModel::nehalem_ep();
            for &t in &threads {
                let alg2 = bfs_deterministic(&graph, 0, t, VariantConfig::algorithm2());
                let hybrid =
                    bfs_deterministic(&graph, 0, t, VariantConfig::hybrid(ForcedDirection::Auto));
                let alg2_s = model.predict(&alg2.profile).seconds;
                let hybrid_s = model.predict(&hybrid.profile).seconds;
                report.push(
                    "teps_model_ep",
                    &format!("{family} alg2"),
                    t as f64,
                    m / alg2_s / 1e6,
                    "MTEPS",
                );
                report.push(
                    "teps_model_ep",
                    &format!("{family} hybrid"),
                    t as f64,
                    m / hybrid_s / 1e6,
                    "MTEPS",
                );
            }
        }
        if let Some(path) = &args.metrics {
            append_metrics(path, family, &graph, &threads);
        }
    }
    report.finish(&args.out);
}
