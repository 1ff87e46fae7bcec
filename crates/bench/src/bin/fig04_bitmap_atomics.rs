//! Fig. 4 — "Number of bitmap accesses and atomic operations in a BFS
//! search, random uniform graph with 16 millions of edges, and average
//! arity 8".
//!
//! Runs the *real* instrumented Algorithm 2 (native threads) and prints,
//! per BFS level, the number of plain bitmap probes vs. the number of
//! `lock`-prefixed atomics actually issued — demonstrating that the
//! test-then-set check all but eliminates atomics in the later levels.

use mcbfs_bench::cli::Args;
use mcbfs_bench::report::Report;
use mcbfs_bench::workloads::fig4_case;
use mcbfs_core::algo::level::{bfs, VariantConfig};

fn main() {
    let args = Args::parse("fig04_bitmap_atomics");
    let case = fig4_case(args.scale);
    eprintln!("# building {} (scaled /{}) ...", case.label, case.factor);
    let graph = case.build();
    let threads = args.threads.as_ref().map(|t| t[0]).unwrap_or(4);

    let run = bfs(&graph, 0, threads, VariantConfig::algorithm2());
    let mut report = Report::new(
        "Fig. 4: bitmap accesses vs atomic operations per BFS level (test-then-set on)",
        "level",
    );
    for (level, (reads, atomics)) in run.profile.bitmap_vs_atomics_series().iter().enumerate() {
        report.push(
            "fig04",
            "bitmap accesses",
            level as f64,
            *reads as f64,
            "ops",
        );
        report.push(
            "fig04",
            "atomic operations",
            level as f64,
            *atomics as f64,
            "ops",
        );
    }

    // Contrast: the same run without the check issues one atomic per probe.
    let naive = bfs(
        &graph,
        0,
        threads,
        VariantConfig {
            test_then_set: false,
            pipelined: false,
            ..VariantConfig::algorithm2()
        },
    );
    for (level, (_, atomics)) in naive.profile.bitmap_vs_atomics_series().iter().enumerate() {
        report.push(
            "fig04",
            "atomics w/o check",
            level as f64,
            *atomics as f64,
            "ops",
        );
    }
    report.finish(&args.out);

    let t = run.profile.total();
    let tn = naive.profile.total();
    println!(
        "# totals: {} probes, {} atomics with check vs {} without ({}x reduction)",
        t.bitmap_reads,
        t.atomic_ops,
        tn.atomic_ops,
        tn.atomic_ops.checked_div(t.atomic_ops).unwrap_or(0)
    );
}
