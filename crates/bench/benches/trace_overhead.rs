//! Overhead guardrail for the tracing substrate: the hybrid with no
//! session active (instrumentation armed but every probe disabled by the
//! relaxed `enabled()` check) versus a full capture session per run.
//!
//! The measured delta is recorded in DESIGN.md's Observability section;
//! the budget is <5% with capture enabled and exactly 0% when the `trace`
//! feature is compiled out (the probes are empty inline stubs — there is
//! nothing left to measure).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use mcbfs_core::runner::{Algorithm, BfsRunner};
use mcbfs_gen::prelude::*;
use mcbfs_graph::csr::CsrGraph;

fn workload() -> CsrGraph {
    RmatBuilder::new(12, 8).seed(5).build()
}

fn bench_trace_overhead(c: &mut Criterion) {
    let graph = workload();
    let edges = graph.num_edges() as u64;
    let mut g = c.benchmark_group("trace_overhead");
    g.sample_size(20);
    g.throughput(Throughput::Elements(edges));
    g.bench_function("hybrid_x2_untraced", |b| {
        let runner = BfsRunner::new(&graph)
            .algorithm(Algorithm::hybrid())
            .threads(2);
        b.iter(|| std::hint::black_box(runner.run(0).stats.edges_traversed));
    });
    g.bench_function("hybrid_x2_traced", |b| {
        let runner = BfsRunner::new(&graph)
            .algorithm(Algorithm::hybrid())
            .threads(2)
            .traced(true);
        b.iter(|| {
            let result = runner.run(0);
            std::hint::black_box((result.stats.edges_traversed, result.trace.is_some()))
        });
    });
    g.finish();
}

criterion_group!(benches, bench_trace_overhead);
criterion_main!(benches);
