//! What a point query costs beyond its search: the kernel alone against
//! `QueryEngine::execute_wave`, which adds answer assembly, for a singleton
//! `stcon` (the hybrid fallback) and a 64-wide wave of point queries
//! (MS-BFS). One thread, on the graph the `serve-point` workload serves:
//! a permuted R-MAT of scale 16, degree 8, seed 1.
//!
//! Run with `cargo bench -p mcbfs-bench --bench query_assembly`.

use criterion::{criterion_group, criterion_main, Criterion};
use mcbfs_core::algo::hybrid::ForcedDirection;
use mcbfs_core::kernel::sample_roots;
use mcbfs_core::runner::{Algorithm, BfsRunner};
use mcbfs_gen::prelude::*;
use mcbfs_graph::csr::VertexId;
use mcbfs_query::{ms_bfs, Admitted, Query, QueryEngine, Slot};
use std::hint::black_box;
use std::time::Duration;

fn bench_point_assembly(c: &mut Criterion) {
    let graph = RmatBuilder::new(16, 8).seed(1).permute(true).build();
    let n = graph.num_vertices() as VertexId;
    let sources = sample_roots(&graph, 64, 2026);
    let wave: Vec<Admitted> = sources
        .iter()
        .enumerate()
        .map(|(i, &s)| Admitted {
            id: i as u64,
            query: Query::StCon {
                s,
                t: (i as VertexId * 7919 + 13) % n,
            },
            queued: Duration::ZERO,
        })
        .collect();
    let engine = QueryEngine::new(&graph).threads(1);
    let mut g = c.benchmark_group("query_assembly");
    g.sample_size(10);
    g.bench_function("singleton_stcon/kernel", |b| {
        let runner = BfsRunner::new(&graph).algorithm(Algorithm::hybrid());
        b.iter(|| black_box(runner.run(sources[0]).stats.levels));
    });
    g.bench_function("singleton_stcon/execute_wave", |b| {
        b.iter(|| black_box(engine.execute_wave(&wave[..1]).outcomes.len()));
    });
    let slots: Vec<Slot> = wave
        .iter()
        .map(|a| Slot::Point {
            source: a.query.source(),
            target: a.query.target().expect("a point query"),
        })
        .collect();
    g.bench_function("point_wave_64/kernel", |b| {
        b.iter(|| black_box(ms_bfs(&graph, &slots, 1, ForcedDirection::Auto).seconds));
    });
    g.bench_function("point_wave_64/execute_wave", |b| {
        b.iter(|| black_box(engine.execute_wave(&wave).outcomes.len()));
    });
    g.finish();
}

criterion_group!(benches, bench_point_assembly);
criterion_main!(benches);
