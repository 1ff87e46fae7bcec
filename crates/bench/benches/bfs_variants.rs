//! Wall-clock comparison of the BFS algorithm family on this host — the
//! native companion to the model-driven Fig. 5.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use mcbfs_core::algo::hybrid::ForcedDirection;
use mcbfs_core::algo::level::{bfs, VariantConfig};
use mcbfs_core::algo::sequential::bfs_sequential;
use mcbfs_gen::prelude::*;
use mcbfs_graph::csr::CsrGraph;

fn workload() -> CsrGraph {
    UniformBuilder::new(1 << 15, 8).seed(3).build()
}

fn bench_algorithms(c: &mut Criterion) {
    let graph = workload();
    let edges = graph.num_edges() as u64;
    let mut g = c.benchmark_group("bfs_algorithms");
    g.sample_size(10);
    g.throughput(Throughput::Elements(edges));
    g.bench_function("sequential", |b| {
        b.iter(|| std::hint::black_box(bfs_sequential(&graph, 0).visited));
    });
    for (name, config) in [
        ("alg1_simple_x2", VariantConfig::algorithm1()),
        ("alg2_single_socket_x2", VariantConfig::algorithm2()),
        ("alg3_multi_socket_2s_x2", VariantConfig::algorithm3(2)),
        (
            "hybrid_dirop_x2",
            VariantConfig::hybrid(ForcedDirection::Auto),
        ),
    ] {
        g.bench_function(name, |b| {
            b.iter(|| std::hint::black_box(bfs(&graph, 0, 2, config).visited));
        });
    }
    g.finish();
}

fn bench_ablations(c: &mut Criterion) {
    // Design-choice ablations the DESIGN.md calls out: bitmap and
    // test-then-set (native wall clock, unpipelined).
    let graph = workload();
    let edges = graph.num_edges() as u64;
    let mut g = c.benchmark_group("bfs_ablations");
    g.sample_size(10);
    g.throughput(Throughput::Elements(edges));
    for (name, use_bitmap, test_then_set) in [
        ("bitmap+tts", true, true),
        ("bitmap_only", true, false),
        ("no_bitmap+tts", false, true),
        ("neither", false, false),
    ] {
        let config = VariantConfig {
            use_bitmap,
            test_then_set,
            pipelined: false,
            ..VariantConfig::algorithm2()
        };
        g.bench_function(name, |b| {
            b.iter(|| std::hint::black_box(bfs(&graph, 0, 2, config).visited));
        });
    }
    g.finish();
}

fn bench_channel_batching_ablation(c: &mut Criterion) {
    let graph = workload();
    let edges = graph.num_edges() as u64;
    let mut g = c.benchmark_group("bfs_channel_batching");
    g.sample_size(10);
    g.throughput(Throughput::Elements(edges));
    for (name, batch) in [("batch_256", 256usize), ("batch_16", 16), ("batch_1", 1)] {
        let config = VariantConfig {
            batch,
            ..VariantConfig::algorithm3(2)
        };
        g.bench_function(name, |b| {
            b.iter(|| std::hint::black_box(bfs(&graph, 0, 2, config).visited));
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_algorithms,
    bench_ablations,
    bench_channel_batching_ablation
);
criterion_main!(benches);
