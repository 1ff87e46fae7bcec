//! Wall-clock comparison of the BFS algorithm family on this host — the
//! native companion to the model-driven Fig. 5.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use mcbfs_core::algo::hybrid::{bfs_hybrid, HybridOpts};
use mcbfs_core::algo::multi_socket::{bfs_multi_socket, MultiSocketOpts};
use mcbfs_core::algo::sequential::bfs_sequential;
use mcbfs_core::algo::simple::bfs_simple;
use mcbfs_core::algo::single_socket::{bfs_single_socket, SingleSocketOpts};
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
    g.bench_function("alg1_simple_x2", |b| {
        b.iter(|| std::hint::black_box(bfs_simple(&graph, 0, 2).visited));
    });
    g.bench_function("alg2_single_socket_x2", |b| {
        b.iter(|| {
            std::hint::black_box(
                bfs_single_socket(&graph, 0, 2, SingleSocketOpts::default()).visited,
            )
        });
    });
    g.bench_function("alg3_multi_socket_2s_x2", |b| {
        b.iter(|| {
            std::hint::black_box(
                bfs_multi_socket(&graph, 0, 2, MultiSocketOpts::with_sockets(2)).visited,
            )
        });
    });
    g.bench_function("hybrid_dirop_x2", |b| {
        b.iter(|| std::hint::black_box(bfs_hybrid(&graph, 0, 2, HybridOpts::default()).visited));
    });
    g.finish();
}

fn bench_ablations(c: &mut Criterion) {
    // Design-choice ablations the DESIGN.md calls out: bitmap and
    // test-then-set (native wall clock).
    let graph = workload();
    let edges = graph.num_edges() as u64;
    let mut g = c.benchmark_group("bfs_ablations");
    g.sample_size(10);
    g.throughput(Throughput::Elements(edges));
    for (name, opts) in [
        (
            "bitmap+tts",
            SingleSocketOpts {
                use_bitmap: true,
                test_then_set: true,
                software_pipeline: false,
            },
        ),
        (
            "bitmap_only",
            SingleSocketOpts {
                use_bitmap: true,
                test_then_set: false,
                software_pipeline: false,
            },
        ),
        (
            "no_bitmap+tts",
            SingleSocketOpts {
                use_bitmap: false,
                test_then_set: true,
                software_pipeline: false,
            },
        ),
        (
            "neither",
            SingleSocketOpts {
                use_bitmap: false,
                test_then_set: false,
                software_pipeline: false,
            },
        ),
    ] {
        g.bench_function(name, |b| {
            b.iter(|| std::hint::black_box(bfs_single_socket(&graph, 0, 2, opts).visited));
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
        let opts = MultiSocketOpts {
            sockets: 2,
            batch,
            ..Default::default()
        };
        g.bench_function(name, |b| {
            b.iter(|| std::hint::black_box(bfs_multi_socket(&graph, 0, 2, opts).visited));
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
