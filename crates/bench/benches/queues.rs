//! Microbenchmarks for the FastForward SPSC queue — the paper quotes
//! "enqueue and dequeue times as low as 20 nanoseconds" on Nehalem.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use mcbfs_sync::fastforward::FastForward;
use mcbfs_sync::workq::{LockedQueue, SharedQueue};

fn bench_fastforward(c: &mut Criterion) {
    let mut g = c.benchmark_group("fastforward");
    g.sample_size(20);
    g.throughput(Throughput::Elements(1));
    g.bench_function("push_pop_same_thread", |b| {
        let (mut tx, mut rx) = FastForward::with_capacity(1 << 10);
        b.iter(|| {
            tx.push(42u64);
            std::hint::black_box(rx.pop().unwrap());
        });
    });
    g.throughput(Throughput::Elements(1024));
    g.bench_function("pipelined_1k_elements", |b| {
        let (mut tx, mut rx) = FastForward::with_capacity(1 << 11);
        let mut out = Vec::with_capacity(1024);
        b.iter(|| {
            for i in 0..1024u64 {
                tx.push(i);
            }
            out.clear();
            rx.pop_into(&mut out, 1024);
            std::hint::black_box(out.len());
        });
    });
    g.finish();
}

fn bench_queue_designs(c: &mut Criterion) {
    // The Algorithm 1 vs Algorithm 2 frontier-queue comparison: per-op
    // locked queue vs chunk-reserved shared array.
    let mut g = c.benchmark_group("frontier_queue");
    g.sample_size(20);
    const N: usize = 4_096;
    g.throughput(Throughput::Elements(N as u64));
    g.bench_function("locked_queue_per_op", |b| {
        b.iter_batched(
            || LockedQueue::with_capacity(N),
            |q| {
                for i in 0..N as u32 {
                    q.enqueue(i);
                }
                while let Some(v) = q.dequeue() {
                    std::hint::black_box(v);
                }
            },
            BatchSize::SmallInput,
        );
    });
    g.bench_function("shared_queue_batched", |b| {
        let q: SharedQueue<u32> = SharedQueue::with_capacity(N);
        let batch: Vec<u32> = (0..256u32).collect();
        b.iter(|| {
            q.reset();
            for _ in 0..(N / 256) {
                q.push_batch(&batch);
            }
            while let Some(chunk) = q.take_chunk(64) {
                std::hint::black_box(chunk.len());
            }
        });
    });
    g.finish();
}

criterion_group!(benches, bench_fastforward, bench_queue_designs);
criterion_main!(benches);
