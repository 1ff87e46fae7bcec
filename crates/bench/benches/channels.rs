//! Socket-channel costs: batched vs unbatched sends — the paper's key
//! amortization ("the normalized cost per vertex insertion is only 30 ns").

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use mcbfs_sync::channel::SocketChannel;

/// Sends every element of `items` in `batch`-sized batches.
fn send_all<T: Copy>(ch: &SocketChannel<T>, items: &[T], batch: usize) {
    for chunk in items.chunks(batch) {
        ch.send(chunk.to_vec());
    }
}

fn bench_send_paths(c: &mut Criterion) {
    const ITEMS: usize = 8_192;
    let items: Vec<(u32, u32)> = (0..ITEMS as u32).map(|i| (i, i + 1)).collect();
    let mut g = c.benchmark_group("socket_channel");
    g.sample_size(15);
    g.throughput(Throughput::Elements(ITEMS as u64));

    for (name, batch) in [("batched_send_recv_256", 256), ("unbatched_send_recv", 1)] {
        g.bench_function(name, |b| {
            let ch: SocketChannel<(u32, u32)> = SocketChannel::with_capacity(1 << 14);
            b.iter(|| {
                send_all(&ch, &items, batch);
                while let Some(hops) = ch.recv() {
                    std::hint::black_box(hops);
                }
            });
        });
    }
    g.finish();
}

fn bench_cross_thread(c: &mut Criterion) {
    // Producer and consumer on separate threads: the real two-phase flow.
    const ITEMS: usize = 100_000;
    let items: Vec<u64> = (0..ITEMS as u64).collect();
    let mut g = c.benchmark_group("socket_channel_cross_thread");
    g.sample_size(10);
    g.throughput(Throughput::Elements(ITEMS as u64));
    g.bench_function("pipelined_producer_consumer", |b| {
        b.iter(|| {
            let ch: SocketChannel<u64> = SocketChannel::with_capacity(1 << 12);
            std::thread::scope(|s| {
                s.spawn(|| send_all(&ch, &items, 256));
                s.spawn(|| {
                    let mut drained = 0;
                    while drained < ITEMS {
                        if let Some(batch) = ch.recv() {
                            drained += batch.len();
                        }
                    }
                });
            });
        });
    });
    g.finish();
}

criterion_group!(benches, bench_send_paths, bench_cross_thread);
criterion_main!(benches);
