//! Ticket lock vs parking_lot mutex vs std mutex: the cost of the channel
//! endpoints' guard.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use mcbfs_sync::ticket::TicketLock;

fn bench_uncontended(c: &mut Criterion) {
    let mut g = c.benchmark_group("lock_uncontended");
    g.sample_size(20);
    g.throughput(Throughput::Elements(1));
    let ticket = TicketLock::new(0u64);
    g.bench_function("ticket_lock", |b| {
        b.iter(|| {
            *ticket.lock() += 1;
        });
    });
    let pl = parking_lot::Mutex::new(0u64);
    g.bench_function("parking_lot_mutex", |b| {
        b.iter(|| {
            *pl.lock() += 1;
        });
    });
    let sm = std::sync::Mutex::new(0u64);
    g.bench_function("std_mutex", |b| {
        b.iter(|| {
            *sm.lock().unwrap() += 1;
        });
    });
    g.finish();
}

fn bench_contended(c: &mut Criterion) {
    // 4 threads hammering the same lock: fairness and hand-off cost.
    let mut g = c.benchmark_group("lock_contended_4_threads");
    g.sample_size(10);
    const OPS: u64 = 20_000;
    g.throughput(Throughput::Elements(4 * OPS));
    g.bench_function("ticket_lock", |b| {
        b.iter(|| {
            let lock = TicketLock::new(0u64);
            std::thread::scope(|s| {
                for _ in 0..4 {
                    s.spawn(|| {
                        for _ in 0..OPS {
                            *lock.lock() += 1;
                        }
                    });
                }
            });
            assert_eq!(*lock.lock(), 4 * OPS);
        });
    });
    g.bench_function("parking_lot_mutex", |b| {
        b.iter(|| {
            let lock = parking_lot::Mutex::new(0u64);
            std::thread::scope(|s| {
                for _ in 0..4 {
                    s.spawn(|| {
                        for _ in 0..OPS {
                            *lock.lock() += 1;
                        }
                    });
                }
            });
            assert_eq!(*lock.lock(), 4 * OPS);
        });
    });
    g.finish();
}

criterion_group!(benches, bench_uncontended, bench_contended);
criterion_main!(benches);
