//! What one shard-exchange frame costs on a link: encode, write, read and
//! decode of a binary `merged` frame of 2,000 and of 16,000 items (the
//! filtered items of a 1-wide and of a 16-wide `cluster-point` wave) over
//! a loopback TCP pair. A second thread cuts each frame with
//! `swire::FrameReader`, decodes it and answers one byte, so an iteration
//! is one frame each way plus a one-byte ack. The difference between the
//! two sizes, over their difference in bytes, is the per-byte term
//! `CostParams::link_byte_ns` prices; the per-frame remainder is the round
//! trip `link_frame_ns` stands for.
//!
//! Run with `cargo bench -p mcbfs-bench --bench swire_codec`.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use mcbfs_shard::swire::{self, FrameReader};
use mcbfs_shard::{ExchangeItem, ShardFrame};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::io::{BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};

/// A `merged` frame of `n` items over a 2,048-vertex graph, one or two
/// slot bits each.
fn merged(n: usize) -> ShardFrame {
    let mut rng = SmallRng::seed_from_u64(n as u64);
    ShardFrame::Merged {
        wave: 0,
        level: 1,
        items: (0..n)
            .map(|_| ExchangeItem {
                v: rng.gen_range(0..2048u32),
                u: rng.gen_range(0..2048u32),
                mask: 1 << rng.gen_range(0..2u32),
            })
            .collect(),
    }
}

fn bench_swire_codec(c: &mut Criterion) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let mut sender = TcpStream::connect(listener.local_addr().expect("address")).expect("connect");
    let (receiver, _) = listener.accept().expect("accept");
    sender.set_nodelay(true).expect("nodelay");
    receiver.set_nodelay(true).expect("nodelay");
    let mut ack = receiver.try_clone().expect("clone receiver");
    let echo = std::thread::spawn(move || {
        let mut frames = FrameReader::new(BufReader::new(receiver));
        while let Ok(Some(bytes)) = frames.next_frame() {
            let frame = swire::decode(&bytes).expect("frame decodes");
            black_box(&frame);
            if ack.write_all(&[1]).is_err() {
                break;
            }
        }
    });
    let mut g = c.benchmark_group("swire_codec");
    g.sample_size(10);
    for n in [2_000, 16_000] {
        let frame = merged(n);
        let bytes = swire::encode(&frame).len() as u64;
        g.throughput(Throughput::Bytes(bytes));
        g.bench_function(format!("merged_{n}_items/{bytes}_bytes"), |b| {
            b.iter(|| {
                sender
                    .write_all(&swire::encode(&frame))
                    .expect("write frame");
                let mut one = [0u8];
                sender.read_exact(&mut one).expect("read ack");
            })
        });
    }
    g.finish();
    sender
        .shutdown(std::net::Shutdown::Both)
        .expect("close sender");
    echo.join().expect("echo thread");
}

criterion_group!(benches, bench_swire_codec);
criterion_main!(benches);
