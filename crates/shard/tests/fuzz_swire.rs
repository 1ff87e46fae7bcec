//! Seeded byte-mutation fuzz of the swire decoder and frame reader.
//!
//! Valid encodings of every frame kind are mutated (flipped bytes,
//! truncation, extension, and a `u32::MAX` or random `u32` written over
//! every 4-byte window, which covers the length prefix and every list
//! count). For each mutant, [`decode`] and [`FrameReader`] must return an
//! error or a valid frame, never panic, and never make an allocation the
//! mutant's own bytes do not back: a counting allocator records the
//! largest single allocation each mutant causes on this thread.

use mcbfs_query::{Slot, SlotAnswer};
use mcbfs_serve::ServerStats;
use mcbfs_shard::swire::{
    decode, encode, Bucket, ExchangeItem, FrameReader, ShardFrame, ShardMeta,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, recording the largest request per thread and
/// refusing any above [`REFUSE`]: a decoder that sized a buffer from a
/// forged count then aborts the test instead of taking the memory.
struct Counting;

/// 64 MiB, far above anything a mutant of these few-hundred-byte frames
/// backs.
const REFUSE: usize = 64 << 20;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

/// Records a request of `size` bytes; false when it must be refused.
fn note(size: usize) -> bool {
    // `try_with`: the slot is gone while the thread tears down.
    let _ = LARGEST.try_with(|l| l.set(l.get().max(size)));
    size <= REFUSE
}

// SAFETY: every granted call forwards to `System` unchanged, and a refused
// one returns null, which `GlobalAlloc` allows; the bookkeeping touches
// only a const-initialised thread-local `Cell`, which allocates nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if !note(layout.size()) {
            return std::ptr::null_mut();
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if !note(layout.size()) {
            return std::ptr::null_mut();
        }
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if !note(new_size) {
            return std::ptr::null_mut();
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// SplitMix64: a seeded, dependency-free byte source.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

/// One valid frame of every kind: a `wave_start` of every slot kind, and
/// `wave_result`s of map slots with and without parents and of point
/// slots from the target's owner and from another shard.
fn samples() -> Vec<ShardFrame> {
    let item = |v, u, mask| ExchangeItem { v, u, mask };
    vec![
        ShardFrame::Hello,
        ShardFrame::Meta(ShardMeta {
            n: 2048,
            shards: 2,
            index: 1,
            owned_start: 1024,
            owned_end: 2048,
            local_edges: 30_000,
            cut_edges: 15_000,
        }),
        ShardFrame::WaveStart {
            wave: 9,
            slots: vec![
                Slot::Map {
                    source: 0,
                    parents: true,
                },
                Slot::Map {
                    source: 17,
                    parents: false,
                },
                Slot::Point {
                    source: 1023,
                    target: 2047,
                },
            ],
        },
        ShardFrame::Exchange {
            wave: 9,
            level: 2,
            buckets: vec![
                Bucket {
                    dst: 0,
                    items: vec![item(3, 1500, 1), item(4, 1501, 0b110)],
                },
                Bucket {
                    dst: 2,
                    items: vec![item(1999, 1502, u64::MAX)],
                },
            ],
            local_next: true,
            edges_scanned: 812,
        },
        ShardFrame::Merged {
            wave: 9,
            level: 2,
            items: vec![item(1030, 3, 1), item(1031, 4, 2), item(1032, 5, 4)],
        },
        ShardFrame::WaveFinish { wave: 9 },
        ShardFrame::WaveResult {
            wave: 9,
            answers: vec![
                answer(&[1, 2, 0, 1], None, Some(vec![0, 1, u32::MAX, 2])),
                SlotAnswer {
                    parents: Some(vec![1, 2, 3, 3]),
                    ..answer(&[0, 1, 1, 1, 1], None, Some(vec![3, 2, 1, 0]))
                },
            ],
        },
        ShardFrame::WaveResult {
            wave: 10,
            answers: vec![
                answer(&[1, 3, 9, 2], Some(2), None),
                answer(&[0, 4, 7], None, None),
            ],
        },
        ShardFrame::Stats,
        ShardFrame::StatsReply {
            stats: ServerStats {
                vertices: 1024,
                edges: 30_000,
                uptime_seconds: 12.5,
                connections: 1,
                ..ServerStats::default()
            },
        },
    ]
}

/// A slot's answer: its histogram, an edge count, and what it carries.
fn answer(histogram: &[u64], target_depth: Option<u32>, depths: Option<Vec<u32>>) -> SlotAnswer {
    SlotAnswer {
        depth_histogram: histogram.to_vec(),
        edges: 40,
        target_depth,
        depths,
        parents: None,
    }
}

/// Every mutant of `valid` this fuzz tries.
fn mutants(valid: &[u8], rng: &mut Rng) -> Vec<Vec<u8>> {
    let mut out = Vec::new();
    // A u32::MAX or random count over every 4-byte window.
    for at in 0..valid.len().saturating_sub(3) {
        for value in [
            u32::MAX,
            rng.next() as u32,
            (valid.len() + rng.below(64)) as u32,
        ] {
            let mut m = valid.to_vec();
            m[at..at + 4].copy_from_slice(&value.to_le_bytes());
            out.push(m);
        }
    }
    // Every truncation.
    out.extend((0..valid.len()).map(|end| valid[..end].to_vec()));
    for _ in 0..200 {
        // Flipped bytes.
        let mut m = valid.to_vec();
        for _ in 0..1 + rng.below(4) {
            let at = rng.below(m.len());
            m[at] ^= 1 << rng.below(8);
        }
        out.push(m);
        // Extension by random bytes, with or without a matching prefix.
        let mut m = valid.to_vec();
        m.extend((0..1 + rng.below(32)).map(|_| rng.next() as u8));
        if rng.below(2) == 0 {
            let len = (m.len() - 4) as u32;
            m[..4].copy_from_slice(&len.to_le_bytes());
        }
        out.push(m);
    }
    out
}

/// Whatever `bytes` decodes to must be a valid frame: one that survives
/// its own round trip.
fn check_decoded(bytes: &[u8]) {
    if let Ok(frame) = decode(bytes) {
        assert_eq!(decode(&encode(&frame)).as_ref(), Ok(&frame), "{bytes:?}");
    }
}

#[test]
fn mutated_frames_fail_structured_and_allocate_only_what_arrived() {
    let mut rng = Rng(0x5EED_2026);
    let mut tried = 0usize;
    for frame in samples() {
        let valid = encode(&frame);
        assert_eq!(decode(&valid).as_ref(), Ok(&frame));
        for mutant in mutants(&valid, &mut rng) {
            LARGEST.with(|l| l.set(0));
            check_decoded(&mutant);
            let mut reader = FrameReader::new(&mutant[..]);
            while let Ok(Some(bytes)) = reader.next_frame() {
                check_decoded(&bytes);
            }
            let largest = LARGEST.with(Cell::get);
            // Growth by doubling, plus error strings and small JSON trees.
            let backed = 4 * mutant.len() + 4096;
            assert!(
                largest <= backed,
                "a {}-byte mutant of {frame:?} allocated {largest} bytes at once",
                mutant.len()
            );
            tried += 1;
        }
    }
    assert!(tried > 5_000, "only {tried} mutants");
}
