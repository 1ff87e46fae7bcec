//! Property test: every swire frame kind survives the wire.
//!
//! Every BFS level on every shard ships an `exchange` and a `merged`
//! frame, and a frame's encoded length doubles as the cost-model input,
//! so `decode(encode(f)) == f` must hold for arbitrary bucket shapes, slot
//! masks, level stamps and result rows, and every encoding must obey the
//! framing law: its `u32` little-endian prefix equals the length of the
//! payload that follows.

use mcbfs_serve::ServerStats;
use mcbfs_shard::swire::{decode, encode, Bucket, ExchangeItem, ShardFrame, ShardMeta};
use proptest::prelude::*;

fn arb_item() -> impl Strategy<Value = ExchangeItem> {
    (any::<u32>(), any::<u32>(), any::<u64>()).prop_map(|(v, u, mask)| ExchangeItem { v, u, mask })
}

fn arb_bucket() -> impl Strategy<Value = Bucket> {
    (0u64..16, proptest::collection::vec(arb_item(), 0..24))
        .prop_map(|(dst, items)| Bucket { dst, items })
}

/// `slots` rows of `len` vertex ids each.
fn arb_rows(slots: usize, len: usize) -> impl Strategy<Value = Vec<Vec<u32>>> {
    proptest::collection::vec(proptest::collection::vec(any::<u32>(), len), slots)
}

fn arb_wave_result() -> impl Strategy<Value = ShardFrame> {
    (1usize..9, 0usize..40, any::<bool>()).prop_flat_map(|(slots, len, with_parents)| {
        (
            any::<u64>(),
            arb_rows(slots, len),
            arb_rows(slots, len),
            proptest::collection::vec(any::<u64>(), slots),
            0u64..64,
        )
            .prop_map(move |(wave, depths, parents, slot_edges, levels)| {
                ShardFrame::WaveResult {
                    wave,
                    depths,
                    parents: with_parents.then_some(parents),
                    slot_edges,
                    levels,
                }
            })
    })
}

fn arb_control() -> impl Strategy<Value = ShardFrame> {
    let meta = proptest::collection::vec(any::<u64>(), 7).prop_map(|f| {
        ShardFrame::Meta(ShardMeta {
            n: f[0],
            shards: f[1],
            index: f[2],
            owned_start: f[3],
            owned_end: f[4],
            local_edges: f[5],
            cut_edges: f[6],
        })
    });
    let stats = (any::<u64>(), any::<u64>(), any::<u32>(), any::<u64>()).prop_map(
        |(vertices, edges, uptime_ms, connections)| ShardFrame::StatsReply {
            stats: ServerStats {
                vertices,
                edges,
                uptime_seconds: f64::from(uptime_ms) / 1e3,
                connections,
                ..ServerStats::default()
            },
        },
    );
    let wave_start = (
        any::<u64>(),
        proptest::collection::vec(any::<u32>(), 0..65),
        any::<bool>(),
    )
        .prop_map(|(wave, sources, record_parents)| ShardFrame::WaveStart {
            wave,
            sources,
            record_parents,
        });
    prop_oneof![
        Just(ShardFrame::Hello),
        Just(ShardFrame::Stats),
        meta,
        stats,
        wave_start,
        any::<u64>().prop_map(|wave| ShardFrame::WaveFinish { wave }),
    ]
}

/// The framing law and the round trip.
fn check(frame: ShardFrame) -> Result<(), TestCaseError> {
    let bytes = encode(&frame);
    prop_assert!(bytes.len() >= 6, "{} bytes", bytes.len());
    let prefix = u32::from_le_bytes(bytes[..4].try_into().unwrap()) as usize;
    prop_assert_eq!(prefix, bytes.len() - 4);
    prop_assert_eq!(decode(&bytes).expect("well-formed frame decodes"), frame);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn exchange_frames_round_trip(
        wave in any::<u64>(),
        level in 0u64..1_000,
        buckets in proptest::collection::vec(arb_bucket(), 0..8),
        local_next in any::<bool>(),
        edges_scanned in any::<u64>(),
    ) {
        check(ShardFrame::Exchange { wave, level, buckets, local_next, edges_scanned })?;
    }

    #[test]
    fn merged_frames_round_trip(
        wave in any::<u64>(),
        level in 0u64..1_000,
        items in proptest::collection::vec(arb_item(), 0..64),
    ) {
        check(ShardFrame::Merged { wave, level, items })?;
    }

    #[test]
    fn wave_result_frames_round_trip(frame in arb_wave_result()) {
        check(frame)?;
    }

    #[test]
    fn control_and_wave_start_frames_round_trip(frame in arb_control()) {
        check(frame)?;
    }
}
