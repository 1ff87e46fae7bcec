//! Property tests on the synchronization primitives: FIFO order of the
//! FastForward queue under arbitrary operation interleavings, channel
//! order under arbitrary batch splits and segment sizes, and shared-queue
//! chunking.

use mcbfs_sync::channel::SocketChannel;
use mcbfs_sync::fastforward::FastForward;
use mcbfs_sync::workq::SharedQueue;
use proptest::prelude::*;

/// An abstract op sequence for the SPSC queue.
#[derive(Debug, Clone)]
enum Op {
    Push(u32),
    Pop,
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![any::<u32>().prop_map(Op::Push), Just(Op::Pop)],
        0..200,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn fastforward_matches_vecdeque_model(ops in arb_ops(), cap in 1usize..64) {
        // Small capacities make the producer link segments mid-sequence.
        let (mut tx, mut rx) = FastForward::with_capacity(cap);
        let mut model: std::collections::VecDeque<u32> = Default::default();
        for op in ops {
            match op {
                Op::Push(v) => {
                    tx.push(v);
                    model.push_back(v);
                }
                Op::Pop => {
                    prop_assert_eq!(rx.pop(), model.pop_front());
                }
            }
        }
        // Drain fully: remaining contents must match.
        while let Some(v) = rx.pop() {
            prop_assert_eq!(Some(v), model.pop_front());
        }
        prop_assert!(model.is_empty());
    }

    #[test]
    fn channel_preserves_order_across_batch_splits(
        items in proptest::collection::vec(any::<u64>(), 0..500),
        batch in 1usize..64,
        cap in 1usize..16,
    ) {
        let ch: SocketChannel<u64> = SocketChannel::with_capacity(cap);
        for chunk in items.chunks(batch) {
            ch.send(chunk.to_vec());
        }
        let out: Vec<u64> = std::iter::from_fn(|| ch.recv()).flatten().collect();
        prop_assert_eq!(out, items);
    }

    #[test]
    fn shared_queue_chunked_drain_is_a_partition(
        items in proptest::collection::vec(any::<u32>(), 0..300),
        chunk in 1usize..50,
    ) {
        let q: SharedQueue<u32> = SharedQueue::with_capacity(items.len().max(1));
        q.push_batch(&items);
        let mut drained = Vec::new();
        while let Some(c) = q.take_chunk(chunk) {
            prop_assert!(c.len() <= chunk);
            drained.extend_from_slice(c);
        }
        prop_assert_eq!(drained, items);
    }
}
