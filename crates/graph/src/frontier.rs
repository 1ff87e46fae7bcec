//! Frontier conversions for direction-optimizing BFS.
//!
//! The paper's Algorithms 1–3 keep the frontier *sparse*: a chunked
//! [`SharedQueue`] of vertex ids, ideal when the frontier is a small
//! fraction of the graph. A bottom-up sweep instead asks "is any of my
//! neighbours *in* the frontier?", which needs O(1) membership — a *dense*
//! [`AtomicBitmap`] level-set, 1 bit per vertex. The hybrid BFS keeps both
//! and converts between them with [`densify_chunk`] and [`sparsify_chunk`].
//! Each converts the share of thread `tid` of `threads`, so a thread team
//! converts a whole frontier in parallel between two of its level barriers.

use crate::bitmap::AtomicBitmap;
use crate::csr::VertexId;
use mcbfs_sync::workq::SharedQueue;

/// Copies thread `tid`'s contiguous share of the sparse frontier `queue`
/// into `dense`. Uses atomic `fetch_or` stores because two threads' shares
/// may land in the same bitmap word; a barrier afterwards publishes the
/// bits.
///
/// Returns the number of vertices this thread converted.
pub fn densify_chunk(
    queue: &SharedQueue<VertexId>,
    dense: &AtomicBitmap,
    tid: usize,
    threads: usize,
) -> usize {
    let slice = queue.as_slice();
    let share = chunk_of(slice.len(), tid, threads);
    for &v in &slice[share.clone()] {
        dense.set_atomic(v as usize);
    }
    share.len()
}

/// Appends the set bits in thread `tid`'s contiguous share of the dense
/// frontier's *words* to `queue`, in ascending order, with one batched
/// reservation. Word-granular partitioning keeps shares disjoint.
///
/// Returns the number of vertices this thread converted.
pub fn sparsify_chunk(
    dense: &AtomicBitmap,
    queue: &SharedQueue<VertexId>,
    tid: usize,
    threads: usize,
) -> usize {
    let words = chunk_of(dense.num_words(), tid, threads);
    let out: Vec<VertexId> = dense.iter_set_bits(words).map(|b| b as VertexId).collect();
    queue.push_batch(&out);
    out.len()
}

/// Contiguous share of `len` items assigned to `tid` of `threads`, with the
/// remainder spread over the leading threads. Shares partition `0..len`
/// exactly; also used by the bottom-up sweep to partition bitmap words.
pub fn chunk_of(len: usize, tid: usize, threads: usize) -> core::ops::Range<usize> {
    let threads = threads.max(1);
    let per = len / threads;
    let extra = len % threads;
    let start = tid * per + tid.min(extra);
    let end = start + per + usize::from(tid < extra);
    start.min(len)..end.min(len)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_of_covers_exactly_once() {
        for len in [0usize, 1, 7, 64, 100, 1000] {
            for threads in [1usize, 2, 3, 7, 16] {
                let mut covered = vec![0u32; len];
                for tid in 0..threads {
                    for i in chunk_of(len, tid, threads) {
                        covered[i] += 1;
                    }
                }
                assert!(
                    covered.iter().all(|&c| c == 1),
                    "len {len} threads {threads}"
                );
            }
        }
    }

    #[test]
    fn cooperative_conversions_round_trip() {
        let n = 513; // non-multiple of 64 exercises the partial word
        let empty = Vec::new();
        let every_third: Vec<VertexId> = (0..n as VertexId).filter(|v| v % 3 == 1).collect();
        for members in [empty, every_third] {
            for threads in [1, 2, 4] {
                let queue = SharedQueue::with_capacity(n);
                queue.push_batch(&members);
                let dense = AtomicBitmap::new(n);
                let converted: usize = (0..threads)
                    .map(|tid| densify_chunk(&queue, &dense, tid, threads))
                    .sum();
                assert_eq!(converted, members.len());
                assert_eq!(dense.count_ones(), members.len());
                let back = SharedQueue::with_capacity(n);
                let converted: usize = (0..threads)
                    .map(|tid| sparsify_chunk(&dense, &back, tid, threads))
                    .sum();
                assert_eq!(converted, members.len());
                // Shares converted in tid order come back sorted.
                assert_eq!(back.as_slice(), &members[..]);
            }
        }
    }
}
