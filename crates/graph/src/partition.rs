//! Per-socket vertex partitioning (Algorithm 3, line 2).
//!
//! The multi-socket algorithm "partitions the graph, allocating `n/sockets`
//! nodes to each socket", such that a vertex's parent slot, bitmap bit and
//! queue entries all live on the socket that owns it. [`VertexPartition`]
//! captures the contiguous-range rule and the `DetermineSocket(v)` mapping;
//! everything downstream (per-socket queues, bitmap shards, the channel
//! mesh) indexes through it.

use crate::csr::VertexId;
use serde::{Deserialize, Serialize};

/// A partition of the vertex range `0..n` into `sockets` contiguous blocks,
/// the first `n % sockets` blocks one vertex larger so the partition is
/// balanced for any `n` (the paper assumes `n` divisible by the socket
/// count; we relax that).
///
/// # Examples
///
/// ```
/// use mcbfs_graph::partition::VertexPartition;
///
/// let p = VertexPartition::new(10, 4); // blocks of 3,3,2,2
/// assert_eq!(p.socket_of(0), 0);
/// assert_eq!(p.socket_of(5), 1);
/// assert_eq!(p.socket_of(9), 3);
/// assert_eq!(p.range(1), 3..6);
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct VertexPartition {
    n: usize,
    sockets: usize,
    /// Size of the larger (first) blocks.
    big: usize,
    /// Number of blocks of size `big`; the rest have size `big - 1`
    /// (or equal sizes when `n % sockets == 0`).
    num_big: usize,
}

impl VertexPartition {
    /// Partitions `n` vertices over `sockets` blocks.
    ///
    /// # Panics
    /// Panics when `sockets == 0`.
    pub fn new(n: usize, sockets: usize) -> Self {
        assert!(sockets > 0, "need at least one socket");
        let base = n / sockets;
        let rem = n % sockets;
        let (big, num_big) = if rem == 0 {
            (base, sockets)
        } else {
            (base + 1, rem)
        };
        Self {
            n,
            sockets,
            big,
            num_big,
        }
    }

    /// Total number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// Number of sockets (blocks).
    #[inline]
    pub fn sockets(&self) -> usize {
        self.sockets
    }

    /// `DetermineSocket(v)`: the socket owning vertex `v`.
    #[inline]
    pub fn socket_of(&self, v: VertexId) -> usize {
        let v = v as usize;
        debug_assert!(v < self.n, "vertex {v} out of range 0..{}", self.n);
        let boundary = self.big * self.num_big;
        if v < boundary {
            v / self.big.max(1)
        } else {
            self.num_big + (v - boundary) / (self.big - 1).max(1)
        }
    }

    /// The vertex range owned by `socket`.
    #[inline]
    pub fn range(&self, socket: usize) -> core::ops::Range<usize> {
        debug_assert!(socket < self.sockets);
        let start = if socket <= self.num_big {
            socket * self.big
        } else {
            self.num_big * self.big + (socket - self.num_big) * (self.big - 1)
        };
        let len = if socket < self.num_big {
            self.big
        } else {
            self.big.saturating_sub(1)
        };
        start..(start + len).min(self.n)
    }

    /// Number of vertices owned by `socket`.
    #[inline]
    pub fn len(&self, socket: usize) -> usize {
        self.range(socket).len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn even_partition() {
        let p = VertexPartition::new(16, 4);
        for s in 0..4 {
            assert_eq!(p.range(s), (s * 4)..(s * 4 + 4));
            assert_eq!(p.len(s), 4);
        }
        assert_eq!(p.socket_of(0), 0);
        assert_eq!(p.socket_of(15), 3);
    }

    #[test]
    fn uneven_partition_is_balanced() {
        let p = VertexPartition::new(10, 3); // 4, 3, 3
        assert_eq!(p.range(0), 0..4);
        assert_eq!(p.range(1), 4..7);
        assert_eq!(p.range(2), 7..10);
        let sizes: Vec<_> = (0..3).map(|s| p.len(s)).collect();
        assert!(sizes.iter().max().unwrap() - sizes.iter().min().unwrap() <= 1);
    }

    #[test]
    fn single_socket_owns_everything() {
        let p = VertexPartition::new(7, 1);
        assert_eq!(p.range(0), 0..7);
        assert!((0..7).all(|v| p.socket_of(v as VertexId) == 0));
    }

    #[test]
    fn more_sockets_than_vertices() {
        let p = VertexPartition::new(2, 4); // 1, 1, 0, 0
        assert_eq!(p.len(0), 1);
        assert_eq!(p.len(1), 1);
        assert_eq!(p.len(2), 0);
        assert_eq!(p.len(3), 0);
        assert_eq!(p.socket_of(0), 0);
        assert_eq!(p.socket_of(1), 1);
    }

    #[test]
    fn zero_vertices() {
        let p = VertexPartition::new(0, 2);
        assert_eq!(p.len(0), 0);
        assert_eq!(p.len(1), 0);
    }

    #[test]
    #[should_panic(expected = "at least one socket")]
    fn zero_sockets_panics() {
        VertexPartition::new(4, 0);
    }

    #[test]
    fn socket_of_matches_ranges_exhaustively() {
        for n in 0..40 {
            for sockets in 1..8 {
                let p = VertexPartition::new(n, sockets);
                // Ranges tile 0..n.
                let mut cursor = 0;
                for s in 0..sockets {
                    let r = p.range(s);
                    assert_eq!(r.start, cursor, "n={n} sockets={sockets} s={s}");
                    cursor = r.end;
                    for v in r.clone() {
                        assert_eq!(
                            p.socket_of(v as VertexId),
                            s,
                            "n={n} sockets={sockets} v={v}"
                        );
                    }
                }
                assert_eq!(cursor, n);
            }
        }
    }
}
