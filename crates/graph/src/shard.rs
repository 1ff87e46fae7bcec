//! 1D vertex-range graph shards for multi-process BFS.
//!
//! Following Buluç & Madduri's distributed BFS decomposition, a graph is
//! cut into `shards` contiguous vertex ranges with [`VertexPartition`] —
//! the same rule the multi-socket algorithm uses in-process — and each
//! shard stores the *full adjacency of its owned vertices only*. Edges
//! whose target lies in another shard's range ("cut" edges, the halo) stay
//! in the owned adjacency lists with their **global** target ids, so a
//! shard worker can bucket cross-shard discoveries by owner without any
//! lookup structure beyond the partition arithmetic.
//!
//! Because every directed edge is stored exactly once — at the shard that
//! owns its source — the shards of a graph partition its edge set:
//! `Σ local_edges(s) = m`.

use crate::csr::{CsrGraph, VertexId};
use crate::partition::VertexPartition;
use core::ops::Range;

/// One 1D vertex-range slice of a CSR graph: the adjacency lists of the
/// owned contiguous vertex range, with targets kept as global ids.
///
/// # Examples
///
/// ```
/// use mcbfs_graph::csr::CsrGraph;
/// use mcbfs_graph::shard::CsrShard;
///
/// let g = CsrGraph::from_edges_symmetric(6, &[(0, 3), (1, 2), (4, 5)]);
/// let s = CsrShard::cut(&g, 2, 0); // owns vertices 0..3
/// assert_eq!(s.owned_range(), 0..3);
/// assert_eq!(s.neighbors_global(0), &[3]); // cut edge, global target id
/// assert_eq!(s.local_edges() + CsrShard::cut(&g, 2, 1).local_edges(), 6);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CsrShard {
    n_global: usize,
    shards: usize,
    index: usize,
    /// `owned_len + 1` offsets into `targets`, starting at 0.
    offsets: Vec<u64>,
    /// Global target ids of the owned vertices' edges.
    targets: Vec<VertexId>,
}

impl CsrShard {
    /// Cuts shard `index` of `shards` out of `graph` using the balanced
    /// contiguous [`VertexPartition`] rule.
    ///
    /// # Panics
    /// Panics when `shards == 0` or `index >= shards`.
    pub fn cut(graph: &CsrGraph, shards: usize, index: usize) -> Self {
        assert!(shards > 0, "need at least one shard");
        assert!(
            index < shards,
            "shard index {index} out of range 0..{shards}"
        );
        let part = VertexPartition::new(graph.num_vertices(), shards);
        let range = part.range(index);
        let base = graph.offsets()[range.start];
        let offsets: Vec<u64> = graph.offsets()[range.start..=range.end]
            .iter()
            .map(|&o| o - base)
            .collect();
        let targets = graph.targets()[base as usize..graph.offsets()[range.end] as usize].to_vec();
        Self {
            n_global: graph.num_vertices(),
            shards,
            index,
            offsets,
            targets,
        }
    }

    /// Reassembles a shard from its serialized parts, validating
    /// consistency. Used by [`crate::io::read_shard`].
    pub fn from_raw_parts(
        n_global: usize,
        shards: usize,
        index: usize,
        offsets: Vec<u64>,
        targets: Vec<VertexId>,
    ) -> Result<Self, &'static str> {
        if shards == 0 || index >= shards {
            return Err("shard index out of range");
        }
        let part = VertexPartition::new(n_global, shards);
        if offsets.len() != part.len(index) + 1 {
            return Err("offset count does not match owned range");
        }
        if offsets.first() != Some(&0)
            || offsets.last() != Some(&(targets.len() as u64))
            || offsets.windows(2).any(|w| w[0] > w[1])
        {
            return Err("inconsistent shard offsets");
        }
        if targets.iter().any(|&t| t as usize >= n_global) {
            return Err("shard target out of global range");
        }
        Ok(Self {
            n_global,
            shards,
            index,
            offsets,
            targets,
        })
    }

    /// Total vertices in the *global* graph.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.n_global
    }

    /// Number of shards the graph was cut into.
    #[inline]
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// This shard's index in `0..shards`.
    #[inline]
    pub fn index(&self) -> usize {
        self.index
    }

    /// The partition used for the cut (owner arithmetic for any vertex).
    #[inline]
    pub fn partition(&self) -> VertexPartition {
        VertexPartition::new(self.n_global, self.shards)
    }

    /// The global vertex range this shard owns.
    #[inline]
    pub fn owned_range(&self) -> Range<usize> {
        self.partition().range(self.index)
    }

    /// Number of owned vertices.
    #[inline]
    pub fn owned_len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Edges stored in this shard (all edges of the owned vertices).
    #[inline]
    pub fn local_edges(&self) -> usize {
        self.targets.len()
    }

    /// Edges whose target is owned by a *different* shard (the halo that
    /// per-level exchange must carry).
    pub fn cut_edges(&self) -> usize {
        let part = self.partition();
        self.targets
            .iter()
            .filter(|&&t| part.socket_of(t) != self.index)
            .count()
    }

    /// Neighbors (global ids) of the owned vertex at local index `local`.
    #[inline]
    pub fn neighbors_global(&self, local: usize) -> &[VertexId] {
        let lo = self.offsets[local] as usize;
        let hi = self.offsets[local + 1] as usize;
        &self.targets[lo..hi]
    }

    /// Owner shard of any global vertex id.
    #[inline]
    pub fn owner_of(&self, v: VertexId) -> usize {
        self.partition().socket_of(v)
    }

    /// Raw offset array (`owned_len + 1` entries, first 0).
    #[inline]
    pub fn offsets(&self) -> &[u64] {
        &self.offsets
    }

    /// Raw global-id target array.
    #[inline]
    pub fn targets(&self) -> &[VertexId] {
        &self.targets
    }
}

/// The conventional file name for shard `index` of `shards` cut from a
/// graph saved at `path`: `graph.csr` → `graph.shard0of4.csr` (a `.csr`
/// suffix is replaced; any other name is used as a stem verbatim).
pub fn shard_file_name(path: &str, index: usize, shards: usize) -> String {
    let stem = path.strip_suffix(".csr").unwrap_or(path);
    format!("{stem}.shard{index}of{shards}.csr")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring(n: usize) -> CsrGraph {
        let edges: Vec<_> = (0..n as u32).map(|v| (v, (v + 1) % n as u32)).collect();
        CsrGraph::from_edges_symmetric(n, &edges)
    }

    #[test]
    fn shards_partition_the_edge_set() {
        let g = ring(23);
        for shards in [1, 2, 4, 7] {
            let cut: Vec<_> = (0..shards).map(|i| CsrShard::cut(&g, shards, i)).collect();
            let owned: usize = cut.iter().map(|s| s.owned_len()).sum();
            let edges: usize = cut.iter().map(|s| s.local_edges()).sum();
            assert_eq!(owned, g.num_vertices());
            assert_eq!(edges, g.num_edges());
            // Adjacency preserved: every owned vertex sees its global
            // neighbor list unchanged.
            for s in &cut {
                let range = s.owned_range();
                for (local, v) in range.enumerate() {
                    assert_eq!(s.neighbors_global(local), g.neighbors(v as u32));
                }
            }
        }
    }

    #[test]
    fn cut_edges_counts_cross_shard_targets() {
        // Ring of 8 over 4 shards of 2: every vertex has one neighbor in
        // its own shard... actually in a ring 0-1-2-...-7-0 with blocks
        // {0,1},{2,3},.. vertex 0's neighbors are 1 (local) and 7 (cut).
        let g = ring(8);
        let s = CsrShard::cut(&g, 4, 0);
        assert_eq!(s.local_edges(), 4);
        assert_eq!(s.cut_edges(), 2);
        let single = CsrShard::cut(&g, 1, 0);
        assert_eq!(single.cut_edges(), 0);
    }

    #[test]
    fn from_raw_parts_validates() {
        let g = ring(6);
        let s = CsrShard::cut(&g, 2, 1);
        let ok = CsrShard::from_raw_parts(
            s.num_vertices(),
            s.shards(),
            s.index(),
            s.offsets().to_vec(),
            s.targets().to_vec(),
        )
        .unwrap();
        assert_eq!(ok, s);
        assert!(CsrShard::from_raw_parts(6, 2, 2, vec![0], vec![]).is_err());
        assert!(CsrShard::from_raw_parts(6, 2, 1, vec![0, 1], vec![9]).is_err());
        assert!(CsrShard::from_raw_parts(6, 2, 1, vec![1, 1, 1, 1], vec![0]).is_err());
    }

    #[test]
    fn shard_file_names() {
        assert_eq!(shard_file_name("g.csr", 0, 4), "g.shard0of4.csr");
        assert_eq!(shard_file_name("/tmp/x.csr", 3, 4), "/tmp/x.shard3of4.csr");
        assert_eq!(shard_file_name("plain", 1, 2), "plain.shard1of2.csr");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn cut_rejects_bad_index() {
        let g = ring(4);
        let _ = CsrShard::cut(&g, 2, 2);
    }
}
