//! Compressed sparse row graph representation.
//!
//! A [`CsrGraph`] stores all adjacency lists back to back in one `targets`
//! array, indexed by an `offsets` array of length `n + 1`. Vertex ids are
//! 32-bit ([`VertexId`]), which matches the paper's graph scales (up to
//! 200 M vertices) and halves per-edge memory traffic relative to 64-bit
//! ids — the traversal is memory-bound, so this is a first-order effect.

use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// Vertex identifier. 32 bits cover every graph in the paper's evaluation
/// (largest: 200 M vertices) while halving random-access traffic vs. u64.
pub type VertexId = u32;

/// Sentinel parent value for vertices not (yet) reached by a BFS.
pub const UNVISITED: VertexId = VertexId::MAX;

/// An immutable directed graph in compressed sparse row form.
///
/// Build one from an edge list with [`CsrGraph::from_edges`] (directed) or
/// [`CsrGraph::from_edges_symmetric`] (each input edge inserted in both
/// directions, the form used by all of the paper's benchmark graphs).
///
/// # Examples
///
/// ```
/// use mcbfs_graph::csr::CsrGraph;
///
/// // A 4-cycle.
/// let g = CsrGraph::from_edges_symmetric(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
/// assert_eq!(g.num_vertices(), 4);
/// assert_eq!(g.num_edges(), 8); // both directions
/// assert_eq!(g.neighbors(0), &[1, 3]);
/// assert_eq!(g.degree(2), 2);
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct CsrGraph {
    /// `offsets[v]..offsets[v + 1]` indexes `targets` with v's adjacency.
    offsets: Vec<u64>,
    /// Concatenated adjacency lists, each sorted ascending.
    targets: Vec<VertexId>,
}

impl CsrGraph {
    /// Builds a directed CSR graph with `n` vertices from an edge list.
    ///
    /// Edges referencing vertices `>= n` are rejected with a panic (they
    /// indicate a generator bug). Duplicate edges and self-loops are kept —
    /// the paper's generators can emit both and BFS must tolerate them.
    pub fn from_edges(n: usize, edges: &[(VertexId, VertexId)]) -> Self {
        assert!(
            (n as u64) < UNVISITED as u64,
            "vertex count {n} exceeds the 32-bit id space"
        );
        let mut degree = vec![0u64; n + 1];
        for &(u, v) in edges {
            assert!(
                (u as usize) < n && (v as usize) < n,
                "edge ({u},{v}) out of range 0..{n}"
            );
            degree[u as usize + 1] += 1;
        }
        // Exclusive prefix sum over degrees gives the offsets.
        let mut offsets = degree;
        for i in 1..=n {
            offsets[i] += offsets[i - 1];
        }
        let mut targets = vec![0 as VertexId; edges.len()];
        let mut cursor = offsets.clone();
        for &(u, v) in edges {
            let c = &mut cursor[u as usize];
            targets[*c as usize] = v;
            *c += 1;
        }
        // Sort each adjacency list: deterministic layout, and sequential
        // scans of sorted neighbours are friendlier to the prefetcher.
        for v in 0..n {
            let (s, e) = (offsets[v] as usize, offsets[v + 1] as usize);
            targets[s..e].sort_unstable();
        }
        Self { offsets, targets }
    }

    /// Builds an undirected graph: every input edge is inserted in both
    /// directions (self-loops only once).
    pub fn from_edges_symmetric(n: usize, edges: &[(VertexId, VertexId)]) -> Self {
        Self::from_edges(n, &mirror_edges(edges))
    }

    /// Parallel counterpart of [`CsrGraph::from_edges_symmetric`]:
    /// identical output, assembled with [`CsrGraph::from_edges_parallel`].
    pub fn from_edges_symmetric_parallel(n: usize, edges: &[(VertexId, VertexId)]) -> Self {
        Self::from_edges_parallel(n, &mirror_edges(edges))
    }

    /// Parallel (rayon) construction of a directed CSR graph. Identical
    /// output to [`CsrGraph::from_edges`]; used for the large generator
    /// runs where single-threaded construction dominates setup time.
    pub fn from_edges_parallel(n: usize, edges: &[(VertexId, VertexId)]) -> Self {
        use core::sync::atomic::{AtomicU64, Ordering};
        assert!((n as u64) < UNVISITED as u64);
        let degree: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
        edges.par_iter().for_each(|&(u, v)| {
            assert!(
                (u as usize) < n && (v as usize) < n,
                "edge ({u},{v}) out of range 0..{n}"
            );
            degree[u as usize].fetch_add(1, Ordering::Relaxed);
        });
        let mut offsets = vec![0u64; n + 1];
        for i in 0..n {
            offsets[i + 1] = offsets[i] + degree[i].load(Ordering::Relaxed);
        }
        let cursor: Vec<AtomicU64> = offsets[..n].iter().map(|&o| AtomicU64::new(o)).collect();
        let mut targets = vec![0 as VertexId; edges.len()];
        {
            // SAFETY-free parallel fill: each fetch_add reserves a distinct
            // slot, exposed through a raw pointer wrapper.
            struct Slots(*mut VertexId);
            unsafe impl Sync for Slots {}
            let slots = Slots(targets.as_mut_ptr());
            edges.par_iter().for_each(|&(u, v)| {
                let idx = cursor[u as usize].fetch_add(1, Ordering::Relaxed) as usize;
                // SAFETY: idx is a unique reservation within u's range.
                unsafe { *slots.0.add(idx) = v };
                let _ = &slots;
            });
        }
        let mut g = Self { offsets, targets };
        let offsets = g.offsets.clone();
        // Sort adjacency lists in parallel via chunked ranges.
        let targets_ptr = g.targets.as_mut_ptr() as usize;
        (0..n).into_par_iter().for_each(|v| {
            let (s, e) = (offsets[v] as usize, offsets[v + 1] as usize);
            // SAFETY: per-vertex ranges are disjoint.
            let slice = unsafe {
                core::slice::from_raw_parts_mut((targets_ptr as *mut VertexId).add(s), e - s)
            };
            slice.sort_unstable();
        });
        g
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of directed edges (an undirected graph counts each twice).
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.targets.len()
    }

    /// The adjacency list of `v`, sorted ascending.
    #[inline(always)]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        let s = self.offsets[v as usize] as usize;
        let e = self.offsets[v as usize + 1] as usize;
        &self.targets[s..e]
    }

    /// Out-degree of `v`.
    #[inline(always)]
    pub fn degree(&self, v: VertexId) -> usize {
        (self.offsets[v as usize + 1] - self.offsets[v as usize]) as usize
    }

    /// `true` if the directed edge `(u, v)` exists (binary search).
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// Maximum out-degree over all vertices.
    pub fn max_degree(&self) -> usize {
        (0..self.num_vertices() as VertexId)
            .map(|v| self.degree(v))
            .max()
            .unwrap_or(0)
    }

    /// Average out-degree (the paper's "arity").
    pub fn avg_degree(&self) -> f64 {
        if self.num_vertices() == 0 {
            0.0
        } else {
            self.num_edges() as f64 / self.num_vertices() as f64
        }
    }

    /// Bytes of memory held by the adjacency structure.
    pub fn memory_bytes(&self) -> usize {
        self.offsets.len() * core::mem::size_of::<u64>()
            + self.targets.len() * core::mem::size_of::<VertexId>()
    }

    /// Raw offsets array (length `n + 1`), for zero-copy consumers.
    pub fn offsets(&self) -> &[u64] {
        &self.offsets
    }

    /// Raw concatenated targets array, for zero-copy consumers.
    pub fn targets(&self) -> &[VertexId] {
        &self.targets
    }

    /// Constructs a graph directly from raw CSR arrays.
    ///
    /// # Panics
    /// Panics unless `offsets` is non-empty, non-decreasing, starts at 0 and
    /// ends at `targets.len()`, and every target is `< n`.
    pub fn from_raw_parts(offsets: Vec<u64>, targets: Vec<VertexId>) -> Self {
        assert!(!offsets.is_empty(), "offsets must have length n + 1 >= 1");
        assert_eq!(offsets[0], 0, "offsets must start at 0");
        assert_eq!(
            *offsets.last().unwrap(),
            targets.len() as u64,
            "offsets must end at targets.len()"
        );
        assert!(
            offsets.windows(2).all(|w| w[0] <= w[1]),
            "offsets must be non-decreasing"
        );
        let n = offsets.len() - 1;
        assert!(
            targets.iter().all(|&t| (t as usize) < n),
            "targets must reference vertices < {n}"
        );
        Self { offsets, targets }
    }

    /// Iterator over all directed edges `(u, v)`.
    pub fn edges(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        (0..self.num_vertices() as VertexId)
            .flat_map(move |u| self.neighbors(u).iter().map(move |&v| (u, v)))
    }

    /// Relabels every vertex through `permutation` (old ids → new ids),
    /// returning the isomorphic graph in the new labelling with each
    /// adjacency list re-sorted ascending.
    ///
    /// The result is structurally identical to rebuilding from the
    /// relabelled edge list — degrees, edge multiset and connectivity are
    /// preserved; only the ids (and therefore the memory layout of every
    /// per-vertex array) change. See [`crate::reorder`] for the orderings.
    ///
    /// # Panics
    /// Panics if `permutation.len() != self.num_vertices()`.
    pub fn permute(&self, permutation: &crate::reorder::Permutation) -> Self {
        let n = self.num_vertices();
        assert_eq!(permutation.len(), n, "permutation size mismatch");
        let mut offsets = vec![0u64; n + 1];
        for new_v in 0..n {
            offsets[new_v + 1] =
                offsets[new_v] + self.degree(permutation.to_old(new_v as VertexId)) as u64;
        }
        let mut targets = vec![0 as VertexId; self.num_edges()];
        {
            // Per-vertex output ranges are disjoint; fill and sort them in
            // parallel through the same raw-pointer reservation idiom as
            // `from_edges_parallel`.
            struct Slots(*mut VertexId);
            unsafe impl Sync for Slots {}
            let slots = Slots(targets.as_mut_ptr());
            let offsets = &offsets;
            (0..n).into_par_iter().for_each(|new_v| {
                let old_v = permutation.to_old(new_v as VertexId);
                let (s, e) = (offsets[new_v] as usize, offsets[new_v + 1] as usize);
                // SAFETY: offsets are a strict prefix sum, so s..e ranges
                // are disjoint across new_v.
                let out = unsafe { core::slice::from_raw_parts_mut(slots.0.add(s), e - s) };
                for (slot, &old_t) in out.iter_mut().zip(self.neighbors(old_v)) {
                    *slot = permutation.to_new(old_t);
                }
                out.sort_unstable();
                let _ = &slots;
            });
        }
        Self { offsets, targets }
    }
}

/// Expands an undirected edge list into both directions (self-loops once).
fn mirror_edges(edges: &[(VertexId, VertexId)]) -> Vec<(VertexId, VertexId)> {
    let mut both = Vec::with_capacity(edges.len() * 2);
    for &(u, v) in edges {
        both.push((u, v));
        if u != v {
            both.push((v, u));
        }
    }
    both
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path_graph(n: usize) -> CsrGraph {
        let edges: Vec<_> = (0..n as VertexId - 1).map(|i| (i, i + 1)).collect();
        CsrGraph::from_edges_symmetric(n, &edges)
    }

    #[test]
    fn empty_graph() {
        let g = CsrGraph::from_edges(0, &[]);
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.max_degree(), 0);
        assert_eq!(g.avg_degree(), 0.0);
    }

    #[test]
    fn single_vertex_no_edges() {
        let g = CsrGraph::from_edges(1, &[]);
        assert_eq!(g.num_vertices(), 1);
        assert_eq!(g.neighbors(0), &[] as &[VertexId]);
    }

    #[test]
    fn directed_adjacency() {
        let g = CsrGraph::from_edges(3, &[(0, 1), (0, 2), (1, 2)]);
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.neighbors(1), &[2]);
        assert_eq!(g.neighbors(2), &[] as &[VertexId]);
        assert!(g.has_edge(0, 2));
        assert!(!g.has_edge(2, 0));
    }

    #[test]
    fn symmetric_doubles_edges() {
        let g = CsrGraph::from_edges_symmetric(3, &[(0, 1), (1, 2)]);
        assert_eq!(g.num_edges(), 4);
        assert!(g.has_edge(1, 0));
        assert!(g.has_edge(2, 1));
    }

    #[test]
    fn self_loop_inserted_once_in_symmetric() {
        let g = CsrGraph::from_edges_symmetric(2, &[(0, 0), (0, 1)]);
        assert_eq!(g.neighbors(0), &[0, 1]);
        assert_eq!(g.num_edges(), 3);
    }

    #[test]
    fn duplicate_edges_preserved() {
        let g = CsrGraph::from_edges(2, &[(0, 1), (0, 1), (0, 1)]);
        assert_eq!(g.degree(0), 3);
        assert_eq!(g.neighbors(0), &[1, 1, 1]);
    }

    #[test]
    fn adjacency_is_sorted() {
        let g = CsrGraph::from_edges(5, &[(0, 4), (0, 1), (0, 3), (0, 2)]);
        assert_eq!(g.neighbors(0), &[1, 2, 3, 4]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_edge_panics() {
        CsrGraph::from_edges(2, &[(0, 5)]);
    }

    #[test]
    fn path_graph_degrees() {
        let g = path_graph(10);
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.degree(5), 2);
        assert_eq!(g.degree(9), 1);
        assert_eq!(g.max_degree(), 2);
        assert!((g.avg_degree() - 1.8).abs() < 1e-9);
    }

    #[test]
    fn parallel_build_matches_sequential() {
        let edges: Vec<(VertexId, VertexId)> = (0..500u32)
            .flat_map(|i| {
                let a = (i * 7919) % 100;
                let b = (i * 104729) % 100;
                [(a, b), (b, a)]
            })
            .collect();
        let seq = CsrGraph::from_edges(100, &edges);
        let par = CsrGraph::from_edges_parallel(100, &edges);
        assert_eq!(seq, par);
    }

    #[test]
    fn symmetric_parallel_matches_serial() {
        let edges: Vec<(VertexId, VertexId)> = (0..300u32)
            .map(|i| ((i * 31) % 50, (i * 17) % 50))
            .collect();
        let seq = CsrGraph::from_edges_symmetric(50, &edges);
        let par = CsrGraph::from_edges_symmetric_parallel(50, &edges);
        assert_eq!(seq, par);
    }

    #[test]
    fn permute_identity_is_noop() {
        let g = path_graph(8);
        let p = crate::reorder::Permutation::identity(8);
        assert_eq!(g.permute(&p), g);
    }

    #[test]
    fn permute_reversal_relabels_and_resorts() {
        let g = path_graph(4); // 0-1-2-3
        let p = crate::reorder::Permutation::from_old_to_new(vec![3, 2, 1, 0]);
        let h = g.permute(&p);
        // The path survives with reversed labels; adjacency stays sorted.
        assert_eq!(h.neighbors(3), &[2]); // old 0 → {old 1} = {new 2}
        assert_eq!(h.neighbors(2), &[1, 3]);
        assert_eq!(h.num_edges(), g.num_edges());
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn permute_rejects_wrong_size() {
        path_graph(4).permute(&crate::reorder::Permutation::identity(3));
    }

    #[test]
    fn from_raw_parts_roundtrip() {
        let g = path_graph(6);
        let g2 = CsrGraph::from_raw_parts(g.offsets().to_vec(), g.targets().to_vec());
        assert_eq!(g, g2);
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn from_raw_parts_rejects_decreasing_offsets() {
        CsrGraph::from_raw_parts(vec![0, 2, 1, 2], vec![0, 1]);
    }

    #[test]
    #[should_panic(expected = "end at targets.len")]
    fn from_raw_parts_rejects_bad_total() {
        CsrGraph::from_raw_parts(vec![0, 1], vec![0, 0]);
    }

    #[test]
    fn edges_iterator_covers_all() {
        let g = CsrGraph::from_edges(3, &[(0, 1), (1, 2), (2, 0)]);
        let es: Vec<_> = g.edges().collect();
        assert_eq!(es, vec![(0, 1), (1, 2), (2, 0)]);
    }

    #[test]
    fn memory_bytes_accounts_for_arrays() {
        let g = path_graph(10);
        assert_eq!(g.memory_bytes(), 11 * 8 + 18 * 4);
    }
}
