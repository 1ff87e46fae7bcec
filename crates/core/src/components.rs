//! Connected components via BFS — the application the paper's introduction
//! motivates ("applications in community analysis often need to determine
//! the connected components of a semantic graph ... connected components
//! algorithms often employ a BFS search").
//!
//! Strategy: repeatedly pick the lowest-numbered unvisited vertex and
//! explore its component. Components above `parallel_threshold` vertices in
//! the frontier are explored with the parallel Algorithm 2; small ones with
//! the sequential traversal (spawning a thread team for a 3-vertex
//! component would be pure overhead).

use crate::algo::level::{bfs, VariantConfig};
use crate::algo::sequential::bfs_sequential;
use mcbfs_graph::bitmap::AtomicBitmap;
use mcbfs_graph::csr::{CsrGraph, VertexId, UNVISITED};

/// Component labelling of a graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Components {
    /// `labels[v]` = component id of `v` (ids are the component roots).
    pub labels: Vec<VertexId>,
    /// Vertices per component id, sorted descending by size.
    pub sizes: Vec<(VertexId, usize)>,
}

impl Components {
    /// Number of connected components.
    pub fn count(&self) -> usize {
        self.sizes.len()
    }

    /// Size of the largest component (0 for an empty graph).
    pub fn largest(&self) -> usize {
        self.sizes.first().map(|&(_, s)| s).copied_or_zero()
    }
}

trait CopiedOrZero {
    fn copied_or_zero(self) -> usize;
}

impl CopiedOrZero for Option<usize> {
    fn copied_or_zero(self) -> usize {
        self.unwrap_or(0)
    }
}

/// Labels every connected component of `graph`.
///
/// `threads` controls the parallel exploration of large components;
/// components whose root degree suggests fewer than `parallel_threshold`
/// vertices are explored sequentially.
pub fn connected_components(
    graph: &CsrGraph,
    threads: usize,
    parallel_threshold: usize,
) -> Components {
    let n = graph.num_vertices();
    let mut labels = vec![UNVISITED; n];
    let mut sizes: Vec<(VertexId, usize)> = Vec::new();
    // The unlabelled vertices form a shrinking work-list bitmap; the next
    // component root is the lowest surviving bit, found with the shared
    // word-level scan instead of a per-vertex label sweep.
    let unlabelled = AtomicBitmap::from_ones(n, 0..n);
    let mut cursor_word = 0usize;
    while let Some(root) = unlabelled
        .iter_set_bits(cursor_word..unlabelled.num_words())
        .next()
    {
        cursor_word = root / 64;
        let root = root as VertexId;
        // Estimate whether this component justifies the thread team: a
        // quick bounded sequential probe of up to `parallel_threshold`
        // vertices.
        let use_parallel =
            threads > 1 && component_at_least(graph, root, &labels, parallel_threshold);
        let parents = if use_parallel {
            bfs(graph, root, threads, VariantConfig::algorithm2()).parents
        } else {
            bfs_sequential(graph, root).parents
        };
        let mut size = 0usize;
        for (v, &p) in parents.iter().enumerate() {
            if p != UNVISITED && labels[v] == UNVISITED {
                labels[v] = root;
                unlabelled.clear_bit(v);
                size += 1;
            }
        }
        sizes.push((root, size));
    }
    sizes.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    Components { labels, sizes }
}

/// Bounded probe: does the component of `root` contain at least `k`
/// vertices not yet labelled?
fn component_at_least(graph: &CsrGraph, root: VertexId, labels: &[VertexId], k: usize) -> bool {
    if k <= 1 {
        return true;
    }
    let mut seen = std::collections::HashSet::new();
    let mut stack = vec![root];
    seen.insert(root);
    while let Some(u) = stack.pop() {
        for &v in graph.neighbors(u) {
            if labels[v as usize] == UNVISITED && seen.insert(v) {
                if seen.len() >= k {
                    return true;
                }
                stack.push(v);
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcbfs_gen::prelude::*;

    #[test]
    fn labels_simple_components() {
        // {0,1,2}, {3,4}, {5}
        let g = CsrGraph::from_edges_symmetric(6, &[(0, 1), (1, 2), (3, 4)]);
        let c = connected_components(&g, 1, usize::MAX);
        assert_eq!(c.count(), 3);
        assert_eq!(c.labels[0], c.labels[1]);
        assert_eq!(c.labels[1], c.labels[2]);
        assert_eq!(c.labels[3], c.labels[4]);
        assert_ne!(c.labels[0], c.labels[3]);
        assert_eq!(c.labels[5], 5);
        assert_eq!(c.largest(), 3);
        assert_eq!(c.sizes, vec![(0, 3), (3, 2), (5, 1)]);
    }

    #[test]
    fn empty_graph() {
        let g = CsrGraph::from_edges(0, &[]);
        let c = connected_components(&g, 2, 4);
        assert_eq!(c.count(), 0);
        assert_eq!(c.largest(), 0);
    }

    #[test]
    fn fully_connected_is_one_component() {
        let g = UniformBuilder::new(500, 8).seed(2).build();
        let c = connected_components(&g, 4, 64);
        // A degree-8 uniform graph of 500 vertices is almost surely
        // dominated by one giant component.
        assert!(c.largest() > 450, "largest {}", c.largest());
        // Every vertex is labelled.
        assert!(c.labels.iter().all(|&l| l != UNVISITED));
        // Sizes sum to n.
        assert_eq!(c.sizes.iter().map(|&(_, s)| s).sum::<usize>(), 500);
    }

    #[test]
    fn parallel_and_sequential_agree() {
        let g = RmatBuilder::new(9, 4).seed(3).build();
        let seq = connected_components(&g, 1, usize::MAX);
        let par = connected_components(&g, 4, 32);
        assert_eq!(seq.labels, par.labels);
        assert_eq!(seq.sizes, par.sizes);
    }

    #[test]
    fn isolated_vertices_each_their_own() {
        let g = CsrGraph::from_edges(4, &[]);
        let c = connected_components(&g, 2, 2);
        assert_eq!(c.count(), 4);
        assert!(c.sizes.iter().all(|&(_, s)| s == 1));
    }

    #[test]
    fn probe_detects_small_components() {
        let g = CsrGraph::from_edges_symmetric(5, &[(0, 1), (1, 2)]);
        let labels = vec![UNVISITED; 5];
        assert!(component_at_least(&g, 0, &labels, 3));
        assert!(!component_at_least(&g, 0, &labels, 4));
        assert!(component_at_least(&g, 0, &labels, 1));
    }
}
