//! Graph transformations: transpose, induced subgraphs, and symmetry
//! checks — utilities a downstream user needs around the core traversal
//! (e.g. BFS on the reverse graph, extracting a community found by
//! connected components).

use crate::csr::{CsrGraph, VertexId};

/// Returns the transpose (edge-reversed) graph.
///
/// For the paper's symmetric benchmark graphs this is the identity (see
/// [`is_symmetric`]); for directed inputs it enables reverse reachability.
pub fn transpose(graph: &CsrGraph) -> CsrGraph {
    let n = graph.num_vertices();
    let mut edges = Vec::with_capacity(graph.num_edges());
    for (u, v) in graph.edges() {
        edges.push((v, u));
    }
    CsrGraph::from_edges(n, &edges)
}

/// `true` if for every directed edge `(u, v)` the reverse `(v, u)` is also
/// present (multiplicity-insensitive).
pub fn is_symmetric(graph: &CsrGraph) -> bool {
    graph.edges().all(|(u, v)| graph.has_edge(v, u))
}

/// Extracts the subgraph induced by `vertices` (need not be sorted or
/// unique). Returns the subgraph and the mapping from new ids to old ids.
///
/// Vertices are renumbered densely in the order of first appearance.
pub fn induced_subgraph(graph: &CsrGraph, vertices: &[VertexId]) -> (CsrGraph, Vec<VertexId>) {
    let mut old_to_new: std::collections::HashMap<VertexId, VertexId> = Default::default();
    let mut new_to_old = Vec::new();
    for &v in vertices {
        debug_assert!((v as usize) < graph.num_vertices());
        old_to_new.entry(v).or_insert_with(|| {
            new_to_old.push(v);
            (new_to_old.len() - 1) as VertexId
        });
    }
    let mut edges = Vec::new();
    for (&old_u, &new_u) in &old_to_new {
        for &old_v in graph.neighbors(old_u) {
            if let Some(&new_v) = old_to_new.get(&old_v) {
                edges.push((new_u, new_v));
            }
        }
    }
    (CsrGraph::from_edges(new_to_old.len(), &edges), new_to_old)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn directed_sample() -> CsrGraph {
        CsrGraph::from_edges(4, &[(0, 1), (1, 2), (2, 0), (0, 3)])
    }

    #[test]
    fn transpose_reverses_edges() {
        let g = directed_sample();
        let t = transpose(&g);
        assert_eq!(t.num_edges(), g.num_edges());
        for (u, v) in g.edges() {
            assert!(t.has_edge(v, u), "missing reversed ({v},{u})");
        }
        // Double transpose is the identity.
        assert_eq!(transpose(&t), g);
    }

    #[test]
    fn symmetry_detection() {
        assert!(!is_symmetric(&directed_sample()));
        let sym = CsrGraph::from_edges_symmetric(3, &[(0, 1), (1, 2)]);
        assert!(is_symmetric(&sym));
        assert!(is_symmetric(&transpose(&sym)));
    }

    #[test]
    fn induced_subgraph_keeps_internal_edges_only() {
        let g = CsrGraph::from_edges_symmetric(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]);
        let (sub, map) = induced_subgraph(&g, &[1, 2, 3]);
        assert_eq!(sub.num_vertices(), 3);
        assert_eq!(map, vec![1, 2, 3]);
        // Edges 1-2 and 2-3 survive (both directions); 0-1 and 3-4 do not.
        assert_eq!(sub.num_edges(), 4);
        assert!(sub.has_edge(0, 1)); // old 1-2
        assert!(sub.has_edge(1, 2)); // old 2-3
        assert!(!sub.has_edge(0, 2));
    }

    #[test]
    fn induced_subgraph_dedups_input() {
        let g = CsrGraph::from_edges_symmetric(4, &[(0, 1)]);
        let (sub, map) = induced_subgraph(&g, &[1, 1, 0, 1]);
        assert_eq!(sub.num_vertices(), 2);
        assert_eq!(map, vec![1, 0]);
        assert!(sub.has_edge(0, 1) && sub.has_edge(1, 0));
    }

    #[test]
    fn induced_subgraph_empty_selection() {
        let g = directed_sample();
        let (sub, map) = induced_subgraph(&g, &[]);
        assert_eq!(sub.num_vertices(), 0);
        assert!(map.is_empty());
    }
}
