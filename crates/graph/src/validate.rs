//! BFS-tree validation, in the spirit of the Graph500 result checker.
//!
//! Parallel BFS parent arrays are nondeterministic (any shortest-path parent
//! is legal), so tests cannot compare them against a golden array. Instead,
//! [`validate_bfs_tree`] proves the *properties* every correct BFS tree must
//! have:
//!
//! 1. the root is its own parent and nothing else is its own parent;
//! 2. every claimed parent edge exists in the graph;
//! 3. tree levels differ by exactly one along parent edges — i.e. the tree
//!    realizes shortest hop distances;
//! 4. exactly the vertices reachable from the root are visited.
//!
//! A reference sequential BFS computes ground-truth distances for checks
//! 3–4; it is the only trusted component and is itself property-tested.

use crate::csr::{CsrGraph, VertexId, UNVISITED};
use std::collections::VecDeque;

/// Summary of a validated BFS tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BfsTreeInfo {
    /// Vertices reached (including the root).
    pub visited: usize,
    /// Eccentricity of the root within its component (max level).
    pub max_level: u32,
    /// Directed edges with both endpoints reachable — the `ma` the paper
    /// divides by when reporting edges/second.
    pub reachable_edges: u64,
}

/// Why a parent array failed validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidationError {
    /// Parent array length differs from the vertex count.
    WrongLength { expected: usize, actual: usize },
    /// The root's parent is not the root itself.
    BadRoot { root: VertexId, parent: VertexId },
    /// A non-root vertex claims itself as parent.
    SelfParent { vertex: VertexId },
    /// A visited vertex's parent is unvisited in the array.
    UnvisitedParent { vertex: VertexId, parent: VertexId },
    /// The claimed parent edge does not exist in the graph.
    MissingEdge { vertex: VertexId, parent: VertexId },
    /// Tree level does not equal the parent's level plus one.
    WrongLevel {
        vertex: VertexId,
        level: u32,
        parent_level: u32,
    },
    /// A reachable vertex was not visited.
    Unreached { vertex: VertexId },
    /// An unreachable vertex was visited.
    Overreached { vertex: VertexId },
}

impl core::fmt::Display for ValidationError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::WrongLength { expected, actual } => {
                write!(f, "parent array has length {actual}, expected {expected}")
            }
            Self::BadRoot { root, parent } => {
                write!(f, "root {root} has parent {parent}, expected itself")
            }
            Self::SelfParent { vertex } => write!(f, "non-root vertex {vertex} is its own parent"),
            Self::UnvisitedParent { vertex, parent } => {
                write!(f, "vertex {vertex} has unvisited parent {parent}")
            }
            Self::MissingEdge { vertex, parent } => {
                write!(
                    f,
                    "edge ({parent},{vertex}) claimed by tree but absent from graph"
                )
            }
            Self::WrongLevel {
                vertex,
                level,
                parent_level,
            } => write!(
                f,
                "vertex {vertex} at level {level}, parent at {parent_level} (must differ by 1)"
            ),
            Self::Unreached { vertex } => write!(f, "reachable vertex {vertex} not visited"),
            Self::Overreached { vertex } => write!(f, "unreachable vertex {vertex} visited"),
        }
    }
}

impl std::error::Error for ValidationError {}

/// Reference sequential BFS returning hop distances from `root`
/// (`u32::MAX` for unreachable vertices).
pub fn sequential_levels(graph: &CsrGraph, root: VertexId) -> Vec<u32> {
    let n = graph.num_vertices();
    let mut levels = vec![u32::MAX; n];
    if n == 0 {
        return levels;
    }
    let mut q = VecDeque::new();
    levels[root as usize] = 0;
    q.push_back(root);
    while let Some(u) = q.pop_front() {
        let next = levels[u as usize] + 1;
        for &v in graph.neighbors(u) {
            if levels[v as usize] == u32::MAX {
                levels[v as usize] = next;
                q.push_back(v);
            }
        }
    }
    levels
}

/// Reference sequential BFS returning a parent array (the same convention as
/// every parallel algorithm in `mcbfs-core`: `parents[root] == root`,
/// unreached vertices hold [`UNVISITED`]).
pub fn sequential_parents(graph: &CsrGraph, root: VertexId) -> Vec<VertexId> {
    let n = graph.num_vertices();
    let mut parents = vec![UNVISITED; n];
    if n == 0 {
        return parents;
    }
    let mut q = VecDeque::new();
    parents[root as usize] = root;
    q.push_back(root);
    while let Some(u) = q.pop_front() {
        for &v in graph.neighbors(u) {
            if parents[v as usize] == UNVISITED {
                parents[v as usize] = u;
                q.push_back(v);
            }
        }
    }
    parents
}

/// Hop depth of every vertex, derived purely from a BFS parent array by
/// memoized parent-chain walking (`u32::MAX` for unreached vertices).
///
/// Graph-free and O(n): each vertex's chain is walked once, then cached —
/// unlike re-running [`sequential_levels`], this prices a depth query at a
/// scan of the parent array, which matters when a runner wants per-level
/// counts after every search. Depths computed this way equal the BFS
/// levels for any *valid* BFS tree (each tree path realizes the hop
/// distance).
///
/// # Panics
/// Panics on a cyclic parent chain or a chain that leaves the visited set
/// (both indicate a corrupt parent array).
pub fn depths_from_parents(parents: &[VertexId]) -> Vec<u32> {
    let n = parents.len();
    let mut depths = vec![u32::MAX; n];
    let mut chain = Vec::new();
    for v in 0..n {
        if parents[v] == UNVISITED || depths[v] != u32::MAX {
            continue;
        }
        let mut cur = v;
        // Climb until a memoized depth or the root, stacking the path.
        while depths[cur] == u32::MAX && parents[cur] as usize != cur {
            chain.push(cur);
            assert!(chain.len() <= n, "cycle in parent chain at vertex {v}");
            cur = parents[cur] as usize;
            assert!(
                parents[cur] != UNVISITED,
                "parent chain of vertex {v} leaves the visited set"
            );
        }
        if depths[cur] == u32::MAX {
            depths[cur] = 0; // the root
        }
        let mut d = depths[cur];
        while let Some(u) = chain.pop() {
            d += 1;
            depths[u] = d;
        }
    }
    depths
}

/// Depth of `v` in the BFS tree `parents` (`parents[root] == root`,
/// unreached = `UNVISITED`): the steps up its parent chain to the root, at
/// most the tree's height, or `None` when `v` is unreached. One chain walk
/// in place of [`depths_from_parents`]'s scan, for a caller that needs one
/// depth.
///
/// # Panics
/// Panics on a cyclic parent chain.
pub fn depth_in_tree(parents: &[VertexId], v: VertexId) -> Option<u32> {
    let mut cur = v as usize;
    if parents[cur] == UNVISITED {
        return None;
    }
    let mut depth = 0u32;
    while parents[cur] as usize != cur {
        cur = parents[cur] as usize;
        depth += 1;
        assert!(
            depth as usize <= parents.len(),
            "cycle in parent chain at vertex {v}"
        );
    }
    Some(depth)
}

/// Per-depth vertex counts (`histogram[d]` = vertices at hop depth `d`) of
/// a depth array (`u32::MAX` = unreached), such as [`sequential_levels`]
/// or [`depths_from_parents`] return. Two BFS runs over isomorphic graphs
/// produce identical histograms, which makes this the equality check for
/// reordering and batching correctness.
pub fn depth_histogram(levels: &[u32]) -> Vec<u64> {
    let Some(&max) = levels.iter().filter(|&&d| d != u32::MAX).max() else {
        return Vec::new();
    };
    let mut histogram = vec![0u64; max as usize + 1];
    for &d in levels {
        if d != u32::MAX {
            histogram[d as usize] += 1;
        }
    }
    histogram
}

/// Adjacency entries of every vertex reached in `levels` (`u32::MAX` =
/// unreached) — the paper's `ma`, the numerator of every edges/second
/// figure. It is the same whether a search ran alone or in a batched wave.
pub fn reachable_edges(graph: &CsrGraph, levels: &[u32]) -> u64 {
    levels
        .iter()
        .enumerate()
        .filter(|&(_, &d)| d != u32::MAX)
        .map(|(v, _)| graph.degree(v as VertexId) as u64)
        .sum()
}

/// Validates `parents` as a BFS tree of `graph` rooted at `root`.
///
/// # Examples
///
/// ```
/// use mcbfs_graph::csr::CsrGraph;
/// use mcbfs_graph::validate::{sequential_parents, validate_bfs_tree};
///
/// let g = CsrGraph::from_edges_symmetric(5, &[(0, 1), (1, 2), (0, 3)]);
/// let parents = sequential_parents(&g, 0);
/// let info = validate_bfs_tree(&g, 0, &parents).unwrap();
/// assert_eq!(info.visited, 4); // vertex 4 is isolated
/// assert_eq!(info.max_level, 2);
/// ```
pub fn validate_bfs_tree(
    graph: &CsrGraph,
    root: VertexId,
    parents: &[VertexId],
) -> Result<BfsTreeInfo, ValidationError> {
    let n = graph.num_vertices();
    if parents.len() != n {
        return Err(ValidationError::WrongLength {
            expected: n,
            actual: parents.len(),
        });
    }
    let levels = sequential_levels(graph, root);
    if parents[root as usize] != root {
        return Err(ValidationError::BadRoot {
            root,
            parent: parents[root as usize],
        });
    }
    let mut visited = 0usize;
    let mut max_level = 0u32;
    for v in 0..n as VertexId {
        let p = parents[v as usize];
        let true_level = levels[v as usize];
        if p == UNVISITED {
            if true_level != u32::MAX {
                return Err(ValidationError::Unreached { vertex: v });
            }
            continue;
        }
        if true_level == u32::MAX {
            return Err(ValidationError::Overreached { vertex: v });
        }
        visited += 1;
        max_level = max_level.max(true_level);
        if v == root {
            continue;
        }
        if p == v {
            return Err(ValidationError::SelfParent { vertex: v });
        }
        if parents[p as usize] == UNVISITED {
            return Err(ValidationError::UnvisitedParent {
                vertex: v,
                parent: p,
            });
        }
        if !graph.has_edge(p, v) {
            return Err(ValidationError::MissingEdge {
                vertex: v,
                parent: p,
            });
        }
        let p_level = levels[p as usize];
        if true_level != p_level + 1 {
            return Err(ValidationError::WrongLevel {
                vertex: v,
                level: true_level,
                parent_level: p_level,
            });
        }
    }
    Ok(BfsTreeInfo {
        visited,
        max_level,
        reachable_edges: reachable_edges(graph, &levels),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CsrGraph {
        //   0 - 1 - 2
        //   |       |
        //   3 ------+   4 isolated
        CsrGraph::from_edges_symmetric(5, &[(0, 1), (1, 2), (0, 3), (3, 2)])
    }

    #[test]
    fn sequential_levels_on_sample() {
        let g = sample();
        let levels = sequential_levels(&g, 0);
        assert_eq!(levels, vec![0, 1, 2, 1, u32::MAX]);
    }

    #[test]
    fn sequential_parents_validate() {
        let g = sample();
        let parents = sequential_parents(&g, 0);
        let info = validate_bfs_tree(&g, 0, &parents).unwrap();
        assert_eq!(info.visited, 4);
        assert_eq!(info.max_level, 2);
        assert_eq!(info.reachable_edges, 8);
    }

    #[test]
    fn depths_from_parents_match_levels() {
        let g = sample();
        let parents = sequential_parents(&g, 0);
        assert_eq!(depths_from_parents(&parents), sequential_levels(&g, 0));
    }

    #[test]
    fn depth_in_tree_walks_one_chain() {
        let g = sample();
        let parents = sequential_parents(&g, 0);
        let levels = sequential_levels(&g, 0);
        for v in 0..5 {
            let level = Some(levels[v as usize]).filter(|&d| d != u32::MAX);
            assert_eq!(depth_in_tree(&parents, v), level, "vertex {v}");
        }
    }

    #[test]
    fn depth_histogram_counts_per_level() {
        let g = sample();
        let depths = depths_from_parents(&sequential_parents(&g, 0));
        // Level 0: {0}; level 1: {1, 3}; level 2: {2}; vertex 4 unreached.
        assert_eq!(depth_histogram(&depths), vec![1, 2, 1]);
    }

    #[test]
    fn depth_histogram_of_nothing_is_empty() {
        assert!(depth_histogram(&[u32::MAX, u32::MAX]).is_empty());
        assert!(depth_histogram(&[]).is_empty());
    }

    #[test]
    fn reachable_edges_skip_unreached_vertices() {
        let g = CsrGraph::from_edges_symmetric(5, &[(0, 1), (1, 2), (2, 4), (3, 3)]);
        // Vertex 3 unreached: degree sum of {0,1,2,4} with (3,3) excluded.
        assert_eq!(reachable_edges(&g, &[0, 1, 1, u32::MAX, 2]), 6);
    }

    #[test]
    #[should_panic(expected = "cycle in parent chain")]
    fn depths_reject_cyclic_chain() {
        depths_from_parents(&[1, 0]);
    }

    #[test]
    fn alternative_shortest_parent_is_accepted() {
        let g = sample();
        // Vertex 2 may claim parent 1 or 3; both are level-1.
        let mut parents = sequential_parents(&g, 0);
        parents[2] = 3;
        validate_bfs_tree(&g, 0, &parents).unwrap();
        parents[2] = 1;
        validate_bfs_tree(&g, 0, &parents).unwrap();
    }

    #[test]
    fn rejects_wrong_length() {
        let g = sample();
        let e = validate_bfs_tree(&g, 0, &[0, 0]).unwrap_err();
        assert!(matches!(e, ValidationError::WrongLength { .. }));
    }

    #[test]
    fn rejects_bad_root() {
        let g = sample();
        let mut parents = sequential_parents(&g, 0);
        parents[0] = 1;
        let e = validate_bfs_tree(&g, 0, &parents).unwrap_err();
        assert!(matches!(e, ValidationError::BadRoot { .. }));
    }

    #[test]
    fn rejects_self_parent() {
        let g = sample();
        let mut parents = sequential_parents(&g, 0);
        parents[2] = 2;
        let e = validate_bfs_tree(&g, 0, &parents).unwrap_err();
        assert!(matches!(e, ValidationError::SelfParent { vertex: 2 }));
    }

    #[test]
    fn rejects_missing_edge() {
        let g = sample();
        let mut parents = sequential_parents(&g, 0);
        parents[2] = 0; // no (0,2) edge
        let e = validate_bfs_tree(&g, 0, &parents).unwrap_err();
        assert!(matches!(
            e,
            ValidationError::MissingEdge {
                vertex: 2,
                parent: 0
            }
        ));
    }

    #[test]
    fn rejects_non_shortest_tree() {
        // Path 0-1-2 plus shortcut 0-2 through 3: 0-3, 3-2.
        let g = CsrGraph::from_edges_symmetric(4, &[(0, 1), (1, 2), (0, 3), (3, 2)]);
        let mut parents = sequential_parents(&g, 0);
        // Claim 1 as child of 2 (level 2) — that would put 1 at level 3 > 1.
        parents[1] = 2;
        let e = validate_bfs_tree(&g, 0, &parents).unwrap_err();
        assert!(matches!(e, ValidationError::WrongLevel { vertex: 1, .. }));
    }

    #[test]
    fn rejects_unreached_vertex() {
        let g = sample();
        let mut parents = sequential_parents(&g, 0);
        parents[2] = UNVISITED;
        let e = validate_bfs_tree(&g, 0, &parents).unwrap_err();
        assert!(matches!(e, ValidationError::Unreached { vertex: 2 }));
    }

    #[test]
    fn rejects_overreached_vertex() {
        let g = sample();
        let mut parents = sequential_parents(&g, 0);
        parents[4] = 0; // 4 is isolated
        let e = validate_bfs_tree(&g, 0, &parents).unwrap_err();
        assert!(matches!(e, ValidationError::Overreached { vertex: 4 }));
    }

    #[test]
    fn rejects_unvisited_parent() {
        // Directed graph where 2's parent claim points at an unvisited slot.
        let g = CsrGraph::from_edges_symmetric(4, &[(0, 1), (1, 2), (3, 2)]);
        let mut parents = sequential_parents(&g, 0);
        // 3 is reachable via 2; rewrite: mark 3 unvisited but keep 2 -> fails
        // first on Unreached for 3; instead test the UnvisitedParent arm on a
        // synthetic array.
        parents[2] = 3;
        parents[3] = UNVISITED;
        let e = validate_bfs_tree(&g, 0, &parents).unwrap_err();
        // 2 claims parent 3 which is unvisited -> either Unreached(3) or
        // UnvisitedParent(2,3) depending on scan order; both are rejections.
        assert!(matches!(
            e,
            ValidationError::UnvisitedParent { .. } | ValidationError::Unreached { .. }
        ));
    }

    #[test]
    fn empty_graph_validates_trivially() {
        let g = CsrGraph::from_edges(0, &[]);
        let levels = sequential_levels(&g, 0);
        assert!(levels.is_empty());
    }

    #[test]
    fn single_vertex_tree() {
        let g = CsrGraph::from_edges(1, &[]);
        let parents = sequential_parents(&g, 0);
        let info = validate_bfs_tree(&g, 0, &parents).unwrap();
        assert_eq!(info.visited, 1);
        assert_eq!(info.max_level, 0);
        assert_eq!(info.reachable_edges, 0);
    }

    #[test]
    fn self_loop_at_root_is_fine() {
        let g = CsrGraph::from_edges_symmetric(2, &[(0, 0), (0, 1)]);
        let parents = sequential_parents(&g, 0);
        let info = validate_bfs_tree(&g, 0, &parents).unwrap();
        assert_eq!(info.visited, 2);
    }

    #[test]
    fn error_display_is_informative() {
        let e = ValidationError::MissingEdge {
            vertex: 7,
            parent: 3,
        };
        assert_eq!(
            e.to_string(),
            "edge (3,7) claimed by tree but absent from graph"
        );
    }
}
