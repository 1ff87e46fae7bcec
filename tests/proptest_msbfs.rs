//! Property test: the multi-source BFS gives every slot of a wave the
//! sequential reference's depths, whatever the graph, the wave width, the
//! thread count, the executor and the direction policy. Top-down levels
//! pick parents by claim order and bottom-up levels by adjacency order, so
//! each recorded parent is checked on its own: one level up, and joined to
//! its child by a real edge. Every top-down level must scan exactly its
//! frontier, which pins the frontier buffers across direction changes.

use multicore_bfs::core::algo::hybrid::ForcedDirection;
use multicore_bfs::graph::csr::{CsrGraph, VertexId, UNVISITED};
use multicore_bfs::graph::validate::sequential_levels;
use multicore_bfs::machine::profile::Direction;
use multicore_bfs::query::{ms_bfs, ms_bfs_deterministic};
use proptest::prelude::*;

const POLICIES: [ForcedDirection; 4] = [
    ForcedDirection::Auto,
    ForcedDirection::TopDown,
    ForcedDirection::BottomUp,
    ForcedDirection::Alternate,
];

/// A random symmetric graph: `n` vertices and up to 4n undirected edges,
/// self-loops and repeats included.
fn symmetric_graph() -> impl Strategy<Value = CsrGraph> {
    (1usize..160).prop_flat_map(|n| {
        let v = 0..n as VertexId;
        proptest::collection::vec((v.clone(), v), 0..4 * n)
            .prop_map(move |edges| CsrGraph::from_edges_symmetric(n, &edges))
    })
}

proptest! {
    // Each case runs 3 widths x 2 thread counts x 2 executors x 4 policies.
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn msbfs_depths_and_parents_match_sequential_bfs(
        g in symmetric_graph(),
        picks in proptest::collection::vec(any::<u32>(), 64),
    ) {
        let n = g.num_vertices();
        for width in [1usize, 2, 64] {
            let sources: Vec<VertexId> =
                picks[..width].iter().map(|&p| p % n as u32).collect();
            let reference: Vec<Vec<u32>> =
                sources.iter().map(|&s| sequential_levels(&g, s)).collect();
            for policy in POLICIES {
                for threads in [1usize, 3] {
                    for model in [false, true] {
                        let run = if model {
                            ms_bfs_deterministic(&g, &sources, threads, true, policy)
                        } else {
                            ms_bfs(&g, &sources, threads, true, policy)
                        }
                        .finish();
                        let case = format!("{policy:?} x{threads} model={model} width {width}");
                        prop_assert_eq!(&run.depths, &reference, "{}", case);
                        // A top-down level scans exactly the frontier it reads:
                        // the vertices some slot reached one level earlier, and
                        // no word a bottom-up level left behind.
                        for (l, level) in run.profile.levels.iter().enumerate() {
                            if level.direction != Direction::TopDown {
                                continue;
                            }
                            let frontier = (0..n)
                                .filter(|&v| run.depths.iter().any(|ds| ds[v] == l as u32))
                                .count() as u64;
                            prop_assert_eq!(level.total().vertices_scanned, frontier, "{} level {}", case, l);
                        }
                        let parents = run.parents.expect("requested");
                        for (q, (ps, ds)) in parents.iter().zip(&run.depths).enumerate() {
                            for (v, (&p, &d)) in ps.iter().zip(ds).enumerate() {
                                if d == u32::MAX {
                                    prop_assert_eq!(p, UNVISITED, "{}", case);
                                } else if d == 0 {
                                    prop_assert_eq!(p, sources[q], "{}", case);
                                } else {
                                    prop_assert_eq!(ds[p as usize], d - 1, "{} slot {} vertex {}", case, q, v);
                                    prop_assert!(g.has_edge(p, v as VertexId), "{} slot {} vertex {}", case, q, v);
                                }
                            }
                        }
                    }
                }
            }
        }
    }
}
