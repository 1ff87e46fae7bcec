//! Property test: the multi-source BFS gives every slot of a wave the
//! sequential reference's answer, whatever the graph, the wave width, the
//! thread count, the executor, the direction policy and the mix of map and
//! point slots. A map slot's depth row must equal the reference levels; a
//! point slot's target depth must equal the reference level of its target
//! (a target equal to its source, and one the search never reaches,
//! included); every slot's tallied histogram and TEPS numerator must equal
//! `depth_histogram` and `reachable_edges` of the reference levels. Top-down
//! levels pick parents by claim order and bottom-up levels by adjacency
//! order, so each recorded parent is checked on its own: one level up, and
//! joined to its child by a real edge. Every top-down level must scan
//! exactly its frontier, which pins the frontier buffers across direction
//! changes.

use multicore_bfs::core::algo::hybrid::ForcedDirection;
use multicore_bfs::graph::csr::{CsrGraph, VertexId, UNVISITED};
use multicore_bfs::graph::validate::{depth_histogram, reachable_edges, sequential_levels};
use multicore_bfs::machine::profile::Direction;
use multicore_bfs::query::{ms_bfs, ms_bfs_deterministic, Slot};
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

/// A wave slot from `source`, whose reference levels are `levels`: `kind`
/// picks a map slot with or without parents, or a point slot whose target
/// is `pick`, the source itself, or a vertex the search never reaches (the
/// source when it reaches them all).
fn slot(kind: u8, source: VertexId, pick: u32, levels: &[u32]) -> Slot {
    let point = |target| Slot::Point { source, target };
    let unreached = levels.iter().position(|&d| d == u32::MAX);
    match kind {
        0 | 1 => Slot::Map {
            source,
            parents: kind == 0,
        },
        2 => point(pick % levels.len() as u32),
        3 => point(source),
        _ => point(unreached.map_or(source, |v| v as VertexId)),
    }
}

proptest! {
    // Each case runs 3 widths x 2 thread counts x 2 executors x 4 policies.
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn msbfs_depths_and_parents_match_sequential_bfs(
        g in symmetric_graph(),
        picks in proptest::collection::vec(any::<u32>(), 64),
        targets in proptest::collection::vec(any::<u32>(), 64),
        kinds in proptest::collection::vec(0u8..5, 64),
    ) {
        let n = g.num_vertices();
        for width in [1usize, 2, 64] {
            let sources: Vec<VertexId> =
                picks[..width].iter().map(|&p| p % n as u32).collect();
            let reference: Vec<Vec<u32>> =
                sources.iter().map(|&s| sequential_levels(&g, s)).collect();
            let slots: Vec<Slot> = (0..width)
                .map(|q| slot(kinds[q], sources[q], targets[q], &reference[q]))
                .collect();
            for policy in POLICIES {
                for threads in [1usize, 3] {
                    for model in [false, true] {
                        let run = if model {
                            ms_bfs_deterministic(&g, &slots, threads, policy)
                        } else {
                            ms_bfs(&g, &slots, threads, policy)
                        }
                        .finish();
                        let case = format!("{policy:?} x{threads} model={model} width {width}");
                        prop_assert_eq!(run.slots.len(), width, "{}", case);
                        for (q, (answer, levels)) in run.slots.iter().zip(&reference).enumerate() {
                            let case = format!("{case} slot {q} {:?}", slots[q]);
                            prop_assert_eq!(&answer.depth_histogram, &depth_histogram(levels), "{}", case);
                            prop_assert_eq!(answer.edges, reachable_edges(&g, levels), "{}", case);
                            match slots[q] {
                                Slot::Point { target, .. } => {
                                    let level = levels[target as usize];
                                    prop_assert_eq!(answer.target_depth, (level != u32::MAX).then_some(level), "{}", case);
                                    prop_assert!(answer.depths.is_none() && answer.parents.is_none(), "{}", case);
                                }
                                Slot::Map { source, parents } => {
                                    prop_assert_eq!(answer.target_depth, None, "{}", case);
                                    let ds = answer.depths.as_ref().expect("map slots have rows");
                                    prop_assert_eq!(ds, levels, "{}", case);
                                    prop_assert_eq!(answer.parents.is_some(), parents, "{}", case);
                                    for (v, (&p, &d)) in answer.parents.iter().flatten().zip(ds).enumerate() {
                                        if d == u32::MAX {
                                            prop_assert_eq!(p, UNVISITED, "{}", case);
                                        } else if d == 0 {
                                            prop_assert_eq!(p, source, "{}", case);
                                        } else {
                                            prop_assert_eq!(ds[p as usize], d - 1, "{} vertex {}", case, v);
                                            prop_assert!(g.has_edge(p, v as VertexId), "{} vertex {}", case, v);
                                        }
                                    }
                                }
                            }
                        }
                        // A top-down level scans exactly the frontier it reads:
                        // the vertices some slot reached one level earlier, and
                        // no word a bottom-up level left behind.
                        for (l, level) in run.profile.levels.iter().enumerate() {
                            if level.direction != Direction::TopDown {
                                continue;
                            }
                            let frontier = (0..n)
                                .filter(|&v| reference.iter().any(|ds| ds[v] == l as u32))
                                .count() as u64;
                            prop_assert_eq!(level.total().vertices_scanned, frontier, "{} level {}", case, l);
                        }
                    }
                }
            }
        }
    }
}
