//! Property test: the hybrid BFS assigns every vertex the same depth as the
//! sequential reference, for any graph family, direction policy, and thread
//! count. Depth equivalence is stronger than reachability equivalence —
//! every valid BFS tree realizes the true distance for each vertex, and the
//! bottom-up sweep picks parents by a completely different rule (first
//! frontier neighbour in adjacency order, not first claimer), so this pins
//! down exactly the invariant that must survive the direction switches.

use multicore_bfs::core::algo::hybrid::ForcedDirection;
use multicore_bfs::core::algo::level::{bfs, VariantConfig};
use multicore_bfs::gen::prelude::*;
use multicore_bfs::graph::csr::{CsrGraph, UNVISITED};
use multicore_bfs::graph::validate::{sequential_levels, validate_bfs_tree};
use proptest::prelude::*;

/// Depth of `v` obtained by walking the parent chain to the root.
fn depth_via_parents(parents: &[u32], v: usize) -> Option<u32> {
    if parents[v] == UNVISITED {
        return None;
    }
    let mut cur = v;
    let mut depth = 0u32;
    while parents[cur] as usize != cur {
        cur = parents[cur] as usize;
        depth += 1;
        assert!(
            (depth as usize) <= parents.len(),
            "cycle in parent chain at {v}"
        );
    }
    Some(depth)
}

fn build(family: usize, seed: u64) -> CsrGraph {
    match family {
        0 => RmatBuilder::new(9, 6).seed(seed).build(),
        1 => UniformBuilder::new(700, 5).seed(seed).build(),
        _ => Ssca2Builder::new(600)
            .max_clique_size(10)
            .seed(seed)
            .build(),
    }
}

proptest! {
    // Each case internally loops over 4 policies × 3 thread counts, so a
    // small case count still covers hundreds of full traversals.
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn hybrid_depths_match_sequential_bfs(
        family in 0usize..3,
        seed in 1u64..10_000,
        root_pick in 0usize..64,
    ) {
        let g = build(family, seed);
        let root = (root_pick % g.num_vertices()) as u32;
        let reference = sequential_levels(&g, root);
        for policy in [
            ForcedDirection::Auto,
            ForcedDirection::TopDown,
            ForcedDirection::BottomUp,
            ForcedDirection::Alternate,
        ] {
            for threads in [1usize, 2, 4] {
                let run = bfs(&g, root, threads, VariantConfig::hybrid(policy));
                validate_bfs_tree(&g, root, &run.parents)
                    .unwrap_or_else(|e| panic!("{policy:?} x{threads}: {e}"));
                for (v, &ref_depth) in reference.iter().enumerate() {
                    let got = depth_via_parents(&run.parents, v);
                    let expected = if ref_depth == u32::MAX {
                        None
                    } else {
                        Some(ref_depth)
                    };
                    prop_assert_eq!(
                        got, expected,
                        "{:?} x{}: vertex {} depth mismatch", policy, threads, v
                    );
                }
            }
        }
    }
}
