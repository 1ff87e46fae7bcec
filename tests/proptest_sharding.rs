//! Property tests (ISSUE 10): the sharded engine answers every query
//! kind identically to the single-process `QueryEngine`, at shard
//! counts that tile evenly (1, 2, 4) and unevenly (7), on both
//! scale-free R-MAT graphs and bounded-degree grids.
//!
//! "Identically" follows the repo's serving-parity convention: depths,
//! edge counts, st-connectivity distances and reachability verdicts are
//! byte-equal; parents are validated as a BFS tree whose implied depths
//! match the depth answer (MS-BFS parent races make the tree itself
//! legitimately nondeterministic across decompositions).
//!
//! The workers' sent filter (each (vertex, slot bit) pair crosses to its
//! owner at most once per wave) is checked exactly: against a reference
//! level loop that routes every foreign item unfiltered, depth *and*
//! parent rows must be byte-equal.

use multicore_bfs::gen::grid::{GridBuilder, Stencil};
use multicore_bfs::gen::prelude::*;
use multicore_bfs::graph::csr::CsrGraph;
use multicore_bfs::graph::shard::CsrShard;
use multicore_bfs::graph::validate::{depths_from_parents, validate_bfs_tree};
use multicore_bfs::query::{MsBfs, Query, QueryEngine, QueryResult, Slot};
use multicore_bfs::shard::ShardedEngine;
use proptest::prelude::*;

/// Strategy: a generated graph (R-MAT or 8-stencil grid) plus 1..=8
/// in-range source vertices.
fn arb_case() -> impl Strategy<Value = (CsrGraph, Vec<u32>)> {
    let rmat = (6u32..9, 4usize..9, any::<u64>())
        .prop_map(|(scale, degree, seed)| RmatBuilder::new(scale, degree).seed(seed).build());
    let grid = (4usize..12).prop_map(|side| GridBuilder::new(side, Stencil::Eight).build());
    prop_oneof![rmat, grid].prop_flat_map(|graph| {
        let n = graph.num_vertices() as u32;
        proptest::collection::vec(0..n, 1..=8).prop_map(move |sources| (graph.clone(), sources))
    })
}

/// One query of each kind in rotation, targets drawn from the same pool.
fn queries_from(sources: &[u32]) -> Vec<Query> {
    sources
        .iter()
        .enumerate()
        .map(|(i, &s)| {
            let t = sources[(i + 1) % sources.len()];
            match i % 4 {
                0 => Query::Parents { root: s },
                1 => Query::Distances { root: s },
                2 => Query::StCon { s, t },
                _ => Query::Reachable { from: s, to: t },
            }
        })
        .collect()
}

/// The sharded level loop without the sent filter: every shard's scan
/// routes each foreign `(v, u, mask)` to `v`'s owner, merged per
/// destination with senders in shard order, as the router merges them.
/// Returns each source's stitched depth and parent rows.
fn unfiltered_rows(graph: &CsrGraph, shards: usize, sources: &[u32]) -> Vec<(Vec<u32>, Vec<u32>)> {
    let cut: Vec<CsrShard> = (0..shards)
        .map(|i| CsrShard::cut(graph, shards, i))
        .collect();
    let slots = Slot::maps(sources, true);
    let kernels: Vec<MsBfs<CsrShard>> = cut.iter().map(|s| MsBfs::new(s, &slots)).collect();
    for depth in 1u32.. {
        let mut routed = vec![Vec::new(); shards];
        let mut local_next = false;
        for (shard, kernel) in cut.iter().zip(&kernels) {
            let counts = kernel.scan(depth, 0, 1, |v, u, mask| {
                routed[shard.owner_of(v)].push((v, u, mask))
            });
            local_next |= counts.parent_writes > 0;
        }
        if !local_next && routed.iter().all(Vec::is_empty) {
            break;
        }
        for (kernel, items) in kernels.iter().zip(routed) {
            kernel.apply(depth, items);
        }
    }
    let n = graph.num_vertices();
    let mut rows = vec![(vec![u32::MAX; n], vec![u32::MAX; n]); sources.len()];
    for (shard, kernel) in cut.iter().zip(kernels) {
        let range = shard.owned_range();
        for ((depths, parents), answer) in rows.iter_mut().zip(kernel.into_answers()) {
            depths[range.clone()].copy_from_slice(&answer.depths.expect("a map slot"));
            parents[range.clone()].copy_from_slice(&answer.parents.expect("a parents slot"));
        }
    }
    rows
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn sharded_engine_matches_single_process_at_every_shard_count(
        (graph, sources) in arb_case(),
    ) {
        let queries = queries_from(&sources);
        let single = QueryEngine::new(&graph).execute(&queries);
        for shards in [1usize, 2, 4, 7] {
            let report = ShardedEngine::new(&graph, shards).execute(&queries);
            prop_assert_eq!(report.outcomes.len(), single.outcomes.len());
            for (a, b) in single.outcomes.iter().zip(&report.outcomes) {
                prop_assert_eq!(a.id, b.id, "{} shards", shards);
                prop_assert_eq!(a.edges, b.edges, "{} shards", shards);
                match (&a.result, &b.result) {
                    (
                        QueryResult::Parents { depths: da, .. },
                        QueryResult::Parents { parents, depths: db },
                    ) => {
                        prop_assert_eq!(da, db, "{} shards", shards);
                        let Query::Parents { root } = a.query else { unreachable!() };
                        prop_assert!(validate_bfs_tree(&graph, root, parents).is_ok());
                        prop_assert_eq!(&depths_from_parents(parents), db);
                    }
                    (
                        QueryResult::Distances { depths: da },
                        QueryResult::Distances { depths: db },
                    ) => prop_assert_eq!(da, db, "{} shards", shards),
                    (
                        QueryResult::StCon { distance: x },
                        QueryResult::StCon { distance: y },
                    ) => prop_assert_eq!(x, y, "{} shards", shards),
                    (
                        QueryResult::Reachable { reachable: x },
                        QueryResult::Reachable { reachable: y },
                    ) => prop_assert_eq!(x, y, "{} shards", shards),
                    (x, y) => prop_assert!(false, "kind mismatch: {:?} vs {:?}", x, y),
                }
            }
        }
    }

    #[test]
    fn sent_filter_keeps_the_unfiltered_depths_and_parents(
        (graph, sources) in arb_case(),
    ) {
        let queries: Vec<Query> = sources.iter().map(|&root| Query::Parents { root }).collect();
        for shards in [2usize, 4, 7] {
            let reference = unfiltered_rows(&graph, shards, &sources);
            let report = ShardedEngine::new(&graph, shards).execute(&queries);
            prop_assert_eq!(report.waves.len(), 1);
            for (outcome, (depths, parents)) in report.outcomes.iter().zip(&reference) {
                let QueryResult::Parents { parents: p, depths: d } = &outcome.result else {
                    unreachable!()
                };
                prop_assert_eq!(d, depths, "{} shards", shards);
                prop_assert_eq!(p, parents, "{} shards", shards);
            }
        }
    }
}
