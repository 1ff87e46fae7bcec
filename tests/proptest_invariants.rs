//! Property-based tests over randomly generated graphs: every algorithm
//! must produce a valid BFS tree with the correct reachable set, the IO
//! layer must round-trip, and the partition must tile.

use multicore_bfs::core::algo::hybrid::ForcedDirection;
use multicore_bfs::core::algo::level::{bfs, bfs_deterministic, VariantConfig};
use multicore_bfs::core::runner::{Algorithm, BfsRunner};
use multicore_bfs::graph::csr::{CsrGraph, VertexId};
use multicore_bfs::graph::io;
use multicore_bfs::graph::partition::VertexPartition;
use multicore_bfs::graph::validate::{sequential_levels, validate_bfs_tree};
use proptest::prelude::*;

/// Strategy: an arbitrary undirected graph with 1..=64 vertices and up to
/// 200 edges (self-loops and duplicates included on purpose).
fn arb_graph() -> impl Strategy<Value = (CsrGraph, VertexId)> {
    (1usize..=64).prop_flat_map(|n| {
        let edges = proptest::collection::vec((0..n as u32, 0..n as u32), 0..200);
        let root = 0..n as u32;
        (edges, root)
            .prop_map(move |(edges, root)| (CsrGraph::from_edges_symmetric(n, &edges), root))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn all_native_algorithms_yield_valid_trees((graph, root) in arb_graph(), threads in 1usize..5) {
        for algo in [
            Algorithm::Sequential,
            Algorithm::Simple,
            Algorithm::SingleSocket,
            Algorithm::MultiSocket { sockets: 2 },
            Algorithm::hybrid(),
        ] {
            let r = BfsRunner::new(&graph).algorithm(algo).threads(threads).run(root);
            let info = validate_bfs_tree(&graph, root, &r.parents)
                .map_err(|e| TestCaseError::fail(format!("{algo:?}: {e}")))?;
            let expected = sequential_levels(&graph, root)
                .iter()
                .filter(|&&l| l != u32::MAX)
                .count();
            prop_assert_eq!(info.visited, expected);
        }
    }

    #[test]
    fn simulated_variants_yield_valid_trees((graph, root) in arb_graph(), threads in 1usize..9) {
        for config in [
            VariantConfig::algorithm1(),
            VariantConfig::algorithm2(),
            VariantConfig::algorithm3(2),
            VariantConfig::algorithm3(3),
            VariantConfig::algorithm2_multisocket(2),
            VariantConfig::hybrid(ForcedDirection::Auto),
            VariantConfig::hybrid(ForcedDirection::BottomUp),
            VariantConfig::hybrid(ForcedDirection::Alternate),
        ] {
            let sim = bfs_deterministic(&graph, root, threads, config);
            let native = bfs(&graph, root, threads, config);
            for run in [&sim, &native] {
                validate_bfs_tree(&graph, root, &run.parents)
                    .map_err(|e| TestCaseError::fail(format!("{config:?}: {e}")))?;
                // Conservation: every scanned edge was probed exactly once.
                let t = run.profile.total();
                prop_assert_eq!(t.bitmap_reads, t.edges_scanned);
                prop_assert_eq!(t.channel_items, t.channel_drained);
            }
            let t = sim.profile.total();
            prop_assert!(t.atomic_ops <= t.edges_scanned + t.vertices_scanned + 64);
        }
    }

    #[test]
    fn csr_io_roundtrips((graph, _root) in arb_graph()) {
        let mut buf = Vec::new();
        io::write_csr(&mut buf, &graph).unwrap();
        let back = io::read_csr(&mut &buf[..]).unwrap();
        prop_assert_eq!(graph, back);
    }

    #[test]
    fn partition_tiles_and_is_balanced(n in 0usize..10_000, sockets in 1usize..17) {
        let p = VertexPartition::new(n, sockets);
        let mut cursor = 0usize;
        let mut sizes = Vec::new();
        for s in 0..sockets {
            let r = p.range(s);
            prop_assert_eq!(r.start, cursor);
            cursor = r.end;
            sizes.push(r.len());
        }
        prop_assert_eq!(cursor, n);
        let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
        prop_assert!(max - min <= 1, "partition must be balanced: {:?}", sizes);
        // socket_of agrees with the ranges.
        for v in (0..n).step_by((n / 50).max(1)) {
            let s = p.socket_of(v as u32);
            prop_assert!(p.range(s).contains(&v));
        }
    }

    #[test]
    fn degree_sum_equals_edge_count(edges in proptest::collection::vec((0u32..50, 0u32..50), 0..200)) {
        let g = CsrGraph::from_edges(50, &edges);
        let degree_sum: usize = (0..50u32).map(|v| g.degree(v)).sum();
        prop_assert_eq!(degree_sum, edges.len());
        prop_assert_eq!(g.num_edges(), edges.len());
    }

    #[test]
    fn bfs_levels_respect_triangle_inequality((graph, root) in arb_graph()) {
        // For every edge (u, v): |level(u) - level(v)| <= 1 when both are
        // reachable — the defining property of BFS levels.
        let levels = sequential_levels(&graph, root);
        for (u, v) in graph.edges() {
            let (lu, lv) = (levels[u as usize], levels[v as usize]);
            if lu != u32::MAX {
                prop_assert!(lv != u32::MAX, "neighbour of reachable vertex must be reachable");
                prop_assert!(lu.abs_diff(lv) <= 1, "edge ({u},{v}): levels {lu},{lv}");
            }
        }
    }
}
