//! Integration tests of the application layer built on the BFS substrate:
//! the Graph500-style kernel, st-connectivity, connected components, the
//! distributed-memory extension (the sharded engine), and graph
//! transformations — composed across crates the way a downstream user
//! would.

use multicore_bfs::core::components::connected_components;
use multicore_bfs::core::kernel::{run_kernel, sample_roots};
use multicore_bfs::core::runner::{Algorithm, ExecMode};
use multicore_bfs::core::stcon::{st_connectivity, StConnectivity};
use multicore_bfs::gen::prelude::*;
use multicore_bfs::graph::ops::{induced_subgraph, is_symmetric, transpose};
use multicore_bfs::graph::validate::{sequential_levels, validate_bfs_tree};
use multicore_bfs::machine::model::MachineModel;
use multicore_bfs::query::{Query, QueryResult};
use multicore_bfs::shard::ShardedEngine;

#[test]
fn kernel_runs_every_algorithm_mode_combination() {
    let g = RmatBuilder::new(9, 6).seed(51).permute(true).build();
    for algo in [
        Algorithm::Sequential,
        Algorithm::SingleSocket,
        Algorithm::MultiSocket { sockets: 2 },
    ] {
        let native = run_kernel(&g, algo, 2, ExecMode::Native, 4, 1);
        assert_eq!(native.searches, 4);
        assert!(native.harmonic_mean_teps > 0.0);
        let modelled = run_kernel(
            &g,
            algo,
            8,
            ExecMode::model(MachineModel::nehalem_ep()),
            4,
            1,
        );
        assert_eq!(modelled.searches, 4);
        // Same roots, same graph ⇒ same total traversed edges regardless
        // of mode or algorithm.
        assert_eq!(native.total_edges, modelled.total_edges, "{algo:?}");
    }
}

#[test]
fn stcon_agrees_with_component_labels() {
    let g = Ssca2Builder::new(800)
        .max_clique_size(10)
        .prob_interclique(0.3)
        .seed(5)
        .build();
    let comps = connected_components(&g, 2, 256);
    let mut connected_checked = 0;
    let mut disconnected_checked = 0;
    for (s, t) in [(0u32, 1u32), (0, 400), (0, 799), (100, 700), (250, 251)] {
        let same_component = comps.labels[s as usize] == comps.labels[t as usize];
        match st_connectivity(&g, s, t) {
            StConnectivity::Connected { path, .. } => {
                assert!(
                    same_component,
                    "stcon found a path across components ({s},{t})"
                );
                assert_eq!(path[0], s);
                assert_eq!(*path.last().unwrap(), t);
                connected_checked += 1;
            }
            StConnectivity::Disconnected { .. } => {
                assert!(
                    !same_component,
                    "stcon missed a path within a component ({s},{t})"
                );
                disconnected_checked += 1;
            }
        }
    }
    assert!(connected_checked + disconnected_checked == 5);
}

#[test]
fn distributed_extension_agrees_with_shared_memory_algorithms() {
    let g = RmatBuilder::new(10, 6).seed(52).permute(true).build();
    let seq = multicore_bfs::core::algo::sequential::bfs_sequential(&g, 4);
    let report = ShardedEngine::new(&g, 4).execute(&[Query::Parents { root: 4 }]);
    let outcome = &report.outcomes[0];
    let QueryResult::Parents { parents, depths } = &outcome.result else {
        panic!("expected a parents answer");
    };
    validate_bfs_tree(&g, 4, parents).unwrap();
    let visited = depths.iter().filter(|&&d| d != u32::MAX).count() as u64;
    assert_eq!(visited, seq.visited);
    assert_eq!(outcome.edges, seq.profile.edges_traversed);
}

#[test]
fn bfs_on_largest_component_subgraph() {
    // Downstream pattern: find the giant component, extract it, analyze it.
    let g = RmatBuilder::new(10, 3).seed(53).build();
    let comps = connected_components(&g, 2, 512);
    let giant_root = comps.sizes[0].0;
    let members: Vec<u32> = (0..g.num_vertices() as u32)
        .filter(|&v| comps.labels[v as usize] == giant_root)
        .collect();
    let (sub, map) = induced_subgraph(&g, &members);
    assert_eq!(sub.num_vertices(), comps.largest());
    // The subgraph is fully connected from any vertex.
    let levels = sequential_levels(&sub, 0);
    assert!(
        levels.iter().all(|&l| l != u32::MAX),
        "giant component must be connected"
    );
    // And ids map back into the original graph.
    assert!(map
        .iter()
        .all(|&old| comps.labels[old as usize] == giant_root));
}

#[test]
fn transpose_of_benchmark_graphs_is_identity() {
    let g = UniformBuilder::new(500, 4).seed(54).build();
    assert!(is_symmetric(&g));
    assert_eq!(transpose(&g), g);
}

#[test]
fn kernel_roots_cover_high_degree_and_low_degree_vertices() {
    let g = RmatBuilder::new(11, 8).seed(55).build();
    let roots = sample_roots(&g, 32, 3);
    let degrees: Vec<usize> = roots.iter().map(|&r| g.degree(r)).collect();
    // A random sample of a power-law graph includes non-hub roots.
    assert!(degrees.iter().any(|&d| d < 32), "degrees: {degrees:?}");
    // Every BFS from these roots validates (kernel asserts internally).
    run_kernel(&g, Algorithm::SingleSocket, 2, ExecMode::Native, 8, 3);
}
