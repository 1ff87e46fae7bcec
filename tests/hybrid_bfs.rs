//! Acceptance test for the direction-optimizing hybrid BFS: on an R-MAT
//! scale-16 graph the hybrid must examine at most half the edges of the
//! strictly top-down Algorithm 2 (measured through the `WorkProfile` edge
//! counters), while still producing a valid BFS tree and reporting its
//! per-level direction decisions.

use multicore_bfs::core::algo::hybrid::ForcedDirection;
use multicore_bfs::core::algo::level::{bfs, VariantConfig};
use multicore_bfs::core::runner::{Algorithm, BfsRunner, ExecMode};
use multicore_bfs::gen::prelude::*;
use multicore_bfs::graph::validate::validate_bfs_tree;
use multicore_bfs::machine::model::MachineModel;
use multicore_bfs::machine::profile::Direction;

#[test]
fn rmat_scale16_hybrid_examines_at_most_half_the_edges() {
    let g = RmatBuilder::new(16, 8).seed(1).build();
    let root = 0;
    let hybrid = bfs(&g, root, 4, VariantConfig::hybrid(ForcedDirection::Auto));
    let topdown = bfs(&g, root, 4, VariantConfig::algorithm2());

    // Same traversal, so the workload must be comparable.
    validate_bfs_tree(&g, root, &hybrid.parents).unwrap();
    assert_eq!(hybrid.visited, topdown.visited);
    assert!(
        hybrid.visited as usize > g.num_vertices() / 2,
        "root should reach the giant component ({} of {})",
        hybrid.visited,
        g.num_vertices()
    );

    // The headline claim: at most half the edge examinations.
    assert!(
        hybrid.profile.edges_traversed * 2 <= topdown.profile.edges_traversed,
        "hybrid examined {} edges, top-down {} — expected at most half",
        hybrid.profile.edges_traversed,
        topdown.profile.edges_traversed
    );

    // The saving must be visible in the instrumentation: bottom-up levels
    // tagged in the profile, early-exited adjacency entries counted.
    assert!(hybrid
        .profile
        .levels
        .iter()
        .any(|l| l.direction == Direction::BottomUp));
    assert!(hybrid.profile.total().edges_skipped > 0);
    let dirs = hybrid.profile.direction_string();
    assert_eq!(dirs.len(), hybrid.profile.num_levels());
    assert!(dirs.starts_with('T'), "level 0 must be top-down: {dirs:?}");
}

#[test]
fn forced_policies_agree_on_the_reachable_set() {
    let g = RmatBuilder::new(13, 8).seed(3).build();
    let reference = bfs(&g, 0, 4, VariantConfig::hybrid(ForcedDirection::Auto));
    for policy in [
        ForcedDirection::TopDown,
        ForcedDirection::BottomUp,
        ForcedDirection::Alternate,
    ] {
        let run = bfs(&g, 0, 4, VariantConfig::hybrid(policy));
        validate_bfs_tree(&g, 0, &run.parents).unwrap_or_else(|e| panic!("{policy:?}: {e}"));
        assert_eq!(run.visited, reference.visited, "{policy:?}");
    }
}

#[test]
fn model_mode_schedules_bottom_up_levels() {
    // Model mode runs the level loop's per-level code and direction switch
    // on virtual threads, so it reports the native direction schedule.
    let g = RmatBuilder::new(12, 8).seed(5).build();
    let native = BfsRunner::new(&g)
        .algorithm(Algorithm::hybrid())
        .threads(4)
        .run(0);
    let modeled = BfsRunner::new(&g)
        .algorithm(Algorithm::hybrid())
        .threads(4)
        .mode(ExecMode::model(MachineModel::nehalem_ep()))
        .run(0);
    assert_eq!(
        native.profile.direction_string(),
        modeled.profile.direction_string()
    );
    assert!(modeled.profile.direction_string().contains('B'));
    assert!(modeled.stats.seconds > 0.0);
}
