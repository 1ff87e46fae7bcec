//! Direction-optimizing hybrid BFS (top-down / bottom-up switching).
//!
//! The paper's Algorithms 1–3 are strictly top-down: every level scans all
//! edges out of the frontier, even in the dense middle levels where >90% of
//! probed neighbours are already visited (the Fig. 4 phenomenon). The
//! canonical fix from the follow-up literature is to run those levels
//! *bottom-up*: sweep the unvisited vertices and search each one's
//! adjacency for a frontier member, stopping at the first hit — on
//! low-diameter graphs the early exit skips the bulk of the edge
//! examinations.
//!
//! The direction is a policy of the one level loop,
//! [`VariantConfig::direction`](super::level::VariantConfig::direction):
//! [`level::bfs`](super::level::bfs) and
//! [`level::bfs_deterministic`](super::level::bfs_deterministic) run every
//! variant, and [`VariantConfig::hybrid`](super::level::VariantConfig::hybrid)
//! is Algorithm 2 under a policy other than [`ForcedDirection::TopDown`].
//! This module holds the direction's pieces:
//!
//! * **top-down levels** *are* the level loop's levels — 16-probe
//!   pipelined windows of test-then-set claims on the visited bitmap,
//!   batched enqueues — through `Tally`, which counts Beamer's m_f when
//!   the heuristic needs it;
//! * **bottom-up levels** sweep the visited bitmap word by word (64
//!   not-yet-visited flags per load), probe a *dense* frontier bitmap, and
//!   early-exit each adjacency scan — skipped entries are counted in
//!   `edges_skipped` so the saving is visible in profiles. The sweep and
//!   the sparse/dense conversions are `LevelState` pieces, written here;
//! * the **switch heuristic** ([`Switch`]) follows Beamer et al.: go
//!   bottom-up when the frontier's out-edge count exceeds `1/ALPHA` of the
//!   edges still incident to unvisited vertices, return top-down when the
//!   frontier shrinks below `n / BETA` vertices. It is public because the
//!   multi-source BFS of `mcbfs-query` switches by the same rule, counted
//!   in words of source masks instead of vertices.
//!
//! A switching direction needs one socket, the visited bitmap and chunked
//! queues, which `LevelState::new` asserts. Bottom-up correctness requires
//! a symmetric (undirected) graph — `u` finds its parent by scanning its
//! own adjacency, which must mirror the parent's. Every generator in this
//! workspace emits symmetric graphs.

use crate::algo::level::{Frontier, Hop, LevelState, Sink};
use mcbfs_graph::bitmap::bits_of_word;
use mcbfs_graph::csr::{CsrGraph, VertexId};
use mcbfs_graph::frontier::{chunk_of, densify_chunk, sparsify_chunk};
use mcbfs_machine::profile::Direction::{BottomUp, TopDown};
use mcbfs_machine::profile::{Direction, ThreadCounts, WorkProfile};

/// Switch top-down → bottom-up when
/// `frontier_edges > unexplored_edges / ALPHA` (Beamer's default).
pub const ALPHA: f64 = 14.0;

/// Switch bottom-up → top-down when `frontier_vertices < n / BETA`
/// (Beamer's default).
pub const BETA: f64 = 24.0;

/// Direction policy of a [`VariantConfig`](super::level::VariantConfig):
/// the heuristic, or one of three forcing modes for ablation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ForcedDirection {
    /// Decide per level with the ALPHA/BETA heuristic (the real design).
    #[default]
    Auto,
    /// Every level top-down — Algorithms 1–3, and
    /// `VariantConfig::hybrid(TopDown) == VariantConfig::algorithm2()`.
    TopDown,
    /// Every level bottom-up — pays the full unvisited sweep even on
    /// sparse levels; the upper bound on what switching must beat.
    BottomUp,
    /// Alternate directions every level — exercises both conversion paths
    /// regardless of graph shape (test/ablation mode).
    Alternate,
}

/// A top-down level's sink: `level`'s sink, tallying Beamer's m_f — the
/// adjacency entries of every vertex discovered — as discoveries happen.
/// The heuristic reads m_f, and summed over the levels it is the TEPS
/// numerator of a search that can run bottom-up levels, whose scans skip
/// entries. A top-down-only search scans every reached row whole, so only
/// under a policy other than [`ForcedDirection::TopDown`] does a discovery
/// pay the degree lookup, a random read.
pub(super) struct Tally<'g, S> {
    graph: Option<&'g CsrGraph>,
    pub(super) inner: S,
    found_edges: u64,
}

impl<'g, S: Sink> Tally<'g, S> {
    pub(super) fn new(graph: &'g CsrGraph, policy: ForcedDirection, inner: S) -> Self {
        Self {
            graph: (policy != ForcedDirection::TopDown).then_some(graph),
            inner,
            found_edges: 0,
        }
    }

    /// The m_f tallied since the last call (0 under `TopDown`).
    pub(super) fn take_found_edges(&mut self) -> u64 {
        core::mem::take(&mut self.found_edges)
    }
}

impl<S: Sink> Sink for Tally<'_, S> {
    #[inline]
    fn discovered(&mut self, dst: usize, v: VertexId, counts: &mut ThreadCounts) {
        if let Some(graph) = self.graph {
            self.found_edges += graph.degree(v) as u64;
        }
        self.inner.discovered(dst, v, counts);
    }

    fn send(&mut self, dst: usize, hop: Hop, counts: &mut ThreadCounts) {
        self.inner.send(dst, hop, counts);
    }

    fn run_as(&mut self, tid: usize) {
        self.inner.run_as(tid);
    }
}

/// The bottom-up pieces of the level state, which `LevelState::new` admits
/// only on one socket with the visited bitmap and chunked queues.
impl LevelState<'_> {
    /// Thread `tid`'s share of a bottom-up level: every unvisited vertex in
    /// its contiguous range of visited-bitmap words searches its adjacency
    /// for a member of the dense frontier at `parity` and stops at the
    /// first hit. The thread owns its word range, so claims within it are
    /// race-free plain stores — no lock-prefixed operations at all. Returns
    /// the share's m_f.
    pub(super) fn sweep_bottom_up(
        &self,
        parity: usize,
        tid: usize,
        threads: usize,
        counts: &mut ThreadCounts,
    ) -> u64 {
        let graph = self.graph;
        let (parents, visited) = (&self.parents, &self.visited[0]);
        let (cur, nxt) = (&self.dense[parity], &self.dense[1 - parity]);
        let mut found_edges = 0;
        for wi in chunk_of(visited.num_words(), tid, threads) {
            let unvisited = !visited.word(wi) & visited.word_mask(wi);
            if unvisited == 0 {
                continue;
            }
            let mut claimed_mask = 0u64;
            for bit in bits_of_word(unvisited) {
                let u = (wi * 64 + bit) as VertexId;
                let neigh = graph.neighbors(u);
                let hit = neigh.iter().position(|&v| cur.test(v as usize));
                let examined = hit.map_or(neigh.len(), |i| i + 1) as u64;
                counts.vertices_scanned += 1;
                counts.edges_scanned += examined;
                counts.bitmap_reads += examined;
                if let Some(i) = hit {
                    parents.store(u, neigh[i]);
                    counts.parent_writes += 1;
                    counts.queue_pushes += 1;
                    counts.edges_skipped += (neigh.len() - 1 - i) as u64;
                    claimed_mask |= 1u64 << bit;
                    found_edges += neigh.len() as u64;
                }
            }
            if claimed_mask != 0 {
                visited.set_word(wi, visited.word(wi) | claimed_mask);
                nxt.set_word(wi, claimed_mask);
            }
        }
        found_edges
    }

    /// Thread `tid`'s share of converting the frontier at index `next` into
    /// the representation direction `to` reads. Returns the cost, which is
    /// charged to the level the conversion prepares.
    pub(super) fn convert(
        &self,
        next: usize,
        to: Direction,
        tid: usize,
        threads: usize,
    ) -> ThreadCounts {
        let Frontier::Chunked(sparse) = &self.queues[next][0] else {
            unreachable!("LevelState::new admits a switching direction only with chunked queues")
        };
        let dense = &self.dense[next];
        let mut cost = ThreadCounts::default();
        if to == BottomUp {
            let converted = densify_chunk(sparse, dense, tid, threads);
            cost.atomic_ops = converted as u64; // fetch_or per vertex
        } else {
            let converted = sparsify_chunk(dense, sparse, tid, threads);
            cost.queue_pushes = converted as u64;
            cost.atomic_ops = 1; // batch reservation
        }
        cost
    }
}

/// The decision between levels: Beamer's heuristic or a forced policy,
/// plus the log of every level's direction. The level loop feeds it
/// vertices; the multi-source BFS of `mcbfs-query` feeds it words of
/// source masks, where a word joins the frontier when it gains any bit and
/// is settled once it holds every source.
pub struct Switch {
    policy: ForcedDirection,
    n: usize,
    /// Directed edges still incident to unsettled vertices (Beamer's m_u).
    unexplored_edges: u64,
    directions: Vec<Direction>,
}

impl Switch {
    /// A switch under `policy` for a search over `n` vertices, of whose
    /// edges `unexplored_edges` are incident to vertices not yet settled.
    pub fn new(policy: ForcedDirection, n: usize, unexplored_edges: u64) -> Self {
        Self {
            policy,
            n,
            unexplored_edges,
            directions: Vec::new(),
        }
    }

    /// The first level's direction.
    pub fn initial(&self) -> Direction {
        match self.policy {
            ForcedDirection::BottomUp => BottomUp,
            _ => TopDown,
        }
    }

    /// Logs a finished level that ran in direction `dir`, left a frontier
    /// of `frontier` vertices with `frontier_edges` adjacency entries (m_f)
    /// and settled vertices with `settled_edges` entries, and picks the
    /// next level's direction. A single search settles exactly its
    /// frontier, so the level loop passes m_f twice.
    pub fn next(
        &mut self,
        dir: Direction,
        frontier: u64,
        frontier_edges: u64,
        settled_edges: u64,
    ) -> Direction {
        self.directions.push(dir);
        self.unexplored_edges = self.unexplored_edges.saturating_sub(settled_edges);
        match self.policy {
            ForcedDirection::TopDown => TopDown,
            ForcedDirection::BottomUp => BottomUp,
            ForcedDirection::Alternate if dir == TopDown => BottomUp,
            ForcedDirection::Alternate => TopDown,
            ForcedDirection::Auto => {
                if dir == TopDown && frontier_edges as f64 > self.unexplored_edges as f64 / ALPHA {
                    BottomUp
                } else if dir == BottomUp && (frontier as f64) < self.n as f64 / BETA {
                    TopDown
                } else {
                    dir
                }
            }
        }
    }

    /// Stamps each level of `profile` with the direction it ran in.
    pub fn stamp(self, profile: &mut WorkProfile) {
        for (level, d) in profile.levels.iter_mut().zip(self.directions) {
            level.direction = d;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::level::{bfs, bfs_deterministic, VariantConfig};
    use crate::runner::Algorithm;
    use mcbfs_gen::prelude::*;
    use mcbfs_graph::validate::validate_bfs_tree;

    fn policies() -> [ForcedDirection; 4] {
        [
            ForcedDirection::Auto,
            ForcedDirection::TopDown,
            ForcedDirection::BottomUp,
            ForcedDirection::Alternate,
        ]
    }

    fn hybrid(policy: ForcedDirection) -> VariantConfig {
        VariantConfig::hybrid(policy)
    }

    #[test]
    fn every_policy_produces_valid_trees() {
        let g = RmatBuilder::new(10, 6).seed(21).build();
        for policy in policies() {
            for threads in [1, 2, 4] {
                let run = bfs(&g, 3, threads, hybrid(policy));
                validate_bfs_tree(&g, 3, &run.parents)
                    .unwrap_or_else(|e| panic!("{policy:?} x{threads}: {e}"));
            }
        }
    }

    #[test]
    fn matches_sequential_reachability() {
        let g = UniformBuilder::new(2_000, 4).seed(8).build();
        let seq = crate::algo::sequential::bfs_sequential(&g, 0);
        for policy in policies() {
            let run = bfs(&g, 0, 4, hybrid(policy));
            assert_eq!(run.visited, seq.visited, "{policy:?}");
        }
    }

    #[test]
    fn auto_switches_bottom_up_and_cuts_edges_on_rmat() {
        let g = RmatBuilder::new(12, 8).seed(5).build();
        let hybrid = bfs(&g, 0, 2, hybrid(ForcedDirection::Auto));
        let topdown = bfs(&g, 0, 2, VariantConfig::algorithm2());
        let dirs = hybrid.profile.direction_string();
        assert!(
            dirs.contains('B'),
            "expected bottom-up levels, got {dirs:?}"
        );
        assert!(
            hybrid.profile.edges_traversed * 2 <= topdown.profile.edges_traversed,
            "hybrid {} vs top-down {} edges examined",
            hybrid.profile.edges_traversed,
            topdown.profile.edges_traversed
        );
        assert!(hybrid.profile.total().edges_skipped > 0);
    }

    #[test]
    fn forced_top_down_is_algorithm2() {
        let a2 = VariantConfig::algorithm2();
        assert_eq!(hybrid(ForcedDirection::TopDown), a2);
        let forced = Algorithm::Hybrid {
            policy: ForcedDirection::TopDown,
        };
        assert_eq!(forced.variant_config(), Some(a2));
    }

    #[test]
    #[should_panic(expected = "a switching direction needs one socket")]
    fn switching_direction_needs_one_socket() {
        let g = UniformBuilder::new(256, 4).seed(2).build();
        let config = VariantConfig {
            sockets: 2,
            ..hybrid(ForcedDirection::Auto)
        };
        bfs_deterministic(&g, 0, 2, config);
    }

    #[test]
    fn bottom_up_uses_no_claim_atomics_in_sweep_levels() {
        // Forced bottom-up from the root: every level's claims are plain
        // word stores, so atomics only come from conversions (none here).
        let g = UniformBuilder::new(1_024, 6).seed(3).build();
        let run = bfs(&g, 0, 4, hybrid(ForcedDirection::BottomUp));
        validate_bfs_tree(&g, 0, &run.parents).unwrap();
        assert_eq!(run.profile.total().atomic_ops, 0);
        assert!(run.profile.direction_string().chars().all(|c| c == 'B'));
    }

    #[test]
    fn alternate_exercises_both_conversions() {
        let g = UniformBuilder::new(2_048, 6).seed(9).build();
        let run = bfs(&g, 0, 3, hybrid(ForcedDirection::Alternate));
        validate_bfs_tree(&g, 0, &run.parents).unwrap();
        let dirs = run.profile.direction_string();
        assert!(dirs.starts_with("TB"), "got {dirs:?}");
        assert!(
            dirs.as_bytes().windows(2).all(|w| w[0] != w[1]),
            "got {dirs:?}"
        );
    }

    #[test]
    fn deterministic_executor_is_valid_and_repeatable() {
        let g = RmatBuilder::new(10, 6).seed(42).build();
        for policy in policies() {
            let a = bfs_deterministic(&g, 0, 8, hybrid(policy));
            let b = bfs_deterministic(&g, 0, 8, hybrid(policy));
            assert_eq!(a.parents, b.parents, "{policy:?}");
            assert_eq!(a.profile, b.profile, "{policy:?}");
            validate_bfs_tree(&g, 0, &a.parents).unwrap_or_else(|e| panic!("{policy:?}: {e}"));
        }
    }

    #[test]
    fn deterministic_executor_follows_native_directions_and_skips_edges() {
        let g = RmatBuilder::new(11, 8).seed(7).build();
        let model = bfs_deterministic(&g, 0, 4, hybrid(ForcedDirection::Auto));
        let native = bfs(&g, 0, 4, hybrid(ForcedDirection::Auto));
        // The switch's inputs depend only on the level structure, so any
        // thread count and interleaving yields the same schedule.
        let dirs = model.profile.direction_string();
        assert_eq!(dirs, native.profile.direction_string());
        assert!(
            dirs.contains('B'),
            "expected bottom-up levels, got {dirs:?}"
        );
        assert!(model.profile.total().edges_skipped > 0);
        assert_eq!(model.visited, native.visited);
        assert_eq!(model.seconds, 0.0);
    }

    #[test]
    fn disconnected_graph() {
        let g = CsrGraph::from_edges_symmetric(100, &[(0, 1), (1, 2), (50, 51)]);
        for policy in policies() {
            for run in [
                bfs(&g, 0, 3, hybrid(policy)),
                bfs_deterministic(&g, 0, 3, hybrid(policy)),
            ] {
                assert_eq!(run.visited, 3, "{policy:?}");
                validate_bfs_tree(&g, 0, &run.parents).unwrap();
            }
        }
    }

    #[test]
    fn single_vertex_graph() {
        let g = CsrGraph::from_edges(1, &[]);
        let run = bfs(&g, 0, 2, hybrid(ForcedDirection::Auto));
        assert_eq!(run.parents, vec![0]);
        assert_eq!(run.visited, 1);
    }

    #[test]
    fn star_graph_two_levels() {
        let edges: Vec<_> = (1..64u32).map(|i| (0, i)).collect();
        let g = CsrGraph::from_edges_symmetric(64, &edges);
        let run = bfs(&g, 0, 4, hybrid(ForcedDirection::Auto));
        validate_bfs_tree(&g, 0, &run.parents).unwrap();
        assert_eq!(run.profile.num_levels(), 2);
    }
}
