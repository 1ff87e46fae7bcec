//! Synthetic graph generators — the reproduction's stand-in for the GTgraph
//! suite the paper uses (Bader & Madduri, 2006).
//!
//! Four families, covering every workload in the paper's evaluation:
//!
//! * [`uniform::UniformBuilder`] — "uniformly random graphs": `n` vertices
//!   each with out-degree `d`, neighbours chosen uniformly at random
//!   (§IV, Figs. 6 and 8).
//! * [`rmat::RmatBuilder`] — R-MAT scale-free graphs with community
//!   structure, sampled from a Kronecker product with the GTgraph default
//!   parameters `(a, b, c, d) = (0.45, 0.15, 0.15, 0.25)` (§IV, Figs. 7
//!   and 9).
//! * [`ssca2::Ssca2Builder`] — SSCA#2-style clustered graphs (cliques plus
//!   sparse inter-clique links), the workload behind Fig. 10 and the
//!   Bader–Madduri MTA-2 rows of Table III.
//! * [`grid::GridBuilder`] — 2-D grids with 4/8/16-neighbour stencils,
//!   matching the Xia–Prasanna rows of Table III.
//!
//! All generators are deterministic given a seed, independent of thread
//! count (parallel generation derives one RNG per output chunk from the
//! master seed), and emit edge lists that [`GraphBuilder::build`] inserts
//! in both directions: every generated graph is undirected, as the paper's
//! are.

pub mod grid;
pub mod rmat;
pub mod ssca2;
pub mod stats;
pub mod uniform;

use mcbfs_graph::csr::{CsrGraph, VertexId};

/// Edge count above which [`GraphBuilder::build`] assembles the CSR
/// structure with the parallel (rayon) constructors. Below it, the serial
/// path wins: spawning and synchronizing workers costs more than the
/// build itself, and tiny graphs are the common case in tests.
pub const PARALLEL_BUILD_EDGE_THRESHOLD: usize = 1 << 15;

/// Common interface of every generator: produce an edge list or a finished
/// CSR graph.
pub trait GraphBuilder {
    /// Number of vertices the generated graph will have.
    fn num_vertices(&self) -> usize;

    /// Generates the (directed) edge list.
    fn build_edges(&self) -> Vec<(VertexId, VertexId)>;

    /// Generates the graph, inserting each edge in both directions, and
    /// assembles the CSR structure — in parallel above
    /// [`PARALLEL_BUILD_EDGE_THRESHOLD`] generated edges (identical output
    /// either way; the large generator runs were dominated by the serial
    /// CSR assembly, not by sampling).
    fn build(&self) -> CsrGraph {
        let edges = self.build_edges();
        let parallel = edges.len() >= PARALLEL_BUILD_EDGE_THRESHOLD;
        if parallel {
            CsrGraph::from_edges_symmetric_parallel(self.num_vertices(), &edges)
        } else {
            CsrGraph::from_edges_symmetric(self.num_vertices(), &edges)
        }
    }
}

/// Commonly used generator types.
pub mod prelude {
    pub use crate::grid::GridBuilder;
    pub use crate::rmat::RmatBuilder;
    pub use crate::ssca2::Ssca2Builder;
    pub use crate::uniform::UniformBuilder;
    pub use crate::GraphBuilder;
}
