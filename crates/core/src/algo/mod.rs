//! The BFS algorithm family (§III of the paper).
//!
//! Every parallel variant shares the conventions of [`parents`]: a parent
//! array of [`mcbfs_graph::csr::VertexId`] where the root is its own parent
//! and [`mcbfs_graph::csr::UNVISITED`] marks unreached vertices, claimed
//! with atomics so that each vertex gets exactly one parent. The
//! distributed-memory variant (§V) lives in the `mcbfs-shard` crate.

pub mod hybrid;
pub mod level;
pub mod parents;
pub mod sequential;

use mcbfs_graph::csr::VertexId;
use mcbfs_machine::profile::WorkProfile;

/// Result of a native (real-thread) BFS execution, or of its virtual-thread
/// twin ([`level::bfs_deterministic`], for every variant the level loop runs).
#[derive(Debug, Clone)]
pub struct NativeRun {
    /// Parent array (`parents[root] == root`, unreached = `UNVISITED`).
    pub parents: Vec<VertexId>,
    /// Per-level, per-thread operation counts.
    pub profile: WorkProfile,
    /// Measured wall-clock seconds of the parallel phase (`0.0` from the
    /// virtual-thread executor, whose profile a machine model prices).
    pub seconds: f64,
    /// Vertices reached, including the root.
    pub visited: u64,
}

/// Frontier chunk size for the chunked dequeue of Algorithms 2–3: one
/// `fetch_add` hands a thread this many vertices. Large enough to amortize
/// the atomic, small enough to load-balance skewed frontiers.
pub const DEQUEUE_CHUNK: usize = 64;

/// Per-thread next-queue buffer: vertices accumulated before one
/// reservation-based `push_batch`.
pub const ENQUEUE_BATCH: usize = 256;
