//! # multicore-bfs
//!
//! A from-scratch Rust reproduction of *Scalable Graph Exploration on
//! Multicore Processors* (Agarwal, Petrini, Pasetto, Bader — SC 2010): a
//! scalable level-synchronous breadth-first search for multicore
//! shared-memory machines, with an innovative hierarchy-of-working-sets data
//! layout, test-then-set atomic avoidance, and batched lock-protected
//! FastForward channels for inter-socket communication.
//!
//! This facade crate re-exports the full public API of the workspace:
//!
//! * [`sync`] — ticket locks, FastForward SPSC queues, batched socket
//!   channels, spin barriers, fork-join scoped threads;
//! * [`graph`] — CSR graphs, atomic visited bitmaps, per-socket partitions,
//!   BFS-tree validation;
//! * [`gen`] — uniform-random, R-MAT, SSCA#2 and grid generators
//!   (GTgraph-equivalent);
//! * [`machine`] — machine topology presets (Nehalem EP/EX), the
//!   memory-hierarchy cost model used to reproduce the paper's scalability
//!   figures on arbitrary hosts, and the published-results reference data;
//! * [`core`] — the BFS algorithms themselves (Algorithms 1, 2, 3 of the
//!   paper plus ablations), instrumentation, and the native/modelled
//!   executors;
//! * [`query`] — the batched query engine: bit-parallel multi-source BFS
//!   waves serving heterogeneous queries (trees, distances,
//!   st-connectivity, reachability) with admission batching and
//!   latency/aggregate-TEPS serving statistics;
//! * [`serve`] — the networked serving front-end: `mcbfs-wire-v1` TCP
//!   protocol, deadline-aware continuous batching with bounded-queue load
//!   shedding, graceful drain on SIGINT, and the open/closed-loop load
//!   generator behind `mcbfs serve` / `mcbfs loadgen`;
//! * [`shard`] — sharded multi-worker serving: 1D vertex-range CSR
//!   shards, per-shard worker processes, the scatter/gather router that
//!   speaks `mcbfs-wire-v1` to clients and `mcbfs-swire-v3` to workers,
//!   and the in-process [`shard::ShardedEngine`] whose model mode
//!   predicts the live cluster's exchange volume byte-exactly;
//! * [`trace`] — the low-overhead per-thread event recorder behind
//!   `BfsRunner::traced`, with Chrome-trace JSON and flat JSONL exporters
//!   (compiled to no-ops without the `trace` cargo feature).
//!
//! ## Quickstart
//!
//! ```
//! use multicore_bfs::prelude::*;
//!
//! // 2^14 vertices, average degree 8, R-MAT (scale-free) structure.
//! let graph = RmatBuilder::new(14, 8).seed(42).build();
//! let result = BfsRunner::new(&graph)
//!     .algorithm(Algorithm::MultiSocket { sockets: 2 })
//!     .threads(4)
//!     .run(0);
//! assert!(result.stats.edges_traversed > 0);
//! assert!(validate_bfs_tree(&graph, 0, result.parents.as_slice()).is_ok());
//! ```

pub use mcbfs_core as core;
pub use mcbfs_gen as gen;
pub use mcbfs_graph as graph;
pub use mcbfs_machine as machine;
pub use mcbfs_query as query;
pub use mcbfs_serve as serve;
pub use mcbfs_shard as shard;
pub use mcbfs_sync as sync;
pub use mcbfs_trace as trace;

/// Commonly used items, re-exported for one-line imports.
pub mod prelude {
    pub use mcbfs_core::instrument::BfsStats;
    pub use mcbfs_core::runner::{Algorithm, BfsResult, BfsRunner};
    pub use mcbfs_gen::prelude::*;
    pub use mcbfs_graph::bitmap::AtomicBitmap;
    pub use mcbfs_graph::csr::CsrGraph;
    pub use mcbfs_graph::partition::VertexPartition;
    pub use mcbfs_graph::validate::validate_bfs_tree;
    pub use mcbfs_machine::model::MachineModel;
    pub use mcbfs_machine::topology::MachineSpec;
    pub use mcbfs_query::engine::{Query, QueryEngine};
}
