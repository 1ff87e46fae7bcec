//! Graph substrate for the multicore BFS reproduction.
//!
//! The paper's data layout decisions live here:
//!
//! * [`csr::CsrGraph`] — a compressed sparse row adjacency structure with
//!   32-bit vertex ids. CSR keeps each adjacency list contiguous (the only
//!   spatial locality a graph traversal gets) and 32-bit ids halve the
//!   memory traffic per edge relative to pointers.
//! * [`bitmap::AtomicBitmap`] — the visited-vertex bitmap of Algorithm 2.
//!   One bit per vertex compresses the random-access working set by 32×
//!   relative to the parent array: "in 4 MB we can store all the visit
//!   information for a graph with 32 million vertices", which drops the
//!   dominant random reads several levels down the memory hierarchy (Fig. 2
//!   of the paper). Its [`bitmap::AtomicBitmap::claim`] implements the
//!   test-then-set idiom that eliminates most `lock`-prefixed operations
//!   (Fig. 4).
//! * [`frontier`] — the direction-optimizing extension's conversions
//!   between a sparse chunked-queue frontier and a dense bitmap level-set,
//!   each split into per-thread shares.
//! * [`partition::VertexPartition`] — the per-socket decomposition of
//!   Algorithm 3: contiguous vertex ranges and the rule
//!   `DetermineSocket(v)` assigning every vertex's visit state (parent slot,
//!   bitmap shard, queues) to one socket.
//! * [`reorder`] — cache-locality vertex relabelling: a validated
//!   [`reorder::Permutation`] plus degree-descending / BFS-frontier /
//!   random-shuffle orderings, applied by [`csr::CsrGraph::permute`]. The
//!   generated labelling scatters hub vertices across the id space; a
//!   locality-improving relabelling packs the hot visit state into few
//!   cache lines, complementing the bitmap.
//! * [`shard::CsrShard`] — the 1D vertex-range decomposition for
//!   multi-*process* BFS: one contiguous owned range per shard, adjacency
//!   kept with global target ids so cross-shard discoveries can be
//!   bucketed by owner with partition arithmetic alone.
//! * [`validate::validate_bfs_tree`] — a Graph500-style validator used by
//!   every test and benchmark to prove each parallel run produced a correct
//!   BFS tree.
//! * [`io`] — CSR and shard (de)serialization for persisting generated
//!   benchmark graphs, including the applied-reordering header tag.

pub mod bitmap;
pub mod csr;
pub mod frontier;
pub mod io;
pub mod ops;
pub mod partition;
pub mod reorder;
pub mod shard;
pub mod validate;

pub use bitmap::AtomicBitmap;
pub use csr::{CsrGraph, VertexId, UNVISITED};
pub use partition::VertexPartition;
pub use reorder::{Permutation, Reorder};
pub use shard::{shard_file_name, CsrShard};
pub use validate::{validate_bfs_tree, BfsTreeInfo, ValidationError};
