//! `mcbfs-query`: a batched multi-source BFS query engine.
//!
//! The paper's benchmark regime is one search at a time; the ROADMAP's
//! north star is a service under heavy query traffic. This crate bridges
//! the two with wave execution: heterogeneous queries (BFS trees,
//! distances, st-connectivity, reachability) are admitted by a
//! [`batcher::QueryBatcher`], sealed into waves of up to 64, and served by
//! a bit-parallel multi-source kernel ([`msbfs`]) in which every CSR
//! adjacency fetch advances all in-flight searches at once; over a
//! `CsrShard`'s owned rows, the same kernel is what `mcbfs-shard`'s
//! workers run. Singleton waves fall back to the paper's single-search
//! algorithms, wave dispatch generalizes the per-socket throughput mode,
//! and a deterministic model-mode path prices batched runs on the machine
//! model so serving experiments reproduce exactly on any host.
//!
//! Layering: `engine` (waves and results) sits on `msbfs` (the kernel)
//! and `batcher` (admission over `sync::workq`, and `run_batch`, the
//! offline wave dispatch every executor shares); `stats` flattens
//! reports for `--stats-json`; `kernel` is the batched twin of the
//! Graph500-style kernel in `core`.

pub mod batcher;
pub mod engine;
pub mod kernel;
pub mod msbfs;
pub mod stats;

pub use batcher::{run_batch, run_traced, AdmitError, Admitted, BatcherOpts, Parked, QueryBatcher};
pub use engine::{
    wave_outcomes, BatchReport, Query, QueryEngine, QueryOutcome, QueryResult, WaveStats,
};
pub use kernel::{run_batched_kernel, BatchedKernelReport};
pub use msbfs::{
    ms_bfs, ms_bfs_deterministic, MsBfs, MsBfsRun, OwnedAdjacency, RawMsBfs, Slot, SlotAnswer,
    MAX_SOURCES,
};
pub use stats::{batch_stats, nearest_rank_quantile, BatchStats, QueryStats};
