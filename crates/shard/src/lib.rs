//! `mcbfs-shard`: sharded multi-worker serving.
//!
//! Scales the BFS service past one process with the 1D vertex-range
//! decomposition of distributed BFS (Buluç & Madduri) — the paper's §V
//! distributed-memory extension — arranged as a star: per-shard
//! **workers** ([`worker`]) each load one contiguous slice of the CSR
//! (`mcbfs_graph::shard::CsrShard`) and run level-synchronous waves of
//! the one bit-parallel MS-BFS kernel, `mcbfs_query::MsBfs`, over their
//! owned range, while a **router** ([`router`]) speaks `mcbfs-wire-v1` to clients unchanged and
//! `mcbfs-swire-v3` ([`swire`]), length-prefixed binary frames, to its
//! workers.
//!
//! One level loop ([`exchange`]) implements the exchange: it scatters
//! each sealed wave, relays the per-level shard-exchange frames
//! (level-stamped, destination-bucketed frontier discoveries), and
//! gathers per-shard results into global answers. The router runs it
//! over TCP links; the in-process [`engine::ShardedEngine`] runs it over
//! local links into the worker's own frame handler, which gives model
//! mode a prediction of the live cluster's exchange volume that is
//! byte-exact by construction.

pub mod engine;
pub mod exchange;
pub mod router;
pub mod swire;
pub mod worker;

pub use engine::ShardedEngine;
pub use exchange::{ExchangeLog, LevelExchange};
pub use router::Router;
pub use swire::{Bucket, ExchangeItem, ShardFrame, ShardMeta, SwireError, SWIRE_VERSION};
pub use worker::run_worker;
