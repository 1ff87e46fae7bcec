//! The paper's primary contribution: a scalable level-synchronous BFS for
//! multicore shared-memory machines.
//!
//! Three algorithms, exactly following §III of the paper, run as one
//! partitioned level loop, [`algo::level`], configured by a
//! [`algo::level::VariantConfig`]:
//!
//! * **Algorithm 1** ([`algo::level::VariantConfig::algorithm1`]) — the
//!   high-level parallel BFS with a lock-protected current/next queue pair
//!   and atomic parent claims. Correct, simple, and the baseline every
//!   optimization in Fig. 5 is measured against.
//! * **Algorithm 2** ([`algo::level::VariantConfig::algorithm2`]) — adds the
//!   atomic visited *bitmap* (32× smaller random working set), the
//!   *test-then-set* check that skips most `lock`-prefixed operations
//!   (Fig. 4), chunked frontier dequeues and reservation-based batch
//!   enqueues.
//! * **Algorithm 3** ([`algo::level::VariantConfig::algorithm3`]) —
//!   partitions the visit state across sockets and replaces cross-socket
//!   atomics with batched FastForward channels guarded by ticket locks;
//!   each level runs in two phases (local scan, then remote drain)
//!   separated by barriers.
//!
//! The Fig. 5 ablations are the same loop with single policies switched.
//! So is the direction-optimizing [`algo::hybrid`]: its direction policy
//! ([`algo::level::VariantConfig::direction`]) adds bottom-up sweep levels
//! to Algorithm 2, in the same loop. With the MS-BFS kernel of
//! `mcbfs-query`, that makes two parallel BFS kernels in the workspace.
//! Every algorithm has two executors that run the same per-level code:
//!
//! * the **native executor** — real, unpinned threads forked per search by
//!   [`mcbfs_sync::pool::scoped_run`]; wall-clock measurements are
//!   meaningful on real multicore hosts;
//! * the **deterministic executor** — `T` virtual threads on `S` virtual
//!   sockets on the calling thread, on a fixed schedule, producing the exact
//!   per-level per-thread operation counts that the machine cost model
//!   ([`mcbfs_machine::model::MachineModel`]) prices. This is how the
//!   paper's 16-thread EP and 64-thread EX figures are reproduced on hosts
//!   without that hardware. Algorithms 1–3 and the hybrid use
//!   [`algo::level::bfs_deterministic`] (the native one is
//!   [`algo::level::bfs`]), and the MS-BFS kernel of `mcbfs-query` (which
//!   the shard workers also run) uses `msbfs::ms_bfs_deterministic`.
//!
//! [`runner::BfsRunner`] is the front door; [`throughput`] adds the
//! multi-instance SSCA#2-style mode of Fig. 10, and [`components`] the
//! connected-components application the paper's introduction motivates.
//! The paper's §V distributed-memory extension is the `mcbfs-shard`
//! crate.

pub mod algo;
pub mod components;
pub mod instrument;
pub mod kernel;
pub mod observe;
pub mod runner;
pub mod stcon;
pub mod throughput;

pub use instrument::BfsStats;
pub use runner::{Algorithm, BfsResult, BfsRunner, ExecMode};
