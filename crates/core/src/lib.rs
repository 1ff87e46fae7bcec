//! The paper's primary contribution: a scalable level-synchronous BFS for
//! multicore shared-memory machines.
//!
//! Three algorithms, exactly following §III of the paper:
//!
//! * [`algo::simple`] — **Algorithm 1**: the high-level parallel BFS with a
//!   shared, lock-protected current/next queue pair and atomic parent
//!   claims. Correct, simple, and the baseline every optimization in
//!   Fig. 5 is measured against.
//! * [`algo::single_socket`] — **Algorithm 2**: adds the atomic visited
//!   *bitmap* (32× smaller random working set), the *test-then-set* check
//!   that skips most `lock`-prefixed operations (Fig. 4), chunked frontier
//!   dequeues and reservation-based batch enqueues.
//! * [`algo::multi_socket`] — **Algorithm 3**: partitions the visit state
//!   across sockets and replaces cross-socket atomics with batched
//!   FastForward channels guarded by ticket locks; each level runs in two
//!   phases (local scan, then remote drain) separated by barriers.
//!
//! Two executors run them:
//!
//! * the **native executor** — real, unpinned threads forked per search by
//!   [`mcbfs_sync::pool::scoped_run`]; wall-clock measurements are
//!   meaningful on real multicore hosts;
//! * the **simulated executor** ([`simexec`]) — a deterministic
//!   single-threaded re-execution of Algorithms 1–3 and the Fig. 5
//!   ablations for `T` virtual threads on `S` virtual sockets, producing
//!   the exact per-level per-thread operation counts that the machine cost
//!   model ([`mcbfs_machine::model::MachineModel`]) prices. This is how the
//!   paper's 16-thread EP and 64-thread EX figures are reproduced on hosts
//!   without that hardware.
//!
//! The direction-optimizing [`algo::hybrid`] and the MS-BFS kernel of
//! `mcbfs-query` need no simulated twin: their model modes
//! ([`algo::hybrid::bfs_hybrid_deterministic`],
//! `msbfs::ms_bfs_deterministic`) run the native per-level code on virtual
//! threads on the calling thread.
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
pub mod simexec;
pub mod stcon;
pub mod throughput;

pub use instrument::BfsStats;
pub use runner::{Algorithm, BfsResult, BfsRunner, ExecMode};
