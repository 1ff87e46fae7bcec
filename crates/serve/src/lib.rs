//! `mcbfs-serve`: a networked query-serving front-end.
//!
//! The ROADMAP's north star is BFS as a *service*; this crate is the
//! serving layer over the batched query engine. Clients speak
//! `mcbfs-wire-v1` — newline-delimited JSON frames over TCP ([`wire`]) —
//! into a server ([`server`]) whose scheduler thread ([`scheduler`]) runs
//! deadline-aware continuous batching: waves seal on whichever fires
//! first of a full batch or the oldest query aging past `max_wait`.
//! Admission is bounded ([`shed`]): past the high-water mark requests are
//! answered `rejected: overloaded`, never silently dropped; per-request
//! deadlines turn stale answers into explicit `timeout` frames; SIGINT
//! (or a [`server::ShutdownHandle`]) drains every in-flight wave before
//! exit. The open/closed-loop generator ([`loadgen`]) drives it with
//! seeded Poisson arrivals and reports TEPS, QPS, latency quantiles, and
//! SLO attainment.

pub mod loadgen;
pub mod scheduler;
pub mod server;
pub mod shed;
pub mod wire;

pub use loadgen::{LoadReport, LoadgenOpts};
pub use server::{
    accept_loop, arm_sigint, read_lines, serve, serve_with, ServeOpts, ShutdownHandle, WaveExecutor,
};
pub use shed::{ServerStats, StatsHub};
pub use wire::{QueryReply, RejectReason, Request, Response, WireError, WIRE_VERSION};
