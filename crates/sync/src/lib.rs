//! Synchronization substrates for the multicore BFS reproduction.
//!
//! The SC'10 paper ("Scalable Graph Exploration on Multicore Processors",
//! Agarwal, Petrini, Pasetto, Bader) builds its inter-socket communication
//! layer from two published building blocks:
//!
//! * the **Ticket Lock** of Sridharan et al. (SPAA'07) — a fair FIFO
//!   spin lock ([`ticket::TicketLock`]);
//! * the **FastForward** queue of Giacomoni et al. (PPoPP'08) — a
//!   cache-optimized single-producer/single-consumer lock-free ring, here
//!   a chain of ring segments ([`fastforward::FastForward`]).
//!
//! The paper's *remote channel* is "a FastForward queue where both producers
//! and consumers are protected on their respective side by a Ticket Lock",
//! with **batched** insertion to amortize locking: that composite lives in
//! [`channel::SocketChannel`]. Each slot carries one sender's whole batch,
//! the pointer payload of the original FastForward. Its sends never block
//! and never fail: a full ring links a fresh segment, which the consumer
//! frees once it has emptied it, so memory grows with the batches not yet
//! received. Neither the channel nor the queue keeps a shared count, so the
//! only cache lines producers and consumers share are the segments' slots.
//!
//! The level-synchronous BFS additionally needs:
//!
//! * a barrier for the `Synchronize` steps of Algorithms 2 and 3
//!   ([`barrier::SpinBarrier`]);
//! * two work queues for the `LockedDequeue` / `LockedEnqueue` primitives
//!   of the pseudo-code: Algorithm 1's lock-per-operation baseline
//!   ([`workq::LockedQueue`]) and the frontier array with atomic chunked
//!   dequeue and reserved batch enqueue ([`workq::SharedQueue`]);
//! * a fork-join region standing in for the paper's pthread worker team
//!   ([`pool::scoped_run`]; threads are not pinned).
//!
//! All primitives are independent of the graph code and are reusable for any
//! pipeline-parallel or level-synchronous workload.

pub mod barrier;
pub mod channel;
pub mod fastforward;
pub mod pool;
pub mod ticket;
pub mod workq;

pub use barrier::SpinBarrier;
pub use channel::SocketChannel;
pub use fastforward::FastForward;
pub use ticket::TicketLock;
pub use workq::SharedQueue;
