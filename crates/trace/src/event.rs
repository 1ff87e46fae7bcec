//! The event vocabulary: everything the sync and core layers can record.
//!
//! An event is 32 bytes — `{start_ns, dur_ns, kind, arg}` — with the thread
//! id carried by the buffer it lives in rather than by every entry. Spans
//! (`dur_ns > 0` semantics) and instants share one representation; the
//! [`EventKind`] decides which Chrome-trace phase an exporter emits.

/// What happened. The discriminants are stable (they appear in exported
/// traces) — append new kinds, never renumber.
#[repr(u8)]
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// One BFS level on one thread, entry to exit including barriers.
    /// `arg` = level index.
    Level = 0,
    /// Time spent inside `SpinBarrier::wait`. `arg` = 1 if this thread
    /// was the episode leader (last to arrive), else 0.
    BarrierWait = 1,
    /// Time from requesting a ticket lock to acquiring it. `arg` = 0.
    LockWait = 2,
    /// Time a ticket lock was held (guard lifetime). `arg` = 0.
    LockHold = 3,
    /// One batch sent into an inter-socket channel
    /// (`SocketChannel::send`), lock to unlock. `arg` = tuples in the
    /// batch.
    ChannelSend = 4,
    /// One batch received from an inter-socket channel
    /// (`SocketChannel::recv`). `arg` = tuples in the batch.
    ChannelRecv = 5,
    /// Instant: a send that found the ring full. Not emitted: a full ring
    /// links a fresh segment, so a send never stalls. The kind stays so
    /// discriminants and old traces keep their meaning.
    ChannelStall = 6,
    /// Instant: channel occupancy. Not emitted: channels keep no shared
    /// count of pending tuples. The kind stays so discriminants and old
    /// traces keep their meaning.
    ChannelOccupancy = 7,
    /// Frontier representation conversion in the hybrid algorithm
    /// (sparse→dense or dense→sparse), including its barrier. `arg` =
    /// direction code of the level being entered (0 = td, 1 = bu).
    Convert = 8,
    /// Instant: the hybrid leader decided to switch direction for the next
    /// level. `arg` = new direction code (0 = td, 1 = bu).
    DirectionSwitch = 9,
    /// Admission of one wave by the batched query engine: from the first
    /// pending query entering the batcher to the wave being sealed.
    /// `arg` = number of queries admitted into the wave.
    BatchAdmit = 10,
    /// Execution of one sealed wave (multi-source kernel or singleton
    /// fallback), entry to exit. `arg` = number of queries in the wave.
    BatchExecute = 11,
    /// Instant: the serving layer shed a request at admission (bounded
    /// queue full). `arg` = pending queue depth at the shed decision.
    QueryShed = 12,
    /// Instant: a request's deadline expired before its answer could be
    /// returned, so the server replied `timeout` instead of a stale
    /// result. `arg` = microseconds the request had been in flight.
    DeadlineMiss = 13,
    /// One per-level frontier exchange between shards (serializing,
    /// sending and merging the destination-bucketed discovery lists).
    /// `arg` = payload bytes moved during the exchange.
    ShardExchange = 14,
    /// Time a shard-coordinating party spent blocked waiting for its
    /// counterpart's next frame (router waiting on a worker's level
    /// report, or a worker waiting on the router's redistribution).
    /// `arg` = BFS level being waited on.
    ShardWait = 15,
}

impl EventKind {
    /// Human-readable name used by both exporters.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::Level => "level",
            EventKind::BarrierWait => "barrier_wait",
            EventKind::LockWait => "lock_wait",
            EventKind::LockHold => "lock_hold",
            EventKind::ChannelSend => "channel_send",
            EventKind::ChannelRecv => "channel_recv",
            EventKind::ChannelStall => "channel_stall",
            EventKind::ChannelOccupancy => "channel_occupancy",
            EventKind::Convert => "convert",
            EventKind::DirectionSwitch => "direction_switch",
            EventKind::BatchAdmit => "batch_admit",
            EventKind::BatchExecute => "batch_execute",
            EventKind::QueryShed => "query_shed",
            EventKind::DeadlineMiss => "deadline_miss",
            EventKind::ShardExchange => "shard_exchange",
            EventKind::ShardWait => "shard_wait",
        }
    }

    /// Chrome-trace category string (groups rows in the Perfetto UI).
    pub fn category(self) -> &'static str {
        match self {
            EventKind::Level | EventKind::Convert => "bfs",
            EventKind::BarrierWait => "barrier",
            EventKind::LockWait | EventKind::LockHold => "lock",
            EventKind::ChannelSend
            | EventKind::ChannelRecv
            | EventKind::ChannelStall
            | EventKind::ChannelOccupancy => "channel",
            EventKind::DirectionSwitch => "bfs",
            EventKind::BatchAdmit | EventKind::BatchExecute => "batch",
            EventKind::QueryShed | EventKind::DeadlineMiss => "serve",
            EventKind::ShardExchange | EventKind::ShardWait => "shard",
        }
    }

    /// True for duration events (Chrome phase `X`); false for instants
    /// (Chrome phase `i`).
    pub fn is_span(self) -> bool {
        !matches!(
            self,
            EventKind::ChannelStall
                | EventKind::ChannelOccupancy
                | EventKind::DirectionSwitch
                | EventKind::QueryShed
                | EventKind::DeadlineMiss
        )
    }
}

/// One recorded event. `start_ns` is relative to the session clock origin;
/// `dur_ns` is zero for instants.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Start time in nanoseconds since the session clock origin.
    pub start_ns: u64,
    /// Duration in nanoseconds (0 for instant events).
    pub dur_ns: u64,
    /// What happened.
    pub kind: EventKind,
    /// Kind-specific payload (see [`EventKind`] docs).
    pub arg: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_and_instants_partition_the_kinds() {
        let all = [
            EventKind::Level,
            EventKind::BarrierWait,
            EventKind::LockWait,
            EventKind::LockHold,
            EventKind::ChannelSend,
            EventKind::ChannelRecv,
            EventKind::ChannelStall,
            EventKind::ChannelOccupancy,
            EventKind::Convert,
            EventKind::DirectionSwitch,
            EventKind::BatchAdmit,
            EventKind::BatchExecute,
            EventKind::QueryShed,
            EventKind::DeadlineMiss,
            EventKind::ShardExchange,
            EventKind::ShardWait,
        ];
        let spans = all.iter().filter(|k| k.is_span()).count();
        assert_eq!(spans, 11);
        for k in all {
            assert!(!k.name().is_empty());
            assert!(!k.category().is_empty());
        }
    }

    #[test]
    fn event_is_small() {
        // The hot path pushes these into a Vec; keep them cache-friendly.
        assert!(std::mem::size_of::<TraceEvent>() <= 32);
    }
}
