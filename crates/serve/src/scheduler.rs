//! The scheduler thread: deadline-aware continuous batching.
//!
//! One thread owns wave sealing and execution. Its loop is the
//! inference-serving close rule applied to graph queries: it blocks in
//! `QueryBatcher::wait_wave` until a wave is due — a full `max_batch`
//! pending, **or** the oldest parked query aged `max_wait`, whichever
//! comes first — so light load pays at most `max_wait` of batching delay
//! while heavy load fills 64-wide waves back to back (continuous
//! batching, no fixed epochs). The wait is a condition variable with a
//! timeout at the oldest query's deadline, not a polling sleep: an idle
//! server does not wake, and a partial wave is sealed at its deadline.
//!
//! Deadlines are enforced twice per query: at seal (a query already past
//! its deadline is answered `timeout` without burning kernel time on it)
//! and again at routing (an answer that arrives late is replaced by an
//! explicit `timeout` frame — the client never gets a stale result
//! presented as fresh). Both paths record an
//! [`EventKind::DeadlineMiss`] instant.
//!
//! On drain: the server closes the batcher (new submissions are rejected
//! as `draining`), which wakes the scheduler; `wait_wave` then hands back
//! every remaining wave without waiting, and the loop ends when it
//! returns `None` — admitted queries are always answered, even across
//! shutdown.

use crate::server::{write_frame, ReplyTo, Shared, WaveExecutor};
use crate::wire::{QueryReply, Response};
use mcbfs_query::{Admitted, Parked, QueryResult};
use mcbfs_trace::EventKind;
use std::sync::atomic::Ordering;

/// Runs the sealing loop until drained. Spawned by `server::serve`.
pub(crate) fn run<E: WaveExecutor>(shared: &Shared<E>) {
    while let Some(wave) = shared.batcher.wait_wave() {
        execute_wave(shared, wave);
    }
}

fn deadline_missed(parked: &Parked<ReplyTo>) -> bool {
    parked
        .payload
        .deadline
        .is_some_and(|d| parked.submitted.elapsed() > d)
}

fn reply_timeout<E: WaveExecutor>(shared: &Shared<E>, parked: &Parked<ReplyTo>) {
    let waited = parked.submitted.elapsed();
    shared.hub.timeouts.fetch_add(1, Ordering::Relaxed);
    mcbfs_trace::instant(EventKind::DeadlineMiss, waited.as_micros() as u64);
    write_frame(
        &parked.payload.writer,
        &Response::Timeout {
            tag: parked.payload.tag,
            waited_ms: waited.as_secs_f64() * 1e3,
        },
    );
}

/// Executes one sealed wave and routes every answer. Queries whose
/// deadline already passed are timed out up front and excluded from the
/// kernel run.
fn execute_wave<E: WaveExecutor>(shared: &Shared<E>, wave: Vec<Parked<ReplyTo>>) {
    shared.hub.waves.fetch_add(1, Ordering::Relaxed);
    let mut live: Vec<Parked<ReplyTo>> = Vec::with_capacity(wave.len());
    for parked in wave {
        if deadline_missed(&parked) {
            reply_timeout(shared, &parked);
        } else {
            live.push(parked);
        }
    }
    if live.is_empty() {
        return;
    }
    let queries: Vec<Admitted> = live.iter().map(|p| p.admitted).collect();
    let report = shared.executor.execute_wave(&queries);
    let wave_queries = live.len() as u64;
    for (outcome, parked) in report.outcomes.iter().zip(&live) {
        if deadline_missed(parked) {
            reply_timeout(shared, parked);
            continue;
        }
        let latency_ms = parked.submitted.elapsed().as_secs_f64() * 1e3;
        let (distance, reachable, depths, parents) = match &outcome.result {
            QueryResult::Parents { parents, depths } => {
                (None, None, Some(depths.clone()), Some(parents.clone()))
            }
            QueryResult::Distances { depths } => (None, None, Some(depths.clone()), None),
            QueryResult::StCon { distance } => (*distance, None, None, None),
            QueryResult::Reachable { reachable } => (None, Some(*reachable), None, None),
        };
        // Count before replying, as the other replies do, so a client that
        // reads its answer and asks for `stats` sees it served.
        shared.hub.served.fetch_add(1, Ordering::Relaxed);
        shared
            .hub
            .served_edges
            .fetch_add(outcome.edges, Ordering::Relaxed);
        shared.hub.record_latency_ms(latency_ms);
        write_frame(
            &parked.payload.writer,
            &Response::Ok(QueryReply {
                tag: parked.payload.tag,
                kind: outcome.query.kind_name().to_string(),
                wave_queries,
                queue_ms: outcome.queue_seconds * 1e3,
                service_ms: outcome.service_seconds * 1e3,
                latency_ms,
                edges: outcome.edges,
                distance,
                reachable,
                depths,
                parents,
            }),
        );
    }
}
