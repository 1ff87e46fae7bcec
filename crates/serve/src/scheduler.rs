//! The scheduler thread: deadline-aware continuous batching.
//!
//! One thread owns wave sealing and execution. Its loop is the
//! inference-serving close rule applied to graph queries: a wave is sealed
//! the moment the batcher reports *ready* — a full `max_batch` pending,
//! **or** the oldest pending query aged past `max_wait`, whichever fires
//! first — so light load pays at most `max_wait` of batching delay while
//! heavy load fills 64-wide waves back to back (continuous batching, no
//! fixed epochs).
//!
//! Deadlines are enforced twice per query: at seal (a query already past
//! its deadline is answered `timeout` without burning kernel time on it)
//! and again at routing (an answer that arrives late is replaced by an
//! explicit `timeout` frame — the client never gets a stale result
//! presented as fresh). Both paths record an
//! [`EventKind::DeadlineMiss`] instant.
//!
//! On drain: the server flips the draining flag, the scheduler closes the
//! batcher (new submissions are rejected as `draining`), then seals and
//! executes every remaining wave before exiting — admitted queries are
//! always answered, even across shutdown.

use crate::server::{write_frame, PendingEntry, Shared, WaveExecutor};
use crate::wire::{QueryReply, Response};
use mcbfs_query::{Admitted, QueryResult};
use mcbfs_trace::EventKind;
use std::sync::atomic::Ordering;
use std::time::Duration;

/// Runs the sealing loop until drained. Spawned by `server::serve`.
pub(crate) fn run<E: WaveExecutor>(shared: &Shared<E>) {
    // Poll at a fraction of the age deadline so a partial wave is sealed
    // within ~max_wait of its oldest query, without busy-spinning.
    let nap = (shared.max_wait / 4).clamp(Duration::from_micros(100), Duration::from_millis(1));
    loop {
        if shared.batcher.ready() {
            if let Some(wave) = shared.batcher.take_wave() {
                execute_wave(shared, wave);
            }
            continue;
        }
        if shared.draining() {
            shared.batcher.close();
            while let Some(wave) = shared.batcher.take_wave() {
                execute_wave(shared, wave);
            }
            return;
        }
        std::thread::sleep(nap);
    }
}

fn deadline_missed(entry: &PendingEntry) -> bool {
    entry
        .deadline
        .is_some_and(|d| entry.submitted.elapsed() > d)
}

fn reply_timeout<E: WaveExecutor>(shared: &Shared<E>, entry: &PendingEntry) {
    let waited = entry.submitted.elapsed();
    shared.hub.timeouts.fetch_add(1, Ordering::Relaxed);
    mcbfs_trace::instant(EventKind::DeadlineMiss, waited.as_micros() as u64);
    write_frame(
        &entry.writer,
        &Response::Timeout {
            tag: entry.tag,
            waited_ms: waited.as_secs_f64() * 1e3,
        },
    );
}

/// Executes one sealed wave and routes every answer. Queries whose
/// deadline already passed are timed out up front and excluded from the
/// kernel run.
fn execute_wave<E: WaveExecutor>(shared: &Shared<E>, wave: Vec<Admitted>) {
    shared.hub.waves.fetch_add(1, Ordering::Relaxed);
    let entries: Vec<Option<PendingEntry>> = {
        let mut pending = shared.pending.lock().expect("pending map lock");
        wave.iter().map(|a| pending.remove(&a.id)).collect()
    };
    let mut live: Vec<Admitted> = Vec::with_capacity(wave.len());
    let mut live_entries: Vec<PendingEntry> = Vec::with_capacity(wave.len());
    for (admitted, entry) in wave.into_iter().zip(entries) {
        // Admission parks the entry under the same lock that issued the
        // ticket, so it is always present; a serving loop still must not
        // panic on an impossible state.
        let Some(entry) = entry else { continue };
        if deadline_missed(&entry) {
            reply_timeout(shared, &entry);
        } else {
            live.push(admitted);
            live_entries.push(entry);
        }
    }
    if live.is_empty() {
        return;
    }
    let report = shared.executor.execute_wave(&live);
    let wave_queries = live.len() as u64;
    for (outcome, entry) in report.outcomes.iter().zip(&live_entries) {
        if deadline_missed(entry) {
            reply_timeout(shared, entry);
            continue;
        }
        let latency_ms = entry.submitted.elapsed().as_secs_f64() * 1e3;
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
            &entry.writer,
            &Response::Ok(QueryReply {
                tag: entry.tag,
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
