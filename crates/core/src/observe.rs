//! Bridge between BFS executions and the trace session: derives per-level
//! export metadata from a [`WorkProfile`], and synthesizes the model-mode
//! timeline so native and modelled runs flow through the same trace
//! pipeline (and emit the same number of level spans per thread).

use mcbfs_machine::profile::{Direction, WorkProfile};
use mcbfs_trace::{EventKind, LevelMeta, TraceEvent};

fn direction_tag(d: Direction) -> &'static str {
    match d {
        Direction::TopDown => "td",
        Direction::BottomUp => "bu",
    }
}

/// Per-level metadata (direction, vertices processed, edges scanned) for
/// the exporters, straight from the run's own operation profile.
pub fn level_meta(profile: &WorkProfile) -> Vec<LevelMeta> {
    profile
        .levels
        .iter()
        .enumerate()
        .map(|(i, l)| {
            let total = l.total();
            LevelMeta {
                level: i as u32,
                direction: direction_tag(l.direction).to_string(),
                frontier: total.vertices_scanned,
                edges_scanned: total.edges_scanned,
            }
        })
        .collect()
}

/// Deposits a synthetic per-thread timeline for a modelled run into the
/// active trace session.
///
/// The model prices each level at the slowest thread's cost
/// (`level_seconds[l]`); every virtual thread gets one [`EventKind::Level`]
/// span covering the level, and threads with less work than the critical
/// path get a [`EventKind::BarrierWait`] span for their idle tail —
/// exactly the load-imbalance picture the paper's barrier analysis draws.
/// At the start of each level whose direction differs from its
/// predecessor's, every virtual thread gets an [`EventKind::Convert`] span,
/// as each native thread records one for its share of the frontier
/// conversion, and virtual thread 0 also gets the
/// [`EventKind::DirectionSwitch`] instant a native run's leader records.
/// The model prices the conversion inside the level, so the span is empty.
pub fn inject_model_timeline(profile: &WorkProfile, level_seconds: &[f64]) {
    if !mcbfs_trace::enabled() {
        return;
    }
    let threads = profile.threads.max(1);
    for tid in 0..threads {
        let mut events = Vec::with_capacity(profile.levels.len() * 2);
        let mut cursor = 0u64;
        for (l, level) in profile.levels.iter().enumerate() {
            if l > 0 && profile.levels[l - 1].direction != level.direction {
                let at = |kind| TraceEvent {
                    start_ns: cursor,
                    dur_ns: 0,
                    kind,
                    arg: level.direction as u64,
                };
                if tid == 0 {
                    events.push(at(EventKind::DirectionSwitch));
                }
                events.push(at(EventKind::Convert));
            }
            let level_ns = level_seconds
                .get(l)
                .map(|s| (s * 1e9) as u64)
                .unwrap_or(0)
                .max(1);
            let ops = level.threads.get(tid).map(|t| t.total_ops()).unwrap_or(0);
            let max_ops = level
                .threads
                .iter()
                .map(|t| t.total_ops())
                .max()
                .unwrap_or(0)
                .max(1);
            let busy_ns = ((level_ns as u128 * ops as u128) / max_ops as u128) as u64;
            events.push(TraceEvent {
                start_ns: cursor,
                dur_ns: level_ns,
                kind: EventKind::Level,
                arg: l as u64,
            });
            if busy_ns < level_ns {
                events.push(TraceEvent {
                    start_ns: cursor + busy_ns,
                    dur_ns: level_ns - busy_ns,
                    kind: EventKind::BarrierWait,
                    arg: 0,
                });
            }
            cursor += level_ns;
        }
        mcbfs_trace::inject(tid, events);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcbfs_machine::profile::LevelProfile;

    fn profile() -> WorkProfile {
        let mut p = WorkProfile {
            threads: 2,
            sockets: 1,
            num_vertices: 16,
            visited_bytes: 2,
            pipelined: true,
            sharded_state: true,
            edges_traversed: 30,
            levels: vec![LevelProfile::new(2, 2); 3],
        };
        p.levels[1].direction = Direction::BottomUp;
        for (i, l) in p.levels.iter_mut().enumerate() {
            l.threads[0].vertices_scanned = 2 + i as u64;
            l.threads[0].edges_scanned = 10 * (i as u64 + 1);
        }
        p
    }

    #[test]
    fn level_meta_tags_direction_and_counts() {
        let meta = level_meta(&profile());
        assert_eq!(meta.len(), 3);
        assert_eq!(meta[0].direction, "td");
        assert_eq!(meta[1].direction, "bu");
        assert_eq!(meta[2].level, 2);
        assert_eq!(meta[1].frontier, 3);
        assert_eq!(meta[1].edges_scanned, 20);
    }
}
