//! The engine's trace spans, counted in a process of their own.
//!
//! A trace session is process-global: while one is open, every thread
//! that admits or executes a batch records into it. Alone in this test
//! binary, the traced batch below is the only source of spans, so the
//! counts are exact.

use mcbfs_gen::prelude::*;
use mcbfs_query::{Query, QueryEngine};
use mcbfs_trace::EventKind;

#[test]
fn traced_batch_records_admit_and_execute_spans() {
    let g = RmatBuilder::new(9, 8).seed(21).build();
    let queries: Vec<Query> = (0..6).map(|i| Query::Distances { root: i }).collect();
    let report = QueryEngine::new(&g)
        .max_batch(3)
        .traced(true)
        .execute(&queries);
    if cfg!(feature = "trace") {
        let trace = report.trace.expect("trace collected");
        let count = |kind: EventKind| {
            trace
                .threads
                .iter()
                .flat_map(|t| &t.events)
                .filter(|e| e.kind == kind)
                .count()
        };
        assert_eq!(count(EventKind::BatchAdmit), 2);
        assert_eq!(count(EventKind::BatchExecute), 2);
        assert!(count(EventKind::Level) > 0, "kernel level spans recorded");
    } else {
        assert!(report.trace.is_none());
    }
}
