//! Acceptance tests for the serving layer (ISSUE 5).
//!
//! Three pillars:
//!
//! 1. **End-to-end parity.** Answers delivered over `mcbfs-wire-v1` match
//!    the offline `QueryEngine` for depths, parents (validated as a BFS
//!    tree whose implied depths match), and st-connectivity, at wave
//!    widths {1, 7, 64}. Every reply's `edges`, the numerator of the
//!    served rate, equals the reachable adjacency of its source, from
//!    singletons and wide waves alike.
//! 2. **Overload behavior.** Past the admission high-water mark the
//!    server replies `rejected: overloaded` — every submitted request
//!    receives exactly one response, and the admitted ones are all
//!    answered.
//! 3. **Lifecycle.** Malformed frames get an `error` reply on a
//!    still-open connection; a frame split across read timeouts is
//!    reassembled, not dropped; deadlines produce explicit `timeout`
//!    frames; shutdown drains every in-flight query before `serve`
//!    returns.

use multicore_bfs::gen::prelude::*;
use multicore_bfs::graph::csr::CsrGraph;
use multicore_bfs::graph::validate::{
    depths_from_parents, reachable_edges, sequential_levels, validate_bfs_tree,
};
use multicore_bfs::query::{Query, QueryEngine, QueryResult};
use multicore_bfs::serve::wire::{self, QueryReply, RejectReason, Request, Response};
use multicore_bfs::serve::{serve, ServeOpts, ServerStats, ShutdownHandle};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Runs `f` against a live server on a fresh port, then drains it and
/// returns `f`'s result plus the server's final statistics.
fn with_server<R: Send>(
    graph: &CsrGraph,
    opts: ServeOpts,
    f: impl FnOnce(SocketAddr) -> R + Send,
) -> (R, ServerStats) {
    let opts = ServeOpts {
        addr: "127.0.0.1:0".to_string(),
        ..opts
    };
    let shutdown = ShutdownHandle::new();
    let (tx, rx) = std::sync::mpsc::channel();
    let mut result = None;
    let mut stats = None;
    std::thread::scope(|scope| {
        let server_shutdown = shutdown.clone();
        let opts = &opts;
        let server = scope.spawn(move || {
            serve(graph, opts, &server_shutdown, move |addr| {
                tx.send(addr).expect("ready callback delivers the address")
            })
            .expect("server binds an ephemeral port")
        });
        let addr = rx.recv().expect("server reports readiness");
        result = Some(f(addr));
        shutdown.request();
        stats = Some(server.join().expect("server thread exits cleanly"));
    });
    (result.unwrap(), stats.unwrap())
}

/// A raw wire-v1 client over one connection.
struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: SocketAddr) -> Self {
        let writer = TcpStream::connect(addr).expect("connect to test server");
        writer.set_nodelay(true).expect("nodelay");
        let reader = BufReader::new(writer.try_clone().expect("clone stream"));
        Self { writer, reader }
    }

    fn send(&mut self, request: &Request) {
        self.send_raw(&wire::encode(request));
    }

    fn send_raw(&mut self, line: &str) {
        self.writer
            .write_all(line.as_bytes())
            .and_then(|_| self.writer.flush())
            .expect("write frame");
    }

    fn recv(&mut self) -> Response {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).expect("read frame");
        assert!(n > 0, "server closed the connection unexpectedly");
        wire::decode(&line).expect("server frames always parse")
    }

    /// Collects `n` responses (answers may arrive out of submission
    /// order), keyed by tag.
    fn recv_tagged(&mut self, n: usize) -> HashMap<u64, Response> {
        let mut out = HashMap::with_capacity(n);
        for _ in 0..n {
            let r = self.recv();
            let tag = match &r {
                Response::Ok(reply) => reply.tag,
                Response::Rejected { tag, .. }
                | Response::Timeout { tag, .. }
                | Response::Stats { tag, .. }
                | Response::Pong { tag } => *tag,
                Response::Error { tag, .. } => tag.expect("query errors carry the tag"),
            };
            assert!(out.insert(tag, r).is_none(), "duplicate response tag");
        }
        out
    }
}

/// A mixed query set over sampled sources: every kind, cycling.
fn mixed_queries(graph: &CsrGraph, count: usize) -> Vec<Query> {
    let roots = multicore_bfs::core::kernel::sample_roots(graph, count, 2026);
    roots
        .iter()
        .enumerate()
        .map(|(i, &r)| {
            let other = roots[(i + 1) % roots.len()];
            match i % 4 {
                0 => Query::Parents { root: r },
                1 => Query::Distances { root: r },
                2 => Query::StCon { s: r, t: other },
                _ => Query::Reachable { from: r, to: other },
            }
        })
        .collect()
}

fn reply_of(response: &Response) -> &QueryReply {
    match response {
        Response::Ok(reply) => reply,
        other => panic!("expected ok, got {other:?}"),
    }
}

#[test]
fn wire_answers_match_offline_engine_at_all_wave_widths() {
    let graph = RmatBuilder::new(12, 8).seed(7).permute(true).build();
    let queries = mixed_queries(&graph, 64);
    for max_batch in [1usize, 7, 64] {
        // Offline reference: the same query set through the in-process
        // engine at the same wave width.
        let offline = QueryEngine::new(&graph)
            .threads(2)
            .max_batch(max_batch)
            .execute(&queries);
        let opts = ServeOpts {
            threads: 2,
            max_batch,
            max_wait: Duration::from_millis(1),
            ..ServeOpts::default()
        };
        let (responses, stats) = with_server(&graph, opts, |addr| {
            let mut client = Client::connect(addr);
            for (tag, query) in queries.iter().enumerate() {
                client.send(&Request::Query {
                    tag: tag as u64,
                    query: *query,
                    deadline_ms: None,
                });
            }
            client.recv_tagged(queries.len())
        });
        assert_eq!(stats.served, queries.len() as u64, "batch={max_batch}");
        assert_eq!(stats.shed + stats.timeouts + stats.errors, 0);
        for (tag, query) in queries.iter().enumerate() {
            let wire_reply = reply_of(&responses[&(tag as u64)]);
            assert_eq!(wire_reply.kind, query.kind_name());
            let offline_outcome = &offline.outcomes[tag];
            match (&offline_outcome.result, query) {
                (QueryResult::Distances { depths }, _) => {
                    // Depths are deterministic: wire == offline, exactly.
                    assert_eq!(
                        wire_reply.depths.as_deref(),
                        Some(&depths[..]),
                        "batch={max_batch} tag={tag} depth array diverged"
                    );
                }
                (QueryResult::Parents { depths, .. }, Query::Parents { root }) => {
                    // MS-BFS parent claims race, so the trees may differ;
                    // both must be valid and imply the same depths.
                    let parents = wire_reply.parents.as_ref().expect("parents reply");
                    validate_bfs_tree(&graph, *root, parents)
                        .expect("served parents form a valid BFS tree");
                    assert_eq!(&depths_from_parents(parents), depths);
                    assert_eq!(wire_reply.depths.as_deref(), Some(&depths[..]));
                }
                (QueryResult::StCon { distance }, _) => {
                    assert_eq!(
                        wire_reply.distance, *distance,
                        "batch={max_batch} tag={tag} stcon distance diverged"
                    );
                }
                (QueryResult::Reachable { reachable }, _) => {
                    assert_eq!(wire_reply.reachable, Some(*reachable));
                }
                (result, query) => panic!("result {result:?} does not match query {query:?}"),
            }
        }
    }
}

#[test]
fn every_reply_carries_its_searchs_teps_numerator() {
    // `edges` is what a served rate sums, so it must be the reachable
    // adjacency of the query's source whatever answered it: a singleton's
    // fallback run or a 64-wide wave's tallies, for every query kind.
    let graph = RmatBuilder::new(12, 8).seed(7).permute(true).build();
    let queries = mixed_queries(&graph, 64);
    for (max_batch, widths) in [(1usize, 1u64), (64, 64)] {
        let opts = ServeOpts {
            threads: 2,
            max_batch,
            // Long enough that the 64 queries seal one full wave.
            max_wait: Duration::from_secs(2),
            ..ServeOpts::default()
        };
        let (responses, _) = with_server(&graph, opts, |addr| {
            let mut client = Client::connect(addr);
            for (tag, query) in queries.iter().enumerate() {
                client.send(&Request::Query {
                    tag: tag as u64,
                    query: *query,
                    deadline_ms: None,
                });
            }
            client.recv_tagged(queries.len())
        });
        for (tag, query) in queries.iter().enumerate() {
            let reply = reply_of(&responses[&(tag as u64)]);
            let levels = sequential_levels(&graph, query.source());
            assert_eq!(reply.wave_queries, widths, "tag={tag}");
            assert_eq!(
                reply.edges,
                reachable_edges(&graph, &levels),
                "batch={max_batch} tag={tag} {query:?}"
            );
        }
    }
}

#[test]
fn overload_sheds_with_structured_replies_and_serves_the_admitted() {
    let graph = RmatBuilder::new(10, 8).seed(3).build();
    // A tiny admission ring behind a long seal deadline: the flood lands
    // while the first wave is still aging, so admission must shed.
    let opts = ServeOpts {
        threads: 2,
        max_batch: 64,
        max_wait: Duration::from_millis(100),
        queue_cap: 4,
        ..ServeOpts::default()
    };
    let flood = 32usize;
    let ((ok, rejected), stats) = with_server(&graph, opts, |addr| {
        let mut client = Client::connect(addr);
        for tag in 0..flood as u64 {
            client.send(&Request::Query {
                tag,
                query: Query::Distances { root: 0 },
                deadline_ms: None,
            });
        }
        let responses = client.recv_tagged(flood);
        let mut ok = 0usize;
        let mut rejected = 0usize;
        for response in responses.values() {
            match response {
                Response::Ok(_) => ok += 1,
                Response::Rejected {
                    reason: RejectReason::Overloaded,
                    ..
                } => rejected += 1,
                other => panic!("expected ok or overloaded, got {other:?}"),
            }
        }
        (ok, rejected)
    });
    // Every request got exactly one response; the ring admitted at least
    // its capacity and shed the rest with explicit replies.
    assert_eq!(ok + rejected, flood);
    assert!(rejected > 0, "flood past queue_cap=4 must shed");
    assert!(ok >= 4, "admitted requests must still be served");
    assert_eq!(stats.served, ok as u64);
    assert_eq!(stats.shed, rejected as u64);
    assert_eq!(stats.served + stats.shed, flood as u64, "nothing dropped");
}

#[test]
fn malformed_frames_error_without_closing_the_connection() {
    let graph = RmatBuilder::new(8, 8).seed(1).build();
    let (_, stats) = with_server(&graph, ServeOpts::default(), |addr| {
        let mut client = Client::connect(addr);
        client.send_raw("this is not json\n");
        match client.recv() {
            Response::Error { tag: None, .. } => {}
            other => panic!("expected untagged error, got {other:?}"),
        }
        client.send_raw("{\"v\":1,\"cmd\":\"warp\",\"tag\":77}\n");
        match client.recv() {
            Response::Error { tag: Some(77), .. } => {}
            other => panic!("expected tagged error, got {other:?}"),
        }
        // Out-of-range vertex: parses, but cannot execute.
        client.send(&Request::Query {
            tag: 5,
            query: Query::Distances { root: u32::MAX - 1 },
            deadline_ms: None,
        });
        match client.recv() {
            Response::Error {
                tag: Some(5),
                error,
            } => {
                assert!(error.contains("out of range"), "{error}");
            }
            other => panic!("expected range error, got {other:?}"),
        }
        // The connection survived all three: a valid query still works.
        client.send(&Request::Query {
            tag: 6,
            query: Query::Distances { root: 0 },
            deadline_ms: None,
        });
        match client.recv() {
            Response::Ok(reply) => assert_eq!(reply.tag, 6),
            other => panic!("expected ok after errors, got {other:?}"),
        }
        client.send(&Request::Ping { tag: 9 });
        assert_eq!(client.recv(), Response::Pong { tag: 9 });
    });
    assert_eq!(stats.protocol_errors, 2);
    assert_eq!(stats.errors, 1);
    assert_eq!(stats.served, 1);
}

#[test]
fn frame_split_across_read_timeouts_is_reassembled() {
    let graph = RmatBuilder::new(8, 8).seed(1).build();
    let (reply, stats) = with_server(&graph, ServeOpts::default(), |addr| {
        let mut client = Client::connect(addr);
        // The halves straddle several of the server's 50 ms read timeouts;
        // the first half must survive them and join the second.
        let frame = wire::encode(&Request::Ping { tag: 3 });
        let (head, tail) = frame.split_at(frame.len() / 2);
        client.send_raw(head);
        std::thread::sleep(Duration::from_millis(150));
        client.send_raw(tail);
        client.recv()
    });
    assert_eq!(reply, Response::Pong { tag: 3 });
    assert_eq!(stats.protocol_errors, 0);
}

#[test]
fn expired_deadlines_return_timeout_not_stale_results() {
    let graph = RmatBuilder::new(8, 8).seed(2).build();
    // The wave seals only after 80ms; a 5ms deadline is long dead by then.
    let opts = ServeOpts {
        max_batch: 64,
        max_wait: Duration::from_millis(80),
        ..ServeOpts::default()
    };
    let (_, stats) = with_server(&graph, opts, |addr| {
        let mut client = Client::connect(addr);
        client.send(&Request::Query {
            tag: 1,
            query: Query::Distances { root: 0 },
            deadline_ms: Some(5.0),
        });
        client.send(&Request::Query {
            tag: 2,
            query: Query::Distances { root: 0 },
            deadline_ms: None,
        });
        let responses = client.recv_tagged(2);
        match &responses[&1] {
            Response::Timeout { waited_ms, .. } => {
                assert!(*waited_ms >= 5.0, "waited {waited_ms}ms under the deadline");
            }
            other => panic!("expected timeout, got {other:?}"),
        }
        assert!(matches!(&responses[&2], Response::Ok(_)));
    });
    assert_eq!(stats.timeouts, 1);
    assert_eq!(stats.served, 1);
}

#[test]
fn stats_command_reports_graph_shape_and_accounting() {
    let graph = RmatBuilder::new(9, 8).seed(4).build();
    let (snapshot, finl) = with_server(&graph, ServeOpts::default(), |addr| {
        let mut client = Client::connect(addr);
        client.send(&Request::Query {
            tag: 1,
            query: Query::Parents { root: 0 },
            deadline_ms: None,
        });
        assert!(matches!(client.recv(), Response::Ok(_)));
        client.send(&Request::Stats { tag: 2 });
        match client.recv() {
            Response::Stats { tag: 2, stats } => stats,
            other => panic!("expected stats, got {other:?}"),
        }
    });
    assert_eq!(snapshot.vertices, graph.num_vertices() as u64);
    assert_eq!(snapshot.edges, graph.num_edges() as u64);
    assert_eq!(snapshot.served, 1);
    assert!(snapshot.served_edges > 0);
    assert!(snapshot.p50_latency_ms > 0.0);
    assert_eq!(finl.connections, 1);
}

#[test]
fn shutdown_drains_in_flight_queries_before_returning() {
    let graph = RmatBuilder::new(10, 8).seed(5).build();
    // Long seal deadline: the queries are still queued when shutdown
    // arrives, so answering them proves the drain executed the wave.
    let opts = ServeOpts {
        max_batch: 64,
        max_wait: Duration::from_secs(30),
        ..ServeOpts::default()
    };
    let in_flight = 5usize;
    let (responses, stats) = with_server(&graph, opts, |addr| {
        let mut client = Client::connect(addr);
        for tag in 0..in_flight as u64 {
            client.send(&Request::Query {
                tag,
                query: Query::Distances { root: tag as u32 },
                deadline_ms: None,
            });
        }
        // Give the reader time to park all five, then let `with_server`
        // request shutdown while they are still pending; the replies must
        // arrive during the drain.
        std::thread::sleep(Duration::from_millis(50));
        client
    });
    let mut client = responses;
    let drained = client.recv_tagged(in_flight);
    for tag in 0..in_flight as u64 {
        let reply = reply_of(&drained[&tag]);
        assert_eq!(reply.tag, tag);
        assert!(reply.depths.is_some());
    }
    assert_eq!(stats.served, in_flight as u64, "drain served every query");
    assert_eq!(stats.in_flight, 0, "nothing left parked after the drain");
}
