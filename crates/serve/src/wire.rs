//! `mcbfs-wire-v1`: the serving protocol.
//!
//! Frames are newline-delimited JSON objects, one frame per line, with an
//! explicit version field (`"v": 1`) on every frame. Requests carry a
//! client-chosen `tag` that the server echoes on the matching response, so
//! a client may pipeline requests over one connection and match answers
//! out of order. Every query request receives **exactly one** response —
//! `ok`, `rejected`, `timeout`, or `error` — which is what makes the load
//! generator's accounting (`served + shed + timeout + error == submitted`)
//! checkable end to end.
//!
//! The vendored serde derive only covers named-field structs and
//! unit-variant enums, so the frame enums here carry hand-written
//! [`Serialize`]/[`Deserialize`] impls over the [`Value`] tree. A
//! malformed inbound line is a *protocol error*: the server answers with
//! an [`Response::Error`] frame and keeps the connection open.

use mcbfs_query::Query;
use serde::{Deserialize, Error as SerdeError, Serialize, Value};

use crate::shed::ServerStats;

/// Protocol version stamped on (and required of) every frame.
pub const WIRE_VERSION: u64 = 1;

/// Why an inbound line failed to decode. Version mismatches are kept
/// distinct from garbage: a well-formed frame from a future (or ancient)
/// client deserves a structured `error: version …` reply carrying its
/// exact tag, so mixed-version clients can detect the incompatibility
/// programmatically instead of fishing through a generic parse error.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The frame is valid JSON but its `v` field is not [`WIRE_VERSION`].
    Version {
        /// The version the frame carried.
        got: u64,
        /// The frame's correlation tag, when it had one (exact, not
        /// salvaged — the frame parsed as JSON).
        tag: Option<u64>,
    },
    /// Anything else: not JSON, missing fields, unknown commands.
    Malformed(String),
}

impl core::fmt::Display for WireError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            WireError::Version { got, .. } => write!(
                f,
                "version: this side speaks wire v{WIRE_VERSION}, frame carried v{got}"
            ),
            WireError::Malformed(e) => f.write_str(e),
        }
    }
}

impl std::error::Error for WireError {}

/// Why a request was rejected at admission.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RejectReason {
    /// The bounded pending queue was at its high-water mark (load shed).
    Overloaded,
    /// The server is draining for shutdown.
    Draining,
}

impl RejectReason {
    fn as_str(self) -> &'static str {
        match self {
            RejectReason::Overloaded => "overloaded",
            RejectReason::Draining => "draining",
        }
    }

    fn parse(s: &str) -> Result<Self, SerdeError> {
        match s {
            "overloaded" => Ok(RejectReason::Overloaded),
            "draining" => Ok(RejectReason::Draining),
            other => Err(SerdeError(format!("unknown reject reason `{other}`"))),
        }
    }
}

/// Client → server frame.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Execute one graph query, optionally under a latency deadline.
    Query {
        /// Client correlation tag, echoed on the response.
        tag: u64,
        /// The query to execute.
        query: Query,
        /// Per-request deadline: if the answer cannot be returned within
        /// this many milliseconds of admission, the server replies
        /// `timeout` instead of a stale result.
        deadline_ms: Option<f64>,
    },
    /// Fetch live [`ServerStats`] (also the loadgen handshake: the reply
    /// carries the graph shape).
    Stats {
        /// Client correlation tag.
        tag: u64,
    },
    /// Liveness probe.
    Ping {
        /// Client correlation tag.
        tag: u64,
    },
}

/// Server → client frame.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// A query's answer with its serving metrics.
    Ok(QueryReply),
    /// The request was not admitted; nothing was executed.
    Rejected {
        /// Echoed client tag.
        tag: u64,
        /// Why admission refused it.
        reason: RejectReason,
    },
    /// The deadline expired before the answer could be returned.
    Timeout {
        /// Echoed client tag.
        tag: u64,
        /// How long the request had been in flight, milliseconds.
        waited_ms: f64,
    },
    /// Live server statistics.
    Stats {
        /// Echoed client tag.
        tag: u64,
        /// The snapshot.
        stats: ServerStats,
    },
    /// Liveness reply.
    Pong {
        /// Echoed client tag.
        tag: u64,
    },
    /// The request could not be understood or executed (malformed frame,
    /// vertex out of range). The connection stays open.
    Error {
        /// Echoed client tag when the frame parsed far enough to have one.
        tag: Option<u64>,
        /// Human-readable reason.
        error: String,
    },
}

/// The `ok` response payload: answer plus serving metrics.
#[derive(Clone, Debug, PartialEq)]
pub struct QueryReply {
    /// Echoed client tag.
    pub tag: u64,
    /// Query kind tag (`parents`/`distances`/`stcon`/`reachable`).
    pub kind: String,
    /// Queries in the wave that served this request.
    pub wave_queries: u64,
    /// Milliseconds queued in the batcher, submission to wave seal.
    pub queue_ms: f64,
    /// Execution milliseconds of the serving wave.
    pub service_ms: f64,
    /// Milliseconds from admission to the response being written.
    pub latency_ms: f64,
    /// TEPS numerator (reachable adjacency entries).
    pub edges: u64,
    /// `stcon` answer: hop distance if connected.
    pub distance: Option<u32>,
    /// `reachable` answer.
    pub reachable: Option<bool>,
    /// Hop distances (`u32::MAX` unreached) for `parents`/`distances`.
    pub depths: Option<Vec<u32>>,
    /// BFS tree for `parents` (`parents[root] == root`).
    pub parents: Option<Vec<u32>>,
}

/// A frame object whose first field is the protocol version `"v"`
/// ([`WIRE_VERSION`]), followed by `fields` in order.
fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        std::iter::once(("v".to_string(), Value::U64(WIRE_VERSION)))
            .chain(fields.into_iter().map(|(k, v)| (k.to_string(), v)))
            .collect(),
    )
}

/// A required field of a frame object.
pub fn field<T: Deserialize>(v: &Value, key: &str) -> Result<T, SerdeError> {
    T::from_value(v.get(key).ok_or_else(|| SerdeError::missing(key))?)
}

/// An optional field of a frame object: missing and `null` are both
/// absent.
pub fn opt_field<T: Deserialize>(v: &Value, key: &str) -> Result<Option<T>, SerdeError> {
    match v.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(x) => T::from_value(x).map(Some),
    }
}

fn check_version(v: &Value) -> Result<(), SerdeError> {
    let got: u64 = field(v, "v")?;
    if got != WIRE_VERSION {
        return Err(SerdeError(format!(
            "unsupported wire version {got} (this server speaks {WIRE_VERSION})"
        )));
    }
    Ok(())
}

impl Serialize for Request {
    fn to_value(&self) -> Value {
        match self {
            Request::Query {
                tag,
                query,
                deadline_ms,
            } => obj(vec![
                ("cmd", Value::Str("query".into())),
                ("tag", Value::U64(*tag)),
                ("kind", Value::Str(query.kind_name().into())),
                ("source", Value::U64(query.source() as u64)),
                ("target", query.target().to_value()),
                ("deadline_ms", deadline_ms.to_value()),
            ]),
            Request::Stats { tag } => obj(vec![
                ("cmd", Value::Str("stats".into())),
                ("tag", Value::U64(*tag)),
            ]),
            Request::Ping { tag } => obj(vec![
                ("cmd", Value::Str("ping".into())),
                ("tag", Value::U64(*tag)),
            ]),
        }
    }
}

impl Deserialize for Request {
    fn from_value(v: &Value) -> Result<Self, SerdeError> {
        check_version(v)?;
        let cmd: String = field(v, "cmd")?;
        let tag: u64 = field(v, "tag")?;
        match cmd.as_str() {
            "query" => {
                let kind: String = field(v, "kind")?;
                let source: u32 = field(v, "source")?;
                let target: Option<u32> = opt_field(v, "target")?;
                let need_target = || {
                    target.ok_or_else(|| SerdeError(format!("`{kind}` requires a `target` field")))
                };
                let query = match kind.as_str() {
                    "parents" => Query::Parents { root: source },
                    "distances" => Query::Distances { root: source },
                    "stcon" => Query::StCon {
                        s: source,
                        t: need_target()?,
                    },
                    "reachable" => Query::Reachable {
                        from: source,
                        to: need_target()?,
                    },
                    other => return Err(SerdeError(format!("unknown query kind `{other}`"))),
                };
                Ok(Request::Query {
                    tag,
                    query,
                    deadline_ms: opt_field(v, "deadline_ms")?,
                })
            }
            "stats" => Ok(Request::Stats { tag }),
            "ping" => Ok(Request::Ping { tag }),
            other => Err(SerdeError(format!("unknown command `{other}`"))),
        }
    }
}

impl Serialize for Response {
    fn to_value(&self) -> Value {
        match self {
            Response::Ok(r) => obj(vec![
                ("status", Value::Str("ok".into())),
                ("tag", Value::U64(r.tag)),
                ("kind", Value::Str(r.kind.clone())),
                ("wave_queries", Value::U64(r.wave_queries)),
                ("queue_ms", Value::F64(r.queue_ms)),
                ("service_ms", Value::F64(r.service_ms)),
                ("latency_ms", Value::F64(r.latency_ms)),
                ("edges", Value::U64(r.edges)),
                ("distance", r.distance.to_value()),
                ("reachable", r.reachable.to_value()),
                ("depths", r.depths.to_value()),
                ("parents", r.parents.to_value()),
            ]),
            Response::Rejected { tag, reason } => obj(vec![
                ("status", Value::Str("rejected".into())),
                ("tag", Value::U64(*tag)),
                ("reason", Value::Str(reason.as_str().into())),
            ]),
            Response::Timeout { tag, waited_ms } => obj(vec![
                ("status", Value::Str("timeout".into())),
                ("tag", Value::U64(*tag)),
                ("waited_ms", Value::F64(*waited_ms)),
            ]),
            Response::Stats { tag, stats } => obj(vec![
                ("status", Value::Str("stats".into())),
                ("tag", Value::U64(*tag)),
                ("stats", stats.to_value()),
            ]),
            Response::Pong { tag } => obj(vec![
                ("status", Value::Str("pong".into())),
                ("tag", Value::U64(*tag)),
            ]),
            Response::Error { tag, error } => obj(vec![
                ("status", Value::Str("error".into())),
                ("tag", tag.to_value()),
                ("error", Value::Str(error.clone())),
            ]),
        }
    }
}

impl Deserialize for Response {
    fn from_value(v: &Value) -> Result<Self, SerdeError> {
        check_version(v)?;
        let status: String = field(v, "status")?;
        match status.as_str() {
            "ok" => Ok(Response::Ok(QueryReply {
                tag: field(v, "tag")?,
                kind: field(v, "kind")?,
                wave_queries: field(v, "wave_queries")?,
                queue_ms: field(v, "queue_ms")?,
                service_ms: field(v, "service_ms")?,
                latency_ms: field(v, "latency_ms")?,
                edges: field(v, "edges")?,
                distance: opt_field(v, "distance")?,
                reachable: opt_field(v, "reachable")?,
                depths: opt_field(v, "depths")?,
                parents: opt_field(v, "parents")?,
            })),
            "rejected" => Ok(Response::Rejected {
                tag: field(v, "tag")?,
                reason: RejectReason::parse(&field::<String>(v, "reason")?)?,
            }),
            "timeout" => Ok(Response::Timeout {
                tag: field(v, "tag")?,
                waited_ms: field(v, "waited_ms")?,
            }),
            "stats" => Ok(Response::Stats {
                tag: field(v, "tag")?,
                stats: field(v, "stats")?,
            }),
            "pong" => Ok(Response::Pong {
                tag: field(v, "tag")?,
            }),
            "error" => Ok(Response::Error {
                tag: opt_field(v, "tag")?,
                error: field(v, "error")?,
            }),
            other => Err(SerdeError(format!("unknown status `{other}`"))),
        }
    }
}

/// Encodes one frame as a JSON line (newline included).
pub fn encode<T: Serialize>(frame: &T) -> String {
    let mut line = serde_json::to_string(frame).expect("frames always serialize");
    line.push('\n');
    line
}

/// Decodes one inbound line into a frame. Version mismatches are reported
/// as [`WireError::Version`] (with the frame's exact tag when present);
/// everything else is [`WireError::Malformed`], whose message is safe to
/// echo back in an [`Response::Error`] frame.
pub fn decode<T: Deserialize>(line: &str) -> Result<T, WireError> {
    let value: Value =
        serde_json::from_str(line.trim_end()).map_err(|e| WireError::Malformed(e.0))?;
    match value.get("v").map(u64::from_value) {
        Some(Ok(got)) if got != WIRE_VERSION => {
            return Err(WireError::Version {
                got,
                tag: value.get("tag").and_then(|t| u64::from_value(t).ok()),
            })
        }
        _ => {}
    }
    T::from_value(&value).map_err(|e| WireError::Malformed(e.0))
}

/// Best-effort tag recovery from a malformed query frame, so the error
/// reply can still be correlated by pipelining clients.
pub fn salvage_tag(line: &str) -> Option<u64> {
    #[derive(Deserialize)]
    struct TagProbe {
        tag: u64,
    }
    serde_json::from_str::<TagProbe>(line.trim_end())
        .ok()
        .map(|p| p.tag)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip_request(r: &Request) {
        let line = encode(r);
        assert!(line.ends_with('\n'));
        let back: Request = decode(&line).expect("request reparses");
        assert_eq!(&back, r);
    }

    fn round_trip_response(r: &Response) {
        let back: Response = decode(&encode(r)).expect("response reparses");
        assert_eq!(&back, r);
    }

    #[test]
    fn requests_round_trip() {
        round_trip_request(&Request::Query {
            tag: 7,
            query: Query::Parents { root: 3 },
            deadline_ms: Some(12.5),
        });
        round_trip_request(&Request::Query {
            tag: u64::MAX,
            query: Query::StCon { s: 1, t: 2 },
            deadline_ms: None,
        });
        round_trip_request(&Request::Stats { tag: 0 });
        round_trip_request(&Request::Ping { tag: 9 });
    }

    #[test]
    fn responses_round_trip() {
        round_trip_response(&Response::Ok(QueryReply {
            tag: 4,
            kind: "distances".into(),
            wave_queries: 64,
            queue_ms: 0.25,
            service_ms: 1.5,
            latency_ms: 2.0,
            edges: 123,
            distance: None,
            reachable: None,
            depths: Some(vec![0, 1, u32::MAX]),
            parents: None,
        }));
        round_trip_response(&Response::Rejected {
            tag: 5,
            reason: RejectReason::Overloaded,
        });
        round_trip_response(&Response::Timeout {
            tag: 6,
            waited_ms: 51.0,
        });
        round_trip_response(&Response::Pong { tag: 1 });
        round_trip_response(&Response::Error {
            tag: None,
            error: "bad frame".into(),
        });
    }

    #[test]
    fn version_mismatch_and_malformed_frames_error() {
        // A well-formed frame with the wrong version is a *version* error
        // carrying the exact tag, not a generic parse failure.
        assert_eq!(
            decode::<Request>("{\"v\":2,\"cmd\":\"ping\",\"tag\":1}").unwrap_err(),
            WireError::Version {
                got: 2,
                tag: Some(1)
            }
        );
        assert_eq!(
            decode::<Request>("{\"v\":0,\"cmd\":\"stats\"}").unwrap_err(),
            WireError::Version { got: 0, tag: None }
        );
        assert!(matches!(
            decode::<Request>("not json").unwrap_err(),
            WireError::Malformed(_)
        ));
        assert!(matches!(
            decode::<Request>("{\"v\":1,\"cmd\":\"warp\",\"tag\":1}").unwrap_err(),
            WireError::Malformed(_)
        ));
        // stcon without a target is a structured error, not a panic.
        let e = decode::<Request>(
            "{\"v\":1,\"cmd\":\"query\",\"tag\":1,\"kind\":\"stcon\",\"source\":0}",
        );
        assert!(e.unwrap_err().to_string().contains("target"));
    }

    #[test]
    fn version_error_is_detectable_and_displayable() {
        let e = decode::<Response>("{\"v\":3,\"status\":\"pong\",\"tag\":9}").unwrap_err();
        assert_eq!(
            e,
            WireError::Version {
                got: 3,
                tag: Some(9)
            }
        );
        let msg = e.to_string();
        assert!(msg.starts_with("version:"), "{msg}");
        assert!(msg.contains("v3") && msg.contains("v1"), "{msg}");
    }

    #[test]
    fn salvages_tags_from_malformed_frames() {
        assert_eq!(
            salvage_tag("{\"v\":1,\"cmd\":\"warp\",\"tag\":42}"),
            Some(42)
        );
        assert_eq!(salvage_tag("garbage"), None);
    }
}
