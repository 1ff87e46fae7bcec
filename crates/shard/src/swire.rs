//! `mcbfs-swire-v1`: the router ↔ shard-worker protocol.
//!
//! Same transport conventions as the client-facing `mcbfs-wire-v1`
//! (newline-delimited JSON frames, an explicit `"v"` field on every
//! frame, hand-written [`Serialize`]/[`Deserialize`] over the [`Value`]
//! tree, built and encoded with wire-v1's own helpers), but a different
//! vocabulary: instead of queries and answers it carries the per-level
//! frontier exchange of a wave running across 1D vertex-range shards.
//!
//! The central frame kind is **shard-exchange**: a level-stamped,
//! destination-bucketed list of frontier discoveries. Workers send one
//! [`ShardFrame::Exchange`] up per level (their cross-shard discoveries,
//! bucketed by owning shard, plus the local-next flag the router needs
//! for termination); the router merges buckets destined for each worker
//! — in shard order, so the merge is deterministic — and sends one
//! [`ShardFrame::Merged`] down per worker per level, *even when empty*,
//! because the empty frame is what releases a worker into its next
//! level.
//!
//! Both the live cluster and the in-process [`crate::engine::ShardedEngine`]
//! encode their exchange through this module, which is what lets model
//! mode predict the live cluster's per-level exchange bytes by counting
//! the bytes of the very frames the cluster would put on the wire.

use mcbfs_serve::wire::{self, field, opt_field};
use mcbfs_serve::ServerStats;
use serde::{Deserialize, Error as SerdeError, Serialize, Value};

/// Protocol version stamped on (and required of) every frame.
pub const SWIRE_VERSION: u64 = 1;

/// Why an inbound line failed to decode (mirrors the client protocol's
/// split: version mismatches are structured, everything else is opaque).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SwireError {
    /// The frame is valid JSON but its `v` field is not [`SWIRE_VERSION`].
    Version {
        /// The version the frame carried.
        got: u64,
    },
    /// Anything else: not JSON, missing fields, unknown commands.
    Malformed(String),
}

impl core::fmt::Display for SwireError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SwireError::Version { got } => write!(
                f,
                "version: this side speaks swire v{SWIRE_VERSION}, frame carried v{got}"
            ),
            SwireError::Malformed(e) => f.write_str(e),
        }
    }
}

impl std::error::Error for SwireError {}

/// One cross-shard frontier discovery: edge `u → v` was scanned at the
/// current level by the wave slots in `mask`, and `v` is owned by another
/// shard. Items are per-edge and unmerged — the owner decides which bits
/// are fresh and which discoverer becomes the parent — so parent
/// attribution stays exact under the owner's deterministic apply order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExchangeItem {
    /// Global id of the discovered vertex (owned by the bucket's shard).
    pub v: u32,
    /// Global id of the discovering frontier vertex (parent candidate).
    pub u: u32,
    /// Wave-slot bits that reached `v` through `u`.
    pub mask: u64,
}

impl Serialize for ExchangeItem {
    fn to_value(&self) -> Value {
        Value::Array(vec![
            Value::U64(self.v as u64),
            Value::U64(self.u as u64),
            Value::U64(self.mask),
        ])
    }
}

impl Deserialize for ExchangeItem {
    fn from_value(v: &Value) -> Result<Self, SerdeError> {
        match v {
            Value::Array(xs) if xs.len() == 3 => Ok(ExchangeItem {
                v: u32::from_value(&xs[0])?,
                u: u32::from_value(&xs[1])?,
                mask: u64::from_value(&xs[2])?,
            }),
            other => Err(SerdeError::mismatch("[v, u, mask] triple", other)),
        }
    }
}

/// One destination's share of a shard-exchange frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Bucket {
    /// Index of the shard that owns every `v` in `items`.
    pub dst: u64,
    /// The discoveries, in the sender's deterministic scan order.
    pub items: Vec<ExchangeItem>,
}

impl Serialize for Bucket {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("dst".to_string(), Value::U64(self.dst)),
            ("items".to_string(), self.items.to_value()),
        ])
    }
}

impl Deserialize for Bucket {
    fn from_value(v: &Value) -> Result<Self, SerdeError> {
        Ok(Bucket {
            dst: field(v, "dst")?,
            items: field(v, "items")?,
        })
    }
}

/// A shard worker's identity and shape, announced in reply to `hello`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ShardMeta {
    /// Global vertex count of the sharded graph.
    pub n: u64,
    /// Total shards in the partition.
    pub shards: u64,
    /// This worker's shard index.
    pub index: u64,
    /// First owned vertex (inclusive).
    pub owned_start: u64,
    /// Past-the-end owned vertex.
    pub owned_end: u64,
    /// Directed edges stored at this shard.
    pub local_edges: u64,
    /// Of those, edges whose target is owned elsewhere.
    pub cut_edges: u64,
}

/// One router ↔ worker frame. The `hello`/`meta` pair is the handshake;
/// `wave_start` … `wave_result` is the per-wave state machine; `stats` /
/// `stats_reply` serves cluster-wide statistics merging.
#[derive(Clone, Debug, PartialEq)]
pub enum ShardFrame {
    /// Router → worker: identify yourself.
    Hello,
    /// Worker → router: shard identity and shape.
    Meta(ShardMeta),
    /// Router → worker: start a wave with these slot sources.
    WaveStart {
        /// Router-assigned wave id, echoed on every wave frame.
        wave: u64,
        /// Global source vertex per wave slot.
        sources: Vec<u32>,
        /// Record parent attributions (any slot wants a BFS tree).
        record_parents: bool,
    },
    /// Worker → router: the shard-exchange frame — one level's cross-shard
    /// discoveries, bucketed by owning shard (non-empty buckets only, in
    /// `dst` order), plus what the router needs for termination and
    /// accounting.
    Exchange {
        /// Wave id.
        wave: u64,
        /// The BFS level that was just scanned.
        level: u64,
        /// Cross-shard discoveries by destination shard.
        buckets: Vec<Bucket>,
        /// True when the scan discovered any *owned* next-frontier vertex;
        /// the wave terminates at the first level where every worker says
        /// false and every bucket is empty.
        local_next: bool,
        /// Adjacency entries scanned at this level (the model's per-level
        /// compute term).
        edges_scanned: u64,
    },
    /// Router → worker: every discovery owned by this worker at `level`,
    /// merged across senders in shard order. Sent every level — an empty
    /// frame is the worker's barrier release into the next level.
    Merged {
        /// Wave id.
        wave: u64,
        /// The level the items were discovered at.
        level: u64,
        /// Discoveries owned by the receiving worker.
        items: Vec<ExchangeItem>,
    },
    /// Router → worker: the wave converged; return results.
    WaveFinish {
        /// Wave id.
        wave: u64,
    },
    /// Worker → router: per-slot results over the owned vertex range.
    WaveResult {
        /// Wave id.
        wave: u64,
        /// Per slot: hop depths of the owned range (`u32::MAX` unreached).
        depths: Vec<Vec<u32>>,
        /// Per slot: parent attributions, when requested.
        parents: Option<Vec<Vec<u32>>>,
        /// Per slot: TEPS numerator share (adjacency entries of reached
        /// owned vertices).
        slot_edges: Vec<u64>,
        /// BFS levels the wave executed.
        levels: u64,
    },
    /// Router → worker: snapshot your statistics.
    Stats,
    /// Worker → router: the snapshot (graph-shape fields owned by the
    /// worker, client-facing counters zeroed for [`ServerStats::merge`]).
    StatsReply {
        /// The worker's statistics part.
        stats: ServerStats,
    },
}

fn obj(cmd: &str, mut fields: Vec<(&str, Value)>) -> Value {
    fields.insert(0, ("cmd", Value::Str(cmd.to_string())));
    wire::versioned(SWIRE_VERSION, fields)
}

impl Serialize for ShardFrame {
    fn to_value(&self) -> Value {
        match self {
            ShardFrame::Hello => obj("hello", vec![]),
            ShardFrame::Meta(m) => obj(
                "meta",
                vec![
                    ("n", Value::U64(m.n)),
                    ("shards", Value::U64(m.shards)),
                    ("index", Value::U64(m.index)),
                    ("owned_start", Value::U64(m.owned_start)),
                    ("owned_end", Value::U64(m.owned_end)),
                    ("local_edges", Value::U64(m.local_edges)),
                    ("cut_edges", Value::U64(m.cut_edges)),
                ],
            ),
            ShardFrame::WaveStart {
                wave,
                sources,
                record_parents,
            } => obj(
                "wave_start",
                vec![
                    ("wave", Value::U64(*wave)),
                    ("sources", sources.to_value()),
                    ("record_parents", Value::Bool(*record_parents)),
                ],
            ),
            ShardFrame::Exchange {
                wave,
                level,
                buckets,
                local_next,
                edges_scanned,
            } => obj(
                "exchange",
                vec![
                    ("wave", Value::U64(*wave)),
                    ("level", Value::U64(*level)),
                    ("buckets", buckets.to_value()),
                    ("local_next", Value::Bool(*local_next)),
                    ("edges_scanned", Value::U64(*edges_scanned)),
                ],
            ),
            ShardFrame::Merged { wave, level, items } => obj(
                "merged",
                vec![
                    ("wave", Value::U64(*wave)),
                    ("level", Value::U64(*level)),
                    ("items", items.to_value()),
                ],
            ),
            ShardFrame::WaveFinish { wave } => {
                obj("wave_finish", vec![("wave", Value::U64(*wave))])
            }
            ShardFrame::WaveResult {
                wave,
                depths,
                parents,
                slot_edges,
                levels,
            } => obj(
                "wave_result",
                vec![
                    ("wave", Value::U64(*wave)),
                    ("depths", depths.to_value()),
                    ("parents", parents.to_value()),
                    ("slot_edges", slot_edges.to_value()),
                    ("levels", Value::U64(*levels)),
                ],
            ),
            ShardFrame::Stats => obj("stats", vec![]),
            ShardFrame::StatsReply { stats } => {
                obj("stats_reply", vec![("stats", stats.to_value())])
            }
        }
    }
}

impl Deserialize for ShardFrame {
    fn from_value(v: &Value) -> Result<Self, SerdeError> {
        let cmd: String = field(v, "cmd")?;
        match cmd.as_str() {
            "hello" => Ok(ShardFrame::Hello),
            "meta" => Ok(ShardFrame::Meta(ShardMeta {
                n: field(v, "n")?,
                shards: field(v, "shards")?,
                index: field(v, "index")?,
                owned_start: field(v, "owned_start")?,
                owned_end: field(v, "owned_end")?,
                local_edges: field(v, "local_edges")?,
                cut_edges: field(v, "cut_edges")?,
            })),
            "wave_start" => Ok(ShardFrame::WaveStart {
                wave: field(v, "wave")?,
                sources: field(v, "sources")?,
                record_parents: field(v, "record_parents")?,
            }),
            "exchange" => Ok(ShardFrame::Exchange {
                wave: field(v, "wave")?,
                level: field(v, "level")?,
                buckets: field(v, "buckets")?,
                local_next: field(v, "local_next")?,
                edges_scanned: field(v, "edges_scanned")?,
            }),
            "merged" => Ok(ShardFrame::Merged {
                wave: field(v, "wave")?,
                level: field(v, "level")?,
                items: field(v, "items")?,
            }),
            "wave_finish" => Ok(ShardFrame::WaveFinish {
                wave: field(v, "wave")?,
            }),
            "wave_result" => Ok(ShardFrame::WaveResult {
                wave: field(v, "wave")?,
                depths: field(v, "depths")?,
                parents: opt_field(v, "parents")?,
                slot_edges: field(v, "slot_edges")?,
                levels: field(v, "levels")?,
            }),
            "stats" => Ok(ShardFrame::Stats),
            "stats_reply" => Ok(ShardFrame::StatsReply {
                stats: field(v, "stats")?,
            }),
            other => Err(SerdeError(format!("unknown swire command `{other}`"))),
        }
    }
}

/// Encodes one frame as a JSON line (newline included). The line length is
/// the frame's *exchange byte count* — model mode and the live router both
/// account exchange volume as the sum of these lengths.
pub fn encode(frame: &ShardFrame) -> String {
    wire::encode(frame)
}

/// Decodes one inbound line into a frame; version mismatches are reported
/// as [`SwireError::Version`].
pub fn decode(line: &str) -> Result<ShardFrame, SwireError> {
    let value: Value =
        serde_json::from_str(line.trim_end()).map_err(|e| SwireError::Malformed(e.0))?;
    match value.get("v").map(u64::from_value) {
        Some(Ok(got)) if got != SWIRE_VERSION => return Err(SwireError::Version { got }),
        Some(Ok(_)) => {}
        _ => {
            return Err(SwireError::Malformed(
                "frame carries no version field".to_string(),
            ))
        }
    }
    ShardFrame::from_value(&value).map_err(|e| SwireError::Malformed(e.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(f: &ShardFrame) {
        let line = encode(f);
        assert!(line.ends_with('\n'));
        assert_eq!(&decode(&line).expect("frame reparses"), f);
    }

    #[test]
    fn frames_round_trip() {
        round_trip(&ShardFrame::Hello);
        round_trip(&ShardFrame::Meta(ShardMeta {
            n: 100,
            shards: 4,
            index: 1,
            owned_start: 25,
            owned_end: 50,
            local_edges: 300,
            cut_edges: 120,
        }));
        round_trip(&ShardFrame::WaveStart {
            wave: 3,
            sources: vec![0, 7, 99],
            record_parents: true,
        });
        round_trip(&ShardFrame::Exchange {
            wave: 3,
            level: 2,
            buckets: vec![Bucket {
                dst: 0,
                items: vec![
                    ExchangeItem {
                        v: 5,
                        u: 80,
                        mask: 0b101,
                    },
                    ExchangeItem {
                        v: 6,
                        u: 81,
                        mask: u64::MAX,
                    },
                ],
            }],
            local_next: false,
            edges_scanned: 42,
        });
        round_trip(&ShardFrame::Merged {
            wave: 3,
            level: 2,
            items: vec![ExchangeItem {
                v: 30,
                u: 2,
                mask: 1,
            }],
        });
        round_trip(&ShardFrame::WaveFinish { wave: 3 });
        round_trip(&ShardFrame::WaveResult {
            wave: 3,
            depths: vec![vec![0, 1, u32::MAX], vec![2, 2, 2]],
            parents: Some(vec![vec![0, 0, u32::MAX], vec![9, 9, 9]]),
            slot_edges: vec![10, 12],
            levels: 4,
        });
        round_trip(&ShardFrame::WaveResult {
            wave: 4,
            depths: vec![vec![1]],
            parents: None,
            slot_edges: vec![0],
            levels: 1,
        });
        round_trip(&ShardFrame::Stats);
    }

    #[test]
    fn version_gate_rejects_other_versions() {
        assert_eq!(
            decode("{\"v\":2,\"cmd\":\"hello\"}").unwrap_err(),
            SwireError::Version { got: 2 }
        );
        assert!(matches!(
            decode("{\"cmd\":\"hello\"}").unwrap_err(),
            SwireError::Malformed(_)
        ));
        assert!(matches!(
            decode("not json").unwrap_err(),
            SwireError::Malformed(_)
        ));
        assert!(matches!(
            decode("{\"v\":1,\"cmd\":\"warp\"}").unwrap_err(),
            SwireError::Malformed(_)
        ));
    }
}
