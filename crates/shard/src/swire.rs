//! `mcbfs-swire-v3`: the router ↔ shard-worker protocol.
//!
//! Every frame is a `u32` little-endian payload length followed by the
//! payload, and every payload opens with two bytes: the protocol version
//! ([`SWIRE_VERSION`]) and the frame's kind. [`encode`] builds one whole
//! frame and [`decode`] parses one; [`FrameReader`] cuts a byte stream into
//! whole frames. The router's TCP links, the in-process engine's links and
//! the worker all go through these three, so a frame's encoded length is
//! the same number wherever it is measured.
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
//! The wave frames carry the query crate's own types: `wave_start` one
//! [`Slot`] per query, and `wave_result` the worker kernel's
//! [`SlotAnswer`]s over its owned range, as `MsBfs::into_answers` returns
//! them, so only map slots ship rows.
//!
//! # Layout
//!
//! All integers are little-endian; a `bool` is one byte, 0 or 1; a list is
//! a `u32` count followed by its elements. After the two opening bytes:
//!
//! | kind | frame | body |
//! |---|---|---|
//! | 1 | `hello` | JSON object `{}` |
//! | 2 | `meta` | JSON object of the [`ShardMeta`] fields |
//! | 3 | `wave_start` | `wave: u64`, `slots: [slot]` |
//! | 4 | `exchange` | `wave: u64`, `level: u64`, `local_next: bool`, `edges_scanned: u64`, buckets: `[dst: u64, items: [item]]` |
//! | 5 | `merged` | `wave: u64`, `level: u64`, `items: [item]` |
//! | 6 | `wave_finish` | `wave: u64` |
//! | 7 | `wave_result` | `wave: u64`, `answers: [answer]` |
//! | 8 | `stats` | JSON object `{}` |
//! | 9 | `stats_reply` | JSON object of the `ServerStats` fields |
//!
//! A slot is a kind byte (0 map, 1 map with parents, 2 point), then
//! `source: u32`, then `target: u32` for a point. An answer is
//! `depth_histogram: [u64]`, `edges: u64`, then three options, each a
//! `bool` followed by its value when set: `target_depth: u32`,
//! `depths: [u32]`, `parents: [u32]`. So a point slot's answer is
//! `15 + 8 × levels` bytes, 4 more from the target's owner, whatever the
//! graph's size, and a `wave_result` is 18 bytes plus its answers.
//!
//! An item is 16 bytes: `v: u32`, `u: u32`, `mask: u64`. So the bytes of
//! an `exchange` or `merged` frame beyond its items are fixed: 35 plus 12
//! per bucket for `exchange` (a worker buckets only for the other shards),
//! 26 for `merged`. A routed item crosses twice, up in its sender's
//! `exchange` and down in its owner's `merged`, and the ledger counts it
//! once, so in an `N`-shard cluster every level's ledger satisfies
//! `0 ≤ bytes − 2 × 16 × items ≤ frames × (35 + 12·N)`.
//!
//! Decoding never trusts a count: every list length is checked against the
//! bytes left in the frame before anything is allocated for it, and a
//! frame must be consumed exactly.

use mcbfs_query::{Slot, SlotAnswer};
use mcbfs_serve::ServerStats;
use serde::{Deserialize, Serialize};
use std::io::{self, Read};

/// Protocol version stamped on (and required of) every frame.
pub const SWIRE_VERSION: u64 = 3;

/// Bytes of a frame's length prefix.
const PREFIX: usize = 4;
/// Bytes of a frame's length prefix, version and kind.
const HEADER: usize = PREFIX + 2;
/// Bytes of one [`ExchangeItem`] on the wire.
const ITEM: usize = 16;

const HELLO: u8 = 1;
const META: u8 = 2;
const WAVE_START: u8 = 3;
const EXCHANGE: u8 = 4;
const MERGED: u8 = 5;
const WAVE_FINISH: u8 = 6;
const WAVE_RESULT: u8 = 7;
const STATS: u8 = 8;
const STATS_REPLY: u8 = 9;

/// Slot kind bytes of a `wave_start` slot.
const SLOT_MAP: u8 = 0;
const SLOT_TREE: u8 = 1;
const SLOT_POINT: u8 = 2;

/// Why an inbound frame failed to decode (mirrors the client protocol's
/// split: version mismatches are structured, everything else is opaque).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SwireError {
    /// The frame's version byte is not [`SWIRE_VERSION`].
    Version {
        /// The version the frame carried.
        got: u64,
    },
    /// Anything else: bad length, unknown kind, short or overlong body.
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

fn malformed(why: impl Into<String>) -> SwireError {
    SwireError::Malformed(why.into())
}

/// One cross-shard frontier discovery: edge `u → v` was scanned at the
/// current level by the wave slots in `mask`, and `v` is owned by another
/// shard. The owner decides which bits are fresh and which discoverer
/// becomes the parent, so parent attribution stays exact under the
/// owner's deterministic apply order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExchangeItem {
    /// Global id of the discovered vertex (owned by the bucket's shard).
    pub v: u32,
    /// Global id of the discovering frontier vertex (parent candidate).
    pub u: u32,
    /// Wave-slot bits that reached `v` through `u`.
    pub mask: u64,
}

/// One destination's share of a shard-exchange frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Bucket {
    /// Index of the shard that owns every `v` in `items`.
    pub dst: u64,
    /// The discoveries, in the sender's deterministic scan order.
    pub items: Vec<ExchangeItem>,
}

/// A shard worker's identity and shape, announced in reply to `hello`.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
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
    /// Router → worker: start a wave of these slots.
    WaveStart {
        /// Router-assigned wave id, echoed on every wave frame.
        wave: u64,
        /// What each query of the wave asks, in wave order (global ids).
        slots: Vec<Slot>,
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
    /// Worker → router: per-slot answers over the owned vertex range.
    WaveResult {
        /// Wave id.
        wave: u64,
        /// Per slot, in wave order: the worker kernel's answer.
        answers: Vec<SlotAnswer>,
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

/// Appends the little-endian fields of a frame body.
struct Writer(Vec<u8>);

impl Writer {
    fn u32(&mut self, x: u32) {
        self.0.extend_from_slice(&x.to_le_bytes());
    }

    fn u64(&mut self, x: u64) {
        self.0.extend_from_slice(&x.to_le_bytes());
    }

    fn bool(&mut self, x: bool) {
        self.0.push(x as u8);
    }

    fn count(&mut self, len: usize) {
        self.u32(u32::try_from(len).expect("a swire list holds fewer than 2^32 elements"));
    }

    /// A list: its count, then each element as `write` writes it.
    fn list<T>(&mut self, xs: &[T], write: impl Fn(&mut Self, &T)) {
        self.count(xs.len());
        for x in xs {
            write(self, x);
        }
    }

    /// An option: a flag, then the value as `write` writes it when set.
    fn option<T>(&mut self, x: Option<T>, write: impl FnOnce(&mut Self, T)) {
        self.bool(x.is_some());
        if let Some(x) = x {
            write(self, x);
        }
    }

    fn u32s(&mut self, xs: &[u32]) {
        self.count(xs.len());
        self.0.reserve(xs.len() * 4);
        for &x in xs {
            self.u32(x);
        }
    }

    fn slot(&mut self, slot: &Slot) {
        self.0.push(match *slot {
            Slot::Map { parents: false, .. } => SLOT_MAP,
            Slot::Map { parents: true, .. } => SLOT_TREE,
            Slot::Point { .. } => SLOT_POINT,
        });
        self.u32(slot.source());
        if let Some(target) = slot.target() {
            self.u32(target);
        }
    }

    fn answer(&mut self, answer: &SlotAnswer) {
        self.list(&answer.depth_histogram, |w, &count| w.u64(count));
        self.u64(answer.edges);
        self.option(answer.target_depth, Self::u32);
        self.option(answer.depths.as_deref(), Self::u32s);
        self.option(answer.parents.as_deref(), Self::u32s);
    }

    fn items(&mut self, items: &[ExchangeItem]) {
        self.count(items.len());
        self.0.reserve(items.len() * ITEM);
        for item in items {
            self.u32(item.v);
            self.u32(item.u);
            self.u64(item.mask);
        }
    }

    fn json<T: Serialize>(&mut self, body: &T) {
        let text = serde_json::to_string(body).expect("control frames always serialize");
        self.0.extend_from_slice(text.as_bytes());
    }
}

/// Encodes one whole frame, length prefix included. The output's length
/// is the frame's *exchange byte count*: model mode and the live router
/// both account exchange volume as the sum of these lengths.
///
/// # Panics
/// Panics when the payload would not fit a `u32` length (4 GiB).
pub fn encode(frame: &ShardFrame) -> Vec<u8> {
    let mut w = Writer(Vec::with_capacity(64));
    w.u32(0); // the length, patched below
    w.0.push(SWIRE_VERSION as u8);
    match frame {
        ShardFrame::Hello => {
            w.0.push(HELLO);
            w.0.extend_from_slice(b"{}");
        }
        ShardFrame::Meta(meta) => {
            w.0.push(META);
            w.json(meta);
        }
        ShardFrame::WaveStart { wave, slots } => {
            w.0.push(WAVE_START);
            w.u64(*wave);
            w.list(slots, Writer::slot);
        }
        ShardFrame::Exchange {
            wave,
            level,
            buckets,
            local_next,
            edges_scanned,
        } => {
            w.0.push(EXCHANGE);
            w.u64(*wave);
            w.u64(*level);
            w.bool(*local_next);
            w.u64(*edges_scanned);
            w.list(buckets, |w, bucket| {
                w.u64(bucket.dst);
                w.items(&bucket.items);
            });
        }
        ShardFrame::Merged { wave, level, items } => {
            w.0.push(MERGED);
            w.u64(*wave);
            w.u64(*level);
            w.items(items);
        }
        ShardFrame::WaveFinish { wave } => {
            w.0.push(WAVE_FINISH);
            w.u64(*wave);
        }
        ShardFrame::WaveResult { wave, answers } => {
            w.0.push(WAVE_RESULT);
            w.u64(*wave);
            w.list(answers, Writer::answer);
        }
        ShardFrame::Stats => {
            w.0.push(STATS);
            w.0.extend_from_slice(b"{}");
        }
        ShardFrame::StatsReply { stats } => {
            w.0.push(STATS_REPLY);
            w.json(stats);
        }
    }
    let mut out = w.0;
    let len = u32::try_from(out.len() - PREFIX).expect("a swire frame fits a u32 length");
    out[..PREFIX].copy_from_slice(&len.to_le_bytes());
    out
}

/// Checks a frame's first [`HEADER`] bytes and returns its total length,
/// prefix included, and its kind. Version mismatches are reported as
/// [`SwireError::Version`].
fn header(head: &[u8; HEADER]) -> Result<(usize, u8), SwireError> {
    let len = u32::from_le_bytes([head[0], head[1], head[2], head[3]]) as usize;
    if len < HEADER - PREFIX {
        return Err(malformed(format!(
            "frame length {len} holds no version and kind"
        )));
    }
    if u64::from(head[4]) != SWIRE_VERSION {
        return Err(SwireError::Version {
            got: u64::from(head[4]),
        });
    }
    match head[5] {
        HELLO..=STATS_REPLY => Ok((PREFIX + len, head[5])),
        kind => Err(malformed(format!("unknown swire frame kind {kind}"))),
    }
}

/// Reads the fields of a frame body, front to back.
struct Body<'a>(&'a [u8]);

impl<'a> Body<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], SwireError> {
        if n > self.0.len() {
            return Err(malformed(format!(
                "frame ends {} bytes short",
                n - self.0.len()
            )));
        }
        let (head, rest) = self.0.split_at(n);
        self.0 = rest;
        Ok(head)
    }

    fn u32(&mut self) -> Result<u32, SwireError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, SwireError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    fn bool(&mut self) -> Result<bool, SwireError> {
        match self.take(1)?[0] {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(malformed(format!("flag byte {b} is neither 0 nor 1"))),
        }
    }

    /// A list count whose elements take at least `size` bytes each,
    /// checked against the bytes left, so no buffer is ever sized from a
    /// count the frame does not back.
    fn count(&mut self, size: usize) -> Result<usize, SwireError> {
        let n = self.u32()? as usize;
        if n.saturating_mul(size) > self.0.len() {
            return Err(malformed(format!(
                "list of {n} claims more than the {} bytes left",
                self.0.len()
            )));
        }
        Ok(n)
    }

    /// A list whose elements take at least `size` bytes each, each read
    /// by `read`.
    fn list<T>(
        &mut self,
        size: usize,
        read: impl Fn(&mut Self) -> Result<T, SwireError>,
    ) -> Result<Vec<T>, SwireError> {
        (0..self.count(size)?).map(|_| read(self)).collect()
    }

    fn u32s(&mut self) -> Result<Vec<u32>, SwireError> {
        let n = self.count(4)?;
        let raw = self.take(n * 4)?;
        Ok(raw
            .chunks_exact(4)
            .map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
            .collect())
    }

    /// An option: a flag, then the value `read` reads when it is set.
    fn option<T>(
        &mut self,
        read: impl FnOnce(&mut Self) -> Result<T, SwireError>,
    ) -> Result<Option<T>, SwireError> {
        if self.bool()? {
            read(self).map(Some)
        } else {
            Ok(None)
        }
    }

    fn slot(&mut self) -> Result<Slot, SwireError> {
        let kind = self.take(1)?[0];
        let source = self.u32()?;
        match kind {
            SLOT_MAP | SLOT_TREE => Ok(Slot::Map {
                source,
                parents: kind == SLOT_TREE,
            }),
            SLOT_POINT => Ok(Slot::Point {
                source,
                target: self.u32()?,
            }),
            kind => Err(malformed(format!("unknown slot kind {kind}"))),
        }
    }

    fn answer(&mut self) -> Result<SlotAnswer, SwireError> {
        Ok(SlotAnswer {
            // An entry is a u64.
            depth_histogram: self.list(8, Self::u64)?,
            edges: self.u64()?,
            target_depth: self.option(Self::u32)?,
            depths: self.option(Self::u32s)?,
            parents: self.option(Self::u32s)?,
        })
    }

    fn items(&mut self) -> Result<Vec<ExchangeItem>, SwireError> {
        let n = self.count(ITEM)?;
        let raw = self.take(n * ITEM)?;
        Ok(raw
            .chunks_exact(ITEM)
            .map(|b| ExchangeItem {
                v: u32::from_le_bytes([b[0], b[1], b[2], b[3]]),
                u: u32::from_le_bytes([b[4], b[5], b[6], b[7]]),
                mask: u64::from_le_bytes(b[8..].try_into().expect("8 bytes")),
            })
            .collect())
    }

    /// The rest of the frame, as one JSON object.
    fn json<T: Deserialize>(&mut self) -> Result<T, SwireError> {
        let text = std::str::from_utf8(self.take(self.0.len())?)
            .map_err(|e| malformed(format!("control frame body is not UTF-8: {e}")))?;
        serde_json::from_str(text).map_err(|e| malformed(e.0))
    }

    fn end(&self) -> Result<(), SwireError> {
        match self.0.len() {
            0 => Ok(()),
            extra => Err(malformed(format!(
                "{extra} bytes after the frame's last field"
            ))),
        }
    }
}

/// Decodes one whole frame, length prefix included (what [`encode`] and
/// [`FrameReader::next_frame`] return). The prefix must equal the bytes
/// that follow it and every field must be consumed exactly.
pub fn decode(bytes: &[u8]) -> Result<ShardFrame, SwireError> {
    let head: &[u8; HEADER] = bytes
        .get(..HEADER)
        .and_then(|h| h.try_into().ok())
        .ok_or_else(|| malformed(format!("{} bytes hold no frame header", bytes.len())))?;
    let (total, kind) = header(head)?;
    if total != bytes.len() {
        return Err(malformed(format!(
            "length prefix says {total} bytes, frame has {}",
            bytes.len()
        )));
    }
    let mut b = Body(&bytes[HEADER..]);
    let frame = match kind {
        HELLO => b.json::<serde::Value>().map(|_| ShardFrame::Hello)?,
        META => ShardFrame::Meta(b.json()?),
        WAVE_START => ShardFrame::WaveStart {
            wave: b.u64()?,
            // A slot takes at least its kind and source.
            slots: b.list(5, Body::slot)?,
        },
        EXCHANGE => {
            let (wave, level, local_next, edges_scanned) =
                (b.u64()?, b.u64()?, b.bool()?, b.u64()?);
            // A bucket takes at least its destination and item count.
            let buckets = b.list(12, |b| {
                Ok(Bucket {
                    dst: b.u64()?,
                    items: b.items()?,
                })
            })?;
            ShardFrame::Exchange {
                wave,
                level,
                buckets,
                local_next,
                edges_scanned,
            }
        }
        MERGED => ShardFrame::Merged {
            wave: b.u64()?,
            level: b.u64()?,
            items: b.items()?,
        },
        WAVE_FINISH => ShardFrame::WaveFinish { wave: b.u64()? },
        WAVE_RESULT => ShardFrame::WaveResult {
            wave: b.u64()?,
            // An answer takes at least its histogram count, its edges and
            // three option flags.
            answers: b.list(15, Body::answer)?,
        },
        STATS => b.json::<serde::Value>().map(|_| ShardFrame::Stats)?,
        STATS_REPLY => ShardFrame::StatsReply { stats: b.json()? },
        _ => unreachable!("header() admits known kinds only"),
    };
    b.end()?;
    Ok(frame)
}

/// Cuts a byte stream into whole swire frames.
///
/// A read error, a read timeout included, keeps the bytes of the frame
/// read so far, so the next call resumes the same frame: a reader that
/// wakes on a timeout to poll for shutdown loses nothing. The payload is
/// read through [`Read::take`], so the buffer grows only with bytes that
/// have arrived, never from the value of the length prefix. A header with
/// the wrong version or an unknown kind fails before any payload is read.
pub struct FrameReader<R> {
    inner: R,
    /// The frame being assembled: everything received of it so far.
    frame: Vec<u8>,
}

impl<R: Read> FrameReader<R> {
    /// A reader at a frame boundary of `inner`.
    pub fn new(inner: R) -> Self {
        Self {
            inner,
            frame: Vec::new(),
        }
    }

    /// The next whole frame, prefix included; `Ok(None)` when the stream
    /// ends cleanly between frames. A stream that ends mid-frame is
    /// [`io::ErrorKind::UnexpectedEof`]; a bad header is
    /// [`io::ErrorKind::InvalidData`].
    pub fn next_frame(&mut self) -> io::Result<Option<Vec<u8>>> {
        while self.frame.len() < HEADER {
            let mut head = [0u8; HEADER];
            let want = HEADER - self.frame.len();
            match self.inner.read(&mut head[..want]) {
                Ok(0) if self.frame.is_empty() => return Ok(None),
                Ok(0) => return Err(ended_mid_frame(self.frame.len())),
                Ok(got) => self.frame.extend_from_slice(&head[..got]),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        let head: &[u8; HEADER] = self.frame[..HEADER].try_into().expect("header bytes");
        let (total, _) = header(head).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        let missing = (total - self.frame.len()) as u64;
        if missing > 0 {
            (&mut self.inner)
                .take(missing)
                .read_to_end(&mut self.frame)?;
            if self.frame.len() < total {
                return Err(ended_mid_frame(self.frame.len()));
            }
        }
        Ok(Some(std::mem::take(&mut self.frame)))
    }
}

fn ended_mid_frame(got: usize) -> io::Error {
    io::Error::new(
        io::ErrorKind::UnexpectedEof,
        format!("stream ended {got} bytes into a frame"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn version_gate_rejects_other_versions() {
        let mut frame = encode(&ShardFrame::Hello);
        for old in [1, 2] {
            frame[4] = old;
            let got = u64::from(old);
            assert_eq!(decode(&frame).unwrap_err(), SwireError::Version { got });
        }
        // A swire-v1 JSON line fails on its header, before its "payload".
        let line = b"{\"v\":1,\"cmd\":\"hello\"}\n";
        assert!(matches!(
            decode(line).unwrap_err(),
            SwireError::Version { .. }
        ));
        let err = FrameReader::new(&line[..]).next_frame().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let mut unknown = encode(&ShardFrame::Stats);
        unknown[5] = 42;
        assert!(matches!(
            decode(&unknown).unwrap_err(),
            SwireError::Malformed(_)
        ));
    }

    #[test]
    fn an_unknown_slot_kind_is_malformed() {
        let start = ShardFrame::WaveStart {
            wave: 1,
            slots: vec![Slot::Point {
                source: 3,
                target: 4,
            }],
        };
        let mut frame = encode(&start);
        // The header, the wave id and the slot count come first.
        let kind = HEADER + 8 + 4;
        assert_eq!(frame[kind], SLOT_POINT);
        frame[kind] = 3;
        assert!(matches!(
            decode(&frame).unwrap_err(),
            SwireError::Malformed(e) if e.contains("slot kind")
        ));
    }

    #[test]
    fn item_frames_cost_sixteen_bytes_per_item_plus_a_fixed_header() {
        let item = ExchangeItem {
            v: 1,
            u: 2,
            mask: 3,
        };
        let merged = |n| ShardFrame::Merged {
            wave: 0,
            level: 0,
            items: vec![item; n],
        };
        assert_eq!(encode(&merged(0)).len(), 26);
        assert_eq!(encode(&merged(5)).len(), 26 + 5 * 16);
        let exchange = ShardFrame::Exchange {
            wave: 0,
            level: 0,
            buckets: (0..3)
                .map(|dst| Bucket {
                    dst,
                    items: vec![item; 2],
                })
                .collect(),
            local_next: true,
            edges_scanned: 9,
        };
        assert_eq!(encode(&exchange).len(), 35 + 3 * 12 + 6 * 16);
    }

    #[test]
    fn reader_resumes_a_frame_split_across_reads() {
        /// Yields its chunks one read at a time, with a timeout between.
        struct Trickle(Vec<Vec<u8>>, bool);
        impl Read for Trickle {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                self.1 = !self.1;
                if self.1 {
                    return Err(io::ErrorKind::WouldBlock.into());
                }
                let Some(chunk) = self.0.first_mut() else {
                    return Ok(0);
                };
                let n = chunk.len().min(buf.len());
                buf[..n].copy_from_slice(&chunk[..n]);
                chunk.drain(..n);
                if chunk.is_empty() {
                    self.0.remove(0);
                }
                Ok(n)
            }
        }
        let frame = ShardFrame::Merged {
            wave: 7,
            level: 3,
            items: vec![
                ExchangeItem {
                    v: 5,
                    u: 6,
                    mask: 9
                };
                3
            ],
        };
        let bytes = encode(&frame);
        let chunks = bytes.chunks(5).map(<[u8]>::to_vec).collect();
        let mut reader = FrameReader::new(Trickle(chunks, false));
        let whole = loop {
            match reader.next_frame() {
                Ok(frame) => break frame.expect("one frame"),
                Err(e) => assert_eq!(e.kind(), io::ErrorKind::WouldBlock),
            }
        };
        assert_eq!(decode(&whole), Ok(frame));
        assert!(matches!(reader.next_frame(), Err(e) if e.kind() == io::ErrorKind::WouldBlock));
        assert!(matches!(reader.next_frame(), Ok(None)));
    }
}
