//! Graph (de)serialization: CSR snapshots and shard slices.
//!
//! Large benchmark graphs are expensive to generate; the harness persists
//! them between runs. The binary format is deliberately simple:
//!
//! ```text
//! CSR:        magic "MCBC" | u64 n | u64 m | (n+1) × u64 offsets | m × u32 targets
//! CSR v2:     magic "MCBR" | u64 n | u64 m | u32 reorder tag | (n+1) × u64 offsets | m × u32 targets
//! shard:      magic "MCBS" | u64 n_global | u64 shards | u64 index | u64 local_m
//!             | (owned+1) × u64 offsets | local_m × u32 global targets
//! ```
//!
//! The `MCBR` variant is written for graphs saved after a
//! [`crate::reorder`] relabelling: the tag ([`Reorder::tag`]) records
//! which ordering was applied, making the file self-describing. Plain
//! (`none`-ordered) graphs keep the `MCBC` header, and [`read_csr`] /
//! [`read_csr_tagged`] accept both.
//!
//! All integers little-endian, written with the `bytes` crate.

use crate::csr::{CsrGraph, VertexId};
use crate::reorder::Reorder;
use crate::shard::CsrShard;
use bytes::{Buf, BufMut};
use std::io::{self, Read, Write};

const CSR_MAGIC: &[u8; 4] = b"MCBC";
const CSR_REORDERED_MAGIC: &[u8; 4] = b"MCBR";
/// Magic prefix of a shard file (`write_shard`); public so tools can
/// sniff whether a `.csr` path holds a whole graph or one shard.
pub const SHARD_MAGIC: &[u8; 4] = b"MCBS";

/// Errors arising while reading a graph file.
#[derive(Debug)]
pub enum IoError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The stream does not start with the expected magic bytes.
    BadMagic,
    /// The header or payload is internally inconsistent.
    Corrupt(&'static str),
}

impl From<io::Error> for IoError {
    fn from(e: io::Error) -> Self {
        IoError::Io(e)
    }
}

impl core::fmt::Display for IoError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "I/O error: {e}"),
            IoError::BadMagic => f.write_str("not a multicore-bfs graph file (bad magic)"),
            IoError::Corrupt(what) => write!(f, "corrupt graph file: {what}"),
        }
    }
}

impl std::error::Error for IoError {}

/// Writes a CSR graph in the `MCBC` binary format (ordering `none`).
pub fn write_csr<W: Write>(w: &mut W, graph: &CsrGraph) -> Result<(), IoError> {
    write_csr_tagged(w, graph, Reorder::None)
}

/// Writes a CSR graph recording the vertex ordering that produced its
/// labelling: `MCBC` when `reorder` is [`Reorder::None`] (byte-identical
/// to the legacy format), `MCBR` with a tag word otherwise.
pub fn write_csr_tagged<W: Write>(
    w: &mut W,
    graph: &CsrGraph,
    reorder: Reorder,
) -> Result<(), IoError> {
    let mut header = Vec::with_capacity(24);
    if reorder == Reorder::None {
        header.put_slice(CSR_MAGIC);
        header.put_u64_le(graph.num_vertices() as u64);
        header.put_u64_le(graph.num_edges() as u64);
    } else {
        header.put_slice(CSR_REORDERED_MAGIC);
        header.put_u64_le(graph.num_vertices() as u64);
        header.put_u64_le(graph.num_edges() as u64);
        header.put_u32_le(reorder.tag());
    }
    w.write_all(&header)?;
    let mut buf = Vec::with_capacity(16 * 1024);
    for &o in graph.offsets() {
        buf.put_u64_le(o);
        if buf.len() >= 16 * 1024 - 8 {
            w.write_all(&buf)?;
            buf.clear();
        }
    }
    for &t in graph.targets() {
        buf.put_u32_le(t);
        if buf.len() >= 16 * 1024 - 4 {
            w.write_all(&buf)?;
            buf.clear();
        }
    }
    w.write_all(&buf)?;
    Ok(())
}

/// Reads a CSR graph written by [`write_csr`] or [`write_csr_tagged`],
/// discarding the ordering tag.
pub fn read_csr<R: Read>(r: &mut R) -> Result<CsrGraph, IoError> {
    read_csr_tagged(r).map(|(g, _)| g)
}

/// Reads a CSR graph together with the vertex ordering recorded in its
/// header (legacy `MCBC` files report [`Reorder::None`]).
pub fn read_csr_tagged<R: Read>(r: &mut R) -> Result<(CsrGraph, Reorder), IoError> {
    let mut header = [0u8; 20];
    r.read_exact(&mut header)?;
    let mut cur = &header[..];
    let mut magic = [0u8; 4];
    cur.copy_to_slice(&mut magic);
    let reorder = match &magic {
        m if m == CSR_MAGIC => Reorder::None,
        m if m == CSR_REORDERED_MAGIC => {
            let mut tag = [0u8; 4];
            r.read_exact(&mut tag)?;
            Reorder::from_tag(u32::from_le_bytes(tag))
                .ok_or(IoError::Corrupt("unknown reorder tag"))?
        }
        _ => return Err(IoError::BadMagic),
    };
    let n = cur.get_u64_le() as usize;
    let m = cur.get_u64_le() as usize;
    let mut offsets_raw = vec![
        0u8;
        (n + 1)
            .checked_mul(8)
            .ok_or(IoError::Corrupt("vertex count overflow"))?
    ];
    r.read_exact(&mut offsets_raw)?;
    let mut cur = &offsets_raw[..];
    let offsets: Vec<u64> = (0..=n).map(|_| cur.get_u64_le()).collect();
    let mut targets_raw = vec![
        0u8;
        m.checked_mul(4)
            .ok_or(IoError::Corrupt("edge count overflow"))?
    ];
    r.read_exact(&mut targets_raw)?;
    let mut cur = &targets_raw[..];
    let targets: Vec<VertexId> = (0..m).map(|_| cur.get_u32_le()).collect();
    if offsets.first() != Some(&0)
        || offsets.last() != Some(&(m as u64))
        || offsets.windows(2).any(|w| w[0] > w[1])
        || targets.iter().any(|&t| t as usize >= n)
    {
        return Err(IoError::Corrupt("inconsistent CSR arrays"));
    }
    Ok((CsrGraph::from_raw_parts(offsets, targets), reorder))
}

/// Writes a graph shard in the `MCBS` binary format.
pub fn write_shard<W: Write>(w: &mut W, shard: &CsrShard) -> Result<(), IoError> {
    let mut header = Vec::with_capacity(36);
    header.put_slice(SHARD_MAGIC);
    header.put_u64_le(shard.num_vertices() as u64);
    header.put_u64_le(shard.shards() as u64);
    header.put_u64_le(shard.index() as u64);
    header.put_u64_le(shard.local_edges() as u64);
    w.write_all(&header)?;
    let mut buf = Vec::with_capacity(16 * 1024);
    for &o in shard.offsets() {
        buf.put_u64_le(o);
        if buf.len() >= 16 * 1024 - 8 {
            w.write_all(&buf)?;
            buf.clear();
        }
    }
    for &t in shard.targets() {
        buf.put_u32_le(t);
        if buf.len() >= 16 * 1024 - 4 {
            w.write_all(&buf)?;
            buf.clear();
        }
    }
    w.write_all(&buf)?;
    Ok(())
}

/// Reads a graph shard written by [`write_shard`], validating that the
/// offsets/targets are consistent with the declared partition.
pub fn read_shard<R: Read>(r: &mut R) -> Result<CsrShard, IoError> {
    let mut header = [0u8; 36];
    r.read_exact(&mut header)?;
    let mut cur = &header[..];
    let mut magic = [0u8; 4];
    cur.copy_to_slice(&mut magic);
    if &magic != SHARD_MAGIC {
        return Err(IoError::BadMagic);
    }
    let n_global = cur.get_u64_le() as usize;
    let shards = cur.get_u64_le() as usize;
    let index = cur.get_u64_le() as usize;
    let local_m = cur.get_u64_le() as usize;
    if shards == 0 || index >= shards {
        return Err(IoError::Corrupt("shard index out of range"));
    }
    let owned = crate::partition::VertexPartition::new(n_global, shards).len(index);
    let mut offsets_raw = vec![
        0u8;
        (owned + 1)
            .checked_mul(8)
            .ok_or(IoError::Corrupt("vertex count overflow"))?
    ];
    r.read_exact(&mut offsets_raw)?;
    let mut cur = &offsets_raw[..];
    let offsets: Vec<u64> = (0..=owned).map(|_| cur.get_u64_le()).collect();
    let mut targets_raw = vec![
        0u8;
        local_m
            .checked_mul(4)
            .ok_or(IoError::Corrupt("edge count overflow"))?
    ];
    r.read_exact(&mut targets_raw)?;
    let mut cur = &targets_raw[..];
    let targets: Vec<VertexId> = (0..local_m).map(|_| cur.get_u32_le()).collect();
    CsrShard::from_raw_parts(n_global, shards, index, offsets, targets).map_err(IoError::Corrupt)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csr_roundtrip() {
        let g = CsrGraph::from_edges_symmetric(6, &[(0, 1), (1, 2), (3, 4), (4, 5), (0, 5)]);
        let mut buf = Vec::new();
        write_csr(&mut buf, &g).unwrap();
        let back = read_csr(&mut &buf[..]).unwrap();
        assert_eq!(g, back);
    }

    #[test]
    fn tagged_csr_roundtrips_every_ordering() {
        let g = CsrGraph::from_edges_symmetric(6, &[(0, 1), (1, 2), (3, 4), (4, 5), (0, 5)]);
        for reorder in Reorder::ALL {
            let mut buf = Vec::new();
            write_csr_tagged(&mut buf, &g, reorder).unwrap();
            let (back, tag) = read_csr_tagged(&mut &buf[..]).unwrap();
            assert_eq!(back, g, "{reorder}");
            assert_eq!(tag, reorder);
            // read_csr accepts both header variants.
            assert_eq!(read_csr(&mut &buf[..]).unwrap(), g, "{reorder}");
        }
    }

    #[test]
    fn untagged_write_is_legacy_format() {
        let g = CsrGraph::from_edges(3, &[(0, 1), (1, 2)]);
        let mut plain = Vec::new();
        write_csr(&mut plain, &g).unwrap();
        let mut tagged_none = Vec::new();
        write_csr_tagged(&mut tagged_none, &g, Reorder::None).unwrap();
        assert_eq!(plain, tagged_none);
        assert_eq!(&plain[..4], CSR_MAGIC);
    }

    #[test]
    fn tagged_csr_rejects_unknown_tag() {
        let g = CsrGraph::from_edges(3, &[(0, 1), (1, 2)]);
        let mut buf = Vec::new();
        write_csr_tagged(&mut buf, &g, Reorder::Degree).unwrap();
        buf[20..24].copy_from_slice(&99u32.to_le_bytes());
        assert!(matches!(
            read_csr_tagged(&mut &buf[..]),
            Err(IoError::Corrupt("unknown reorder tag"))
        ));
    }

    #[test]
    fn csr_rejects_truncation() {
        let g = CsrGraph::from_edges(3, &[(0, 1), (1, 2)]);
        let mut buf = Vec::new();
        write_csr(&mut buf, &g).unwrap();
        buf.truncate(buf.len() - 2);
        assert!(matches!(read_csr(&mut &buf[..]), Err(IoError::Io(_))));
    }

    #[test]
    fn csr_rejects_tampered_offsets() {
        let g = CsrGraph::from_edges(3, &[(0, 1), (1, 2)]);
        let mut buf = Vec::new();
        write_csr(&mut buf, &g).unwrap();
        // First offset lives right after the 20-byte header; make it 7.
        buf[20..28].copy_from_slice(&7u64.to_le_bytes());
        assert!(matches!(read_csr(&mut &buf[..]), Err(IoError::Corrupt(_))));
    }

    #[test]
    fn shard_roundtrip_every_index() {
        let g = CsrGraph::from_edges_symmetric(11, &[(0, 1), (1, 2), (3, 9), (4, 10), (7, 8)]);
        for shards in [1, 2, 4] {
            for i in 0..shards {
                let s = CsrShard::cut(&g, shards, i);
                let mut buf = Vec::new();
                write_shard(&mut buf, &s).unwrap();
                assert_eq!(&buf[..4], SHARD_MAGIC);
                let back = read_shard(&mut &buf[..]).unwrap();
                assert_eq!(back, s, "shards={shards} i={i}");
            }
        }
    }

    #[test]
    fn shard_rejects_corruption() {
        let g = CsrGraph::from_edges_symmetric(8, &[(0, 7), (1, 2), (3, 4)]);
        let s = CsrShard::cut(&g, 2, 0);
        let mut buf = Vec::new();
        write_shard(&mut buf, &s).unwrap();
        // Wrong magic.
        let mut bad = buf.clone();
        bad[..4].copy_from_slice(b"NOPE");
        assert!(matches!(read_shard(&mut &bad[..]), Err(IoError::BadMagic)));
        // Shard index out of declared range.
        let mut bad = buf.clone();
        bad[20..28].copy_from_slice(&9u64.to_le_bytes());
        assert!(matches!(
            read_shard(&mut &bad[..]),
            Err(IoError::Corrupt(_))
        ));
        // Truncation.
        let mut bad = buf.clone();
        bad.truncate(bad.len() - 2);
        assert!(matches!(read_shard(&mut &bad[..]), Err(IoError::Io(_))));
        // Tampered first offset.
        buf[36..44].copy_from_slice(&5u64.to_le_bytes());
        assert!(matches!(
            read_shard(&mut &buf[..]),
            Err(IoError::Corrupt(_))
        ));
    }

    #[test]
    fn display_impls() {
        assert!(IoError::BadMagic.to_string().contains("magic"));
        assert!(IoError::Corrupt("x").to_string().contains('x'));
    }
}
