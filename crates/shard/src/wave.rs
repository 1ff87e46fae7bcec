//! Per-shard wave execution: bit-parallel MS-BFS over one owned range.
//!
//! A [`ShardWave`] runs the multi-source kernel's bitmask regime — one
//! `u64` of wave-slot bits per owned vertex — restricted to a
//! [`CsrShard`]. Each level is the classic two-phase compute/communicate
//! split: [`ShardWave::scan`] walks the owned frontier and either applies
//! a discovery locally (target owned here) or pushes it into the
//! bucket of the owning shard (target owned elsewhere);
//! [`ShardWave::apply`] absorbs the items other shards discovered into
//! this shard's range; [`ShardWave::advance`] is the level barrier.
//!
//! Everything is deterministic by construction: the frontier is rebuilt
//! in owned-vertex order each level, adjacencies are scanned in CSR
//! order, and remote items are applied in the router's shard-merge order
//! — so two runs (or the live cluster and the in-process simulation)
//! produce byte-identical exchange buckets and identical parent
//! attributions.

use crate::swire::ExchangeItem;
use mcbfs_graph::csr::UNVISITED;
use mcbfs_graph::shard::CsrShard;

/// What one [`ShardWave::scan`] produced for the router.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ScanOutput {
    /// Cross-shard discoveries, indexed by destination shard (this
    /// shard's own bucket stays empty).
    pub buckets: Vec<Vec<ExchangeItem>>,
    /// True when the scan discovered an owned next-frontier vertex.
    pub local_next: bool,
    /// Adjacency entries scanned.
    pub edges_scanned: u64,
}

/// Per-slot results over the owned range, produced by [`ShardWave::finish`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WaveOutput {
    /// Per slot: hop depths of the owned vertices (`u32::MAX` unreached).
    pub depths: Vec<Vec<u32>>,
    /// Per slot: parent attributions (`UNVISITED` unreached), when
    /// recorded.
    pub parents: Option<Vec<Vec<u32>>>,
    /// Per slot: TEPS numerator share — adjacency entries of every
    /// reached owned vertex.
    pub slot_edges: Vec<u64>,
    /// Levels executed (highest finite depth + 1, from this shard's view).
    pub levels: u64,
}

/// Level-synchronous multi-source BFS state over one shard's owned range.
pub struct ShardWave<'s> {
    shard: &'s CsrShard,
    slots: usize,
    /// Per owned vertex: bits of every slot that has reached it (≤ level).
    masks: Vec<u64>,
    /// Per owned vertex: bits that reached it exactly at `level`.
    current: Vec<u64>,
    /// Per owned vertex: bits freshly discovered for `level + 1`.
    next: Vec<u64>,
    /// Slot-major depths over the owned range.
    depths: Vec<Vec<u32>>,
    /// Slot-major parents over the owned range, when recorded.
    parents: Option<Vec<Vec<u32>>>,
    level: u32,
    /// Cross-shard discoveries of the current scan, indexed by
    /// destination shard; handed to the router whole.
    buckets: Vec<Vec<ExchangeItem>>,
}

impl<'s> ShardWave<'s> {
    /// Seeds a wave: slot `s` searches from `sources[s]`. Sources owned by
    /// this shard enter the level-0 frontier with depth 0 and themselves
    /// as parent; foreign sources are someone else's seed.
    ///
    /// # Panics
    /// Panics when `sources` is empty or wider than 64 slots.
    pub fn new(shard: &'s CsrShard, sources: &[u32], record_parents: bool) -> Self {
        assert!(
            !sources.is_empty() && sources.len() <= 64,
            "wave width {} outside 1..=64",
            sources.len()
        );
        let owned = shard.owned_len();
        let mut wave = Self {
            shard,
            slots: sources.len(),
            masks: vec![0; owned],
            current: vec![0; owned],
            next: vec![0; owned],
            depths: vec![vec![u32::MAX; owned]; sources.len()],
            parents: record_parents.then(|| vec![vec![UNVISITED; owned]; sources.len()]),
            level: 0,
            buckets: vec![Vec::new(); shard.shards()],
        };
        let start = shard.owned_range().start as u32;
        for (slot, &src) in sources.iter().enumerate() {
            if wave.shard.owner_of(src) == wave.shard.index() {
                let local = (src - start) as usize;
                let bit = 1u64 << slot;
                wave.current[local] |= bit;
                wave.masks[local] |= bit;
                wave.depths[slot][local] = 0;
                if let Some(p) = &mut wave.parents {
                    p[slot][local] = src;
                }
            }
        }
        wave
    }

    /// The wave's current BFS level.
    pub fn level(&self) -> u32 {
        self.level
    }

    /// Compute phase: scans the owned frontier at the current level.
    /// Owned discoveries are applied inline (depth `level + 1`); foreign
    /// ones are bucketed by owner for the router to route.
    pub fn scan(&mut self) -> ScanOutput {
        let start = self.shard.owned_range().start as u32;
        let index = self.shard.index();
        let mut edges_scanned = 0u64;
        for local in 0..self.shard.owned_len() {
            let bits = self.current[local];
            if bits == 0 {
                continue;
            }
            let u_global = start + local as u32;
            for &v in self.shard.neighbors_global(local) {
                edges_scanned += 1;
                let owner = self.shard.owner_of(v);
                if owner == index {
                    self.apply_one(v - start, u_global, bits);
                } else {
                    self.buckets[owner].push(ExchangeItem {
                        v,
                        u: u_global,
                        mask: bits,
                    });
                }
            }
        }
        let local_next = self.next.iter().any(|&b| b != 0);
        let buckets = std::mem::replace(&mut self.buckets, vec![Vec::new(); self.shard.shards()]);
        ScanOutput {
            buckets,
            local_next,
            edges_scanned,
        }
    }

    /// Communicate phase: absorbs discoveries other shards made into this
    /// shard's owned range at the current level. Items must arrive in the
    /// router's deterministic merge order for reproducible parents.
    pub fn apply(&mut self, items: &[ExchangeItem]) {
        let start = self.shard.owned_range().start as u32;
        for item in items {
            debug_assert_eq!(self.shard.owner_of(item.v), self.shard.index());
            self.apply_one(item.v - start, item.u, item.mask);
        }
    }

    /// Level barrier: promotes the freshly discovered frontier and steps
    /// the level. Call after [`ShardWave::scan`] + [`ShardWave::apply`].
    pub fn advance(&mut self) {
        std::mem::swap(&mut self.current, &mut self.next);
        for local in 0..self.current.len() {
            self.masks[local] |= self.current[local];
            self.next[local] = 0;
        }
        self.level += 1;
    }

    /// Marks the fresh bits of `mask` on owned vertex `local` at depth
    /// `level + 1` with `u_global` as parent.
    fn apply_one(&mut self, local: u32, u_global: u32, mask: u64) {
        let local = local as usize;
        let fresh = mask & !(self.masks[local] | self.next[local]);
        if fresh == 0 {
            return;
        }
        self.next[local] |= fresh;
        let depth = self.level + 1;
        let mut bits = fresh;
        while bits != 0 {
            let slot = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            self.depths[slot][local] = depth;
            if let Some(p) = &mut self.parents {
                p[slot][local] = u_global;
            }
        }
    }

    /// Extracts the per-slot owned-range results.
    pub fn finish(self) -> WaveOutput {
        let mut slot_edges = vec![0u64; self.slots];
        let mut max_depth_plus_one = 0u64;
        for (slot, depths) in self.depths.iter().enumerate() {
            for (local, &d) in depths.iter().enumerate() {
                if d != u32::MAX {
                    slot_edges[slot] += self.shard.degree_local(local) as u64;
                    max_depth_plus_one = max_depth_plus_one.max(d as u64 + 1);
                }
            }
        }
        WaveOutput {
            depths: self.depths,
            parents: self.parents,
            slot_edges,
            levels: max_depth_plus_one,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcbfs_graph::csr::CsrGraph;

    #[test]
    fn foreign_sources_do_not_seed_and_empty_waves_terminate() {
        let edges: Vec<(u32, u32)> = (0..10).map(|i| (i, (i + 1) % 10)).collect();
        let g = CsrGraph::from_edges_symmetric(10, &edges);
        let s1 = CsrShard::cut(&g, 2, 1); // owns 5..10
        let mut wave = ShardWave::new(&s1, &[0], false);
        // Source 0 is shard 0's; shard 1 starts with an empty frontier.
        let out = wave.scan();
        assert!(!out.local_next);
        assert!(out.buckets.iter().all(|b| b.is_empty()));
        assert_eq!(out.edges_scanned, 0);
    }
}
