//! R-MAT (Recursive MATrix) scale-free graph generator.
//!
//! R-MAT (Chakrabarti, Zhan, Faloutsos 2004) samples each edge by
//! recursively descending into one of the four quadrants of the adjacency
//! matrix with probabilities `(a, b, c, d)`; with `a` dominant the result is
//! a power-law degree distribution with community structure — "a few high
//! degree vertices and many low-degree ones", which the paper credits for
//! R-MAT's *higher* processing rates than uniform graphs (large frontiers
//! amortize per-level costs).
//!
//! The quadrant probabilities are GTgraph's defaults,
//! `(0.45, 0.15, 0.15, 0.25)`, and as in GTgraph they are perturbed by ±10%
//! noise at every level of the recursion to avoid exact self-similarity
//! artifacts. Every edge is inserted in both directions.

use crate::GraphBuilder;
use mcbfs_graph::csr::VertexId;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;

/// Quadrant probabilities of the R-MAT recursion.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RmatParams {
    /// Probability of the top-left quadrant (both endpoints in the lower
    /// half of the id space). Dominant `a` ⇒ heavier skew.
    pub a: f64,
    /// Top-right quadrant probability.
    pub b: f64,
    /// Bottom-left quadrant probability.
    pub c: f64,
    /// Bottom-right quadrant probability.
    pub d: f64,
}

impl RmatParams {
    /// GTgraph's default R-MAT parameters, the ones every graph uses.
    pub const GTGRAPH: Self = Self {
        a: 0.45,
        b: 0.15,
        c: 0.15,
        d: 0.25,
    };
}

/// Per-level multiplicative noise amplitude on the quadrant probabilities
/// (GTgraph-style).
const NOISE: f64 = 0.1;

/// Builder for R-MAT graphs with `2^scale` vertices and
/// `avg_degree * 2^scale` generated edges.
///
/// # Examples
///
/// ```
/// use mcbfs_gen::prelude::*;
///
/// let g = RmatBuilder::new(10, 8).seed(1).build();
/// assert_eq!(g.num_vertices(), 1024);
/// // Scale-free: the hubs dominate.
/// assert!(g.max_degree() > 3 * 16);
/// ```
#[derive(Clone, Debug)]
pub struct RmatBuilder {
    scale: u32,
    avg_degree: usize,
    seed: u64,
    permute: bool,
}

impl RmatBuilder {
    /// R-MAT graph with `2^scale` vertices and average generated out-degree
    /// `avg_degree`, GTgraph default parameters.
    pub fn new(scale: u32, avg_degree: usize) -> Self {
        assert!(scale < 32, "scale must stay within 32-bit vertex ids");
        Self {
            scale,
            avg_degree,
            seed: 0xBADCAB,
            permute: false,
        }
    }

    /// Sets the RNG seed (default `0xBADCAB`).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Applies a deterministic random relabeling of the vertex ids (an
    /// affine bijection mod 2^scale), as the Graph500 benchmark mandates:
    /// without it the R-MAT recursion concentrates edges on low ids, which
    /// creates artificial locality and skews block partitions.
    pub fn permute(mut self, yes: bool) -> Self {
        self.permute = yes;
        self
    }

    /// The affine bijection used by [`RmatBuilder::permute`]:
    /// `v ↦ (a·v + c) mod 2^scale` with odd `a` derived from the seed.
    #[inline]
    fn relabel(&self, v: VertexId) -> VertexId {
        let mask = (1u64 << self.scale) - 1;
        let a = (self.seed.wrapping_mul(0x9E3779B97F4A7C15) | 1) & mask;
        let c = self.seed.wrapping_mul(0xD1B54A32D192ED03) & mask;
        (((v as u64).wrapping_mul(a).wrapping_add(c)) & mask) as VertexId
    }

    /// Number of directed edges the generator will emit.
    pub fn num_generated_edges(&self) -> usize {
        self.avg_degree << self.scale
    }

    fn sample_edge(&self, rng: &mut SmallRng) -> (VertexId, VertexId) {
        let mut u = 0u64;
        let mut v = 0u64;
        let p = RmatParams::GTGRAPH;
        for _level in 0..self.scale {
            // Perturb the quadrant probabilities at every level.
            let jitter =
                |p: f64, rng: &mut SmallRng| p * (1.0 + NOISE * (rng.gen::<f64>() * 2.0 - 1.0));
            let a = jitter(p.a, rng);
            let b = jitter(p.b, rng);
            let c = jitter(p.c, rng);
            let d = jitter(p.d, rng);
            let total = a + b + c + d;
            let r = rng.gen::<f64>() * total;
            let (du, dv) = if r < a {
                (0, 0)
            } else if r < a + b {
                (0, 1)
            } else if r < a + b + c {
                (1, 0)
            } else {
                (1, 1)
            };
            u = (u << 1) | du;
            v = (v << 1) | dv;
        }
        (u as VertexId, v as VertexId)
    }
}

impl GraphBuilder for RmatBuilder {
    fn num_vertices(&self) -> usize {
        1usize << self.scale
    }

    fn build_edges(&self) -> Vec<(VertexId, VertexId)> {
        let m = self.num_generated_edges();
        if m == 0 || self.scale == 0 {
            return Vec::new();
        }
        const CHUNK: usize = 1 << 15;
        let chunks: Vec<usize> = (0..m).step_by(CHUNK).collect();
        chunks
            .par_iter()
            .flat_map_iter(|&start| {
                let len = CHUNK.min(m - start);
                let mut rng = SmallRng::seed_from_u64(
                    self.seed ^ (start as u64).wrapping_mul(0xD1B54A32D192ED03),
                );
                let this = self.clone();
                (0..len).map(move |_| {
                    let (u, v) = this.sample_edge(&mut rng);
                    if this.permute {
                        (this.relabel(u), this.relabel(v))
                    } else {
                        (u, v)
                    }
                })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_fixed_seed() {
        let a = RmatBuilder::new(8, 4).seed(3).build_edges();
        let b = RmatBuilder::new(8, 4).seed(3).build_edges();
        assert_eq!(a, b);
    }

    #[test]
    fn edge_count_matches() {
        let e = RmatBuilder::new(9, 6).build_edges();
        assert_eq!(e.len(), 6 * 512);
    }

    #[test]
    fn endpoints_in_range() {
        let e = RmatBuilder::new(7, 8).seed(2).build_edges();
        assert!(e
            .iter()
            .all(|&(u, v)| (u as usize) < 128 && (v as usize) < 128));
    }

    #[test]
    fn rmat_skews_low_ids() {
        // Quadrant `a` dominant ⇒ low vertex ids receive more edges.
        let e = RmatBuilder::new(10, 8).seed(7).build_edges();
        let low = e.iter().filter(|&&(u, _)| u < 512).count();
        assert!(
            low as f64 > 0.55 * e.len() as f64,
            "low-half sources: {low} of {}",
            e.len()
        );
    }

    #[test]
    fn permutation_preserves_degree_distribution() {
        let plain = RmatBuilder::new(10, 6).seed(5).build();
        let perm = RmatBuilder::new(10, 6).seed(5).permute(true).build();
        let mut d1: Vec<usize> = (0..1024u32).map(|v| plain.degree(v)).collect();
        let mut d2: Vec<usize> = (0..1024u32).map(|v| perm.degree(v)).collect();
        d1.sort_unstable();
        d2.sort_unstable();
        assert_eq!(d1, d2, "relabeling must be a bijection");
        assert_eq!(plain.num_edges(), perm.num_edges());
    }

    #[test]
    fn permutation_balances_blocks() {
        // After relabeling, the low half of the id space no longer hoards
        // the edges.
        let e = RmatBuilder::new(12, 8).seed(7).permute(true).build_edges();
        let low = e.iter().filter(|&&(u, _)| u < 2048).count();
        let frac = low as f64 / e.len() as f64;
        assert!((0.4..0.6).contains(&frac), "low-half fraction {frac}");
    }

    #[test]
    fn relabel_is_bijective() {
        let b = RmatBuilder::new(8, 1).seed(3);
        let mut seen = std::collections::HashSet::new();
        for v in 0..256u32 {
            assert!(seen.insert(b.relabel(v)), "collision at {v}");
            assert!((b.relabel(v) as usize) < 256);
        }
    }

    #[test]
    fn zero_scale_yields_empty() {
        assert!(RmatBuilder::new(0, 8).build_edges().is_empty());
    }
}
