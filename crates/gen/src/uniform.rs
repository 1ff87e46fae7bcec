//! Uniformly random graphs: `n` vertices of out-degree `d` with neighbours
//! chosen uniformly at random — the paper's first benchmark family.

use crate::GraphBuilder;
use mcbfs_graph::csr::VertexId;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;

/// Builder for uniformly random graphs.
///
/// # Examples
///
/// ```
/// use mcbfs_gen::prelude::*;
///
/// let g = UniformBuilder::new(1_000, 8).seed(7).build();
/// assert_eq!(g.num_vertices(), 1_000);
/// // Undirected: 1000 * 8 directed half-edges, each mirrored (self-loops
/// // excepted), so close to 16_000 directed edges.
/// assert!(g.num_edges() >= 15_900 && g.num_edges() <= 16_000);
/// ```
#[derive(Clone, Debug)]
pub struct UniformBuilder {
    n: usize,
    degree: usize,
    seed: u64,
}

impl UniformBuilder {
    /// A graph with `n` vertices, each picking `degree` random neighbours.
    pub fn new(n: usize, degree: usize) -> Self {
        Self {
            n,
            degree,
            seed: 0xC0FFEE,
        }
    }

    /// Sets the RNG seed (default `0xC0FFEE`).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Average degree parameter `d`.
    pub fn degree(&self) -> usize {
        self.degree
    }
}

impl GraphBuilder for UniformBuilder {
    fn num_vertices(&self) -> usize {
        self.n
    }

    fn build_edges(&self) -> Vec<(VertexId, VertexId)> {
        if self.n == 0 || self.degree == 0 {
            return Vec::new();
        }
        let n = self.n as u64;
        // One chunk of source vertices per rayon task, each with an RNG
        // derived from (seed, chunk) so output is thread-count independent.
        const CHUNK: usize = 1 << 14;
        let chunks: Vec<usize> = (0..self.n).step_by(CHUNK).collect();
        chunks
            .par_iter()
            .flat_map_iter(|&start| {
                let end = (start + CHUNK).min(self.n);
                let mut rng = SmallRng::seed_from_u64(
                    self.seed ^ (start as u64).wrapping_mul(0x9E3779B97F4A7C15),
                );
                let degree = self.degree;
                (start..end).flat_map(move |u| {
                    let mut out = Vec::with_capacity(degree);
                    for _ in 0..degree {
                        out.push((u as VertexId, rng.gen_range(0..n) as VertexId));
                    }
                    out
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
        let a = UniformBuilder::new(500, 4).seed(9).build_edges();
        let b = UniformBuilder::new(500, 4).seed(9).build_edges();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = UniformBuilder::new(500, 4).seed(1).build_edges();
        let b = UniformBuilder::new(500, 4).seed(2).build_edges();
        assert_ne!(a, b);
    }

    #[test]
    fn edge_count_is_n_times_d() {
        let edges = UniformBuilder::new(300, 7).build_edges();
        assert_eq!(edges.len(), 2_100);
    }

    #[test]
    fn endpoints_in_range() {
        let edges = UniformBuilder::new(64, 3).seed(5).build_edges();
        assert!(edges
            .iter()
            .all(|&(u, v)| (u as usize) < 64 && (v as usize) < 64));
    }

    #[test]
    fn zero_vertices_or_degree_yield_empty() {
        assert!(UniformBuilder::new(0, 8).build_edges().is_empty());
        assert!(UniformBuilder::new(8, 0).build_edges().is_empty());
    }

    #[test]
    fn average_degree_close_to_parameter() {
        let g = UniformBuilder::new(2_000, 16).seed(3).build();
        // Undirected doubling: average total degree ~ 2 * 16 (minus
        // un-mirrored self-loops).
        let avg = g.avg_degree();
        assert!((avg - 32.0).abs() < 1.0, "avg = {avg}");
    }

    #[test]
    fn targets_roughly_uniform() {
        // Chi-square-ish sanity: bucket in-degrees over 8 buckets; no bucket
        // should deviate wildly from the mean.
        let edges = UniformBuilder::new(4_096, 8).seed(11).build_edges();
        let mut buckets = [0usize; 8];
        for &(_, v) in &edges {
            buckets[(v as usize) / 512] += 1;
        }
        let mean = edges.len() / 8;
        for (i, &b) in buckets.iter().enumerate() {
            assert!(
                (b as f64) > mean as f64 * 0.8 && (b as f64) < mean as f64 * 1.2,
                "bucket {i} = {b}, mean = {mean}"
            );
        }
    }
}
