//! Input graphs: generated once, cached on disk, read back by every run.
//!
//! Each workload uses one fixed graph instance (a constant generator seed),
//! so a run never pays for generation and every run's set-up reads the same
//! bytes; `--seed` draws the roots, queries and arrival times. Generation
//! runs in a child process, keeping its memory out of the measured
//! process's peak RSS.

use mcbfs_gen::prelude::*;
use mcbfs_graph::csr::{CsrGraph, VertexId};
use mcbfs_graph::io;
use mcbfs_graph::shard::{shard_file_name, CsrShard};
use rand::rngs::SmallRng;
use rand::Rng;
use std::collections::HashSet;
use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::process::Command;

/// Generated edges per vertex; each is stored in both directions, so the
/// CSR holds about twice as many adjacency entries (edge factor 16).
const GENERATED_DEGREE: usize = 8;

/// A permuted R-MAT graph and, for a cluster, its vertex-range shards.
#[derive(Clone, Copy, Debug)]
pub struct GraphSpec {
    pub scale: u32,
    /// Generator seed: fixed per workload, not drawn from `--seed`.
    pub seed: u64,
    /// Shard files cut next to the CSR (0 = none).
    pub shards: usize,
}

impl GraphSpec {
    pub fn csr_path(&self) -> PathBuf {
        cache_dir().join(format!("rmat-s{}-g{}.csr", self.scale, self.seed))
    }

    pub fn shard_paths(&self) -> Vec<PathBuf> {
        let csr = self.csr_path().to_string_lossy().into_owned();
        (0..self.shards)
            .map(|i| PathBuf::from(shard_file_name(&csr, i, self.shards)))
            .collect()
    }

    fn files(&self) -> Vec<PathBuf> {
        let mut files = vec![self.csr_path()];
        files.extend(self.shard_paths());
        files
    }

    /// Makes sure the cached files exist, generating them if needed — in a
    /// child process running this binary (`in_child`) or in this process.
    pub fn ensure(&self, in_child: bool) -> Result<(), String> {
        if self.files().iter().all(|p| p.exists()) {
            return Ok(());
        }
        if !in_child {
            return self.generate();
        }
        let exe = std::env::current_exe().map_err(|e| format!("locating this binary: {e}"))?;
        let status = Command::new(exe)
            .args([
                "--generate",
                &self.scale.to_string(),
                &self.seed.to_string(),
            ])
            .arg(self.shards.to_string())
            .status()
            .map_err(|e| format!("starting the graph generator: {e}"))?;
        if !status.success() {
            return Err(format!("graph generator failed: {status}"));
        }
        Ok(())
    }

    /// Generates the graph and writes the CSR and shard files, each through
    /// a temporary name so an interrupted run leaves no partial file.
    pub fn generate(&self) -> Result<(), String> {
        std::fs::create_dir_all(cache_dir()).map_err(|e| format!("creating the cache: {e}"))?;
        let graph = RmatBuilder::new(self.scale, GENERATED_DEGREE)
            .seed(self.seed)
            .permute(true)
            .build();
        write_atomically(&self.csr_path(), |w| io::write_csr(w, &graph))?;
        for (i, path) in self.shard_paths().iter().enumerate() {
            let shard = CsrShard::cut(&graph, self.shards, i);
            write_atomically(path, |w| io::write_shard(w, &shard))?;
        }
        Ok(())
    }

    /// Reads every cached file once, through a small buffer, so set-ups
    /// start page-cache warm.
    pub fn warm(&self) -> Result<(), String> {
        for path in self.files() {
            File::open(&path)
                .and_then(|mut f| std::io::copy(&mut f, &mut std::io::sink()))
                .map_err(|e| format!("{}: {e}", path.display()))?;
        }
        Ok(())
    }
}

fn write_atomically(
    path: &Path,
    write: impl FnOnce(&mut BufWriter<File>) -> Result<(), io::IoError>,
) -> Result<(), String> {
    let tmp = path.with_extension("tmp");
    let file = File::create(&tmp).map_err(|e| format!("{}: {e}", tmp.display()))?;
    let mut w = BufWriter::new(file);
    write(&mut w).map_err(|e| format!("{}: {e}", tmp.display()))?;
    w.flush().map_err(|e| format!("{}: {e}", tmp.display()))?;
    std::fs::rename(&tmp, path).map_err(|e| format!("{}: {e}", path.display()))
}

/// Where inputs and traces are cached: the Cargo target directory the
/// benchmark was built into (`$CARGO_TARGET_DIR`, else `target`).
pub fn cache_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    PathBuf::from(target).join("benchmark-inputs")
}

pub fn read_csr(path: &Path) -> Result<CsrGraph, String> {
    let file = File::open(path).map_err(|e| format!("{}: {e}", path.display()))?;
    io::read_csr(&mut BufReader::new(file)).map_err(|e| format!("{}: {e}", path.display()))
}

pub fn read_shard(path: &Path) -> Result<CsrShard, String> {
    let file = File::open(path).map_err(|e| format!("{}: {e}", path.display()))?;
    io::read_shard(&mut BufReader::new(file)).map_err(|e| format!("{}: {e}", path.display()))
}

/// Draws distinct vertices of degree ≥ 1 (search roots and query sources);
/// once every candidate has been drawn, draws repeat.
pub struct Sources<'g> {
    graph: &'g CsrGraph,
    candidates: usize,
    seen: HashSet<VertexId>,
}

impl<'g> Sources<'g> {
    pub fn new(graph: &'g CsrGraph) -> Self {
        let n = graph.num_vertices() as VertexId;
        let candidates = (0..n).filter(|&v| graph.degree(v) > 0).count();
        assert!(candidates > 0, "graph has no edges");
        Self {
            graph,
            candidates,
            seen: HashSet::new(),
        }
    }

    pub fn draw(&mut self, rng: &mut SmallRng) -> VertexId {
        let n = self.graph.num_vertices() as VertexId;
        loop {
            let v = rng.gen_range(0..n);
            if self.graph.degree(v) > 0
                && (self.seen.insert(v) || self.seen.len() >= self.candidates)
            {
                return v;
            }
        }
    }
}
