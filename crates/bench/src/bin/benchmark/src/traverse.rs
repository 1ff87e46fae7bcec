//! `traverse-rmat`: the paper's own measurement — searches from seeded
//! roots of an R-MAT graph, through `BfsRunner::run`. Touches `graph`
//! (load) and `core` only.
//!
//! The run makes whole passes over the roots and keeps each root's best
//! search. On a shared host the memory system is contended by other
//! tenants, which only ever slows a search down; the best of a root's
//! passes is the kernel's own cost, and is what a change to the kernel
//! moves.

use crate::inputs::{self, GraphSpec, Sources};
use crate::metrics::Report;
use crate::oracle::Tally;
use crate::stats::{self, mean, median, percentile};
use crate::trace::{Spans, LANE_CORE, LANE_SETUP};
use mcbfs_core::runner::{Algorithm, BfsRunner};
use mcbfs_graph::csr::{CsrGraph, VertexId, UNVISITED};
use mcbfs_graph::validate::validate_bfs_tree;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::path::Path;
use std::time::Instant;

const THREADS: usize = 2;
const SETUPS: usize = 3;
/// Seeded search roots; at least 100 so the p90 across roots is supported.
const ROOTS: usize = 128;
/// Roots whose trees are fully checked by `validate_bfs_tree` (a check
/// costs several searches); every search gets the cheap checks.
const VALIDATED: usize = 2;
/// About how long one pass over the roots took on the calibration host; a
/// run makes `seconds / PASS_SECONDS` passes.
const PASS_SECONDS: f64 = 6.0;

/// One timed `BfsRunner::run`. The parent array is not kept: at the
/// workload's scale it is megabytes per search.
struct Search {
    root: usize,
    wall_s: f64,
    /// `BfsStats::seconds`: the algorithm alone, without the runner's
    /// allocation and result post-processing.
    kernel_s: f64,
    examined: u64,
    levels: u32,
}

/// Per-root facts from a root's first search, which every later search of
/// the root must reproduce.
struct RootFacts {
    /// Adjacency entries of the reached vertices: the TEPS numerator.
    edges: u64,
    histogram: Vec<u64>,
    /// Kept for the full check.
    parents: Option<Vec<VertexId>>,
}

struct Traversal<'g> {
    graph: &'g CsrGraph,
    roots: Vec<VertexId>,
    facts: Vec<Option<RootFacts>>,
    tally: Tally,
    spans: Option<Spans>,
}

impl Traversal<'_> {
    /// `passes` whole passes over the first `prefix` roots.
    fn measure(
        &mut self,
        prefix: usize,
        algorithm: Algorithm,
        threads: usize,
        passes: usize,
    ) -> Vec<Search> {
        (0..passes * prefix)
            .map(|k| self.search(k % prefix, algorithm, threads))
            .collect()
    }

    fn search(&mut self, i: usize, algorithm: Algorithm, threads: usize) -> Search {
        let (graph, root) = (self.graph, self.roots[i]);
        let t0 = Instant::now();
        let result = BfsRunner::new(graph)
            .algorithm(algorithm)
            .threads(threads)
            .run(root);
        let t1 = Instant::now();
        let stats = &result.stats;
        if let Some(spans) = &self.spans {
            spans.record(
                "core.search",
                LANE_CORE,
                root.to_string(),
                t0,
                t1,
                format!("\"levels\":{}", stats.levels),
            );
        }
        let known = self.facts[i].get_or_insert_with(|| RootFacts {
            edges: result
                .parents
                .iter()
                .enumerate()
                .filter(|(_, &p)| p != UNVISITED)
                .map(|(v, _)| graph.degree(v as VertexId) as u64)
                .sum(),
            histogram: stats.depth_histogram.clone(),
            parents: (i < VALIDATED).then(|| result.parents.clone()),
        });
        let visited: u64 = stats.depth_histogram.iter().sum();
        self.tally.add(if result.parents[root as usize] != root {
            Err(format!("root {root} is not its own parent"))
        } else if stats.depth_histogram != known.histogram {
            Err(format!(
                "root {root}: depth histogram differs between searches"
            ))
        } else if visited != stats.vertices_visited {
            Err(format!(
                "root {root}: histogram counts {visited} of {} visited",
                stats.vertices_visited
            ))
        } else {
            Ok(())
        });
        Search {
            root: i,
            wall_s: t1.duration_since(t0).as_secs_f64(),
            kernel_s: stats.seconds,
            examined: stats.edges_traversed,
            levels: stats.levels,
        }
    }

    fn edges(&self, s: &Search) -> f64 {
        self.facts[s.root]
            .as_ref()
            .expect("facts of a searched root")
            .edges as f64
    }

    /// Full `validate_bfs_tree` of the kept trees, two at a time; each must
    /// also agree with the reachable-edge count the rates used.
    fn validate(&mut self) {
        let graph = self.graph;
        let kept: Vec<(VertexId, &RootFacts)> = self
            .roots
            .iter()
            .zip(&self.facts)
            .filter_map(|(&r, f)| f.as_ref().filter(|f| f.parents.is_some()).map(|f| (r, f)))
            .collect();
        let verdicts: Vec<Result<(), String>> = kept
            .chunks(2)
            .flat_map(|pair| {
                std::thread::scope(|s| {
                    let handles: Vec<_> = pair
                        .iter()
                        .map(|&(root, f)| {
                            s.spawn(move || {
                                let parents = f.parents.as_ref().expect("kept tree");
                                match validate_bfs_tree(graph, root, parents) {
                                    Ok(info) if info.reachable_edges == f.edges => Ok(()),
                                    Ok(info) => Err(format!(
                                        "root {root}: {} reachable edges, rates used {}",
                                        info.reachable_edges, f.edges
                                    )),
                                    Err(e) => Err(format!("root {root}: {e}")),
                                }
                            })
                        })
                        .collect();
                    handles
                        .into_iter()
                        .map(|h| h.join().expect("validator"))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        verdicts.into_iter().for_each(|v| self.tally.add(v));
    }
}

pub fn run(
    spec: &GraphSpec,
    seed: u64,
    seconds: f64,
    traced: bool,
    in_child: bool,
    trace_path: &Path,
) -> Result<Report, String> {
    spec.ensure(in_child)?;
    spec.warm()?;
    let spans = traced.then(Spans::new);
    let mut load_ms = Vec::new();
    let mut graph = None;
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        graph = Some(inputs::read_csr(&spec.csr_path())?);
        load_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        if let Some(s) = &spans {
            s.record(
                "setup.read_csr",
                LANE_SETUP,
                String::new(),
                t0,
                Instant::now(),
                String::new(),
            );
        }
    }
    let graph = graph.expect("at least one set-up");
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut sources = Sources::new(&graph);
    let roots: Vec<VertexId> = (0..ROOTS).map(|_| sources.draw(&mut rng)).collect();
    let mut t = Traversal {
        graph: &graph,
        facts: (0..roots.len()).map(|_| None).collect(),
        roots,
        tally: Tally::default(),
        spans,
    };
    let mut report = Report::default();
    let hybrid = Algorithm::hybrid();
    let n_roots = t.roots.len();

    if !traced {
        // A fixed amount of work per run: the pass count follows from
        // `seconds`, not from how fast the passes went.
        let passes = ((seconds / PASS_SECONDS).round() as usize).max(2);
        let searches = t.measure(n_roots, hybrid, THREADS, passes);
        let peak = crate::peak_rss_mb()?;
        t.validate();
        let best: Vec<f64> = (0..n_roots)
            .map(|i| {
                let times = searches.iter().filter(|s| s.root == i).map(|s| s.wall_s);
                times.fold(f64::INFINITY, f64::min)
            })
            .collect();
        let edges: f64 = (0..n_roots)
            .map(|i| t.facts[i].as_ref().map_or(0, |f| f.edges) as f64)
            .sum();
        let best_ms: Vec<f64> = best.iter().map(|s| s * 1e3).collect();
        report.set("setup_s", median(&load_ms) / 1e3, Some(load_ms.len()));
        report.set("peak_rss_mb", peak, None);
        // Edge-weighted: a root in a tiny component adds little time and
        // few edges instead of dragging a per-root average to zero.
        report.set(
            "bfs_meps",
            edges / best.iter().sum::<f64>() / 1e6,
            Some(n_roots),
        );
        report.set(
            "latency_p50_ms",
            percentile(&best_ms, 0.5, "best search time")?,
            Some(best_ms.len()),
        );
        report.set(
            "latency_p90_ms",
            percentile(&best_ms, 0.9, "best search time")?,
            Some(best_ms.len()),
        );
        report.attempted = searches.len() as u64;
        report.note(format!(
            "{} hybrid searches ({THREADS} threads): {} passes over {n_roots} roots; graph {} vertices, {} edges",
            searches.len(),
            searches.len() / n_roots,
            graph.num_vertices(),
            graph.num_edges()
        ));
    } else {
        // One pass each; enough roots for a median of each kind of search.
        let few = stats::min_samples(0.5);
        let t2 = t.measure(n_roots, hybrid, THREADS, 1);
        let t1 = t.measure(few, hybrid, 1, 1);
        let td = t.measure(8, Algorithm::SingleSocket, THREADS, 1);
        t.validate();
        let ms = |s: &Search| s.wall_s * 1e3;
        let t2_ms: Vec<f64> = t2.iter().map(ms).collect();
        let t1_ms: Vec<f64> = t1.iter().map(ms).collect();
        let kernel_ms: Vec<f64> = t2.iter().map(|s| s.kernel_s * 1e3).collect();
        let p50_t2 = percentile(&t2_ms, 0.5, "hybrid search time")?;
        let p50_t1 = percentile(&t1_ms, 0.5, "1-thread search time")?;
        let examined: Vec<f64> = t2.iter().map(|s| s.examined as f64 / t.edges(s)).collect();
        let levels: Vec<f64> = t2.iter().map(|s| s.levels as f64).collect();
        let td_s: f64 = td.iter().map(|s| s.kernel_s).sum();
        let td_examined: f64 = td.iter().map(|s| s.examined as f64).sum();
        report.set("graph.load_ms", median(&load_ms), Some(load_ms.len()));
        report.set("core.search_ms_p50", p50_t2, Some(t2_ms.len()));
        report.set(
            "core.kernel_ms_p50",
            percentile(&kernel_ms, 0.5, "kernel time")?,
            Some(kernel_ms.len()),
        );
        report.set("core.search_ms_t1_p50", p50_t1, Some(t1_ms.len()));
        report.set("core.hybrid_speedup", p50_t1 / p50_t2, None);
        report.set(
            "core.examined_per_edge",
            mean(&examined),
            Some(examined.len()),
        );
        report.set("core.levels_mean", mean(&levels), Some(levels.len()));
        report.set(
            "core.topdown_ns_per_edge",
            td_s / td_examined * 1e9,
            Some(td.len()),
        );
        // Spans are recorded after each timed call, off the measured path.
        report.set("trace.overhead_share", 0.0, None);
        report.attempted = (t2.len() + t1.len() + td.len()) as u64;
        report.zero_unmeasured_layers();
        let spans = t.spans.as_ref().expect("traced run records spans");
        spans
            .write_chrome(trace_path)
            .map_err(|e| format!("{}: {e}", trace_path.display()))?;
        report.note(format!("trace written to {}", trace_path.display()));
    }
    report.checked = t.tally.checked;
    report.wrong = t.tally.wrong;
    if let Some(e) = t.tally.first_error.take() {
        report.note(format!("WRONG: {e}"));
    }
    Ok(report)
}
