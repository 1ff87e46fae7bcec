//! Metric definitions, the per-run report, and `--compare`.
//!
//! The two tables below are the benchmark's contract: an untraced run
//! prints every [`END_TO_END`] metric, a traced run every [`PER_LAYER`]
//! metric, and `BENCHMARK.json` at the repository root lists the same names,
//! units, directions and bounds (a unit test keeps the two in step).

use crate::stats;
use std::collections::BTreeMap;

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    #[cfg(test)]
    fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric's name, unit, direction and regression bound (the share of
/// the parent's median by which it may worsen; per-layer metrics have none).
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Def {
    Def {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Def {
    Def {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees; printed by every untraced run.
pub const END_TO_END: &[Def] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.20),
    e2e("bfs_meps", "ME/s", Higher, 0.25),
    e2e("latency_p50_ms", "ms", Lower, 0.20),
    e2e("latency_p90_ms", "ms", Lower, 0.25),
];

/// One layer each, timed around its public calls; printed by traced runs.
/// A layer the workload never calls reads 0.
pub const PER_LAYER: &[Def] = &[
    layer("graph.load_ms", "ms", Lower),
    layer("core.search_ms_p50", "ms", Lower),
    layer("core.kernel_ms_p50", "ms", Lower),
    layer("core.search_ms_t1_p50", "ms", Lower),
    layer("core.hybrid_speedup", "x", Higher),
    layer("core.examined_per_edge", "ratio", Lower),
    layer("core.levels_mean", "count", Lower),
    layer("core.topdown_ns_per_edge", "ns", Lower),
    layer("query.solo_wave_ms_p50", "ms", Lower),
    layer("query.wave_ms_p50", "ms", Lower),
    layer("query.wave_ms_p90", "ms", Lower),
    layer("query.wave_width_paced", "queries", Higher),
    layer("query.singleton_share", "share", Lower),
    layer("query.queue_ms_p50", "ms", Lower),
    layer("query.queue_ms_p90", "ms", Lower),
    layer("query.us_per_query_sat", "us", Lower),
    layer("query.wave_width_sat", "queries", Higher),
    layer("query.busy_share_paced", "share", Lower),
    layer("query.busy_share_sat", "share", Higher),
    layer("serve.solo_p50_ms", "ms", Lower),
    layer("serve.residual_ms_p50", "ms", Lower),
    layer("serve.residual_ms_p90", "ms", Lower),
    layer("serve.joined_share", "share", Higher),
    layer("serve.reply_kb_mean", "KB", Lower),
    layer("serve.encode_us_per_reply", "us", Lower),
    layer("serve.decode_us_per_reply", "us", Lower),
    layer("serve.gen_late_ms_p90", "ms", Lower),
    layer("serve.shed_share", "share", Lower),
    layer("serve.timeout_share", "share", Lower),
    layer("serve.error_share", "share", Lower),
    layer("serve.unresolved_share", "share", Lower),
    layer("shard.connect_ms", "ms", Lower),
    layer("shard.levels_per_wave", "count", Lower),
    layer("shard.frames_per_wave", "count", Lower),
    layer("shard.items_per_wave", "count", Lower),
    layer("shard.bytes_per_wave", "bytes", Lower),
    layer("shard.bytes_per_item", "bytes", Lower),
    layer("shard.swire_us_per_level", "us", Lower),
    layer("trace.overhead_share", "share", Lower),
];

fn find(name: &str) -> Option<&'static Def> {
    END_TO_END.iter().chain(PER_LAYER).find(|d| d.name == name)
}

struct Reading {
    value: f64,
    samples: Option<usize>,
}

/// Everything one run measured, plus the accounting the result line carries.
#[derive(Default)]
pub struct Report {
    readings: BTreeMap<&'static str, Reading>,
    /// Operations the run attempted (searches or requests, every phase).
    pub attempted: u64,
    /// Of those, the ones that were shed, timed out, errored or went
    /// unanswered.
    pub failed: u64,
    /// Oracle-checked answers that were wrong.
    pub wrong: u64,
    /// Oracle-checked answers in total.
    pub checked: u64,
    notes: Vec<String>,
}

impl Report {
    /// Records `name` (which must be one of the tables' names).
    pub fn set(&mut self, name: &'static str, value: f64, samples: Option<usize>) {
        debug_assert!(find(name).is_some(), "unknown metric {name}");
        self.readings.insert(name, Reading { value, samples });
    }

    /// Records every per-layer metric not yet set as 0: the workload never
    /// calls that layer.
    pub fn zero_unmeasured_layers(&mut self) {
        for def in PER_LAYER {
            self.readings.entry(def.name).or_insert(Reading {
                value: 0.0,
                samples: Some(0),
            });
        }
    }

    /// Adds a human-readable context line printed before the metrics.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    pub fn correct(&self) -> bool {
        self.wrong == 0 && self.checked > 0
    }

    /// The metric lines (name, value, unit, sample count) followed by the
    /// one-line JSON result; errors if any metric in `defs` is missing or
    /// not finite.
    pub fn render(&self, defs: &[Def]) -> Result<String, String> {
        let mut out = String::new();
        for note in &self.notes {
            out.push_str(&format!("# {note}\n"));
        }
        let mut json = Vec::with_capacity(defs.len());
        for def in defs {
            let r = self
                .readings
                .get(def.name)
                .ok_or_else(|| format!("metric {} was not measured", def.name))?;
            if !r.value.is_finite() {
                return Err(format!("metric {} is not finite: {}", def.name, r.value));
            }
            let n = r.samples.map(|n| format!("  (n={n})")).unwrap_or_default();
            out.push_str(&format!(
                "{:<28} {:>14.4} {}{n}\n",
                def.name, r.value, def.unit
            ));
            json.push(format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                def.name, r.value, def.unit
            ));
        }
        out.push_str(&format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}\n",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            json.join(", ")
        ));
        Ok(out)
    }
}

/// Reads every result line (`{"correct": …, "metrics": …}`) in a file.
fn result_lines(path: &str) -> Result<Vec<BTreeMap<String, f64>>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut runs = Vec::new();
    for line in text.lines().filter(|l| l.trim_start().starts_with('{')) {
        let Ok(value) = serde_json::from_str::<serde::Value>(line) else {
            continue;
        };
        let Some(serde::Value::Object(metrics)) = value.get("metrics") else {
            continue;
        };
        let mut run = BTreeMap::new();
        for (name, reading) in metrics {
            if let Some(v) = reading.get("value").and_then(as_f64) {
                run.insert(name.clone(), v);
            }
        }
        runs.push(run);
    }
    if runs.is_empty() {
        return Err(format!("{path}: no result lines"));
    }
    Ok(runs)
}

fn as_f64(v: &serde::Value) -> Option<f64> {
    match *v {
        serde::Value::F64(x) => Some(x),
        serde::Value::U64(x) => Some(x as f64),
        serde::Value::I64(x) => Some(x as f64),
        _ => None,
    }
}

/// `--compare A B`: each metric's median in A and in B, the change as a
/// share of A's median (positive = worse), and the verdict against the
/// metric's bound.
pub fn compare(a_path: &str, b_path: &str) -> Result<String, String> {
    let (a, b) = (result_lines(a_path)?, result_lines(b_path)?);
    let median_of = |runs: &[BTreeMap<String, f64>], name: &str| {
        let values: Vec<f64> = runs.iter().filter_map(|r| r.get(name).copied()).collect();
        (!values.is_empty()).then(|| stats::median(&values))
    };
    let mut out = format!(
        "{:<28} {:>12} {:>12} {:>9} {:>7}  verdict  (A: {} runs, B: {} runs)\n",
        "metric",
        "median A",
        "median B",
        "worse by",
        "bound",
        a.len(),
        b.len()
    );
    for def in END_TO_END.iter().chain(PER_LAYER) {
        let (Some(ma), Some(mb)) = (median_of(&a, def.name), median_of(&b, def.name)) else {
            continue;
        };
        let change = if ma == 0.0 { 0.0 } else { (mb - ma) / ma };
        let worse = match def.better {
            Better::Lower => change,
            Better::Higher => -change,
        };
        let (bound, verdict) = match def.bound {
            Some(bound) if worse > bound => (format!("{:.0}%", bound * 100.0), "REGRESSED"),
            Some(bound) if worse < -bound => (format!("{:.0}%", bound * 100.0), "improved"),
            Some(bound) => (format!("{:.0}%", bound * 100.0), "within"),
            None => ("-".to_string(), "-"),
        };
        out.push_str(&format!(
            "{:<28} {:>12.4} {:>12.4} {:>8.2}% {:>7}  {verdict}\n",
            def.name,
            ma,
            mb,
            worse * 100.0,
            bound
        ));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root must list exactly the
    /// metrics this binary prints, with the same units, directions and
    /// bounds.
    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let json: serde::Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let Some(serde::Value::Array(listed)) = json.get(key) else {
                panic!("BENCHMARK.json has no {key} list");
            };
            assert_eq!(listed.len(), defs.len(), "{key}: metric count");
            for (entry, def) in listed.iter().zip(defs) {
                let text = |k: &str| match entry.get(k) {
                    Some(serde::Value::Str(s)) => s.clone(),
                    other => panic!("{key}.{}: {k} = {other:?}", def.name),
                };
                assert_eq!(text("name"), def.name, "{key}: order or name");
                assert_eq!(text("unit"), def.unit, "{}", def.name);
                assert_eq!(text("better"), def.better.as_str(), "{}", def.name);
                assert_eq!(
                    entry.get("bound").and_then(as_f64),
                    def.bound,
                    "{}",
                    def.name
                );
            }
        }
    }

    #[test]
    fn render_refuses_a_missing_metric_and_prints_the_result_line_last() {
        let mut report = Report {
            attempted: 3,
            checked: 3,
            ..Report::default()
        };
        assert!(report.render(END_TO_END).is_err());
        for (i, def) in END_TO_END.iter().enumerate() {
            report.set(def.name, 1.5 + i as f64, Some(10));
        }
        let text = report.render(END_TO_END).expect("every metric set");
        let last = text.lines().last().unwrap();
        let parsed: serde::Value = serde_json::from_str(last).expect("result line is JSON");
        assert_eq!(parsed.get("correct"), Some(&serde::Value::Bool(true)));
        assert_eq!(parsed.get("failed"), Some(&serde::Value::U64(0)));
        let setup = parsed
            .get("metrics")
            .and_then(|m| m.get("setup_s"))
            .unwrap();
        assert_eq!(setup.get("value").and_then(as_f64), Some(1.5));
    }
}
