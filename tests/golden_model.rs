//! Golden model-mode outputs.
//!
//! Model mode is deterministic, so the `mcbfs` binary's `--mode model
//! --stats-json` output on a seeded graph is a fixed byte string. These
//! tests run the built binary on CI's seeded R-MAT graphs (scale 12 and 14,
//! degree 8, seed 1) and CI's eight batch-query sources, and compare every
//! output byte for byte with the file of the same name under
//! `tests/golden/`. A difference means the algorithms, the executors or the
//! cost model changed behaviour. When that change is intended, the failure
//! message prints the command that rewrites the golden file.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::OnceLock;

const MCBFS: &str = env!("CARGO_BIN_EXE_mcbfs");
const SCALES: [u32; 2] = [12, 14];
const SOURCES: &str = "0\n17\n101\n555\n1024\n2048\n3000\n4000\n";

/// A directory holding `rmat12.csr`, `rmat14.csr` and `sources.txt`; every
/// command runs there, so its paths stay relative.
fn workdir() -> &'static Path {
    static DIR: OnceLock<PathBuf> = OnceLock::new();
    DIR.get_or_init(|| {
        let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("golden-model");
        std::fs::create_dir_all(&dir).expect("create the work directory");
        for scale in SCALES {
            let generate = format!(
                "generate --kind rmat --scale {scale} --degree 8 --seed 1 --out rmat{scale}.csr"
            );
            run(&dir, &generate, None);
        }
        std::fs::write(dir.join("sources.txt"), SOURCES).expect("write sources");
        dir
    })
}

/// Runs `mcbfs <args> [out]` in `dir` and panics unless it succeeds.
fn run(dir: &Path, args: &str, out: Option<&Path>) {
    let status = Command::new(MCBFS)
        .args(args.split_whitespace())
        .args(out)
        .current_dir(dir)
        .stdout(Stdio::null())
        .status()
        .expect("spawn mcbfs");
    assert!(status.success(), "mcbfs {args} exited with {status}");
}

fn first_difference(golden: &str, got: &str) -> String {
    let (mut g, mut o) = (golden.lines(), got.lines());
    for line in 1.. {
        match (g.next(), o.next()) {
            (Some(a), Some(b)) if a == b => {}
            (None, None) => break,
            (a, b) => {
                return format!(
                    "line {line}: golden {:?}, got {:?}",
                    a.unwrap_or("<end of file>"),
                    b.unwrap_or("<end of file>")
                )
            }
        }
    }
    "same lines, different line endings".to_string()
}

/// Runs each `(file name, command)` pair — the command ends in
/// `--stats-json` and gets the output path appended — and compares the
/// output with `tests/golden/<file name>`.
fn check(cases: &[(String, String)]) {
    let dir = workdir();
    let golden_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    let mut failures = Vec::new();
    for (name, args) in cases {
        let out = dir.join(name);
        run(dir, args, Some(&out));
        let got = std::fs::read_to_string(&out).expect("read fresh output");
        let golden_path = golden_dir.join(name);
        let golden = std::fs::read_to_string(&golden_path).unwrap_or_default();
        if got != golden {
            failures.push(format!(
                "{name}: {}\n  regenerate: (cd {} && {MCBFS} {args} {})",
                first_difference(&golden, &got),
                dir.display(),
                golden_path.display()
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "{} of {} model outputs differ from tests/golden/:\n{}",
        failures.len(),
        cases.len(),
        failures.join("\n")
    );
}

#[test]
fn bfs_model_outputs_match_golden() {
    let algorithms = [
        "simple",
        "single",
        "multi:2",
        "hybrid",
        "hybrid:td",
        "hybrid:bu",
        "hybrid:alt",
    ];
    let mut cases = Vec::new();
    for scale in SCALES {
        for algorithm in algorithms {
            for threads in [1, 4] {
                cases.push((
                    format!(
                        "bfs-rmat{scale}-{}-t{threads}.json",
                        algorithm.replace(':', "-")
                    ),
                    format!(
                        "bfs --graph rmat{scale}.csr --algorithm {algorithm} --threads {threads} \
                         --mode model --machine ex --stats-json"
                    ),
                ));
            }
        }
    }
    check(&cases);
}

#[test]
fn query_model_outputs_match_golden() {
    let mut cases = Vec::new();
    for scale in SCALES {
        for batch in [1, 3, 8] {
            for threads in [1, 4] {
                cases.push((
                    format!("query-rmat{scale}-b{batch}-t{threads}.json"),
                    format!(
                        "query --graph rmat{scale}.csr --sources sources.txt --batch {batch} \
                         --threads {threads} --mode model --machine ex --stats-json"
                    ),
                ));
            }
        }
    }
    check(&cases);
}

#[test]
fn sharded_query_model_outputs_match_golden() {
    let cases: Vec<(String, String)> = SCALES
        .iter()
        .map(|scale| {
            (
                format!("query-rmat{scale}-shards4.json"),
                format!(
                    "query --graph rmat{scale}.csr --sources sources.txt --batch 8 --shards 4 \
                     --mode model --machine ex --stats-json"
                ),
            )
        })
        .collect();
    check(&cases);
}
