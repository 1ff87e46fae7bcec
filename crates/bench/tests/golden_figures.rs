//! Golden figure outputs.
//!
//! The figure binaries run in model mode by default, so their stdout table
//! and JSON rows are fixed byte strings. These tests run two of them with
//! default arguments and compare both with the files of the same name under
//! `results/`. Between them they reach every Fig. 5 configuration that no
//! CLI algorithm selects: Algorithm 1 across sockets, the "+bitmap" rung,
//! Algorithm 2 across sockets without channels, and unbatched channels. A
//! difference means the algorithms, the executors or the cost model changed
//! behaviour; when that change is intended, rerun the binary from the
//! repository root (`cargo run --release -p mcbfs-bench --bin <name> >
//! results/<name>.txt`) and commit the regenerated files.

use std::path::Path;
use std::process::Command;

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

/// Runs the figure binary `exe` with its JSON rows sent to a scratch file
/// and compares `<name>.<ext>` for each of `exts` ("txt" is its stdout)
/// with the file of that name under `results/`.
fn check(exe: &str, name: &str, exts: &[&str]) {
    let scratch = Path::new(env!("CARGO_TARGET_TMPDIR")).join("golden-figures");
    std::fs::create_dir_all(&scratch).expect("create the scratch directory");
    let run = Command::new(exe)
        .arg("--out")
        .arg(scratch.join(format!("{name}.json")))
        .output()
        .expect("spawn the figure binary");
    assert!(run.status.success(), "{name} exited with {}", run.status);
    std::fs::write(scratch.join(format!("{name}.txt")), run.stdout).expect("save stdout");
    let results = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    let mut failures = Vec::new();
    for ext in exts {
        let file = format!("{name}.{ext}");
        let got = std::fs::read_to_string(scratch.join(&file)).expect("read the fresh output");
        let golden = std::fs::read_to_string(results.join(&file)).unwrap_or_default();
        if got != golden {
            failures.push(format!("{file}: {}", first_difference(&golden, &got)));
        }
    }
    assert!(
        failures.is_empty(),
        "differs from results/:\n{}",
        failures.join("\n")
    );
}

#[test]
fn fig05_optimizations_matches_results() {
    let exe = env!("CARGO_BIN_EXE_fig05_optimizations");
    check(exe, "fig05_optimizations", &["txt", "json"]);
}

#[test]
fn ablation_breakdown_matches_results() {
    // This binary prints its table and writes no JSON rows.
    let exe = env!("CARGO_BIN_EXE_ablation_breakdown");
    check(exe, "ablation_breakdown", &["txt"]);
}
