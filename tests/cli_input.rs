//! Bad command-line input, or a server that cannot be reached, fails
//! structured: `mcbfs` prints `error:` and exits 2, never panicking. `stcon` exits 0 or 1 for an answer, so a
//! panic's 101 must not be mistaken for one.

use std::path::Path;
use std::process::{Command, Output};

#[test]
fn out_of_range_vertex_ids_exit_2_without_panicking() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli-input");
    std::fs::create_dir_all(&dir).expect("create the work directory");
    std::fs::write(dir.join("sources.txt"), "0\n5000\n").expect("write sources");
    let mcbfs = |args: &str| -> Output {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_mcbfs"));
        cmd.args(args.split_whitespace()).current_dir(&dir);
        cmd.output().expect("spawn mcbfs")
    };
    let generate = mcbfs("generate --kind uniform --vertices 1024 --degree 4 --out g.csr");
    assert!(generate.status.success());
    for args in [
        "bfs --root 5000 --algorithm hybrid",
        "bfs --root 5000 --algorithm single",
        "bfs --root 5000 --algorithm simple",
        "bfs --root 5000 --algorithm multi:2",
        "bfs --root 5000 --algorithm seq",
        "model --root 5000",
        "stcon --source 5000 --target 0",
        "stcon --source 0 --target 5000",
        "query --sources sources.txt",
        "query --sources sources.txt --shards 2",
        "query --addr 127.0.0.1:1 --sources sources.txt",
    ] {
        let out = mcbfs(&format!("{args} --graph g.csr"));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "mcbfs {args}: {stderr}");
        assert!(stderr.contains("error:"), "mcbfs {args}: {stderr}");
        assert!(!stderr.contains("panicked"), "mcbfs {args}: {stderr}");
    }
}
