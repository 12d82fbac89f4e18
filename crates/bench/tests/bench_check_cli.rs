//! End-to-end test of the `experiments bench-check` subcommand against the
//! committed baseline: a self-comparison passes, a +30% peak-memory copy
//! fails naming the metric, an incomplete artifact is rejected at parse, and
//! the removed tolerance flags are unknown options.

use std::path::Path;
use std::process::{Command, Output};

const BASELINE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../BENCH_sweep_baseline.json"
);

fn bench_check(current: &Path, extra: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["bench-check", "--baseline", BASELINE, "--current"])
        .arg(current)
        .args(extra)
        .output()
        .expect("experiments bench-check runs")
}

#[test]
fn bench_check_cli_gates_on_the_committed_baseline() {
    let dir = std::env::temp_dir().join(format!("gossip-bench-check-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let baseline = std::fs::read_to_string(BASELINE).unwrap();
    let copy = |name: &str, text: String| {
        let path = dir.join(name);
        std::fs::write(&path, text).unwrap();
        path
    };
    let stdout = |out: &Output| String::from_utf8_lossy(&out.stdout).into_owned();
    let stderr = |out: &Output| String::from_utf8_lossy(&out.stderr).into_owned();

    let same = bench_check(Path::new(BASELINE), &[]);
    assert!(same.status.success(), "{}", stderr(&same));
    let text = stdout(&same);
    assert!(
        text.contains("PASS peak_mem_bytes: 3088328 -> 3088328"),
        "{text}"
    );
    assert!(text.contains("PASS elapsed_seconds"), "{text}");
    assert!(text.contains("INFO rounds: 242071 simulated"), "{text}");

    // 3088328 × 1.3, rounded down.
    let grown = copy(
        "grown.json",
        baseline.replace("\"peak_mem_bytes\": 3088328", "\"peak_mem_bytes\": 4014826"),
    );
    let out = bench_check(&grown, &[]);
    assert!(!out.status.success());
    assert!(
        stdout(&out).contains("FAIL peak_mem_bytes: 3088328 -> 4014826"),
        "{}",
        stdout(&out)
    );

    let incomplete: String = baseline
        .lines()
        .filter(|line| !line.contains("\"peak_mem_bytes\""))
        .collect::<Vec<_>>()
        .join("\n");
    let out = bench_check(&copy("incomplete.json", incomplete), &[]);
    assert!(!out.status.success());
    assert!(
        stderr(&out).contains("missing peak_mem_bytes"),
        "{}",
        stderr(&out)
    );

    let out = bench_check(Path::new(BASELINE), &["--mem-tolerance", "9"]);
    assert!(!out.status.success());
    assert!(
        stderr(&out).contains("unknown bench-check option '--mem-tolerance'"),
        "{}",
        stderr(&out)
    );
    std::fs::remove_dir_all(&dir).ok();
}
