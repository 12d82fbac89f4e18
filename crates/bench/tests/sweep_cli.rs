//! End-to-end test of the `experiments sweep` subcommand: it must write a
//! JSON report, and two runs with the same `--seed` must produce
//! byte-identical files even across separate processes.
//!
//! Lives in `gossip-bench` (the package that owns the binary) so Cargo
//! guarantees via `CARGO_BIN_EXE_experiments` that the invoked binary is
//! freshly built.

use gossip_bench::json::Json;

#[test]
fn sweep_subcommand_writes_reproducible_reports_and_timing_artifact() {
    let experiments = env!("CARGO_BIN_EXE_experiments");
    let dir = std::env::temp_dir().join(format!("gossip-sweep-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let run = |out: &std::path::Path, timing: &std::path::Path| {
        let output = std::process::Command::new(experiments)
            .args(["sweep", "--quick", "--trials", "2", "--seed", "7"])
            .arg("--out")
            .arg(out)
            .arg("--timing-out")
            .arg(timing)
            .output()
            .expect("experiments sweep runs");
        assert!(
            output.status.success(),
            "experiments sweep failed:\n{}",
            String::from_utf8_lossy(&output.stderr)
        );
        std::fs::read(out).expect("report file written")
    };
    let timing_path = dir.join("BENCH_sweep.json");
    let first = run(&dir.join("a.json"), &timing_path);
    let second = run(&dir.join("b.json"), &dir.join("BENCH_sweep2.json"));
    assert!(!first.is_empty());
    assert_eq!(
        first, second,
        "same --seed must produce byte-identical reports"
    );

    let parsed = Json::parse(std::str::from_utf8(&first).unwrap().trim()).unwrap();
    assert_eq!(
        parsed.get("schema").and_then(Json::as_str),
        Some("gossip-sweep/v6")
    );
    let scenarios = parsed.get("scenarios").and_then(Json::as_array).unwrap();
    assert!(scenarios.len() >= 4, "sweep must cover the standard grid");

    // The wall-clock timing artifact rides along with every sweep.
    let timing = std::fs::read_to_string(&timing_path).expect("timing artifact written");
    let timing = Json::parse(timing.trim()).expect("timing artifact is valid JSON");
    assert_eq!(
        timing.get("schema").and_then(Json::as_str),
        Some("gossip-bench-timing/v2")
    );
    assert_eq!(timing.get("scale").and_then(Json::as_str), Some("quick"));
    assert!(timing.get("threads").and_then(Json::as_i64).unwrap() >= 1);
    assert!(timing.get("total_runs").and_then(Json::as_i64).unwrap() > 0);
    assert!(timing.get("elapsed_seconds").is_some());
    // Every sweep carries the memory section (its contents are checked by
    // `mem_stats_flag_fills_the_timing_artifact_memory_section`).
    assert_eq!(timing.get("mem_stats"), Some(&Json::Bool(true)));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn large_sweep_json_is_byte_identical_across_thread_counts() {
    // The Scale::Large grid, budget-capped to its smallest tier so the test
    // stays fast, run once on 1 worker thread and once on 4: the report files
    // must match byte for byte.  (The full-size large sweep runs in CI via
    // `experiments sweep --large`.)
    let experiments = env!("CARGO_BIN_EXE_experiments");
    let dir = std::env::temp_dir().join(format!("gossip-sweep-threads-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let run = |threads: &str, out: &std::path::Path| {
        let output = std::process::Command::new(experiments)
            .args([
                "sweep",
                "--large",
                "--max-size",
                "256",
                "--trials",
                "1",
                "--seed",
                "11",
            ])
            .arg("--out")
            .arg(out)
            .arg("--timing-out")
            .arg(dir.join(format!("timing-{threads}.json")))
            .env("RAYON_NUM_THREADS", threads)
            .output()
            .expect("experiments sweep runs");
        assert!(
            output.status.success(),
            "experiments sweep --large failed:\n{}",
            String::from_utf8_lossy(&output.stderr)
        );
        std::fs::read(out).expect("report file written")
    };
    let single = run("1", &dir.join("t1.json"));
    let parallel = run("4", &dir.join("t4.json"));
    assert_eq!(
        single, parallel,
        "thread count must not leak into the sweep report"
    );
    let parsed = Json::parse(std::str::from_utf8(&single).unwrap().trim()).unwrap();
    let scenarios = parsed.get("scenarios").and_then(Json::as_array).unwrap();
    // 7 families x 1 size x 2 profiles x 4 protocols (the 32768-star extras
    // are above the budget cap).
    assert_eq!(scenarios.len(), 7 * 2 * 4);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn faults_flag_appends_the_fault_tier_and_stays_thread_deterministic() {
    // `--faults` appends the churn/blackout cells to the grid.  The faulted
    // report must be byte-identical across worker-thread counts, the fault
    // cells must carry a non-"none" profile, and the fault-free cells must
    // be untouched relative to a run without the flag.
    let experiments = env!("CARGO_BIN_EXE_experiments");
    let dir = std::env::temp_dir().join(format!("gossip-sweep-faults-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let run = |faults: bool, threads: &str, out: &std::path::Path| {
        let mut args = vec!["sweep", "--quick", "--trials", "2", "--seed", "7"];
        if faults {
            args.push("--faults");
        }
        let output = std::process::Command::new(experiments)
            .args(&args)
            .arg("--out")
            .arg(out)
            .arg("--timing-out")
            .arg(dir.join(format!("timing-{faults}-{threads}.json")))
            .env("RAYON_NUM_THREADS", threads)
            .output()
            .expect("experiments sweep runs");
        assert!(
            output.status.success(),
            "experiments sweep --faults failed:\n{}",
            String::from_utf8_lossy(&output.stderr)
        );
        std::fs::read(out).expect("report file written")
    };
    let single = run(true, "1", &dir.join("f1.json"));
    let parallel = run(true, "4", &dir.join("f4.json"));
    assert_eq!(
        single, parallel,
        "thread count must not leak into the faulted sweep report"
    );
    let plain = run(false, "1", &dir.join("p1.json"));

    let faulted = Json::parse(std::str::from_utf8(&single).unwrap().trim()).unwrap();
    let plain = Json::parse(std::str::from_utf8(&plain).unwrap().trim()).unwrap();
    let faulted_cells = faulted.get("scenarios").and_then(Json::as_array).unwrap();
    let plain_cells = plain.get("scenarios").and_then(Json::as_array).unwrap();
    assert!(
        faulted_cells.len() > plain_cells.len(),
        "--faults must append cells to the grid"
    );
    // The shared prefix (the fault-free grid) is unchanged by the flag.
    for (with, without) in faulted_cells.iter().zip(plain_cells.iter()) {
        assert_eq!(
            with, without,
            "fault tier must not perturb fault-free cells"
        );
    }
    let profiles: Vec<&str> = faulted_cells
        .iter()
        .filter_map(|s| s.get("fault_profile").and_then(Json::as_str))
        .collect();
    assert_eq!(profiles.len(), faulted_cells.len());
    assert!(profiles.iter().any(|p| p.starts_with("churn(")));
    assert!(profiles[..plain_cells.len()].iter().all(|p| *p == "none"));
    let crashed: i64 = faulted_cells
        .iter()
        .filter_map(|s| s.get("crashes").and_then(Json::as_i64))
        .sum();
    assert!(crashed > 0, "fault tier must actually crash nodes");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn threads_flag_pins_the_pool_and_min_size_narrows_the_grid() {
    // `--threads N` must pin the rayon pool (recorded in the timing
    // artifact's `threads` field) without perturbing the report, and the
    // `--min-size`/`--max-size` window must narrow the grid to a single
    // tier — the shape the CI thread-scaling smoke relies on.
    let experiments = env!("CARGO_BIN_EXE_experiments");
    let dir = std::env::temp_dir().join(format!("gossip-sweep-pin-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let run = |threads: &str, out: &std::path::Path, timing: &std::path::Path| {
        let output = std::process::Command::new(experiments)
            .args([
                "sweep",
                "--large",
                "--min-size",
                "256",
                "--max-size",
                "256",
                "--trials",
                "1",
                "--seed",
                "13",
                "--threads",
                threads,
            ])
            .arg("--out")
            .arg(out)
            .arg("--timing-out")
            .arg(timing)
            .output()
            .expect("experiments sweep runs");
        assert!(
            output.status.success(),
            "experiments sweep --threads failed:\n{}",
            String::from_utf8_lossy(&output.stderr)
        );
        std::fs::read(out).expect("report file written")
    };
    let t1_timing = dir.join("timing-1.json");
    let t3_timing = dir.join("timing-3.json");
    let single = run("1", &dir.join("t1.json"), &t1_timing);
    let pooled = run("3", &dir.join("t3.json"), &t3_timing);
    assert_eq!(
        single, pooled,
        "--threads must not leak into the sweep report"
    );
    let threads_of = |path: &std::path::Path| {
        let timing = std::fs::read_to_string(path).expect("timing artifact written");
        Json::parse(timing.trim())
            .expect("timing artifact is valid JSON")
            .get("threads")
            .and_then(Json::as_i64)
            .expect("timing artifact records the pool size")
    };
    assert_eq!(threads_of(&t1_timing), 1);
    assert_eq!(threads_of(&t3_timing), 3);

    // The window kept exactly the 256-node tier of the large grid.
    let parsed = Json::parse(std::str::from_utf8(&single).unwrap().trim()).unwrap();
    let scenarios = parsed.get("scenarios").and_then(Json::as_array).unwrap();
    assert_eq!(scenarios.len(), 7 * 2 * 4);

    // A window that excludes everything is a usage error, not an empty sweep.
    let output = std::process::Command::new(experiments)
        .args(["sweep", "--quick", "--min-size", "1000000"])
        .output()
        .unwrap();
    assert!(!output.status.success());
    std::fs::remove_dir_all(&dir).ok();
}

/// The timing artifact's `mem_stats` flag is always set, and the memory
/// section it announces holds the sweep's peak engine memory.
#[test]
fn mem_stats_flag_fills_the_timing_artifact_memory_section() {
    let experiments = env!("CARGO_BIN_EXE_experiments");
    let dir = std::env::temp_dir().join(format!("gossip-sweep-mem-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let timing_path = dir.join("timing.json");
    let output = std::process::Command::new(experiments)
        .args(["sweep", "--quick", "--trials", "1", "--seed", "3"])
        .arg("--out")
        .arg(dir.join("report.json"))
        .arg("--timing-out")
        .arg(&timing_path)
        .output()
        .expect("experiments sweep runs");
    assert!(
        output.status.success(),
        "experiments sweep failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let timing = std::fs::read_to_string(&timing_path).unwrap();
    let timing = Json::parse(timing.trim()).unwrap();
    assert_eq!(
        timing.get("schema").and_then(Json::as_str),
        Some("gossip-bench-timing/v2")
    );
    assert_eq!(timing.get("mem_stats"), Some(&Json::Bool(true)));
    assert!(
        timing.get("peak_mem_bytes").and_then(Json::as_i64).unwrap() > 0,
        "peak memory must be aggregated from the sweep"
    );
    let scenario = timing
        .get("peak_mem_scenario")
        .and_then(Json::as_str)
        .unwrap();
    assert!(!scenario.is_empty());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sweep_rejects_bad_flags() {
    let experiments = env!("CARGO_BIN_EXE_experiments");
    let output = std::process::Command::new(experiments)
        .args(["sweep", "--trials", "0"])
        .output()
        .unwrap();
    assert!(!output.status.success());
    let output = std::process::Command::new(experiments)
        .args(["sweep", "--bogus"])
        .output()
        .unwrap();
    assert!(!output.status.success());
}
