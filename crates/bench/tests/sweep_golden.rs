//! Golden test of the Quick sweep: `experiments sweep --quick --trials 2
//! --seed 7`, with and without `--faults`, must write the committed report
//! byte for byte, so every cell's rounds, activations and memory figures stay
//! identical across changes to how they are computed.
//!
//! A mismatch names the first differing scenario (family/size/profile/
//! protocol and fault profile) and its first differing field.
//!
//! To regenerate after an intended change of the reported values:
//! `target/release/experiments sweep --quick --trials 2 --seed 7 --out crates/bench/tests/golden/sweep_quick.json`
//! (and with `--faults` for `sweep_quick_faults.json`).

use gossip_bench::json::Json;

fn sweep_report(name: &str, extra: &[&str]) -> String {
    let dir =
        std::env::temp_dir().join(format!("gossip-sweep-golden-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let out = dir.join("report.json");
    let output = std::process::Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["sweep", "--quick", "--trials", "2", "--seed", "7"])
        .args(extra)
        .arg("--out")
        .arg(&out)
        .arg("--timing-out")
        .arg(dir.join("timing.json"))
        .output()
        .expect("experiments sweep runs");
    assert!(
        output.status.success(),
        "experiments sweep {extra:?} failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let report = std::fs::read_to_string(&out).expect("report file written");
    std::fs::remove_dir_all(&dir).ok();
    report
}

fn scenarios(report: &str) -> Vec<Json> {
    let parsed = Json::parse(report.trim()).expect("the sweep report is valid JSON");
    parsed
        .get("scenarios")
        .and_then(Json::as_array)
        .expect("the report lists its scenarios")
        .to_vec()
}

fn field(scenario: &Json, key: &str) -> String {
    match scenario.get(key) {
        Some(Json::Str(s)) => s.clone(),
        Some(value) => value.to_string(),
        None => "?".into(),
    }
}

/// Asserts `actual == golden` byte for byte. On a mismatch, names the first
/// scenario whose fields differ, else the first differing line.
fn assert_matches_golden(actual: &str, golden: &str) {
    if actual == golden {
        return;
    }
    let (got, want) = (scenarios(actual), scenarios(golden));
    for (index, (g, w)) in got.iter().zip(&want).enumerate() {
        if g == w {
            continue;
        }
        let (g_lines, w_lines) = (g.to_pretty(), w.to_pretty());
        let first_field = g_lines
            .lines()
            .zip(w_lines.lines())
            .find(|(a, b)| a != b)
            .map_or_else(String::new, |(a, b)| {
                format!("\n  report: {}\n  golden: {}", a.trim(), b.trim())
            });
        panic!(
            "scenario {index} ({}/{}/{}/{}, fault_profile {}) differs from the golden{first_field}",
            field(w, "family"),
            field(w, "size"),
            field(w, "profile"),
            field(w, "protocol"),
            field(w, "fault_profile"),
        );
    }
    assert_eq!(
        got.len(),
        want.len(),
        "the report (left) and the golden (right) list different numbers of scenarios"
    );
    let line = actual
        .lines()
        .zip(golden.lines())
        .position(|(a, b)| a != b)
        .unwrap_or_else(|| actual.lines().count().min(golden.lines().count()));
    panic!(
        "the report differs from the golden outside its scenarios, at line {}",
        line + 1
    );
}

#[test]
fn quick_sweep_matches_golden() {
    assert_matches_golden(
        &sweep_report("plain", &[]),
        include_str!("golden/sweep_quick.json"),
    );
}

#[test]
fn quick_fault_sweep_matches_golden() {
    assert_matches_golden(
        &sweep_report("faults", &["--faults"]),
        include_str!("golden/sweep_quick_faults.json"),
    );
}
