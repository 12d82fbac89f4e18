//! Golden test of the E1 (Theorem 5) tables: `experiments e1 --quick --json`
//! and `experiments e1 --json` must reproduce the committed outputs byte for
//! byte, so every `φ*`, `ℓ*` and `φ_avg` the conductance analysis reports
//! stays bit-identical across changes to how it is computed.
//!
//! To regenerate after an intended change of the reported values:
//! `target/release/experiments e1 --quick --json > crates/bench/tests/golden/e1_quick.json`
//! (and likewise without `--quick` for `e1_full.json`).

fn e1_output(args: &[&str]) -> String {
    let output = std::process::Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .output()
        .expect("experiments e1 runs");
    assert!(
        output.status.success(),
        "experiments {args:?} failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8(output.stdout).expect("the table is UTF-8")
}

#[test]
fn e1_quick_table_matches_golden() {
    assert_eq!(
        e1_output(&["e1", "--quick", "--json"]),
        include_str!("golden/e1_quick.json")
    );
}

#[test]
fn e1_full_table_matches_golden() {
    assert_eq!(
        e1_output(&["e1", "--json"]),
        include_str!("golden/e1_full.json")
    );
}
