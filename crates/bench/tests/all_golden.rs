//! Golden test of every experiment table: `experiments all --quick --json`
//! must reproduce the committed output byte for byte, so the conductance
//! tables (E1, E4) and every other experiment's figures stay bit-identical
//! across changes to how they are computed.
//!
//! The full-scale output, `golden/all_full.json`, is pinned the same way by a
//! release-build CI step: it takes seconds there and far longer in a debug
//! build.
//!
//! To regenerate after an intended change of the reported values:
//! `target/release/experiments all --quick --json > crates/bench/tests/golden/all_quick.json`
//! (and likewise without `--quick` for `all_full.json`).

fn experiments_output(args: &[&str]) -> String {
    let output = std::process::Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .output()
        .expect("experiments runs");
    assert!(
        output.status.success(),
        "experiments {args:?} failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8(output.stdout).expect("the tables are UTF-8")
}

/// Asserts `actual == golden`, naming the first line where they differ.
fn assert_matches_golden(actual: &str, golden: &str) {
    if actual == golden {
        return;
    }
    let (mut got, mut want) = (actual.lines(), golden.lines());
    for line in 1.. {
        let (g, w) = (got.next(), want.next());
        assert_eq!(
            g, w,
            "output (left) differs from the golden (right) at line {line}"
        );
        if g.is_none() {
            break;
        }
    }
    panic!("output differs from the golden only in line endings");
}

#[test]
fn all_quick_tables_match_golden() {
    assert_matches_golden(
        &experiments_output(&["all", "--quick", "--json"]),
        include_str!("golden/all_quick.json"),
    );
}
