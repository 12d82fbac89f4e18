//! Fixture triples for the workspace-level audit rules (`panic-path`,
//! `idle-purity`, `shared-state`).  Unlike the per-file UI fixtures these
//! flow through [`analyze_sources`], which builds the item index and call
//! graph, so each fixture is mounted at an audited engine path.

use gossip_lint::{analyze_sources, Report, SourceFile};

const AUDIT_RULES: &[&str] = &["panic-path", "idle-purity", "shared-state"];

fn fixture(rule: &str, kind: &str) -> String {
    let path = format!(
        "{}/tests/fixtures/{rule}/{kind}.rs",
        env!("CARGO_MANIFEST_DIR")
    );
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {path}: {e}"))
}

/// Mounts the fixture inside `crates/sim/` so the shared-state and
/// idle-purity path filters treat it as audited engine code.
fn analyze(rule: &str, kind: &str, content: String) -> Report {
    analyze_sources(&[SourceFile {
        rel: format!("crates/sim/src/{rule}_{kind}.rs"),
        content,
    }])
}

/// Drops every line containing `marker` — simulating a contributor deleting
/// a pragma or contract instead of satisfying it.
fn strip(src: &str, marker: &str) -> String {
    src.lines()
        .filter(|l| !l.contains(marker))
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn fire_fixtures_fire_their_own_rule_and_nothing_else() {
    for &rule in AUDIT_RULES {
        let report = analyze(rule, "fire", fixture(rule, "fire"));
        assert!(!report.clean(), "{rule}/fire.rs must produce findings");
        assert!(
            report.findings.iter().any(|f| f.rule == rule),
            "{rule}/fire.rs must fire `{rule}`:\n{}",
            report.render_text()
        );
        assert!(
            report.findings.iter().all(|f| f.rule == rule),
            "{rule}/fire.rs fired a foreign rule:\n{}",
            report.render_text()
        );
    }
}

#[test]
fn clean_fixtures_are_clean() {
    for &rule in AUDIT_RULES {
        let report = analyze(rule, "clean", fixture(rule, "clean"));
        assert!(
            report.clean(),
            "{rule}/clean.rs must be finding-free:\n{}",
            report.render_text()
        );
        assert!(
            report.suppressions_clean(),
            "{rule}/clean.rs must have no dangling suppressions:\n{}",
            report.render_suppressions()
        );
    }
}

#[test]
fn allowed_fixtures_are_suppressed_and_load_bearing() {
    for &rule in AUDIT_RULES {
        let src = fixture(rule, "allowed");
        let report = analyze(rule, "allowed", src.clone());
        assert!(
            report.clean(),
            "{rule}/allowed.rs must be clean under its pragmas:\n{}",
            report.render_text()
        );
        assert!(
            report.suppressed_by_rule.get(rule).copied().unwrap_or(0) >= 1,
            "{rule}/allowed.rs must record a suppression for `{rule}`"
        );
        assert!(
            report.suppressions_clean(),
            "every pragma in {rule}/allowed.rs must be used:\n{}",
            report.render_suppressions()
        );

        // Deleting the pragmas must bring the findings straight back.
        let report = analyze(rule, "allowed", strip(&src, "gossip-lint:"));
        assert!(
            report.findings.iter().any(|f| f.rule == rule),
            "stripping the pragmas from {rule}/allowed.rs must re-fire `{rule}`:\n{}",
            report.render_text()
        );
    }
}

#[test]
fn stripping_the_contract_is_a_coverage_finding() {
    // `clean` declares `activity` as a method, `associated` in the protocol
    // trait's receiver-free form; coverage must hold for both.
    for kind in ["clean", "associated"] {
        let src = fixture("idle-purity", kind);
        let report = analyze("idle-purity", kind, src.clone());
        assert!(
            report.clean() && report.suppressions_clean(),
            "idle-purity/{kind}.rs must be clean with its contract:\n{}",
            report.render_text()
        );
        let report = analyze("idle-purity", kind, strip(&src, "gossip-audit:"));
        assert!(
            report
                .findings
                .iter()
                .any(|f| f.rule == "idle-purity" && f.message.contains("contract(pure)")),
            "an unannotated activity fn in idle-purity/{kind}.rs must be an idle-purity coverage finding:\n{}",
            report.render_text()
        );
    }
}
