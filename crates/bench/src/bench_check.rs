//! Perf-trajectory regression checks over `gossip-bench-timing/v2` artifacts.
//!
//! Every sweep writes a timing artifact (`BENCH_sweep.json`) recording the
//! wall-clock of the run and the sweep's peak engine-memory scenario,
//! derived from the engine's deterministic [`MemStats`](gossip_sim::MemStats)
//! counters.  The repository commits one such artifact as
//! `BENCH_sweep_baseline.json` (Large tier), and CI runs `experiments
//! bench-check` to diff the fresh artifact against it: the build fails when
//! peak memory regresses beyond its tolerance (default +25%, a
//! *deterministic* signal) or total wall-clock regresses beyond its (much
//! looser, machine-noise-tolerant) default of +50%.  Future perf PRs
//! therefore land with trajectory data instead of an empty `BENCH_*`
//! history.

use crate::json::Json;

/// Tolerated relative growth of `peak_mem_bytes` (0.25 = +25%).
pub const DEFAULT_MEM_TOLERANCE: f64 = 0.25;
/// Tolerated relative growth of `elapsed_seconds` (0.5 = +50%).
pub const DEFAULT_TIME_TOLERANCE: f64 = 0.5;

/// The fields of a `gossip-bench-timing/v2` artifact that the regression
/// check consumes.
///
/// Parsing is deliberately **unknown-field-tolerant**: only the fields below
/// are read, everything else in the artifact is ignored, and fields that
/// were added to the artifact *after* v2 shipped (the event-driven
/// scheduler's `rounds_*_total` aggregates) are optional.  A freshly written
/// artifact therefore always checks cleanly against a baseline produced by
/// an older binary, and vice versa — schema growth never breaks CI
/// retroactively.
#[derive(Debug, Clone, PartialEq)]
pub struct TimingArtifact {
    /// Sweep scale identifier (`quick` / `full` / `large` / `huge`).
    pub scale: String,
    /// Wall-clock seconds of the whole sweep (machine-dependent).
    pub elapsed_seconds: f64,
    /// Whether the artifact carries memory aggregates (every sweep writes
    /// them; artifacts from before that may not).
    pub mem_stats: bool,
    /// Largest per-scenario peak engine memory of the sweep (deterministic).
    pub peak_mem_bytes: u64,
    /// Label of the scenario that produced `peak_mem_bytes`.
    pub peak_mem_scenario: String,
    /// Total rounds the event-driven scheduler actually walked, summed over
    /// every scenario trial (`None` for artifacts written before the
    /// scheduler existed).
    pub rounds_simulated_total: Option<u64>,
    /// Total rounds fast-forwarded over (`None` for pre-scheduler
    /// artifacts).
    pub rounds_skipped_total: Option<u64>,
}

impl TimingArtifact {
    /// Parses a timing artifact, validating the schema tag.  Unknown fields
    /// are ignored and post-v2 additions are optional (see the type docs).
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed or missing field.
    pub fn parse(text: &str) -> Result<TimingArtifact, String> {
        let value = Json::parse(text)?;
        let schema = value
            .get("schema")
            .and_then(Json::as_str)
            .ok_or("missing schema field")?;
        if schema != "gossip-bench-timing/v2" {
            return Err(format!("unsupported schema '{schema}'"));
        }
        let opt_u64 = |field: &str| {
            value
                .get(field)
                .and_then(Json::as_i64)
                .map(|v| v.max(0) as u64)
        };
        Ok(TimingArtifact {
            scale: value
                .get("scale")
                .and_then(Json::as_str)
                .ok_or("missing scale")?
                .to_string(),
            elapsed_seconds: value
                .get("elapsed_seconds")
                .and_then(Json::as_f64)
                .ok_or("missing elapsed_seconds")?,
            mem_stats: matches!(value.get("mem_stats"), Some(Json::Bool(true))),
            peak_mem_bytes: value
                .get("peak_mem_bytes")
                .and_then(Json::as_i64)
                .ok_or("missing peak_mem_bytes")?
                .max(0) as u64,
            peak_mem_scenario: value
                .get("peak_mem_scenario")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string(),
            rounds_simulated_total: opt_u64("rounds_simulated_total"),
            rounds_skipped_total: opt_u64("rounds_skipped_total"),
        })
    }
}

/// Result of one baseline comparison: a human-readable report plus the
/// verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckOutcome {
    /// `true` when every tracked metric stayed inside its tolerance.
    pub ok: bool,
    /// One line per tracked metric, `PASS`/`FAIL`-prefixed.
    pub lines: Vec<String>,
}

/// Relative growth of `current` over `baseline`.
///
/// A zero (or negative) baseline with a positive current value is **infinite
/// growth**, which fails every finite tolerance — a `0 → anything` move used
/// to report 0.0 and silently pass, hiding regressions against baselines
/// whose metric was never populated.  `0 → 0` is genuinely no growth.
fn growth(baseline: f64, current: f64) -> f64 {
    if baseline <= 0.0 {
        if current > 0.0 {
            f64::INFINITY
        } else {
            0.0
        }
    } else {
        current / baseline - 1.0
    }
}

/// Compares a fresh timing artifact against the committed baseline.
///
/// * **Peak memory** (deterministic): fails when `peak_mem_bytes` grew by
///   more than `mem_tolerance`, provided both artifacts carry memory stats.
/// * **Wall-clock** (noisy): fails when `elapsed_seconds` grew by more than
///   `time_tolerance`.
///
/// Scales must match — comparing a `--quick` run against a Large baseline
/// would trivially pass the memory gate and trivially fail nothing.
pub fn check(
    baseline: &TimingArtifact,
    current: &TimingArtifact,
    mem_tolerance: f64,
    time_tolerance: f64,
) -> CheckOutcome {
    let mut lines = Vec::new();
    let mut ok = true;
    if baseline.scale != current.scale {
        return CheckOutcome {
            ok: false,
            lines: vec![format!(
                "FAIL scale mismatch: baseline '{}' vs current '{}' — rerun the sweep at the baseline's scale",
                baseline.scale, current.scale
            )],
        };
    }
    // Note: a baseline with `mem_stats` but `peak_mem_bytes == 0` still
    // gates — any positive current value is infinite growth and FAILs.
    // Only artifacts that carry no memory stats at all skip the gate.
    if baseline.mem_stats && current.mem_stats {
        let g = growth(
            baseline.peak_mem_bytes as f64,
            current.peak_mem_bytes as f64,
        );
        let pass = g <= mem_tolerance;
        ok &= pass;
        lines.push(format!(
            "{} peak_mem_bytes: {} -> {} ({:+.1}%, tolerance +{:.0}%) [{}]",
            if pass { "PASS" } else { "FAIL" },
            baseline.peak_mem_bytes,
            current.peak_mem_bytes,
            g * 100.0,
            mem_tolerance * 100.0,
            if current.peak_mem_scenario.is_empty() {
                "no scenario"
            } else {
                &current.peak_mem_scenario
            },
        ));
    } else {
        lines.push("SKIP peak_mem_bytes: artifact(s) carry no memory stats".to_string());
    }
    {
        let g = growth(baseline.elapsed_seconds, current.elapsed_seconds);
        let pass = g <= time_tolerance;
        ok &= pass;
        lines.push(format!(
            "{} elapsed_seconds: {:.2} -> {:.2} ({:+.1}%, tolerance +{:.0}%)",
            if pass { "PASS" } else { "FAIL" },
            baseline.elapsed_seconds,
            current.elapsed_seconds,
            g * 100.0,
            time_tolerance * 100.0,
        ));
    }
    // Scheduler aggregates are informational only (no gate): they explain
    // *why* wall-clock moved, and older baselines may not carry them at all.
    if let (Some(simulated), Some(skipped)) =
        (current.rounds_simulated_total, current.rounds_skipped_total)
    {
        let total = simulated + skipped;
        lines.push(format!(
            "INFO rounds: {simulated} simulated, {skipped} skipped ({:.1}% fast-forwarded)",
            if total == 0 {
                0.0
            } else {
                100.0 * skipped as f64 / total as f64
            },
        ));
    }
    CheckOutcome { ok, lines }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn artifact(elapsed: f64, mem: u64) -> TimingArtifact {
        TimingArtifact {
            scale: "large".to_string(),
            elapsed_seconds: elapsed,
            mem_stats: true,
            peak_mem_bytes: mem,
            peak_mem_scenario: "star/32768/as-built/push-pull-all-to-all".to_string(),
            rounds_simulated_total: None,
            rounds_skipped_total: None,
        }
    }

    #[test]
    fn parses_a_real_artifact() {
        let text = r#"{
  "schema": "gossip-bench-timing/v2",
  "scale": "large",
  "threads": 4,
  "scenarios": 10,
  "trials_per_scenario": 2,
  "total_runs": 20,
  "elapsed_seconds": 12.5,
  "runs_per_second": 1.6,
  "mem_stats": true,
  "peak_mem_bytes": 123456,
  "peak_mem_scenario": "star/32768/as-built/push-pull-all-to-all"
}"#;
        let parsed = TimingArtifact::parse(text).unwrap();
        assert_eq!(parsed.scale, "large");
        assert_eq!(parsed.peak_mem_bytes, 123456);
        assert!(parsed.mem_stats);
        assert!((parsed.elapsed_seconds - 12.5).abs() < 1e-12);
        // A pre-scheduler artifact simply has no round aggregates.
        assert_eq!(parsed.rounds_simulated_total, None);
        assert_eq!(parsed.rounds_skipped_total, None);
        assert!(TimingArtifact::parse("{}").is_err());
        assert!(TimingArtifact::parse(r#"{"schema": "gossip-bench-timing/v1"}"#).is_err());
    }

    #[test]
    fn parsing_tolerates_new_and_unknown_fields() {
        // The event-driven scheduler added `rounds_*_total` to the v2
        // artifact; the parser must surface them when present — and keep
        // ignoring fields it has never heard of, so future schema growth
        // cannot break CI against an already-committed baseline.
        let text = r#"{
  "schema": "gossip-bench-timing/v2",
  "scale": "large",
  "elapsed_seconds": 3.25,
  "mem_stats": true,
  "peak_mem_bytes": 42,
  "peak_mem_scenario": "star/64/as-built/push-pull",
  "rounds_simulated_total": 1000,
  "rounds_skipped_total": 250000,
  "some_future_field": {"nested": [1, 2, 3]},
  "another_future_counter": 7
}"#;
        let parsed = TimingArtifact::parse(text).unwrap();
        assert_eq!(parsed.rounds_simulated_total, Some(1000));
        assert_eq!(parsed.rounds_skipped_total, Some(250_000));
        assert_eq!(parsed.peak_mem_bytes, 42);

        // Both directions check cleanly against a baseline that predates
        // the new fields (and the informational line never gates).
        let old = artifact(3.0, 42);
        let outcome = check(&old, &parsed, DEFAULT_MEM_TOLERANCE, DEFAULT_TIME_TOLERANCE);
        assert!(outcome.ok, "{:?}", outcome.lines);
        assert!(
            outcome.lines.iter().any(|l| l.starts_with("INFO rounds")),
            "skipped-round aggregates surface informationally: {:?}",
            outcome.lines
        );
        let outcome = check(&parsed, &old, DEFAULT_MEM_TOLERANCE, DEFAULT_TIME_TOLERANCE);
        assert!(outcome.ok, "{:?}", outcome.lines);
    }

    #[test]
    fn within_tolerance_passes() {
        let outcome = check(
            &artifact(10.0, 1000),
            &artifact(14.0, 1200),
            DEFAULT_MEM_TOLERANCE,
            DEFAULT_TIME_TOLERANCE,
        );
        assert!(outcome.ok, "{:?}", outcome.lines);
        assert!(outcome.lines.iter().all(|l| l.starts_with("PASS")));
    }

    #[test]
    fn memory_regression_fails_deterministically() {
        let outcome = check(
            &artifact(10.0, 1000),
            &artifact(10.0, 1300),
            DEFAULT_MEM_TOLERANCE,
            DEFAULT_TIME_TOLERANCE,
        );
        assert!(!outcome.ok);
        assert!(outcome.lines[0].starts_with("FAIL peak_mem_bytes"));
        // Exactly on the boundary passes.
        let boundary = check(
            &artifact(10.0, 1000),
            &artifact(10.0, 1250),
            DEFAULT_MEM_TOLERANCE,
            DEFAULT_TIME_TOLERANCE,
        );
        assert!(boundary.ok);
    }

    #[test]
    fn wall_clock_regression_fails_and_improvements_pass() {
        let slow = check(
            &artifact(10.0, 1000),
            &artifact(15.1, 1000),
            DEFAULT_MEM_TOLERANCE,
            DEFAULT_TIME_TOLERANCE,
        );
        assert!(!slow.ok);
        let fast = check(
            &artifact(10.0, 1000),
            &artifact(2.0, 500),
            DEFAULT_MEM_TOLERANCE,
            DEFAULT_TIME_TOLERANCE,
        );
        assert!(fast.ok);
    }

    #[test]
    fn scale_mismatch_is_rejected() {
        let mut quick = artifact(1.0, 100);
        quick.scale = "quick".to_string();
        let outcome = check(
            &artifact(10.0, 1000),
            &quick,
            DEFAULT_MEM_TOLERANCE,
            DEFAULT_TIME_TOLERANCE,
        );
        assert!(!outcome.ok);
        assert!(outcome.lines[0].contains("scale mismatch"));
    }

    #[test]
    fn zero_baseline_with_positive_current_fails() {
        // A baseline that carries memory stats but a zero metric (or a
        // truncated artifact) must not silently pass a real regression:
        // growth over a zero baseline is infinite, beyond every tolerance.
        let outcome = check(
            &artifact(10.0, 0),
            &artifact(10.0, 1),
            DEFAULT_MEM_TOLERANCE,
            DEFAULT_TIME_TOLERANCE,
        );
        assert!(!outcome.ok, "{:?}", outcome.lines);
        assert!(outcome.lines[0].starts_with("FAIL peak_mem_bytes"));
        // Same for wall-clock: 0s baseline, any positive current.
        let outcome = check(
            &artifact(0.0, 100),
            &artifact(5.0, 100),
            DEFAULT_MEM_TOLERANCE,
            DEFAULT_TIME_TOLERANCE,
        );
        assert!(!outcome.ok, "{:?}", outcome.lines);
        assert!(outcome.lines[1].starts_with("FAIL elapsed_seconds"));
    }

    #[test]
    fn zero_baseline_with_zero_current_passes() {
        // `0 → 0` is no growth in either metric.
        let outcome = check(
            &artifact(0.0, 0),
            &artifact(0.0, 0),
            DEFAULT_MEM_TOLERANCE,
            DEFAULT_TIME_TOLERANCE,
        );
        assert!(outcome.ok, "{:?}", outcome.lines);
        assert!(outcome.lines.iter().all(|l| l.starts_with("PASS")));
    }

    #[test]
    fn missing_mem_stats_skips_the_memory_gate() {
        let mut no_mem = artifact(10.0, 0);
        no_mem.mem_stats = false;
        let outcome = check(
            &no_mem.clone(),
            &artifact(10.0, 999_999),
            DEFAULT_MEM_TOLERANCE,
            DEFAULT_TIME_TOLERANCE,
        );
        assert!(outcome.ok, "{:?}", outcome.lines);
        assert!(outcome.lines[0].starts_with("SKIP"));
    }
}
