//! The sweep's timing artifact (`gossip-bench-timing/v2`) and the
//! perf-trajectory regression check over it.
//!
//! Every sweep writes a [`TimingArtifact`] (`BENCH_sweep.json`) recording the
//! wall-clock of the run and the sweep's peak engine-memory scenario,
//! derived from the engine's deterministic [`MemStats`](gossip_sim::MemStats)
//! counters.  This module is the format's one owner:
//! [`TimingArtifact::to_json`] writes it and [`TimingArtifact::parse`] reads
//! it back.  The repository commits one such artifact as
//! `BENCH_sweep_baseline.json` (Large tier), and CI runs `experiments
//! bench-check` to diff the fresh artifact against it with [`check`]: the
//! build fails when peak memory grows by more than [`MEM_TOLERANCE`] (a
//! *deterministic* signal) or total wall-clock by more than the much looser,
//! machine-noise-tolerant [`TIME_TOLERANCE`].

use crate::json::Json;

/// The artifact's schema tag.
const SCHEMA: &str = "gossip-bench-timing/v2";

/// Tolerated relative growth of `peak_mem_bytes` (0.25 = +25%).
pub const MEM_TOLERANCE: f64 = 0.25;
/// Tolerated relative growth of `elapsed_seconds` (0.5 = +50%).
pub const TIME_TOLERANCE: f64 = 0.5;

/// One sweep's timing artifact.
///
/// The JSON form has four more fields, each written by
/// [`to_json`](Self::to_json) rather than stored: `schema`, `total_runs`
/// (`scenarios × trials_per_scenario`), `runs_per_second`, and `mem_stats`,
/// which is always `true`.
#[derive(Debug, Clone, PartialEq)]
pub struct TimingArtifact {
    /// Sweep scale identifier ([`Scale::name`](crate::Scale::name)).
    pub scale: String,
    /// Size of the rayon pool that ran the sweep.
    pub threads: u64,
    /// Scenarios in the grid, fault cells included.
    pub scenarios: u64,
    /// Trials per scenario.
    pub trials_per_scenario: u64,
    /// Wall-clock seconds of the whole sweep (machine-dependent).
    pub elapsed_seconds: f64,
    /// Fault-injection cells in the grid (0 without `--faults`).
    pub fault_cells: u64,
    /// Rounds the event-driven scheduler walked, summed over every scenario.
    pub rounds_simulated_total: u64,
    /// Rounds it fast-forwarded over, summed the same way.
    pub rounds_skipped_total: u64,
    /// Largest per-scenario peak engine memory of the sweep (deterministic).
    pub peak_mem_bytes: u64,
    /// Label of the scenario that produced `peak_mem_bytes` (empty when no
    /// scenario reported memory).
    pub peak_mem_scenario: String,
}

impl TimingArtifact {
    /// Trials the sweep ran: `scenarios × trials_per_scenario`.
    fn total_runs(&self) -> u64 {
        self.scenarios.saturating_mul(self.trials_per_scenario)
    }

    /// The artifact as pretty-printed JSON, without a trailing newline.
    pub fn to_json(&self) -> String {
        let total_runs = self.total_runs();
        let runs_per_second = if self.elapsed_seconds > 0.0 {
            total_runs as f64 / self.elapsed_seconds
        } else {
            0.0
        };
        let int = |v: u64| Json::Int(v as i64);
        Json::object(vec![
            ("schema", Json::Str(SCHEMA.to_string())),
            ("scale", Json::Str(self.scale.clone())),
            ("threads", int(self.threads)),
            ("scenarios", int(self.scenarios)),
            ("trials_per_scenario", int(self.trials_per_scenario)),
            ("total_runs", int(total_runs)),
            ("elapsed_seconds", Json::Float(self.elapsed_seconds)),
            ("runs_per_second", Json::Float(runs_per_second)),
            ("mem_stats", Json::Bool(true)),
            ("fault_cells", int(self.fault_cells)),
            ("rounds_simulated_total", int(self.rounds_simulated_total)),
            ("rounds_skipped_total", int(self.rounds_skipped_total)),
            ("peak_mem_bytes", int(self.peak_mem_bytes)),
            (
                "peak_mem_scenario",
                Json::Str(self.peak_mem_scenario.clone()),
            ),
        ])
        .to_pretty()
    }

    /// Parses an artifact written by [`to_json`](Self::to_json).  Every
    /// field must be present; unknown fields are ignored.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed or missing field, an
    /// unsupported schema tag, or a `mem_stats` that is not `true`.
    pub fn parse(text: &str) -> Result<TimingArtifact, String> {
        let value = Json::parse(text)?;
        let field = |name: &str| value.get(name).ok_or_else(|| format!("missing {name}"));
        let string = |name: &str| {
            field(name)?
                .as_str()
                .map(str::to_string)
                .ok_or_else(|| format!("{name} is not a string"))
        };
        let count = |name: &str| {
            field(name)?
                .as_i64()
                .and_then(|v| u64::try_from(v).ok())
                .ok_or_else(|| format!("{name} is not a non-negative integer"))
        };
        let schema = string("schema")?;
        if schema != SCHEMA {
            return Err(format!("unsupported schema '{schema}'"));
        }
        if field("mem_stats")? != &Json::Bool(true) {
            return Err("mem_stats is not true".to_string());
        }
        // `to_json` recomputes these, but a complete artifact carries them.
        field("total_runs")?;
        field("runs_per_second")?;
        Ok(TimingArtifact {
            scale: string("scale")?,
            threads: count("threads")?,
            scenarios: count("scenarios")?,
            trials_per_scenario: count("trials_per_scenario")?,
            elapsed_seconds: field("elapsed_seconds")?
                .as_f64()
                .ok_or("elapsed_seconds is not a number")?,
            fault_cells: count("fault_cells")?,
            rounds_simulated_total: count("rounds_simulated_total")?,
            rounds_skipped_total: count("rounds_skipped_total")?,
            peak_mem_bytes: count("peak_mem_bytes")?,
            peak_mem_scenario: string("peak_mem_scenario")?,
        })
    }
}

/// Result of one baseline comparison: a human-readable report plus the
/// verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckOutcome {
    /// `true` when every tracked metric stayed inside its tolerance.
    pub ok: bool,
    /// One line per tracked metric, `PASS`/`FAIL`-prefixed, then one
    /// `INFO` line.
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
///   more than [`MEM_TOLERANCE`].  A zero baseline still gates: any positive
///   current value is infinite growth.
/// * **Wall-clock** (noisy): fails when `elapsed_seconds` grew by more than
///   [`TIME_TOLERANCE`].
///
/// Scales must match — comparing a `--quick` run against a Large baseline
/// would trivially pass the memory gate and trivially fail nothing.
pub fn check(baseline: &TimingArtifact, current: &TimingArtifact) -> CheckOutcome {
    if baseline.scale != current.scale {
        return CheckOutcome {
            ok: false,
            lines: vec![format!(
                "FAIL scale mismatch: baseline '{}' vs current '{}' — rerun the sweep at the baseline's scale",
                baseline.scale, current.scale
            )],
        };
    }
    let mem = growth(
        baseline.peak_mem_bytes as f64,
        current.peak_mem_bytes as f64,
    );
    let time = growth(baseline.elapsed_seconds, current.elapsed_seconds);
    let verdict = |pass: bool| if pass { "PASS" } else { "FAIL" };
    let (mem_ok, time_ok) = (mem <= MEM_TOLERANCE, time <= TIME_TOLERANCE);
    let (simulated, skipped) = (current.rounds_simulated_total, current.rounds_skipped_total);
    let walked = simulated.saturating_add(skipped);
    let lines = vec![
        format!(
            "{} peak_mem_bytes: {} -> {} ({:+.1}%, tolerance +{:.0}%) [{}]",
            verdict(mem_ok),
            baseline.peak_mem_bytes,
            current.peak_mem_bytes,
            mem * 100.0,
            MEM_TOLERANCE * 100.0,
            if current.peak_mem_scenario.is_empty() {
                "no scenario"
            } else {
                &current.peak_mem_scenario
            },
        ),
        format!(
            "{} elapsed_seconds: {:.2} -> {:.2} ({:+.1}%, tolerance +{:.0}%)",
            verdict(time_ok),
            baseline.elapsed_seconds,
            current.elapsed_seconds,
            time * 100.0,
            TIME_TOLERANCE * 100.0,
        ),
        // Scheduler aggregates are informational only (no gate): they
        // explain *why* wall-clock moved.
        format!(
            "INFO rounds: {simulated} simulated, {skipped} skipped ({:.1}% fast-forwarded)",
            if walked == 0 {
                0.0
            } else {
                100.0 * skipped as f64 / walked as f64
            },
        ),
    ];
    CheckOutcome {
        ok: mem_ok && time_ok,
        lines,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn artifact(elapsed: f64, mem: u64) -> TimingArtifact {
        TimingArtifact {
            scale: "large".to_string(),
            threads: 1,
            scenarios: 179,
            trials_per_scenario: 2,
            elapsed_seconds: elapsed,
            fault_cells: 0,
            rounds_simulated_total: 1000,
            rounds_skipped_total: 250,
            peak_mem_bytes: mem,
            peak_mem_scenario: "star/32768/as-built/push-pull-all-to-all".to_string(),
        }
    }

    /// The gated lines, without the trailing `INFO` line.
    fn gates(outcome: &CheckOutcome) -> &[String] {
        &outcome.lines[..2]
    }

    #[test]
    fn parses_a_real_artifact() {
        let text = include_str!("../../../BENCH_sweep_baseline.json");
        let parsed = TimingArtifact::parse(text).unwrap();
        assert_eq!(parsed.scale, "large");
        assert_eq!(parsed.total_runs(), 358);
        assert_eq!(parsed.peak_mem_bytes, 3_088_328);
        assert_eq!(parsed.rounds_simulated_total, 242_071);
        assert!((parsed.elapsed_seconds - 256.675_376_96).abs() < 1e-12);
        // Writing it back reproduces the committed bytes.
        assert_eq!(format!("{}\n", parsed.to_json()), text);

        assert!(TimingArtifact::parse("{}").is_err());
        assert!(TimingArtifact::parse(r#"{"schema": "gossip-bench-timing/v1"}"#).is_err());
        for field in ["peak_mem_bytes", "rounds_skipped_total", "runs_per_second"] {
            let missing = text.replace(&format!("\"{field}\""), "\"renamed\"");
            let err = TimingArtifact::parse(&missing).unwrap_err();
            assert!(err.contains(field), "{err}");
        }
        let no_mem = text.replace("\"mem_stats\": true", "\"mem_stats\": false");
        assert!(TimingArtifact::parse(&no_mem).is_err());
    }

    #[test]
    fn parsing_tolerates_new_and_unknown_fields() {
        // Fields the parser has never heard of are ignored, so schema growth
        // cannot break CI against an already-committed baseline.
        let a = artifact(3.25, 42);
        let text = a.to_json().replacen(
            '{',
            "{\n  \"some_future_field\": {\"nested\": [1, 2, 3]},\n  \"another_future_counter\": 7,",
            1,
        );
        assert_eq!(TimingArtifact::parse(&text).unwrap(), a);
    }

    #[test]
    fn to_json_round_trips() {
        for a in [artifact(12.5, 123_456), artifact(0.0, 0)] {
            assert_eq!(TimingArtifact::parse(&a.to_json()).unwrap(), a);
        }
    }

    #[test]
    fn within_tolerance_passes() {
        let outcome = check(&artifact(10.0, 1000), &artifact(14.0, 1200));
        assert!(outcome.ok, "{:?}", outcome.lines);
        assert!(gates(&outcome).iter().all(|l| l.starts_with("PASS")));
        assert_eq!(
            outcome.lines[2],
            "INFO rounds: 1000 simulated, 250 skipped (20.0% fast-forwarded)"
        );
    }

    #[test]
    fn memory_regression_fails_deterministically() {
        let outcome = check(&artifact(10.0, 1000), &artifact(10.0, 1300));
        assert!(!outcome.ok);
        assert!(outcome.lines[0].starts_with("FAIL peak_mem_bytes"));
        // Exactly on the boundary passes.
        let boundary = check(&artifact(10.0, 1000), &artifact(10.0, 1250));
        assert!(boundary.ok);
    }

    #[test]
    fn wall_clock_regression_fails_and_improvements_pass() {
        let slow = check(&artifact(10.0, 1000), &artifact(15.1, 1000));
        assert!(!slow.ok);
        let fast = check(&artifact(10.0, 1000), &artifact(2.0, 500));
        assert!(fast.ok);
    }

    #[test]
    fn scale_mismatch_is_rejected() {
        let mut quick = artifact(1.0, 100);
        quick.scale = "quick".to_string();
        let outcome = check(&artifact(10.0, 1000), &quick);
        assert!(!outcome.ok);
        assert!(outcome.lines[0].contains("scale mismatch"));
    }

    #[test]
    fn zero_baseline_with_positive_current_fails() {
        // A baseline with a zero metric must not silently pass a real
        // regression: growth over a zero baseline is infinite, beyond every
        // tolerance.
        let outcome = check(&artifact(10.0, 0), &artifact(10.0, 1));
        assert!(!outcome.ok, "{:?}", outcome.lines);
        assert!(outcome.lines[0].starts_with("FAIL peak_mem_bytes"));
        // Same for wall-clock: 0s baseline, any positive current.
        let outcome = check(&artifact(0.0, 100), &artifact(5.0, 100));
        assert!(!outcome.ok, "{:?}", outcome.lines);
        assert!(outcome.lines[1].starts_with("FAIL elapsed_seconds"));
    }

    #[test]
    fn zero_baseline_with_zero_current_passes() {
        // `0 → 0` is no growth in either metric.
        let outcome = check(&artifact(0.0, 0), &artifact(0.0, 0));
        assert!(outcome.ok, "{:?}", outcome.lines);
        assert!(gates(&outcome).iter().all(|l| l.starts_with("PASS")));
    }
}
