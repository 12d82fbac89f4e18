//! Integration tests of the parallel scenario-sweep runner: grid coverage,
//! reproducibility of the JSON report, and the `experiments sweep` binary
//! end to end.

use gossip_bench::json::Json;
use gossip_bench::sweep::{GraphFamily, LatencyProfile, ProtocolKind, SweepSpec};

fn small_spec() -> SweepSpec {
    SweepSpec {
        families: vec![
            GraphFamily::Clique,
            GraphFamily::Cycle,
            GraphFamily::Dumbbell,
            GraphFamily::RingOfCliques,
            GraphFamily::ErdosRenyi { p: 0.35 },
        ],
        sizes: vec![8, 12],
        profiles: vec![
            LatencyProfile::AsBuilt,
            LatencyProfile::TwoLevel {
                slow: 8,
                fast_probability: 0.5,
            },
        ],
        protocols: vec![ProtocolKind::PushPull, ProtocolKind::Flooding],
        trials: 4,
        base_seed: 2024,
        extra: Vec::new(),
    }
}

#[test]
fn sweep_report_is_byte_identical_across_runs() {
    let a = small_spec().run().to_json();
    let b = small_spec().run().to_json();
    assert_eq!(a, b, "same spec + seed must serialise identically");
}

#[test]
fn sweep_report_json_parses_and_covers_the_grid() {
    let spec = small_spec();
    let report = spec.run();
    let parsed = Json::parse(&report.to_json()).expect("report must be valid JSON");

    assert_eq!(
        parsed.get("schema").and_then(Json::as_str),
        Some("gossip-sweep/v6")
    );
    assert_eq!(
        parsed.get("trials_per_scenario").and_then(Json::as_i64),
        Some(4)
    );
    let scenarios = parsed.get("scenarios").and_then(Json::as_array).unwrap();
    assert_eq!(scenarios.len(), spec.scenario_count());
    assert_eq!(scenarios.len(), 5 * 2 * 2 * 2);

    let mut families_seen = std::collections::BTreeSet::new();
    for s in scenarios {
        families_seen.insert(s.get("family").and_then(Json::as_str).unwrap().to_string());
        let trials = s.get("trials").and_then(Json::as_i64).unwrap();
        let completed = s.get("completed").and_then(Json::as_i64).unwrap();
        assert_eq!(trials, 4);
        assert_eq!(completed, trials, "all sweep trials must disseminate");
        let median = s.get("rounds_median").and_then(Json::as_i64).unwrap();
        let p95 = s.get("rounds_p95").and_then(Json::as_i64).unwrap();
        let max = s.get("rounds_max").and_then(Json::as_i64).unwrap();
        assert!(0 < median && median <= p95 && p95 <= max);
        // v2: every push-pull/flooding cell carries the engine's
        // deterministic peak-memory figure.
        let mem = s.get("peak_mem_bytes").and_then(Json::as_i64).unwrap();
        assert!(mem > 0, "cheap protocols must report peak memory");
        // v5: fault-free cells carry an all-zero graceful-degradation
        // section with profile "none".
        assert_eq!(s.get("fault_profile").and_then(Json::as_str), Some("none"));
        assert_eq!(s.get("crashes").and_then(Json::as_i64), Some(0));
        assert_eq!(s.get("stranded_rumors_max").and_then(Json::as_i64), Some(0));
    }
    assert!(
        families_seen.len() >= 4,
        "sweep must cover at least four graph families"
    );
}

#[test]
fn per_trial_seeding_makes_random_families_vary_between_trials() {
    let spec = SweepSpec {
        families: vec![GraphFamily::ErdosRenyi { p: 0.3 }],
        sizes: vec![16],
        profiles: vec![LatencyProfile::UniformRandom { max: 10 }],
        protocols: vec![ProtocolKind::PushPull],
        trials: 8,
        base_seed: 5,
        extra: Vec::new(),
    };
    let report = spec.run();
    let summary = &report.scenarios[0];
    // Eight independent Erdős–Rényi instances with random latencies cannot
    // all take exactly the same number of rounds.
    assert!(
        summary.rounds_min < summary.rounds_max,
        "trials must be independently seeded (min {} == max {})",
        summary.rounds_min,
        summary.rounds_max
    );
}

// The end-to-end test of the `experiments sweep` CLI lives in
// `crates/bench/tests/sweep_cli.rs`: only tests in the binary's own package
// get the `CARGO_BIN_EXE_*` guarantee that the invoked binary is fresh.
