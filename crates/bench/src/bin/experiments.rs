//! The experiment runner: regenerates every table of the experiment index
//! (`gossip_bench::experiments`) and drives the parallel scenario-sweep
//! runner.  README's "The experiments binary" section shows typical runs.
//!
//! Usage:
//!
//! ```text
//! experiments [EXPERIMENT-ID ...] [--quick] [--json] [--markdown]
//! experiments sweep [--quick|--full|--large|--huge] [--seed N] [--trials N]
//!                   [--min-size N] [--max-size N] [--threads N] [--faults]
//!                   [--out PATH] [--timing-out PATH] [--json] [--markdown]
//! experiments bench-check --baseline PATH --current PATH
//!                         [--mem-tolerance F] [--time-tolerance F]
//! ```
//!
//! With no experiment ids, every experiment (E1–E8, F1, F2, F8) is run.
//! `--quick` uses the smaller parameter sweeps (the ones the test-suite
//! uses); the default is the full-size sweep (`Scale::Full`).
//! `--json` and `--markdown` change the output format from
//! the plain-text tables.
//!
//! The `sweep` subcommand executes the standard scenario grid (seven graph
//! families × sizes × latency profiles × protocols, multi-seed) in parallel
//! and writes the aggregated median/p95 round counts as a deterministic JSON
//! report: the same `--seed` always produces a byte-identical file,
//! regardless of thread count.  `--threads` pins the rayon pool size
//! explicitly (the default detects the machine); the pool size is recorded
//! in the `threads` field of the timing artifact, so perf-trajectory
//! comparisons know what parallelism produced each wall-clock number.  `--large` swaps in the large-scale grid
//! (up to 4096 nodes everywhere, 32768-node star cells — one-to-all *and*
//! all-to-all — for the cheap protocols); `--huge` adds the 65536/131072-node
//! star tier and a 16384-node Erdős–Rényi broadcast; `--max-size` drops grid
//! cells above a node budget — and `--min-size` below one — without changing
//! the seeds of the remaining cells, so CI can smoke a single tier (e.g.
//! `--huge --min-size 65536 --max-size 65536` runs just the 65536-node star
//! cells).  `--faults` appends the fault-injection tier (schema
//! `gossip-sweep/v6`): lightweight-protocol cells rerun under seed-derived
//! crash-stop churn, link cuts and message loss, and their report rows carry
//! the graceful-degradation aggregates (residual components, stranded
//! rumors, re-dissemination latency) instead of all-clean completions.
//! Fault cells hash their churn spec into the trial seeds, so adding the
//! tier never perturbs the fault-free cells.  Alongside the report, every
//! sweep writes a `BENCH_sweep.json`
//! wall-clock timing artifact (schema `gossip-bench-timing/v2`,
//! `--timing-out` to relocate) that CI uploads to track the perf trajectory,
//! including the sweep's peak-memory aggregates (from the engine's
//! deterministic `MemStats` counters).
//!
//! The `bench-check` subcommand diffs a fresh timing artifact against a
//! committed baseline (`BENCH_sweep_baseline.json`) and exits non-zero when
//! the sweep's peak engine memory regressed beyond `--mem-tolerance`
//! (default +25%, deterministic) or the wall-clock regressed beyond
//! `--time-tolerance` (default +50%, machine-noise-tolerant) — the CI step
//! that turns the uploaded artifacts into an enforced perf trajectory.

#![forbid(unsafe_code)]

use std::process::ExitCode;

use gossip_bench::experiments;
use gossip_bench::sweep::SweepSpec;
use gossip_bench::{Scale, Table};

struct Options {
    ids: Vec<String>,
    scale: Scale,
    json: bool,
    markdown: bool,
}

fn parse_args() -> Result<Options, String> {
    let mut ids = Vec::new();
    let mut scale = Scale::Full;
    let mut json = false;
    let mut markdown = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--quick" => scale = Scale::Quick,
            "--full" => scale = Scale::Full,
            "--json" => json = true,
            "--markdown" => markdown = true,
            "--help" | "-h" => {
                return Err(
                    "usage: experiments [e1|e2|e3|e4|e5|e6|e7|e8|f1|f2|f8|all ...] [--quick] [--json] [--markdown]"
                        .to_string(),
                )
            }
            other if other.starts_with('-') => {
                return Err(format!("unknown option '{other}' (try --help)"))
            }
            other => ids.push(other.to_string()),
        }
    }
    if ids.is_empty() {
        ids.push("all".to_string());
    }
    Ok(Options {
        ids,
        scale,
        json,
        markdown,
    })
}

fn emit(table: &Table, options: &Options) {
    if options.json {
        println!("{}", table.to_json());
    } else if options.markdown {
        println!("{}", table.to_markdown());
    } else {
        println!("{table}");
    }
}

struct SweepOptions {
    scale: Scale,
    seed: Option<u64>,
    trials: Option<u64>,
    min_size: Option<usize>,
    max_size: Option<usize>,
    threads: Option<usize>,
    faults: bool,
    out: String,
    timing_out: String,
    json: bool,
    markdown: bool,
}

fn parse_sweep_args(args: &[String]) -> Result<SweepOptions, String> {
    let mut options = SweepOptions {
        scale: Scale::Full,
        seed: None,
        trials: None,
        min_size: None,
        max_size: None,
        threads: None,
        faults: false,
        out: "sweep_report.json".to_string(),
        timing_out: "BENCH_sweep.json".to_string(),
        json: false,
        markdown: false,
    };
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let mut value_of = |name: &str| {
            iter.next()
                .cloned()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match arg.as_str() {
            "--quick" => options.scale = Scale::Quick,
            "--full" => options.scale = Scale::Full,
            "--large" => options.scale = Scale::Large,
            "--huge" => options.scale = Scale::Huge,
            "--faults" => options.faults = true,
            "--json" => options.json = true,
            "--markdown" => options.markdown = true,
            "--seed" => {
                let v = value_of("--seed")?;
                options.seed = Some(
                    v.parse()
                        .map_err(|e| format!("invalid --seed '{v}': {e}"))?,
                );
            }
            "--trials" => {
                let v = value_of("--trials")?;
                let trials: u64 = v
                    .parse()
                    .map_err(|e| format!("invalid --trials '{v}': {e}"))?;
                if trials == 0 {
                    return Err("--trials must be at least 1".to_string());
                }
                options.trials = Some(trials);
            }
            "--min-size" => {
                let v = value_of("--min-size")?;
                let min: usize = v
                    .parse()
                    .map_err(|e| format!("invalid --min-size '{v}': {e}"))?;
                if min == 0 {
                    return Err("--min-size must be at least 1".to_string());
                }
                options.min_size = Some(min);
            }
            "--max-size" => {
                let v = value_of("--max-size")?;
                let max: usize = v
                    .parse()
                    .map_err(|e| format!("invalid --max-size '{v}': {e}"))?;
                if max == 0 {
                    return Err("--max-size must be at least 1".to_string());
                }
                options.max_size = Some(max);
            }
            "--threads" => {
                let v = value_of("--threads")?;
                let threads: usize = v
                    .parse()
                    .map_err(|e| format!("invalid --threads '{v}': {e}"))?;
                if threads == 0 {
                    return Err("--threads must be at least 1".to_string());
                }
                options.threads = Some(threads);
            }
            "--out" => options.out = value_of("--out")?,
            "--timing-out" => options.timing_out = value_of("--timing-out")?,
            "--help" | "-h" => {
                return Err(
                    "usage: experiments sweep [--quick|--full|--large|--huge] [--seed N] \
                     [--trials N] [--min-size N] [--max-size N] [--threads N] [--faults] \
                     [--out PATH] [--timing-out PATH] [--json] [--markdown]"
                        .to_string(),
                )
            }
            other => return Err(format!("unknown sweep option '{other}' (try sweep --help)")),
        }
    }
    Ok(options)
}

fn run_sweep(args: &[String]) -> ExitCode {
    let options = match parse_sweep_args(args) {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let mut spec = SweepSpec::standard(options.scale);
    if options.faults {
        // Appended before --max-size so the budget cap applies to fault
        // cells too.
        spec.extra.extend(SweepSpec::fault_tier(options.scale));
    }
    if let Some(seed) = options.seed {
        spec.base_seed = seed;
    }
    if let Some(trials) = options.trials {
        spec.trials = trials;
    }
    // Trial seeds hash scenario content, so dropping cells on either side of
    // the size window leaves the results of the remaining cells untouched.
    if let Some(min) = options.min_size {
        spec.sizes.retain(|&s| s >= min);
        spec.extra.retain(|cell| cell.size >= min);
    }
    if let Some(max) = options.max_size {
        spec.sizes.retain(|&s| s <= max);
        spec.extra.retain(|cell| cell.size <= max);
    }
    if spec.sizes.is_empty() && spec.extra.is_empty() {
        eprintln!("the --min-size/--max-size window leaves no scenarios in the grid");
        return ExitCode::FAILURE;
    }
    // An explicit --threads pins the rayon pool size for the whole sweep
    // (trial-level parallelism); the reports stay byte-identical either way,
    // only the wall-clock — and the `threads` field of the timing artifact —
    // changes.
    if let Some(n) = options.threads {
        rayon::set_num_threads(n);
    }
    let threads = rayon::current_num_threads();
    let scenario_count = spec.scenario_count();
    eprintln!(
        "sweep: {} scenarios x {} trials = {} runs on {} threads (seed {:#x})",
        scenario_count,
        spec.trials,
        spec.trial_count(),
        threads,
        spec.base_seed
    );
    // gossip-lint: allow(wall-clock): the sweep timing sidecar is the one sanctioned non-deterministic artifact; never part of the report
    let started = std::time::Instant::now();
    let report = spec.run();
    let elapsed = started.elapsed();
    eprintln!("sweep: finished in {elapsed:.2?}");

    let json = report.to_json();
    if let Err(e) = std::fs::write(&options.out, format!("{json}\n")) {
        eprintln!("cannot write report to '{}': {e}", options.out);
        return ExitCode::FAILURE;
    }
    eprintln!("sweep: report written to {}", options.out);

    // Wall-clock timing artifact (schema gossip-bench-timing/v2): unlike the
    // report it is *not* deterministic — it records how fast this machine ran
    // the sweep, so CI can track the perf trajectory across commits.  It
    // also carries the sweep's peak-memory aggregates, which *are*
    // deterministic (engine counters, not allocator probes).
    let elapsed_seconds = elapsed.as_secs_f64();
    let total_runs = spec.trial_count();
    let (peak_mem_scenario, peak_mem_bytes) = report.peak_mem_max().unwrap_or_default();
    let (rounds_simulated_total, rounds_skipped_total) = report.rounds_totals();
    let timing = gossip_bench::json::Json::object(vec![
        (
            "schema",
            gossip_bench::json::Json::Str("gossip-bench-timing/v2".to_string()),
        ),
        (
            "scale",
            gossip_bench::json::Json::Str(options.scale.name().to_string()),
        ),
        ("threads", gossip_bench::json::Json::Int(threads as i64)),
        (
            "scenarios",
            gossip_bench::json::Json::Int(scenario_count as i64),
        ),
        (
            "trials_per_scenario",
            gossip_bench::json::Json::Int(spec.trials as i64),
        ),
        (
            "total_runs",
            gossip_bench::json::Json::Int(total_runs as i64),
        ),
        (
            "elapsed_seconds",
            gossip_bench::json::Json::Float(elapsed_seconds),
        ),
        (
            "runs_per_second",
            gossip_bench::json::Json::Float(if elapsed_seconds > 0.0 {
                total_runs as f64 / elapsed_seconds
            } else {
                0.0
            }),
        ),
        ("mem_stats", gossip_bench::json::Json::Bool(true)),
        // Fault-injection tier size (0 without --faults).  `bench-check`
        // parses artifacts unknown-field-tolerantly, so baselines predating
        // the fault tier keep working.
        (
            "fault_cells",
            gossip_bench::json::Json::Int(spec.fault_cell_count() as i64),
        ),
        // Event-driven scheduler aggregates (deterministic engine counters):
        // total rounds walked vs fast-forwarded across all scenarios.
        // `bench-check` parses artifacts leniently, so baselines predating
        // these fields keep working.
        (
            "rounds_simulated_total",
            gossip_bench::json::Json::Int(rounds_simulated_total as i64),
        ),
        (
            "rounds_skipped_total",
            gossip_bench::json::Json::Int(rounds_skipped_total as i64),
        ),
        (
            "peak_mem_bytes",
            gossip_bench::json::Json::Int(peak_mem_bytes as i64),
        ),
        (
            "peak_mem_scenario",
            gossip_bench::json::Json::Str(peak_mem_scenario),
        ),
    ]);
    if let Err(e) = std::fs::write(&options.timing_out, format!("{}\n", timing.to_pretty())) {
        eprintln!(
            "cannot write timing artifact to '{}': {e}",
            options.timing_out
        );
        return ExitCode::FAILURE;
    }
    eprintln!("sweep: timing artifact written to {}", options.timing_out);

    let table = report.to_table();
    if options.json {
        println!("{json}");
    } else if options.markdown {
        println!("{}", table.to_markdown());
    } else {
        println!("{table}");
    }
    ExitCode::SUCCESS
}

fn run_bench_check(args: &[String]) -> ExitCode {
    let mut baseline_path = None;
    let mut current_path = None;
    let mut mem_tolerance = gossip_bench::bench_check::DEFAULT_MEM_TOLERANCE;
    let mut time_tolerance = gossip_bench::bench_check::DEFAULT_TIME_TOLERANCE;
    let usage = "usage: experiments bench-check --baseline PATH --current PATH \
                 [--mem-tolerance F] [--time-tolerance F]";
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let mut value_of = |name: &str| {
            iter.next()
                .cloned()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        let parsed = match arg.as_str() {
            "--baseline" => value_of("--baseline").map(|v| baseline_path = Some(v)),
            "--current" => value_of("--current").map(|v| current_path = Some(v)),
            "--mem-tolerance" => value_of("--mem-tolerance").and_then(|v| {
                v.parse()
                    .map(|f| mem_tolerance = f)
                    .map_err(|e| format!("invalid --mem-tolerance '{v}': {e}"))
            }),
            "--time-tolerance" => value_of("--time-tolerance").and_then(|v| {
                v.parse()
                    .map(|f| time_tolerance = f)
                    .map_err(|e| format!("invalid --time-tolerance '{v}': {e}"))
            }),
            "--help" | "-h" => Err(usage.to_string()),
            other => Err(format!("unknown bench-check option '{other}' ({usage})")),
        };
        if let Err(msg) = parsed {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    }
    let (Some(baseline_path), Some(current_path)) = (baseline_path, current_path) else {
        eprintln!("{usage}");
        return ExitCode::FAILURE;
    };
    let load = |path: &str| -> Result<gossip_bench::bench_check::TimingArtifact, String> {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("cannot read '{path}': {e}"))?;
        gossip_bench::bench_check::TimingArtifact::parse(&text)
            .map_err(|e| format!("cannot parse '{path}': {e}"))
    };
    let (baseline, current) = match (load(&baseline_path), load(&current_path)) {
        (Ok(b), Ok(c)) => (b, c),
        (b, c) => {
            for err in [b.err(), c.err()].into_iter().flatten() {
                eprintln!("{err}");
            }
            return ExitCode::FAILURE;
        }
    };
    let outcome =
        gossip_bench::bench_check::check(&baseline, &current, mem_tolerance, time_tolerance);
    println!(
        "bench-check: '{current_path}' vs baseline '{baseline_path}' (scale {})",
        baseline.scale
    );
    for line in &outcome.lines {
        println!("  {line}");
    }
    if outcome.ok {
        println!("bench-check: OK");
        ExitCode::SUCCESS
    } else {
        eprintln!("bench-check: perf regression against the committed baseline");
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("sweep") {
        return run_sweep(&args[1..]);
    }
    if args.first().map(String::as_str) == Some("bench-check") {
        return run_bench_check(&args[1..]);
    }
    let options = match parse_args() {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    for id in &options.ids {
        match experiments::run_one(id, options.scale) {
            Some(tables) => {
                for table in tables {
                    emit(&table, &options);
                    println!();
                }
            }
            None => {
                eprintln!("unknown experiment id '{id}' (expected e1..e8, f1, f2, f8, or all)");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
