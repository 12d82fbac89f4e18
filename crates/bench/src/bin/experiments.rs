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
//! sweep writes a `BENCH_sweep.json` wall-clock timing artifact
//! (`gossip_bench::bench_check::TimingArtifact`, `--timing-out` to
//! relocate) that CI uploads to track the perf trajectory, including the
//! sweep's peak-memory aggregates (from the engine's deterministic
//! `MemStats` counters).
//!
//! The `bench-check` subcommand diffs a fresh timing artifact against a
//! committed baseline (`BENCH_sweep_baseline.json`) and exits non-zero when
//! the sweep's peak engine memory regressed beyond +25% (deterministic) or
//! the wall-clock beyond +50% (machine-noise-tolerant) — the CI step that
//! turns the uploaded artifacts into an enforced perf trajectory.

#![forbid(unsafe_code)]

use std::process::ExitCode;

use gossip_bench::bench_check::{self, TimingArtifact};
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

/// Parses the value of the numeric flag `name`, rejecting values below `min`.
fn number<T>(name: &str, value: String, min: u8) -> Result<T, String>
where
    T: std::str::FromStr + PartialOrd + From<u8>,
    T::Err: std::fmt::Display,
{
    let n: T = value
        .parse()
        .map_err(|e| format!("invalid {name} '{value}': {e}"))?;
    if n < T::from(min) {
        return Err(format!("{name} must be at least {min}"));
    }
    Ok(n)
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
        let mut value = || {
            iter.next()
                .cloned()
                .ok_or_else(|| format!("{arg} requires a value"))
        };
        match arg.as_str() {
            "--quick" => options.scale = Scale::Quick,
            "--full" => options.scale = Scale::Full,
            "--large" => options.scale = Scale::Large,
            "--huge" => options.scale = Scale::Huge,
            "--faults" => options.faults = true,
            "--json" => options.json = true,
            "--markdown" => options.markdown = true,
            "--seed" => options.seed = Some(number(arg, value()?, 0)?),
            "--trials" => options.trials = Some(number(arg, value()?, 1)?),
            "--min-size" => options.min_size = Some(number(arg, value()?, 1)?),
            "--max-size" => options.max_size = Some(number(arg, value()?, 1)?),
            "--threads" => options.threads = Some(number(arg, value()?, 1)?),
            "--out" => options.out = value()?,
            "--timing-out" => options.timing_out = value()?,
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

    // The timing artifact is *not* deterministic: it records how fast this
    // machine ran the sweep, so CI can track the perf trajectory across
    // commits.  Its peak-memory and round aggregates are deterministic
    // engine counters.
    let (peak_mem_scenario, peak_mem_bytes) = report.peak_mem_max().unwrap_or_default();
    let (rounds_simulated_total, rounds_skipped_total) = report.rounds_totals();
    let timing = TimingArtifact {
        scale: options.scale.name().to_string(),
        threads: threads as u64,
        scenarios: scenario_count as u64,
        trials_per_scenario: spec.trials,
        elapsed_seconds: elapsed.as_secs_f64(),
        fault_cells: spec.fault_cell_count() as u64,
        rounds_simulated_total,
        rounds_skipped_total,
        peak_mem_bytes,
        peak_mem_scenario,
    };
    if let Err(e) = std::fs::write(&options.timing_out, format!("{}\n", timing.to_json())) {
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
    let usage = "usage: experiments bench-check --baseline PATH --current PATH";
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
    let load = |path: &str| -> Result<TimingArtifact, String> {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("cannot read '{path}': {e}"))?;
        TimingArtifact::parse(&text).map_err(|e| format!("cannot parse '{path}': {e}"))
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
    let outcome = bench_check::check(&baseline, &current);
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
