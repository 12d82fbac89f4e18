//! Per-workload benchmark of the gossip simulator.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--spans-out <file>]
//! perfbench --selftest [--seed <n>]
//! ```
//!
//! One invocation runs one workload, closed loop: one dissemination run at
//! a time, back to back, from this one process.  Setup builds the inputs
//! from the seed several times and reports the median.  One untimed run
//! warms up, supplies the deterministic counters and takes part in the
//! cross-path checks; then runs repeat until `--seconds` have passed.
//! Every run's output is checked.
//!
//! With `--trace 0` the last line of standard output is a JSON object with
//! the gated end-to-end metrics.  With `--trace 1` every run index runs
//! once untraced and once traced; the JSON carries the per-layer metrics,
//! and the spans are written to a file at exit.  Lines before the last one
//! print every metric for a reader, the ungated run times included, with
//! sample counts.
//!
//! `--selftest` runs every workload at reduced size twice, in two child
//! processes, and checks that every deterministic counter repeats exactly.

#![forbid(unsafe_code)]

mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use trace::Tracer;
use workloads::{Inputs, Outcome, Sizes, Workload};

/// End-to-end metrics in the JSON line: name and unit.  The run times
/// (`wall_s`, the median and tail of the per-run seconds, `exchanges_per_s`)
/// and the fail ratio are printed above it but not gated: on a shared host
/// whose speed switches between two states a minute at a time, no run time
/// repeats within a usable bound (see the README).
const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("peak_engine_mb", "MB"),
];

/// Per-layer metrics: name and unit.  A name ending in `_s` (other than
/// `bench.trace_overhead_s`) is the seconds a run, or a setup, spends in the
/// spans named by the rest of it.  Metrics of a layer a workload does not
/// call read 0.
const PER_LAYER: [(&str, &str); 43] = [
    ("graph.build_s", "s"),
    ("graph.latency_s", "s"),
    ("graph.diameter_s", "s"),
    ("graph.filter_s", "s"),
    ("graph.edges", "count"),
    ("conductance.analyze_s", "s"),
    ("conductance.ell_over_phi", "rounds"),
    ("sim.run_s", "s"),
    ("sim.rounds", "rounds"),
    ("sim.rounds_simulated", "rounds"),
    ("sim.rounds_skipped", "rounds"),
    ("sim.exchanges", "count"),
    ("sim.ns_per_exchange", "ns"),
    ("sim.us_per_round", "us"),
    ("sim.peak_log_runs", "count"),
    ("sim.truncated_runs", "count"),
    ("sim.shadow_advances", "count"),
    ("sim.pages_peak", "count"),
    ("sim.active_peak", "count"),
    ("sim.collapsed_nodes", "count"),
    ("sim.peak_engine_bytes", "bytes"),
    ("sim.run_sharded_s", "s"),
    ("sim.shard_speedup", "ratio"),
    ("fault.plan_s", "s"),
    ("fault.crashes", "count"),
    ("fault.rejoins", "count"),
    ("fault.links_cut", "count"),
    ("fault.exchanges_cancelled", "count"),
    ("fault.exchanges_lost", "count"),
    ("fault.wasted_ratio", "ratio"),
    ("fault.recovery_latency", "rounds"),
    ("dtg.run_s", "s"),
    ("dtg.rounds", "rounds"),
    ("dtg.exchanges", "count"),
    ("spanner.build_s", "s"),
    ("spanner.edges", "count"),
    ("rr.run_s", "s"),
    ("rr.rounds", "rounds"),
    ("rr.exchanges", "count"),
    ("push_pull.run_s", "s"),
    ("push_pull.rounds", "rounds"),
    ("unified.wasted_ratio", "ratio"),
    ("bench.trace_overhead_s", "s"),
];

/// Spans whose calls drive the engine in a timed run.
const ENGINE_SPANS: [&str; 5] = [
    "sim.run",
    "sim.run_sharded",
    "dtg.run",
    "rr.run",
    "push_pull.run",
];

/// Setup repeats at least this often, and while under [`SETUP_BUDGET_S`]
/// up to [`MAX_SETUPS`] times.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 25;
const SETUP_BUDGET_S: f64 = 0.5;
/// Timed loops run at least this many runs, however long they take.
const MIN_RUNS: usize = 3;
/// The self-test's default seed.
const SELFTEST_SEED: u64 = 1;

const USAGE: &str = "usage: perfbench --workload <expander-a2a|spanner-route|churn-broadcast|star-a2a-sharded> \
--seed <n> --seconds <s> --trace <0|1> [--spans-out <file>]\n       perfbench --selftest [--seed <n>]";

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans_out: Option<PathBuf>,
    selftest: bool,
    /// Internal: print the deterministic counters of a reduced run.
    counters: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: SELFTEST_SEED,
        seconds: 10.0,
        trace: false,
        spans_out: None,
        selftest: false,
        counters: false,
    };
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                args.workload = Some(Workload::parse(&v).ok_or(format!("unknown workload {v:?}"))?);
            }
            "--seed" => {
                let v = value()?;
                args.seed = v.parse().map_err(|_| format!("bad --seed {v:?}"))?;
            }
            "--seconds" => {
                let v = value()?;
                args.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or(format!("bad --seconds {v:?}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("bad --trace {v:?}: expected 0 or 1")),
                };
            }
            "--spans-out" => args.spans_out = Some(PathBuf::from(value()?)),
            "--selftest" => args.selftest = true,
            "--counters" => args.counters = true,
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    if !args.selftest && args.workload.is_none() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.selftest {
        return selftest(args.seed);
    }
    let w = args.workload.expect("parse_args requires a workload");
    if args.counters {
        return print_counters(w, args.seed);
    }
    bench(w, &args);
    ExitCode::SUCCESS
}

/// Runs and times from one loop.
#[derive(Default)]
struct Timed {
    /// Wall seconds of each run.
    times: Vec<f64>,
    exchanges: u64,
    rounds: f64,
    /// Runs that failed an output check.
    failed: u64,
    failures: Vec<String>,
    /// The outcome of run index 0.
    first: Option<Outcome>,
}

impl Timed {
    fn total(&self) -> f64 {
        self.times.iter().sum()
    }

    fn mean(&self) -> f64 {
        self.total() / self.times.len() as f64
    }

    /// Times run `i` of `w`, traced or not.  On the traced star the run is
    /// followed, outside its timing, by the serial engine on the same
    /// inputs for the shard speedup.
    fn record(&mut self, w: Workload, inputs: &Inputs, seed: u64, i: u64, tr: &mut Tracer) {
        let t0 = tr.now();
        let out = tr.span("bench.run", |tr| workloads::run(w, inputs, seed, i, tr));
        self.times.push(tr.now() - t0);
        if tr.enabled() && w == Workload::StarA2aSharded {
            tr.span("bench.compare", |tr| {
                workloads::star_serial(inputs, seed, i, tr)
            });
        }
        self.exchanges += out.exchanges;
        self.rounds += out.counters.get("sim.rounds").copied().unwrap_or(0.0);
        if !out.failures.is_empty() {
            self.failed += 1;
            self.failures.extend(out.failures.iter().cloned());
        }
        self.first.get_or_insert(out);
    }
}

/// Runs `w` back to back for `budget` seconds (at least [`MIN_RUNS`] runs,
/// and a whole number of [`Inputs::cycle`]s), run `i` being
/// [`workloads::run`] number `i`.  With `trace`, every run index is run
/// twice, untraced and traced, the first of the two alternating, so the
/// tracing overhead compares the same work at nearly the same time.
/// Returns the untraced and the traced runs.
fn timed_loop(
    w: Workload,
    inputs: &Inputs,
    seed: u64,
    budget: f64,
    trace: bool,
    tr: &mut Tracer,
) -> (Timed, Timed) {
    let start = tr.now();
    let (mut plain, mut traced) = (Timed::default(), Timed::default());
    let mut i = 0;
    while plain.times.len() < MIN_RUNS
        || plain.times.len() % inputs.cycle != 0
        || tr.now() - start < budget
    {
        let order: &[bool] = match (trace, i % 2) {
            (false, _) => &[false],
            (true, 0) => &[false, true],
            (true, _) => &[true, false],
        };
        for &on in order {
            tr.set_enabled(on);
            let t = if on { &mut traced } else { &mut plain };
            t.record(w, inputs, seed, i, tr);
        }
        tr.set_enabled(false);
        i += 1;
    }
    (plain, traced)
}

fn bench(w: Workload, args: &Args) {
    let seed = args.seed;
    let mut tr = Tracer::new();
    tr.set_enabled(args.trace);

    let mut setup_times = Vec::new();
    let setup_start = tr.now();
    let mut inputs = None;
    while setup_times.len() < MIN_SETUPS
        || (setup_times.len() < MAX_SETUPS && tr.now() - setup_start < SETUP_BUDGET_S)
    {
        drop(inputs.take());
        let t0 = tr.now();
        let built = tr.span("bench.setup", |tr| {
            workloads::setup(w, Sizes::FULL, seed, tr)
        });
        setup_times.push(tr.now() - t0);
        inputs = Some(built);
    }
    let inputs = inputs.expect("setup ran at least once");

    // Warm-up: run index 0, untimed and untraced.
    tr.set_enabled(false);
    let warm = workloads::run(w, &inputs, seed, 0, &mut tr);
    let mut failures: Vec<String> = warm.failures.clone();
    let mut attempted = 1;
    let mut failed = u64::from(!warm.failures.is_empty());

    let (plain, traced) = timed_loop(w, &inputs, seed, args.seconds, args.trace, &mut tr);
    // Read before the cross-path checks: the star's serial engine run there
    // is not the path the workload measures.
    let peak_rss = peak_rss_mb();
    failures.extend(workloads::cross_check(w, &inputs, seed, &warm));
    let traced = args.trace.then_some(traced);
    for t in std::iter::once(&plain).chain(traced.as_ref()) {
        attempted += t.times.len() as u64;
        failed += t.failed;
        failures.extend(t.failures.iter().cloned());
    }
    let correct = failures.is_empty();

    println!("# workload {} seed {seed}", w.name());
    println!(
        "# setup ran {} times; untraced loop: {} runs",
        setup_times.len(),
        plain.times.len()
    );
    for f in &failures {
        println!("# FAILED: {f}");
    }
    println!(
        "# fail_ratio {} ratio ({failed} of {attempted} runs failed an output check)",
        failed as f64 / attempted as f64
    );

    let metrics = match &traced {
        None => {
            println!(
                "# run_s_p50 {} s (median of {} runs)",
                median(&plain.times),
                plain.times.len()
            );
            match tail_percentile(&plain.times) {
                Some((p, v)) => println!("# run_s_p{p} {v} s"),
                None => println!(
                    "# no run-time percentile above p50 has 10 samples beyond it at {} runs",
                    plain.times.len()
                ),
            }
            println!(
                "# wall_s {} s (mean of {} runs)",
                plain.mean(),
                plain.times.len()
            );
            println!(
                "# exchanges_per_s {} 1/s",
                plain.exchanges as f64 / plain.total()
            );
            let peak_engine = warm.counters.get("sim.peak_engine_bytes").copied();
            let values = [
                median(&setup_times),
                peak_rss,
                peak_engine.unwrap_or(0.0) / 1e6,
            ];
            END_TO_END
                .iter()
                .zip(values)
                .map(|(&(name, unit), v)| (name, unit, v))
                .collect()
        }
        Some(traced) => {
            write_spans(w, args, &tr);
            println!("# traced loop: {} runs", traced.times.len());
            for (name, total) in tr.self_seconds_by_name() {
                println!("# self time {name}: {total} s in total");
            }
            per_layer(w, &tr, traced, &plain, &inputs.counters)
        }
    };
    println!("# untraced run seconds: {:?}", plain.times);
    for (name, unit, v) in &metrics {
        println!("{name} {v} {unit}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, v)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
}

/// The per-layer metrics of a traced invocation: name, unit and value.
fn per_layer(
    w: Workload,
    tr: &Tracer,
    traced: &Timed,
    plain: &Timed,
    setup: &workloads::Counters,
) -> Vec<(&'static str, &'static str, f64)> {
    let seconds = tr.seconds_per_root();
    let span_s = |span: &str| seconds.get(span).copied().unwrap_or(0.0);
    let engine_s: f64 = if w == Workload::StarA2aSharded {
        span_s("sim.run_sharded")
    } else {
        ENGINE_SPANS.iter().map(|s| span_s(s)).sum()
    };
    let runs = traced.times.len() as f64;
    let counters = &traced.first.as_ref().expect("the loop ran").counters;
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let v = match name {
                "sim.ns_per_exchange" => engine_s * 1e9 * runs / traced.exchanges as f64,
                "sim.us_per_round" => engine_s * 1e6 * runs / traced.rounds,
                "sim.shard_speedup" if w == Workload::StarA2aSharded => {
                    span_s("sim.run") / span_s("sim.run_sharded")
                }
                "bench.trace_overhead_s" => traced.mean() - plain.mean(),
                _ => match name.strip_suffix("_s") {
                    Some(span) => span_s(span),
                    None => counters
                        .get(name)
                        .or(setup.get(name))
                        .copied()
                        .unwrap_or(0.0),
                },
            };
            (name, unit, v)
        })
        .collect()
}

/// Writes the recorded spans; the path defaults to a file under the build
/// directory.
fn write_spans(w: Workload, args: &Args, tr: &Tracer) {
    let path = args.spans_out.clone().unwrap_or_else(|| {
        let dir = std::env::var_os("CARGO_TARGET_DIR")
            .map(PathBuf::from)
            .unwrap_or_else(|| PathBuf::from("perfbench/target"));
        dir.join("perfbench-spans")
            .join(format!("{}-seed{}.json", w.name(), args.seed))
    });
    let written = path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(&path, tr.to_json()));
    match written {
        Ok(()) => println!("# spans written to {}", path.display()),
        Err(e) => println!("# spans not written to {}: {e}", path.display()),
    }
}

fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The highest of p99, p95, p90 and p75 that has at least ten samples
/// beyond it, with its value (nearest rank).
fn tail_percentile(xs: &[f64]) -> Option<(u32, f64)> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    [99, 95, 90, 75].into_iter().find_map(|p| {
        let rank = (n * p as usize).div_ceil(100).max(1);
        (n - rank >= 10).then(|| (p, v[rank - 1]))
    })
}

/// The process's peak resident set size (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

/// Prints every deterministic counter and report of run index 0 at the
/// self-test sizes, untraced and traced, and of the cross-path checks.
fn print_counters(w: Workload, seed: u64) -> ExitCode {
    let mut tr = Tracer::new();
    let inputs = workloads::setup(w, Sizes::SMALL, seed, &mut tr);
    let plain = workloads::run(w, &inputs, seed, 0, &mut tr);
    tr.set_enabled(true);
    let traced = workloads::run(w, &inputs, seed, 0, &mut tr);
    let cross = workloads::cross_check(w, &inputs, seed, &plain);
    for (name, v) in &inputs.counters {
        println!("setup {name} {v}");
    }
    for (label, out) in [("untraced", &plain), ("traced", &traced)] {
        for (name, v) in &out.counters {
            println!("{label} {name} {v}");
        }
        println!("{label} exchanges {}", out.exchanges);
        for r in &out.reports {
            println!("{label} report {r}");
        }
    }
    let failures: Vec<&String> = plain
        .failures
        .iter()
        .chain(&traced.failures)
        .chain(&cross)
        .collect();
    for f in &failures {
        println!("FAILED {f}");
    }
    if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs every workload at reduced size twice, in separate processes, and
/// checks that the counters repeat exactly.
fn selftest(seed: u64) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("perfbench: cannot locate this executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for w in Workload::ALL {
        let once = || {
            Command::new(&exe)
                .args([
                    "--workload",
                    w.name(),
                    "--seed",
                    &seed.to_string(),
                    "--counters",
                ])
                .output()
        };
        let verdict = match (once(), once()) {
            (Ok(a), Ok(b)) if !a.status.success() || !b.status.success() => {
                format!(
                    "failed: {}",
                    String::from_utf8_lossy(&a.stdout)
                        .lines()
                        .filter(|l| l.starts_with("FAILED"))
                        .collect::<Vec<_>>()
                        .join("; ")
                )
            }
            (Ok(a), Ok(b)) if a.stdout != b.stdout => {
                "counters differ between two runs".to_string()
            }
            (Ok(a), Ok(_)) => {
                let lines = a
                    .stdout
                    .split(|&b| b == b'\n')
                    .filter(|l| !l.is_empty())
                    .count();
                println!(
                    "selftest {}: {lines} counter and report lines repeat exactly",
                    w.name()
                );
                continue;
            }
            (Err(e), _) | (_, Err(e)) => format!("could not run: {e}"),
        };
        println!("selftest {}: {verdict}", w.name());
        ok = false;
    }
    println!("selftest {}", if ok { "passed" } else { "FAILED" });
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
