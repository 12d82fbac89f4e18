//! The four workloads: the inputs setup builds from the seed, one timed run
//! over them, its output checks, and the once-per-invocation cross-path
//! checks.

use std::collections::BTreeMap;

use gossip_conductance::{analyze, Method};
use gossip_core::{
    dtg, push_pull, rr_broadcast, spanner, spanner_broadcast, unified, DisseminationReport, Phase,
};
use gossip_graph::latency::LatencyScheme;
use gossip_graph::{generators, Graph, Latency, NodeId};
use gossip_sim::protocols::{RandomPushPull, RoundRobinFlood};
use gossip_sim::{
    ChurnSpec, FaultPlan, RumorId, RumorSet, RunReport, SimConfig, Simulation, Termination,
};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::trace::Tracer;

/// Deterministic counters of a run or a setup, keyed by per-layer metric name.
pub type Counters = BTreeMap<&'static str, f64>;

/// A named workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Push–pull all-to-all on a bimodal Erdős–Rényi graph, serial engine.
    ExpanderA2a,
    /// The unified race (push–pull against the spanner route) on a grid and
    /// a bimodal dumbbell.
    SpannerRoute,
    /// Push–pull and round-robin flooding one-to-all under random churn.
    ChurnBroadcast,
    /// Push–pull all-to-all on a large star through the sharded engine.
    StarA2aSharded,
}

impl Workload {
    /// Every workload, in the order the self-test runs them.
    pub const ALL: [Workload; 4] = [
        Workload::ExpanderA2a,
        Workload::SpannerRoute,
        Workload::ChurnBroadcast,
        Workload::StarA2aSharded,
    ];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ExpanderA2a => "expander-a2a",
            Workload::SpannerRoute => "spanner-route",
            Workload::ChurnBroadcast => "churn-broadcast",
            Workload::StarA2aSharded => "star-a2a-sharded",
        }
    }

    /// The workload called `name`, if any.
    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Problem sizes: the benchmark's own, or the reduced ones of the
/// steadiness self-test.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    er_nodes: usize,
    er_p: f64,
    er_instances: usize,
    churn_nodes: usize,
    churn_p: f64,
    grid_side: usize,
    dumbbell_nodes: usize,
    star_nodes: usize,
}

impl Sizes {
    /// The sizes every timed run uses.
    pub const FULL: Sizes = Sizes {
        er_nodes: 2048,
        er_p: 0.008,
        er_instances: 4,
        churn_nodes: 1024,
        churn_p: 0.016,
        grid_side: 48,
        dumbbell_nodes: 512,
        star_nodes: 1 << 17,
    };
    /// The self-test's sizes (the same expected Erdős–Rényi degree).
    pub const SMALL: Sizes = Sizes {
        er_nodes: 512,
        er_p: 0.032,
        er_instances: 2,
        churn_nodes: 512,
        churn_p: 0.032,
        grid_side: 16,
        dumbbell_nodes: 128,
        star_nodes: 1 << 12,
    };
}

/// Latency of slow edges in the bimodal graphs.
const SLOW: Latency = 16;
/// Share of edges that are slow in the bimodal graphs.
const SLOW_FRACTION: f64 = 0.25;
/// Workers of the sharded engine on `star-a2a-sharded`.
pub const SHARD_WORKERS: usize = 2;
/// `churn-broadcast`'s faults: 10% of nodes crash and rejoin 6 rounds later,
/// 2% of links are cut and 5% of exchanges are lost, all in rounds 1..=12.
const CHURN: ChurnSpec = ChurnSpec {
    crash_permille: 100,
    rejoin_after: Some(6),
    cut_permille: 20,
    loss_ppm: 50_000,
    window: (1, 12),
};
/// Broadcasts start at this node.
const SOURCE: usize = 0;

/// splitmix64 finaliser.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A seed derived from `seed` for the purpose or run index `salt`.
pub fn derive_seed(seed: u64, salt: u64) -> u64 {
    splitmix64(seed ^ splitmix64(salt))
}

/// The round cap the library's one-shot wrappers use.
fn round_cap(g: &Graph) -> u64 {
    (g.node_count() as u64)
        .saturating_mul(g.max_latency().max(1))
        .saturating_mul(4)
        .max(10_000)
}

fn ceil_log2(n: usize) -> u64 {
    let n = n.max(2) as u64;
    64 - (n - 1).leading_zeros() as u64
}

/// What setup builds from the seed: the only inputs the runs receive.
pub struct Inputs {
    /// The graphs runs disseminate on, each with its diameter bound (the
    /// "known D" oracle; only the spanner route consumes it).  A spanner-route
    /// run uses every graph; on the Erdős–Rényi workloads run `i` uses
    /// graph `i mod len`, so a timed loop averages over several graphs.
    graphs: Vec<(Graph, Latency)>,
    /// `churn-broadcast`'s churn schedules, one per graph.
    faults: Vec<FaultPlan>,
    /// How many runs it takes to use every graph equally often: a timed
    /// loop ends only on a multiple of this.
    pub cycle: usize,
    /// Setup's deterministic counters.
    pub counters: Counters,
}

/// Builds a workload's inputs from `seed`, with a span around each layer call.
pub fn setup(w: Workload, sizes: Sizes, seed: u64, tr: &mut Tracer) -> Inputs {
    let mut rng = SmallRng::seed_from_u64(derive_seed(seed, 0x5e7));
    let bimodal = LatencyScheme::BimodalFraction {
        slow: SLOW,
        slow_fraction: SLOW_FRACTION,
    };
    let mut counters = Counters::new();
    let mut faults = Vec::new();
    let graphs = match w {
        Workload::ExpanderA2a | Workload::ChurnBroadcast => {
            let (n, p) = if w == Workload::ExpanderA2a {
                (sizes.er_nodes, sizes.er_p)
            } else {
                (sizes.churn_nodes, sizes.churn_p)
            };
            (0..sizes.er_instances)
                .map(|i| {
                    let g = tr
                        .span("graph.build", |_| {
                            generators::erdos_renyi(n, p, 1, &mut rng)
                        })
                        .expect("n >= 1 and p in [0, 1]");
                    let g = tr
                        .span("graph.latency", |_| bimodal.apply(&g, &mut rng))
                        .expect("re-weighting keeps a valid graph valid");
                    let d = tr.span("graph.diameter", |_| gossip_core::diameter_bound(&g));
                    if w == Workload::ChurnBroadcast {
                        let plan_seed = derive_seed(seed, 0xfa17 + i as u64);
                        faults.push(tr.span("fault.plan", |_| {
                            FaultPlan::random_churn(&g, plan_seed, &CHURN)
                        }));
                    }
                    (g, d)
                })
                .collect()
        }
        Workload::SpannerRoute => {
            let side = sizes.grid_side;
            let grid = tr
                .span("graph.build", |_| generators::grid(side, side, 1))
                .expect("grid sides are at least 2");
            let grid_d = tr.span("graph.diameter", |_| gossip_core::diameter_bound(&grid));
            let bell = tr
                .span("graph.build", |_| {
                    generators::dumbbell(sizes.dumbbell_nodes / 2, SLOW)
                })
                .expect("dumbbell halves have at least 2 nodes");
            let bell = tr
                .span("graph.latency", |_| bimodal.apply(&bell, &mut rng))
                .expect("re-weighting keeps a valid graph valid");
            let bell_d = tr.span("graph.diameter", |_| gossip_core::diameter_bound(&bell));
            let c = tr
                .span("conductance.analyze", |_| analyze(&bell, Method::SweepCut))
                .expect("the dumbbell is connected and has edges");
            counters.insert("conductance.ell_over_phi", c.ell_star as f64 / c.phi_star);
            vec![(grid, grid_d), (bell, bell_d)]
        }
        Workload::StarA2aSharded => {
            let g = tr
                .span("graph.build", |_| generators::star(sizes.star_nodes, 1))
                .expect("the star has at least 2 nodes");
            let d = tr.span("graph.diameter", |_| gossip_core::diameter_bound(&g));
            vec![(g, d)]
        }
    };
    let edges: usize = graphs.iter().map(|(g, _)| g.edge_count()).sum();
    counters.insert("graph.edges", edges as f64);
    let cycle = match w {
        Workload::ExpanderA2a | Workload::ChurnBroadcast => graphs.len(),
        Workload::SpannerRoute | Workload::StarA2aSharded => 1,
    };
    Inputs {
        graphs,
        faults,
        cycle,
        counters,
    }
}

/// What one run did.
#[derive(Default)]
pub struct Outcome {
    /// Exchanges the engine simulated (the spanner route's discovery phase
    /// is simulated once, though the report charges it `⌈log₂ n⌉` times).
    pub exchanges: u64,
    /// Output checks the run failed.
    pub failures: Vec<String>,
    /// Deterministic per-layer counters.
    pub counters: Counters,
    /// Every report the run produced, rendered with `Debug`.
    pub reports: Vec<String>,
}

impl Outcome {
    fn add(&mut self, name: &'static str, v: u64) {
        *self.counters.entry(name).or_default() += v as f64;
    }

    fn max(&mut self, name: &'static str, v: u64) {
        let e = self.counters.entry(name).or_default();
        *e = e.max(v as f64);
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    /// Accounts one engine run in the `sim.*` and `fault.*` counters.
    fn engine(&mut self, r: &RunReport) {
        self.add("sim.rounds", r.rounds);
        self.add("sim.exchanges", r.activations);
        self.exchanges += r.activations;
        if let Some(m) = r.mem {
            self.mem(&m);
        }
        if let Some(f) = r.faults {
            self.add("fault.crashes", f.crashes);
            self.add("fault.rejoins", f.rejoins);
            self.add("fault.links_cut", f.links_cut);
            self.add("fault.exchanges_cancelled", f.exchanges_cancelled);
            self.add("fault.exchanges_lost", f.exchanges_lost);
            self.add(
                "fault.wasted_exchanges",
                f.exchanges_cancelled + f.exchanges_lost,
            );
            self.add("fault.exchanges", r.activations);
            self.max("fault.recovery_latency", f.recovery_latency.unwrap_or(0));
        }
        self.reports.push(format!("{r:?}"));
    }

    fn mem(&mut self, m: &gossip_sim::MemStats) {
        self.add("sim.rounds_simulated", m.rounds_simulated);
        self.add("sim.rounds_skipped", m.rounds_skipped);
        self.add("sim.truncated_runs", m.truncated_runs);
        self.add("sim.shadow_advances", m.shadow_advances);
        self.add("sim.collapsed_nodes", m.collapsed_nodes);
        self.max("sim.peak_log_runs", m.peak_log_runs);
        self.max("sim.pages_peak", m.pages_peak);
        self.max("sim.active_peak", m.active_peak);
        self.max("sim.peak_engine_bytes", m.peak_engine_bytes);
    }

    /// Replaces a pair of raw sums by their ratio.
    fn ratio(&mut self, name: &'static str, part: &'static str, whole: &'static str) {
        let part = self.counters.remove(part).unwrap_or(0.0);
        let whole = self.counters.remove(whole).unwrap_or(0.0);
        self.counters
            .insert(name, if whole > 0.0 { part / whole } else { 0.0 });
    }
}

/// Run number `index` of `w` in an invocation with seed `seed`.
pub fn run(w: Workload, inputs: &Inputs, seed: u64, index: u64, tr: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let instance = index as usize % inputs.graphs.len();
    let g = &inputs.graphs[instance].0;
    let seed = derive_seed(seed, index);
    match w {
        Workload::ExpanderA2a => {
            let config = SimConfig::new(seed)
                .termination(Termination::AllKnowAll)
                .max_rounds(round_cap(g));
            let r = tr.span("sim.run", |_| {
                Simulation::new(g, config).run(&mut RandomPushPull::new(g))
            });
            check_all_to_all(&mut out, g, &r);
        }
        Workload::StarA2aSharded => {
            let r = tr.span("sim.run_sharded", |_| star_run(g, seed, SHARD_WORKERS));
            check_all_to_all(&mut out, g, &r);
        }
        Workload::ChurnBroadcast => {
            let plan = &inputs.faults[instance];
            for flood in [false, true] {
                let config = SimConfig::new(derive_seed(seed, u64::from(flood)))
                    .termination(Termination::AllKnowRumorOf(NodeId::new(SOURCE)))
                    .track_rumor(RumorId::of_node(NodeId::new(SOURCE)))
                    .max_rounds(round_cap(g))
                    .faults(plan.clone());
                let r = tr.span("sim.run", |_| {
                    let mut sim = Simulation::new(g, config);
                    if flood {
                        sim.run(&mut RoundRobinFlood::new(g))
                    } else {
                        sim.run(&mut RandomPushPull::new(g))
                    }
                });
                out.engine(&r);
                out.check(r.completed, || format!("{}: did not complete", r.protocol));
                out.check(r.last_informed_time().is_some(), || {
                    format!("{}: some node never learned the source rumor", r.protocol)
                });
            }
            out.ratio(
                "fault.wasted_ratio",
                "fault.wasted_exchanges",
                "fault.exchanges",
            );
        }
        Workload::SpannerRoute => {
            for (g, d) in &inputs.graphs {
                let race = if tr.enabled() {
                    tr.span("unified.run", |tr| composed_unified(g, *d, seed, tr))
                } else {
                    let r = unified::run_known_latencies_with(g, NodeId::new(SOURCE), *d, seed);
                    Race {
                        push_pull: r.push_pull,
                        spanner_route: r.spanner_route,
                        rounds: r.rounds,
                        completed: r.completed,
                        spanner_edges: None,
                    }
                };
                account_race(&mut out, g, &race);
            }
            out.ratio(
                "unified.wasted_ratio",
                "unified.losing_exchanges",
                "unified.exchanges",
            );
        }
    }
    out
}

/// The star's all-to-all run through the sharded engine (`workers` = 1 runs
/// the serial engine instead).
fn star_run(g: &Graph, seed: u64, workers: usize) -> RunReport {
    let config = SimConfig::new(seed)
        .termination(Termination::AllKnowAll)
        .max_rounds(round_cap(g))
        .threads(workers);
    let mut sim = Simulation::new(g, config);
    if workers > 1 {
        sim.run_sharded(&mut RandomPushPull::new(g))
    } else {
        sim.run(&mut RandomPushPull::new(g))
    }
}

/// The serial engine on the inputs of `star-a2a-sharded`'s run `index`,
/// for the shard speedup.
pub fn star_serial(inputs: &Inputs, seed: u64, index: u64, tr: &mut Tracer) -> RunReport {
    let g = &inputs.graphs[0].0;
    tr.span("sim.run", |_| star_run(g, derive_seed(seed, index), 1))
}

fn check_all_to_all(out: &mut Outcome, g: &Graph, r: &RunReport) {
    out.engine(r);
    out.check(r.completed, || format!("{}: did not complete", r.protocol));
    out.check(r.min_rumors_known == g.node_count(), || {
        format!(
            "{}: a node knows {} of {} rumors",
            r.protocol,
            r.min_rumors_known,
            g.node_count()
        )
    });
}

/// Both routes of one unified run.
struct Race {
    push_pull: DisseminationReport,
    spanner_route: DisseminationReport,
    rounds: u64,
    completed: bool,
    /// Known only when the benchmark built the spanner itself.
    spanner_edges: Option<usize>,
}

/// `unified::run_known_latencies_with`, composed from the layer calls so
/// each gets its own span; same seeds as the library.
fn composed_unified(g: &Graph, d: Latency, seed: u64, tr: &mut Tracer) -> Race {
    let push_pull = tr.span("push_pull.run", |_| {
        push_pull::broadcast(g, NodeId::new(SOURCE), seed)
    });
    let (spanner_route, edges) = composed_spanner_route(g, d, seed ^ 0x5b, tr);
    // An incomplete route never wins against a complete one.
    let key = |r: &DisseminationReport| (!r.completed, r.rounds);
    let winner = if key(&push_pull) <= key(&spanner_route) {
        &push_pull
    } else {
        &spanner_route
    };
    Race {
        rounds: winner.rounds,
        completed: winner.completed,
        push_pull,
        spanner_route,
        spanner_edges: Some(edges),
    }
}

/// `spanner_broadcast::run_known_diameter_with`, composed from its layer
/// calls; returns the report and the spanner's edge count.
fn composed_spanner_route(
    g: &Graph,
    d: Latency,
    seed: u64,
    tr: &mut Tracer,
) -> (DisseminationReport, usize) {
    let k = d.max(1);
    let n = g.node_count();
    let log_n = ceil_log2(n);
    let filtered = tr.span("graph.filter", |_| g.latency_filtered(k));
    let rumors: Vec<RumorSet> = (0..n)
        .map(|i| RumorSet::singleton(n, RumorId::from(i)))
        .collect();
    let (dtg_report, rumors, _) = tr.span("dtg.run", |_| {
        dtg::run_with_rumors(&filtered, k, seed, rumors, false)
    });
    let sp = tr.span("spanner.build", |_| {
        spanner::log_spanner(&filtered, seed ^ 0x5eed)
    });
    let (rr_report, rumors) = tr.span("rr.run", |_| {
        rr_broadcast::run_with_rumors(
            &filtered,
            &sp,
            k.saturating_mul(log_n + 1),
            seed ^ 0xb0a,
            rumors,
        )
    });
    let report = DisseminationReport::from_phases(
        "spanner-broadcast",
        vec![
            Phase::new(
                "discovery",
                dtg_report.rounds * log_n,
                dtg_report.activations * log_n,
            ),
            Phase::new("spanner-construction", 0, 0),
            Phase::new("rr-broadcast", rr_report.rounds, rr_report.activations),
        ],
        rumors.iter().all(RumorSet::is_full),
    );
    (report, sp.edge_count())
}

/// The rounds and exchanges of the named phase.  Discovery is simulated
/// once and charged `⌈log₂ n⌉` times; this undoes the charge.
fn simulated_phase(g: &Graph, r: &DisseminationReport, name: &str) -> (u64, u64) {
    let p = r.phases.iter().find(|p| p.name == name);
    let (rounds, exchanges) = p.map_or((0, 0), |p| (p.rounds, p.activations));
    if name == "discovery" {
        let log_n = ceil_log2(g.node_count());
        (rounds / log_n, exchanges / log_n)
    } else {
        (rounds, exchanges)
    }
}

fn account_race(out: &mut Outcome, g: &Graph, race: &Race) {
    let pp = &race.push_pull;
    let (dtg_rounds, dtg_exchanges) = simulated_phase(g, &race.spanner_route, "discovery");
    let (rr_rounds, rr_exchanges) = simulated_phase(g, &race.spanner_route, "rr-broadcast");
    out.add("push_pull.rounds", pp.rounds);
    out.add("dtg.rounds", dtg_rounds);
    out.add("dtg.exchanges", dtg_exchanges);
    out.add("rr.rounds", rr_rounds);
    out.add("rr.exchanges", rr_exchanges);
    if let Some(e) = race.spanner_edges {
        out.add("spanner.edges", e as u64);
    }
    let route = dtg_exchanges + rr_exchanges;
    out.add("sim.rounds", pp.rounds + dtg_rounds + rr_rounds);
    out.add("sim.exchanges", pp.activations + route);
    out.exchanges += pp.activations + route;
    if let Some(m) = pp.mem {
        out.mem(&m);
    }
    let pp_won = race.rounds == pp.rounds && pp.completed;
    out.add(
        "unified.losing_exchanges",
        if pp_won { route } else { pp.activations },
    );
    out.add("unified.exchanges", pp.activations + route);
    out.check(race.completed, || "unified: neither route completed".into());
    out.check(pp.completed, || {
        "push-pull: some node never learned the source rumor".into()
    });
    out.check(race.spanner_route.completed, || {
        "spanner route: some node misses a rumor".into()
    });
    // `composed_unified` picks its winner by this very rule, so only the
    // library's answer is checked.
    if race.spanner_edges.is_none() {
        let fastest = [pp, &race.spanner_route]
            .iter()
            .filter(|r| r.completed)
            .map(|r| r.rounds)
            .min();
        out.check(Some(race.rounds) == fastest, || {
            format!(
                "unified: {} rounds, but the fastest completed route took {fastest:?}",
                race.rounds
            )
        });
    }
    out.reports.push(format!("{:?}", race.push_pull));
    out.reports.push(format!("{:?}", race.spanner_route));
}

/// Cross-path checks, run once per invocation outside the timed region.
/// `first` is the outcome of run 0.  Returns the failed checks.
pub fn cross_check(w: Workload, inputs: &Inputs, seed: u64, first: &Outcome) -> Vec<String> {
    let mut failures = Vec::new();
    match w {
        Workload::StarA2aSharded => {
            let serial = star_serial(inputs, seed, 0, &mut Tracer::new());
            if first.reports.first() != Some(&format!("{serial:?}")) {
                failures.push(format!(
                    "run_sharded with {SHARD_WORKERS} workers and serial run differ"
                ));
            }
        }
        Workload::SpannerRoute => {
            for (g, d) in &inputs.graphs {
                let route_seed = derive_seed(seed, 0) ^ 0x5b;
                let (composed, _) = composed_spanner_route(g, *d, route_seed, &mut Tracer::new());
                let library = spanner_broadcast::run_known_diameter_with(g, *d, route_seed);
                if composed != library {
                    failures.push(format!(
                        "composed spanner route {composed} differs from the library's {library}"
                    ));
                }
            }
        }
        Workload::ExpanderA2a | Workload::ChurnBroadcast => {}
    }
    failures
}
