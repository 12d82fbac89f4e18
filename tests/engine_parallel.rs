//! Thread-count invariance of the parallel engine.
//!
//! [`Simulation::run`] executes the per-round decision pass and the
//! completion-merge pass on [`SimConfig::threads`] workers, but its
//! observable behaviour is defined to be *independent of the pool size*:
//! per-(round, node) RNG streams, decisions that write only their own
//! node's protocol state, worklist-order concatenation of shard results, and
//! the canonical (ascending destination, stable flight order) merge
//! reduction make every run a pure function of `(graph, config, protocol,
//! seed)`.  These tests pin that down for every protocol the workspace
//! ships: a run on 1 worker and runs on 2 and 8 workers must produce
//! **fully identical** [`RunReport`]s — memory diagnostics included, since
//! the merge machinery replays the same serial walk — and identical final
//! rumor states.  Every graph here keeps the worklist above the decision
//! pass's 256-node fan-out threshold.
//!
//! The fault layer rides the same passes (crash surgery happens between
//! rounds, loss is drawn per flight from its own stream), so a churn-heavy
//! run must be byte-identical across thread counts too, graceful-degradation
//! section included.

use gossip_core::dtg::EllDtg;
use gossip_core::rr_broadcast::RrBroadcast;
use gossip_core::spanner::log_spanner;
use gossip_graph::{generators, Graph, NodeId};
use gossip_lowerbound::gadgets;
use gossip_lowerbound::predicates::TargetPredicate;
use gossip_lowerbound::reduction::CrossEdgeRecorder;
use gossip_sim::protocols::{RandomPushPull, RoundRobinFlood};
use gossip_sim::{
    ChurnSpec, ExchangeMode, FaultPlan, Protocol, RumorId, RumorSet, RunReport, Seeding, SimConfig,
    Simulation, Termination,
};
use gossip_tests::assert_matches_oracle;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Pool sizes every scenario is replayed under, beyond the 1-worker run:
/// a small pool and an oversubscribed one.
const THREAD_COUNTS: [usize; 2] = [2, 8];

/// Runs one protocol from one [`Seeding`] on 1 worker and then on every
/// pool size in [`THREAD_COUNTS`], requiring full report *and* rumor-state
/// equality throughout.  Returns the 1-worker report and protocol.
fn assert_thread_invariant<P: Protocol, F: Fn() -> P>(
    g: &Graph,
    config: &SimConfig,
    seeding: Seeding,
    make_protocol: F,
    label: &str,
) -> (RunReport, P) {
    let run = |threads: usize| {
        let config = config.clone().threads(threads);
        let mut sim = match seeding {
            Seeding::AllToAll => Simulation::new(g, config),
            Seeding::Broadcast(source) => Simulation::broadcast(g, config, source),
        };
        let mut protocol = make_protocol();
        let report = sim.run(&mut protocol);
        (report, sim.into_rumors(), protocol)
    };
    let (serial_report, serial_rumors, serial_protocol): (RunReport, Vec<RumorSet>, P) = run(1);
    for threads in THREAD_COUNTS {
        let (report, rumors, _) = run(threads);
        // Full equality, not `semantics()`: the parallel passes must
        // reproduce the 1-worker memory diagnostics bit for bit.
        assert_eq!(
            report, serial_report,
            "{label}: report diverged at {threads} threads"
        );
        assert_eq!(
            rumors, serial_rumors,
            "{label}: rumor state diverged at {threads} threads"
        );
    }
    (serial_report, serial_protocol)
}

/// A connected Erdős–Rényi instance big enough that the decision pass
/// genuinely shards (above `MIN_PAR_DECISIONS`) and each round carries
/// hundreds of completions into the merge pass.
fn mid_size_er(seed: u64) -> Graph {
    let mut rng = SmallRng::seed_from_u64(seed);
    let g = generators::erdos_renyi(700, 0.012, 1, &mut rng).unwrap();
    gossip_graph::latency::LatencyScheme::UniformRandom { min: 1, max: 6 }
        .apply(&g, &mut rng)
        .unwrap()
}

#[test]
fn all_to_all_reports_are_identical_across_thread_counts() {
    let g = mid_size_er(0xA11);
    let config = SimConfig::new(41)
        .termination(Termination::AllKnowAll)
        .max_rounds(5_000);
    let (report, _) = assert_thread_invariant(
        &g,
        &config,
        Seeding::AllToAll,
        || RandomPushPull::new(&g),
        "push-pull a2a",
    );
    assert!(report.completed, "{report}");
    assert_thread_invariant(
        &g,
        &config,
        Seeding::AllToAll,
        || RoundRobinFlood::new(&g),
        "flood a2a",
    );
}

/// One-to-all on latencies 1..=6, seeded all-to-all and as a broadcast: a
/// merge subtracts up to five rounds of its source's batches, and the
/// window ages them out mid-run.
#[test]
fn one_to_all_with_forced_shadows_is_identical_across_thread_counts() {
    let g = mid_size_er(0xB22);
    let config = SimConfig::new(43)
        .termination(Termination::AllKnowRumorOf(NodeId::new(350)))
        .track_rumor(RumorId::from(350usize))
        .max_rounds(5_000);
    for seeding in [Seeding::AllToAll, Seeding::Broadcast(NodeId::new(350))] {
        let (report, _) = assert_thread_invariant(
            &g,
            &config,
            seeding,
            || RandomPushPull::new(&g),
            &format!("windowed 12a {seeding:?}"),
        );
        assert!(report.completed, "{report}");
        let mem = report.mem.unwrap();
        assert!(mem.truncated_runs > 0, "no batch aged out ({mem:?})");
        assert_thread_invariant(
            &g,
            &config,
            seeding,
            || RoundRobinFlood::new(&g),
            &format!("windowed 12a flood {seeding:?}"),
        );
    }
}

#[test]
fn blocking_mode_is_identical_across_thread_counts() {
    let g = mid_size_er(0xC33);
    let config = SimConfig::new(47)
        .termination(Termination::FixedRounds(80))
        .mode(ExchangeMode::Blocking);
    assert_thread_invariant(
        &g,
        &config,
        Seeding::AllToAll,
        || RandomPushPull::new(&g),
        "blocking push-pull",
    );
    assert_thread_invariant(
        &g,
        &config,
        Seeding::AllToAll,
        || RoundRobinFlood::new(&g),
        "blocking flood",
    );
}

/// The event-driven endgame: a star driven far past saturation skips long
/// idle stretches; the skip bookkeeping must not depend on the pool size.
#[test]
fn skipping_endgame_is_identical_across_thread_counts() {
    let g = generators::star(2048, 1).unwrap();
    let config = SimConfig::new(53).termination(Termination::FixedRounds(600));
    let (report, _) = assert_thread_invariant(
        &g,
        &config,
        Seeding::AllToAll,
        || RandomPushPull::new(&g),
        "skipping star",
    );
    let mem = report.mem.unwrap();
    assert!(mem.rounds_skipped > 0, "the endgame must fast-forward");
    assert_thread_invariant(
        &g,
        &config,
        Seeding::AllToAll,
        || RoundRobinFlood::new(&g),
        "skipping star flood",
    );
}

/// A star past one rumor page: 9000 nodes span 3 pages, so every leaf on
/// pages 1 and 2 holds two sparse entries (its own id, and rumor 0 after
/// the hub's first delivery) while the hub's pages go dense and then full.
/// The merge walk's page-cost trace must compose to the same `MemStats`
/// on every pool size.
#[test]
fn multi_page_star_is_identical_across_thread_counts() {
    let g = generators::star(9000, 1).unwrap();
    let config = SimConfig::new(59).termination(Termination::AllKnowAll);
    let (report, _) = assert_thread_invariant(
        &g,
        &config,
        Seeding::AllToAll,
        || RandomPushPull::new(&g),
        "multi-page star",
    );
    assert!(report.completed, "{report}");
    let mem = report.mem.unwrap();
    assert!(
        mem.pages_peak <= 3,
        "leaf sets stay sparse; only the hub's pages go dense ({mem:?})"
    );
}

/// The churn-profile gate: crash-stop churn with amnesiac rejoins, link
/// cuts and message loss, replayed at 1 vs 4 threads (and at 2 and 8),
/// must agree byte for byte — fault section included.
#[test]
fn churn_profile_runs_are_identical_across_thread_counts() {
    let g = mid_size_er(0xD44);
    let spec = ChurnSpec {
        crash_permille: 100,
        rejoin_after: Some(24),
        cut_permille: 20,
        loss_ppm: 50_000,
        window: (1, 96),
    };
    let plan = FaultPlan::random_churn(&g, 0xFA17, &spec);
    let config = SimConfig::new(59)
        .termination(Termination::AllKnowRumorOf(NodeId::new(0)))
        .track_rumor(RumorId::from(0usize))
        .max_rounds(5_000)
        .faults(plan);

    let mut one_sim = Simulation::new(&g, config.clone().threads(1));
    let one = one_sim.run(&mut RandomPushPull::new(&g));
    let mut four_sim = Simulation::new(&g, config.clone().threads(4));
    let four = four_sim.run(&mut RandomPushPull::new(&g));
    assert!(
        one.faults.is_some(),
        "a churned run must report a fault section"
    );
    assert_eq!(one, four, "churned run diverged between 1 and 4 threads");
    assert_eq!(one_sim.into_rumors(), four_sim.into_rumors());

    // And the 2- and 8-worker runs agree with both.
    let (report, _) = assert_thread_invariant(
        &g,
        &config,
        Seeding::AllToAll,
        || RandomPushPull::new(&g),
        "churn",
    );
    assert_eq!(report, one);
    assert_thread_invariant(
        &g,
        &config,
        Seeding::AllToAll,
        || RoundRobinFlood::new(&g),
        "churn flood",
    );

    // The same churn from the broadcast seeding, run past the last rejoin:
    // rejoins reset to the one-rumor initial sets.
    let seeding = Seeding::Broadcast(NodeId::new(0));
    let config = config.termination(Termination::FixedRounds(150));
    let (report, _) = assert_thread_invariant(
        &g,
        &config,
        seeding,
        || RandomPushPull::new(&g),
        "churn broadcast",
    );
    assert!(
        report.faults.is_some_and(|f| f.rejoins > 0),
        "the churn profile rejoins nodes"
    );
    assert_thread_invariant(
        &g,
        &config,
        seeding,
        || RoundRobinFlood::new(&g),
        "churn broadcast flood",
    );
}

/// ℓ-DTG in both exchange modes: a node links by reading its own rumor set,
/// and each node's iteration queue is its own.
#[test]
fn ell_dtg_is_identical_across_thread_counts() {
    let g = mid_size_er(0xE55);
    for mode in [ExchangeMode::NonBlocking, ExchangeMode::Blocking] {
        let config = SimConfig::new(61)
            .termination(Termination::Quiescent)
            .mode(mode)
            .max_rounds(200_000);
        let (report, dtg) = assert_thread_invariant(
            &g,
            &config,
            Seeding::AllToAll,
            || EllDtg::new(&g, 3),
            &format!("ell-dtg {mode:?}"),
        );
        assert!(report.completed, "{report}");
        assert!(dtg.max_iterations() > 0);
    }
}

/// RR broadcast: each node's round-robin cursor over its spanner
/// out-edges is its own state.
#[test]
fn rr_broadcast_is_identical_across_thread_counts() {
    let g = mid_size_er(0xF66);
    let spanner = log_spanner(&g, 5);
    let senders = g.nodes().filter(|&v| spanner.out_degree(v) > 0).count();
    assert!(senders > 256, "only {senders} nodes keep the worklist busy");
    let k = g.max_latency() * 8;
    let config = SimConfig::new(67)
        .termination(Termination::AllKnowAll)
        .max_rounds(20_000);
    let (report, _) = assert_thread_invariant(
        &g,
        &config,
        Seeding::AllToAll,
        || RrBroadcast::new(&g, &spanner, k),
        "rr-broadcast",
    );
    assert!(report.completed, "{report}");
}

/// The Lemma 6 reduction's recorder logs cross-edge activations per node;
/// merged in (round, node) order they must not depend on the pool size.
/// The run also matches the oracle, which no other suite checks it against.
#[test]
fn lemma6_recorder_is_identical_across_thread_counts() {
    let mut rng = SmallRng::seed_from_u64(71);
    let net = gadgets::gadget(
        150,
        1,
        20,
        TargetPredicate::Random { p: 0.3 },
        false,
        &mut rng,
    )
    .unwrap();
    let g = &net.graph;
    let config = SimConfig::new(73)
        .termination(Termination::LocalBroadcast(g.max_latency()))
        .max_rounds(20_000);
    let (report, recorder) = assert_thread_invariant(
        g,
        &config,
        Seeding::AllToAll,
        || CrossEdgeRecorder::new(&net),
        "lemma 6 recorder",
    );
    assert!(report.completed, "{report}");
    assert_matches_oracle(
        g,
        &config,
        Seeding::AllToAll,
        || CrossEdgeRecorder::new(&net),
        "lemma 6 recorder",
    );
    let activations = recorder.activations();
    assert!(!activations.is_empty());
    for threads in THREAD_COUNTS {
        let mut recorder = CrossEdgeRecorder::new(&net);
        Simulation::new(g, config.clone().threads(threads)).run(&mut recorder);
        assert_eq!(
            recorder.activations(),
            activations,
            "activations diverged at {threads} threads"
        );
    }
}
