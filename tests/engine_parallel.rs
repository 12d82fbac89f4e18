//! Thread-count invariance of the sharded engine.
//!
//! [`Simulation::run_sharded`] executes the per-round decision pass and the
//! completion-merge pass on a worker pool, but its observable behaviour is
//! defined to be *independent of the pool size*: per-(round, node) RNG
//! streams, worklist-order concatenation of shard results, and the canonical
//! (ascending destination, stable flight order) merge reduction make every
//! run a pure function of `(graph, config, protocol, seed)`.  These tests
//! pin that down: the serial driver ([`Simulation::run`]) and the sharded
//! driver at 1, 2 and 8 threads must produce **fully identical**
//! [`RunReport`]s — memory diagnostics included, since the merge machinery
//! replays the same serial walk — and identical final rumor states.
//!
//! The fault layer rides the same passes (crash surgery happens between
//! rounds, loss is drawn per flight from its own stream), so a churn-heavy
//! run must be byte-identical across thread counts too, graceful-degradation
//! section included.

use gossip_graph::{generators, Graph, NodeId};
use gossip_sim::protocols::{RandomPushPull, RoundRobinFlood};
use gossip_sim::{
    ChurnSpec, ExchangeMode, FaultPlan, RumorId, RumorSet, RunReport, Seeding, ShardedProtocol,
    SimConfig, Simulation, Termination,
};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Thread counts every scenario is replayed under (beyond the serial
/// driver): the inline path, a small pool, and an oversubscribed pool.
const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

/// Runs one protocol from one [`Seeding`] once with the serial driver and
/// once per pool size with the sharded driver, requiring full report *and*
/// rumor-state equality throughout.
fn assert_thread_invariant<P: ShardedProtocol, F: Fn() -> P>(
    g: &Graph,
    config: &SimConfig,
    seeding: Seeding,
    make_protocol: F,
    label: &str,
) -> RunReport {
    let simulation = |config: SimConfig| match seeding {
        Seeding::AllToAll => Simulation::new(g, config),
        Seeding::Broadcast(source) => Simulation::broadcast(g, config, source),
    };
    let mut serial_sim = simulation(config.clone());
    let serial_report = serial_sim.run(&mut make_protocol());
    let serial_rumors: Vec<RumorSet> = serial_sim.into_rumors();

    for threads in THREAD_COUNTS {
        let mut sim = simulation(config.clone().threads(threads));
        let report = sim.run_sharded(&mut make_protocol());
        // Full equality, not `semantics()`: the sharded pass must reproduce
        // the serial engine's memory diagnostics bit for bit.
        assert_eq!(
            report, serial_report,
            "{label}: report diverged at {threads} threads"
        );
        assert_eq!(
            sim.into_rumors(),
            serial_rumors,
            "{label}: rumor state diverged at {threads} threads"
        );
    }
    serial_report
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
    let report = assert_thread_invariant(
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

#[test]
fn one_to_all_with_forced_shadows_is_identical_across_thread_counts() {
    let g = mid_size_er(0xB22);
    let config = SimConfig::new(43)
        .termination(Termination::AllKnowRumorOf(NodeId::new(350)))
        .track_rumor(RumorId::from(350usize))
        .shadow_compaction(0)
        .max_rounds(5_000);
    for seeding in [Seeding::AllToAll, Seeding::Broadcast(NodeId::new(350))] {
        let report = assert_thread_invariant(
            &g,
            &config,
            seeding,
            || RandomPushPull::new(&g),
            &format!("shadowed 12a {seeding:?}"),
        );
        assert!(report.completed, "{report}");
        assert_thread_invariant(
            &g,
            &config,
            seeding,
            || RoundRobinFlood::new(&g),
            &format!("shadowed 12a flood {seeding:?}"),
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
    let report = assert_thread_invariant(
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

/// The churn-profile gate: crash-stop churn with amnesiac rejoins, link
/// cuts and message loss, replayed at 1 vs 4 threads (and the serial
/// driver), must agree byte for byte — fault section included.
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
    let one = one_sim.run_sharded(&mut RandomPushPull::new(&g));
    let mut four_sim = Simulation::new(&g, config.clone().threads(4));
    let four = four_sim.run_sharded(&mut RandomPushPull::new(&g));
    assert!(
        one.faults.is_some(),
        "a churned run must report a fault section"
    );
    assert_eq!(one, four, "churned run diverged between 1 and 4 threads");
    assert_eq!(one_sim.into_rumors(), four_sim.into_rumors());

    // And the serial driver agrees with both.
    let report = assert_thread_invariant(
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
    let report = assert_thread_invariant(
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
