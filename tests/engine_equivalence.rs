//! Equivalence of the snapshot-free engine and the executable spec.
//!
//! The engine (delta window + calendar queue + incremental termination
//! counters + event-driven skipping) must be a pure performance change: on
//! every scenario of the standard Quick sweep grid, for three seeds,
//! [`Simulation`] and the dense-bitset spec
//! [`OracleSimulation`](gossip_sim::oracle::OracleSimulation) must produce
//! **byte-identical** semantic [`RunReport`]s and identical final rumor
//! states, under every termination condition and both exchange modes.
//! Proptest blocks repeat the comparison over random Erdős–Rényi instances
//! and over shapes that force the engine's windowed merges, saturated-peer
//! merges and skipping.
//!
//! The *mid-size* tier carries those structure-forcing proptests into the
//! 2048+-node regime, where every compression mechanism is genuinely
//! exercised, with the engine's passes sharded across 4 workers.

use gossip_bench::sweep::SweepSpec;
use gossip_bench::Scale;
use gossip_graph::{generators, Graph, NodeId};
use gossip_sim::oracle::OracleSimulation;
use gossip_sim::protocols::{RandomPushPull, RoundRobinFlood};
use gossip_sim::{
    stateless, ExchangeMode, NodeView, Protocol, RumorId, RumorSet, RunReport, Seeding, SimConfig,
    Simulation, Termination,
};
use gossip_tests::assert_matches_oracle;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Reruns one protocol on a single worker and requires the report of the
/// same config's multi-worker [`Simulation::run`] — memory diagnostics
/// included — so each mid-size case also witnesses thread-count invariance
/// of both parallel passes at sizes where they genuinely fan out.
fn assert_serial_reproduces<P: Protocol>(
    g: &Graph,
    config: &SimConfig,
    make_protocol: impl Fn() -> P,
    expected: &RunReport,
    label: &str,
) {
    let report = Simulation::new(g, config.clone().threads(1)).run(&mut make_protocol());
    assert_eq!(&report, expected, "serial report mismatch: {label}");
}

/// The configurations equivalence is checked under: every termination
/// condition plus the blocking mode from the all-to-all seeding, and a
/// tracked one-to-all run from the broadcast seeding.
fn configs(seed: u64, n: usize) -> Vec<(SimConfig, Seeding, &'static str)> {
    let source = NodeId::new(n / 2);
    let one_to_all = SimConfig::new(seed)
        .termination(Termination::AllKnowRumorOf(source))
        .track_rumor(RumorId::of_node(source))
        .max_rounds(5_000);
    vec![
        (
            SimConfig::new(seed)
                .termination(Termination::AllKnowAll)
                .max_rounds(5_000),
            Seeding::AllToAll,
            "all-know-all",
        ),
        (one_to_all.clone(), Seeding::AllToAll, "one-to-all+tracking"),
        (
            SimConfig::new(seed)
                .termination(Termination::LocalBroadcast(1))
                .max_rounds(5_000),
            Seeding::AllToAll,
            "local-broadcast",
        ),
        (
            SimConfig::new(seed)
                .termination(Termination::FixedRounds(60))
                .mode(ExchangeMode::Blocking),
            Seeding::AllToAll,
            "fixed-rounds+blocking",
        ),
        (one_to_all, Seeding::Broadcast(source), "broadcast+tracking"),
    ]
}

/// The acceptance gate: every (scenario, seed) of the full Quick grid, three
/// seeds, both bundled protocols, all five config shapes.
#[test]
fn engines_agree_on_the_full_quick_grid() {
    let spec = SweepSpec::standard(Scale::Quick);
    let mut checked = 0usize;
    for family in &spec.families {
        for &size in &spec.sizes {
            for profile in &spec.profiles {
                for seed in [1u64, 2, 3] {
                    let mut graph_rng = SmallRng::seed_from_u64(seed ^ 0xA11CE);
                    let base = family.build(size, &mut graph_rng);
                    let g = profile.apply(&base, &mut graph_rng);
                    for (config, seeding, config_label) in configs(seed, g.node_count()) {
                        let label = format!(
                            "{}/{}/{}/seed{}/{}",
                            family.name(),
                            size,
                            profile.name(),
                            seed,
                            config_label
                        );
                        assert_matches_oracle(
                            &g,
                            &config,
                            seeding,
                            || RandomPushPull::new(&g),
                            &format!("push-pull {label}"),
                        );
                        assert_matches_oracle(
                            &g,
                            &config,
                            seeding,
                            || RoundRobinFlood::new(&g),
                            &format!("flood {label}"),
                        );
                        checked += 2;
                    }
                }
            }
        }
    }
    // 7 families x 2 sizes x 4 profiles x 3 seeds x 5 configs x 2 protocols.
    assert_eq!(checked, 7 * 2 * 4 * 3 * 5 * 2);
}

/// Random push–pull biased toward fast links it knows of: a coin flip picks
/// either a uniformly random neighbor or the fastest incident edge whose
/// latency [`NodeView::known_latency`] reveals (the random one while none is
/// known).
struct FastestKnown;

impl Protocol for FastestKnown {
    type Shared = ();
    type Node = ();

    fn split(&mut self, n: usize) -> (&(), &mut [()]) {
        (&(), stateless(n))
    }

    fn on_round(_: &(), _: &mut (), view: &NodeView<'_>, rng: &mut SmallRng) -> Option<NodeId> {
        if view.neighbors.is_empty() || view.rumors.is_full() {
            return None;
        }
        let random = view.neighbors[rng.gen_range(0..view.neighbors.len())].0;
        if rng.gen_bool(0.5) {
            return Some(random);
        }
        let fastest = view
            .neighbors
            .iter()
            .filter_map(|&(w, e)| view.known_latency(e).map(|l| (l, w)))
            .min();
        Some(fastest.map_or(random, |(_, w)| w))
    }
}

/// Latency knowledge reaches protocols identically in both engines: with
/// [`SimConfig::latencies_known`] off, through per-exchange discovery (the
/// engine's flat bitset vs the oracle's per-node maps); with it on, from the
/// graph directly.  One seed of the Quick grid, every config shape.
#[test]
fn engines_agree_on_latency_knowledge_on_the_quick_grid() {
    let spec = SweepSpec::standard(Scale::Quick);
    let mut knowledge_mattered = false;
    for family in &spec.families {
        for &size in &spec.sizes {
            for profile in &spec.profiles {
                let mut graph_rng = SmallRng::seed_from_u64(0x1A7E);
                let base = family.build(size, &mut graph_rng);
                let g = profile.apply(&base, &mut graph_rng);
                for (config, seeding, config_label) in configs(4, g.node_count()) {
                    let label = format!(
                        "{}/{}/{}/{}",
                        family.name(),
                        size,
                        profile.name(),
                        config_label
                    );
                    let [discovered, known] = [false, true].map(|known| {
                        assert_matches_oracle(
                            &g,
                            &config.clone().latencies_known(known),
                            seeding,
                            || FastestKnown,
                            &format!("{label}/latencies-known={known}"),
                        )
                    });
                    knowledge_mattered |= discovered.semantics() != known.semantics();
                }
            }
        }
    }
    assert!(
        knowledge_mattered,
        "knowing latencies up front must change some run"
    );
}

/// `RandomPushPull` reports `Quiescent` once saturated, so under
/// `Termination::Quiescent` it stops when every node is full and the last
/// in-flight exchange has landed: no earlier than the `AllKnowAll` round and
/// at most `max_latency` rounds after it.
#[test]
fn push_pull_under_quiescent_stops_once_saturated_and_drained() {
    let mut drained_after_saturation = false;
    for (name, g) in [
        ("dumbbell", generators::dumbbell(6, 9).unwrap()),
        ("grid", generators::grid(4, 5, 3).unwrap()),
        (
            "ring of cliques",
            generators::ring_of_cliques(3, 4, 5).unwrap(),
        ),
    ] {
        for seed in [1u64, 2, 3] {
            let config = SimConfig::new(seed).max_rounds(10_000);
            let saturated = assert_matches_oracle(
                &g,
                &config.clone().termination(Termination::AllKnowAll),
                Seeding::AllToAll,
                || RandomPushPull::new(&g),
                &format!("{name}/seed{seed}/all-know-all"),
            );
            let quiescent = assert_matches_oracle(
                &g,
                &config.termination(Termination::Quiescent),
                Seeding::AllToAll,
                || RandomPushPull::new(&g),
                &format!("{name}/seed{seed}/quiescent"),
            );
            assert!(saturated.completed && quiescent.completed, "{name}/{seed}");
            assert!(
                (saturated.rounds..=saturated.rounds + g.max_latency()).contains(&quiescent.rounds),
                "{name}/{seed}: quiescent at {} vs saturated at {}",
                quiescent.rounds,
                saturated.rounds
            );
            drained_after_saturation |= quiescent.rounds > saturated.rounds;
        }
    }
    assert!(
        drained_after_saturation,
        "some run must still have exchanges in flight at saturation"
    );
}

/// Quiescent termination and pre-seeded rumor state go through
/// `with_rumors`, which the grid test does not exercise.
#[test]
fn engines_agree_on_quiescent_and_preseeded_state() {
    let g = generators::dumbbell(5, 7).unwrap();
    let n = g.node_count();
    let initial: Vec<RumorSet> = (0..n)
        .map(|i| {
            let mut s = RumorSet::singleton(n, RumorId::from(i));
            s.insert(RumorId::from((i + 1) % n));
            s
        })
        .collect();
    let config = SimConfig::new(5)
        .termination(Termination::Quiescent)
        .max_rounds(200);

    let mut sim = Simulation::with_rumors(&g, config.clone(), initial.clone());
    let report = sim.run(&mut gossip_sim::protocols::Silent);
    let mut oracle = OracleSimulation::with_rumors(&g, config, initial);
    let oracle_report = oracle.run(&mut gossip_sim::protocols::Silent);
    assert_eq!(report.semantics(), oracle_report.semantics());
    assert_eq!(sim.into_rumors(), oracle.into_rumors());
    assert!(report.completed);
}

/// The dense-layer merge path: all-to-all push–pull on an Erdős–Rényi graph
/// whose doubling endgame scatters each round's acquisitions, so the window
/// stores whole batches as dense layers, and merges subtract them from
/// their sources' sets word-wise.  On 3 workers and 1.
#[test]
fn dense_log_layers_match_the_oracle() {
    let mut rng = SmallRng::seed_from_u64(0xD1);
    let g = generators::erdos_renyi(600, 0.02, 1, &mut rng).unwrap();
    let g = gossip_graph::latency::LatencyScheme::UniformRandom { min: 1, max: 3 }
        .apply(&g, &mut rng)
        .unwrap();
    let config = SimConfig::new(9)
        .termination(Termination::AllKnowAll)
        .threads(3);
    let label = "dense layers";
    let report = assert_matches_oracle(
        &g,
        &config,
        Seeding::AllToAll,
        || RandomPushPull::new(&g),
        label,
    );
    assert_serial_reproduces(&g, &config, || RandomPushPull::new(&g), &report, label);
    let mem = report.mem.unwrap();
    assert!(
        mem.dense_batches > 0,
        "{label}: no batch was dense ({mem:?})"
    );
    assert!(
        mem.truncated_runs > 0,
        "{label}: no batch aged out ({mem:?})"
    );
}

/// The sparse page path across pages: all-to-all push–pull on a 9000-node
/// star spans 3 rumor pages, with sparse entries on pages 1 and 2 (each
/// leaf's own id and rumor 0) until the saturating merges fill them.  On 3
/// workers; `engine_parallel` pins the 1-worker run to it.
#[test]
fn multi_page_star_matches_the_oracle() {
    let g = generators::star(9000, 1).unwrap();
    let config = SimConfig::new(23)
        .termination(Termination::AllKnowAll)
        .threads(3);
    let report = assert_matches_oracle(
        &g,
        &config,
        Seeding::AllToAll,
        || RandomPushPull::new(&g),
        "multi-page star",
    );
    assert!(report.completed, "{report}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Windowed merges equal bitset-snapshot merges on random graphs:
    /// random Erdős–Rényi topology, random latency cap, random seed, both
    /// protocols, every config shape.
    #[test]
    fn log_merge_equals_snapshot_merge_on_random_graphs(
        n in 4usize..48,
        p in 0.1f64..0.9,
        max_latency in 1u64..12,
        seed in 0u64..1_000,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = generators::erdos_renyi(n, p, 1, &mut rng).unwrap();
        let g = gossip_graph::latency::LatencyScheme::UniformRandom { min: 1, max: max_latency }
            .apply(&g, &mut rng)
            .unwrap();
        for (config, seeding, label) in configs(seed, g.node_count()) {
            let report =
                assert_matches_oracle(&g, &config, seeding, || RandomPushPull::new(&g), label);
            prop_assert_eq!(report.rejections, 0);
            assert_matches_oracle(&g, &config, seeding, || RoundRobinFlood::new(&g), label);
        }
    }

    /// The windowed merge path, specifically: on graphs with every latency
    /// at least 2, every snapshot is at least one round old, so a merge
    /// subtracts its source's batches of the rounds since, and batches age
    /// out of the window mid-run.  Every counter maintained inside the
    /// merge — `informed_times`, `rejections`, `min_rumors_known`,
    /// completion — must still match the spec, and the run must actually
    /// have aged batches out.
    #[test]
    fn truncated_log_merges_match_reference_with_forced_shadows(
        n in 6usize..40,
        p in 0.15f64..0.9,
        max_latency in 2u64..10,
        seed in 0u64..1_000,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x5AAD);
        let g = generators::erdos_renyi(n, p, 1, &mut rng).unwrap();
        // Latencies start at 2 so every snapshot spends at least one full
        // round in flight and its source may learn something meanwhile.
        let g = gossip_graph::latency::LatencyScheme::UniformRandom { min: 2, max: max_latency }
            .apply(&g, &mut rng)
            .unwrap();
        // Long enough that batches age out (max_latency rounds after their
        // phase) while rumors are still spreading.
        let config = SimConfig::new(seed)
            .termination(Termination::FixedRounds(12 * g.max_latency()))
            .track_rumor(RumorId::from(n / 3));
        let report = assert_matches_oracle(
            &g,
            &config,
            Seeding::AllToAll,
            || RandomPushPull::new(&g),
            "windowed",
        );
        prop_assert_eq!(report.rejections, 0);
        let mem = report.mem.unwrap();
        prop_assert!(mem.peak_log_runs > 0, "the window held no run");
        prop_assert!(mem.truncated_runs > 0, "no batch aged out of the window");
        assert_matches_oracle(
            &g,
            &config,
            Seeding::AllToAll,
            || RoundRobinFlood::new(&g),
            "windowed flood",
        );
    }

    /// Saturated peers, specifically: all-to-all on small universes with
    /// latencies ≥ 2 and a round budget far past completion, so nodes
    /// saturate mid-run and, once their last batch is older than a
    /// snapshot, are merged from through the `O(pages)` "peer is saturated"
    /// complement — while merges from nodes that saturated after the
    /// snapshot still subtract their recent batches.  Every observable must
    /// still match the spec exactly.
    #[test]
    fn saturation_collapse_matches_reference_mid_run(
        n in 6usize..32,
        p in 0.2f64..0.9,
        max_latency in 2u64..8,
        seed in 0u64..1_000,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xC011A);
        let g = generators::erdos_renyi(n, p, 1, &mut rng).unwrap();
        let g = gossip_graph::latency::LatencyScheme::UniformRandom { min: 2, max: max_latency }
            .apply(&g, &mut rng)
            .unwrap();
        // Far past all-to-all completion: plenty of rounds for every node to
        // saturate, with saturated-peer merges continuing to fire afterwards.
        let config = SimConfig::new(seed)
            .termination(Termination::FixedRounds(40 * g.max_latency()))
            .track_rumor(RumorId::from(n / 2));
        let report =
            assert_matches_oracle(
                &g,
                &config,
                Seeding::AllToAll,
                || RandomPushPull::new(&g),
                "saturated peers",
            );
        prop_assert_eq!(report.rejections, 0);
        let mem = report.mem.unwrap();
        if report.min_rumors_known == n {
            prop_assert_eq!(mem.saturated_nodes, n as u64);
            prop_assert_eq!(mem.pages_live, 0, "full sets hold no dense pages");
        }
        prop_assert!(mem.truncated_runs > 0);
        assert_matches_oracle(
            &g,
            &config,
            Seeding::AllToAll,
            || RoundRobinFlood::new(&g),
            "saturated peers flood",
        );
    }

    /// The event-driven scheduler, specifically: sparse stars with latencies
    /// ≥ 2 and a `FixedRounds` budget far past all-to-all saturation force
    /// long windows in which every node is idle (flood: clean laps;
    /// push–pull: saturation quiescence), so the engine must *fast-forward*
    /// the round clock across empty calendar stretches — while the oracle
    /// walks every round and asks every node.  `informed_times`,
    /// activation/rejection counters, `min_rumors_known` and the final rumor
    /// sets must all be unchanged, and the run must genuinely have skipped.
    #[test]
    fn event_skipping_matches_reference_on_sparse_stars(
        n in 4usize..40,
        max_latency in 2u64..10,
        seed in 0u64..1_000,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x51C1);
        let g = generators::star(n, 1).unwrap();
        // Latencies ≥ 2 keep every exchange in flight for at least one full
        // round, so the idle windows the scheduler skips genuinely contain
        // in-flight state.
        let g = gossip_graph::latency::LatencyScheme::UniformRandom { min: 2, max: max_latency }
            .apply(&g, &mut rng)
            .unwrap();
        // Far past saturation: the star saturates within a few calendar
        // laps, after which both bundled protocols go quiet and the engine
        // should jump straight to the FixedRounds target.
        let budget = (n as u64 + 30) * g.max_latency();
        let config = SimConfig::new(seed)
            .termination(Termination::FixedRounds(budget))
            .track_rumor(RumorId::from(0usize));
        let check = |report: RunReport, label: &str| {
            prop_assert_eq!(report.rounds, budget);
            prop_assert_eq!(report.min_rumors_known, n, "the star must saturate");
            let mem = report.mem.unwrap();
            prop_assert!(
                mem.rounds_skipped > 0,
                "{label}: an idle endgame of {budget} rounds must fast-forward"
            );
            prop_assert_eq!(mem.active_final, 0, "every node ends idle or quiescent");
            // The clock accounting must tile the run exactly: every round is
            // either walked or skipped (the final break iteration is walked
            // but does not advance the clock).
            let ticks = mem.rounds_simulated + mem.rounds_skipped;
            prop_assert!(
                ticks == report.rounds || ticks == report.rounds + 1,
                "walked {} + skipped {} rounds vs clock {}",
                mem.rounds_simulated,
                mem.rounds_skipped,
                report.rounds
            );
        };
        check(
            assert_matches_oracle(
                &g,
                &config,
                Seeding::AllToAll,
                || RandomPushPull::new(&g),
                "skip push-pull",
            ),
            "skip push-pull",
        );
        check(
            assert_matches_oracle(
                &g,
                &config,
                Seeding::AllToAll,
                || RoundRobinFlood::new(&g),
                "skip flood",
            ),
            "skip flood",
        );
    }
}

// The mid-size tier: the same three structure-forcing equivalence arguments
// (windowed merges, saturated peers, skipping) in the 2048+-node regime, with the engine's
// decision and merge passes sharded across 4 workers against the oracle and
// a 1-worker run checked against that report.  Case counts are small:
// each case runs thousands of nodes through every engine.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Windowed merges at mid size: sparse Erdős–Rényi (avg degree ≈ 8–12)
    /// with latencies ≥ 2, one-to-all.
    #[test]
    fn oracle_matches_engine_with_forced_shadows_at_mid_size(
        n in 2048usize..2600,
        max_latency in 2u64..6,
        seed in 0u64..1_000,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x0A1);
        let g = generators::erdos_renyi(n, 10.0 / n as f64, 1, &mut rng).unwrap();
        let g = gossip_graph::latency::LatencyScheme::UniformRandom { min: 2, max: max_latency }
            .apply(&g, &mut rng)
            .unwrap();
        let config = SimConfig::new(seed)
            .termination(Termination::AllKnowRumorOf(NodeId::new(n / 3)))
            .track_rumor(RumorId::from(n / 3))
            .max_rounds(400)
            .threads(4);
        let report = assert_matches_oracle(
            &g,
            &config,
            Seeding::AllToAll,
            || RandomPushPull::new(&g),
            "mid window",
        );
        assert_serial_reproduces(&g, &config, || RandomPushPull::new(&g), &report, "mid window");
        let mem = report.mem.unwrap();
        prop_assert!(
            mem.truncated_runs > 0,
            "batches must age out of the window at this size ({mem:?})"
        );
    }

    /// Saturated peers at mid size: all-to-all driven past completion so
    /// nodes saturate and are merged from as full peers.
    #[test]
    fn oracle_matches_engine_through_saturation_collapse_at_mid_size(
        n in 2048usize..2600,
        max_latency in 2u64..5,
        seed in 0u64..1_000,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x0B2);
        let g = generators::erdos_renyi(n, 14.0 / n as f64, 1, &mut rng).unwrap();
        let g = gossip_graph::latency::LatencyScheme::UniformRandom { min: 2, max: max_latency }
            .apply(&g, &mut rng)
            .unwrap();
        let config = SimConfig::new(seed)
            .termination(Termination::FixedRounds(40 * g.max_latency()))
            .threads(4);
        let report = assert_matches_oracle(
            &g,
            &config,
            Seeding::AllToAll,
            || RandomPushPull::new(&g),
            "mid saturated",
        );
        assert_serial_reproduces(&g, &config, || RandomPushPull::new(&g), &report, "mid saturated");
        let mem = report.mem.unwrap();
        if report.min_rumors_known == n {
            prop_assert_eq!(mem.saturated_nodes, n as u64);
            prop_assert_eq!(mem.pages_live, 0, "full sets hold no dense pages");
        }
        prop_assert!(mem.truncated_runs > 0);
    }

    /// Skip-forcing at mid size: a star driven far past push–pull
    /// saturation — the engine fast-forwards the idle endgame, the oracle
    /// walks every round.  Flood runs the same budget for equivalence only:
    /// the hub's round-robin lap over ~n leaves outlives any budget the
    /// oracle can walk at this size, so flood's *skipping* stays pinned by
    /// the small-size proptest above, while its cursor table still gets
    /// split across workers here.
    #[test]
    fn oracle_matches_engine_through_skipped_endgames_at_mid_size(
        n in 2048usize..2600,
        max_latency in 2u64..5,
        seed in 0u64..1_000,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x0C3);
        let g = generators::star(n, 1).unwrap();
        let g = gossip_graph::latency::LatencyScheme::UniformRandom { min: 2, max: max_latency }
            .apply(&g, &mut rng)
            .unwrap();
        let config = SimConfig::new(seed)
            .termination(Termination::FixedRounds(600))
            .track_rumor(RumorId::from(0usize))
            .threads(4);
        let report = assert_matches_oracle(
            &g,
            &config,
            Seeding::AllToAll,
            || RandomPushPull::new(&g),
            "mid skip",
        );
        assert_serial_reproduces(&g, &config, || RandomPushPull::new(&g), &report, "mid skip");
        let mem = report.mem.unwrap();
        prop_assert!(
            mem.rounds_skipped > 0,
            "the saturated endgame must fast-forward ({mem:?})"
        );
        let report = assert_matches_oracle(
            &g,
            &config,
            Seeding::AllToAll,
            || RoundRobinFlood::new(&g),
            "mid skip flood",
        );
        assert_serial_reproduces(
            &g,
            &config,
            || RoundRobinFlood::new(&g),
            &report,
            "mid skip flood",
        );
    }
}
