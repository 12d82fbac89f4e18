//! Equivalence and correctness of the deterministic fault-injection layer.
//!
//! The fault semantics (crash-stop churn, amnesiac rejoin, link cuts,
//! message loss — see `gossip_sim::FaultPlan`) are interpreted by two
//! engines: the snapshot-free [`Simulation`] with its engine surgery
//! (calendar cancellation, frontier rewinds)
//! and the dense-bitset spec
//! [`OracleSimulation`](gossip_sim::oracle::OracleSimulation).  Both must
//! produce **byte-identical** semantic reports — including the
//! [`FaultReport`](gossip_sim::FaultReport) graceful-degradation section —
//! and identical final rumor states, on the standard grid and on random
//! (graph, fault plan) instances.
//!
//! Also pinned here:
//!
//! * crashing an already-quiescent node is semantically invisible (the
//!   degradation section aside),
//! * a crash landing inside a victim's own `max_latency + 1` delivery
//!   window cancels the victim's exchanges instead of delivering them (the
//!   silent-overcount regression),
//! * a node that crashes and rejoins in the same round is scheduled once,
//! * a rejoin below the termination frontier reopens the goal for the
//!   rejoiner and, under local broadcast, for its neighbors,
//! * residual reachability and stranded-rumor accounting agree with a
//!   brute-force recomputation at scale.

use gossip_bench::sweep::SweepSpec;
use gossip_bench::Scale;
use gossip_graph::{generators, Graph, GraphBuilder, Latency, NodeId};
use gossip_sim::protocols::{RandomPushPull, RoundRobinFlood};
use gossip_sim::{
    stateless, ChurnSpec, FaultEvent, FaultPlan, NodeView, Protocol, RumorId, Seeding, SimConfig,
    Simulation, Termination,
};
use gossip_tests::{assert_matches_oracle, FastestKnown};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// The faulted configurations equivalence is checked under: the four
/// config shapes from the all-to-all seeding, then the tracked one-to-all
/// and the fixed-rounds shapes from the broadcast seeding.  The broadcast source
/// is the first node `plan` crashes and later rejoins, if it has one, so the
/// source's own reset to its initial set is exercised.  Round caps are
/// finite because churn can strand rumors and make dissemination conditions
/// unreachable.
fn faulted_configs(
    seed: u64,
    n: usize,
    plan: &FaultPlan,
) -> Vec<(SimConfig, Seeding, &'static str)> {
    let one_to_all = |source: NodeId| {
        SimConfig::new(seed)
            .termination(Termination::AllKnowRumorOf(source))
            .track_rumor(RumorId::of_node(source))
            .max_rounds(300)
            .faults(plan.clone())
    };
    let fixed_rounds = SimConfig::new(seed)
        .termination(Termination::FixedRounds(90))
        .faults(plan.clone());
    let events = plan.events();
    let source = events
        .iter()
        .find_map(|&(at, event)| match event {
            FaultEvent::Crash(v)
                if events
                    .iter()
                    .any(|&(later, e)| later >= at && e == FaultEvent::Rejoin(v)) =>
            {
                Some(v)
            }
            _ => None,
        })
        .unwrap_or(NodeId::new(n / 2));
    vec![
        (
            SimConfig::new(seed)
                .termination(Termination::AllKnowAll)
                .max_rounds(300)
                .faults(plan.clone()),
            Seeding::AllToAll,
            "all-know-all",
        ),
        (
            one_to_all(NodeId::new(n / 2)),
            Seeding::AllToAll,
            "one-to-all+tracking",
        ),
        (
            SimConfig::new(seed)
                .termination(Termination::LocalBroadcast(1))
                .max_rounds(300)
                .faults(plan.clone()),
            Seeding::AllToAll,
            "local-broadcast",
        ),
        (fixed_rounds.clone(), Seeding::AllToAll, "fixed-rounds"),
        (
            one_to_all(source),
            Seeding::Broadcast(source),
            "broadcast+tracking",
        ),
        (
            fixed_rounds,
            Seeding::Broadcast(source),
            "broadcast+fixed-rounds",
        ),
    ]
}

/// Seeded churn over the full Quick grid: every (family, size, profile)
/// scenario gets a seed-derived plan with crashes, rejoins, link cuts and
/// 10% message loss, and both engines must agree byte-for-byte under every
/// termination condition, for both bundled protocols and for
/// [`FastestKnown`], whose decisions read the latencies its delivered
/// exchanges revealed: a lost or cancelled exchange must reveal nothing.
#[test]
fn engines_agree_on_seeded_churn_over_the_quick_grid() {
    let spec = SweepSpec::standard(Scale::Quick);
    let churn = ChurnSpec {
        crash_permille: 150,
        rejoin_after: Some(23),
        cut_permille: 60,
        loss_ppm: 100_000,
        window: (1, 40),
    };
    let mut checked = 0usize;
    for family in &spec.families {
        for &size in &spec.sizes {
            for profile in &spec.profiles {
                let seed = 11u64;
                let mut graph_rng = SmallRng::seed_from_u64(seed ^ 0xA11CE);
                let base = family.build(size, &mut graph_rng);
                let g = profile.apply(&base, &mut graph_rng);
                let plan = FaultPlan::random_churn(&g, seed ^ 0xFA17, &churn);
                for (config, seeding, config_label) in faulted_configs(seed, g.node_count(), &plan)
                {
                    let label = format!(
                        "{}/{}/{}/{}",
                        family.name(),
                        size,
                        profile.name(),
                        config_label
                    );
                    for report in [
                        assert_matches_oracle(
                            &g,
                            &config,
                            seeding,
                            || RandomPushPull::new(&g),
                            &format!("push-pull {label}"),
                        ),
                        assert_matches_oracle(
                            &g,
                            &config,
                            seeding,
                            || RoundRobinFlood::new(&g),
                            &format!("flood {label}"),
                        ),
                        assert_matches_oracle(
                            &g,
                            &config,
                            seeding,
                            FastestKnown::default,
                            &format!("fastest-known {label}"),
                        ),
                    ] {
                        assert!(
                            report.faults.is_some(),
                            "a run with an attached fault plan must report a fault section: {label}"
                        );
                        checked += 1;
                    }
                }
            }
        }
    }
    // 7 families x 2 sizes x 4 profiles x 6 configs x 3 protocols.
    assert_eq!(checked, 7 * 2 * 4 * 6 * 3);
}

/// An *inert* plan still produces a fault section — all zeros, full residual
/// connectivity — and changes nothing else relative to a plan-free run.
#[test]
fn inert_plan_reports_a_zeroed_degradation_section() {
    let g = generators::clique(12, 2).unwrap();
    let base = SimConfig::new(3).termination(Termination::AllKnowAll);
    let faultless = Simulation::new(&g, base.clone()).run(&mut RandomPushPull::new(&g));
    let inert =
        Simulation::new(&g, base.faults(FaultPlan::new())).run(&mut RandomPushPull::new(&g));
    assert_eq!(faultless.faults, None);
    let section = inert.faults.expect("inert plan still reports");
    assert_eq!(section.crashes, 0);
    assert_eq!(section.exchanges_lost, 0);
    assert_eq!(section.alive_nodes, 12);
    assert_eq!(section.residual_components, 1);
    assert_eq!(section.largest_component, 12);
    assert_eq!(section.stranded_rumors, 0);
    assert_eq!(section.recovery_latency, None);
    let mut stripped = inert.semantics();
    stripped.faults = None;
    assert_eq!(
        stripped,
        faultless.semantics(),
        "inert faults change nothing"
    );
}

/// The silent-overcount regression: a crash landing at the victim's own
/// delivery round — inside the exchanges' latency window, while the delta
/// window still holds the batches their snapshots would subtract — must
/// cancel the in-flight exchanges *before* they deliver.  A late
/// cancellation would complete the run on a rumor that was never
/// delivered.
#[test]
fn crash_inside_own_delivery_window_cancels_instead_of_delivering() {
    // Two nodes, one latency-3 edge: both flood toward each other at round
    // 0, both exchanges complete at round 3 — and node 1 crashes at exactly
    // round 3, so nothing may ever deliver.
    let g = generators::path(2, 3).unwrap();
    let plan = FaultPlan::new().crash(3, NodeId::new(1));
    let config = SimConfig::new(7)
        .termination(Termination::AllKnowAll)
        .max_rounds(40)
        .faults(plan);
    let report = assert_matches_oracle(
        &g,
        &config,
        Seeding::AllToAll,
        || RoundRobinFlood::new(&g),
        "crash-at-completion-round",
    );
    assert!(!report.completed, "the only rumor source is gone");
    let section = report.faults.unwrap();
    assert_eq!(section.crashes, 1);
    assert_eq!(
        section.exchanges_cancelled, 2,
        "both in-flight exchanges touched the victim"
    );
    assert_eq!(section.stranded_rumors, 1, "rumor 1 died with node 1");
    assert_eq!(section.alive_nodes, 1);
    assert_eq!(
        report.min_rumors_known, 1,
        "no delivery may survive the cancellation"
    );

    // Same shape against a crash one round *into* the window (round 2, with
    // re-initiations in flight): still byte-identical across engines.
    let plan = FaultPlan::new().crash(2, NodeId::new(1));
    let config = SimConfig::new(7)
        .termination(Termination::AllKnowAll)
        .max_rounds(40)
        .faults(plan);
    let report = assert_matches_oracle(
        &g,
        &config,
        Seeding::AllToAll,
        || RoundRobinFlood::new(&g),
        "crash-mid-window",
    );
    assert!(report.faults.is_some(), "a fault section is reported");
}

/// A node that crashes and rejoins in the same round while it is still
/// active sits both in the stale worklist and in the rejoin's wake list: the
/// worklist merge must admit it once, or its `on_round` call doubles and the
/// run drifts from the oracle.  On a latency-3 clique nobody saturates or
/// finishes a flood lap by round 2, so both protocols still have the victim
/// active there.  (Local broadcast over its latency-1 edges is vacuous here
/// and ends at round 0, before the faults.)
#[test]
fn crash_and_rejoin_in_the_same_round_admits_the_node_once() {
    let g = generators::clique(8, 3).unwrap();
    let v = NodeId::new(3);
    let plan = FaultPlan::new().crash(2, v).rejoin(2, v);
    let mut applied = 0;
    for (config, seeding, label) in faulted_configs(7, g.node_count(), &plan) {
        for report in [
            assert_matches_oracle(
                &g,
                &config,
                seeding,
                || RandomPushPull::new(&g),
                &format!("push-pull {label}"),
            ),
            assert_matches_oracle(
                &g,
                &config,
                seeding,
                || RoundRobinFlood::new(&g),
                &format!("flood {label}"),
            ),
        ] {
            let section = report.faults.unwrap();
            if report.rounds >= 2 {
                assert_eq!((section.crashes, section.rejoins), (1, 1), "{label}");
                applied += 1;
            }
        }
    }
    assert_eq!(
        applied,
        5 * 2,
        "every config but local broadcast reaches round 2"
    );
}

/// An amnesiac rejoin resets a node to its *initial* set, and in a
/// broadcast a non-source node starts with nothing: a node that learned the
/// source's rumor, crashed and rejoined must come back empty in both
/// engines — not holding a rumor of its own that the broadcast never had.
/// The source itself comes back holding exactly its own rumor.
#[test]
fn broadcast_rejoin_resets_a_node_to_its_initial_set() {
    let g = generators::clique(6, 1).unwrap();
    let (source, v) = (NodeId::new(0), NodeId::new(4));
    let rejoin_round = 12;
    let plan = FaultPlan::new()
        .crash(9, v)
        .crash(10, source)
        .rejoin(rejoin_round, v)
        .rejoin(rejoin_round, source);
    let config = SimConfig::new(5)
        .termination(Termination::FixedRounds(rejoin_round))
        .track_rumor(RumorId::of_node(source))
        .faults(plan);
    let seeding = Seeding::Broadcast(source);
    for label in ["push-pull", "flood"] {
        let mut sim = Simulation::broadcast(&g, config.clone(), source);
        let report = if label == "push-pull" {
            assert_matches_oracle(&g, &config, seeding, || RandomPushPull::new(&g), label);
            sim.run(&mut RandomPushPull::new(&g))
        } else {
            assert_matches_oracle(&g, &config, seeding, || RoundRobinFlood::new(&g), label);
            sim.run(&mut RoundRobinFlood::new(&g))
        };
        assert_eq!(report.rounds, rejoin_round, "{label}");
        assert!(
            report
                .informed_times
                .as_ref()
                .and_then(|times| times[v.index()])
                .is_some_and(|t| t < 9),
            "{label}: the victim learned the rumor before crashing"
        );
        let rumors = sim.rumors();
        assert!(
            rumors[v.index()].is_empty(),
            "{label}: a rejoined non-source must come back empty, got {:?}",
            rumors[v.index()]
        );
        assert_eq!(
            rumors[source.index()],
            seeding.initial_set(g.node_count(), source),
            "{label}: a rejoined source comes back holding its own rumor"
        );
    }
}

/// A fixed contact schedule of `(round, from, to)` triples; every other
/// decision is silence, so a run is exact to the round.
#[derive(Clone)]
struct Scripted(Vec<(u64, usize, usize)>);

impl Protocol for Scripted {
    type Shared = Vec<(u64, usize, usize)>;
    type Node = ();

    fn split(&mut self, n: usize) -> (&Self::Shared, &mut [()]) {
        (&self.0, stateless(n))
    }

    fn on_round(
        script: &Self::Shared,
        _: &mut (),
        view: &NodeView<'_>,
        _: &mut SmallRng,
    ) -> Option<NodeId> {
        script
            .iter()
            .find(|&&(at, from, _)| at == view.round && from == view.node.index())
            .map(|&(_, _, to)| NodeId::new(to))
    }
}

fn graph(n: usize, edges: &[(usize, usize, Latency)]) -> Graph {
    let mut b = GraphBuilder::new(n);
    for &(u, v, latency) in edges {
        b.add_edge(u, v, latency).unwrap();
    }
    b.build().unwrap()
}

/// A rejoin below the termination frontier under local broadcast: the
/// rejoiner's low-id neighbor passed the frontier while the rejoiner was
/// dead, and owes it its rumor again.
///
/// `w = 0` and the relay `z = 1` swap rumors by round 1, when `v = 2`
/// crashes having told no one.  The frontier then passes `w` and `z` (their
/// other fast neighbor is dead) and stops at `x = 3`, which keeps the run
/// going until it learns `y = 4`'s rumor at round 3.  `v` rejoins at round
/// 2 and learns `w`'s rumor through `z` at round 3 — a round before `w`
/// learns `v`'s, which `z` relays at round 4.  A frontier rewound only to
/// `v` would end the run at round 3.
#[test]
fn rejoin_below_the_frontier_reopens_local_broadcast_for_its_neighbors() {
    let g = graph(5, &[(0, 1, 1), (0, 2, 2), (1, 2, 1), (3, 4, 1)]);
    let (w, v) = (NodeId::new(0), NodeId::new(2));
    let config = SimConfig::new(1)
        .termination(Termination::LocalBroadcast(2))
        .track_rumor(RumorId::of_node(v))
        .max_rounds(20)
        .faults(FaultPlan::new().crash(1, v).rejoin(2, v));
    let script = Scripted(vec![(0, 0, 1), (2, 1, 2), (2, 3, 4), (3, 1, 0)]);
    let report = assert_matches_oracle(
        &g,
        &config,
        Seeding::AllToAll,
        || script.clone(),
        "rejoin below the local-broadcast frontier",
    );
    assert!(report.completed, "{report}");
    assert_eq!(
        report.informed_times.unwrap()[w.index()],
        Some(4),
        "w learns v's rumor at round 4"
    );
    assert_eq!(report.rounds, 4, "the run ends only once w knows v's rumor");
}

/// The same rejoin below the frontier under the one-to-all and all-to-all
/// goals: node 0 meets the goal, crashes at round 2 and rejoins at round 3
/// holding only its own rumor, while node 2 keeps the run going until round
/// 4.  The run must wait for node 0 to meet the goal again at round 5.
#[test]
fn rejoin_below_the_frontier_reopens_the_rejoiners_goal() {
    let g = graph(3, &[(0, 1, 1), (1, 2, 3)]);
    let plan = FaultPlan::new()
        .crash(2, NodeId::new(0))
        .rejoin(3, NodeId::new(0));
    let script = Scripted(vec![(0, 0, 1), (1, 1, 2), (4, 1, 0)]);
    for termination in [
        Termination::AllKnowAll,
        Termination::AllKnowRumorOf(NodeId::new(1)),
    ] {
        let config = SimConfig::new(1)
            .termination(termination)
            .max_rounds(20)
            .faults(plan.clone());
        let label = format!("rejoin below the {termination:?} frontier");
        let report =
            assert_matches_oracle(&g, &config, Seeding::AllToAll, || script.clone(), &label);
        assert!(report.completed, "{label}: {report}");
        assert_eq!(
            report.rounds, 5,
            "{label}: node 0 meets the goal at round 5"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random fault plans on random graphs: crash/rejoin/cut/loss schedules
    /// derived from a seed, applied to random Erdős–Rényi instances with
    /// random latencies, must leave both engines byte-identical under every
    /// config shape.
    #[test]
    fn random_fault_plans_leave_engines_byte_identical(
        n in 4usize..40,
        p in 0.15f64..0.9,
        max_latency in 1u64..10,
        crash_permille in 0u16..400,
        cut_permille in 0u16..300,
        // 0 = crashed nodes stay down (the vendored proptest has no
        // `option::of`; 0 stands in for `None`).
        rejoin in 0u64..30,
        // Below 50k stands in for "reliable links" so both the lossless and
        // the lossy delivery paths get real coverage.
        loss_ppm in 0u32..300_000,
        seed in 0u64..1_000,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xFA17);
        let g = generators::erdos_renyi(n, p, 1, &mut rng).unwrap();
        let g = gossip_graph::latency::LatencyScheme::UniformRandom { min: 1, max: max_latency }
            .apply(&g, &mut rng)
            .unwrap();
        let churn = ChurnSpec {
            crash_permille,
            rejoin_after: (rejoin > 0).then_some(rejoin),
            cut_permille,
            loss_ppm: if loss_ppm < 50_000 { 0 } else { loss_ppm },
            window: (1, 35),
        };
        let plan = FaultPlan::random_churn(&g, seed, &churn);
        for (config, seeding, label) in faulted_configs(seed, g.node_count(), &plan) {
            for report in [
                assert_matches_oracle(&g, &config, seeding, || RandomPushPull::new(&g), label),
                assert_matches_oracle(&g, &config, seeding, || RoundRobinFlood::new(&g), label),
            ] {
                prop_assert!(report.faults.is_some(), "{label}: a fault section is reported");
            }
        }
    }

    /// Crashing a node whose work is provably over — after the whole
    /// network saturated and every exchange drained — changes nothing about
    /// the run's semantics except the degradation section itself: same
    /// rounds, activations, messages, informed times, and minimum final
    /// rumor count as the fault-free run.
    #[test]
    fn crashing_an_already_quiescent_node_is_semantically_invisible(
        n in 4usize..28,
        p in 0.2f64..0.9,
        max_latency in 1u64..6,
        victim in 0usize..28,
        seed in 0u64..1_000,
    ) {
        let victim = victim % n;
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x901E7);
        let g = generators::erdos_renyi(n, p, 1, &mut rng).unwrap();
        let g = gossip_graph::latency::LatencyScheme::UniformRandom { min: 1, max: max_latency }
            .apply(&g, &mut rng)
            .unwrap();

        // Find the round by which dissemination finished and all exchanges
        // drained; past it, every push–pull node is saturated and quiescent.
        let probe = SimConfig::new(seed).termination(Termination::AllKnowAll).max_rounds(3_000);
        let probe_report = Simulation::new(&g, probe).run(&mut RandomPushPull::new(&g));
        if !probe_report.completed {
            // Disconnected sample: skip (the vendored proptest has no
            // `prop_assume`; connected ER samples dominate at these p).
            continue;
        }
        let horizon = probe_report.rounds + g.max_latency() + 2;
        let cap = horizon + 25;

        let base = SimConfig::new(seed)
            .termination(Termination::FixedRounds(cap))
            .max_rounds(cap + 1);
        let baseline = Simulation::new(&g, base.clone()).run(&mut RandomPushPull::new(&g));

        let plan = FaultPlan::new().crash(horizon, NodeId::new(victim));
        let faulted_config = base.faults(plan);
        let report = assert_matches_oracle(
            &g,
            &faulted_config,
            Seeding::AllToAll,
            || RandomPushPull::new(&g),
            "quiescent-crash",
        );
        let section = report.faults.unwrap();
        prop_assert_eq!(section.crashes, 1);
        prop_assert_eq!(section.exchanges_cancelled, 0, "nothing was in flight");
        prop_assert_eq!(section.stranded_rumors, 0, "everyone already knew everything");
        let mut stripped = report.semantics();
        stripped.faults = None;
        prop_assert_eq!(
            stripped,
            baseline.semantics(),
            "a post-quiescence crash must not change the run"
        );
    }
}

/// Residual-reachability accounting at scale: 10% crashes on a 4096-node
/// Erdős–Rényi graph.  The engine's `FaultReport` figures — alive count,
/// residual components, largest component, stranded rumors — must agree
/// with a brute-force recomputation from the plan and the final rumor sets.
#[test]
fn residual_accounting_matches_brute_force_at_4096_nodes() {
    let mut rng = SmallRng::seed_from_u64(40);
    let g = generators::erdos_renyi(4096, 0.005, 1, &mut rng).unwrap();
    let churn = ChurnSpec {
        crash_permille: 100,
        rejoin_after: None,
        cut_permille: 20,
        loss_ppm: 0,
        window: (1, 60),
    };
    let plan = FaultPlan::random_churn(&g, 40, &churn);
    let config = SimConfig::new(9)
        .termination(Termination::FixedRounds(250))
        .faults(plan.clone());
    let mut sim = Simulation::new(&g, config);
    let report = sim.run(&mut RandomPushPull::new(&g));
    assert!(report.completed, "fixed-round runs always complete");
    let section = report.faults.unwrap();
    assert_eq!(section.crashes, 409, "100 permille of 4096, all applied");
    assert_eq!(section.alive_nodes, 4096 - 409);
    assert!(
        section.exchanges_cancelled > 0,
        "churn mid-run cancels flights"
    );

    // Brute force: replay the plan into dead-node / cut-edge sets (every
    // event fires inside the run's 250 rounds), BFS the residual topology,
    // and union the alive rumor sets.
    let n = g.node_count();
    let mut dead = vec![false; n];
    let mut cut = vec![false; g.edge_count()];
    for &(round, event) in plan.events() {
        assert!(round < 250);
        match event {
            gossip_sim::FaultEvent::Crash(v) => dead[v.index()] = true,
            gossip_sim::FaultEvent::Rejoin(v) => dead[v.index()] = false,
            gossip_sim::FaultEvent::CutLink(e) => cut[e.index()] = true,
        }
    }
    let mut seen = vec![false; n];
    let (mut components, mut largest) = (0u64, 0u64);
    for start in 0..n {
        if dead[start] || seen[start] {
            continue;
        }
        components += 1;
        let mut size = 0u64;
        let mut stack = vec![start];
        seen[start] = true;
        while let Some(v) = stack.pop() {
            size += 1;
            for &(w, e) in g.neighbor_slice(NodeId::new(v)) {
                if !dead[w.index()] && !cut[e.index()] && !seen[w.index()] {
                    seen[w.index()] = true;
                    stack.push(w.index());
                }
            }
        }
        largest = largest.max(size);
    }
    assert_eq!(section.residual_components, components);
    assert_eq!(section.largest_component, largest);

    let rumors = sim.rumors();
    let mut known = vec![false; n];
    for (i, set) in rumors.iter().enumerate() {
        if dead[i] {
            continue;
        }
        for r in set.iter() {
            known[r.index()] = true;
        }
    }
    let stranded = known.iter().filter(|k| !**k).count() as u64;
    assert_eq!(section.stranded_rumors, stranded);
}
