//! Reproducibility: the simulator and every dissemination algorithm are
//! deterministic functions of (graph, seed).  Same `SimConfig` seed ⇒
//! identical `RunReport`, bit for bit, on repeated runs.

use gossip_core::{pattern, push_pull, spanner_broadcast, unified};
use gossip_graph::{generators, NodeId};
use gossip_sim::protocols::RandomPushPull;
use gossip_sim::{SimConfig, Simulation, Termination};

#[test]
fn engine_push_pull_is_deterministic_on_the_dumbbell() {
    let g = generators::dumbbell(8, 64).unwrap();
    let run = |seed: u64| {
        let config = SimConfig::new(seed).termination(Termination::AllKnowAll);
        let mut sim = Simulation::new(&g, config);
        let report = sim.run(&mut RandomPushPull::new(&g));
        (report, sim.into_rumors())
    };
    let (report_a, rumors_a) = run(11);
    let (report_b, rumors_b) = run(11);
    assert_eq!(
        report_a, report_b,
        "same seed must give identical RunReports"
    );
    assert_eq!(
        rumors_a, rumors_b,
        "same seed must give identical final rumor sets"
    );
}

#[test]
fn engine_fixed_round_snapshots_are_deterministic() {
    let g = generators::dumbbell(6, 16).unwrap();
    let run = |seed: u64| {
        let config = SimConfig::new(seed).termination(Termination::FixedRounds(25));
        let mut sim = Simulation::new(&g, config);
        sim.run(&mut RandomPushPull::new(&g))
    };
    for seed in [0, 1, 7, 1000] {
        assert_eq!(run(seed), run(seed), "seed {seed}");
    }
}

#[test]
fn push_pull_broadcast_report_is_deterministic() {
    let g = generators::dumbbell(8, 32).unwrap();
    let a = push_pull::broadcast(&g, NodeId::new(0), 5);
    let b = push_pull::broadcast(&g, NodeId::new(0), 5);
    assert_eq!(a, b);
    assert!(a.completed);
}

#[test]
fn spanner_broadcast_report_is_deterministic() {
    let g = generators::dumbbell(8, 32).unwrap();
    let d = gossip_core::diameter_bound(&g);
    let a = spanner_broadcast::run_known_diameter_with(&g, d, 5);
    let b = spanner_broadcast::run_known_diameter_with(&g, d, 5);
    assert_eq!(a, b);
    assert!(a.completed);

    let a = spanner_broadcast::run_unknown_diameter(&g, 5);
    let b = spanner_broadcast::run_unknown_diameter(&g, 5);
    assert_eq!(a, b);
}

#[test]
fn pattern_and_unified_reports_are_deterministic() {
    let g = generators::dumbbell(6, 16).unwrap();
    let d = gossip_core::diameter_bound(&g);
    assert_eq!(
        pattern::run_known_diameter_with(&g, d, 9),
        pattern::run_known_diameter_with(&g, d, 9)
    );

    let a = unified::run_known_latencies_with(&g, NodeId::new(0), d, 9);
    let b = unified::run_known_latencies_with(&g, NodeId::new(0), d, 9);
    assert_eq!(a.rounds, b.rounds);
    assert_eq!(a.completed, b.completed);
    assert_eq!(a.push_pull, b.push_pull);
    assert_eq!(a.spanner_route, b.spanner_route);
}

#[test]
fn determinism_holds_on_a_random_weighted_graph_too() {
    use gossip_graph::latency::LatencyScheme;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    let build = || {
        let mut rng = SmallRng::seed_from_u64(123);
        let base = generators::erdos_renyi(20, 0.3, 1, &mut rng).unwrap();
        LatencyScheme::TwoLevel {
            fast: 1,
            slow: 12,
            fast_probability: 0.4,
        }
        .apply(&base, &mut rng)
        .unwrap()
    };
    let g1 = build();
    let g2 = build();
    assert_eq!(g1.node_count(), g2.node_count());
    assert_eq!(g1.edge_count(), g2.edge_count());
    for (a, b) in g1.edges().zip(g2.edges()) {
        assert_eq!((a.u, a.v, a.latency), (b.u, b.v, b.latency));
    }
    assert_eq!(
        push_pull::broadcast(&g1, NodeId::new(0), 2),
        push_pull::broadcast(&g2, NodeId::new(0), 2)
    );
}
