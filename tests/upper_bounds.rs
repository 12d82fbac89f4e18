//! Cross-crate integration tests for the paper's upper bounds: push–pull
//! (Theorem 29), spanner broadcast (Theorem 20/25), pattern broadcast
//! (Lemmas 26–28) and the unified algorithm (Theorem 31) all complete within
//! (a constant multiple of) their claimed round bounds on a battery of graphs.

use gossip_conductance::{analyze, Method};
use gossip_core::{pattern, push_pull, spanner, spanner_broadcast, unified};
use gossip_graph::{generators, metrics, Graph, NodeId};
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn log2(n: usize) -> f64 {
    (n.max(2) as f64).log2()
}

fn battery() -> Vec<(&'static str, Graph)> {
    let mut rng = SmallRng::seed_from_u64(9);
    vec![
        ("clique", generators::clique(24, 1).unwrap()),
        ("slow clique", generators::clique(16, 8).unwrap()),
        ("cycle", generators::cycle(24, 3).unwrap()),
        ("grid", generators::grid(5, 5, 2).unwrap()),
        ("star", generators::star(24, 4).unwrap()),
        ("dumbbell", generators::dumbbell(10, 32).unwrap()),
        (
            "ring of cliques",
            generators::ring_of_cliques(5, 5, 8).unwrap(),
        ),
        (
            "slow-cut expander",
            generators::slow_cut_expander(32, 6, 16, &mut rng).unwrap(),
        ),
        ("binary tree", generators::binary_tree(31, 4).unwrap()),
    ]
}

#[test]
fn push_pull_completes_within_theorem29_bound() {
    for (name, g) in battery() {
        let crit = analyze(&g, Method::SweepCut).unwrap();
        let report = push_pull::broadcast(&g, NodeId::new(0), 13);
        assert!(report.completed, "{name}: push-pull did not complete");
        if crit.phi_star > 0.0 {
            let bound = crit.ell_star as f64 / crit.phi_star * log2(g.node_count());
            assert!(
                (report.rounds as f64) <= 12.0 * bound + 20.0,
                "{name}: push-pull took {} rounds, far above (ell*/phi*) log n = {bound:.1}",
                report.rounds
            );
        }
    }
}

#[test]
fn push_pull_beats_the_flooding_baseline_on_poorly_conductive_graphs() {
    // On the star, the paper's argument for push-pull needs the pull step; our
    // baseline comparison simply checks both complete and report sane numbers.
    let g = generators::star(40, 2).unwrap();
    let pp = push_pull::broadcast(&g, NodeId::new(1), 3);
    let flood = gossip_core::flooding::broadcast(&g, NodeId::new(1), 3);
    assert!(pp.completed && flood.completed);
    assert!(
        pp.rounds >= 2,
        "a latency-2 star cannot finish in under one exchange"
    );
}

#[test]
fn spanner_broadcast_completes_within_theorem25_bound() {
    for (name, g) in battery() {
        let d = metrics::weighted_diameter(&g).unwrap();
        let report =
            spanner_broadcast::run_known_diameter_with(&g, gossip_core::diameter_bound(&g), 5);
        assert!(
            report.completed,
            "{name}: spanner broadcast did not complete"
        );
        let bound = (d as f64) * log2(g.node_count()).powi(3);
        assert!(
            (report.rounds as f64) <= 12.0 * bound + 50.0,
            "{name}: spanner broadcast took {} rounds vs D log^3 n = {bound:.1}",
            report.rounds
        );
    }
}

#[test]
fn unknown_diameter_costs_at_most_a_constant_factor_more() {
    for (name, g) in [
        ("dumbbell", generators::dumbbell(8, 16).unwrap()),
        (
            "ring of cliques",
            generators::ring_of_cliques(4, 6, 8).unwrap(),
        ),
        ("grid", generators::grid(4, 6, 3).unwrap()),
    ] {
        let known =
            spanner_broadcast::run_known_diameter_with(&g, gossip_core::diameter_bound(&g), 8);
        let unknown = spanner_broadcast::run_unknown_diameter(&g, 8);
        assert!(known.completed && unknown.completed, "{name}");
        // The doubling driver pays every failed guess plus a termination check
        // per guess; the costs grow geometrically in the guess, so the total
        // stays within a moderate constant factor of the known-D run.
        assert!(
            unknown.rounds <= 12 * known.rounds + 200,
            "{name}: guess-and-double ({}) should stay within a small factor of known-D ({})",
            unknown.rounds,
            known.rounds
        );
    }
}

#[test]
fn pattern_broadcast_completes_within_lemma27_bound() {
    for (name, g) in [
        ("cycle", generators::cycle(16, 2).unwrap()),
        ("grid", generators::grid(4, 4, 3).unwrap()),
        ("dumbbell", generators::dumbbell(6, 8).unwrap()),
        (
            "ring of cliques",
            generators::ring_of_cliques(4, 4, 4).unwrap(),
        ),
    ] {
        let d = metrics::weighted_diameter(&g).unwrap().max(1);
        let report = pattern::run_known_diameter_with(&g, gossip_core::diameter_bound(&g), 3);
        assert!(
            report.completed,
            "{name}: pattern broadcast did not complete"
        );
        let bound = d as f64 * log2(g.node_count()).powi(2) * (d as f64).log2().max(1.0);
        assert!(
            (report.rounds as f64) <= 20.0 * bound + 50.0,
            "{name}: pattern broadcast took {} rounds vs D log^2 n log D = {bound:.1}",
            report.rounds
        );
    }
}

#[test]
fn spanner_has_logarithmic_stretch_size_and_out_degree() {
    let mut rng = SmallRng::seed_from_u64(31);
    let base = generators::erdos_renyi(80, 0.15, 1, &mut rng).unwrap();
    let g = gossip_graph::latency::LatencyScheme::UniformRandom { min: 1, max: 12 }
        .apply(&base, &mut rng)
        .unwrap();
    let s = spanner::log_spanner(&g, 17);
    let k = log2(g.node_count()).ceil() as usize;
    let stretch = s.stretch(&g).expect("spanner preserves connectivity");
    assert!(stretch <= spanner::stretch_bound(k) as f64 + 1e-9);
    assert!(s.edge_count() as f64 <= 4.0 * g.node_count() as f64 * log2(g.node_count()));
    assert!((s.max_out_degree() as f64) <= 6.0 * log2(g.node_count()));
}

#[test]
fn unified_always_matches_the_better_route() {
    for (name, g) in battery() {
        let r = unified::run_known_latencies_with(
            &g,
            NodeId::new(0),
            gossip_core::diameter_bound(&g),
            21,
        );
        assert!(r.completed, "{name}: unified run failed");
        assert_eq!(
            r.rounds,
            r.push_pull.rounds.min(r.spanner_route.rounds),
            "{name}: unified must take the minimum of the two routes"
        );
    }
}

#[test]
fn every_algorithm_disseminates_on_a_weighted_random_graph() {
    let mut rng = SmallRng::seed_from_u64(77);
    let base = generators::erdos_renyi(40, 0.2, 1, &mut rng).unwrap();
    let g = gossip_graph::latency::LatencyScheme::TwoLevel {
        fast: 1,
        slow: 24,
        fast_probability: 0.5,
    }
    .apply(&base, &mut rng)
    .unwrap();

    assert!(push_pull::broadcast(&g, NodeId::new(0), 1).completed);
    assert!(push_pull::all_to_all(&g, 1).completed);
    assert!(gossip_core::flooding::all_to_all(&g, 1).completed);
    assert!(
        spanner_broadcast::run_known_diameter_with(&g, gossip_core::diameter_bound(&g), 1)
            .completed
    );
    assert!(spanner_broadcast::run_unknown_diameter(&g, 1).completed);
    assert!(pattern::run_known_diameter_with(&g, gossip_core::diameter_bound(&g), 1).completed);
    assert!(pattern::run_unknown_diameter(&g, 1).completed);
}
