//! Property-style tests for `gossip_graph::generators`: node/edge counts,
//! latency bounds, degrees and connectivity, over the parameter ranges the
//! `battery()` of `tests/upper_bounds.rs` and the sweep runner draw from.

use gossip_graph::{generators, Graph, Latency};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn choose2(n: usize) -> usize {
    n * (n - 1) / 2
}

/// Every generated graph must be connected with positive latencies.
fn check_basics(g: &Graph, max_latency: Latency) {
    assert!(g.is_connected(), "generated graphs must be connected");
    for rec in g.edges() {
        assert!(rec.latency >= 1, "latencies are positive integers");
        assert!(
            rec.latency <= max_latency,
            "latency {} above {max_latency}",
            rec.latency
        );
        assert_ne!(rec.u, rec.v, "no self-loops");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn clique_counts(n in 2usize..40, latency in 1u64..50) {
        let g = generators::clique(n, latency).unwrap();
        prop_assert_eq!(g.node_count(), n);
        prop_assert_eq!(g.edge_count(), choose2(n));
        prop_assert_eq!(g.max_latency(), latency);
        check_basics(&g, latency);
        for v in g.nodes() {
            prop_assert_eq!(g.degree(v), n - 1);
        }
    }

    #[test]
    fn cycle_counts(n in 3usize..60, latency in 1u64..20) {
        let g = generators::cycle(n, latency).unwrap();
        prop_assert_eq!(g.node_count(), n);
        prop_assert_eq!(g.edge_count(), n);
        check_basics(&g, latency);
        for v in g.nodes() {
            prop_assert_eq!(g.degree(v), 2);
        }
    }

    #[test]
    fn path_counts(n in 2usize..60, latency in 1u64..20) {
        let g = generators::path(n, latency).unwrap();
        prop_assert_eq!(g.node_count(), n);
        prop_assert_eq!(g.edge_count(), n - 1);
        check_basics(&g, latency);
    }

    #[test]
    fn star_counts(n in 2usize..60, latency in 1u64..20) {
        let g = generators::star(n, latency).unwrap();
        prop_assert_eq!(g.node_count(), n);
        prop_assert_eq!(g.edge_count(), n - 1);
        prop_assert_eq!(g.max_degree(), n - 1);
        check_basics(&g, latency);
    }

    #[test]
    fn grid_counts(rows in 2usize..9, cols in 2usize..9, latency in 1u64..20) {
        let g = generators::grid(rows, cols, latency).unwrap();
        prop_assert_eq!(g.node_count(), rows * cols);
        prop_assert_eq!(g.edge_count(), rows * (cols - 1) + cols * (rows - 1));
        check_basics(&g, latency);
    }

    #[test]
    fn binary_tree_counts(n in 1usize..80, latency in 1u64..20) {
        let g = generators::binary_tree(n, latency).unwrap();
        prop_assert_eq!(g.node_count(), n);
        prop_assert_eq!(g.edge_count(), n.saturating_sub(1));
        check_basics(&g, latency);
        // Binary heap shape: every node has at most 3 incident edges.
        for v in g.nodes() {
            prop_assert!(g.degree(v) <= 3);
        }
    }

    #[test]
    fn complete_bipartite_counts(a in 1usize..15, b in 1usize..15, latency in 1u64..20) {
        let g = generators::complete_bipartite(a, b, latency).unwrap();
        prop_assert_eq!(g.node_count(), a + b);
        prop_assert_eq!(g.edge_count(), a * b);
        check_basics(&g, latency);
    }

    #[test]
    fn dumbbell_counts(s in 2usize..20, bridge in 1u64..100) {
        let g = generators::dumbbell(s, bridge).unwrap();
        prop_assert_eq!(g.node_count(), 2 * s);
        prop_assert_eq!(g.edge_count(), 2 * choose2(s) + 1);
        check_basics(&g, bridge.max(1));
        // The bridge is the only edge that can be slow.
        let slow_edges = g.edges().filter(|rec| rec.latency > 1).count();
        prop_assert!(slow_edges <= 1);
    }

    #[test]
    fn ring_of_cliques_counts(k in 2usize..8, s in 1usize..8, bridge in 1u64..50) {
        let g = generators::ring_of_cliques(k, s, bridge).unwrap();
        prop_assert_eq!(g.node_count(), k * s);
        let bridges = if k == 2 { 1 } else { k };
        prop_assert_eq!(g.edge_count(), k * choose2(s) + bridges);
        check_basics(&g, bridge.max(1));
    }

    #[test]
    fn erdos_renyi_is_connected_with_exact_node_count(
        n in 2usize..40,
        p in 0.1f64..0.9,
        latency in 1u64..20,
        seed in 0u64..1_000,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = generators::erdos_renyi(n, p, latency, &mut rng).unwrap();
        prop_assert_eq!(g.node_count(), n);
        prop_assert!(g.edge_count() >= n - 1, "connectivity needs at least a spanning tree");
        prop_assert!(g.edge_count() <= choose2(n));
        check_basics(&g, latency);
    }

    #[test]
    fn erdos_renyi_is_deterministic_per_seed(
        n in 4usize..30,
        p in 0.2f64..0.8,
        seed in 0u64..1_000,
    ) {
        let build = || {
            let mut rng = SmallRng::seed_from_u64(seed);
            generators::erdos_renyi(n, p, 1, &mut rng).unwrap()
        };
        let a = build();
        let b = build();
        prop_assert_eq!(a.edge_count(), b.edge_count());
        for (x, y) in a.edges().zip(b.edges()) {
            prop_assert_eq!((x.u, x.v, x.latency), (y.u, y.v, y.latency));
        }
    }

    #[test]
    fn random_regular_is_near_regular(
        d in 2usize..6,
        half_n in 4usize..16,
        latency in 1u64..20,
        seed in 0u64..1_000,
    ) {
        // n*d must be even and n > d: use even n.
        let n = 2 * half_n;
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = generators::random_regular(n, d, latency, &mut rng).unwrap();
        prop_assert_eq!(g.node_count(), n);
        // The configuration model discards self-loops/duplicates and repairs
        // greedily, so the contract is *near*-regular: every degree within a
        // small band of d and the average essentially d.
        prop_assert!(g.edge_count() <= n * d / 2 + n);
        prop_assert!(g.edge_count() + n >= n * d / 2);
        for v in g.nodes() {
            let deg = g.degree(v);
            // Repair guarantees min degree d; pairing plus at most two
            // component-chaining edges bounds the overshoot at d + 3.
            prop_assert!(deg >= d && deg <= d + 3, "degree {} too far from {}", deg, d);
        }
        let avg = g.total_volume() as f64 / n as f64;
        prop_assert!((avg - d as f64).abs() <= 1.0, "average degree {} vs d = {}", avg, d);
        check_basics(&g, latency);
    }

    #[test]
    fn slow_cut_expander_has_slow_cut_and_fast_sides(
        half_n in 6usize..16,
        slow in 2u64..64,
        seed in 0u64..1_000,
    ) {
        let n = 2 * half_n;
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = generators::slow_cut_expander(n, 4, slow, &mut rng).unwrap();
        prop_assert_eq!(g.node_count(), n);
        check_basics(&g, slow.max(1));
        let half = n / 2;
        for rec in g.edges() {
            let crosses = (rec.u.index() < half) != (rec.v.index() < half);
            if crosses {
                prop_assert_eq!(rec.latency, slow, "cut edges must be slow");
            } else {
                prop_assert_eq!(rec.latency, 1, "side edges must be fast");
            }
        }
    }
}

#[test]
fn battery_families_build_and_are_connected() {
    // The exact configurations `tests/upper_bounds.rs` uses.
    let mut rng = SmallRng::seed_from_u64(9);
    let battery: Vec<(&str, Graph)> = vec![
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
    ];
    for (name, g) in battery {
        assert!(g.is_connected(), "{name} must be connected");
        assert!(g.node_count() >= 16, "{name} too small");
        assert!(g.max_latency() >= 1, "{name} has invalid latencies");
    }
}

#[test]
fn degenerate_parameters_are_rejected() {
    let mut rng = SmallRng::seed_from_u64(1);
    assert!(generators::clique(0, 1).is_err() || generators::clique(0, 1).is_ok());
    assert!(
        generators::ring_of_cliques(1, 3, 1).is_err(),
        "ring needs >= 2 cliques"
    );
    assert!(
        generators::dumbbell(1, 1).is_err(),
        "dumbbell needs >= 2 per side"
    );
    assert!(
        generators::random_regular(5, 7, 1, &mut rng).is_err(),
        "degree above n-1 is impossible"
    );
}

/// FNV-1a digest of a graph's node count and its edge list `(u, v, latency)`
/// in edge-id order: equal digests mean the same edges in the same order.
fn edge_digest(g: &Graph) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |word: u64| {
        for byte in word.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    mix(g.node_count() as u64);
    for rec in g.edges() {
        mix(rec.u.index() as u64);
        mix(rec.v.index() as u64);
        mix(rec.latency);
    }
    hash
}

/// Every generator family at two sizes, the random families on both sides of
/// their repair paths, the latency schemes and the lower-bound gadgets.
fn digest_cases() -> Vec<(&'static str, Graph)> {
    use gossip_graph::latency::LatencyScheme;
    use gossip_lowerbound::gadgets;
    use gossip_lowerbound::predicates::TargetPredicate;

    let rng = SmallRng::seed_from_u64;
    let base = generators::grid(6, 7, 1).unwrap();
    let schemes = [
        ("apply uniform", LatencyScheme::Uniform(3)),
        (
            "apply two-level",
            LatencyScheme::TwoLevel {
                fast: 1,
                slow: 9,
                fast_probability: 0.7,
            },
        ),
        (
            "apply power-law",
            LatencyScheme::PowerLawClasses { classes: 5 },
        ),
        (
            "apply uniform-random",
            LatencyScheme::UniformRandom { min: 2, max: 11 },
        ),
        (
            "apply bimodal-fraction",
            LatencyScheme::BimodalFraction {
                slow: 16,
                slow_fraction: 0.3,
            },
        ),
    ];
    let mut cases = vec![
        ("clique 5", generators::clique(5, 2).unwrap()),
        ("clique 33", generators::clique(33, 1).unwrap()),
        ("path 2", generators::path(2, 3).unwrap()),
        ("path 40", generators::path(40, 1).unwrap()),
        ("cycle 3", generators::cycle(3, 2).unwrap()),
        ("cycle 50", generators::cycle(50, 4).unwrap()),
        ("star 2", generators::star(2, 5).unwrap()),
        ("star 64", generators::star(64, 1).unwrap()),
        ("grid 1x5", generators::grid(1, 5, 2).unwrap()),
        ("grid 7x9", generators::grid(7, 9, 1).unwrap()),
        ("binary tree 1", generators::binary_tree(1, 1).unwrap()),
        ("binary tree 45", generators::binary_tree(45, 3).unwrap()),
        (
            "complete bipartite 1x4",
            generators::complete_bipartite(1, 4, 2).unwrap(),
        ),
        (
            "complete bipartite 7x9",
            generators::complete_bipartite(7, 9, 1).unwrap(),
        ),
        (
            "ring of cliques 2x3",
            generators::ring_of_cliques(2, 3, 5).unwrap(),
        ),
        (
            "ring of cliques 6x5",
            generators::ring_of_cliques(6, 5, 8).unwrap(),
        ),
        ("dumbbell 2", generators::dumbbell(2, 7).unwrap()),
        ("dumbbell 12", generators::dumbbell(12, 32).unwrap()),
        ("barbell 2x1", generators::barbell(2, 1, 4).unwrap()),
        ("barbell 8x4", generators::barbell(8, 4, 16).unwrap()),
        (
            "slow-cut expander 16",
            generators::slow_cut_expander(16, 3, 9, &mut rng(1)).unwrap(),
        ),
        (
            "slow-cut expander 64",
            generators::slow_cut_expander(64, 4, 20, &mut rng(2)).unwrap(),
        ),
        // p = 0 and p = 0.005 at n = 200 (about 100 sampled edges, fewer
        // than a spanning tree's 199) always take the connectivity repair.
        (
            "erdos-renyi p=0 repair",
            generators::erdos_renyi(30, 0.0, 2, &mut rng(3)).unwrap(),
        ),
        (
            "erdos-renyi sparse repair",
            generators::erdos_renyi(200, 0.005, 1, &mut rng(4)).unwrap(),
        ),
        (
            "erdos-renyi geometric 0.1",
            generators::erdos_renyi(120, 0.1, 3, &mut rng(5)).unwrap(),
        ),
        (
            "erdos-renyi geometric 0.25",
            generators::erdos_renyi(60, 0.25, 1, &mut rng(6)).unwrap(),
        ),
        (
            "erdos-renyi per-pair 0.26",
            generators::erdos_renyi(60, 0.26, 1, &mut rng(7)).unwrap(),
        ),
        (
            "erdos-renyi per-pair 0.7",
            generators::erdos_renyi(40, 0.7, 2, &mut rng(8)).unwrap(),
        ),
        // d = 1 is a perfect matching, so the component chaining always runs;
        // d = 6 on 12 nodes draws duplicate stubs that the degree repair fills.
        (
            "random regular d=1 repair",
            generators::random_regular(20, 1, 1, &mut rng(9)).unwrap(),
        ),
        (
            "random regular d=2",
            generators::random_regular(40, 2, 2, &mut rng(10)).unwrap(),
        ),
        (
            "random regular d=6 dense",
            generators::random_regular(12, 6, 1, &mut rng(11)).unwrap(),
        ),
        (
            "random regular d=8",
            generators::random_regular(256, 8, 1, &mut rng(12)).unwrap(),
        ),
    ];
    for (seed, (name, scheme)) in (20u64..).zip(schemes) {
        cases.push((name, scheme.apply(&base, &mut rng(seed)).unwrap()));
    }
    let mixed = LatencyScheme::PowerLawClasses { classes: 4 }
        .apply(&base, &mut rng(30))
        .unwrap();
    cases.push(("latency filtered", mixed.latency_filtered(4)));
    cases.push((
        "gadget singleton",
        gadgets::gadget(6, 2, 9, TargetPredicate::Singleton, false, &mut rng(31))
            .unwrap()
            .graph,
    ));
    cases.push((
        "gadget symmetric random",
        gadgets::gadget(
            8,
            1,
            5,
            TargetPredicate::Random { p: 0.3 },
            true,
            &mut rng(32),
        )
        .unwrap()
        .graph,
    ));
    cases.push((
        "gadget with target",
        gadgets::gadget_with_target(5, 1, 7, [(0, 1), (3, 3)].into_iter().collect(), true)
            .unwrap()
            .graph,
    ));
    cases.push((
        "theorem 9 network",
        gadgets::theorem9_network(24, 4, &mut rng(33))
            .unwrap()
            .graph,
    ));
    cases.push((
        "theorem 10 network",
        gadgets::theorem10_network(8, 0.3, 3, &mut rng(34))
            .unwrap()
            .graph,
    ));
    cases.push((
        "theorem 13 ring",
        gadgets::theorem13_ring(4, 3, 5, &mut rng(35))
            .unwrap()
            .graph,
    ));
    cases
}

/// Edge-list digests of `digest_cases()`, pinned so that a refactor of the
/// builder, the validator or a generator cannot change which graphs the
/// experiments run on.
const EDGE_DIGESTS: &[(&str, u64)] = &[
    ("clique 5", 0xb1caa49318d46ae0),
    ("clique 33", 0x8066f535444d9e84),
    ("path 2", 0xa93a997475731445),
    ("path 40", 0x5062add6cbb549ab),
    ("cycle 3", 0xd628cf58324485a4),
    ("cycle 50", 0x491163c599af8357),
    ("star 2", 0x6b450b625f948003),
    ("star 64", 0x995ef83167661864),
    ("grid 1x5", 0x70a9dcb77084d224),
    ("grid 7x9", 0xb602cc60b08a67b4),
    ("binary tree 1", 0x89cd31291d2aefa4),
    ("binary tree 45", 0x8c78ab2c56a3fec4),
    ("complete bipartite 1x4", 0x9cc9a52731d166a4),
    ("complete bipartite 7x9", 0xfeb9fb0a2a306654),
    ("ring of cliques 2x3", 0xe955f369d89d6d47),
    ("ring of cliques 6x5", 0xab67235af76788a3),
    ("dumbbell 2", 0x85fb59141b3f44e5),
    ("dumbbell 12", 0xef3fc511400bebfa),
    ("barbell 2x1", 0xa4f6201d262e8f06),
    ("barbell 8x4", 0x72f1404b7cfdc379),
    ("slow-cut expander 16", 0xdffaf882306e8456),
    ("slow-cut expander 64", 0x87a969d0eab39245),
    ("erdos-renyi p=0 repair", 0xccb51088ae0f9db8),
    ("erdos-renyi sparse repair", 0xfbfca4b864255ad0),
    ("erdos-renyi geometric 0.1", 0xd378d1feb0d9a286),
    ("erdos-renyi geometric 0.25", 0x29e9d4a469be24e3),
    ("erdos-renyi per-pair 0.26", 0x7d36d05aa1e350b2),
    ("erdos-renyi per-pair 0.7", 0x5fa2278cc99544d5),
    ("random regular d=1 repair", 0xad26b79e70ce445d),
    ("random regular d=2", 0xfecb90bc33e3e404),
    ("random regular d=6 dense", 0xeed525253d6adda9),
    ("random regular d=8", 0xc4432b1d8db91b4a),
    ("apply uniform", 0xe261ecd3521b17c5),
    ("apply two-level", 0x7372435cd68a2c4f),
    ("apply power-law", 0x82f422f9042e1a26),
    ("apply uniform-random", 0x7743323401f2b6ab),
    ("apply bimodal-fraction", 0xaa0840804b30f096),
    ("latency filtered", 0x0ff059513146a31d),
    ("gadget singleton", 0x93c66f4c897ea7e2),
    ("gadget symmetric random", 0x5929dda49c1291d1),
    ("gadget with target", 0x7e477b770cd1d349),
    ("theorem 9 network", 0xffe89c40f658aa58),
    ("theorem 10 network", 0x43cd59c6cd451976),
    ("theorem 13 ring", 0x674727986d0525a9),
];

#[test]
fn generators_build_the_pinned_edge_lists() {
    let got: Vec<(&str, u64)> = digest_cases()
        .iter()
        .map(|(name, g)| (*name, edge_digest(g)))
        .collect();
    let table: String = got
        .iter()
        .map(|(name, digest)| format!("    (\"{name}\", {digest:#018x}),\n"))
        .collect();
    assert_eq!(got, EDGE_DIGESTS, "edge lists changed; computed:\n{table}");
}
