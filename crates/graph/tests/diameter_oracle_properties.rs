//! Property tests for the shortest-path kernels ([`metrics::dijkstra`] and
//! [`metrics::dijkstra_batch`]), the exact diameter
//! ([`metrics::weighted_diameter`]) and the known-D bound
//! ([`metrics::diameter_upper_bound`]): across every graph family the sweep
//! draws from, the single-source kernel must equal a Bellman–Ford reference
//! over the edge list from every source, every column of a batch table must
//! equal both, the exact diameter must equal the all-pairs maximum of that
//! reference, and the bound must equal the diameter up to 1024 nodes and
//! lie in `[D, 2D]` above.

use gossip_graph::metrics::{
    self, diameter_upper_bound, dijkstra, dijkstra_batch, Distance, UNREACHABLE,
};
use gossip_graph::{generators, latency::LatencyScheme, Graph, GraphBuilder, NodeId};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Bellman–Ford from `source` over the edge list, with latencies as weights:
/// relax every edge in both directions until nothing changes, saturating
/// and clamping each sum at `UNREACHABLE − 1` as the kernel does.  It shares
/// no code with the kernel — no queue, no adjacency.
fn bellman_ford(g: &Graph, source: NodeId) -> Vec<Distance> {
    let mut dist = vec![UNREACHABLE; g.node_count()];
    dist[source.index()] = 0;
    let mut changed = true;
    while changed {
        changed = false;
        for e in g.edges() {
            for (from, to) in [(e.u, e.v), (e.v, e.u)] {
                let d = dist[from.index()];
                if d == UNREACHABLE {
                    continue;
                }
                let through = d.saturating_add(e.latency).min(UNREACHABLE - 1);
                if through < dist[to.index()] {
                    dist[to.index()] = through;
                    changed = true;
                }
            }
        }
    }
    dist
}

/// The reference diameter: the largest Bellman–Ford distance over every
/// source, or `None` if some node is unreachable.  On the way it asserts
/// that [`dijkstra`] (the kernel under test) matches the reference from every
/// source.
fn all_pairs_diameter(g: &Graph) -> Option<Distance> {
    let mut diameter = 0;
    for v in g.nodes() {
        let reference = bellman_ford(g, v);
        assert_eq!(
            dijkstra(g, v).as_ref(),
            Ok(&reference),
            "sweep from {v:?}, n={}",
            g.node_count()
        );
        diameter = reference.into_iter().fold(diameter, Distance::max);
    }
    // `UNREACHABLE` is the largest distance, so it wins the max exactly
    // when some pair is disconnected.
    (diameter != UNREACHABLE).then_some(diameter)
}

/// Sweeps `g` in one batch from each of `sources` and checks every column
/// of the table against [`dijkstra`] and the Bellman–Ford reference from its
/// source; then checks the exact diameter against the reference's all-pairs
/// maximum, `None` when `g` is disconnected.
fn check_batch(g: &Graph, sources: &[NodeId]) {
    let k = sources.len();
    let table = dijkstra_batch(g, sources).unwrap();
    assert_eq!(table.len(), g.node_count() * k);
    for (b, &source) in sources.iter().enumerate() {
        let column: Vec<Distance> = table.iter().skip(b).step_by(k).copied().collect();
        let reference = bellman_ford(g, source);
        assert_eq!(
            Ok(&column),
            dijkstra(g, source).as_ref(),
            "column {b} of {k}, from {source:?}"
        );
        assert_eq!(column, reference, "column {b} of {k}, from {source:?}");
    }
    assert_eq!(metrics::weighted_diameter(g), all_pairs_diameter(g));
}

/// `width` sources: the node ids from `first` on, wrapping around `g`'s
/// nodes, so distinct while `width ≤ n` and repeating after that.
fn spread_sources(g: &Graph, width: usize, first: usize) -> Vec<NodeId> {
    let n = g.node_count();
    (0..width).map(|b| NodeId::new((first + b) % n)).collect()
}

/// On a connected graph of at most 1024 nodes: the exact diameter equals
/// the all-pairs reference, and so does the known-D bound.
fn check_exact(g: &Graph) {
    let d = all_pairs_diameter(g).expect("test graphs are connected");
    assert_eq!(metrics::weighted_diameter(g), Some(d));
    assert_eq!(diameter_upper_bound(g), Some(d), "n={}", g.node_count());
}

/// On a connected graph of more than 1024 nodes: the known-D bound lies in
/// `[D, 2D]`.
fn check_upper_bound(g: &Graph) {
    let d = metrics::weighted_diameter(g).expect("test graphs are connected");
    let bound = diameter_upper_bound(g).expect("test graphs are connected");
    assert!(
        d <= bound && bound <= 2 * d,
        "bound {bound} vs D={d}, n={}",
        g.node_count()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn oracle_brackets_deterministic_families(
        n in 2usize..64,
        latency in 1u64..20,
        bridge in 1u64..50,
    ) {
        check_exact(&generators::clique(n, latency).unwrap());
        check_exact(&generators::cycle(n.max(3), latency).unwrap());
        check_exact(&generators::path(n, latency).unwrap());
        check_exact(&generators::star(n.max(3), latency).unwrap());
        check_exact(&generators::grid(2 + n % 7, 2 + n % 5, latency).unwrap());
        check_exact(&generators::binary_tree(n, latency).unwrap());
        check_exact(&generators::dumbbell(n.max(2), bridge).unwrap());
        check_exact(&generators::ring_of_cliques(3 + n % 4, n.clamp(2, 9), bridge).unwrap());
        check_exact(&generators::barbell(n.clamp(2, 12), 1 + n % 5, bridge).unwrap());
    }

    #[test]
    fn oracle_brackets_random_weighted_graphs(
        n in 2usize..48,
        p in 0.1f64..0.9,
        max_latency in 1u64..16,
        seed in 0u64..1_000,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = generators::erdos_renyi(n, p, 1, &mut rng).unwrap();
        let g = LatencyScheme::UniformRandom { min: 1, max: max_latency }
            .apply(&g, &mut rng)
            .unwrap();
        check_exact(&g);
    }

    /// Bimodal latencies, the shape the Erdős–Rényi benchmark workloads
    /// draw: many tied distances, where the pruning cuts the most sweeps.
    #[test]
    fn oracle_brackets_bimodal_random_graphs(
        n in 2usize..64,
        p in 0.05f64..0.5,
        slow in 2u64..64,
        slow_fraction in 0.0f64..1.0,
        seed in 0u64..1_000,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = generators::erdos_renyi(n, p, 1, &mut rng).unwrap();
        let g = LatencyScheme::BimodalFraction { slow, slow_fraction }
            .apply(&g, &mut rng)
            .unwrap();
        check_exact(&g);
    }

    /// Latencies near 2⁵³, on random graphs and on cycles (every node of a
    /// uniform cycle has the same eccentricity, so nothing is pruned).
    #[test]
    fn oracle_brackets_huge_latencies(
        n in 3usize..48,
        p in 0.05f64..0.9,
        seed in 0u64..1_000,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = generators::erdos_renyi(n, p, 1, &mut rng).unwrap();
        let g = LatencyScheme::UniformRandom { min: 1 << 52, max: 1 << 53 }
            .apply(&g, &mut rng)
            .unwrap();
        check_exact(&g);
        check_exact(&generators::cycle(n, 1 << 53).unwrap());
    }

    /// Batch tables against the single-source kernel and the reference, at
    /// widths 1, 2, 63 and 64, and 65 and 130 (two and three traversals), on sparse random graphs that are often
    /// disconnected, with latencies from unit through 2⁵³-scale to 2⁶²-scale
    /// (whose sums clamp at `UNREACHABLE − 1` after a few hops).
    #[test]
    fn batch_columns_match_the_reference(
        n in 2usize..100,
        p in 0.005f64..0.2,
        scale in 0usize..4,
        width in 0usize..6,
        first in 0usize..100,
        seed in 0u64..1_000,
    ) {
        let (min, max) = [(1, 1), (1, 16), (1 << 52, 1 << 53), (1 << 62, 1 << 63)][scale];
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut b = GraphBuilder::new(n);
        for u in 0..n {
            for v in u + 1..n {
                if rng.gen_bool(p) {
                    b.add_edge(u, v, rng.gen_range(min..=max)).unwrap();
                }
            }
        }
        let g = b.build().unwrap();
        check_batch(&g, &spread_sources(&g, [1, 2, 63, 64, 65, 130][width], first));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The known-D bound above its exact cutoff (below it, `check_exact`
    /// pins it to `D`), on a bimodal Erdős–Rényi graph, a cycle (every
    /// root's eccentricity is `D`), a grid and a dumbbell (two hubs of
    /// equal degree).
    #[test]
    fn upper_bound_lies_within_twice_the_diameter_above_1024_nodes(
        n in 1056usize..1120,
        slow in 2u64..32,
        seed in 0u64..1_000,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let er = generators::erdos_renyi(n, 0.01, 1, &mut rng).unwrap();
        let er = LatencyScheme::BimodalFraction { slow, slow_fraction: 0.25 }
            .apply(&er, &mut rng)
            .unwrap();
        check_upper_bound(&er);
        check_upper_bound(&generators::cycle(n, slow).unwrap());
        check_upper_bound(&generators::grid(n / 32, 32, 1).unwrap());
        check_upper_bound(&generators::dumbbell(n / 2, slow).unwrap());
    }
}

/// The boundary inputs: a single node, a disconnected graph, a bound `e + d`
/// that overflows `u64` and must saturate, and a cycle large enough that
/// every one of its sweeps is needed.
#[test]
fn exact_diameters_match_the_reference_on_boundary_graphs() {
    let single = GraphBuilder::new(1).build().unwrap();
    check_exact(&single);

    let mut b = GraphBuilder::new(4);
    b.add_edge(0, 1, 1).unwrap();
    b.add_edge(2, 3, 1).unwrap();
    let split = b.build().unwrap();
    assert_eq!(all_pairs_diameter(&split), None);
    assert_eq!(metrics::weighted_diameter(&split), None);

    let mut b = GraphBuilder::new(2);
    b.add_edge(0, 1, Distance::MAX - 1).unwrap();
    let saturating = b.build().unwrap();
    check_exact(&saturating);
    assert_eq!(
        metrics::weighted_diameter(&saturating),
        Some(Distance::MAX - 1)
    );

    check_exact(&generators::cycle(257, 3).unwrap());

    // Paths summing past `u64::MAX` clamp at `UNREACHABLE − 1`: 2⁶³ + 2⁶³ on
    // a path, and on a cycle whose 2⁶³ edges alternate with unit edges, so
    // clamped keys share the queue with small ones.
    let huge = Distance::MAX / 2 + 1;
    let clamped = generators::path(4, huge).unwrap();
    check_exact(&clamped);
    assert_eq!(metrics::weighted_diameter(&clamped), Some(UNREACHABLE - 1));
    let mut b = GraphBuilder::new(12);
    for i in 0..12 {
        b.add_edge(i, (i + 1) % 12, if i % 2 == 0 { huge } else { 1 })
            .unwrap();
    }
    let alternating = b.build().unwrap();
    check_exact(&alternating);

    // The same clamped graphs, a disconnected one and a cycle the exact
    // diameter sweeps in batches, through the batch kernel at every width,
    // and past 64 sources, where one table takes several traversals.
    let cycle = generators::cycle(130, 1 << 53).unwrap();
    for g in [&clamped, &alternating, &split, &single, &cycle] {
        for width in [1, 2, 63, 64, 65, 130] {
            check_batch(g, &spread_sources(g, width, 1));
        }
    }
    assert_eq!(metrics::weighted_diameter(&cycle), Some(65 << 53));
}

/// Many equal keys: uniform latencies on dense and regular graphs, where
/// every pop ties with many queued entries.
#[test]
fn kernel_matches_the_reference_under_ties() {
    check_exact(&generators::clique(40, 7).unwrap());
    check_exact(&generators::grid(12, 12, 1).unwrap());
    let mut rng = SmallRng::seed_from_u64(11);
    let g = generators::erdos_renyi(60, 0.3, 1, &mut rng).unwrap();
    check_exact(&LatencyScheme::Uniform(1 << 52).apply(&g, &mut rng).unwrap());
}
