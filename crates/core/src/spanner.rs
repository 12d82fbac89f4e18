//! Directed Baswana–Sen spanner construction (Section 4.1.2, Lemma 19,
//! Theorem 20 of the paper).
//!
//! The spanner-broadcast algorithm needs a subgraph that (a) approximates all
//! distances within an `O(log n)` factor, (b) has only `O(n log n)` edges, and
//! (c) admits an orientation in which every node has `O(log n)` out-edges.
//! The paper obtains it by running the Baswana–Sen `(2k−1)`-spanner
//! construction with `k = log n` and orienting every spanner edge out of the
//! node that added it.
//!
//! In the distributed setting each node first collects its `log n`-hop
//! neighborhood (via repeated `D`-DTG) and then simulates this construction
//! locally; the construction itself is therefore a *local computation* whose
//! communication cost is accounted separately in
//! [`spanner_broadcast`](crate::spanner_broadcast).  This module implements
//! the computation.

use gossip_graph::spanner::DirectedSpanner;
use gossip_graph::{EdgeId, Graph, Latency, NodeId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Edge weight used for comparisons: `(latency, edge id)` — the paper assumes
/// distinct weights and breaks ties by unique identifiers.
type Weight = (Latency, u32);

fn weight(g: &Graph, e: EdgeId) -> Weight {
    (g.latency(e), e.index() as u32)
}

/// Flat per-center "best edge" table, reused across vertices.
///
/// The construction repeatedly asks, per vertex, for the least-weight alive
/// edge towards each adjacent cluster.  Centers are node ids, so instead of
/// a fresh `BTreeMap<NodeId, _>` per vertex (the former hot spot of the
/// whole spanner setup — `O(deg · log deg)` allocations and pointer chasing
/// per vertex) this keeps one `n`-sized table stamped with an epoch per
/// vertex: clearing is `O(1)`, lookups are array indexing.
///
/// Iteration order *is* observable downstream — the order edges enter the
/// spanner fixes the round-robin broadcast schedule — so
/// [`sorted_centers`](Self::sorted_centers) returns the touched centers in
/// ascending id order, which is exactly the `BTreeMap` iteration order the
/// previous implementation had: the constructed spanner is identical.
struct BestEdgeTable {
    entry: Vec<(Weight, EdgeId)>,
    stamp: Vec<u32>,
    epoch: u32,
    touched: Vec<usize>,
}

impl BestEdgeTable {
    fn new(n: usize) -> Self {
        BestEdgeTable {
            entry: vec![((0, 0), EdgeId::new(0)); n],
            stamp: vec![0; n],
            epoch: 0,
            touched: Vec::new(),
        }
    }

    /// Starts a fresh per-vertex round, forgetting all previous offers.
    fn clear(&mut self) {
        self.epoch += 1;
        self.touched.clear();
    }

    /// Offers `candidate` as an edge towards cluster `center`, keeping the
    /// least-weight offer per center.
    fn offer(&mut self, center: NodeId, candidate: (Weight, EdgeId)) {
        let c = center.index();
        if self.stamp[c] != self.epoch {
            self.stamp[c] = self.epoch;
            self.entry[c] = candidate;
            self.touched.push(c);
        } else if candidate.0 < self.entry[c].0 {
            self.entry[c] = candidate;
        }
    }

    fn is_empty(&self) -> bool {
        self.touched.is_empty()
    }

    /// The best offer towards `center`, if any was made this round.
    fn get(&self, center: NodeId) -> Option<(Weight, EdgeId)> {
        let c = center.index();
        if self.stamp.get(c) != Some(&self.epoch) {
            return None;
        }
        self.entry.get(c).copied()
    }

    /// Sorts the touched centers into ascending id order — the observable
    /// order edges are inserted in (sorting `O(deg log deg)` once per vertex
    /// beats per-edge tree inserts).  Call before iterating `touched`.
    fn sort_touched(&mut self) {
        self.touched.sort_unstable();
    }
}

/// Builds a directed `(2k−1)`-spanner of `g` with the Baswana–Sen clustering
/// algorithm, orienting each selected edge out of the node that selected it.
///
/// `k` is the number of clustering iterations; `k = ⌈log₂ n⌉` gives the
/// `O(log n)`-stretch, `O(log n)`-out-degree spanner used by the paper
/// (see [`log_spanner`] for that default).
///
/// # Panics
///
/// Panics if `k == 0`.
pub fn baswana_sen(g: &Graph, k: usize, seed: u64) -> DirectedSpanner {
    assert!(k >= 1, "the spanner parameter k must be at least 1");
    let n = g.node_count();
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut spanner = DirectedSpanner::new(g);
    // Sampling probability n^{-1/k}.
    let p = (n as f64).powf(-1.0 / k as f64);

    // clustering[v] = Some(center) if v currently belongs to a cluster.
    let mut clustering: Vec<Option<NodeId>> = g.nodes().map(Some).collect();
    let mut alive: Vec<bool> = vec![true; g.edge_count()];

    let mut best = BestEdgeTable::new(n);
    // sampled[c] = whether cluster center c survives this iteration.
    let mut sampled: Vec<bool> = vec![false; n];

    for _iteration in 1..k {
        // 1. Sample the clusters that survive this iteration (ascending
        // center order, so RNG consumption matches run to run).
        let mut centers: Vec<NodeId> = clustering.iter().flatten().copied().collect();
        centers.sort_unstable();
        centers.dedup();
        sampled.iter_mut().for_each(|s| *s = false);
        for &c in &centers {
            sampled[c.index()] = rng.gen_bool(p);
        }

        let mut next_clustering: Vec<Option<NodeId>> = vec![None; n];
        for v in 0..n {
            if let Some(c) = clustering[v] {
                if sampled[c.index()] {
                    next_clustering[v] = Some(c);
                }
            }
        }

        // 2. Every vertex outside the sampled clusters picks its spanner edges.
        // Indexing is intentional: `next_clustering[v]` is assigned inside the
        // loop body (Rule 2), so an iterator borrow would not compile.
        #[allow(clippy::needless_range_loop)]
        for v in 0..n {
            if next_clustering[v].is_some() {
                continue;
            }
            let vid = NodeId::new(v);
            // Best (least-weight) alive edge towards each adjacent cluster.
            best.clear();
            for &(w, e) in g.neighbor_slice(vid) {
                if !alive[e.index()] {
                    continue;
                }
                if let Some(c) = clustering[w.index()] {
                    best.offer(c, (weight(g, e), e));
                }
            }
            if best.is_empty() {
                continue;
            }
            best.sort_touched();
            // Sampled adjacent cluster with the overall least-weight edge
            // (weights are distinct — they embed the edge id — so the
            // minimum is unique and iteration order does not matter here).
            let best_sampled = best
                .touched
                .iter()
                .filter(|&&c| sampled[c])
                .min_by_key(|&&c| best.entry[c].0)
                .map(|&c| (NodeId::new(c), best.entry[c]));

            match best_sampled {
                None => {
                    // Rule 1: no sampled neighbor cluster — keep one edge per
                    // adjacent cluster and discard everything else.
                    for &c in &best.touched {
                        spanner.add_oriented(g, vid, best.entry[c].1);
                    }
                    for &(w, e) in g.neighbor_slice(vid) {
                        if alive[e.index()] && clustering[w.index()].is_some() {
                            alive[e.index()] = false;
                        }
                    }
                }
                Some((c_star, (w_star, e_star))) => {
                    // Rule 2: join the best sampled cluster, keep one edge to
                    // every strictly cheaper cluster, discard the rest.
                    spanner.add_oriented(g, vid, e_star);
                    next_clustering[v] = Some(c_star);
                    for &c in &best.touched {
                        let (w, e) = best.entry[c];
                        if NodeId::new(c) != c_star && w < w_star {
                            spanner.add_oriented(g, vid, e);
                        }
                    }
                    for &(nbr, e) in g.neighbor_slice(vid) {
                        if !alive[e.index()] {
                            continue;
                        }
                        if let Some(c) = clustering[nbr.index()] {
                            let discard = c == c_star
                                || best.get(c).map(|(w, _)| w < w_star).unwrap_or(false);
                            if discard {
                                alive[e.index()] = false;
                            }
                        }
                    }
                }
            }
        }

        clustering = next_clustering;

        // 3. Remove intra-cluster edges.
        for e in g.edge_ids() {
            if !alive[e.index()] {
                continue;
            }
            let rec = g.edge(e);
            if let (Some(a), Some(b)) = (clustering[rec.u.index()], clustering[rec.v.index()]) {
                if a == b {
                    alive[e.index()] = false;
                }
            }
        }
    }

    // Phase 2: every vertex keeps one least-weight alive edge to each adjacent
    // surviving cluster.
    for v in 0..n {
        let vid = NodeId::new(v);
        best.clear();
        for &(w, e) in g.neighbor_slice(vid) {
            if !alive[e.index()] {
                continue;
            }
            if let Some(c) = clustering[w.index()] {
                if clustering[v] == Some(c) {
                    continue; // intra-cluster edges are never needed
                }
                best.offer(c, (weight(g, e), e));
            }
        }
        best.sort_touched();
        for &c in &best.touched {
            spanner.add_oriented(g, vid, best.entry[c].1);
        }
    }

    spanner
}

/// The spanner the paper's algorithm uses: Baswana–Sen with `k = ⌈log₂ n⌉`,
/// giving `O(log n)` stretch, `O(n log n)` edges and `O(log n)` out-degree
/// with high probability (Lemma 19 / Theorem 20).
pub fn log_spanner(g: &Graph, seed: u64) -> DirectedSpanner {
    baswana_sen(g, ceil_log2(g.node_count()) as usize, seed)
}

/// `⌈log₂ n⌉`, at least 1: the `k` of [`log_spanner`], and the number of
/// `D`-DTG repetitions Spanner Broadcast charges for discovery.
pub(crate) fn ceil_log2(n: usize) -> u64 {
    u64::from(usize::BITS - (n.max(2) - 1).leading_zeros())
}

/// Expected stretch bound `2k − 1` for a given `k`.
pub fn stretch_bound(k: usize) -> usize {
    2 * k - 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use gossip_graph::generators;
    use gossip_graph::metrics;

    fn check_spanner(g: &Graph, k: usize, seed: u64) {
        let s = baswana_sen(g, k, seed);
        let bound = stretch_bound(k) as f64;
        let stretch = s.stretch(g).expect("spanner must preserve connectivity");
        assert!(
            stretch <= bound + 1e-9,
            "stretch {stretch} exceeds 2k-1 = {bound} (n = {}, k = {k})",
            g.node_count()
        );
    }

    #[test]
    fn spanner_of_clique_has_valid_stretch_and_few_edges() {
        let g = generators::clique(32, 1).unwrap();
        for seed in [1, 2, 3] {
            let s = log_spanner(&g, seed);
            assert!(s.stretch(&g).is_some());
            // O(n log n) edges: far below the 496 clique edges.
            assert!(
                s.edge_count() <= 32 * 6 * 2,
                "spanner too dense: {} edges",
                s.edge_count()
            );
        }
    }

    #[test]
    fn stretch_respects_2k_minus_1_on_random_graphs() {
        let mut rng = SmallRng::seed_from_u64(77);
        for n in [20, 40, 60] {
            let g = generators::erdos_renyi(n, 0.2, 1, &mut rng).unwrap();
            check_spanner(&g, 2, 5);
            check_spanner(&g, 3, 5);
        }
    }

    #[test]
    fn stretch_respects_bound_with_weights() {
        let mut rng = SmallRng::seed_from_u64(78);
        let base = generators::erdos_renyi(30, 0.3, 1, &mut rng).unwrap();
        let g = gossip_graph::latency::LatencyScheme::UniformRandom { min: 1, max: 20 }
            .apply(&base, &mut rng)
            .unwrap();
        check_spanner(&g, 3, 9);
        check_spanner(&g, 4, 9);
    }

    #[test]
    fn out_degree_is_logarithmic() {
        let mut rng = SmallRng::seed_from_u64(79);
        let g = generators::erdos_renyi(128, 0.25, 1, &mut rng).unwrap();
        let s = log_spanner(&g, 3);
        // Δ of G(128, 0.25) is ≈ 40; the oriented spanner should stay near log n.
        let max_out = s.max_out_degree();
        assert!(
            max_out <= 28,
            "max out-degree {max_out} is not O(log n) for n = 128 (Δ = {})",
            g.max_degree()
        );
    }

    #[test]
    fn spanner_preserves_connectivity_on_sparse_graphs() {
        for g in [
            generators::path(20, 3).unwrap(),
            generators::cycle(20, 2).unwrap(),
            generators::binary_tree(31, 1).unwrap(),
            generators::ring_of_cliques(4, 5, 7).unwrap(),
        ] {
            let s = log_spanner(&g, 11);
            assert!(s.stretch(&g).is_some(), "spanner disconnected the graph");
            // A tree/cycle spanner keeps essentially every edge.
            assert!(s.edge_count() >= g.node_count() - 1);
        }
    }

    #[test]
    fn spanner_diameter_is_within_logn_factor() {
        let mut rng = SmallRng::seed_from_u64(80);
        let g = generators::slow_cut_expander(64, 6, 10, &mut rng).unwrap();
        let s = log_spanner(&g, 21);
        let sg = s.to_graph(&g).unwrap();
        let d_g = metrics::weighted_diameter(&g).unwrap();
        let d_s = metrics::weighted_diameter(&sg).unwrap();
        let k = 7; // ceil(log2 64) + 1
        assert!(
            d_s <= d_g * (2 * k - 1),
            "spanner diameter {d_s} too large vs graph diameter {d_g}"
        );
    }

    #[test]
    fn k_one_keeps_an_edge_per_neighbor_cluster() {
        // With k = 1 the algorithm is just phase 2 on singleton clusters: it
        // must keep every edge (one per adjacent cluster = one per neighbor).
        let g = generators::cycle(6, 2).unwrap();
        let s = baswana_sen(&g, 1, 1);
        assert_eq!(s.edge_count(), g.edge_count());
        let stretch = s.stretch(&g).unwrap();
        assert!((stretch - 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn k_zero_panics() {
        let g = generators::cycle(4, 1).unwrap();
        let _ = baswana_sen(&g, 0, 1);
    }
}

#[cfg(test)]
mod equivalence_with_btreemap_impl {
    use super::*;
    use gossip_graph::generators;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    /// 64-bit FNV-1a digests of the `BTreeMap`-based construction the flat
    /// tables replaced, one per case of the grid below in loop order (graph,
    /// then seed, then `k`).  Each digest covers the spanner's edge count
    /// followed by every node's out-edges `(target, edge)` in order.
    ///
    /// Generated at commit `e753c2c`, whose copy of this test still asserted
    /// every flat-table spanner equal (edge count and every out-edge list) to
    /// the frozen `BTreeMap` implementation, by extending its loop to assert
    /// the two digests equal and print the old one, then running
    /// `cargo test -p gossip-core --lib equivalence_with_btreemap_impl -- --nocapture`.
    const GOLDEN: [u64; 72] = [
        // clique(48, 1)
        0x50c1085162823ec1,
        0x82f9d7351797f7e9,
        0x93612fa2e6f7a7b9,
        0xadc3fe03df3e2df6,
        0x50c1085162823ec1,
        0x5ebd22fae2a82f75,
        0xd2c489e98e02180e,
        0x4032d96d5a3ddd26,
        0x50c1085162823ec1,
        0x96c30d904c88053b,
        0x4d3d183deab69402,
        0x78d6a57fd5799924,
        // ring_of_cliques(4, 8, 9)
        0x278ca1624299666e,
        0xb24976600e813be8,
        0xd70d367d109f1289,
        0x4c0431499ca92c3c,
        0x278ca1624299666e,
        0x69dfa92ed7762fdd,
        0x92a6cf1d25a102fb,
        0x48e9205ecff2311b,
        0x278ca1624299666e,
        0xe407ee9ba340b163,
        0xb82ecdbac7fe6bac,
        0x9671175945bcb8b5,
        // binary_tree(63, 2)
        0x67cfdfe228445ee5,
        0x3f2d6023175e2d9d,
        0x553b47ea02931355,
        0xa96e08e6a53fe05d,
        0x67cfdfe228445ee5,
        0x36be27094926289d,
        0x1d51d413ade09d1c,
        0xb47655a5c5c49f98,
        0x67cfdfe228445ee5,
        0x6ac23aa70b72c34a,
        0x9a3ef9d245634386,
        0xce892b715a688203,
        // Erdős–Rényi n = 30
        0x1219594e711ccec7,
        0x24388fb3451792cb,
        0xd200eee7a8a91ea2,
        0x928da7d945d94c89,
        0x1219594e711ccec7,
        0x84fec75841cffd22,
        0xcacab8589ff19117,
        0x35ab312a10b89b03,
        0x1219594e711ccec7,
        0x66aea24f556cfe14,
        0xf5091dcb49311912,
        0x1b7de2ee0c61c489,
        // Erdős–Rényi n = 60
        0x1b3757230c2b1c5f,
        0x58609e9c49a95807,
        0x9bd2db816e73db1e,
        0x3a511b8097e27bea,
        0x1b3757230c2b1c5f,
        0x8174a16b7ac7497f,
        0x2f80ef239ad815bf,
        0x5b03d5142e3a68f3,
        0x1b3757230c2b1c5f,
        0x9474d7a753b18329,
        0x79cf60267f4d56c7,
        0x90bfb16e4f6b9d0e,
        // Erdős–Rényi n = 90
        0x0b3e85c2d5a7dc71,
        0xdc295cb8edbe8c2b,
        0x26336ed431f262c6,
        0x04b037b61c1363d6,
        0x0b3e85c2d5a7dc71,
        0xee62ec353a1fdf85,
        0x90d6e9d8ecc6b9b0,
        0xc3b807de9c2d267f,
        0x0b3e85c2d5a7dc71,
        0x046c466a160f80e2,
        0x08921dbd3a28fafb,
        0xf1de709001558d3c,
    ];

    fn fnv1a(hash: u64, word: u64) -> u64 {
        word.to_le_bytes().iter().fold(hash, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    fn digest(g: &Graph, spanner: &DirectedSpanner) -> u64 {
        let mut hash = fnv1a(0xcbf2_9ce4_8422_2325, spanner.edge_count() as u64);
        for v in g.nodes() {
            for &(target, edge) in spanner.out_edges(v) {
                hash = fnv1a(fnv1a(hash, target.index() as u64), edge.index() as u64);
            }
        }
        hash
    }

    /// The flat-table rework must construct byte-identical spanners (same
    /// edges, same orientation, same out-edge order — the round-robin
    /// broadcast schedule depends on it) for every graph and seed.
    #[test]
    fn flat_tables_reproduce_the_btreemap_construction_exactly() {
        let mut graphs = vec![
            generators::clique(48, 1).unwrap(),
            generators::ring_of_cliques(4, 8, 9).unwrap(),
            generators::binary_tree(63, 2).unwrap(),
        ];
        let mut rng = SmallRng::seed_from_u64(1234);
        for n in [30, 60, 90] {
            let base = generators::erdos_renyi(n, 0.3, 1, &mut rng).unwrap();
            graphs.push(
                gossip_graph::latency::LatencyScheme::UniformRandom { min: 1, max: 12 }
                    .apply(&base, &mut rng)
                    .unwrap(),
            );
        }
        let mut golden = GOLDEN.iter();
        for g in &graphs {
            for seed in [1u64, 7, 42] {
                for k in [1usize, 2, 3, 6] {
                    assert_eq!(
                        Some(&digest(g, &baswana_sen(g, k, seed))),
                        golden.next(),
                        "spanner differs (n={}, k={k}, seed={seed})",
                        g.node_count()
                    );
                }
            }
        }
        assert_eq!(golden.next(), None, "every golden digest is checked");
    }
}
