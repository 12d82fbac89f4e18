//! Random graph families (Erdős–Rényi and random regular graphs).

use rand::seq::SliceRandom;
use rand::Rng;

use crate::{Graph, GraphBuilder, GraphError, Latency};

/// Threshold below which [`erdos_renyi`] switches from per-pair Bernoulli
/// draws to Batagelj–Brandes geometric skipping.  Above it the expected skip
/// is so short that the dense path's simpler per-pair draw wins.
const GEOMETRIC_SKIP_MAX_P: f64 = 0.25;

/// Erdős–Rényi graph `G(n, p)` with uniform edge latency, conditioned on
/// connectivity: edges are drawn independently, and if the sample is
/// disconnected a spanning-path of "repair" edges is added so that the result
/// is always connected (the repair is noted to be rare for `p` above the
/// connectivity threshold `ln n / n`).
///
/// For `p <= 0.25` the sampler uses **Batagelj–Brandes geometric skipping**
/// (*Efficient generation of large random networks*, Phys. Rev. E 71, 2005):
/// instead of flipping a coin per pair it draws the gap to the next present
/// edge from the geometric distribution, running in `O(n + m)` expected time
/// instead of `O(n²)` — the difference between ~2 s and ~2 ms of setup per
/// sweep cell at `n = 32768`, where the old pair loop dominated the Huge-tier
/// Erdős–Rényi cells.  Denser graphs keep the classical per-pair path (the
/// expected skip approaches one pair, and `m` is `Θ(n²)` anyway).  The two
/// paths consume the RNG differently, so the same seed yields different —
/// equally valid — samples on either side of the threshold.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameters`] if `n == 0` or `p` is not in `[0, 1]`.
pub fn erdos_renyi<R: Rng + ?Sized>(
    n: usize,
    p: f64,
    latency: Latency,
    rng: &mut R,
) -> Result<Graph, GraphError> {
    if n == 0 {
        return Err(GraphError::InvalidParameters {
            reason: "erdos_renyi needs n >= 1".into(),
        });
    }
    if !(0.0..=1.0).contains(&p) {
        return Err(GraphError::InvalidParameters {
            reason: format!("edge probability {p} must lie in [0, 1]"),
        });
    }
    let mut b = GraphBuilder::new(n);
    // `log(1-p)` is finite and negative for representable p in (0, 1); a p
    // so small that `1 - p == 1.0` would make it 0 (and the skip ratio
    // ±inf), so such degenerate probabilities take the per-pair path.
    let log_q = (1.0 - p).ln();
    if p > 0.0 && p <= GEOMETRIC_SKIP_MAX_P && log_q < 0.0 {
        // Batagelj–Brandes: walk the ordered pairs (v, w), w < v, jumping
        // ahead by geometrically distributed gaps.
        let mut v: usize = 1;
        let mut w: isize = -1;
        while v < n {
            // Uniform in [0, 1); 1-r in (0, 1] keeps the logarithm finite.
            let r: f64 = rng.gen_range(0.0..1.0);
            let skip = ((1.0 - r).ln() / log_q).floor();
            // Cap the cast below isize::MAX so `w + 1 + skip` cannot
            // overflow (w >= -1): any skip past the remaining < n²/2 pairs
            // just walks v to n and ends the loop, so the clamp never
            // changes which edges a reachable skip produces.
            w += 1 + skip.min((isize::MAX / 2) as f64) as isize;
            while v < n && w >= v as isize {
                w -= v as isize;
                v += 1;
            }
            if v < n {
                b.add_edge(v, w as usize, latency)?;
            }
        }
    } else if p > 0.0 {
        for u in 0..n {
            for v in (u + 1)..n {
                if rng.gen_bool(p) {
                    b.add_edge(u, v, latency)?;
                }
            }
        }
    }
    // Connectivity repair: link one representative of every component to a
    // representative of component 0.  Nodes of distinct components share no
    // edge, so no repair edge is a duplicate.
    let g = b.clone().build()?;
    let (comp_count, component) = g.components();
    if comp_count == 1 {
        return Ok(g);
    }
    let mut representatives = vec![usize::MAX; comp_count];
    for (v, &c) in component.iter().enumerate() {
        if representatives[c] == usize::MAX {
            representatives[c] = v;
        }
    }
    for c in 1..comp_count {
        b.add_edge(representatives[0], representatives[c], latency)?;
    }
    b.build_connected()
}

/// Random `d`-regular (or near-regular) graph on `n` nodes with uniform edge
/// latency, built with the configuration model plus a simple repair pass.
///
/// The configuration model pairs up `n·d` stubs uniformly at random; self
/// loops and duplicate edges are discarded, which can leave nodes with degree
/// below `d`.  A repair pass then adds edges until every node has degree at
/// least `d` (pairing deficient nodes with each other first, then borrowing
/// low-degree non-neighbors), and a final pass links any disconnected
/// components, so the result is always connected with minimum degree `d` and
/// maximum degree `d` plus a small additive constant.  For the
/// expander use in the paper (Theorem 9's constant-degree regular expander), a
/// random regular graph is an expander with high probability.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameters`] if `d >= n`, if `d == 0`, or if
/// `n * d` is odd.
pub fn random_regular<R: Rng + ?Sized>(
    n: usize,
    d: usize,
    latency: Latency,
    rng: &mut R,
) -> Result<Graph, GraphError> {
    if d == 0 {
        return Err(GraphError::InvalidParameters {
            reason: "degree d must be >= 1".into(),
        });
    }
    if d >= n {
        return Err(GraphError::InvalidParameters {
            reason: format!("degree {d} must be smaller than the node count {n}"),
        });
    }
    if !(n * d).is_multiple_of(2) {
        return Err(GraphError::InvalidParameters {
            reason: "n * d must be even for a d-regular graph".into(),
        });
    }

    let mut b = GraphBuilder::new(n);
    // Every node's neighbors so far: the duplicate test of the configuration
    // model and the repair pass, and (by its length) the node's degree.
    let mut adjacent: Vec<Vec<usize>> = vec![Vec::new(); n];
    // Configuration model.
    let mut stubs: Vec<usize> = (0..n).flat_map(|v| std::iter::repeat_n(v, d)).collect();
    stubs.shuffle(rng);
    for pair in stubs.chunks_exact(2) {
        let (u, v) = (pair[0], pair[1]);
        if u != v && !adjacent[u].contains(&v) {
            adjacent[u].push(v);
            adjacent[v].push(u);
            b.add_edge(u, v, latency)?;
        }
    }

    // Repair pass: raise every node to degree >= d.  Deficient nodes are
    // paired with each other first; when no two deficient nodes can be
    // joined, the remaining one borrows the lowest-degree non-neighbor
    // (which can exceed d by a small additive constant, but never by much).
    loop {
        let mut deficient: Vec<usize> = (0..n).filter(|&v| adjacent[v].len() < d).collect();
        if deficient.is_empty() {
            break;
        }
        deficient.shuffle(rng);
        let mut paired = None;
        'pairs: for i in 0..deficient.len() {
            for j in (i + 1)..deficient.len() {
                if !adjacent[deficient[i]].contains(&deficient[j]) {
                    paired = Some((deficient[i], deficient[j]));
                    break 'pairs;
                }
            }
        }
        let (u, v) = match paired {
            Some(pair) => pair,
            None => {
                // A node with degree < d <= n - 1 always has a non-neighbor.
                let u = deficient[0];
                let v = (0..n)
                    .filter(|&w| w != u && !adjacent[u].contains(&w))
                    .min_by_key(|&w| adjacent[w].len())
                    .expect("a deficient node cannot be adjacent to all others");
                (u, v)
            }
        };
        adjacent[u].push(v);
        adjacent[v].push(u);
        b.add_edge(u, v, latency)?;
    }

    // Connectivity repair (adds at most one extra degree to a few nodes).
    let g = b.clone().build()?;
    let (comp_count, component) = g.components();
    if comp_count == 1 {
        return Ok(g);
    }
    // Chain the components through their minimum-degree nodes (a star on one
    // representative would concentrate up to `comp_count` extra edges on a
    // single node and break the near-regularity contract for small `d`).
    // Nodes of distinct components share no edge, so no link is a duplicate.
    let mut representatives = vec![usize::MAX; comp_count];
    for (v, &c) in component.iter().enumerate() {
        if representatives[c] == usize::MAX
            || adjacent[v].len() < adjacent[representatives[c]].len()
        {
            representatives[c] = v;
        }
    }
    for c in 1..comp_count {
        b.add_edge(representatives[c - 1], representatives[c], latency)?;
    }
    b.build_connected()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn erdos_renyi_is_connected_and_in_range() {
        let mut rng = SmallRng::seed_from_u64(11);
        for &p in &[0.05, 0.2, 0.6] {
            let g = erdos_renyi(50, p, 1, &mut rng).unwrap();
            assert_eq!(g.node_count(), 50);
            assert!(g.is_connected());
            assert!(g.edge_count() <= 50 * 49 / 2);
        }
    }

    #[test]
    fn erdos_renyi_p_zero_gives_repair_tree() {
        let mut rng = SmallRng::seed_from_u64(12);
        let g = erdos_renyi(10, 0.0, 1, &mut rng).unwrap();
        assert!(g.is_connected());
        assert_eq!(g.edge_count(), 9);
    }

    #[test]
    fn erdos_renyi_p_one_is_clique() {
        let mut rng = SmallRng::seed_from_u64(13);
        let g = erdos_renyi(8, 1.0, 3, &mut rng).unwrap();
        assert_eq!(g.edge_count(), 28);
        assert_eq!(g.max_latency(), 3);
    }

    #[test]
    fn erdos_renyi_rejects_bad_parameters() {
        let mut rng = SmallRng::seed_from_u64(14);
        assert!(erdos_renyi(0, 0.5, 1, &mut rng).is_err());
        assert!(erdos_renyi(5, 1.5, 1, &mut rng).is_err());
    }

    #[test]
    fn random_regular_degrees_are_near_target() {
        let mut rng = SmallRng::seed_from_u64(15);
        let d = 6;
        let g = random_regular(64, d, 1, &mut rng).unwrap();
        assert!(g.is_connected());
        for v in g.nodes() {
            let deg = g.degree(v);
            assert!(
                deg >= d - 2 && deg <= d + 2,
                "degree {deg} too far from {d}"
            );
        }
        // The average degree should be essentially d.
        let avg = g.total_volume() as f64 / g.node_count() as f64;
        assert!((avg - d as f64).abs() < 1.0);
    }

    #[test]
    fn random_regular_small_diameter_like_expander() {
        let mut rng = SmallRng::seed_from_u64(16);
        let g = random_regular(128, 6, 1, &mut rng).unwrap();
        let d = crate::metrics::weighted_diameter(&g).unwrap();
        // An expander on 128 nodes has diameter O(log n); allow slack.
        assert!(
            d <= 10,
            "diameter {d} too large for a degree-6 expander on 128 nodes"
        );
    }

    #[test]
    fn random_regular_rejects_bad_parameters() {
        let mut rng = SmallRng::seed_from_u64(17);
        assert!(random_regular(10, 0, 1, &mut rng).is_err());
        assert!(random_regular(10, 10, 1, &mut rng).is_err());
        assert!(random_regular(5, 3, 1, &mut rng).is_err()); // n*d odd
    }

    #[test]
    fn generators_are_deterministic_given_seed() {
        let g1 = erdos_renyi(30, 0.2, 1, &mut SmallRng::seed_from_u64(99)).unwrap();
        let g2 = erdos_renyi(30, 0.2, 1, &mut SmallRng::seed_from_u64(99)).unwrap();
        assert_eq!(g1, g2);
        let r1 = random_regular(30, 4, 1, &mut SmallRng::seed_from_u64(7)).unwrap();
        let r2 = random_regular(30, 4, 1, &mut SmallRng::seed_from_u64(7)).unwrap();
        assert_eq!(r1, r2);
    }

    /// The p-above-threshold path must stay byte-for-byte the classical
    /// per-pair Bernoulli sampler: fixed-seed edge-set regression against an
    /// in-test reimplementation of the original generator loop.
    #[test]
    fn dense_path_matches_the_original_bernoulli_sampler() {
        for (seed, n, p) in [(21u64, 40usize, 0.6f64), (22, 25, 0.3), (23, 12, 1.0)] {
            let g = erdos_renyi(n, p, 2, &mut SmallRng::seed_from_u64(seed)).unwrap();
            // The original generator, verbatim: every unordered pair in
            // (u, v) order, one gen_bool draw each, plus the spanning repair
            // (which the dense samples here never need).
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut expected: Vec<(usize, usize)> = Vec::new();
            for u in 0..n {
                for v in (u + 1)..n {
                    if rng.gen_bool(p) {
                        expected.push((u, v));
                    }
                }
            }
            let got: Vec<(usize, usize)> = g
                .edge_ids()
                .map(|e| {
                    let rec = g.edge(e);
                    (
                        rec.u.index().min(rec.v.index()),
                        rec.u.index().max(rec.v.index()),
                    )
                })
                .collect();
            let mut got_sorted = got.clone();
            got_sorted.sort_unstable();
            let mut expected_sorted = expected.clone();
            expected_sorted.sort_unstable();
            assert_eq!(
                got_sorted, expected_sorted,
                "dense ER path diverged from the original sampler (seed {seed}, p {p})"
            );
        }
    }

    /// The geometric-skipping path draws each pair independently with
    /// probability p: check the sample sizes against binomial concentration
    /// and the membership structure against basic sanity.
    #[test]
    fn geometric_skipping_matches_the_bernoulli_distribution() {
        let n = 400usize;
        let pairs = (n * (n - 1) / 2) as f64;
        for &p in &[0.01f64, 0.05, 0.25] {
            let mut total = 0.0f64;
            let trials = 20;
            for seed in 0..trials {
                let g = erdos_renyi(n, p, 1, &mut SmallRng::seed_from_u64(seed)).unwrap();
                assert!(g.is_connected());
                total += g.edge_count() as f64;
            }
            let mean = total / trials as f64;
            let expected = pairs * p;
            // 20-trial mean of Binomial(pairs, p): allow ~6 standard errors
            // plus the handful of repair edges sparse samples may add.
            let sd = (pairs * p * (1.0 - p) / trials as f64).sqrt();
            assert!(
                (mean - expected).abs() <= 6.0 * sd + (n as f64),
                "edge-count mean {mean} too far from {expected} at p = {p}"
            );
        }
    }

    /// Vanishingly small probabilities must not break the geometric skip:
    /// the skip length can exceed `isize::MAX` (clamped) and, below f64
    /// resolution, `ln(1-p)` degenerates to 0 (routed to the per-pair
    /// path).  Both must produce the plain connectivity-repair tree.
    #[test]
    fn vanishing_p_does_not_overflow_the_geometric_skip() {
        for &p in &[1e-19f64, 1e-300] {
            let mut rng = SmallRng::seed_from_u64(41);
            let g = erdos_renyi(100, p, 1, &mut rng).unwrap();
            assert!(g.is_connected());
            assert_eq!(g.edge_count(), 99, "repair tree only at p = {p}");
        }
    }

    /// Batagelj–Brandes never emits a duplicate pair or a self loop, and a
    /// large sparse instance builds without touching the O(n²) pair space.
    #[test]
    fn geometric_skipping_is_duplicate_free_at_scale() {
        use std::collections::HashSet;
        let mut rng = SmallRng::seed_from_u64(31);
        let g = erdos_renyi(20_000, 0.0005, 1, &mut rng).unwrap();
        assert!(g.is_connected());
        let mut seen = HashSet::new();
        for e in g.edge_ids() {
            let rec = g.edge(e);
            assert_ne!(rec.u, rec.v, "self loop");
            let key = (
                rec.u.index().min(rec.v.index()),
                rec.u.index().max(rec.v.index()),
            );
            assert!(seen.insert(key), "duplicate edge {key:?}");
        }
        // E[m] = 0.0005 * ~2*10^8 pairs ≈ 10^5.
        assert!(g.edge_count() > 80_000 && g.edge_count() < 120_000);
    }
}
