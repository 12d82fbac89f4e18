//! Spectral sweep-cut estimation of conductance for larger graphs.
//!
//! Exactly minimising conductance over all cuts is NP-hard in general and the
//! exhaustive enumeration in [`crate::exact`] only scales to ~22 nodes.  For
//! larger graphs we fall back to the standard spectral heuristic: order nodes
//! by the Fiedler vector (the second eigenvector of the normalized adjacency
//! operator) and consider only the `n - 1` prefix cuts of that ordering.
//! Cheeger's inequality guarantees that the best sweep cut is within a
//! quadratic factor of the true conductance, and in practice it is very close;
//! the test-suite cross-checks the sweep estimates against exact values on
//! small graphs.

use gossip_graph::cut::Cut;
use gossip_graph::{Graph, Latency, NodeId};

/// Number of power-iteration steps used to approximate the Fiedler vector.
const POWER_ITERATIONS: usize = 200;

/// Computes an approximate Fiedler ordering of the nodes of `g`: nodes sorted
/// by their coordinate in the (approximate) second eigenvector of the
/// normalized adjacency operator `D^{-1/2} A D^{-1/2}`.
///
/// Edges with latency above `ell` are ignored when building the operator, so
/// the ordering reflects the connectivity structure of the subgraph `G_ℓ`
/// whose conductance we are trying to estimate.  Isolated nodes (in `G_ℓ`)
/// are placed at the end of the ordering.
pub fn fiedler_ordering(g: &Graph, ell: Latency) -> Vec<NodeId> {
    let n = g.node_count();
    // Degrees within G_ℓ.
    let mut deg = vec![0f64; n];
    for rec in g.edges() {
        if rec.latency <= ell {
            deg[rec.u.index()] += 1.0;
            deg[rec.v.index()] += 1.0;
        }
    }

    // Power iteration on M = D^{-1/2} A D^{-1/2}, deflating the top
    // eigenvector v1 ∝ D^{1/2}·1 (eigenvalue 1).
    let sqrt_deg: Vec<f64> = deg.iter().map(|&d| d.sqrt()).collect();
    let norm1: f64 = sqrt_deg.iter().map(|x| x * x).sum::<f64>().sqrt();
    let v1: Vec<f64> = sqrt_deg
        .iter()
        .map(|&x| if norm1 > 0.0 { x / norm1 } else { 0.0 })
        .collect();

    // The arcs of G_ℓ with their normalising weight `√deg(u)·√deg(v)`, built
    // once in edge order so every iteration accumulates in the same order.
    let arcs: Vec<(usize, usize, f64)> = g
        .edges()
        .filter(|rec| rec.latency <= ell)
        .map(|rec| {
            let (ui, vi) = (rec.u.index(), rec.v.index());
            (ui, vi, sqrt_deg[ui] * sqrt_deg[vi])
        })
        .collect();

    // Deterministic pseudo-random start vector (no RNG needed: a fixed
    // quasi-random sequence keeps the whole analysis reproducible).
    let mut x: Vec<f64> = (0..n)
        .map(|i| (i as f64 * 0.754_877_666 + 0.1).sin())
        .collect();
    let mut y = vec![0f64; n];

    for _ in 0..POWER_ITERATIONS {
        // Deflate: x <- x - (x·v1) v1
        let dot: f64 = x.iter().zip(&v1).map(|(a, b)| a * b).sum();
        for i in 0..n {
            x[i] -= dot * v1[i];
        }
        // y = M x (both endpoints of an arc have degree >= 1 in G_ℓ).
        y.fill(0.0);
        for &(ui, vi, weight) in &arcs {
            y[ui] += x[vi] / weight;
            y[vi] += x[ui] / weight;
        }
        // Shift by +I to make the dominant (in magnitude) eigenvalue the largest
        // algebraic one: y <- y + x.  This keeps the iteration from locking onto
        // the most negative eigenvalue of M.
        for i in 0..n {
            y[i] += x[i];
        }
        let norm: f64 = y.iter().map(|v| v * v).sum::<f64>().sqrt();
        if norm < 1e-15 {
            break;
        }
        for i in 0..n {
            x[i] = y[i] / norm;
        }
    }

    // Sweep coordinate: the Fiedler value is D^{-1/2} x.
    let key: Vec<f64> = (0..n)
        .map(|i| {
            if sqrt_deg[i] > 0.0 {
                x[i] / sqrt_deg[i]
            } else {
                f64::INFINITY
            }
        })
        .collect();
    let mut order: Vec<NodeId> = (0..n).map(NodeId::new).collect();
    order.sort_by(|a, b| {
        key[a.index()]
            .partial_cmp(&key[b.index()])
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.index().cmp(&b.index()))
    });
    order
}

/// The latency thresholds whose Fiedler orderings the sweep heuristic uses,
/// given the distinct latencies of the graph (ascending): all of them when
/// there are at most 16, otherwise every `(len/16 + 1)`-th one from the
/// smallest (at most 16 of them) plus the largest when the stride skips it —
/// so at most 17 thresholds in total.
pub(crate) fn sweep_thresholds(thresholds: Vec<Latency>) -> Vec<Latency> {
    if thresholds.len() <= 16 {
        return thresholds;
    }
    // Keep a spread of thresholds (always including the extremes).
    let step = thresholds.len() / 16 + 1;
    let mut kept: Vec<Latency> = thresholds.iter().copied().step_by(step).collect();
    if let Some(&last) = thresholds.last() {
        if kept.last() != Some(&last) {
            kept.push(last);
        }
    }
    kept
}

/// Generates the candidate cuts evaluated by the sweep heuristic:
///
/// * all prefix cuts of the Fiedler ordering of `G_ℓ` for each latency
///   threshold `ℓ`: every distinct latency of the graph when there are at
///   most 16, otherwise a stride of at most 16 of them plus the largest —
///   at most 17 thresholds (47 distinct latencies keep 16 + 1),
/// * every singleton cut `({v}, rest)`,
/// * the balanced "first half / second half" node-id cut (useful for the
///   planted-cut families where node ids encode the partition).
///
/// The analysis entry points visit exactly this set of cuts without
/// materialising it; this function is the per-cut reference.
pub fn candidate_cuts(g: &Graph) -> Vec<Cut> {
    let n = g.node_count();
    let mut cuts = Vec::new();

    let thresholds = sweep_thresholds(g.distinct_latencies());
    for ell in thresholds {
        let order = fiedler_ordering(g, ell);
        let mut membership = vec![false; n];
        for prefix in 0..n.saturating_sub(1) {
            membership[order[prefix].index()] = true;
            cuts.push(Cut::from_membership(g, membership.clone()));
        }
    }

    for v in g.nodes() {
        cuts.push(Cut::from_side(g, [v]));
    }

    if n >= 2 {
        cuts.push(Cut::from_side(g, (0..n / 2).map(NodeId::new)));
    }
    cuts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{weight_ell_conductance, Method};
    use gossip_graph::generators;

    #[test]
    fn fiedler_ordering_separates_dumbbell_sides() {
        let g = generators::dumbbell(6, 1).unwrap();
        let order = fiedler_ordering(&g, 1);
        // The first 6 nodes of the ordering should be exactly one clique.
        let first_half: Vec<usize> = order[..6].iter().map(|v| v.index()).collect();
        let all_left = first_half.iter().all(|&v| v < 6);
        let all_right = first_half.iter().all(|&v| v >= 6);
        assert!(
            all_left || all_right,
            "fiedler ordering mixed the two cliques: {first_half:?}"
        );
    }

    #[test]
    fn sweep_matches_exact_on_dumbbell() {
        let g = generators::dumbbell(5, 4).unwrap();
        let exact = weight_ell_conductance(&g, 4, Method::Exact).unwrap();
        let sweep = weight_ell_conductance(&g, 4, Method::SweepCut).unwrap();
        assert!((exact - sweep).abs() < 1e-9, "exact={exact} sweep={sweep}");
    }

    #[test]
    fn sweep_matches_exact_on_cycle_and_clique() {
        for g in [
            generators::cycle(10, 1).unwrap(),
            generators::clique(8, 1).unwrap(),
        ] {
            let exact = weight_ell_conductance(&g, 1, Method::Exact).unwrap();
            let sweep = weight_ell_conductance(&g, 1, Method::SweepCut).unwrap();
            // Sweep is an upper bound; on these symmetric families it should be exact.
            assert!(sweep >= exact - 1e-9);
            assert!(
                sweep <= exact * 1.5 + 1e-9,
                "sweep estimate {sweep} too far above exact {exact}"
            );
        }
    }

    #[test]
    fn candidate_cuts_are_proper() {
        let g = generators::ring_of_cliques(4, 4, 8).unwrap();
        let cuts = candidate_cuts(&g);
        assert!(!cuts.is_empty());
        assert!(cuts.iter().all(|c| c.is_proper()));
    }

    #[test]
    fn threshold_cap_keeps_at_most_sixteen_strided_plus_the_last() {
        let kept = |len: u64| sweep_thresholds((1..=len).collect());
        assert_eq!(kept(16), (1..=16).collect::<Vec<_>>());
        // 17 distinct: stride 2 reaches the last one itself.
        assert_eq!(kept(17).len(), 9);
        // 47 distinct: stride 3 gives 16 strided thresholds, then the last.
        assert_eq!(kept(47).len(), 17);
        assert_eq!(kept(47)[15..], [46, 47]);
        assert_eq!(kept(48).len(), 13);
        for len in 17..=400 {
            let k = kept(len);
            assert!(k.len() <= 17, "{len} distinct latencies kept {}", k.len());
            assert_eq!((k[0], k[k.len() - 1]), (1, len));
        }
    }

    #[test]
    fn candidate_cuts_sweep_seventeen_orderings_for_47_latencies() {
        let mut b = gossip_graph::GraphBuilder::new(48);
        for u in 0..47 {
            b.add_edge(u, u + 1, u as Latency + 1).unwrap();
        }
        let g = b.build().unwrap();
        assert_eq!(g.distinct_latencies().len(), 47);
        // 17 orderings × 47 prefix cuts, 48 singletons and the half cut.
        assert_eq!(candidate_cuts(&g).len(), 17 * 47 + 48 + 1);
    }

    #[test]
    fn sweep_handles_star_with_slow_spokes() {
        let g = generators::star(20, 16).unwrap();
        let value = weight_ell_conductance(&g, 16, Method::SweepCut).unwrap();
        // Every proper cut of a star has at least one cut edge and the smaller
        // side has volume >= 1, so the minimum is 1/side-volume; the best cut
        // puts half the leaves on one side: value = ~ (n/2)/(n/2) but volumes:
        // leaves have degree 1 so min volume = number of leaves on small side
        // and cut edges = same number -> 1.0; singleton leaf cut also gives 1.
        assert!((value - 1.0).abs() < 1e-9);
    }
}
