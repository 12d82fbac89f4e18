//! Top-level conductance analysis API: `φ_ℓ`, `φ*`, `ℓ*`, `φ_avg`.

use gossip_graph::{Graph, Latency};

use crate::cut_eval::nonempty_latency_classes;
use crate::cut_sweep::{CutSweep, Minima};
use crate::exact::MAX_EXACT_NODES;
use crate::ConductanceError;

/// Largest node count for which [`Method::Auto`] enumerates every cut
/// ([`Method::Exact`]); larger graphs get [`Method::SweepCut`].
pub const MAX_AUTO_EXACT_NODES: usize = 14;

/// How the minimisation over cuts is carried out.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Method {
    /// Enumerate every cut (exact); only graphs up to
    /// [`MAX_EXACT_NODES`] nodes are accepted.
    Exact,
    /// Spectral sweep cuts plus targeted candidates (upper-bound estimate).
    SweepCut,
    /// Exact for graphs with at most [`MAX_AUTO_EXACT_NODES`] nodes, sweep
    /// cuts otherwise.
    #[default]
    Auto,
}

impl Method {
    fn resolve(self, g: &Graph) -> Method {
        match self {
            Method::Auto => {
                if g.node_count() <= MAX_AUTO_EXACT_NODES {
                    Method::Exact
                } else {
                    Method::SweepCut
                }
            }
            other => other,
        }
    }
}

/// Everything Section 2 of the paper defines, for one graph.
#[derive(Debug, Clone, PartialEq)]
pub struct ConductanceReport {
    /// Critical weighted conductance `φ*`.
    pub phi_star: f64,
    /// Critical latency `ℓ*`.
    pub ell_star: Latency,
    /// Average weighted conductance `φ_avg`.
    pub phi_avg: f64,
    /// Classical (latency-blind) conductance, i.e. `φ_ℓ` with `ℓ = ℓ_max`.
    pub phi_classical: f64,
    /// Number of non-empty latency classes `L`.
    pub nonempty_classes: usize,
    /// `(ℓ, φ_ℓ)` for every distinct latency `ℓ`, ascending.  `φ_ℓ` at any
    /// other `ℓ` is [`phi_ell`](Self::phi_ell).
    pub profile: Vec<(Latency, f64)>,
}

impl ConductanceReport {
    /// `φ_ℓ` at any `ell`: the profile entry of the largest latency `≤ ell`,
    /// and 0 below every latency (no cut edge counts there).
    pub fn phi_ell(&self, ell: Latency) -> f64 {
        let upto = self.profile.partition_point(|&(l, _)| l <= ell);
        self.profile[..upto].last().map_or(0.0, |&(_, phi)| phi)
    }

    /// Lower bound of Theorem 5: `φ*/(2ℓ*)`.
    pub fn theorem5_lower(&self) -> f64 {
        self.phi_star / (2.0 * self.ell_star as f64)
    }

    /// Upper bound of Theorem 5: `L · φ*/ℓ*`.
    pub fn theorem5_upper(&self) -> f64 {
        self.nonempty_classes as f64 * self.phi_star / self.ell_star as f64
    }

    /// Checks the Theorem 5 sandwich `φ*/(2ℓ*) ≤ φ_avg ≤ L·φ*/ℓ*`
    /// (with a small floating-point tolerance).
    pub fn theorem5_holds(&self) -> bool {
        self.theorem5_holds_with_tolerance(0.0)
    }

    /// Checks the Theorem 5 sandwich allowing a relative tolerance on both
    /// sides.  The sandwich is a theorem about the *exact* quantities; when
    /// `φ*` and `φ_avg` are estimated with sweep cuts each estimate is an
    /// upper bound on its own minimum, so the inequality can be violated by
    /// the estimation error — a relative tolerance of 10–20% absorbs that on
    /// the graph families used in the experiments.
    pub fn theorem5_holds_with_tolerance(&self, relative: f64) -> bool {
        let eps = 1e-9;
        let slack = 1.0 + relative;
        self.theorem5_lower() <= self.phi_avg * slack + eps
            && self.phi_avg <= self.theorem5_upper() * slack + eps
    }
}

/// Folds every cut `method` considers into one [`Minima`], visiting each cut
/// with a single node flip from the previous one.
fn minima(g: &Graph, method: Method) -> Result<Minima, ConductanceError> {
    if g.node_count() < 2 {
        return Err(ConductanceError::TooFewNodes);
    }
    if g.edge_count() == 0 {
        return Err(ConductanceError::NoEdges);
    }
    let mut cut = CutSweep::new(g);
    let mut minima = Minima::new(g);
    match method.resolve(g) {
        Method::Exact => {
            if g.node_count() > MAX_EXACT_NODES {
                return Err(ConductanceError::TooLargeForExact {
                    nodes: g.node_count(),
                    limit: MAX_EXACT_NODES,
                });
            }
            cut.enumerate(&mut minima);
        }
        Method::SweepCut => cut.sweep_candidates(&mut minima),
        Method::Auto => unreachable!("resolve() never returns Auto"),
    }
    Ok(minima)
}

/// Computes the full [`ConductanceReport`] from a single pass over the cuts
/// `method` considers: the `(ℓ, φ_ℓ)` profile, `φ*` and `ℓ*`, `φ_avg`, the
/// classical conductance, and the number of non-empty latency classes.
///
/// `φ*` and `ℓ*` (Definition 2) maximise `φ_ℓ / ℓ` over the profile's
/// thresholds (the distinct latencies of the graph).  Ties are broken towards
/// the smaller latency, which matches the paper's use of `ℓ*` as the cheapest
/// threshold achieving the critical ratio.  `φ_ℓ` at any other `ℓ` is
/// [`ConductanceReport::phi_ell`], the profile entry of the largest latency
/// `≤ ℓ` (0 below every latency), since the cut edges of latency `≤ ℓ` change
/// only at a distinct latency.
///
/// # Errors
///
/// Returns an error for graphs with fewer than two nodes, no edges, or when
/// exact enumeration is requested on a graph that is too large.
pub fn analyze(g: &Graph, method: Method) -> Result<ConductanceReport, ConductanceError> {
    let minima = minima(g, method)?;
    let profile = minima.profile();
    // The last threshold is `ℓ_max`, where every cut edge counts: its `φ_ℓ`
    // is the classical conductance.
    let (Some(&first), Some(&(_, phi_classical)), Some(phi_avg)) =
        (profile.first(), profile.last(), minima.phi_avg())
    else {
        return Err(ConductanceError::NoEdges);
    };
    let mut best = first;
    for &(ell, phi) in profile.iter().skip(1) {
        if phi / ell as f64 > best.1 / best.0 as f64 + 1e-15 {
            best = (ell, phi);
        }
    }
    Ok(ConductanceReport {
        phi_star: best.1,
        ell_star: best.0,
        phi_avg,
        phi_classical,
        nonempty_classes: nonempty_latency_classes(g),
        profile,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gossip_graph::generators;
    use gossip_graph::GraphBuilder;

    #[test]
    fn unit_latency_clique_matches_classical_conductance() {
        // For unit latencies φ* equals the classical conductance (the paper's
        // remark after Definition 2).
        let g = generators::clique(6, 1).unwrap();
        let report = analyze(&g, Method::Exact).unwrap();
        assert_eq!(report.ell_star, 1);
        assert!((report.phi_star - report.phi_classical).abs() < 1e-12);
        // K_6 balanced cut: 9 cut edges / min volume 15 = 0.6.
        assert!((report.phi_star - 0.6).abs() < 1e-12);
        // Unit latencies: φ_avg is half of φ.
        assert!((report.phi_avg - 0.3).abs() < 1e-12);
        assert!(report.theorem5_holds());
    }

    #[test]
    fn dumbbell_critical_latency_is_bridge_latency() {
        let g = generators::dumbbell(4, 16).unwrap();
        let report = analyze(&g, Method::Exact).unwrap();
        // φ_1 = 0 (the only fast edges are inside the cliques; the bridge cut
        // has no fast cut edge), so the max of φ_ℓ/ℓ is reached at ℓ = 16.
        assert_eq!(report.ell_star, 16);
        assert!(report.phi_star > 0.0);
        assert!(report.theorem5_holds());
    }

    #[test]
    fn fast_bridge_dumbbell_prefers_latency_one() {
        let g = generators::dumbbell(4, 1).unwrap();
        let report = analyze(&g, Method::Exact).unwrap();
        assert_eq!(report.ell_star, 1);
        assert!(report.theorem5_holds());
    }

    #[test]
    fn two_level_cycle_profile_is_monotone() {
        // 8-cycle alternating fast (1) / slow (8) edges.
        let mut b = GraphBuilder::new(8);
        for u in 0..8 {
            let latency = if u % 2 == 0 { 1 } else { 8 };
            b.add_edge(u, (u + 1) % 8, latency).unwrap();
        }
        let g = b.build().unwrap();
        let report = analyze(&g, Method::Exact).unwrap();
        // φ_ℓ is non-decreasing in ℓ.
        for w in report.profile.windows(2) {
            assert!(w[0].1 <= w[1].1 + 1e-12);
        }
        assert!(report.theorem5_holds());
    }

    #[test]
    fn weight_ell_is_monotone_in_ell() {
        let g = generators::dumbbell(4, 10).unwrap();
        let report = analyze(&g, Method::Exact).unwrap();
        let [(1, phi_1), (10, phi_10)] = report.profile[..] else {
            panic!("profile {:?}", report.profile);
        };
        assert_eq!(phi_1, 0.0); // bridge cut has no fast cut edge
        assert!(phi_10 > 0.0);
        assert_eq!(report.phi_classical, phi_10);
    }

    #[test]
    fn sweep_method_agrees_with_exact_on_small_graphs() {
        for g in [
            generators::dumbbell(5, 8).unwrap(),
            generators::cycle(10, 1).unwrap(),
            generators::ring_of_cliques(3, 4, 6).unwrap(),
        ] {
            let exact = analyze(&g, Method::Exact).unwrap();
            let sweep = analyze(&g, Method::SweepCut).unwrap();
            // Sweep minimises over a subset of cuts, so it can only over-estimate.
            assert!(sweep.phi_star >= exact.phi_star - 1e-9);
            assert!(sweep.phi_avg >= exact.phi_avg - 1e-9);
            // And it should be close on these structured families.
            assert!(sweep.phi_star <= exact.phi_star * 2.0 + 1e-9);
        }
    }

    #[test]
    fn auto_method_picks_something_reasonable_for_large_graphs() {
        let g = generators::ring_of_cliques(8, 8, 32).unwrap(); // 64 nodes
        let report = analyze(&g, Method::Auto).unwrap();
        assert!(report.phi_star > 0.0);
        assert!(report.phi_avg > 0.0);
        assert_eq!(report.nonempty_classes, 2);
    }

    #[test]
    fn errors_for_degenerate_graphs() {
        let single = GraphBuilder::new(1).build().unwrap();
        assert_eq!(
            analyze(&single, Method::Exact).unwrap_err(),
            ConductanceError::TooFewNodes
        );
        let edgeless = GraphBuilder::new(3).build().unwrap();
        assert_eq!(
            analyze(&edgeless, Method::Exact).unwrap_err(),
            ConductanceError::NoEdges
        );
        let big = generators::clique(30, 1).unwrap();
        assert!(matches!(
            analyze(&big, Method::Exact).unwrap_err(),
            ConductanceError::TooLargeForExact { .. }
        ));
    }

    #[test]
    fn disconnected_graph_has_zero_phi_star() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1, 1).unwrap();
        b.add_edge(2, 3, 1).unwrap();
        let g = b.build().unwrap();
        let report = analyze(&g, Method::Exact).unwrap();
        assert_eq!(report.phi_star, 0.0);
        assert_eq!(report.phi_avg, 0.0);
    }

    #[test]
    fn theorem5_bounds_are_ordered() {
        let g = generators::ring_of_cliques(3, 4, 9).unwrap();
        let report = analyze(&g, Method::Exact).unwrap();
        assert!(report.theorem5_lower() <= report.theorem5_upper());
        assert!(report.theorem5_holds());
    }
}
