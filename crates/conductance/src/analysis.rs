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

/// The critical weighted conductance `φ*` and critical latency `ℓ*`
/// (Definition 2), together with the per-threshold profile used to find them.
#[derive(Debug, Clone, PartialEq)]
pub struct CriticalConductance {
    /// Critical weighted conductance `φ*`.
    pub phi_star: f64,
    /// Critical latency `ℓ*` (the threshold achieving the maximal `φ_ℓ/ℓ`).
    pub ell_star: Latency,
    /// `(ℓ, φ_ℓ)` for every candidate threshold considered, ascending in `ℓ`.
    pub profile: Vec<(Latency, f64)>,
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
    /// `(ℓ, φ_ℓ)` profile over candidate thresholds.
    pub profile: Vec<(Latency, f64)>,
}

impl ConductanceReport {
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

/// Weight-ℓ conductance `φ_ℓ(G)` (Definition 1): minimum over cuts of `φ_ℓ(C)`.
///
/// # Errors
///
/// Returns an error for graphs with fewer than two nodes, no edges, or when
/// exact enumeration is requested on a graph that is too large.
pub fn weight_ell_conductance(
    g: &Graph,
    ell: Latency,
    method: Method,
) -> Result<f64, ConductanceError> {
    minima(g, method)?
        .phi_ell(ell)
        .ok_or(ConductanceError::NoEdges)
}

/// Classical conductance: `φ_ℓ` with `ℓ = ℓ_max` (i.e. ignoring latencies).
///
/// # Errors
///
/// Same conditions as [`weight_ell_conductance`].
pub fn classical_conductance(g: &Graph, method: Method) -> Result<f64, ConductanceError> {
    weight_ell_conductance(g, g.max_latency().max(1), method)
}

/// Critical weighted conductance `φ*` and critical latency `ℓ*` (Definition 2):
/// over all candidate thresholds `ℓ` (the distinct latencies of the graph),
/// pick the one maximising `φ_ℓ / ℓ`.  Ties are broken towards the smaller
/// latency, which matches the paper's use of `ℓ*` as the cheapest threshold
/// achieving the critical ratio.
///
/// # Errors
///
/// Same conditions as [`weight_ell_conductance`].
pub fn critical_conductance(
    g: &Graph,
    method: Method,
) -> Result<CriticalConductance, ConductanceError> {
    critical_of(&minima(g, method)?)
}

fn critical_of(minima: &Minima) -> Result<CriticalConductance, ConductanceError> {
    let profile = minima.profile();
    let Some((&first, rest)) = profile.split_first() else {
        return Err(ConductanceError::NoEdges);
    };
    let mut best = first;
    for &(ell, phi) in rest {
        let ratio = phi / ell as f64;
        let best_ratio = best.1 / best.0 as f64;
        if ratio > best_ratio + 1e-15 {
            best = (ell, phi);
        }
    }
    Ok(CriticalConductance {
        phi_star: best.1,
        ell_star: best.0,
        profile,
    })
}

/// Average weighted conductance `φ_avg(G)` (Definition 4): minimum over cuts
/// of the average cut conductance.
///
/// # Errors
///
/// Same conditions as [`weight_ell_conductance`].
pub fn average_conductance(g: &Graph, method: Method) -> Result<f64, ConductanceError> {
    minima(g, method)?
        .phi_avg()
        .ok_or(ConductanceError::NoEdges)
}

/// Computes the full [`ConductanceReport`]: `φ*`, `ℓ*`, `φ_avg`, the classical
/// conductance, and the number of non-empty latency classes, from a single
/// pass over the cuts `method` considers.
///
/// # Errors
///
/// Same conditions as [`weight_ell_conductance`].
pub fn analyze(g: &Graph, method: Method) -> Result<ConductanceReport, ConductanceError> {
    let minima = minima(g, method)?;
    let critical = critical_of(&minima)?;
    Ok(ConductanceReport {
        phi_star: critical.phi_star,
        ell_star: critical.ell_star,
        phi_avg: minima.phi_avg().ok_or(ConductanceError::NoEdges)?,
        phi_classical: minima
            .phi_ell(g.max_latency().max(1))
            .ok_or(ConductanceError::NoEdges)?,
        nonempty_classes: nonempty_latency_classes(g),
        profile: critical.profile,
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
        let critical = critical_conductance(&g, Method::Exact).unwrap();
        // φ_ℓ is non-decreasing in ℓ.
        for w in critical.profile.windows(2) {
            assert!(w[0].1 <= w[1].1 + 1e-12);
        }
        let report = analyze(&g, Method::Exact).unwrap();
        assert!(report.theorem5_holds());
    }

    #[test]
    fn weight_ell_is_monotone_in_ell() {
        let g = generators::dumbbell(4, 10).unwrap();
        let phi_1 = weight_ell_conductance(&g, 1, Method::Exact).unwrap();
        let phi_5 = weight_ell_conductance(&g, 5, Method::Exact).unwrap();
        let phi_10 = weight_ell_conductance(&g, 10, Method::Exact).unwrap();
        assert!(phi_1 <= phi_5 + 1e-12);
        assert!(phi_5 <= phi_10 + 1e-12);
        assert_eq!(phi_1, 0.0); // bridge cut has no fast cut edge
        assert!(phi_10 > 0.0);
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
