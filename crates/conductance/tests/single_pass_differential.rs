//! Differential test of the single-pass conductance analysis against the
//! per-cut reference: materialise every cut the method considers
//! ([`candidate_cuts`] / [`enumerate_cuts`]), score each one with
//! [`phi_ell_of_cut`] / [`phi_avg_of_cut`], and take the minima.  [`analyze`]
//! must agree with the reference bit for bit, under both `Method::Exact` and
//! `Method::SweepCut` (and `Method::Auto`), and so must
//! [`ConductanceReport::phi_ell`] at any threshold.

use gossip_conductance::{
    analyze, candidate_cuts, enumerate_cuts, nonempty_latency_classes, phi_avg_of_cut,
    phi_ell_of_cut, ConductanceError, ConductanceReport, Method, MAX_AUTO_EXACT_NODES,
    MAX_EXACT_NODES,
};
use gossip_graph::cut::Cut;
use gossip_graph::latency::LatencyScheme;
use gossip_graph::{generators, Graph, GraphBuilder, Latency};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

// ---- the per-cut reference -------------------------------------------------

fn reference_cuts(g: &Graph, method: Method) -> Result<Vec<Cut>, ConductanceError> {
    if g.node_count() < 2 {
        return Err(ConductanceError::TooFewNodes);
    }
    if g.edge_count() == 0 {
        return Err(ConductanceError::NoEdges);
    }
    let exact = match method {
        Method::Exact => true,
        Method::SweepCut => false,
        Method::Auto => g.node_count() <= MAX_AUTO_EXACT_NODES,
    };
    if exact {
        enumerate_cuts(g)
    } else {
        Ok(candidate_cuts(g))
    }
}

fn minimum(values: impl Iterator<Item = f64>) -> Result<f64, ConductanceError> {
    let best = values.fold(f64::INFINITY, f64::min);
    if best.is_finite() {
        Ok(best)
    } else {
        Err(ConductanceError::NoEdges)
    }
}

fn reference_weight_ell(g: &Graph, cuts: &[Cut], ell: Latency) -> Result<f64, ConductanceError> {
    minimum(cuts.iter().filter_map(|c| phi_ell_of_cut(g, c, ell)))
}

fn reference_average(g: &Graph, cuts: &[Cut]) -> Result<f64, ConductanceError> {
    minimum(cuts.iter().filter_map(|c| phi_avg_of_cut(g, c)))
}

/// The reference `(φ*, ℓ*, profile)`.
type Critical = (f64, Latency, Vec<(Latency, f64)>);

fn reference_critical(g: &Graph, cuts: &[Cut]) -> Result<Critical, ConductanceError> {
    let profile: Vec<(Latency, f64)> = g
        .distinct_latencies()
        .into_iter()
        .filter_map(|ell| {
            reference_weight_ell(g, cuts, ell)
                .ok()
                .map(|phi| (ell, phi))
        })
        .collect();
    let Some(&first) = profile.first() else {
        return Err(ConductanceError::NoEdges);
    };
    let mut best = first;
    for &(ell, phi) in &profile[1..] {
        if phi / ell as f64 > best.1 / best.0 as f64 + 1e-15 {
            best = (ell, phi);
        }
    }
    Ok((best.1, best.0, profile))
}

// ---- bit-exact comparison --------------------------------------------------

fn profile_bits(profile: &[(Latency, f64)]) -> Vec<(Latency, u64)> {
    profile.iter().map(|&(l, phi)| (l, phi.to_bits())).collect()
}

type ReportBits = (u64, Latency, u64, u64, usize, Vec<(Latency, u64)>);

fn report_bits(r: &ConductanceReport) -> ReportBits {
    (
        r.phi_star.to_bits(),
        r.ell_star,
        r.phi_avg.to_bits(),
        r.phi_classical.to_bits(),
        r.nonempty_classes,
        profile_bits(&r.profile),
    )
}

/// Thresholds probing `φ_ℓ` off the profile: zero, the smallest and
/// largest latency, a few values strictly between two latencies of the graph,
/// and one beyond the maximum.
fn probe_thresholds(g: &Graph) -> Vec<Latency> {
    let latencies = g.distinct_latencies();
    let mut out = vec![0, g.max_latency() + 100];
    out.extend(latencies.first());
    out.extend(latencies.last());
    let gaps = latencies.windows(2).filter(|w| w[1] > w[0] + 1);
    out.extend(gaps.take(4).map(|w| w[0] + 1));
    out
}

/// Asserts that `analyze` equals the per-cut reference, bit for bit, on `g`
/// under `method`.
fn assert_single_pass_matches(g: &Graph, method: Method) {
    let cuts = reference_cuts(g, method);
    let want = cuts.as_ref().map_err(Clone::clone).and_then(|cuts| {
        let (phi_star, ell_star, profile) = reference_critical(g, cuts)?;
        Ok(ConductanceReport {
            phi_star,
            ell_star,
            phi_avg: reference_average(g, cuts)?,
            phi_classical: reference_weight_ell(g, cuts, g.max_latency().max(1))?,
            nonempty_classes: nonempty_latency_classes(g),
            profile,
        })
    });
    let report = analyze(g, method);
    assert_eq!(
        report.as_ref().map(report_bits),
        want.as_ref().map(report_bits),
        "analyze under {method:?}"
    );
    for ell in probe_thresholds(g) {
        let want = cuts
            .as_ref()
            .map_err(Clone::clone)
            .and_then(|cuts| reference_weight_ell(g, cuts, ell));
        assert_eq!(
            report
                .as_ref()
                .map(|r| r.phi_ell(ell).to_bits())
                .map_err(Clone::clone),
            want.map(f64::to_bits),
            "ConductanceReport::phi_ell at ell = {ell} under {method:?}"
        );
    }
}

fn assert_all_methods_match(g: &Graph) {
    let n = g.node_count();
    // The reference materialises all 2^{n-1} cuts, so `Exact` is compared up
    // to 12 nodes and past MAX_EXACT_NODES (where both sides report the size
    // limit).  `Auto` is compared up to one node past its switch point; on
    // larger graphs it is `SweepCut`, which is compared anyway.
    let exact = n <= 12 || n > MAX_EXACT_NODES;
    let auto = n <= MAX_AUTO_EXACT_NODES + 1;
    for (method, compare) in [
        (Method::Exact, exact),
        (Method::SweepCut, true),
        (Method::Auto, auto),
    ] {
        if compare {
            assert_single_pass_matches(g, method);
        }
    }
}

// ---- generated inputs ------------------------------------------------------

fn scheme(pick: usize) -> LatencyScheme {
    match pick {
        0 => LatencyScheme::TwoLevel {
            fast: 1,
            slow: 16,
            fast_probability: 0.6,
        },
        1 => LatencyScheme::UniformRandom { min: 1, max: 40 },
        2 => LatencyScheme::PowerLawClasses { classes: 6 },
        _ => LatencyScheme::BimodalFraction {
            slow: 16,
            slow_fraction: 0.25,
        },
    }
}

/// Copies the edges of `g` into `b`, shifting node ids by `offset`.
fn embed(b: &mut GraphBuilder, g: &Graph, offset: usize) {
    for rec in g.edges() {
        b.add_edge(rec.u.index() + offset, rec.v.index() + offset, rec.latency)
            .unwrap();
    }
}

/// A graph of one of three shapes, with latencies from scheme `pick`:
/// a connected Erdős–Rényi graph, an Erdős–Rényi graph on all but `spare`
/// nodes (the rest isolated: zero-volume cuts), or two disjoint
/// Erdős–Rényi blocks (a disconnected graph, `φ = 0`).
fn generated(n: usize, p: f64, shape: usize, spare: usize, pick: usize, seed: u64) -> Graph {
    let mut rng = SmallRng::seed_from_u64(seed);
    let g = match shape {
        0 => generators::erdos_renyi(n, p, 1, &mut rng).unwrap(),
        1 => {
            let core = n.saturating_sub(spare).max(2);
            let mut b = GraphBuilder::new(n.max(core + 1));
            embed(
                &mut b,
                &generators::erdos_renyi(core, p, 1, &mut rng).unwrap(),
                0,
            );
            b.build().unwrap()
        }
        _ => {
            let left = (n / 2).max(2);
            let right = (n - n / 2).max(2);
            let mut b = GraphBuilder::new(left + right);
            embed(
                &mut b,
                &generators::erdos_renyi(left, p, 1, &mut rng).unwrap(),
                0,
            );
            embed(
                &mut b,
                &generators::erdos_renyi(right, p, 1, &mut rng).unwrap(),
                left,
            );
            b.build().unwrap()
        }
    };
    scheme(pick).apply(&g, &mut rng).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn single_pass_matches_per_cut_reference_on_small_graphs(
        n in 2usize..13,
        p in 0.1f64..0.9,
        shape in 0usize..3,
        spare in 1usize..4,
        pick in 0usize..4,
        seed in 0u64..1_000_000,
    ) {
        assert_all_methods_match(&generated(n, p, shape, spare, pick, seed));
    }

    #[test]
    fn single_pass_matches_per_cut_reference_on_sweep_sized_graphs(
        n in 13usize..40,
        p in 0.05f64..0.5,
        shape in 0usize..3,
        spare in 1usize..6,
        pick in 0usize..4,
        seed in 0u64..1_000_000,
    ) {
        assert_all_methods_match(&generated(n, p, shape, spare, pick, seed));
    }
}

#[test]
fn single_pass_matches_on_the_threshold_cap_path() {
    // Up to 40 distinct latencies on a dense graph: more than 16 thresholds,
    // so the sweep keeps a stride of them plus the largest.
    let mut rng = SmallRng::seed_from_u64(7);
    let g = generators::erdos_renyi(30, 0.4, 1, &mut rng).unwrap();
    let g = LatencyScheme::UniformRandom { min: 1, max: 40 }
        .apply(&g, &mut rng)
        .unwrap();
    assert!(g.distinct_latencies().len() > 16);
    assert_all_methods_match(&g);
}

#[test]
fn single_pass_matches_on_structured_families() {
    for g in [
        generators::dumbbell(6, 16).unwrap(),
        generators::dumbbell(16, 16).unwrap(),
        generators::ring_of_cliques(4, 5, 8).unwrap(),
        generators::grid(5, 6, 2).unwrap(),
        generators::star(20, 4).unwrap(),
        generators::cycle(11, 3).unwrap(),
        generators::path(2, 5).unwrap(),
    ] {
        assert_all_methods_match(&g);
    }
}

#[test]
fn single_pass_matches_the_error_paths() {
    let single = GraphBuilder::new(1).build().unwrap();
    let edgeless = GraphBuilder::new(5).build().unwrap();
    let too_large = generators::cycle(30, 1).unwrap();
    for g in [&single, &edgeless, &too_large] {
        assert_all_methods_match(g);
    }
    assert!(matches!(
        analyze(&too_large, Method::Exact),
        Err(ConductanceError::TooLargeForExact { .. })
    ));
}
