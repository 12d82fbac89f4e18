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

/// Golden digests of ℓ-DTG runs over carried (non-id) rumor sets, so any
/// rewrite of how `dtg::run_with_rumors` schedules its exchanges must
/// reproduce the old outputs exactly.
mod dtg_over_carried_rumors {
    use gossip_bench::sweep::{GraphFamily, LatencyProfile, SweepSpec};
    use gossip_bench::Scale;
    use gossip_core::{dtg, pattern, spanner_broadcast, DisseminationReport};
    use gossip_graph::Graph;
    use gossip_sim::{RumorSet, Seeding};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    /// 64-bit FNV-1a digests, one per pattern case in loop order (Quick
    /// family with latencies redrawn from 1..=12, then size, then
    /// `k` ∈ {4, 8}), followed by one per Quick dumbbell size for spanner
    /// broadcast with an unknown diameter.  A pattern digest covers every
    /// `dtg::run_with_rumors` call of the schedule `T(k)` — its report,
    /// final rumor sets and iteration count — and then the report of
    /// `pattern::run_schedule`.  A spanner digest covers every guess's
    /// ℓ-DTG call the same way, then `run_unknown_diameter`'s report.
    ///
    /// Generated at commit `65e304d`, whose ℓ-DTG tracked heard-from sets
    /// in acquisition logs of its own, by printing every entry of
    /// `digests()`.
    const GOLDEN: [u64; 30] = [
        0xc329e3c008728150, // clique n=12 k=4
        0x3985fd8346a86f79, // clique n=12 k=8
        0x3d73868944e71f6d, // clique n=24 k=4
        0x338240d66d822188, // clique n=24 k=8
        0xa7504d000ba1e9f6, // cycle n=12 k=4
        0x14fce1c773effd46, // cycle n=12 k=8
        0xc51502f283bdc049, // cycle n=24 k=4
        0xe2799a5ab4f5af01, // cycle n=24 k=8
        0x84b5888a9a5ac666, // grid n=12 k=4
        0xd93b4e15367ae1dd, // grid n=12 k=8
        0x07d42d685546653b, // grid n=24 k=4
        0x37e90a3e3684e366, // grid n=24 k=8
        0x29696312c3526c43, // dumbbell n=12 k=4
        0x5645505358885894, // dumbbell n=12 k=8
        0x1840474315ff0946, // dumbbell n=24 k=4
        0x7773bee724c01508, // dumbbell n=24 k=8
        0xe9824d0204771906, // ring-of-cliques n=12 k=4
        0x211e602cd7642996, // ring-of-cliques n=12 k=8
        0x046b52c76ad8816a, // ring-of-cliques n=24 k=4
        0x35c37cea2f228c8f, // ring-of-cliques n=24 k=8
        0xfbe061577de24d2c, // barbell(bridge=4) n=12 k=4
        0x76fd16fb6051178f, // barbell(bridge=4) n=12 k=8
        0x0189186670d39a9a, // barbell(bridge=4) n=24 k=4
        0x2194eec18ba5454c, // barbell(bridge=4) n=24 k=8
        0xefa26614dbf30e00, // erdos-renyi(p=0.2) n=12 k=4
        0xb1c51ad36b54c32f, // erdos-renyi(p=0.2) n=12 k=8
        0x42a41d40060d7f17, // erdos-renyi(p=0.2) n=24 k=4
        0x46d2474687f21943, // erdos-renyi(p=0.2) n=24 k=8
        0xb40e509e3ab9873c, // spanner dumbbell n=12
        0xc48bad3253e100bb, // spanner dumbbell n=24
    ];

    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

    fn fnv1a(hash: u64, word: u64) -> u64 {
        word.to_le_bytes().iter().fold(hash, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    fn fold_report(mut hash: u64, report: &DisseminationReport) -> u64 {
        for word in [
            report.rounds,
            report.activations,
            u64::from(report.completed),
        ] {
            hash = fnv1a(hash, word);
        }
        for phase in &report.phases {
            for b in phase.name.bytes() {
                hash = fnv1a(hash, u64::from(b));
            }
            hash = fnv1a(fnv1a(hash, phase.rounds), phase.activations);
        }
        hash
    }

    fn fold_dtg(mut hash: u64, run: &(DisseminationReport, Vec<RumorSet>, usize)) -> u64 {
        let (report, sets, iterations) = run;
        hash = fold_report(hash, report);
        for set in sets {
            hash = fnv1a(hash, set.len() as u64);
            for rumor in set.iter() {
                hash = fnv1a(hash, rumor.index() as u64);
            }
        }
        fnv1a(hash, *iterations as u64)
    }

    fn pattern_digest(g: &Graph, k: u64, seed: u64) -> u64 {
        let mut hash = OFFSET;
        let mut rumors = Seeding::AllToAll.initial_sets(g.node_count());
        for (idx, ell) in pattern::schedule(k).into_iter().enumerate() {
            let run = dtg::run_with_rumors(g, ell, seed.wrapping_add(idx as u64), rumors, false);
            hash = fold_dtg(hash, &run);
            rumors = run.1;
        }
        let initial = Seeding::AllToAll.initial_sets(g.node_count());
        let (report, sets) = pattern::run_schedule(g, k, seed, initial);
        assert_eq!(sets, rumors, "run_schedule chains the same ℓ-DTG calls");
        fold_report(hash, &report)
    }

    fn spanner_digest(g: &Graph, seed: u64) -> u64 {
        let mut hash = OFFSET;
        let mut rumors = Seeding::AllToAll.initial_sets(g.node_count());
        let mut guess = 1u64;
        while !rumors.iter().all(RumorSet::is_full) {
            assert!(guess <= 1 << 20, "spanner broadcast never completed");
            let filtered = g.latency_filtered(guess);
            let run = dtg::run_with_rumors(&filtered, guess, seed ^ guess, rumors.clone(), false);
            hash = fold_dtg(hash, &run);
            rumors = spanner_broadcast::run_with_guess(g, guess, seed ^ guess, rumors).1;
            guess *= 2;
        }
        fold_report(hash, &spanner_broadcast::run_unknown_diameter(g, seed))
    }

    fn digests() -> Vec<(String, u64)> {
        let spec = SweepSpec::standard(Scale::Quick);
        let profile = LatencyProfile::UniformRandom { max: 12 };
        let mut out = Vec::new();
        for family in &spec.families {
            for &n in &spec.sizes {
                let mut rng = SmallRng::seed_from_u64(0xD76 + n as u64);
                let g = profile.apply(&family.build(n, &mut rng), &mut rng);
                for k in [4u64, 8] {
                    let name = format!("{} n={n} k={k}", family.name());
                    out.push((name, pattern_digest(&g, k, 11)));
                }
            }
        }
        for &n in &spec.sizes {
            let mut rng = SmallRng::seed_from_u64(0xD76 + n as u64);
            let g = GraphFamily::Dumbbell.build(n, &mut rng);
            out.push((format!("spanner dumbbell n={n}"), spanner_digest(&g, 5)));
        }
        out
    }

    #[test]
    fn dtg_runs_over_carried_rumors_match_the_golden_digests() {
        let digests = digests();
        assert_eq!(
            digests.len(),
            GOLDEN.len(),
            "every golden digest is checked"
        );
        for ((name, digest), golden) in digests.iter().zip(GOLDEN) {
            assert_eq!(*digest, golden, "ℓ-DTG outputs differ ({name})");
        }
    }
}
