//! Property-based integration tests: invariants of the simulator and the
//! dissemination algorithms on randomly generated weighted graphs.

use gossip_core::{dtg, pattern, push_pull, spanner};
use gossip_graph::latency::LatencyScheme;
use gossip_graph::{generators, metrics, Graph, NodeId};
use gossip_sim::protocols::RandomPushPull;
use gossip_sim::{RumorId, Seeding, SimConfig, Simulation, Termination};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Strategy: a connected Erdős–Rényi graph with two-level latencies.
fn random_weighted_graph(n: usize, p: f64, slow: u64, fast_probability: f64, seed: u64) -> Graph {
    let mut rng = SmallRng::seed_from_u64(seed);
    let base = generators::erdos_renyi(n, p, 1, &mut rng).unwrap();
    LatencyScheme::TwoLevel {
        fast: 1,
        slow,
        fast_probability,
    }
    .apply(&base, &mut rng)
    .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// Push–pull always completes and never beats the physical limits: the
    /// weighted diameter for one-to-all dissemination.
    #[test]
    fn push_pull_respects_the_diameter_lower_bound(
        n in 6usize..28,
        p in 0.25f64..0.8,
        slow in 2u64..32,
        fast_probability in 0.2f64..0.9,
        seed in 0u64..500,
    ) {
        let g = random_weighted_graph(n, p, slow, fast_probability, seed);
        let d = metrics::weighted_diameter(&g).unwrap();
        let report = push_pull::broadcast(&g, NodeId::new(0), seed);
        prop_assert!(report.completed);
        // The farthest node is at distance <= D but >= the eccentricity of the
        // source; any algorithm needs at least ecc(source) rounds.
        let ecc = metrics::dijkstra(&g, NodeId::new(0)).into_iter().max().unwrap();
        prop_assert!(report.rounds >= ecc, "finished in {} rounds below eccentricity {}", report.rounds, ecc);
        prop_assert!(ecc <= d);
    }

    /// Rumor knowledge is monotone: running more rounds never shrinks any
    /// node's rumor set.
    #[test]
    fn rumor_sets_grow_monotonically(
        n in 5usize..20,
        p in 0.3f64..0.8,
        rounds_a in 1u64..10,
        rounds_extra in 1u64..10,
        seed in 0u64..500,
    ) {
        let g = random_weighted_graph(n, p, 8, 0.5, seed);
        let run = |rounds: u64| {
            let config = SimConfig::new(seed).termination(Termination::FixedRounds(rounds));
            let mut sim = Simulation::new(&g, config);
            sim.run(&mut RandomPushPull::new(&g));
            sim.into_rumors()
        };
        let early = run(rounds_a);
        let late = run(rounds_a + rounds_extra);
        for (a, b) in early.iter().zip(&late) {
            prop_assert!(a.iter().all(|r| b.contains(r)), "a later snapshot lost rumors");
        }
    }

    /// ℓ-DTG achieves exactly the local-broadcast postcondition and never
    /// activates an edge slower than its bound.  Its schedule ignores what
    /// the nodes already know: from random extra initial knowledge, the run
    /// reports exactly what the id-seeded run reports and only ever adds
    /// rumors.
    #[test]
    fn dtg_local_broadcast_postcondition(
        n in 5usize..18,
        p in 0.3f64..0.8,
        bound in 1u64..12,
        seed in 0u64..500,
        extra in 0.0f64..0.6,
        knowledge_seed in 0u64..500,
    ) {
        let g = random_weighted_graph(n, p, 10, 0.5, seed);
        let n = g.node_count();
        let mut rng = SmallRng::seed_from_u64(knowledge_seed);
        let mut initial = Seeding::AllToAll.initial_sets(n);
        for set in &mut initial {
            for r in 0..n {
                if rng.gen_bool(extra) {
                    set.insert(RumorId::from(r));
                }
            }
        }
        let rumors = Seeding::AllToAll.initial_sets(n);
        let (expected, id_rumors, _) = dtg::run_with_rumors(&g, bound, seed, rumors, false);
        prop_assert!(expected.completed);
        prop_assert!(dtg::local_broadcast_achieved(&g, bound, &id_rumors));

        let (report, final_rumors, _) =
            dtg::run_with_rumors(&g, bound, seed, initial.clone(), false);
        prop_assert_eq!(&report, &expected);
        for (before, after) in initial.iter().zip(&final_rumors) {
            prop_assert!(before.iter().all(|r| after.contains(r)), "a node lost rumors");
        }
        prop_assert!(dtg::local_broadcast_achieved(&g, bound, &final_rumors));
    }

    /// The Baswana–Sen spanner keeps connectivity and respects the 2k-1 stretch.
    #[test]
    fn spanner_stretch_bound(
        n in 8usize..30,
        p in 0.25f64..0.7,
        max_latency in 2u64..20,
        k in 2usize..5,
        seed in 0u64..500,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let base = generators::erdos_renyi(n, p, 1, &mut rng).unwrap();
        let g = LatencyScheme::UniformRandom { min: 1, max: max_latency }
            .apply(&base, &mut rng)
            .unwrap();
        let s = spanner::baswana_sen(&g, k, seed);
        let stretch = s.stretch(&g);
        prop_assert!(stretch.is_some(), "spanner disconnected the graph");
        prop_assert!(stretch.unwrap() <= (2 * k - 1) as f64 + 1e-9);
    }

    /// The pattern-broadcast schedule has length 2k-1 and uses only powers of
    /// two up to k.
    #[test]
    fn pattern_schedule_shape(k_log in 0u32..8) {
        let k = 1u64 << k_log;
        let schedule = pattern::schedule(k);
        prop_assert_eq!(schedule.len() as u64, 2 * k - 1);
        prop_assert!(schedule.iter().all(|ell| ell.is_power_of_two() && *ell <= k));
        prop_assert_eq!(schedule.iter().filter(|&&ell| ell == k).count(), 1);
        // The schedule is a palindrome.
        let reversed: Vec<_> = schedule.iter().rev().copied().collect();
        prop_assert_eq!(schedule, reversed);
    }

    /// The simulator is deterministic: identical seeds give identical reports.
    #[test]
    fn simulation_is_deterministic(
        n in 5usize..20,
        p in 0.3f64..0.8,
        seed in 0u64..500,
    ) {
        let g = random_weighted_graph(n, p, 16, 0.4, seed);
        let a = push_pull::all_to_all(&g, seed);
        let b = push_pull::all_to_all(&g, seed);
        prop_assert_eq!(a.rounds, b.rounds);
        prop_assert_eq!(a.activations, b.activations);
    }
}

#[test]
fn one_to_all_and_all_to_all_are_consistent() {
    // All-to-all dissemination is at least as hard as one-to-all from any source.
    let g = generators::ring_of_cliques(4, 5, 8).unwrap();
    let all = push_pull::all_to_all(&g, 3);
    let one = push_pull::broadcast(&g, NodeId::new(0), 3);
    assert!(all.completed && one.completed);
    assert!(
        all.rounds + 5 >= one.rounds,
        "all-to-all ({}) cannot be much faster than one-to-all ({})",
        all.rounds,
        one.rounds
    );
}
