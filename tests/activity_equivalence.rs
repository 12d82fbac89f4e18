//! Equivalence pins for the Activity-ported gossip-core protocols.
//!
//! PR 6 ported `EllDtg` and `RrBroadcast` to the event-driven scheduler's
//! [`Activity`](gossip_sim::Activity) contract, reworked ℓ-DTG's exchange
//! bookkeeping from per-exchange rumor-set snapshots to acquisition-log
//! replay, and moved the RR-broadcast phase simulation onto the spanner
//! subgraph.  All three must be pure performance changes:
//!
//! * The dense-bitset spec
//!   [`OracleSimulation`](gossip_sim::oracle::OracleSimulation) never
//!   consults `activity()` and never elides an `on_round` call, so running
//!   the same protocol through [`Simulation`] and the oracle and requiring
//!   identical [`RunReport::semantics`](gossip_sim::RunReport::semantics)
//!   plus identical final rumor state pins the ported protocols to their
//!   pre-port behavior — if retiring a node or replaying a log prefix ever
//!   changed what a node hears (or when), the two engines would diverge.
//! * RR Broadcast only ever targets spanner out-edges, so simulating it over
//!   the materialised spanner subgraph must produce the same trace as the
//!   full parent graph.

use gossip_bench::sweep::SweepSpec;
use gossip_bench::Scale;
use gossip_core::dtg::EllDtg;
use gossip_core::rr_broadcast::RrBroadcast;
use gossip_core::spanner::log_spanner;
use gossip_graph::{generators, NodeId};
use gossip_sim::{
    Activity, ExchangeEvent, NodeView, Protocol, Seeding, SimConfig, Simulation, Termination,
};
use gossip_tests::assert_matches_oracle;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// ℓ-DTG's driver configuration: quiescence-terminated, generously capped.
fn dtg_config(seed: u64) -> SimConfig {
    SimConfig::new(seed)
        .termination(Termination::Quiescent)
        .max_rounds(20_000)
}

/// The acceptance gate: `EllDtg` agrees with the oracle on every
/// scenario of the Quick sweep grid, three seeds.
#[test]
fn ell_dtg_matches_reference_on_the_quick_grid() {
    let spec = SweepSpec::standard(Scale::Quick);
    for family in &spec.families {
        for &size in &spec.sizes {
            for profile in &spec.profiles {
                for seed in [1u64, 2, 3] {
                    let mut rng = SmallRng::seed_from_u64(seed ^ 0xD7C);
                    let base = family.build(size, &mut rng);
                    let g = profile.apply(&base, &mut rng);
                    // ℓ = max latency admits every edge; ℓ = 1 exercises the
                    // latency filter (nodes whose edges are all slow retire
                    // immediately).
                    for bound in [1, g.max_latency()] {
                        let label = format!(
                            "{}/{}/{}/seed{seed}/ell={bound}",
                            family.name(),
                            size,
                            profile.name(),
                        );
                        assert_matches_oracle(
                            &g,
                            &dtg_config(seed),
                            Seeding::AllToAll,
                            || EllDtg::new(&g, bound),
                            &label,
                        );
                    }
                }
            }
        }
    }
}

/// `EllDtg` wrapped to log, per node, the `(initiation, completion)` rounds
/// of every exchange the node initiated, in completion order (the engine
/// delivers a round's exchanges in initiation order).
struct InitiationLog {
    inner: EllDtg,
    spans: Vec<Vec<(u64, u64)>>,
}

impl Protocol for InitiationLog {
    type Shared = <EllDtg as Protocol>::Shared;
    type Node = <EllDtg as Protocol>::Node;

    fn split(&mut self, n: usize) -> (&Self::Shared, &mut [Self::Node]) {
        self.inner.split(n)
    }

    fn on_round(
        shared: &Self::Shared,
        state: &mut Self::Node,
        view: &NodeView<'_>,
        rng: &mut SmallRng,
    ) -> Option<NodeId> {
        EllDtg::on_round(shared, state, view, rng)
    }

    fn on_exchange(&mut self, node: NodeId, event: &ExchangeEvent) {
        if event.initiated_here {
            self.spans[node.index()].push((event.round - event.latency, event.round));
        }
        self.inner.on_exchange(node, event);
    }

    fn activity(shared: &Self::Shared, state: &Self::Node, view: &NodeView<'_>) -> Activity {
        EllDtg::activity(shared, state, view)
    }
}

/// ℓ-DTG is self-blocking: a node never initiates while an exchange it
/// initiated is in flight.  The simulator's exchanges are non-blocking, so
/// this is what makes every ℓ-DTG run (and every pattern-broadcast run) a
/// blocking run in the sense of Section 4.2.  Checked on every Quick-grid
/// scenario for ℓ ∈ {1, max latency}: per node, each initiation comes at
/// or after the previous one's completion.
#[test]
fn ell_dtg_never_overlaps_its_own_exchanges_on_the_quick_grid() {
    let spec = SweepSpec::standard(Scale::Quick);
    let mut initiations = 0usize;
    for family in &spec.families {
        for &size in &spec.sizes {
            for profile in &spec.profiles {
                let mut rng = SmallRng::seed_from_u64(0xB10C);
                let base = family.build(size, &mut rng);
                let g = profile.apply(&base, &mut rng);
                for bound in [1, g.max_latency()] {
                    let label =
                        format!("{}/{}/{}/ell={bound}", family.name(), size, profile.name());
                    let mut log = InitiationLog {
                        inner: EllDtg::new(&g, bound),
                        spans: vec![Vec::new(); g.node_count()],
                    };
                    let report = Simulation::new(&g, dtg_config(1)).run(&mut log);
                    assert!(report.completed, "{label}: run did not finish");
                    for (v, spans) in log.spans.iter().enumerate() {
                        for pair in spans.windows(2) {
                            let ((_, prev_end), (next_start, _)) = (pair[0], pair[1]);
                            assert!(
                                next_start >= prev_end,
                                "{label}: node {v} initiated at round {next_start} while its \
                                 exchange completing at round {prev_end} was in flight"
                            );
                        }
                        initiations += spans.len();
                    }
                }
            }
        }
    }
    assert!(initiations > 0, "the grid must exercise some exchanges");
}

/// `RrBroadcast` agrees with the oracle on every scenario of the
/// Quick sweep grid (simulated, as in production, over the spanner subgraph).
#[test]
fn rr_broadcast_matches_reference_on_the_quick_grid() {
    let spec = SweepSpec::standard(Scale::Quick);
    for family in &spec.families {
        for &size in &spec.sizes {
            for profile in &spec.profiles {
                for seed in [1u64, 2, 3] {
                    let mut rng = SmallRng::seed_from_u64(seed ^ 0x44B);
                    let base = family.build(size, &mut rng);
                    let g = profile.apply(&base, &mut rng);
                    let spanner = log_spanner(&g, seed);
                    let k = g.max_latency().saturating_mul(8);
                    let sub = spanner.to_graph(&g).unwrap();
                    let config = SimConfig::new(seed)
                        .termination(Termination::AllKnowAll)
                        .max_rounds(20_000);
                    let label =
                        format!("{}/{}/{}/seed{seed}", family.name(), size, profile.name(),);
                    assert_matches_oracle(
                        &sub,
                        &config,
                        Seeding::AllToAll,
                        || RrBroadcast::new(&g, &spanner, k),
                        &label,
                    );
                }
            }
        }
    }
}

/// The spanner-subgraph phase simulation is trace-identical to simulating
/// over the full parent graph: RR Broadcast can only ever target spanner
/// out-edges, so shrinking the engine's edge state must not change rounds,
/// activations, completion, or what any node hears.
#[test]
fn rr_broadcast_subgraph_simulation_equals_full_graph_simulation() {
    for (g, seed) in [
        (generators::clique(32, 1).unwrap(), 3u64),
        (generators::dumbbell(8, 12).unwrap(), 5),
        (generators::ring_of_cliques(4, 5, 6).unwrap(), 7),
        (generators::grid(6, 6, 2).unwrap(), 9),
    ] {
        let spanner = log_spanner(&g, seed);
        let k = g.max_latency().saturating_mul(8);
        let sub = spanner.to_graph(&g).unwrap();
        let config = SimConfig::new(seed)
            .termination(Termination::AllKnowAll)
            .max_rounds(20_000);

        let mut full_protocol = RrBroadcast::new(&g, &spanner, k);
        let mut full_sim = Simulation::new(&g, config.clone());
        let full_report = full_sim.run(&mut full_protocol);

        let mut sub_protocol = RrBroadcast::new(&g, &spanner, k);
        let mut sub_sim = Simulation::new(&sub, config);
        let sub_report = sub_sim.run(&mut sub_protocol);

        assert_eq!(
            full_report.semantics(),
            sub_report.semantics(),
            "trace mismatch on {} nodes",
            g.node_count()
        );
        assert_eq!(full_sim.into_rumors(), sub_sim.into_rumors());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Log-replay ℓ-DTG equals the oracle on random weighted
    /// Erdős–Rényi instances.
    #[test]
    fn ell_dtg_matches_reference_on_random_graphs(
        n in 4usize..40,
        p in 0.1f64..0.9,
        max_latency in 1u64..10,
        seed in 0u64..1_000,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xE11);
        let g = generators::erdos_renyi(n, p, 1, &mut rng).unwrap();
        let g = gossip_graph::latency::LatencyScheme::UniformRandom { min: 1, max: max_latency }
            .apply(&g, &mut rng)
            .unwrap();
        let bound = 1 + seed % max_latency;
        assert_matches_oracle(
            &g,
            &dtg_config(seed),
            Seeding::AllToAll,
            || EllDtg::new(&g, bound),
            &format!("random n={n} ell={bound}"),
        );
    }
}
