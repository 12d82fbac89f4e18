//! Latency discovery (Section 5.2 of the paper).
//!
//! When latencies are unknown, the spanner route first has every node probe
//! its incident edges: a node sends one request per neighbor, sequentially,
//! and waits for responses.  Probing all `Δ` neighbors takes `Δ` rounds of
//! requests, and a response over an edge of latency `ℓ` arrives `ℓ` rounds
//! after its request — so waiting an additional `bound` rounds discovers every
//! incident edge of latency at most `bound`.  With `bound` set by the same
//! guess-and-double driver as the diameter, this is the `Õ(D + Δ)` "discover
//! the important edges" step that lets the known-latency algorithm run.

use std::collections::HashMap;

use gossip_graph::{EdgeId, Graph, Latency, NodeId};
use gossip_sim::{ExchangeEvent, NodeView, Protocol, SimConfig, Simulation, Termination};
use rand::rngs::SmallRng;

use crate::DisseminationReport;

/// One node's probing state: the next neighbor to probe and the latencies
/// its completed probes revealed.
#[derive(Debug, Clone, Default, PartialEq)]
struct Prober {
    next: usize,
    // gossip-lint: allow(unordered-iter): keyed insert per edge only, never iterated
    latencies: HashMap<EdgeId, Latency>,
}

/// Protocol in which every node probes each of its neighbors exactly once,
/// one per round, in neighbor-id order.
#[derive(Debug, Clone)]
struct ProbeAll {
    nodes: Vec<Prober>,
}

impl ProbeAll {
    fn new(g: &Graph) -> Self {
        ProbeAll {
            nodes: vec![Prober::default(); g.node_count()],
        }
    }
}

impl Protocol for ProbeAll {
    type Shared = ();
    type Node = Prober;

    fn name(&self) -> &'static str {
        "latency-discovery"
    }

    fn split(&mut self, _n: usize) -> (&(), &mut [Prober]) {
        (&(), &mut self.nodes)
    }

    fn on_round(_: &(), st: &mut Prober, view: &NodeView<'_>, _: &mut SmallRng) -> Option<NodeId> {
        let &(target, _) = view.neighbors.get(st.next)?;
        st.next += 1;
        Some(target)
    }

    fn on_exchange(&mut self, node: NodeId, event: &ExchangeEvent) {
        if let Some(st) = self.nodes.get_mut(node.index()) {
            st.latencies.insert(event.edge, event.latency);
        }
    }
}

/// Result of a latency-discovery phase.
#[derive(Debug, Clone)]
pub struct DiscoveryOutcome {
    /// Per-node map from incident edge to discovered latency.
    // gossip-lint: allow(unordered-iter): read only by `facts` (map sizes) and `covers` (keyed `contains_key`), never iterated
    pub discovered: Vec<HashMap<EdgeId, Latency>>,
    /// Rounds spent (≈ Δ + bound).
    pub report: DisseminationReport,
}

impl DiscoveryOutcome {
    /// Number of `(node, edge)` latency facts discovered.
    pub fn facts(&self) -> usize {
        self.discovered.iter().map(HashMap::len).sum()
    }

    /// Returns `true` if every edge of latency at most `bound` has been
    /// discovered by both of its endpoints.
    pub fn covers(&self, g: &Graph, bound: Latency) -> bool {
        g.edges().zip(g.edge_ids()).all(|(rec, e)| {
            rec.latency > bound
                || (self.discovered[rec.u.index()].contains_key(&e)
                    && self.discovered[rec.v.index()].contains_key(&e))
        })
    }
}

/// Probes every incident edge and waits up to `bound` extra rounds for the
/// responses; discovers exactly the incident edges of latency ≤ `bound`.
///
/// The number of rounds consumed is `Δ + bound` (all probes are sent in the
/// first `Δ` rounds; anything that has not answered after `bound` more rounds
/// is treated as "slow" and ignored, exactly as in Section 5.2).
pub fn discover(g: &Graph, bound: Latency, seed: u64) -> DiscoveryOutcome {
    let max_degree = g.max_degree() as u64;
    let budget = max_degree + bound;
    let config = SimConfig::new(seed).termination(Termination::FixedRounds(budget));
    let mut protocol = ProbeAll::new(g);
    let report = Simulation::new(g, config).run(&mut protocol);
    DiscoveryOutcome {
        discovered: protocol.nodes.into_iter().map(|st| st.latencies).collect(),
        report: DisseminationReport::single(
            "latency-discovery",
            report.rounds,
            report.activations,
            true,
        ),
    }
}

/// Full discovery: waits long enough (`Δ + ℓ_max`) for every incident edge.
pub fn discover_all(g: &Graph, seed: u64) -> DiscoveryOutcome {
    discover(g, g.max_latency(), seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gossip_graph::generators;
    use gossip_graph::latency::LatencyScheme;
    use gossip_sim::oracle::OracleSimulation;
    use rand::SeedableRng;

    #[test]
    fn discover_all_learns_every_incident_latency() {
        let g = generators::dumbbell(4, 16).unwrap();
        let out = discover_all(&g, 1);
        assert!(out.covers(&g, g.max_latency()));
        // Every edge is discovered by both endpoints.
        assert_eq!(out.facts(), 2 * g.edge_count());
        // Rounds = Δ + ℓmax.
        assert_eq!(out.report.rounds, g.max_degree() as u64 + 16);
    }

    #[test]
    fn bounded_discovery_ignores_slow_edges() {
        let g = generators::dumbbell(4, 1000).unwrap();
        let out = discover(&g, 4, 1);
        assert!(out.covers(&g, 4));
        assert!(
            !out.covers(&g, 1000),
            "the latency-1000 bridge must not be discovered"
        );
        assert!(out.report.rounds <= g.max_degree() as u64 + 4);
    }

    #[test]
    fn discovery_cost_scales_with_degree() {
        let small = generators::star(8, 2).unwrap();
        let large = generators::star(64, 2).unwrap();
        let a = discover_all(&small, 3);
        let b = discover_all(&large, 3);
        assert!(b.report.rounds > a.report.rounds);
        assert_eq!(b.report.rounds, 63 + 2);
    }

    /// `ProbeAll` keeps each node's cursor and discoveries in its own state,
    /// so a 400-node run (above the decision pass's 256-node fan-out
    /// threshold) is identical on 1, 2 and 8 workers, and matches the
    /// oracle.
    #[test]
    fn probing_is_identical_across_thread_counts_and_matches_the_oracle() {
        let mut rng = SmallRng::seed_from_u64(11);
        let g = generators::erdos_renyi(400, 0.02, 1, &mut rng).unwrap();
        let g = LatencyScheme::UniformRandom { min: 1, max: 5 }
            .apply(&g, &mut rng)
            .unwrap();
        let config =
            SimConfig::new(3).termination(Termination::FixedRounds(g.max_degree() as u64 + 5));
        let run = |threads: usize| {
            let mut probe = ProbeAll::new(&g);
            let mut sim = Simulation::new(&g, config.clone().threads(threads));
            let report = sim.run(&mut probe);
            (report, sim.into_rumors(), probe)
        };
        let (report, rumors, probe) = run(1);
        for threads in [2, 8] {
            let (other, other_rumors, other_probe) = run(threads);
            assert_eq!(other, report, "report diverged at {threads} threads");
            assert_eq!(other_rumors, rumors, "rumors diverged at {threads} threads");
            assert_eq!(
                other_probe.nodes, probe.nodes,
                "probers diverged at {threads} threads"
            );
        }

        let mut oracle = OracleSimulation::new(&g, config.clone());
        let mut oracle_probe = ProbeAll::new(&g);
        let oracle_report = oracle.run(&mut oracle_probe);
        assert_eq!(oracle_report.semantics(), report.semantics());
        assert_eq!(oracle.into_rumors(), rumors);
        assert_eq!(oracle_probe.nodes, probe.nodes);
    }

    #[test]
    fn every_probe_is_one_activation() {
        let g = generators::clique(6, 2).unwrap();
        let out = discover_all(&g, 9);
        // Each node probes each of its 5 neighbors exactly once.
        assert_eq!(out.report.activations, 6 * 5);
    }
}
