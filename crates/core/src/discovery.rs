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

/// Protocol in which every node probes each of its neighbors exactly once,
/// one per round, in neighbor-id order.
#[derive(Debug, Clone)]
struct ProbeAll {
    next: Vec<usize>,
    // gossip-lint: allow(unordered-iter): keyed insert/contains_key per edge only, never iterated
    discovered: Vec<HashMap<EdgeId, Latency>>,
}

impl ProbeAll {
    fn new(g: &Graph) -> Self {
        ProbeAll {
            next: vec![0; g.node_count()],
            discovered: vec![HashMap::new(); g.node_count()],
        }
    }
}

impl Protocol for ProbeAll {
    fn name(&self) -> &'static str {
        "latency-discovery"
    }

    fn on_round(&mut self, view: &NodeView<'_>, _rng: &mut SmallRng) -> Option<NodeId> {
        let i = view.node.index();
        if self.next[i] >= view.neighbors.len() {
            return None;
        }
        let (target, _) = view.neighbors[self.next[i]];
        self.next[i] += 1;
        Some(target)
    }

    fn on_exchange(&mut self, node: NodeId, event: &ExchangeEvent) {
        self.discovered[node.index()].insert(event.edge, event.latency);
    }
}

/// Result of a latency-discovery phase.
#[derive(Debug, Clone)]
pub struct DiscoveryOutcome {
    /// Per-node map from incident edge to discovered latency.
    // gossip-lint: allow(unordered-iter): consumed via keyed `get` through OracleSource::Map only, never iterated
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
        discovered: protocol.discovered,
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

    #[test]
    fn every_probe_is_one_activation() {
        let g = generators::clique(6, 2).unwrap();
        let out = discover_all(&g, 9);
        // Each node probes each of its 5 neighbors exactly once.
        assert_eq!(out.report.activations, 6 * 5);
    }
}
