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

use gossip_graph::{EdgeId, Graph, Latency, NodeId};
use gossip_sim::{ExchangeEvent, NodeView, Protocol, SimConfig, Simulation, Termination};
use rand::rngs::SmallRng;

use crate::DisseminationReport;

/// One node's probing state: the next neighbor to probe and, in arrival
/// order, the answers to its own probes over edges of latency at most the
/// bound.
#[derive(Debug, Clone, Default, PartialEq)]
struct Prober {
    next: usize,
    latencies: Vec<(EdgeId, Latency)>,
}

/// Protocol in which every node probes each of its neighbors exactly once,
/// one per round, in neighbor-id order, and keeps the answers of latency at
/// most `bound`.
#[derive(Debug, Clone)]
struct ProbeAll {
    bound: Latency,
    nodes: Vec<Prober>,
}

impl ProbeAll {
    fn new(g: &Graph, bound: Latency) -> Self {
        ProbeAll {
            bound,
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
        if !event.initiated_here || event.latency > self.bound {
            return;
        }
        if let Some(st) = self.nodes.get_mut(node.index()) {
            st.latencies.push((event.edge, event.latency));
        }
    }
}

/// Result of a latency-discovery phase.
#[derive(Debug, Clone)]
pub struct DiscoveryOutcome {
    /// Per node, each discovered incident edge with its latency, sorted by
    /// edge id.
    pub discovered: Vec<Vec<(EdgeId, Latency)>>,
    /// Rounds spent (≈ Δ + bound).
    pub report: DisseminationReport,
}

impl DiscoveryOutcome {
    /// Number of `(node, edge)` latency facts discovered.
    pub fn facts(&self) -> usize {
        self.discovered.iter().map(Vec::len).sum()
    }

    /// Returns `true` if every edge of latency at most `bound` has been
    /// discovered by both of its endpoints.
    pub fn covers(&self, g: &Graph, bound: Latency) -> bool {
        let knows = |v: NodeId, e: EdgeId| {
            self.discovered[v.index()]
                .binary_search_by_key(&e, |&(edge, _)| edge)
                .is_ok()
        };
        g.edges()
            .zip(g.edge_ids())
            .all(|(rec, e)| rec.latency > bound || (knows(rec.u, e) && knows(rec.v, e)))
    }
}

/// Probes every incident edge and waits up to `bound` extra rounds for the
/// responses; discovers exactly the incident edges of latency ≤ `bound`.
/// A node learns an edge only from the answer to its own probe, and only
/// if that answer's latency is at most `bound`, even when it arrives within
/// the budget.
///
/// The number of rounds consumed is `Δ + bound` (all probes are sent in the
/// first `Δ` rounds; anything that has not answered after `bound` more rounds
/// is treated as "slow" and ignored, exactly as in Section 5.2).
pub fn discover(g: &Graph, bound: Latency, seed: u64) -> DiscoveryOutcome {
    let max_degree = g.max_degree() as u64;
    let budget = max_degree + bound;
    let config = SimConfig::new(seed).termination(Termination::FixedRounds(budget));
    let mut protocol = ProbeAll::new(g, bound);
    let report = Simulation::new(g, config).run(&mut protocol);
    let mut discovered: Vec<_> = protocol.nodes.into_iter().map(|st| st.latencies).collect();
    for latencies in &mut discovered {
        latencies.sort_unstable_by_key(|&(edge, _)| edge);
    }
    DiscoveryOutcome {
        discovered,
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

    /// On a star whose spoke 0–3 is slower than the bound, the slow answer
    /// arrives within the `Δ + bound` budget but is not kept, and no node
    /// learns an edge from a neighbor's probe: the centre and leaves 1 and 2
    /// each learn their latency-1 spokes from their own probes.
    #[test]
    fn discovery_keeps_only_own_answers_within_the_bound() {
        let mut b = gossip_graph::GraphBuilder::new(4);
        b.add_edge(0, 1, 1).unwrap();
        b.add_edge(0, 2, 1).unwrap();
        b.add_edge(0, 3, 2).unwrap();
        let g = b.build().unwrap();
        let out = discover(&g, 1, 1);
        assert_eq!(out.facts(), 4);
        assert!(out.covers(&g, 1));
        assert!(
            !out.covers(&g, 2),
            "the latency-2 spoke must not be discovered"
        );
        let spoke = |v| g.find_edge(NodeId::new(0), NodeId::new(v)).unwrap();
        assert_eq!(out.discovered[0], [(spoke(1), 1), (spoke(2), 1)]);
        assert_eq!(out.discovered[3], []);
        assert_eq!(out.report.rounds, 3 + 1);
        assert_eq!(out.report.activations, 6);
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
            let mut probe = ProbeAll::new(&g, 5);
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
        let mut oracle_probe = ProbeAll::new(&g, 5);
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
