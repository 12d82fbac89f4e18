//! Deterministic round-robin flooding — the baseline the paper's introduction
//! measures everything against.
//!
//! Flooding contacts neighbors one at a time in round-robin order, and only
//! while it has something new to relay.  In a broadcast only informed nodes
//! relay, so flooding is push-only: on a star (footnote 3 of the paper) it
//! needs `Ω(n·D)` time.  All-to-all, every node relays its own rumor from
//! round 0, so the model's automatic pull makes it a slow but simple
//! baseline whose cost grows with the maximum degree instead of the
//! conductance.

use gossip_graph::{Graph, NodeId};
use gossip_sim::protocols::RoundRobinFlood;
use gossip_sim::Seeding;

use crate::{run_single_phase, DisseminationReport};

/// One-to-all dissemination from `source` by round-robin flooding; only the
/// source starts with a rumor.
pub fn broadcast(g: &Graph, source: NodeId, seed: u64) -> DisseminationReport {
    let seeding = Seeding::Broadcast(source);
    let r = run_single_phase(g, seeding, &mut RoundRobinFlood::new(g), seed, None);
    DisseminationReport::from_run("flooding", r)
}

/// All-to-all dissemination by round-robin flooding.
pub fn all_to_all(g: &Graph, seed: u64) -> DisseminationReport {
    let seeding = Seeding::AllToAll;
    let r = run_single_phase(g, seeding, &mut RoundRobinFlood::new(g), seed, None);
    DisseminationReport::from_run("flooding (all-to-all)", r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gossip_graph::generators;

    #[test]
    fn flooding_completes_on_basic_families() {
        for g in [
            generators::clique(16, 1).unwrap(),
            generators::path(16, 2).unwrap(),
            generators::star(16, 1).unwrap(),
            generators::grid(4, 4, 3).unwrap(),
        ] {
            let r = broadcast(&g, NodeId::new(0), 1);
            assert!(r.completed);
        }
    }

    #[test]
    fn flooding_cost_is_at_least_the_weighted_diameter() {
        // Information must physically traverse a diameter-length path, so no
        // dissemination algorithm (flooding included) can beat D rounds.
        let g = generators::path(12, 5).unwrap();
        let d = gossip_graph::metrics::weighted_diameter(&g).unwrap();
        let r = broadcast(&g, NodeId::new(0), 1);
        assert!(r.completed);
        assert!(
            r.rounds >= d,
            "flooding finished in {} rounds, below D = {d}",
            r.rounds
        );
    }

    #[test]
    fn flooding_must_pay_the_bridge_latency_on_a_dumbbell() {
        let g = generators::dumbbell(5, 40).unwrap();
        let r = all_to_all(&g, 2);
        assert!(r.completed);
        assert!(
            r.rounds >= 40,
            "crossing the latency-40 bridge cannot take {} rounds",
            r.rounds
        );
    }

    #[test]
    fn flooding_is_deterministic() {
        let g = generators::ring_of_cliques(3, 4, 5).unwrap();
        assert_eq!(
            broadcast(&g, NodeId::new(0), 1).rounds,
            broadcast(&g, NodeId::new(0), 9).rounds
        );
    }
}
