//! Classical push–pull ("random phone call") in the latency model.
//!
//! Theorem 29 of the paper: push–pull achieves information dissemination
//! w.h.p. in `O((ℓ*/φ*)·log n)` rounds, where `φ*` is the critical weighted
//! conductance and `ℓ*` the critical latency.  Corollary 30 restates this as
//! `O((L/φ_avg)·log n)` in terms of the average weighted conductance.
//!
//! The protocol itself needs no knowledge of the latencies (or anything else
//! about the graph beyond each node's neighbor list), which is why it is the
//! workhorse for the *unknown latency* setting (Section 5.1).

use gossip_graph::{Graph, NodeId};
use gossip_sim::protocols::RandomPushPull;
use gossip_sim::Seeding;

use crate::{run_single_phase, DisseminationReport};

/// One-to-all dissemination from `source` using push–pull.
///
/// Only the source starts with a rumor.  Runs until every node knows it (or
/// [`run_single_phase`]'s round cap is hit, in which case `completed` is
/// `false`).
pub fn broadcast(g: &Graph, source: NodeId, seed: u64) -> DisseminationReport {
    let seeding = Seeding::Broadcast(source);
    let r = run_single_phase(g, seeding, &mut RandomPushPull::new(g), seed, None);
    DisseminationReport::from_run("push-pull", r)
}

/// All-to-all dissemination using push–pull: every node starts with its own
/// rumor and the run ends when every node knows every rumor.
pub fn all_to_all(g: &Graph, seed: u64) -> DisseminationReport {
    let seeding = Seeding::AllToAll;
    let r = run_single_phase(g, seeding, &mut RandomPushPull::new(g), seed, None);
    DisseminationReport::from_run("push-pull (all-to-all)", r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gossip_graph::generators;
    use gossip_sim::{SimConfig, Simulation, Termination};

    #[test]
    fn broadcast_on_clique_is_logarithmic() {
        let g = generators::clique(64, 1).unwrap();
        let r = broadcast(&g, NodeId::new(0), 1);
        assert!(r.completed);
        // O(log n) with small constants; 64 nodes should finish well under 40 rounds.
        assert!(
            r.rounds <= 40,
            "push-pull too slow on a clique: {} rounds",
            r.rounds
        );
    }

    #[test]
    fn broadcast_scales_with_latency_on_uniform_clique() {
        let fast = generators::clique(32, 1).unwrap();
        let slow = generators::clique(32, 8).unwrap();
        let rf = broadcast(&fast, NodeId::new(0), 3);
        let rs = broadcast(&slow, NodeId::new(0), 3);
        assert!(rf.completed && rs.completed);
        assert!(
            rs.rounds >= 4 * rf.rounds,
            "uniformly slow clique ({}) should be ~8x slower than fast ({})",
            rs.rounds,
            rf.rounds
        );
    }

    #[test]
    fn all_to_all_completes_on_ring_of_cliques() {
        let g = generators::ring_of_cliques(4, 6, 4).unwrap();
        let r = all_to_all(&g, 5);
        assert!(r.completed);
        assert!(r.rounds > 0);
    }

    #[test]
    fn local_broadcast_ignores_edges_above_bound() {
        let g = generators::dumbbell(6, 1000).unwrap();
        // Local broadcast over fast edges only never needs to use the slow bridge.
        let config = SimConfig::new(2)
            .termination(Termination::LocalBroadcast(1))
            .max_rounds(crate::round_cap(&g));
        let r = Simulation::new(&g, config).run(&mut RandomPushPull::new(&g));
        assert!(r.completed);
        assert!(r.rounds < 500);
    }

    #[test]
    fn broadcast_from_any_source_completes() {
        let g = generators::binary_tree(31, 2).unwrap();
        for source in [0usize, 15, 30] {
            let r = broadcast(&g, NodeId::new(source), 11);
            assert!(r.completed, "failed from source {source}");
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let g = generators::ring_of_cliques(3, 5, 6).unwrap();
        let a = broadcast(&g, NodeId::new(0), 77);
        let b = broadcast(&g, NodeId::new(0), 77);
        assert_eq!(a.rounds, b.rounds);
        assert_eq!(a.activations, b.activations);
    }
}
