//! The Lemma 6 reduction: simulating a gossip protocol as a guessing-game
//! strategy.
//!
//! Lemma 6 of the paper: if a gossip algorithm solves local broadcast on a
//! network containing a gadget `G(2m, 1, h, P)` whose cross edges form a cut,
//! then Alice can solve `Guessing(2m, P)` in at most as many rounds — she
//! simulates the algorithm and submits the cross edges it activates as
//! guesses.  This module performs that simulation literally: it runs a gossip
//! protocol on a [`GadgetNetwork`](crate::gadgets::GadgetNetwork), records the
//! cross edges activated in every round, replays them as guesses against the
//! actual guessing game, and reports both round counts so tests and
//! experiments can check `game rounds ≤ gossip rounds`.

use gossip_graph::NodeId;
use gossip_sim::protocols::RandomPushPull;
use gossip_sim::{NodeView, Protocol, SimConfig, Simulation, Termination};
use rand::rngs::SmallRng;

use crate::gadgets::GadgetNetwork;
use crate::game::{GuessingGame, Pair};

/// Runs push–pull and records every cross-edge activation of the gadget.
///
/// Each node logs its own activations, so the recorder runs in parallel like
/// any protocol; [`activations`](Self::activations) merges the logs in
/// `(round, node)` order, which is the order a serial pass makes them in.
#[derive(Debug)]
pub struct CrossEdgeRecorder<'a> {
    network: &'a GadgetNetwork,
    /// Per node, `(round, pair)` for every cross edge it activated.
    logs: Vec<Vec<(u64, Pair)>>,
}

impl<'a> CrossEdgeRecorder<'a> {
    /// Creates the recorder for the gadget network's graph.
    pub fn new(network: &'a GadgetNetwork) -> Self {
        CrossEdgeRecorder {
            network,
            logs: vec![Vec::new(); network.graph.node_count()],
        }
    }

    /// Every recorded activation as `(round, pair)`, in `(round, node)` order.
    pub fn activations(&self) -> Vec<(u64, Pair)> {
        let mut all: Vec<(u64, usize, Pair)> = self
            .logs
            .iter()
            .enumerate()
            .flat_map(|(v, log)| log.iter().map(move |&(round, pair)| (round, v, pair)))
            .collect();
        all.sort_unstable_by_key(|&(round, v, _)| (round, v));
        all.into_iter()
            .map(|(round, _, pair)| (round, pair))
            .collect()
    }
}

impl<'a> Protocol for CrossEdgeRecorder<'a> {
    type Shared = &'a GadgetNetwork;
    type Node = Vec<(u64, Pair)>;

    fn name(&self) -> &'static str {
        "cross-edge-recorder"
    }

    fn split(&mut self, _n: usize) -> (&&'a GadgetNetwork, &mut [Vec<(u64, Pair)>]) {
        (&self.network, &mut self.logs)
    }

    fn on_round(
        network: &&'a GadgetNetwork,
        log: &mut Vec<(u64, Pair)>,
        view: &NodeView<'_>,
        rng: &mut SmallRng,
    ) -> Option<NodeId> {
        let choice = RandomPushPull::on_round(&(), &mut (), view, rng);
        if let Some(target) = choice {
            if let Some(pair) = network.cross_pair(view.node, target) {
                log.push((view.round, pair));
            }
        }
        choice
    }
}

/// Outcome of one reduction experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReductionOutcome {
    /// Rounds the gossip protocol needed to solve local broadcast on the gadget.
    pub gossip_rounds: u64,
    /// Rounds after which Alice's derived guesses empty the target set
    /// (`None` if the target was never emptied — which Lemma 6 rules out
    /// whenever local broadcast completed).
    pub game_rounds: Option<u64>,
    /// Whether local broadcast completed within the round budget.
    pub gossip_completed: bool,
    /// Number of cross-edge activations the protocol made.
    pub cross_activations: u64,
}

/// Runs push–pull for local broadcast on the gadget network and derives the
/// guessing-game solution from its cross-edge activations (Lemma 6 with the
/// push–pull protocol, which is exactly the "random guessing" strategy of
/// Lemma 8(b)).
pub fn push_pull_reduction(network: &GadgetNetwork, seed: u64) -> ReductionOutcome {
    let g = &network.graph;
    let cap = (g.node_count() as u64)
        .saturating_mul(g.max_latency().max(1))
        .saturating_mul(4)
        .max(10_000);
    let config = SimConfig::new(seed)
        .termination(Termination::LocalBroadcast(g.max_latency()))
        .max_rounds(cap);
    let mut protocol = CrossEdgeRecorder::new(network);
    let report = Simulation::new(g, config).run(&mut protocol);
    let activations = protocol.activations();

    // Replay the recorded activations round by round as Alice's guesses.
    let mut game = GuessingGame::with_target(network.m, network.target.clone());
    let mut game_rounds = None;
    let mut idx = 0usize;
    if game.is_solved() {
        game_rounds = Some(0);
    } else {
        for round in 0..=report.rounds {
            let mut guesses: Vec<Pair> = Vec::new();
            while idx < activations.len() && activations[idx].0 == round {
                guesses.push(activations[idx].1);
                idx += 1;
            }
            // The game allows at most 2m guesses per round; push–pull activates
            // at most one edge per node per round, i.e. at most 2m cross edges.
            game.submit(&guesses);
            if game.is_solved() {
                game_rounds = Some(round + 1);
                break;
            }
        }
    }

    ReductionOutcome {
        gossip_rounds: report.rounds,
        game_rounds,
        gossip_completed: report.completed,
        cross_activations: activations.len() as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gadgets;
    use crate::predicates::TargetPredicate;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn reduction_solves_the_game_when_local_broadcast_completes() {
        let mut rng = SmallRng::seed_from_u64(1);
        let net = gadgets::gadget(
            8,
            1,
            200,
            TargetPredicate::Random { p: 0.3 },
            false,
            &mut rng,
        )
        .unwrap();
        let out = push_pull_reduction(&net, 42);
        assert!(out.gossip_completed);
        let game_rounds = out.game_rounds.expect("Lemma 6: the game must be solved");
        // Alice's simulation never needs more rounds than the gossip run.
        assert!(game_rounds <= out.gossip_rounds + 1);
        assert!(out.cross_activations > 0);
    }

    #[test]
    fn reduction_on_singleton_target_needs_many_rounds() {
        // Lemma 7 / Theorem 9 shape: finding the single hidden fast edge among
        // m² candidates takes Ω(m) rounds of random guessing.
        let mut rng = SmallRng::seed_from_u64(2);
        let small =
            gadgets::gadget(4, 1, 1_000, TargetPredicate::Singleton, true, &mut rng).unwrap();
        let large =
            gadgets::gadget(16, 1, 1_000, TargetPredicate::Singleton, true, &mut rng).unwrap();
        let avg = |net: &gadgets::GadgetNetwork, seeds: std::ops::Range<u64>| {
            let mut total = 0u64;
            let count = seeds.end - seeds.start;
            for s in seeds {
                let out = push_pull_reduction(net, s);
                total += out.game_rounds.unwrap_or(out.gossip_rounds);
            }
            total as f64 / count as f64
        };
        let small_rounds = avg(&small, 0..6);
        let large_rounds = avg(&large, 0..6);
        assert!(
            large_rounds > 1.5 * small_rounds,
            "game rounds should grow with m: m=4 -> {small_rounds:.1}, m=16 -> {large_rounds:.1}"
        );
    }

    #[test]
    fn denser_targets_are_found_faster() {
        let mut rng = SmallRng::seed_from_u64(3);
        let dense = gadgets::gadget(
            12,
            1,
            500,
            TargetPredicate::Random { p: 0.5 },
            false,
            &mut rng,
        )
        .unwrap();
        let sparse = gadgets::gadget(
            12,
            1,
            500,
            TargetPredicate::Random { p: 0.05 },
            false,
            &mut rng,
        )
        .unwrap();
        let d = push_pull_reduction(&dense, 9);
        let s = push_pull_reduction(&sparse, 9);
        assert!(d.gossip_completed && s.gossip_completed);
        assert!(
            s.gossip_rounds >= d.gossip_rounds,
            "sparse fast edges ({}) should not be easier than dense ({})",
            s.gossip_rounds,
            d.gossip_rounds
        );
    }
}
