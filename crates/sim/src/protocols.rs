//! Reference protocols that live with the engine.
//!
//! The paper's algorithms proper (ℓ-DTG, spanner broadcast, pattern broadcast,
//! …) live in `gossip-core`.  The engine crate only ships the two elementary
//! strategies that everything else is measured against — uniform random
//! push–pull ([`RandomPushPull`]) and deterministic round-robin flooding
//! ([`RoundRobinFlood`]) — plus a [`Silent`] protocol used in tests.
//!
//! Each is written in the engine's one protocol shape: no shared state, and
//! per-node state that is nothing (push–pull, silent) or a cursor (flood),
//! so every one of them runs on [`SimConfig::threads`](crate::SimConfig::threads)
//! workers through [`Simulation::run`](crate::Simulation::run).
//!
//! Both protocols read the degree from `view.neighbors.len()` instead of
//! caching per-graph degree vectors: a protocol value reused on a different
//! graph would otherwise act on stale degrees and desync from the engine.

use gossip_graph::{Graph, NodeId};
use rand::rngs::SmallRng;
use rand::Rng;

use crate::engine::{stateless, Activity, NodeView, Protocol};

/// Classical push–pull (the "random phone call" model): every node contacts a
/// uniformly random neighbor in every round — until it is *saturated*.
///
/// Theorem 29 of the paper shows this completes information dissemination in
/// `O((ℓ*/φ*)·log n)` rounds w.h.p. in the latency model.
///
/// A node whose rumor set holds the full universe goes quiescent: it has
/// nothing left to pull, and anything it could push is pulled by its
/// unsaturated neighbors' own calls, so it stops initiating (the classical
/// "coordinated stopping" variant of the random phone call model).
/// Saturation is irreversible, so the protocol reports
/// [`Activity::Quiescent`] and the engine retires the node — this is what
/// lets runs that continue past all-to-all completion (`FixedRounds` far
/// beyond saturation) fast-forward instead of spinning `O(n)` RNG draws per
/// round.  The silence decision draws nothing from the RNG, keeping the
/// random stream — and therefore the whole run — identical whether or not
/// the engine actually asks the saturated node.
#[derive(Debug, Clone, Copy, Default)]
pub struct RandomPushPull;

impl RandomPushPull {
    /// Creates the protocol.  The graph is not inspected — all topology is
    /// read per round from the [`NodeView`] — but the constructor keeps the
    /// historical signature so call sites document which graph they run on.
    pub fn new(_graph: &Graph) -> Self {
        RandomPushPull
    }
}

impl Protocol for RandomPushPull {
    type Shared = ();
    type Node = ();

    fn name(&self) -> &'static str {
        "push-pull"
    }

    fn split(&mut self, n: usize) -> (&(), &mut [()]) {
        (&(), stateless(n))
    }

    fn on_round(_: &(), _: &mut (), view: &NodeView<'_>, rng: &mut SmallRng) -> Option<NodeId> {
        // The saturation check comes before the RNG draw: a quiescent node
        // must not perturb the random stream (see the `activity` contract).
        if view.neighbors.is_empty() || view.rumors.is_full() {
            return None;
        }
        let pick = rng.gen_range(0..view.neighbors.len());
        view.neighbors.get(pick).map(|&(w, _)| w)
    }

    // gossip-audit: contract(pure)
    fn activity(_: &(), _: &(), view: &NodeView<'_>) -> Activity {
        // A full rumor set never shrinks and an isolated node never gains a
        // neighbor: both silences are permanent.
        if view.neighbors.is_empty() || view.rumors.is_full() {
            Activity::Quiescent
        } else {
            Activity::Active
        }
    }
}

/// Per-node cursor and lap bookkeeping of [`RoundRobinFlood`].
#[derive(Debug, Clone, Copy, Default)]
pub struct FloodCursor {
    /// Index of the next neighbor to contact.
    cursor: usize,
    /// The node's rumor count the last time a lap was (re)started.  New
    /// rumors since then make the node *dirty*: it owes every neighbor one
    /// more contact.
    last_seen: usize,
    /// Contacts left in the current lap (0 = lap complete, node is clean).
    remaining: usize,
}

/// Deterministic flooding: a node cycles through its neighbors in round-robin
/// order, contacting one per round — but only while it is *dirty*, i.e. while
/// it has learned rumors its neighbors have not yet been offered.
///
/// This is the natural deterministic baseline; on a star it exhibits the
/// `Ω(n·D)` behaviour the paper mentions when pull is unavailable, and it is
/// also the inner loop of the RR-broadcast phase of the spanner algorithm
/// (there restricted to spanner out-edges, implemented in `gossip-core`).
///
/// **Dirty-lap idling.**  Each node caches the rumor count at which its
/// current relay lap started; once it has contacted every neighbor without
/// learning anything new in between, another contact could only repeat an
/// offer every neighbor has already received, so the node stops initiating
/// ("flood until quiet") instead of re-scanning its neighbor list forever.
/// New rumors — which can only arrive through a completed incident exchange,
/// one of the engine's wake events — restart a full lap from the current
/// cursor position.  The clean-state silence neither mutates the protocol
/// nor touches the RNG, so it is reported as [`Activity::IdleUntilWoken`]
/// and the engine can skip the node outright.
///
/// The lap bookkeeping observes rumor *counts*, which is only meaningful
/// within one simulation: a protocol value carried to a **different**
/// simulation whose initial counts happen to match the old final ones would
/// believe it already offered those (entirely different) rumors and stay
/// quiet.  Reusing a value is supported for *continuing* a run on the same
/// rumor state (see `Simulation::run`); for anything else, construct a fresh
/// protocol.
#[derive(Debug, Clone, Default)]
pub struct RoundRobinFlood {
    state: Vec<FloodCursor>,
}

impl RoundRobinFlood {
    /// Creates the protocol for a given graph (only the node count is used,
    /// to pre-size the cursor table; [`Protocol::split`] resizes it if the
    /// protocol is reused on a graph of another size).
    pub fn new(graph: &Graph) -> Self {
        RoundRobinFlood {
            state: vec![FloodCursor::default(); graph.node_count()],
        }
    }
}

impl Protocol for RoundRobinFlood {
    type Shared = ();
    type Node = FloodCursor;

    fn name(&self) -> &'static str {
        "round-robin-flood"
    }

    fn split(&mut self, n: usize) -> (&(), &mut [FloodCursor]) {
        self.state.resize(n, FloodCursor::default());
        (&(), &mut self.state)
    }

    /// Advances the node's lap state and picks its next neighbor.
    // gossip-lint: allow(panic-path): cursor wraps modulo the nonzero degree; deg == 0 returns first
    fn on_round(
        _: &(),
        st: &mut FloodCursor,
        view: &NodeView<'_>,
        _rng: &mut SmallRng,
    ) -> Option<NodeId> {
        let deg = view.neighbors.len();
        if deg == 0 {
            return None;
        }
        let len = view.rumors.len();
        if len != st.last_seen {
            // Fresh rumors since the lap started (or a protocol value reused
            // on a new simulation, where the count may even have shrunk):
            // every neighbor is owed a contact again.
            st.last_seen = len;
            st.remaining = deg;
        }
        if st.remaining == 0 {
            // Clean: every neighbor has been offered everything this node
            // knows.  Stay silent until new rumors arrive.
            return None;
        }
        st.remaining -= 1;
        let pick = st.cursor % deg;
        st.cursor = (st.cursor + 1) % deg;
        view.neighbors.get(pick).map(|&(w, _)| w)
    }

    // gossip-audit: contract(pure)
    fn activity(_: &(), st: &FloodCursor, view: &NodeView<'_>) -> Activity {
        if view.neighbors.is_empty() {
            return Activity::Quiescent;
        }
        // Mirror the `on_round` predicate exactly: silence is only promised
        // when the rumor count is unchanged *and* the lap is complete.
        if view.rumors.len() != st.last_seen || st.remaining > 0 {
            Activity::Active
        } else {
            Activity::IdleUntilWoken
        }
    }
}

/// A protocol that never communicates; useful for engine tests.
#[derive(Debug, Clone, Copy, Default)]
pub struct Silent;

impl Protocol for Silent {
    type Shared = ();
    type Node = ();

    fn name(&self) -> &'static str {
        "silent"
    }

    fn split(&mut self, n: usize) -> (&(), &mut [()]) {
        (&(), stateless(n))
    }

    fn on_round(_: &(), _: &mut (), _: &NodeView<'_>, _: &mut SmallRng) -> Option<NodeId> {
        None
    }

    // gossip-audit: contract(pure)
    fn activity(_: &(), _: &(), _: &NodeView<'_>) -> Activity {
        Activity::Quiescent
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SimConfig, Simulation, Termination};
    use gossip_graph::generators;

    #[test]
    fn push_pull_completes_all_to_all_on_expander_like_graph() {
        let g = generators::clique(20, 1).unwrap();
        let config = SimConfig::new(42).termination(Termination::AllKnowAll);
        let report = Simulation::new(&g, config).run(&mut RandomPushPull::new(&g));
        assert!(report.completed);
        assert_eq!(report.min_rumors_known, 20);
    }

    #[test]
    fn round_robin_flood_completes_on_path() {
        let g = generators::path(10, 2).unwrap();
        let config = SimConfig::new(1).termination(Termination::AllKnowAll);
        let report = Simulation::new(&g, config).run(&mut RoundRobinFlood::new(&g));
        assert!(report.completed);
    }

    #[test]
    fn round_robin_flood_is_deterministic() {
        let g = generators::cycle(12, 3).unwrap();
        let run = |seed| {
            let config = SimConfig::new(seed).termination(Termination::AllKnowAll);
            Simulation::new(&g, config)
                .run(&mut RoundRobinFlood::new(&g))
                .rounds
        };
        assert_eq!(run(1), run(999));
    }

    #[test]
    fn push_pull_is_reproducible_for_a_fixed_seed() {
        let g = generators::erdos_renyi(40, 0.2, 1, &mut rand::rngs::SmallRng::seed_from_u64(5))
            .unwrap();
        let run = |seed| {
            let config = SimConfig::new(seed).termination(Termination::AllKnowAll);
            Simulation::new(&g, config)
                .run(&mut RandomPushPull::new(&g))
                .rounds
        };
        assert_eq!(run(7), run(7));
    }

    #[test]
    fn silent_protocol_is_quiescent_immediately() {
        let g = generators::clique(4, 1).unwrap();
        let config = SimConfig::new(1)
            .termination(Termination::Quiescent)
            .max_rounds(10);
        let report = Simulation::new(&g, config).run(&mut Silent);
        assert!(report.completed);
        assert_eq!(report.rounds, 0);
    }

    #[test]
    fn protocols_survive_reuse_on_a_different_graph() {
        // Degrees are read from the view, so a protocol value carried from a
        // small graph to a larger one must behave exactly like a fresh one.
        let small = generators::path(3, 1).unwrap();
        let big = generators::clique(9, 1).unwrap();

        let mut reused = RandomPushPull::new(&small);
        let config = SimConfig::new(11).termination(Termination::AllKnowAll);
        let _ = Simulation::new(&small, config.clone()).run(&mut reused);
        let carried = Simulation::new(&big, config.clone()).run(&mut reused);
        let fresh = Simulation::new(&big, config.clone()).run(&mut RandomPushPull::new(&big));
        assert_eq!(carried, fresh);

        let mut reused = RoundRobinFlood::new(&small);
        let _ = Simulation::new(&small, config.clone()).run(&mut reused);
        let carried = Simulation::new(&big, config.clone()).run(&mut reused);
        assert!(carried.completed);
        assert_eq!(carried.min_rumors_known, 9);
    }

    #[test]
    fn flood_goes_idle_after_a_clean_lap_and_rewakes_on_news() {
        // Regression test for the dirty-lap flag: a node that has contacted
        // every neighbor without learning anything new since the lap began
        // must stop initiating (the old cursor re-scanned neighbors every
        // round forever), and must resume when a merge delivers new rumors.
        let g = generators::path(2, 1).unwrap();
        let config = SimConfig::new(1).termination(Termination::FixedRounds(40));
        let report = Simulation::new(&g, config).run(&mut RoundRobinFlood::new(&g));
        // Round 0: both initiate (initial rumor is un-offered news).  Round
        // 1: the merge delivers the peer's rumor — news again, one more
        // offer each.  Round 2 onward: rumor sets stop growing, laps are
        // complete, both nodes stay silent.  The old protocol initiated
        // every round: 40 rounds x 2 nodes = 80 activations.
        assert_eq!(report.activations, 4, "{report}");
        let mem = report.mem.unwrap();
        assert!(
            mem.rounds_skipped > 0,
            "idle flood nodes must let the engine fast-forward ({mem:?})"
        );
        assert_eq!(mem.active_final, 0, "{mem:?}");

        // A three-node path shows re-waking: the middle node goes clean
        // after its first lap, then receives rumor 2 (and later rumor 0)
        // through completed exchanges and must relay each across.
        let g = generators::path(3, 1).unwrap();
        let config = SimConfig::new(1).termination(Termination::AllKnowAll);
        let report = Simulation::new(&g, config).run(&mut RoundRobinFlood::new(&g));
        assert!(report.completed, "re-woken nodes must finish the relay");
        assert_eq!(report.min_rumors_known, 3);
    }

    use rand::SeedableRng;
}
