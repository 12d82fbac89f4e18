//! ℓ-DTG: Deterministic Tree Gossip local broadcast (Appendix A.1 of the paper,
//! after Haeupler's DTG algorithm).
//!
//! Local broadcast asks every node to exchange rumors with all of its
//! neighbors; the ℓ-variant restricts attention to neighbors joined by an
//! edge of latency at most `ℓ` (the subgraph `G_ℓ`).  DTG achieves this in
//! `O(log² n)` *iterations-worth* of communication on unweighted graphs, and
//! `O(ℓ·log² n)` rounds when each exchange costs up to `ℓ` rounds — which is
//! what makes it the building block of the spanner and pattern broadcast
//! algorithms (Sections 4.1 and 4.2).
//!
//! The implementation follows the pseudocode of Algorithm 6 in the paper: each
//! node runs iterations; in iteration `i` it links to a new neighbor it has
//! not heard from yet and then performs the pipelined
//! PUSH(i..1) / PULL(1..i) / PULL / PUSH exchange sequence over the neighbors
//! linked so far, waiting for each exchange to complete before the next.
//!
//! DTG is deterministic, so a node's schedule never depends on the rumors it
//! carries — only on whom it has heard from.  [`run_with_rumors`] therefore
//! works in two passes.  The first runs the invocation from the canonical
//! "every node knows its own rumor" state, where a node's rumor set is
//! exactly the set of nodes it has heard from, so [`EllDtg`] links by
//! reading the engine's own rumor set.  When the caller's rumor sets are
//! that canonical state, the first pass is the run.  Otherwise a second pass
//! replays the same state machine over the caller's sets, each node taking
//! its links from the order the first pass recorded: the same exchanges
//! complete in the same rounds, carrying the caller's rumors.

use gossip_graph::{Graph, Latency, NodeId};
use gossip_sim::{
    Activity, ExchangeEvent, NodeView, Protocol, RumorId, RumorSet, Seeding, SimConfig, Simulation,
    Termination,
};
use rand::rngs::SmallRng;

use crate::DisseminationReport;

/// Per-node program state of the ℓ-DTG state machine.
#[derive(Debug, Clone)]
pub struct DtgNode {
    /// Neighbors reachable over edges of latency ≤ the bound, in id order
    /// (empty when replaying: every link is already in `linked`).
    fast_neighbors: Vec<NodeId>,
    /// Neighbors linked so far in this invocation (`u_1 … u_i`); when
    /// replaying, the whole recorded link order, of which the first
    /// `iterations` are linked.
    linked: Vec<NodeId>,
    /// Exchange targets of the current iteration, in order.
    queue: Vec<NodeId>,
    /// Next index into `queue`.
    queue_pos: usize,
    /// `true` while an exchange this node initiated is still in flight.
    waiting: bool,
    /// `true` once the node has heard from all of its fast neighbors (or,
    /// when replaying, has made every recorded link).
    done: bool,
    /// Number of iterations performed (for the `O(log n)`-iterations check).
    iterations: usize,
}

impl DtgNode {
    /// Links the next neighbor and queues the iteration's exchanges, or marks
    /// the node done when there is none left.  The next neighbor is the first
    /// fast neighbor whose rumor `heard` lacks, or, when replaying, the next
    /// entry of the recorded link order.
    fn start_iteration(&mut self, heard: &RumorSet) {
        let fresh = self
            .fast_neighbors
            .iter()
            .copied()
            .find(|&u| !heard.contains(RumorId::of_node(u)));
        self.linked.extend(fresh);
        if self.iterations == self.linked.len() {
            self.done = true;
            return;
        }
        self.iterations += 1;
        // PUSH j = i..1, PULL j = 1..i, then the symmetric PULL, PUSH pass.
        let linked = || self.linked.iter().take(self.iterations).copied();
        let mut queue = Vec::with_capacity(4 * self.iterations);
        queue.extend(linked().rev()); // PUSH i..1
        queue.extend(linked()); // PULL 1..i
        queue.extend(linked()); // PULL 1..i
        queue.extend(linked().rev()); // PUSH i..1
        self.queue = queue;
        self.queue_pos = 0;
    }

    /// This node's program restarted to replay the links it made, whatever
    /// rumors the next run carries.
    fn replay(self) -> Self {
        DtgNode {
            done: self.fast_neighbors.is_empty(),
            fast_neighbors: Vec::new(),
            linked: self.linked,
            queue: Vec::new(),
            queue_pos: 0,
            waiting: false,
            iterations: 0,
        }
    }
}

/// The ℓ-DTG local-broadcast protocol.
///
/// A node links by what its rumor set holds, so on its own the protocol is
/// ℓ-DTG only from the "every node knows its own rumor" state.  Run it with
/// [`local_broadcast`], or over existing rumor state with
/// [`run_with_rumors`] (as the pattern-broadcast schedule does).
///
/// A node never initiates while an exchange it initiated is in flight: it
/// sets `waiting` when it initiates and clears it in
/// [`on_exchange`](Protocol::on_exchange) when that exchange completes.  So
/// on the simulator's non-blocking exchanges every run is also a blocking
/// run, the setting Section 4.2 analyses (pinned by
/// `tests/activity_equivalence.rs`).
#[derive(Debug)]
pub struct EllDtg {
    nodes: Vec<DtgNode>,
}

impl EllDtg {
    /// Creates the protocol for graph `g` with latency bound `bound`.
    pub fn new(g: &Graph, bound: Latency) -> Self {
        let nodes = g
            .nodes()
            .map(|v| {
                let fast_neighbors: Vec<NodeId> = g
                    .neighbor_slice(v)
                    .iter()
                    .filter(|&&(_, e)| g.latency(e) <= bound)
                    .map(|&(w, _)| w)
                    .collect();
                DtgNode {
                    done: fast_neighbors.is_empty(),
                    fast_neighbors,
                    linked: Vec::new(),
                    queue: Vec::new(),
                    queue_pos: 0,
                    waiting: false,
                    iterations: 0,
                }
            })
            .collect();
        EllDtg { nodes }
    }

    /// The protocol restarted to replay every node's recorded links.
    fn replay(self) -> Self {
        EllDtg {
            nodes: self.nodes.into_iter().map(DtgNode::replay).collect(),
        }
    }

    /// Largest number of iterations any node performed (the quantity the
    /// DTG analysis bounds by `O(log n)`).
    pub fn max_iterations(&self) -> usize {
        self.nodes.iter().map(|s| s.iterations).max().unwrap_or(0)
    }
}

impl Protocol for EllDtg {
    type Shared = ();
    type Node = DtgNode;

    fn name(&self) -> &'static str {
        "ell-dtg"
    }

    fn split(&mut self, _n: usize) -> (&(), &mut [DtgNode]) {
        (&(), &mut self.nodes)
    }

    fn on_round(
        _: &(),
        st: &mut DtgNode,
        view: &NodeView<'_>,
        _rng: &mut SmallRng,
    ) -> Option<NodeId> {
        if st.done || st.waiting {
            return None;
        }
        if st.queue_pos >= st.queue.len() {
            // Iteration finished (or not started yet): start the next one,
            // or finish once every fast neighbor has been heard from.
            st.start_iteration(view.rumors);
            if st.done {
                return None;
            }
        }
        let target = *st.queue.get(st.queue_pos)?;
        st.waiting = true;
        Some(target)
    }

    fn on_exchange(&mut self, node: NodeId, event: &ExchangeEvent) {
        if !event.initiated_here {
            return;
        }
        if let Some(st) = self.nodes.get_mut(node.index()) {
            st.waiting = false;
            st.queue_pos += 1;
        }
    }

    // gossip-audit: contract(pure)
    fn activity(_: &(), st: &DtgNode, _: &NodeView<'_>) -> Activity {
        if st.done {
            // `done` is never reset: the node has heard from every fast
            // neighbor and `on_round` returns `None` forever.
            Activity::Quiescent
        } else if st.waiting {
            // Blocked on its own in-flight exchange; its completion is a
            // wake event (it reaches `on_exchange` with `initiated_here`,
            // which clears `waiting`).  Until then `on_round` returns `None`
            // without touching any state or the RNG.
            Activity::IdleUntilWoken
        } else {
            Activity::Active
        }
    }
}

/// Runs ℓ-DTG local broadcast on `g` with the given latency bound, starting
/// from the canonical "every node knows its own rumor" state.
///
/// The run stops when every node's program has finished (which implies every
/// node has exchanged rumors with all of its ≤ ℓ neighbors).
pub fn local_broadcast(g: &Graph, bound: Latency, seed: u64) -> DisseminationReport {
    let rumors = Seeding::AllToAll.initial_sets(g.node_count());
    let (mut report, rumors, _) = run_with_rumors(g, bound, seed, rumors, false);
    // Double-check the local-broadcast postcondition against the rumor state.
    report.completed &= local_broadcast_achieved(g, bound, &rumors);
    report
}

/// Runs one ℓ-DTG invocation starting from the supplied rumor sets and returns
/// `(report, final rumor sets, max iterations)`.
///
/// This is the form the pattern-broadcast schedule needs: rumor knowledge is
/// carried across invocations while the "who have I exchanged with" state is
/// reset for each invocation.  The schedule comes from a run from the
/// canonical "every node knows its own rumor" state; unless `rumors` is that
/// state, a second run replays the schedule over `rumors` (see the module
/// docs).
///
/// `_blocking` is ignored.  Each node already waits for its own exchange to
/// complete before initiating the next, so a blocking and a non-blocking run
/// are the same run; the argument stays for callers written against the
/// engine's former blocking mode.
///
/// # Panics
///
/// Panics if `rumors.len()` differs from the node count of `g`.
pub fn run_with_rumors(
    g: &Graph,
    bound: Latency,
    seed: u64,
    rumors: Vec<RumorSet>,
    _blocking: bool,
) -> (DisseminationReport, Vec<RumorSet>, usize) {
    let config = SimConfig::new(seed)
        .termination(Termination::Quiescent)
        .max_rounds(round_cap(g, bound));
    let mut protocol = EllDtg::new(g, bound);
    let mut sim = Simulation::new(g, config.clone());
    let mut report = sim.run(&mut protocol);
    let iterations = protocol.max_iterations();
    let n = g.node_count();
    let canonical = rumors.len() == n
        && rumors.iter().enumerate().all(|(i, set)| {
            set.universe() == n && set.len() == 1 && set.contains(RumorId::of_node(NodeId::new(i)))
        });
    let rumors = if canonical {
        sim.into_rumors()
    } else {
        let mut sim = Simulation::with_rumors(g, config, rumors);
        report = sim.run(&mut protocol.replay());
        sim.into_rumors()
    };
    let out = DisseminationReport::single(
        "ell-dtg",
        report.rounds,
        report.activations,
        report.completed,
    );
    (out, rumors, iterations)
}

/// Checks the ℓ-local-broadcast postcondition: every node knows the rumor of
/// every neighbor connected to it by an edge of latency at most `bound`.
pub fn local_broadcast_achieved(g: &Graph, bound: Latency, rumors: &[RumorSet]) -> bool {
    g.nodes().all(|v| {
        g.neighbor_slice(v)
            .iter()
            .all(|&(w, e)| g.latency(e) > bound || rumors[v.index()].contains(RumorId::of_node(w)))
    })
}

fn round_cap(g: &Graph, bound: Latency) -> u64 {
    // DTG costs O(ℓ · log² n); allow a very generous multiple before giving up.
    let n = g.node_count() as u64;
    let log = (64 - n.leading_zeros() as u64).max(1);
    bound
        .max(1)
        .saturating_mul(log * log * 64)
        .saturating_add(n.saturating_mul(4))
        .saturating_add(1_000)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gossip_graph::generators;

    #[test]
    fn dtg_achieves_local_broadcast_on_clique() {
        let g = generators::clique(16, 1).unwrap();
        let r = local_broadcast(&g, 1, 1);
        assert!(r.completed);
        assert!(r.rounds > 0);
    }

    #[test]
    fn dtg_achieves_local_broadcast_on_grid_and_tree() {
        for g in [
            generators::grid(5, 5, 1).unwrap(),
            generators::binary_tree(31, 1).unwrap(),
        ] {
            let r = local_broadcast(&g, 1, 3);
            assert!(r.completed);
        }
    }

    #[test]
    fn dtg_cost_scales_with_latency_bound() {
        let fast = generators::clique(12, 1).unwrap();
        let slow = generators::clique(12, 6).unwrap();
        let rf = local_broadcast(&fast, 1, 5);
        let rs = local_broadcast(&slow, 6, 5);
        assert!(rf.completed && rs.completed);
        assert!(
            rs.rounds >= 3 * rf.rounds,
            "latency-6 clique ({}) should cost ~6x the latency-1 clique ({})",
            rs.rounds,
            rf.rounds
        );
    }

    #[test]
    fn dtg_iteration_count_is_logarithmic_on_cliques() {
        // The DTG analysis promises O(log n) iterations; check the measured
        // iteration count stays well below the trivial Δ bound.
        let g = generators::clique(64, 1).unwrap();
        let mut protocol = EllDtg::new(&g, 1);
        let config = SimConfig::new(2)
            .termination(Termination::Quiescent)
            .max_rounds(100_000);
        let mut sim = Simulation::new(&g, config);
        let report = sim.run(&mut protocol);
        assert!(report.completed);
        // In this model a node can answer any number of concurrent requests,
        // so hub-style aggregation can finish in very few iterations; the DTG
        // analysis only promises the O(log n) upper bound, which is what we check.
        let iters = protocol.max_iterations();
        assert!(iters >= 1);
        assert!(iters <= 24, "iterations {iters} should be far below Δ = 63");
        assert!(local_broadcast_achieved(&g, 1, sim.rumors()));
    }

    #[test]
    fn ell_bound_excludes_slow_edges() {
        // Dumbbell with a very slow bridge: 1-DTG must not wait for the bridge.
        let g = generators::dumbbell(6, 10_000).unwrap();
        let r = local_broadcast(&g, 1, 7);
        assert!(r.completed);
        assert!(
            r.rounds < 2_000,
            "1-DTG must ignore the latency-10000 bridge"
        );
    }

    #[test]
    fn dtg_with_bound_covering_slow_edges_reaches_across() {
        let g = generators::dumbbell(4, 16).unwrap();
        let r = local_broadcast(&g, 16, 9);
        assert!(r.completed);
        // The bridge endpoints must have exchanged, which costs at least 16 rounds.
        assert!(r.rounds >= 16);
    }

    #[test]
    fn run_with_rumors_preserves_and_extends_knowledge() {
        let g = generators::path(6, 2).unwrap();
        let n = g.node_count();
        // Start from a state where node 0 already knows everything.
        let mut initial = Seeding::AllToAll.initial_sets(n);
        for i in 0..n {
            initial[0].insert(RumorId::from(i));
        }
        let (report, final_rumors, _) = run_with_rumors(&g, 2, 3, initial, false);
        assert!(report.completed);
        // Node 1 must now know node 0's whole set is not required, but it must
        // at least have heard from both of its neighbors.
        assert!(final_rumors[1].contains(RumorId::from(0)));
        assert!(final_rumors[1].contains(RumorId::from(2)));
        assert!(local_broadcast_achieved(&g, 2, &final_rumors));
    }

    #[test]
    fn huge_latency_bound_saturates_the_round_cap() {
        let r = local_broadcast(&generators::path(3, 1).unwrap(), u64::MAX, 1);
        assert!(r.completed);
    }

    #[test]
    fn node_with_no_fast_neighbors_is_immediately_idle() {
        let g = generators::path(3, 50).unwrap();
        let r = local_broadcast(&g, 1, 1);
        // No edge has latency ≤ 1, so local broadcast is vacuously achieved in 0 rounds.
        assert!(r.completed);
        assert_eq!(r.rounds, 0);
    }
}
