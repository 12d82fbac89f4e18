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
//! "Heard from" is tracked per invocation with exactly the same *snapshot-free*
//! semantics the simulator uses for rumors: each node keeps an append-only
//! [`AcquisitionLog`] of the ids it heard, an in-flight exchange records only
//! the two log **lengths** at initiation, and completion replays the
//! unmerged log prefix through a per-direction watermark.  A node therefore
//! never believes it heard from a neighbor whose rumors it has not actually
//! received — at the cost of two integers per in-flight exchange instead of
//! the two full `RumorSet` clones this used to take.

use std::collections::HashMap;

use gossip_graph::{Graph, Latency, NodeId};
use gossip_sim::{
    AcquisitionLog, Activity, ExchangeEvent, NodeView, Protocol, RumorId, RumorSet, Seeding,
    SimConfig, Simulation, Termination,
};
use rand::rngs::SmallRng;

use crate::DisseminationReport;

/// Per-node program state of the ℓ-DTG state machine.
#[derive(Debug, Clone)]
pub struct DtgNode {
    /// Neighbors reachable over edges of latency ≤ the bound, in id order.
    fast_neighbors: Vec<NodeId>,
    /// Neighbors linked so far in this invocation (`u_1 … u_i`).
    linked: Vec<NodeId>,
    /// Exchange targets of the current iteration, in order.
    queue: Vec<NodeId>,
    /// Next index into `queue`.
    queue_pos: usize,
    /// `true` while an exchange this node initiated is still in flight.
    waiting: bool,
    /// Heard-log lengths `(this node, target)` when that exchange was
    /// initiated — the snapshot-free analogue of the engine's own exchange
    /// bookkeeping.  While `waiting` is set the node has exactly one
    /// initiated exchange in flight, so one slot suffices; its completion
    /// takes it back.
    snapshot: Option<(u32, u32)>,
    /// `true` once the node has heard from all of its fast neighbors.
    done: bool,
    /// Number of iterations performed (for the `O(log n)`-iterations check).
    iterations: usize,
}

impl DtgNode {
    /// Links a fast neighbor not yet heard from and queues the iteration's
    /// exchanges, or marks the node done when there is none left.
    fn start_iteration(&mut self, heard: &RumorSet) {
        let fresh = self
            .fast_neighbors
            .iter()
            .copied()
            .find(|&u| !heard.contains(RumorId::of_node(u)));
        let Some(new_neighbor) = fresh else {
            self.done = true;
            return;
        };
        self.linked.push(new_neighbor);
        self.iterations += 1;
        // PUSH j = i..1, PULL j = 1..i, then the symmetric PULL, PUSH pass.
        let linked = &self.linked;
        let mut queue = Vec::with_capacity(4 * linked.len());
        queue.extend(linked.iter().rev().copied()); // PUSH i..1
        queue.extend(linked.iter().copied()); // PULL 1..i
        queue.extend(linked.iter().copied()); // PULL 1..i
        queue.extend(linked.iter().rev().copied()); // PUSH i..1
        self.queue = queue;
        self.queue_pos = 0;
    }
}

/// Who each node has heard from during one ℓ-DTG invocation.  Only
/// [`EllDtg`]'s `on_exchange` writes it; every decision reads it.
#[derive(Debug)]
pub struct Heard {
    /// Per-node set of node ids heard from.
    sets: Vec<RumorSet>,
    /// Append-only acquisition order of each set (run-compressed);
    /// in-flight exchanges snapshot *positions* into these logs, never the
    /// sets themselves.
    logs: Vec<AcquisitionLog>,
    /// Directed merge watermarks: `(src, dst) → position`, the prefix of
    /// `src`'s log already replayed into `dst`.  Completions replay only
    /// `[watermark, snapshot)`, so overlapping exchanges on the same pair
    /// never re-scan merged history.
    // gossip-lint: allow(unordered-iter): keyed watermark lookups only, never iterated — order can't reach any observable
    merged: HashMap<(u32, u32), u32>,
    /// Scratch reused across completions (log segments, newly heard runs).
    scratch_segments: Vec<(RumorId, u32)>,
    scratch_new: Vec<(RumorId, u32)>,
}

impl Heard {
    /// Records `id` as heard by `node`, keeping the acquisition log in sync.
    // gossip-lint: allow(panic-path): per-node state vec is sized n at construction; node ids come from the engine
    fn hear(&mut self, node: usize, id: RumorId) {
        if self.sets[node].insert(id) {
            self.logs[node].push(id);
        }
    }

    /// Replays `src`'s heard-log prefix `[watermark, upto)` into `dst`,
    /// advancing the directed watermark.  Positions below the watermark were
    /// already merged into `dst` by an earlier completion on this pair, so
    /// the result equals the old union-with-snapshot semantics.
    // gossip-lint: allow(panic-path): log positions are bounded by the acquisition-log length invariant
    fn replay(&mut self, src: usize, dst: usize, upto: u32) {
        let wm = self.merged.entry((src as u32, dst as u32)).or_insert(0);
        let from = *wm;
        if from >= upto {
            return;
        }
        *wm = upto;
        let mut segments = std::mem::take(&mut self.scratch_segments);
        self.logs[src].for_each_segment(from, upto, |first, len| {
            segments.push((first, len));
        });
        let mut new_runs = std::mem::take(&mut self.scratch_new);
        for &(first, len) in &segments {
            self.sets[dst].insert_run(first, len, &mut new_runs);
        }
        for &(first, len) in &new_runs {
            self.logs[dst].push_run(first, len);
        }
        segments.clear();
        new_runs.clear();
        self.scratch_segments = segments;
        self.scratch_new = new_runs;
    }
}

/// The ℓ-DTG local-broadcast protocol.
///
/// Run it with [`local_broadcast`] or compose it with existing rumor state via
/// [`run_with_rumors`] (as the pattern-broadcast schedule does).
#[derive(Debug)]
pub struct EllDtg {
    bound: Latency,
    heard: Heard,
    nodes: Vec<DtgNode>,
}

impl EllDtg {
    /// Creates the protocol for graph `g` with latency bound `bound`.
    pub fn new(g: &Graph, bound: Latency) -> Self {
        let n = g.node_count();
        let nodes = g
            .nodes()
            .map(|v| {
                let fast_neighbors: Vec<NodeId> = g
                    .neighbors(v)
                    .filter(|&(_, e)| g.latency(e) <= bound)
                    .map(|(w, _)| w)
                    .collect();
                DtgNode {
                    done: fast_neighbors.is_empty(),
                    fast_neighbors,
                    linked: Vec::new(),
                    queue: Vec::new(),
                    queue_pos: 0,
                    waiting: false,
                    snapshot: None,
                    iterations: 0,
                }
            })
            .collect();
        let sets = Seeding::AllToAll.initial_sets(n);
        let logs = sets.iter().map(AcquisitionLog::from_set).collect();
        EllDtg {
            bound,
            heard: Heard {
                sets,
                logs,
                merged: HashMap::new(),
                scratch_segments: Vec::new(),
                scratch_new: Vec::new(),
            },
            nodes,
        }
    }

    /// Latency bound ℓ of this invocation.
    pub fn bound(&self) -> Latency {
        self.bound
    }

    /// Largest number of iterations any node performed (the quantity the
    /// DTG analysis bounds by `O(log n)`).
    pub fn max_iterations(&self) -> usize {
        self.nodes.iter().map(|s| s.iterations).max().unwrap_or(0)
    }
}

impl Protocol for EllDtg {
    type Shared = Heard;
    type Node = DtgNode;

    fn name(&self) -> &'static str {
        "ell-dtg"
    }

    fn split(&mut self, _n: usize) -> (&Heard, &mut [DtgNode]) {
        (&self.heard, &mut self.nodes)
    }

    // gossip-lint: allow(panic-path): the heard sets and logs are sized n at construction
    fn on_round(
        heard: &Heard,
        st: &mut DtgNode,
        view: &NodeView<'_>,
        _rng: &mut SmallRng,
    ) -> Option<NodeId> {
        if st.done || st.waiting {
            return None;
        }
        let v = view.node.index();
        if st.queue_pos >= st.queue.len() {
            // Iteration finished (or not started yet): start the next one,
            // or finish once every fast neighbor has been heard from.
            st.start_iteration(&heard.sets[v]);
            if st.done {
                return None;
            }
        }
        let target = *st.queue.get(st.queue_pos)?;
        st.waiting = true;
        st.snapshot = Some((heard.logs[v].len(), heard.logs[target.index()].len()));
        Some(target)
    }

    // gossip-lint: allow(panic-path): per-node state vec is sized n at construction
    fn on_exchange(&mut self, node: NodeId, event: &ExchangeEvent) {
        if !event.initiated_here {
            return;
        }
        let v = node.index();
        let u = event.peer.index();
        let st = &mut self.nodes[v];
        if let Some((len_v, len_u)) = st.snapshot.take() {
            self.heard.replay(u, v, len_u);
            self.heard.replay(v, u, len_v);
        }
        self.heard.hear(v, RumorId::of_node(event.peer));
        self.heard.hear(u, RumorId::of_node(node));
        st.waiting = false;
        st.queue_pos += 1;
    }

    // gossip-audit: contract(pure)
    fn activity(_: &Heard, st: &DtgNode, _: &NodeView<'_>) -> Activity {
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
/// reset for each invocation.
///
/// # Panics
///
/// Panics if `rumors.len()` differs from the node count of `g`.
pub fn run_with_rumors(
    g: &Graph,
    bound: Latency,
    seed: u64,
    rumors: Vec<RumorSet>,
    blocking: bool,
) -> (DisseminationReport, Vec<RumorSet>, usize) {
    let mode = if blocking {
        gossip_sim::ExchangeMode::Blocking
    } else {
        gossip_sim::ExchangeMode::NonBlocking
    };
    let config = SimConfig::new(seed)
        .termination(Termination::Quiescent)
        .mode(mode)
        .max_rounds(round_cap(g, bound));
    let mut protocol = EllDtg::new(g, bound);
    let mut sim = Simulation::with_rumors(g, config, rumors);
    let report = sim.run(&mut protocol);
    let iterations = protocol.max_iterations();
    let out = DisseminationReport::single(
        "ell-dtg",
        report.rounds,
        report.activations,
        report.completed,
    );
    (out, sim.into_rumors(), iterations)
}

/// Checks the ℓ-local-broadcast postcondition: every node knows the rumor of
/// every neighbor connected to it by an edge of latency at most `bound`.
pub fn local_broadcast_achieved(g: &Graph, bound: Latency, rumors: &[RumorSet]) -> bool {
    g.nodes().all(|v| {
        g.neighbors(v)
            .all(|(w, e)| g.latency(e) > bound || rumors[v.index()].contains(RumorId::of_node(w)))
    })
}

fn round_cap(g: &Graph, bound: Latency) -> u64 {
    // DTG costs O(ℓ · log² n); allow a very generous multiple before giving up.
    let n = g.node_count() as u64;
    let log = (64 - n.leading_zeros() as u64).max(1);
    (bound.max(1)) * log * log * 64 + n * 4 + 1_000
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
    fn blocking_mode_also_completes() {
        let g = generators::cycle(10, 3).unwrap();
        let n = g.node_count();
        let initial = Seeding::AllToAll.initial_sets(n);
        let (report, rumors, _) = run_with_rumors(&g, 3, 4, initial, true);
        assert!(report.completed);
        assert!(local_broadcast_achieved(&g, 3, &rumors));
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
