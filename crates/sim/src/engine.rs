//! The synchronous round engine.
//!
//! # Architecture: the snapshot-free, event-driven hot path
//!
//! The engine is built so that the per-round cost is `O(active nodes)`
//! protocol decisions plus work proportional to what actually *happens* —
//! never a rescan of global state, and never a decision loop over nodes that
//! have promised they cannot act:
//!
//! * **Snapshots are rounds.**  An exchange over edge `e` takes `ℓ(e)`
//!   rounds and delivers each endpoint's rumors as of initiation.  Sets only
//!   grow at deliveries, so that snapshot is the endpoint's *current* set
//!   minus what it learned in the rounds since.  A flight therefore records
//!   nothing at initiation — its snapshot round is `completes_at − ℓ(e)` —
//!   and the only history the engine keeps is one [`DeltaWindow`]: each
//!   delivery phase's per-node batches of new rumors, dropped once no
//!   flight can reference them (after `max_latency − 1` rounds; on
//!   unit-latency graphs nothing outlives its phase).  A batch is stored as
//!   interval runs, or as one dense bitset layer over the id window it spans
//!   when that is cheaper — the expander doubling endgame, where a node
//!   learns about half the universe in scattered ids.
//! * **Paged rumor sets.**  Rumor sets are adaptive paged bitsets
//!   ([`RumorSet`]): 4096-bit pages stored sparsely, with a zero-allocation
//!   *full* sentinel for saturated pages, so per-node cost tracks what the
//!   node actually knows instead of the dense `n/8`-byte floor, and a full
//!   set holds no pages at all.  A merge from a peer whose snapshot is the
//!   whole universe (full, with no batch since) is an `O(dst pages)`
//!   complement instead of a page-by-page union.  The peak footprint is
//!   reported in [`RunReport::mem`](crate::report::MemStats).
//! * **Calendar queue.**  In-flight exchanges live in a map keyed by their
//!   completion round, each round's in initiation order — delivery is
//!   `O(completions)`, not `O(in flight)`, and any latency up to the round
//!   clock's range is fine.
//! * **Event-driven active-set scheduling.**  Protocols report per-node
//!   quiescence through [`Protocol::activity`]: a node whose `on_round` just
//!   returned `None` and whose `activity` answers
//!   [`IdleUntilWoken`](Activity::IdleUntilWoken) or
//!   [`Quiescent`](Activity::Quiescent) leaves the engine's sorted active
//!   worklist and is simply never asked again — idle nodes re-join when an
//!   exchange incident to them completes (which is the only way their rumor
//!   set or `on_exchange` state can change) or a fault touches their
//!   neighborhood; quiescent nodes are retired permanently.  The decision loop
//!   therefore costs `O(active)`, not `O(n)`, and the protocol contract
//!   (idle nodes would have returned `None` without touching the RNG) makes
//!   the skipped calls unobservable: reports stay byte-identical to an
//!   engine that asks every node every round.  When the worklist empties
//!   entirely while exchanges are still in flight, the round clock
//!   **fast-forwards** to the next completion round instead of spinning
//!   through empty rounds; `rounds_simulated`, `rounds_skipped` and the
//!   peak/final active-set size are reported in
//!   [`MemStats`](crate::report::MemStats).
//! * **Termination frontier.**  A dissemination goal is a per-node
//!   predicate on the sets, and every node below one frontier is dead or
//!   meets it.  Merges only grow sets and crashes and cuts only drop
//!   obligations, so the check advances the frontier and never looks back;
//!   an amnesiac rejoin rewinds it.  Each node is passed once per run plus
//!   once per rewind, and the merge keeps no termination state.
//!
//! # Round phases
//!
//! All of a run's mutable state lives in one `RoundState`, and each round
//! calls its phases in this order:
//!
//! 1. `apply_faults` — crash, rejoin and cut events due this round;
//! 2. `deliver` — the completions merge, grouped by destination;
//! 3. `is_done` — the termination check at the round boundary;
//! 4. `admit_woken` — woken nodes rejoin the sorted worklist;
//! 5. `decide_and_initiate` — the decision pass and the initiations;
//! 6. `advance_clock` — the next round, fast-forwarding idle gaps.
//!
//! The dense-bitset spec [`crate::oracle`] states the same semantics with none
//! of these structures and is pinned against this engine by the
//! `engine_equivalence` integration suite: both must produce byte-identical
//! semantic [`RunReport`]s and rumor states on the standard scenario grid.

use std::collections::BTreeMap;
use std::ops::Range;

use gossip_graph::{AliveView, EdgeId, Graph, Latency, NodeId};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use rayon::prelude::*;

use crate::fault::{self, FaultEvent, FaultPlan};
use crate::report::{FaultReport, MemStats, RunReport};
use crate::rumor::{
    BatchFootprint, Delta, DeltaWindow, NewRumors, PageFootprint, PhaseBatches, RumorId, RumorRun,
    RumorSet, Seeding,
};

/// When the simulation stops (in addition to the `max_rounds` safety cap).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Termination {
    /// One-to-all dissemination: every node knows the rumor originating at the given node.
    AllKnowRumorOf(NodeId),
    /// All-to-all dissemination: every node's rumor set contains the full universe.
    AllKnowAll,
    /// Local broadcast restricted to edges of latency at most the bound:
    /// every node knows the rumor of every neighbor reachable over such an edge.
    LocalBroadcast(Latency),
    /// Run for exactly this many rounds.
    FixedRounds(u64),
    /// Stop when no exchange is in flight and every alive node's
    /// [`Protocol::activity`] is [`Activity::Quiescent`] (checked at round
    /// boundaries, like every condition).
    Quiescent,
}

/// Configuration of a [`Simulation`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimConfig {
    pub(crate) seed: u64,
    pub(crate) termination: Termination,
    pub(crate) max_rounds: u64,
    pub(crate) tracked_rumor: Option<RumorId>,
    pub(crate) faults: Option<FaultPlan>,
    pub(crate) threads: usize,
}

impl SimConfig {
    /// Creates a configuration with the given RNG seed, all-to-all
    /// termination, and a generous round cap.
    pub fn new(seed: u64) -> Self {
        SimConfig {
            seed,
            termination: Termination::AllKnowAll,
            max_rounds: 5_000_000,
            tracked_rumor: None,
            faults: None,
            threads: 1,
        }
    }

    /// Sets the termination condition (all-to-all by default).
    pub fn termination(mut self, termination: Termination) -> Self {
        self.termination = termination;
        self
    }

    /// Sets the safety cap on the number of rounds.
    pub fn max_rounds(mut self, max_rounds: u64) -> Self {
        self.max_rounds = max_rounds;
        self
    }

    /// Tracks the per-node first time a specific rumor is learned (reported in
    /// [`RunReport::informed_times`]).
    pub fn track_rumor(mut self, rumor: RumorId) -> Self {
        self.tracked_rumor = Some(rumor);
        self
    }

    /// The rumor set by [`track_rumor`](Self::track_rumor), if any.
    pub fn tracked_rumor(&self) -> Option<RumorId> {
        self.tracked_rumor
    }

    /// Attaches a deterministic fault schedule (crash-stop churn, link
    /// cuts, message loss — see [`FaultPlan`]) to the run.  The report then
    /// carries a [`FaultReport`](crate::FaultReport) with the
    /// graceful-degradation accounting, and termination conditions quantify
    /// over *alive* nodes only.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Number of worker threads for intra-run parallelism (default 1 =
    /// fully serial).  [`Simulation::run`] shards both per-round passes —
    /// the protocol's decisions and the completion merges — across this
    /// many workers on the vendored rayon pool, for every [`Protocol`].
    ///
    /// Purely a wall-clock knob: every shard boundary is resolved by a
    /// deterministic reduction in shard order, so reports are
    /// **byte-identical for every setting** (pinned by the
    /// `tests/engine_parallel.rs` suite).  Values are clamped to at least 1.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }
}

/// The decision RNG stream for one `(round, node)` cell, derived from the
/// run seed by a splitmix64-style avalanche over the three coordinates.
///
/// Every engine (the serial one, the sharded one, and the dense-bitset
/// [`crate::oracle`]) draws a node's round decision from this stream and from
/// nothing else, which is what makes the decision pass shardable: a worker
/// can decide any subset of nodes in any order without desynchronising the
/// draws of the others.  The historical single sequential stream would have
/// made every node's draw depend on how many draws every *earlier* node
/// consumed — unshardable without replaying the whole worklist.
pub(crate) fn decision_rng(seed: u64, round: u64, node: u32) -> SmallRng {
    let mut key = seed
        ^ round.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ u64::from(node).wrapping_mul(0xD1B5_4A32_D192_ED03);
    // One avalanche pass decorrelates neighboring (round, node) cells before
    // `seed_from_u64` runs its own per-word splitmix expansion.
    key ^= key >> 30;
    key = key.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    key ^= key >> 27;
    key = key.wrapping_mul(0x94D0_49BB_1331_11EB);
    key ^= key >> 31;
    SmallRng::seed_from_u64(key)
}

/// Everything a protocol can see about one node at the start of a round.
/// Edge latencies are not part of it: a protocol learns one from
/// [`ExchangeEvent::latency`] when an exchange over the edge completes.
#[derive(Debug)]
pub struct NodeView<'a> {
    /// The node being scheduled.
    pub node: NodeId,
    /// Current round (0-based).
    pub round: u64,
    /// The node's current rumor set.
    pub rumors: &'a RumorSet,
    /// Incident `(neighbor, edge)` pairs in neighbor-id order.
    pub neighbors: &'a [(NodeId, EdgeId)],
}

/// A protocol's promise about a node's upcoming behavior, returned by
/// [`Protocol::activity`] and consumed by the engine's event-driven
/// scheduler.
///
/// The scheduler consults `activity` for a node directly after that node's
/// [`on_round`](Protocol::on_round) returned `None` in the same round, with
/// the same [`NodeView`].  Under [`Termination::Quiescent`] the engine (and
/// the oracle) also asks every alive node at each round boundary, with the
/// view its next `on_round` call would get: the run ends once every answer
/// is [`Activity::Quiescent`] and nothing is in flight.  Anything other than
/// [`Activity::Active`] is a
/// *binding promise* about future `on_round` calls — see the variants — that
/// lets the engine skip those calls entirely; because a skipped call would
/// have returned `None` without touching the RNG or the protocol state,
/// skipping is unobservable and all reports stay byte-identical to an engine
/// that asks every node every round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Activity {
    /// No promise: keep asking this node every round (the default, and the
    /// exact pre-scheduler behavior).
    #[default]
    Active,
    /// Until a *wake event* occurs at this node, every `on_round` call would
    /// return `None` without drawing from the RNG and without mutating the
    /// protocol.  The engine stops asking and re-activates the node on the
    /// next wake event.  Wake events at node `v` are:
    ///
    /// * an exchange incident to `v` completes — the only way `v`'s rumor
    ///   set can grow or [`on_exchange`](Protocol::on_exchange) can fire at
    ///   `v`;
    /// * a fault event from a [`FaultPlan`](crate::FaultPlan) touches `v`'s
    ///   neighborhood: a neighbor crashes or rejoins, or an incident edge is
    ///   cut.
    IdleUntilWoken,
    /// The same promise, unconditionally and forever: no event can make this
    /// node act again.  The engine retires the node permanently — it is
    /// *not* re-activated by wake events — so this is only sound when the
    /// silence derives from irreversible state (a full rumor set, an
    /// isolated node, a finished program).  It is also the node's "finished"
    /// answer to [`Termination::Quiescent`].
    ///
    /// **Fault events are outside this promise.**  A topology change from a
    /// [`FaultPlan`](crate::FaultPlan) (a neighbor crashing or rejoining, an
    /// incident edge cut) re-activates even quiescent survivors, because the
    /// irreversible state the promise derived from may no longer hold — an
    /// isolated node can gain its neighbor back through a rejoin.  A node
    /// whose quiescence really is irreversible (a full rumor set cannot
    /// shrink) simply returns `None` + `Quiescent` once more and is retired
    /// again.
    Quiescent,
}

/// A completed bidirectional exchange, as seen by one endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExchangeEvent {
    /// The other endpoint of the exchange.
    pub peer: NodeId,
    /// The edge the exchange used.
    pub edge: EdgeId,
    /// The latency of that edge (revealed by the completed exchange).
    pub latency: Latency,
    /// `true` if this endpoint initiated the exchange.
    pub initiated_here: bool,
    /// Round at which the exchange completed.
    pub round: u64,
}

/// A gossip protocol: per-node round decisions plus completion callbacks.
///
/// The engine owns the rumor sets; a protocol only chooses which neighbor (if
/// any) each node contacts in each round.  Its state comes in two parts,
/// which [`split`](Self::split) lends to the engine for each decision pass:
///
/// * [`Node`](Self::Node) — one value per node, the node's own program state
///   (a cursor, a queue, a log).  The decision for node `v` may write only
///   `v`'s value.
/// * [`Shared`](Self::Shared) — everything the decisions read but never
///   write: the protocol's rules, and tables only
///   [`on_exchange`](Self::on_exchange) updates.
///
/// That split is what makes every protocol parallel by construction: each
/// node's decision reads round-start state, writes its own `Node` and draws
/// from its own `(seed, round, node)` RNG stream, so the engine can step any
/// subset of nodes on any worker (see [`SimConfig::threads`]) and apply the
/// outcomes in node order, byte-identically to a serial pass.
/// [`on_exchange`](Self::on_exchange) and [`on_rejected`](Self::on_rejected)
/// run serially on `&mut self`.
pub trait Protocol {
    /// State every decision reads and none writes.
    type Shared: Sync;

    /// One node's own program state.
    type Node: Send;

    /// Human-readable protocol name (used in reports).
    fn name(&self) -> &'static str {
        "protocol"
    }

    /// Lends the engine the shared state and exactly `n` node states, the
    /// one at index `v` belonging to node `v` of the `n`-node graph being
    /// simulated.  A protocol value reused on a larger graph grows its
    /// table here.  Stateless protocols return [`stateless`]`(n)`.
    fn split(&mut self, n: usize) -> (&Self::Shared, &mut [Self::Node]);

    /// Decides which neighbor `view.node` contacts this round, or `None` to
    /// stay silent; `state` is that node's own state.
    ///
    /// Returning a node that is not a neighbor is a schedule error: the
    /// engine rejects the exchange, reports it back through
    /// [`on_rejected`](Self::on_rejected), and counts it in
    /// [`RunReport::rejections`].
    fn on_round(
        shared: &Self::Shared,
        state: &mut Self::Node,
        view: &NodeView<'_>,
        rng: &mut SmallRng,
    ) -> Option<NodeId>;

    /// Notification that `node`'s choice of `target` was rejected because
    /// `target` is not one of `node`'s neighbors.
    ///
    /// The default implementation treats this as a protocol bug: it fails a
    /// `debug_assert!` in debug builds (and is a no-op in release builds,
    /// where the rejection is still visible in [`RunReport::rejections`]).
    /// Protocols that probe the topology on purpose can override it.
    fn on_rejected(&mut self, node: NodeId, target: NodeId, round: u64) {
        debug_assert!(
            false,
            "protocol targeted non-neighbor {target:?} from {node:?} at round {round}"
        );
        let _ = (node, target, round);
    }

    /// Notification that an exchange incident to `node` completed.
    fn on_exchange(&mut self, node: NodeId, event: &ExchangeEvent) {
        let _ = (node, event);
    }

    /// The node's quiescence promise, consulted by the event-driven
    /// scheduler directly after an [`on_round`](Self::on_round) call that
    /// returned `None` (with the same `view` and `state`), and at round
    /// boundaries by [`Termination::Quiescent`].
    ///
    /// The default returns [`Activity::Active`], which makes no promise:
    /// the engine keeps asking the node every round, so **third-party
    /// protocols that do not override this method keep the exact
    /// pre-scheduler behavior** — every node is consulted every round and no
    /// rounds are skipped (and a `Quiescent` run only ends at `max_rounds`).
    ///
    /// Overriding implementations must uphold the contract documented on
    /// [`Activity`]: while idle or quiescent, any `on_round` call the engine
    /// elides would have returned `None` without drawing from the RNG and
    /// without mutating the protocol.  Violating the contract desynchronises
    /// the run from the spec semantics (and from the same protocol run
    /// under [`crate::oracle::OracleSimulation`], which asks every node
    /// every round).
    // gossip-audit: contract(pure)
    fn activity(shared: &Self::Shared, state: &Self::Node, view: &NodeView<'_>) -> Activity {
        let _ = (shared, state, view);
        Activity::Active
    }
}

/// The node states of a protocol that keeps none: `n` unit values, for
/// [`Protocol::split`].  A vector of zero-sized values never allocates, so
/// leaking one costs nothing.
pub fn stateless(n: usize) -> &'static mut [()] {
    Vec::leak(vec![(); n])
}

/// Outcome of one node's decision call, recorded by the decision pass and
/// applied by the serial initiation epilogue in worklist order.
#[derive(Debug, Clone, Copy)]
enum Decide {
    /// The node crashed while queued: drop it from the worklist (its state
    /// is already `Quiescent`; a rejoin force-wake re-admits it).
    Dead,
    /// `on_round` returned `None`; the activity answer drives scheduling.
    Silent(Activity),
    /// The node wants to contact this target.
    Target(NodeId),
}

/// Read-only inputs of one round's decision pass — everything a
/// [`NodeView`] is built from.  Shared across decision shards (workers only
/// read it).
struct DecisionCtx<'a> {
    graph: &'a Graph,
    rumors: &'a [RumorSet],
    alive: Option<&'a AliveView>,
    config: &'a SimConfig,
    round: u64,
}

impl<'a> DecisionCtx<'a> {
    fn is_dead(&self, node: NodeId) -> bool {
        self.alive.is_some_and(|av| !av.is_node_alive(node))
    }

    /// `node`'s usable `(neighbor, edge)` pairs: alive neighbors over un-cut
    /// edges, in neighbor-id order.
    fn neighbors(&self, node: NodeId) -> &'a [(NodeId, EdgeId)] {
        match self.alive {
            Some(av) => av.neighbor_slice(self.graph, node),
            None => self.graph.neighbor_slice(node),
        }
    }

    /// Whether alive node `v` meets dissemination goal `goal` — the
    /// per-node predicate the oracle's `is_done` quantifies over alive
    /// nodes.  The other conditions have no per-node goal.
    // gossip-lint: allow(panic-path): frontier nodes are ids < n, and rumors is sized n
    fn goal_met(&self, goal: Termination, v: NodeId) -> bool {
        let set = &self.rumors[v.index()];
        match goal {
            Termination::AllKnowRumorOf(source) => set.contains(RumorId::of_node(source)),
            Termination::AllKnowAll => set.is_full(),
            Termination::LocalBroadcast(bound) => self
                .neighbors(v)
                .iter()
                .all(|&(w, e)| self.graph.latency(e) > bound || set.contains(RumorId::of_node(w))),
            Termination::FixedRounds(_) | Termination::Quiescent => true,
        }
    }

    // gossip-lint: allow(panic-path): node indices come from the sorted worklist, bounded by n
    fn view(&self, node: NodeId) -> NodeView<'a> {
        NodeView {
            node,
            round: self.round,
            rumors: &self.rumors[node.index()],
            neighbors: self.neighbors(node),
        }
    }

    /// Node `u`'s decision: dead nodes short-circuit to [`Decide::Dead`];
    /// everyone else gets a view and its own `(seed, round, node)` RNG
    /// stream, then `on_round` and — if it stays silent — `activity`.
    fn decide<P: Protocol>(&self, shared: &P::Shared, state: &mut P::Node, u: u32) -> Decide {
        let node = NodeId::new(u as usize);
        if self.is_dead(node) {
            return Decide::Dead;
        }
        let view = self.view(node);
        let mut rng = decision_rng(self.config.seed, self.round, u);
        match P::on_round(shared, state, &view, &mut rng) {
            Some(target) => Decide::Target(target),
            None => Decide::Silent(P::activity(shared, state, &view)),
        }
    }
}

/// Minimum worklist length before the decision pass fans out to worker
/// threads (below it, shard setup costs more than it saves — purely a
/// wall-clock knob, like [`MIN_PAR_TASKS`]).
const MIN_PAR_DECISIONS: usize = 256;

/// The decision pass: fills `out` with one [`Decide`] per worklist entry,
/// in worklist order.  With [`SimConfig::threads`] above 1 and a long enough
/// worklist, [`partition_tasks`] cuts the sorted worklist into contiguous
/// chunks and the node states along the same node ranges, and each chunk is
/// decided on its own worker; otherwise the one chunk runs inline.  Either
/// way the outcome is identical, since a decision reads round-start state
/// and writes only its own node state.
// gossip-lint: allow(panic-path): a chunk's nodes lie in its carved node-state range, which split() sized n
fn decide_all<P: Protocol>(
    protocol: &mut P,
    ctx: &DecisionCtx<'_>,
    worklist: &[u32],
    out: &mut Vec<Decide>,
) {
    out.clear();
    let n = ctx.graph.node_count();
    let (shared, states) = protocol.split(n);
    assert_eq!(
        states.len(),
        n,
        "Protocol::split must lend one state per node"
    );
    let decide_chunk = |(chunk, base, states): (&[u32], usize, &mut [P::Node]),
                        out: &mut Vec<Decide>| {
        out.extend(
            chunk
                .iter()
                .map(|&u| ctx.decide::<P>(shared, &mut states[u as usize - base], u)),
        );
    };
    let threads = ctx.config.threads;
    if threads <= 1 || worklist.len() < MIN_PAR_DECISIONS {
        // One chunk decides inline, straight into `out`'s reused capacity.
        decide_chunk((worklist, 0, states), out);
        return;
    }
    let shards = partition_tasks(worklist, |&u| u as usize, threads, n);
    let jobs: Vec<_> = split_lens(states, shards.iter().map(|(_, nodes)| nodes.len()))
        .into_iter()
        .zip(&shards)
        .map(|(states, (chunk, nodes))| (*chunk, nodes.start, states))
        .collect();
    let results = run_jobs(threads, jobs, |job| {
        let mut decides = Vec::new();
        decide_chunk(job, &mut decides);
        decides
    });
    for decides in results {
        out.extend_from_slice(&decides);
    }
}

/// An in-flight exchange.  Its snapshot needs no field: it is the
/// initiation round, `completes_at − latency(edge)`.
struct Flight {
    initiator: NodeId,
    responder: NodeId,
    edge: EdgeId,
    /// Lost in transit ([`FaultPlan::message_loss`]): stays in flight until
    /// the completion round, then times out silently — no merge, no
    /// `on_exchange`.
    lost: bool,
}

/// Scheduler-side view of one node, maintained by the engine (the protocol's
/// [`Activity`] answers drive the transitions).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum NodeState {
    /// In the active worklist; consulted every round.
    Active,
    /// Out of the worklist; re-activated by the next wake event.
    Idle,
    /// Retired permanently; never consulted or woken again.
    Quiescent,
}

/// The event-driven scheduler: a per-node [`NodeState`], the sorted worklist
/// of active nodes (ascending node order keeps protocol calls — and
/// therefore RNG draws — in exactly the order of an all-nodes sweep), and
/// the buffer wake events accumulate in before being merged back into the
/// worklist.
struct Scheduler {
    state: Vec<NodeState>,
    worklist: Vec<u32>,
    woken: Vec<u32>,
    /// Scratch the next worklist is built in, then swapped with `worklist`.
    spare: Vec<u32>,
    /// Peak worklist length.  Every node starts in the worklist, so the peak
    /// is at least `n` even for runs that complete before their first
    /// decision phase (keeps the `active_peak >= active_final` invariant).
    active_peak: u64,
}

impl Scheduler {
    fn new(n: usize) -> Self {
        Scheduler {
            state: vec![NodeState::Active; n],
            worklist: (0..n as u32).collect(),
            woken: Vec::new(),
            spare: Vec::new(),
            active_peak: n as u64,
        }
    }

    /// An ordinary wake event: re-activates node `i` if it is
    /// [`NodeState::Idle`].
    fn wake(&mut self, i: usize) {
        self.wake_where(i, |s| s == NodeState::Idle);
    }

    /// A fault wake event: unlike ordinary wake events, it re-activates even
    /// [`NodeState::Quiescent`] nodes — see [`Activity::Quiescent`], whose
    /// retirement promise excludes topology changes.
    fn force_wake(&mut self, i: usize) {
        self.wake_where(i, |s| s != NodeState::Active);
    }

    /// Force-wakes every alive node among `nodes`: a fault changed the
    /// topology under them.
    fn wake_survivors(&mut self, alive: &AliveView, nodes: impl IntoIterator<Item = NodeId>) {
        for v in nodes {
            if alive.is_node_alive(v) {
                self.force_wake(v.index());
            }
        }
    }

    /// Re-activates node `i` if its state satisfies `wakes`.  Re-waking an
    /// already-woken node is a no-op: it is `Active` and queued.
    // gossip-lint: allow(panic-path): state is sized n at construction; node ids are dense
    fn wake_where(&mut self, i: usize, wakes: impl Fn(NodeState) -> bool) {
        if wakes(self.state[i]) {
            self.state[i] = NodeState::Active;
            self.woken.push(i as u32);
        }
    }

    /// Phase 5: merges the woken nodes into the worklist, keeping it sorted
    /// so decisions stay in ascending node order.  Wakes arrive in
    /// completion order and may repeat across a node's events, hence sort +
    /// dedup.
    fn admit_woken(&mut self) {
        if !self.woken.is_empty() {
            self.woken.sort_unstable();
            self.woken.dedup();
            self.spare.clear();
            self.spare.reserve(self.worklist.len() + self.woken.len());
            let mut woken = self.woken.iter().copied().peekable();
            for &u in &self.worklist {
                while let Some(w) = woken.next_if(|&w| w < u) {
                    self.spare.push(w);
                }
                // Under faults a node that crashed and rejoined in the same
                // round is still in the stale worklist *and* woken: emitting
                // it twice would double its `on_round` call and
                // desynchronise the RNG.
                woken.next_if_eq(&u);
                self.spare.push(u);
            }
            self.spare.extend(woken);
            std::mem::swap(&mut self.worklist, &mut self.spare);
            self.woken.clear();
        }
        self.active_peak = self.active_peak.max(self.worklist.len() as u64);
    }
}

/// The exchanges in flight, keyed by completion round, each round's in
/// initiation order.  No key ever maps to an empty `Vec` — `push` appends,
/// `take` removes the key and `cancel_flights` drops emptied rounds — so
/// nothing is in flight exactly when `rounds` is empty.
#[derive(Default)]
struct Calendar {
    rounds: BTreeMap<u64, Vec<Flight>>,
}

impl Calendar {
    /// Queues `flight` to complete at round `at`.
    fn push(&mut self, at: u64, flight: Flight) {
        self.rounds.entry(at).or_default().push(flight);
    }

    /// Removes and returns the exchanges completing at `round`.
    fn take(&mut self, round: u64) -> Vec<Flight> {
        self.rounds.remove(&round).unwrap_or_default()
    }

    /// The next round strictly after `round` at which an exchange completes:
    /// the earliest key, since every round up to `round` was delivered.
    fn next_event(&self, round: u64) -> Option<u64> {
        let next = self.rounds.first_key_value().map(|(&at, _)| at);
        debug_assert!(next.is_none_or(|at| at > round), "an undelivered round");
        next.filter(|&at| at > round)
    }
}

/// Deterministic memory accounting of the dissemination state (the source of
/// [`MemStats`]): counters, not allocator probes, so gates built on them are
/// reproducible across machines.
#[derive(Default)]
struct MemCounters {
    /// What the delta window holds now.
    window: BatchFootprint,
    /// Peak of `window.runs` over the run so far.
    peak_runs: u64,
    /// Peak of `window.bytes` over the run so far.
    peak_bytes: u64,
    /// Batches stored as dense layers.
    dense_batches: u64,
    /// Batches aged out of the window.
    aged_batches: u64,
    /// Rumor-set page cost over the run so far, summed over all nodes and
    /// sampled at merge boundaries: each lane's `delta` is the live value
    /// and its `max_prefix` the peak.
    pages: PageTrace,
}

impl MemCounters {
    /// Accounts a delivery phase's batches entering the window; the window
    /// peaks here, with the phase's batches in it.
    fn grow_window(&mut self, added: BatchFootprint) {
        self.window += added;
        self.dense_batches += added.layers;
        self.peak_runs = self.peak_runs.max(self.window.runs);
        self.peak_bytes = self.peak_bytes.max(self.window.bytes);
    }

    /// Accounts batches aged out of the window.
    fn shrink_window(&mut self, freed: BatchFootprint) {
        self.window -= freed;
        self.aged_batches += freed.batches;
    }
}

/// One merge obligation of a delivery phase: union `src`'s set as of the
/// end of round `since` (the exchange's initiation round) into `dst`'s.
/// Collected in flight order, then grouped by ascending `dst` by
/// [`Progress::merge_completions`].
#[derive(Debug, Clone, Copy)]
struct MergeTask {
    dst: u32,
    src: u32,
    since: u64,
}

/// Order-preserving summary of a walk over one cost's samples: the net
/// delta plus the maximum running prefix delta (costs can *drop* mid-walk
/// when a dense page saturates to the free full sentinel, so a plain max of
/// deltas would not reproduce the serial peak).
///
/// Composition law: for traces `a` then `b`,
/// `a ∘ b = { delta: a.delta + b.delta, max_prefix: max(a.max_prefix,
/// a.delta + b.max_prefix) }` — associative with identity `default()`, so
/// folding per-shard traces in shard order reproduces exactly the peak the
/// canonical serial walk observes, wherever the shard cuts fall.
#[derive(Debug, Clone, Copy, Default)]
struct Trace {
    delta: i64,
    max_prefix: i64,
}

impl Trace {
    /// Records one sample's change from `before` to `after`.
    fn record(&mut self, before: u64, after: u64) {
        self.delta += after as i64 - before as i64;
        self.max_prefix = self.max_prefix.max(self.delta);
    }

    /// The composition law: this trace, then `next`.
    fn then(self, next: Trace) -> Trace {
        Trace {
            delta: self.delta + next.delta,
            max_prefix: self.max_prefix.max(self.delta + next.max_prefix),
        }
    }
}

/// The rumor-set [`PageFootprint`] walk of a merge shard, a phase or the
/// whole run: one [`Trace`] per lane, recorded and composed together.
#[derive(Debug, Clone, Copy, Default)]
struct PageTrace {
    dense: Trace,
    bytes: Trace,
}

impl PageTrace {
    /// Records one set's cost change across a merge, reset or seeding.
    fn record(&mut self, before: PageFootprint, after: PageFootprint) {
        self.dense.record(before.dense, after.dense);
        self.bytes.record(before.bytes, after.bytes);
    }

    /// The composition law, lane by lane: this trace, then `next`.
    fn then(self, next: PageTrace) -> PageTrace {
        PageTrace {
            dense: self.dense.then(next.dense),
            bytes: self.bytes.then(next.bytes),
        }
    }
}

/// Phase A of the sharded completion merge, read-only over every rumor set
/// and the delta window: for each destination of a shard's `tasks`, gathers
/// what its tasks' snapshots add to its set ([`NewRumors`]) and stores that
/// as the destination's batch.  A task's snapshot is its source's current
/// set minus the source's window batches after the snapshot round; a source
/// that is full with no such batch snapshots the whole universe, so the
/// destination's batch is simply its complement.
fn merge_shard_phase_a(
    tasks: &[MergeTask],
    rumors: &[RumorSet],
    window: &DeltaWindow,
) -> PhaseBatches {
    let mut out = PhaseBatches::default();
    let mut acc = NewRumors::default();
    let mut deltas: Vec<Delta<'_>> = Vec::new();
    let mut batch: Vec<RumorRun> = Vec::new();
    for group in tasks.chunk_by(|a, b| a.dst == b.dst) {
        let Some(dst) = group.first().map(|t| t.dst) else {
            continue;
        };
        let Some(dst_set) = rumors.get(dst as usize) else {
            continue;
        };
        let mut saturated_peer = false;
        for t in group {
            let Some(src) = rumors.get(t.src as usize) else {
                continue;
            };
            deltas.clear();
            deltas.extend(window.deltas_since(t.src, t.since));
            if src.is_full() && deltas.is_empty() {
                saturated_peer = true;
                break;
            }
            acc.add_difference(src, &deltas, dst_set);
        }
        batch.clear();
        acc.drain_runs(&mut batch);
        if saturated_peer {
            batch.clear();
            dst_set.complement_runs(&mut batch);
        }
        out.push(dst, &batch);
    }
    out
}

/// Phase B of the sharded completion merge: unions each phase-A batch into
/// its destination's set and returns the sets' page-cost walk.  The shard's
/// `rumors` slice starts at destination `base`.
fn merge_shard_phase_b(new: &PhaseBatches, base: usize, rumors: &mut [RumorSet]) -> PageTrace {
    let mut pages = PageTrace::default();
    for (dst, delta) in new.iter() {
        if let Some(set) = rumors.get_mut(dst as usize - base) {
            let before = set.page_footprint();
            set.insert_delta(delta);
            pages.record(before, set.page_footprint());
        }
    }
    pages
}

/// Cuts `tasks` (sorted by `node`, each a node id below `n`) into at most
/// `max_shards` contiguous ranges of roughly equal length whose node sets
/// are disjoint — a cut never splits one node's task group, so every node's
/// state is owned by exactly one shard.  Returns each shard's tasks and the
/// node range it owns; the ranges tile `0..n`.  The merge cuts its tasks by
/// destination, the decision pass its worklist by node.
///
/// The cut positions depend on `max_shards` (i.e. on the thread count), but
/// never the results: phase outputs are reduced in shard order, and
/// concatenating per-shard walks of a sorted task list in shard order is the
/// canonical serial walk regardless of where the cuts fall.
// gossip-lint: allow(panic-path): hi is only indexed while strictly below tasks.len(), and hi >= 1 inside the loop
fn partition_tasks<T>(
    tasks: &[T],
    node: impl Fn(&T) -> usize,
    max_shards: usize,
    n: usize,
) -> Vec<(&[T], Range<usize>)> {
    let mut shards = Vec::with_capacity(max_shards);
    let target = tasks.len().div_ceil(max_shards.max(1));
    let (mut lo, mut node_lo) = (0usize, 0usize);
    while lo < tasks.len() {
        let mut hi = (lo + target).min(tasks.len());
        while hi < tasks.len() && node(&tasks[hi]) == node(&tasks[hi - 1]) {
            hi += 1;
        }
        let node_hi = if hi < tasks.len() {
            node(&tasks[hi])
        } else {
            n
        };
        shards.push((&tasks[lo..hi], node_lo..node_hi));
        (lo, node_lo) = (hi, node_hi);
    }
    shards
}

/// Splits `slice` into consecutive pieces of the given lengths.
fn split_lens<T>(mut slice: &mut [T], lens: impl IntoIterator<Item = usize>) -> Vec<&mut [T]> {
    lens.into_iter()
        .map(|len| {
            let (piece, rest) = std::mem::take(&mut slice).split_at_mut(len);
            slice = rest;
            piece
        })
        .collect()
}

/// Minimum per-phase work before a pass fans out to worker threads; below
/// it, shard setup costs more than it saves.  Purely a wall-clock knob — the
/// single-shard path runs the identical canonical walk.
const MIN_PAR_TASKS: usize = 64;

/// Executes independent shard jobs, fanned out on the vendored rayon pool
/// when more than one worker is configured.  Results come back in job order
/// (rayon's indexed `collect`), so callers can reduce them deterministically
/// in shard order; with one worker (or one job) the jobs run inline on the
/// calling thread in the same order.
fn run_jobs<T: Send, R: Send>(threads: usize, jobs: Vec<T>, f: impl Fn(T) -> R + Sync) -> Vec<R> {
    if threads <= 1 || jobs.len() <= 1 {
        return jobs.into_iter().map(f).collect();
    }
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .install(|| jobs.into_par_iter().map(f).collect())
}

/// Dissemination state beside the rumor sets: the delta window, the
/// termination frontier, and the tracked-rumor and recovery bookkeeping.
struct Progress<'g> {
    graph: &'g Graph,
    /// Each recent delivery phase's per-node batches of new rumors — all
    /// the history a snapshot needs.
    window: DeltaWindow,
    /// The termination frontier of a dissemination goal: every node below
    /// it is dead or meets the goal.  Merges only grow sets, and crashes and
    /// cuts only drop obligations, so only a rejoin moves it back.
    frontier: usize,
    /// Rumor whose spread decides [`Termination::AllKnowRumorOf`], if any.
    source_rumor: Option<RumorId>,
    /// Rumor tracked for [`RunReport::informed_times`], if any.
    tracked: Option<RumorId>,
    /// Per-node first round the tracked rumor was known (empty if untracked).
    informed_times: Vec<Option<u64>>,
    /// Rejoined nodes still re-disseminating: `(node, rejoin round)` pairs,
    /// removed once the node recovers (or crashes again).  Only ever
    /// non-empty under a fault plan with rejoins, and holds at most the
    /// currently-unrecovered rejoiners — scanning it per changing merge is
    /// effectively free.
    pending_recovery: Vec<(u32, u64)>,
    /// Worst observed re-dissemination latency over recovered rejoiners
    /// ([`FaultReport::recovery_latency`]).
    recovery_latency: Option<u64>,
    mem: MemCounters,
}

/// Counters of applied fault events (the injection half of
/// [`FaultReport`]; the degradation half is computed from final state).
#[derive(Default)]
struct FaultTally {
    crashes: u64,
    rejoins: u64,
    links_cut: u64,
    cancelled: u64,
    lost: u64,
}

impl<'g> Progress<'g> {
    fn new(graph: &'g Graph, config: &SimConfig, rumors: &[RumorSet]) -> Self {
        let mut mem = MemCounters::default();
        for set in rumors {
            mem.pages
                .record(PageFootprint::default(), set.page_footprint());
        }
        Progress {
            graph,
            window: DeltaWindow::default(),
            frontier: 0,
            source_rumor: match config.termination {
                Termination::AllKnowRumorOf(source) => Some(RumorId::of_node(source)),
                _ => None,
            },
            tracked: config.tracked_rumor,
            informed_times: match config.tracked_rumor {
                Some(r) => rumors
                    .iter()
                    .map(|s| if s.contains(r) { Some(0) } else { None })
                    .collect(),
                None => Vec::new(),
            },
            pending_recovery: Vec::new(),
            recovery_latency: None,
            mem,
        }
    }

    /// Executes a delivery phase's merge tasks grouped by ascending
    /// destination, sharded by destination across `threads` workers on the
    /// vendored rayon pool, and stores the phase's batches as the window's entry for
    /// `round`.  Pushes every destination that learned at least one rumor
    /// onto `changed`, ascending.
    ///
    /// First the window ages out every round no flight can still reference:
    /// a flight completing at `round` or later was initiated at
    /// `round − max_latency` or later, and reads only the rounds after that.
    ///
    /// The merge runs in two phases.  Phase A ([`merge_shard_phase_a`])
    /// reads only the tasks, every rumor set and the window, and builds each
    /// destination's batch of new rumors — its tasks' snapshots less what it
    /// knows.  Phase B ([`merge_shard_phase_b`]) unions each batch into its
    /// destination's set.  The batches, stored flat, then *are* the window's
    /// entry for this round.  Neither phase keeps termination state: the
    /// frontier reads the sets afterwards.
    ///
    /// # Why sharding cannot change the result
    ///
    /// * **A merge is an order-free union.**  A destination's batch is the
    ///   union of its tasks' snapshots minus its own set, whatever the order
    ///   of its tasks, and no set changes before phase B, so every snapshot
    ///   reads the pre-phase state on every worker.
    /// * **Shard cuts fall only between destinations** ([`partition_tasks`]),
    ///   so phase B writes disjoint `rumors` slices; everything else is read
    ///   shared.
    /// * **Reductions replay the serial walk.**  The rumor-set page peaks
    ///   use the [`PageTrace`] composition law; the shards' batches
    ///   concatenate in shard order into exactly the single-shard entry.
    ///   Both are independent of the cut positions, hence of the thread
    ///   count.
    ///
    /// The two phases are separated by a barrier: phase B writes `rumors[dst]`
    /// while phase A *reads* `rumors[src]`, and any `src` may be another
    /// shard's `dst`.
    fn merge_completions(
        &mut self,
        rumors: &mut [RumorSet],
        tasks: &mut [MergeTask],
        round: u64,
        threads: usize,
        changed: &mut Vec<u32>,
    ) {
        let floor = round.saturating_sub(self.graph.max_latency());
        self.mem.shrink_window(self.window.age_out(floor));
        if tasks.is_empty() {
            return;
        }
        tasks.sort_unstable_by_key(|t| t.dst);
        let shard_count = if threads <= 1 || tasks.len() < MIN_PAR_TASKS {
            1
        } else {
            threads
        };
        // The shard bounds, computed once: both phases split along the same
        // destination ranges.
        let shards = partition_tasks(tasks, |t| t.dst as usize, shard_count, rumors.len());

        // Phase A: build each destination's batch.
        let (sets, window) = (&*rumors, &self.window);
        let jobs = shards.iter().map(|&(tasks, _)| tasks).collect();
        let shard_new = run_jobs(threads, jobs, |tasks| {
            merge_shard_phase_a(tasks, sets, window)
        });
        for new in &shard_new {
            changed.extend(new.iter().map(|(dst, _)| dst));
        }

        // Phase B: union the batches into the destinations' sets.
        let jobs: Vec<_> = shard_new
            .iter()
            .zip(&shards)
            .zip(split_lens(
                rumors,
                shards.iter().map(|(_, dsts)| dsts.len()),
            ))
            .collect();
        for pages in run_jobs(threads, jobs, |((new, (_, dsts)), rumors)| {
            merge_shard_phase_b(new, dsts.start, rumors)
        }) {
            self.mem.pages = self.mem.pages.then(pages);
        }

        // The phase's batches, concatenated in shard order, are the
        // window's entry for this round.
        let mut batches = PhaseBatches::default();
        for new in shard_new {
            batches.extend(new);
        }
        self.mem.grow_window(batches.footprint());
        self.window.push(round, batches);
    }

    /// Stops a crashing node's pending rejoin recovery, if any.  Its rumor
    /// state freezes: a dead node is never merged from again, since every
    /// flight touching it is cancelled and no new ones form.
    fn crash_node(&mut self, node: NodeId) {
        if let Some(pos) = self
            .pending_recovery
            .iter()
            .position(|&(v, _)| v as usize == node.index())
        {
            // Crashed again before recovering: it never recovers from *this*
            // rejoin (a future rejoin starts a fresh recovery clock).
            self.pending_recovery.swap_remove(pos);
        }
    }

    /// Amnesiac rejoin: resets the node to its `seeding` initial rumor set,
    /// rewinds the termination frontier, and starts its re-dissemination
    /// recovery clock.
    ///
    /// The rejoiner must meet the goal again, and under local broadcast its
    /// neighbors owe it its rumor again, so the frontier moves back to the
    /// node and, for `LocalBroadcast`, to its lowest-id neighbor.
    ///
    /// The window needs nothing: the crash cancelled every flight touching
    /// the node, so no snapshot still in flight predates the rejoin, and
    /// the node's older batches are never read.
    // gossip-lint: allow(panic-path): per-node vecs are sized n at construction; node ids are dense
    fn rejoin_node(
        &mut self,
        rumors: &mut [RumorSet],
        node: NodeId,
        round: u64,
        termination: Termination,
        seeding: Seeding,
    ) {
        let i = node.index();
        let universe = rumors[i].universe();
        let pages_before = rumors[i].page_footprint();
        rumors[i] = seeding.initial_set(universe, node);
        self.mem
            .pages
            .record(pages_before, rumors[i].page_footprint());
        let mut rewind = i;
        if let Termination::LocalBroadcast(_) = termination {
            if let Some(&(w, _)) = self.graph.neighbor_slice(node).first() {
                rewind = rewind.min(w.index());
            }
        }
        self.frontier = self.frontier.min(rewind);
        self.stamp_informed(i, &rumors[i], round);
        if self.recovered(&rumors[i]) {
            self.note_recovery(0);
        } else {
            self.pending_recovery.push((i as u32, round));
        }
    }

    /// Records `round` as the first round `node`, now holding `set`, knows
    /// the tracked rumor, unless an earlier round is already recorded.
    fn stamp_informed(&mut self, node: usize, set: &RumorSet, round: u64) {
        if let (Some(r), Some(at)) = (self.tracked, self.informed_times.get_mut(node)) {
            if at.is_none() && set.contains(r) {
                *at = Some(round);
            }
        }
    }

    /// Whether a rejoined node holding `set` has recovered: it knows the
    /// tracked rumor if any, else the `AllKnowRumorOf` source rumor, else
    /// (with neither) everything.
    fn recovered(&self, set: &RumorSet) -> bool {
        match self.tracked.or(self.source_rumor) {
            Some(r) => set.contains(r),
            None => set.is_full(),
        }
    }

    /// If `node` is awaiting recovery and now holds its target in `set`,
    /// records the re-dissemination latency and stops tracking it.
    fn check_recovery(&mut self, node: u32, set: &RumorSet, round: u64) {
        let Some(pos) = self.pending_recovery.iter().position(|&(v, _)| v == node) else {
            return;
        };
        if self.recovered(set) {
            let (_, since) = self.pending_recovery.swap_remove(pos);
            self.note_recovery(round - since);
        }
    }

    /// Folds one recovered rejoiner's latency into the worst-case aggregate.
    fn note_recovery(&mut self, latency: u64) {
        self.recovery_latency = Some(
            self.recovery_latency
                .map_or(latency, |cur| cur.max(latency)),
        );
    }
}

/// The synchronous round simulator.
pub struct Simulation<'g> {
    graph: &'g Graph,
    config: SimConfig,
    rumors: Vec<RumorSet>,
    /// The initial-state rule an amnesiac rejoin resets a node to.
    seeding: Seeding,
}

impl<'g> Simulation<'g> {
    /// Creates an all-to-all simulation: node `i` initially knows exactly
    /// rumor `i` ([`Seeding::AllToAll`]).
    pub fn new(graph: &'g Graph, config: SimConfig) -> Self {
        Self::seeded(graph, config, Seeding::AllToAll)
    }

    /// Creates a one-to-all simulation from `source`: the source initially
    /// knows its own rumor and every other node knows nothing
    /// ([`Seeding::Broadcast`]).  Pair it with
    /// [`Termination::AllKnowRumorOf`]`(source)`.
    ///
    /// # Panics
    ///
    /// Panics if `source` is not a node of `graph`.
    pub fn broadcast(graph: &'g Graph, config: SimConfig, source: NodeId) -> Self {
        Self::seeded(graph, config, Seeding::Broadcast(source))
    }

    fn seeded(graph: &'g Graph, config: SimConfig, seeding: Seeding) -> Self {
        Simulation {
            graph,
            config,
            rumors: seeding.initial_sets(graph.node_count()),
            seeding,
        }
    }

    /// Creates a simulation with explicitly provided initial rumor sets
    /// (used to chain protocol phases, e.g. the pattern-broadcast schedule).
    /// An amnesiac rejoin resets a node to its [`Seeding::AllToAll`] set.
    ///
    /// # Panics
    ///
    /// Panics if `initial.len()` differs from the node count, or if a set's
    /// universe does — rumor `i` originates at node `i`, so the universe is
    /// exactly the node set.
    pub fn with_rumors(graph: &'g Graph, config: SimConfig, initial: Vec<RumorSet>) -> Self {
        let n = graph.node_count();
        assert_eq!(initial.len(), n, "one rumor set per node is required");
        assert!(
            initial.iter().all(|s| s.universe() == n),
            "every rumor set's universe must be the {n} nodes"
        );
        Simulation {
            graph,
            config,
            rumors: initial,
            seeding: Seeding::AllToAll,
        }
    }

    /// Read access to the current rumor sets (indexed by node).
    pub fn rumors(&self) -> &[RumorSet] {
        &self.rumors
    }

    /// Consumes the simulation and returns the rumor sets (after a run).
    pub fn into_rumors(self) -> Vec<RumorSet> {
        self.rumors
    }

    /// Runs `protocol` until the termination condition or the round cap is
    /// reached and returns the run report.
    ///
    /// # Re-running a simulation
    ///
    /// The rumor sets are the only simulation state that survives between
    /// runs.  Calling `run` again (with the same or another protocol)
    /// continues from the *reached rumor state*, but:
    ///
    /// * any exchange still **in flight** when the previous run stopped is
    ///   **dropped** — it never completes and its rumors are never merged;
    /// * the **round counter restarts at 0**, so `max_rounds`,
    ///   [`Termination::FixedRounds`] targets, [`RunReport::rounds`] and
    ///   [`RunReport::informed_times`] are all relative to the new run;
    /// * activation counters are likewise reset.
    ///
    /// Protocol state is owned by the caller and is *not* reset; reuse the
    /// same protocol value to continue its program, or pass a fresh one.
    ///
    /// # Determinism and parallelism
    ///
    /// Each node's per-round RNG stream is derived independently from
    /// `(seed, round, node)` (see `decision_rng`), a decision writes only
    /// its own node's [`Protocol::Node`] state, and a completion merge is an
    /// order-free union, grouped by ascending destination node.  Both
    /// passes fan out across
    /// [`SimConfig::threads`] workers, and reports are byte-identical for
    /// every thread count.
    ///
    /// One timing note: [`Protocol::on_rejected`] fires during the serial
    /// epilogue *after* the round's whole decision pass, not interleaved with
    /// it — a rejection callback can no longer observe later nodes'
    /// undecided state, which is exactly what makes the pass shardable.
    pub fn run<P: Protocol>(&mut self, protocol: &mut P) -> RunReport {
        let max_rounds = self.config.max_rounds;
        let mut st = RoundState::new(self.graph, &self.config, self.seeding, &mut self.rumors);
        let mut round = 0;
        let mut completed = st.is_done(protocol, round);
        while !completed && round < max_rounds {
            st.rounds_simulated += 1;
            st.apply_faults(round);
            st.deliver(protocol, round);
            if st.is_done(protocol, round) {
                completed = true;
                break;
            }
            st.sched.admit_woken();
            st.decide_and_initiate(protocol, round);
            round = st.advance_clock(protocol, round);
        }
        if !completed {
            completed = st.is_done(protocol, round);
        }
        st.into_report(protocol, round, completed)
    }

    /// The same as [`run`](Self::run), which is parallel for every protocol
    /// whenever [`SimConfig::threads`] is above 1.  Kept as a forwarder for
    /// callers written against the earlier split between a serial and a
    /// sharded entry point.
    pub fn run_sharded<P: Protocol>(&mut self, protocol: &mut P) -> RunReport {
        self.run(protocol)
    }
}

/// The fault machinery of a run with an attached [`FaultPlan`].
struct FaultState<'a> {
    /// The plan's `(round, event)` pairs, sorted by round; `cursor` indexes
    /// the next one to apply.
    events: &'a [(u64, FaultEvent)],
    cursor: usize,
    tally: FaultTally,
    /// The dedicated message-loss stream ([`fault::draw_loss`]).
    loss: Option<(SmallRng, u32)>,
    alive: AliveView,
    /// The run's initial-state rule, which a rejoin resets a node to.
    seeding: Seeding,
}

/// Everything one run mutates, for the length of its round loop.  Each
/// phase of a round is one method, called by [`Simulation::run`].
struct RoundState<'a> {
    graph: &'a Graph,
    config: &'a SimConfig,
    rumors: &'a mut [RumorSet],
    progress: Progress<'a>,
    calendar: Calendar,
    sched: Scheduler,
    /// Present exactly when a fault plan is attached, so fault-free runs
    /// pay nothing beyond a few predictable branches.
    faults: Option<FaultState<'a>>,
    // Per-round scratch, kept to reuse its capacity.
    merge_tasks: Vec<MergeTask>,
    changed_dsts: Vec<u32>,
    decides: Vec<Decide>,
    activations: u64,
    rejections: u64,
    rounds_simulated: u64,
    rounds_skipped: u64,
}

impl<'a> RoundState<'a> {
    fn new(
        graph: &'a Graph,
        config: &'a SimConfig,
        seeding: Seeding,
        rumors: &'a mut [RumorSet],
    ) -> Self {
        let n = graph.node_count();
        RoundState {
            graph,
            config,
            progress: Progress::new(graph, config, rumors),
            rumors,
            calendar: Calendar::default(),
            sched: Scheduler::new(n),
            faults: config.faults.as_ref().map(|plan| FaultState {
                events: plan.events(),
                cursor: 0,
                tally: FaultTally::default(),
                loss: plan.loss_stream(),
                alive: AliveView::new(graph),
                seeding,
            }),
            merge_tasks: Vec::new(),
            changed_dsts: Vec::new(),
            decides: Vec::new(),
            activations: 0,
            rejections: 0,
            rounds_simulated: 0,
            rounds_skipped: 0,
        }
    }

    /// The read-only inputs every [`NodeView`] of round `round` is built from.
    fn ctx(&self, round: u64) -> DecisionCtx<'_> {
        DecisionCtx {
            graph: self.graph,
            rumors: self.rumors,
            alive: self.faults.as_ref().map(|f| &f.alive),
            config: self.config,
            round,
        }
    }

    /// Phase 1: applies the fault events scheduled up to `round` — *before*
    /// deliveries, so an exchange completing this very
    /// round but incident to a node that crashes now (or riding an edge cut
    /// now) is cancelled, never delivered.  An event that
    /// changes nothing (crashing a dead node, reviving a live one, cutting a
    /// cut edge) is an uncounted no-op.
    // gossip-lint: allow(panic-path): node and edge ids are below the graph's n and m (its n + 1 offsets bound every node's slice of the flat arc array); per-node vecs are sized n at construction
    fn apply_faults(&mut self, round: u64) {
        let Some(mut faults) = self.faults.take() else {
            return;
        };
        while let Some(&(_, event)) = faults
            .events
            .get(faults.cursor)
            .filter(|&&(at, _)| at <= round)
        {
            faults.cursor += 1;
            match event {
                FaultEvent::Crash(v) => {
                    if !faults.alive.kill_node(self.graph, v) {
                        continue;
                    }
                    faults.tally.crashes += 1;
                    self.cancel_flights(&mut faults, |fl| fl.initiator == v || fl.responder == v);
                    self.progress.crash_node(v);
                    self.sched.state[v.index()] = NodeState::Quiescent;
                    let neighbors = self.graph.neighbors(v).map(|(w, _)| w);
                    self.sched.wake_survivors(&faults.alive, neighbors);
                }
                FaultEvent::Rejoin(v) => {
                    if !faults.alive.revive_node(self.graph, v) {
                        continue;
                    }
                    faults.tally.rejoins += 1;
                    self.progress.rejoin_node(
                        self.rumors,
                        v,
                        round,
                        self.config.termination,
                        faults.seeding,
                    );
                    let neighbors = self.graph.neighbors(v).map(|(w, _)| w);
                    self.sched
                        .wake_survivors(&faults.alive, std::iter::once(v).chain(neighbors));
                }
                FaultEvent::CutLink(e) => {
                    if !faults.alive.cut_edge(self.graph, e) {
                        continue;
                    }
                    faults.tally.links_cut += 1;
                    self.cancel_flights(&mut faults, |fl| fl.edge == e);
                    let rec = self.graph.edge(e);
                    self.sched.wake_survivors(&faults.alive, [rec.u, rec.v]);
                }
            }
        }
        self.faults = Some(faults);
    }

    /// Cancels every in-flight exchange `doomed` selects.  It wakes no one:
    /// the caller's `wake_survivors` already covers every surviving endpoint
    /// (a crashed node's neighbors, a cut edge's endpoints).
    fn cancel_flights(&mut self, faults: &mut FaultState<'_>, doomed: impl Fn(&Flight) -> bool) {
        self.calendar.rounds.retain(|_, flights| {
            let before = flights.len();
            flights.retain(|fl| !doomed(fl));
            faults.tally.cancelled += (before - flights.len()) as u64;
            !flights.is_empty()
        });
    }

    /// Phase 2: delivers the exchanges completing at `round`.  A serial
    /// prologue, in flight order, tallies losses and
    /// turns each delivered exchange into up to two merge tasks, one per
    /// direction, with the exchange's initiation round as the snapshot (a
    /// direction whose source's current set the destination already holds
    /// adds nothing and gets no task); the
    /// merges give the same sets whatever the thread count; each changed
    /// destination gets its tracked-rumor time stamped from its merged set
    /// and settles a pending rejoin recovery; last, both endpoints
    /// of every delivered exchange get `on_exchange`.
    // gossip-lint: allow(panic-path): node and edge ids are below the graph's n and m (its n + 1 offsets bound every node's slice of the flat arc array); per-node vecs are sized n at construction
    fn deliver<P: Protocol>(&mut self, protocol: &mut P, round: u64) {
        let completions = self.calendar.take(round);
        for fl in &completions {
            if fl.lost {
                // Timed out in transit: nothing is delivered — no merge, no
                // `on_exchange`, no wake event.
                if let Some(faults) = &mut self.faults {
                    faults.tally.lost += 1;
                }
                continue;
            }
            // Both endpoints merge the peer's set as of initiation.
            let since = round.saturating_sub(self.graph.latency(fl.edge));
            for (dst, src) in [(fl.initiator, fl.responder), (fl.responder, fl.initiator)] {
                // The snapshot is a subset of the source's current set, so
                // a destination holding that set learns nothing.
                if !self.rumors[src.index()].is_subset(&self.rumors[dst.index()]) {
                    self.merge_tasks.push(MergeTask {
                        dst: dst.index() as u32,
                        src: src.index() as u32,
                        since,
                    });
                }
            }
        }

        self.changed_dsts.clear();
        self.progress.merge_completions(
            self.rumors,
            &mut self.merge_tasks,
            round,
            self.config.threads,
            &mut self.changed_dsts,
        );
        self.merge_tasks.clear();
        for &node in &self.changed_dsts {
            let set = &self.rumors[node as usize];
            self.progress.stamp_informed(node as usize, set, round);
            self.progress.check_recovery(node, set, round);
        }

        for fl in completions.into_iter().filter(|fl| !fl.lost) {
            let latency = self.graph.latency(fl.edge);
            for (node, peer, initiated_here) in [
                (fl.initiator, fl.responder, true),
                (fl.responder, fl.initiator, false),
            ] {
                protocol.on_exchange(
                    node,
                    &ExchangeEvent {
                        peer,
                        edge: fl.edge,
                        latency,
                        initiated_here,
                        round,
                    },
                );
                // A completed incident exchange is a wake event: the node
                // may have merged new rumors and its `on_exchange` state
                // changed.
                self.sched.wake(node.index());
            }
        }
    }

    /// Phase 3: evaluates the termination condition at the round boundary
    /// `round`.  Under faults, dissemination conditions quantify over
    /// *alive* nodes only; with no node alive they hold vacuously.  A
    /// dissemination goal advances the termination frontier past every dead
    /// or satisfied node and holds once the frontier reaches `n`; the node
    /// it stops at is re-tested at the next check.  `Quiescent` asks every
    /// alive node's [`Protocol::activity`] through the same views the
    /// decision pass builds.
    fn is_done<P: Protocol>(&mut self, protocol: &mut P, round: u64) -> bool {
        let ctx = self.ctx(round);
        match self.config.termination {
            goal @ (Termination::AllKnowRumorOf(_)
            | Termination::AllKnowAll
            | Termination::LocalBroadcast(_)) => {
                let n = self.rumors.len();
                let mut frontier = self.progress.frontier;
                while frontier < n {
                    let v = NodeId::new(frontier);
                    if !ctx.is_dead(v) && !ctx.goal_met(goal, v) {
                        break;
                    }
                    frontier += 1;
                }
                self.progress.frontier = frontier;
                frontier == n
            }
            Termination::FixedRounds(target) => round >= target,
            Termination::Quiescent => {
                let (shared, states) = protocol.split(self.graph.node_count());
                self.calendar.rounds.is_empty()
                    && self.graph.nodes().zip(states.iter()).all(|(v, state)| {
                        ctx.is_dead(v)
                            || P::activity(shared, state, &ctx.view(v)) == Activity::Quiescent
                    })
            }
        }
    }

    /// Phase 5: lets every *active* node act.  The decision pass records one
    /// `Decide` per worklist entry — serially or across worker shards,
    /// byte-identical either way, since each node's RNG stream is
    /// independent and a decision reads round-start state and writes only
    /// its own node state — then this serial epilogue applies them in
    /// worklist order.  Nodes whose `on_round` returned `None` and whose
    /// `activity` promises silence leave the worklist here.
    // gossip-lint: allow(panic-path): worklist entries and protocol targets accepted by find_edge are node ids < n, and per-node vecs are sized n
    fn decide_and_initiate<P: Protocol>(&mut self, protocol: &mut P, round: u64) {
        let mut decides = std::mem::take(&mut self.decides);
        decide_all(
            protocol,
            &self.ctx(round),
            &self.sched.worklist,
            &mut decides,
        );
        debug_assert_eq!(decides.len(), self.sched.worklist.len());
        self.sched.spare.clear();
        for (&u, &decide) in self.sched.worklist.iter().zip(&decides) {
            let i = u as usize;
            let node = NodeId::new(i);
            let target = match decide {
                // Crashed while queued: drop from the worklist (its state is
                // already `Quiescent`; a rejoin force-wake re-admits it).
                Decide::Dead => continue,
                Decide::Silent(activity) => {
                    match activity {
                        Activity::Active => self.sched.spare.push(u),
                        Activity::IdleUntilWoken => self.sched.state[i] = NodeState::Idle,
                        Activity::Quiescent => self.sched.state[i] = NodeState::Quiescent,
                    }
                    continue;
                }
                Decide::Target(target) => target,
            };
            self.sched.spare.push(u);
            // A dead peer or cut edge rejects like a non-neighbor (the
            // filtered view means a well-behaved protocol never picks one).
            let edge = self.graph.find_edge(node, target).filter(|&e| {
                self.faults
                    .as_ref()
                    .is_none_or(|f| f.alive.is_edge_alive(e) && f.alive.is_node_alive(target))
            });
            let Some(edge) = edge else {
                self.rejections += 1;
                protocol.on_rejected(node, target, round);
                continue;
            };
            self.activations += 1;
            let flight = Flight {
                initiator: node,
                responder: target,
                edge,
                // Drawn exactly once per *accepted* initiation, from the
                // dedicated loss stream (never the protocol RNG).
                lost: self
                    .faults
                    .as_mut()
                    .is_some_and(|f| fault::draw_loss(&mut f.loss)),
            };
            let completes_at = round.saturating_add(self.graph.latency(edge));
            self.calendar.push(completes_at, flight);
        }
        std::mem::swap(&mut self.sched.worklist, &mut self.sched.spare);
        self.decides = decides;
    }

    /// Phase 6: advances the round clock, returning the next round to
    /// simulate.  With an empty worklist no node can act until the next
    /// completion, and rounds without one are no-ops (no deliveries, no
    /// decisions) — so the clock fast-forwards straight
    /// past them instead of spinning, stopping early at a `FixedRounds`
    /// target or the `max_rounds` cap, both of which are evaluated on the
    /// round counter itself.
    ///
    /// One caveat: this round's decision phase ran after this round's
    /// termination check, and for [`Termination::Quiescent`] a final
    /// `on_round` call may have turned the last node's `activity` to
    /// `Quiescent` — state the check could not see but that the oracle
    /// observes at the next round's boundary.  Nothing can change *during* a
    /// gap (no protocol calls, frozen sets), so one re-check at
    /// `round + 1` is exact: if the run is done there, walk a single round
    /// and let the loop terminate where the oracle does.
    fn advance_clock<P: Protocol>(&mut self, protocol: &mut P, round: u64) -> u64 {
        if !self.sched.worklist.is_empty() {
            return round + 1;
        }
        let max_rounds = self.config.max_rounds;
        let mut next = self
            .calendar
            .next_event(round)
            .unwrap_or(max_rounds)
            .min(max_rounds);
        if let Termination::FixedRounds(target) = self.config.termination {
            // `target > round`, else the termination check would have
            // completed the run.
            next = next.min(target);
        }
        // A pending fault event is a hard stop for the gap: it changes
        // topology (and wakes nodes), so rounds past it are not provably
        // no-ops.  Pending events all lie strictly after `round` (phase 1
        // applied the rest); the `max` is defensive.
        if let Some(&(at, _)) = self.faults.as_ref().and_then(|f| f.events.get(f.cursor)) {
            next = next.min(at.max(round + 1));
        }
        if self.is_done(protocol, round + 1) {
            next = next.min(round + 1);
        }
        debug_assert!(next > round);
        self.rounds_skipped += next - round - 1;
        next
    }

    /// Builds the run report: the deterministic [`MemStats`] counters and,
    /// exactly when a fault plan was attached (even an inert one), the
    /// graceful-degradation [`FaultReport`] — computed identically by the
    /// oracle, so it is part of the semantic report.
    fn into_report<P: Protocol>(self, protocol: &P, round: u64, completed: bool) -> RunReport {
        let progress = self.progress;
        let pages = progress.mem.pages;
        let rumor_set_bytes =
            pages.bytes.max_prefix as u64 + self.rumors.len() as u64 * RumorSet::base_cost_bytes();
        let peak_log_bytes = progress.mem.peak_bytes;
        let mem = MemStats {
            peak_log_runs: progress.mem.peak_runs,
            peak_log_bytes,
            dense_batches: progress.mem.dense_batches,
            live_log_runs: progress.mem.window.runs,
            truncated_runs: progress.mem.aged_batches,
            shadow_advances: 0,
            rumor_set_bytes,
            pages_live: pages.dense.delta as u64,
            pages_peak: pages.dense.max_prefix as u64,
            saturated_nodes: self
                .graph
                .nodes()
                .zip(self.rumors.iter())
                .filter(|&(v, set)| {
                    set.is_full()
                        && self
                            .faults
                            .as_ref()
                            .is_none_or(|f| f.alive.is_node_alive(v))
                })
                .count() as u64,
            collapsed_nodes: 0,
            peak_engine_bytes: rumor_set_bytes + peak_log_bytes,
            rounds_simulated: self.rounds_simulated,
            rounds_skipped: self.rounds_skipped,
            active_peak: self.sched.active_peak,
            active_final: self.sched.worklist.len() as u64,
        };
        let faults = self.faults.map(|f| {
            let (residual_components, largest_component) = f.alive.residual_components(self.graph);
            FaultReport {
                crashes: f.tally.crashes,
                rejoins: f.tally.rejoins,
                links_cut: f.tally.links_cut,
                exchanges_cancelled: f.tally.cancelled,
                exchanges_lost: f.tally.lost,
                alive_nodes: f.alive.alive_count() as u64,
                residual_components,
                largest_component,
                stranded_rumors: fault::stranded_rumors(self.rumors, &f.alive),
                recovery_latency: progress.recovery_latency,
            }
        });
        RunReport {
            protocol: protocol.name().to_string(),
            rounds: round,
            activations: self.activations,
            messages: self.activations * 2,
            completed,
            rejections: self.rejections,
            informed_times: if progress.informed_times.is_empty() {
                None
            } else {
                Some(progress.informed_times)
            },
            min_rumors_known: self.rumors.iter().map(RumorSet::len).min().unwrap_or(0),
            faults,
            mem: Some(mem),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocols::{RandomPushPull, RoundRobinFlood, Silent};
    use gossip_graph::generators;

    #[test]
    fn silent_protocol_never_completes() {
        let g = generators::clique(4, 1).unwrap();
        let config = SimConfig::new(1)
            .termination(Termination::AllKnowAll)
            .max_rounds(50);
        let report = Simulation::new(&g, config).run(&mut Silent);
        assert!(!report.completed);
        assert_eq!(report.activations, 0);
        assert_eq!(report.rounds, 50);
    }

    #[test]
    fn push_pull_completes_one_to_all_on_clique() {
        let g = generators::clique(16, 1).unwrap();
        let config = SimConfig::new(3)
            .termination(Termination::AllKnowRumorOf(NodeId::new(0)))
            .track_rumor(RumorId(0));
        let report = Simulation::new(&g, config).run(&mut RandomPushPull::new(&g));
        assert!(report.completed);
        assert!(report.rounds <= 40);
        let times = report.informed_times.unwrap();
        assert!(times.iter().all(Option::is_some));
        assert_eq!(times[0], Some(0));
    }

    #[test]
    fn latency_delays_completion() {
        let slow = generators::clique(8, 10).unwrap();
        let fast = generators::clique(8, 1).unwrap();
        let mk = |g| {
            let config = SimConfig::new(5).termination(Termination::AllKnowAll);
            Simulation::new(g, config).run(&mut RandomPushPull::new(g))
        };
        let slow_report = mk(&slow);
        let fast_report = mk(&fast);
        assert!(slow_report.completed && fast_report.completed);
        // Every exchange on the slow clique needs 10 rounds, so completion
        // cannot beat 10 rounds and should be clearly slower than the fast clique.
        assert!(slow_report.rounds >= 10);
        assert!(
            slow_report.rounds > 2 * fast_report.rounds,
            "latency-10 clique ({}) should be much slower than latency-1 clique ({})",
            slow_report.rounds,
            fast_report.rounds
        );
    }

    #[test]
    fn local_broadcast_termination() {
        let g = generators::dumbbell(4, 50).unwrap();
        // Local broadcast over fast edges only: the bridge (latency 50) is excluded.
        let config = SimConfig::new(4)
            .termination(Termination::LocalBroadcast(1))
            .max_rounds(500);
        let report = Simulation::new(&g, config).run(&mut RoundRobinFlood::new(&g));
        assert!(report.completed);
        assert!(report.rounds < 500);
    }

    #[test]
    fn fixed_round_termination_runs_exactly_that_long() {
        let g = generators::cycle(5, 1).unwrap();
        let config = SimConfig::new(2).termination(Termination::FixedRounds(17));
        let report = Simulation::new(&g, config).run(&mut RandomPushPull::new(&g));
        assert_eq!(report.rounds, 17);
        assert!(report.completed);
    }

    #[test]
    fn with_rumors_chains_state_between_runs() {
        let g = generators::path(4, 1).unwrap();
        let config = SimConfig::new(6).termination(Termination::FixedRounds(3));
        let mut sim = Simulation::new(&g, config);
        let _ = sim.run(&mut RoundRobinFlood::new(&g));
        let mid = sim.into_rumors();
        let knew: usize = mid.iter().map(RumorSet::len).sum();

        let config2 = SimConfig::new(6).termination(Termination::AllKnowAll);
        let mut sim2 = Simulation::with_rumors(&g, config2, mid);
        let report = sim2.run(&mut RoundRobinFlood::new(&g));
        assert!(report.completed);
        let final_total: usize = sim2.rumors().iter().map(RumorSet::len).sum();
        assert!(final_total >= knew);
        assert_eq!(final_total, 16);
    }

    #[test]
    #[should_panic(expected = "universe must be the 4 nodes")]
    fn with_rumors_rejects_sets_over_another_universe() {
        // Universe-2 sets on 4 nodes would report an all-to-all completion
        // once every node knew 2 rumors.
        let g = generators::clique(4, 1).unwrap();
        let initial = (0..4u32).map(|i| RumorSet::singleton(2, RumorId(i % 2)));
        let _ = Simulation::with_rumors(&g, SimConfig::new(1), initial.collect());
    }

    #[test]
    #[should_panic(expected = "universe must be the 4 nodes")]
    fn oracle_with_rumors_rejects_a_shared_universe_other_than_the_nodes() {
        // One shared universe of 8 on 4 nodes: rumors 4..8 have no source, so
        // an all-to-all run could only end at the round cap.
        let g = generators::clique(4, 1).unwrap();
        let initial = (0..4u32).map(|i| RumorSet::singleton(8, RumorId(i)));
        let _ =
            crate::oracle::OracleSimulation::with_rumors(&g, SimConfig::new(1), initial.collect());
    }

    #[test]
    fn rerun_drops_in_flight_exchanges_and_restarts_rounds() {
        // Pins the documented continuation semantics of `Simulation::run`:
        // rumor state carries over, in-flight exchanges and the round counter
        // do not.
        let g = generators::path(2, 10).unwrap();
        let config = SimConfig::new(1).termination(Termination::FixedRounds(5));
        let mut sim = Simulation::new(&g, config);
        let mut protocol = RoundRobinFlood::new(&g);
        let first = sim.run(&mut protocol);
        assert_eq!(first.rounds, 5);
        assert!(first.activations > 0);
        // The latency-10 exchange initiated at round 0 was still in flight at
        // round 5; it is dropped, so nobody has learned anything.
        assert!(sim.rumors().iter().all(|s| s.len() == 1));

        // The reused protocol value continues its program: the flood already
        // completed its relay lap in the first run, so it believes every
        // neighbor has been offered everything and stays quiet.
        let mut sim = Simulation::with_rumors(
            &g,
            SimConfig::new(1).termination(Termination::FixedRounds(12)),
            sim.into_rumors(),
        );
        let continued = sim.run(&mut protocol);
        assert_eq!(continued.rounds, 12);
        assert_eq!(continued.activations, 0, "a clean flood stays quiet");
        assert!(sim.rumors().iter().all(|s| s.len() == 1));

        // Re-running with a *fresh* protocol restarts the round counter (the
        // FixedRounds(12) target is relative to the new run) and re-initiates
        // from scratch: the fresh exchange completes at round 10 of the new
        // run.
        let mut sim = Simulation::with_rumors(
            &g,
            SimConfig::new(1).termination(Termination::FixedRounds(12)),
            sim.into_rumors(),
        );
        let second = sim.run(&mut RoundRobinFlood::new(&g));
        assert_eq!(second.rounds, 12);
        assert!(sim.rumors().iter().all(|s| s.len() == 2));
    }

    #[test]
    fn non_neighbor_targets_are_rejected_and_counted() {
        // A protocol that always targets a non-neighbor: on a path 0-1-2,
        // node 0 contacts node 2.
        struct Confused;
        impl Protocol for Confused {
            type Shared = ();
            type Node = ();
            fn name(&self) -> &'static str {
                "confused"
            }
            fn split(&mut self, n: usize) -> (&(), &mut [()]) {
                (&(), stateless(n))
            }
            fn on_round(
                _: &(),
                _: &mut (),
                view: &NodeView<'_>,
                _: &mut SmallRng,
            ) -> Option<NodeId> {
                (view.node.index() == 0).then_some(NodeId::new(2))
            }
            fn on_rejected(&mut self, node: NodeId, target: NodeId, round: u64) {
                // Override the default (which debug_asserts) to observe the event.
                assert_eq!(node, NodeId::new(0));
                assert_eq!(target, NodeId::new(2));
                let _ = round;
            }
        }
        let g = generators::path(3, 1).unwrap();
        let config = SimConfig::new(1).termination(Termination::FixedRounds(4));
        let report = Simulation::new(&g, config).run(&mut Confused);
        assert_eq!(report.rejections, 4);
        assert_eq!(report.activations, 0);
    }

    #[test]
    #[should_panic(expected = "non-neighbor")]
    #[cfg(debug_assertions)]
    fn default_on_rejected_debug_asserts() {
        struct Confused;
        impl Protocol for Confused {
            type Shared = ();
            type Node = ();
            fn split(&mut self, n: usize) -> (&(), &mut [()]) {
                (&(), stateless(n))
            }
            fn on_round(
                _: &(),
                _: &mut (),
                view: &NodeView<'_>,
                _: &mut SmallRng,
            ) -> Option<NodeId> {
                (view.node.index() == 0).then_some(NodeId::new(2))
            }
        }
        let g = generators::path(3, 1).unwrap();
        let config = SimConfig::new(1).termination(Termination::FixedRounds(4));
        let _ = Simulation::new(&g, config).run(&mut Confused);
    }
}
