//! The synchronous round engine.
//!
//! # Architecture: the snapshot-free, event-driven hot path
//!
//! The engine is built so that the per-round cost is `O(active nodes)`
//! protocol decisions plus work proportional to what actually *happens* —
//! never a rescan of global state, and never a decision loop over nodes that
//! have promised they cannot act:
//!
//! * **Acquisition logs.**  Alongside its rumor bitset, every node keeps an
//!   append-only log of the rumors it learned, in learn order.  A node's
//!   rumor set at any past instant is exactly a *prefix* of that log, so an
//!   exchange records only `(node, log length)` at initiation — an `O(1)`
//!   snapshot instead of an `O(n/64)` bitset clone — and a completion merges
//!   the peer's log prefix.  A per-edge watermark remembers how much of the
//!   peer's log already arrived over that edge, so repeated exchanges over
//!   the same edge never rescan old entries.
//! * **Interval-compressed, layered, truncated logs.**  A log stores maximal
//!   stretches of consecutive rumor ids as single 8-byte runs
//!   ([`AcquisitionLog`]), so bursty acquisition orders — star hubs relaying
//!   `leaf 1, leaf 2, …`, all-to-all endgames copying whole prefixes —
//!   compress by orders of magnitude.  A node's acquisitions of one delivery
//!   phase are appended as one batch, and a batch that would fragment into
//!   many runs — the expander doubling endgame, where a node learns about
//!   half the universe in scattered ids — is stored instead as a *dense
//!   layer*, a bitset over the id window it spans, whenever that is cheaper.
//!   Every log read falls on a delivery-phase boundary and order inside one
//!   phase is unobservable, so a layer keeps its batch as a set and merges
//!   replay it word-wise.  And because every snapshot in flight was taken
//!   at most `max_latency` rounds ago, only the trailing `max_latency + 1`
//!   rounds of each log are ever read: each node keeps a *delayed bitset
//!   shadow* — its rumor set as of the oldest possibly-outstanding snapshot
//!   — advanced lazily through a calendar ring, and log runs and layers
//!   behind the shadow frontier are truncated.  A merge whose watermark
//!   falls at or behind the frontier unions the shadow bitset directly and
//!   replays only the retained tail.  Together these break the old
//!   `Θ(Σ|final rumor sets|)` log-memory wall (~4 GB for all-to-all at
//!   32768 nodes); the peak footprint is reported in
//!   [`RunReport::mem`](crate::report::MemStats).
//! * **Paged rumor sets + saturation collapse.**  Rumor sets are adaptive
//!   paged bitsets ([`RumorSet`]): 4096-bit pages stored sparsely, with a
//!   zero-allocation *full* sentinel for saturated pages, so per-node cost
//!   tracks what the node actually knows instead of the dense `n/8`-byte
//!   floor.  When a node's set goes full it collapses to the canonical
//!   page-free full representation, and one calendar lap later — once no
//!   outstanding snapshot can reference its history — the engine frees its
//!   shadow, truncates its entire log, and marks it *collapsed*: every
//!   future merge from it short-circuits to an `O(dst pages)` "peer is
//!   saturated" union, and its edges become merge-complete after one such
//!   union.  In the knowledge-saturating all-to-all regime this removes both
//!   the `2·n²/8` dense-bitset wall (~4.3 GB at 131072 nodes) and the
//!   endgame's redundant log replays.
//! * **Calendar queue.**  In-flight exchanges live in a ring of
//!   `max_latency + 1` buckets indexed by `completes_at % (max_latency + 1)`.
//!   Since every latency is in `1..=max_latency`, the bucket drained at the
//!   start of a round holds exactly the exchanges completing that round, in
//!   initiation order — delivery is `O(completions)`, not `O(in flight)`.
//! * **Event-driven active-set scheduling.**  Protocols report per-node
//!   quiescence through [`Protocol::activity`]: a node whose `on_round` just
//!   returned `None` and whose `activity` answers
//!   [`IdleUntilWoken`](Activity::IdleUntilWoken) or
//!   [`Quiescent`](Activity::Quiescent) leaves the engine's sorted active
//!   worklist and is simply never asked again — idle nodes re-join when an
//!   exchange incident to them completes (which is the only way their rumor
//!   set, `on_exchange` state, or Blocking-mode `can_initiate` flag can
//!   change) or when their saturation-collapse lap finishes; quiescent nodes
//!   are retired permanently.  The decision loop therefore costs
//!   `O(active)`, not `O(n)`, and the protocol contract (idle nodes would
//!   have returned `None` without touching the RNG) makes the skipped calls
//!   unobservable: reports stay byte-identical to an engine that asks every
//!   node every round.  When the worklist empties entirely while the
//!   calendar ring still holds in-flight exchanges or shadow/collapse laps,
//!   the round clock **fast-forwards** to the next non-empty bucket instead
//!   of spinning through empty rounds; `rounds_simulated`, `rounds_skipped`
//!   and the peak/final active-set size are reported in
//!   [`MemStats`](crate::report::MemStats).
//! * **Incremental termination.**  Counters (nodes with a full set, nodes
//!   knowing the tracked rumor, outstanding local-broadcast pairs) are
//!   updated inside the merge, so every [`Termination`] check is `O(1)`;
//!   `informed_times` is folded into the same path.
//! * **Flat latency discovery.**  Which endpoint has discovered which edge
//!   latency is a bitset with two bits per edge (one per endpoint); the
//!   latency itself is read from the graph.
//!
//! # Round phases
//!
//! All of a run's mutable state lives in one `RoundState`, and each round
//! calls its phases in this order:
//!
//! 1. `apply_faults` — crash, rejoin and cut events due this round;
//! 2. `advance_shadows` — shadow laps and saturation collapses due now;
//! 3. `deliver` — the completions merge in canonical order;
//! 4. `is_done` — the termination check at the round boundary;
//! 5. `admit_woken` — woken nodes rejoin the sorted worklist;
//! 6. `decide_and_initiate` — the decision pass and the initiations;
//! 7. `advance_clock` — the next round, fast-forwarding idle gaps.
//!
//! The dense-bitset spec [`crate::oracle`] states the same semantics with none
//! of these structures and is pinned against this engine by the
//! `engine_equivalence` integration suite: both must produce byte-identical
//! semantic [`RunReport`]s and rumor states on the standard scenario grid.

use std::collections::HashMap;
use std::ops::Range;

use gossip_graph::{AliveView, EdgeId, Graph, Latency, NodeId};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use rayon::prelude::*;

use crate::fault::{self, FaultEvent, FaultPlan};
use crate::report::{FaultReport, MemStats, RunReport};
use crate::rumor::{
    self, AcquisitionLog, DenseBatch, EncodedBatch, LogChunk, LogFootprint, PageFootprint, RumorId,
    RumorRun, RumorSet, Seeding,
};

/// Whether a node may start a new exchange while one it initiated is still in flight.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExchangeMode {
    /// The paper's main model: a node can initiate a new exchange every round.
    #[default]
    NonBlocking,
    /// A node must wait for its own in-flight exchange to complete before
    /// initiating another (used by the pattern-broadcast analysis, §4.2).
    Blocking,
}

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
    pub(crate) mode: ExchangeMode,
    pub(crate) termination: Termination,
    pub(crate) max_rounds: u64,
    pub(crate) latencies_known: bool,
    pub(crate) tracked_rumor: Option<RumorId>,
    pub(crate) shadow_min_truncate_runs: usize,
    pub(crate) faults: Option<FaultPlan>,
    pub(crate) threads: usize,
}

impl SimConfig {
    /// Creates a configuration with the given RNG seed, non-blocking
    /// exchanges, all-to-all termination, and a generous round cap.
    pub fn new(seed: u64) -> Self {
        SimConfig {
            seed,
            mode: ExchangeMode::NonBlocking,
            termination: Termination::AllKnowAll,
            max_rounds: 5_000_000,
            latencies_known: false,
            tracked_rumor: None,
            shadow_min_truncate_runs: 64,
            faults: None,
            threads: 1,
        }
    }

    /// Sets the exchange mode (non-blocking by default).
    pub fn mode(mut self, mode: ExchangeMode) -> Self {
        self.mode = mode;
        self
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

    /// Declares that nodes know the latencies of their incident edges from the
    /// start (Section 4 of the paper).  When `false` (the default), a latency
    /// is revealed to an endpoint only after an exchange over that edge completes.
    pub fn latencies_known(mut self, known: bool) -> Self {
        self.latencies_known = known;
        self
    }

    /// Tracks the per-node first time a specific rumor is learned (reported in
    /// [`RunReport::informed_times`]).
    pub fn track_rumor(mut self, rumor: RumorId) -> Self {
        self.tracked_rumor = Some(rumor);
        self
    }

    /// Tunes the lazy delayed-shadow machinery: a node's shadow bitset is
    /// materialised — and its acquisition log truncated — only once at least
    /// `8 × min_truncate_runs` bytes of log would be reclaimed (8 per whole
    /// interval run, window plus header per whole dense layer), so
    /// short-lived or well-compressed logs never pay for a bitset.
    ///
    /// The default (64, i.e. 512 bytes of log per bitset: 64 runs) is a pure
    /// memory/allocation trade-off: the setting has **no observable effect**
    /// on simulation results.  `0` forces a shadow for every node as soon as
    /// its frontier can advance; the equivalence suite uses that to exercise
    /// the truncated-log merge path on small graphs.
    pub fn shadow_compaction(mut self, min_truncate_runs: usize) -> Self {
        self.shadow_min_truncate_runs = min_truncate_runs;
        self
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

/// Which endpoints have discovered which edge latencies: two bits per edge,
/// one per endpoint.  The latency value itself always comes from the graph.
#[derive(Debug)]
pub(crate) struct DiscoveredLatencies {
    bits: Vec<u64>,
}

impl DiscoveredLatencies {
    fn new(edge_count: usize) -> Self {
        DiscoveredLatencies {
            bits: vec![0; (2 * edge_count).div_ceil(64)],
        }
    }

    /// Records (`known`) or forgets one endpoint's discovery of an edge
    /// latency.  Forgetting serves the amnesiac rejoin: the rejoining node
    /// must re-learn its incident latencies.
    // gossip-lint: allow(panic-path): discovery bitmaps are sized 2 * edge_count at construction
    fn set(&mut self, edge: EdgeId, second_endpoint: bool, known: bool) {
        let i = edge.index() * 2 + second_endpoint as usize;
        let bit = 1 << (i % 64);
        if known {
            self.bits[i / 64] |= bit;
        } else {
            self.bits[i / 64] &= !bit;
        }
    }

    fn known(&self, edge: EdgeId, second_endpoint: bool) -> bool {
        let i = edge.index() * 2 + second_endpoint as usize;
        self.bits[i / 64] & (1 << (i % 64)) != 0
    }
}

/// Everything a protocol can see about one node at the start of a round.
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
    /// `true` if the node may initiate an exchange this round
    /// (always true in non-blocking mode).
    pub can_initiate: bool,
    /// Number of exchanges this node initiated that are still in flight.
    pub pending_own: usize,
    pub(crate) latency_oracle: LatencyOracle<'a>,
}

#[derive(Debug)]
pub(crate) struct LatencyOracle<'a> {
    pub(crate) graph: &'a Graph,
    pub(crate) known_all: bool,
    pub(crate) source: OracleSource<'a>,
}

/// Where an oracle looks up per-node discovery state.  The engine uses the
/// flat bitset; the oracle keeps plain per-node maps.
#[derive(Debug)]
pub(crate) enum OracleSource<'a> {
    Flat {
        node: NodeId,
        discovered: &'a DiscoveredLatencies,
    },
    // gossip-lint: allow(unordered-iter): read via `map.get(&edge)` per query only, never iterated
    Map(&'a HashMap<EdgeId, Latency>),
}

impl NodeView<'_> {
    /// Latency of an incident edge, if this node is entitled to know it:
    /// either latencies are globally known ([`SimConfig::latencies_known`]) or
    /// an exchange over the edge has completed at this node.
    pub fn known_latency(&self, edge: EdgeId) -> Option<Latency> {
        if self.latency_oracle.known_all {
            return Some(self.latency_oracle.graph.latency(edge));
        }
        match self.latency_oracle.source {
            OracleSource::Map(map) => map.get(&edge).copied(),
            OracleSource::Flat { node, discovered } => {
                let graph = self.latency_oracle.graph;
                if edge.index() >= graph.edge_count() {
                    return None;
                }
                let rec = graph.edge(edge);
                let second = if node == rec.u {
                    false
                } else if node == rec.v {
                    true
                } else {
                    return None;
                };
                discovered.known(edge, second).then_some(rec.latency)
            }
        }
    }

    /// Number of nodes in the network (the paper assumes a polynomial upper
    /// bound on `n` is known; we expose the exact value for simplicity).
    pub fn network_size(&self) -> usize {
        self.latency_oracle.graph.node_count()
    }
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
    ///   set can grow, [`on_exchange`](Protocol::on_exchange) can fire at
    ///   `v`, or `v`'s `pending_own` / Blocking-mode `can_initiate` state
    ///   can change;
    /// * `v`'s saturation-collapse lap finishes (an engine-internal event,
    ///   included so a protocol may key idleness off `view.rumors` becoming
    ///   full without tracking the collapse calendar itself);
    /// * an exchange `v` initiated is cancelled by a fault or times out lost
    ///   (its `pending_own` / Blocking-mode `can_initiate` state changed);
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
    discovered: &'a DiscoveredLatencies,
    pending_own: &'a [usize],
    config: &'a SimConfig,
    round: u64,
}

impl<'a> DecisionCtx<'a> {
    fn is_dead(&self, node: NodeId) -> bool {
        self.alive.is_some_and(|av| !av.is_node_alive(node))
    }

    // gossip-lint: allow(panic-path): node indices come from the sorted worklist, bounded by n
    fn view(&self, node: NodeId) -> NodeView<'a> {
        let i = node.index();
        NodeView {
            node,
            round: self.round,
            rumors: &self.rumors[i],
            neighbors: match self.alive {
                Some(av) => av.neighbor_slice(self.graph, node),
                None => self.graph.neighbor_slice(node),
            },
            can_initiate: match self.config.mode {
                ExchangeMode::NonBlocking => true,
                ExchangeMode::Blocking => self.pending_own[i] == 0,
            },
            pending_own: self.pending_own[i],
            latency_oracle: LatencyOracle {
                graph: self.graph,
                known_all: self.config.latencies_known,
                source: OracleSource::Flat {
                    node,
                    discovered: self.discovered,
                },
            },
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
/// worklist, the worklist is cut into contiguous chunks, the node states at
/// the same cuts, and each chunk is decided on its own worker; otherwise
/// the one chunk runs inline.  Either way the outcome is identical, since
/// a decision reads round-start state and writes only its own node state.
// gossip-lint: allow(panic-path): a chunk's nodes lie in its carved node-state range, which split() sized n
fn decide_all<P: Protocol>(
    protocol: &mut P,
    ctx: &DecisionCtx<'_>,
    worklist: &[u32],
    out: &mut Vec<Decide>,
) {
    out.clear();
    let n = ctx.graph.node_count();
    let (shared, mut rest) = protocol.split(n);
    assert_eq!(
        rest.len(),
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
        decide_chunk((worklist, 0, rest), out);
        return;
    }
    // The worklist is sorted, so each chunk's nodes lie in `base..=last`
    // and the chunks carve the node states into disjoint ranges.
    let shard_count = threads.min(worklist.len());
    let mut jobs = Vec::with_capacity(shard_count);
    let mut base = 0;
    for chunk in worklist.chunks(worklist.len().div_ceil(shard_count)) {
        let Some(&last) = chunk.last() else { continue };
        let (states, tail) = rest.split_at_mut(last as usize + 1 - base);
        jobs.push((chunk, base, states));
        rest = tail;
        base = last as usize + 1;
    }
    let results = run_jobs(threads, jobs, |job| {
        let mut decides = Vec::new();
        decide_chunk(job, &mut decides);
        decides
    });
    for decides in results {
        out.extend_from_slice(&decides);
    }
}

/// An in-flight exchange: its endpoints plus the `O(1)` snapshot of what each
/// endpoint knew at initiation — the length of its acquisition log.
struct Flight {
    initiator: NodeId,
    responder: NodeId,
    edge: EdgeId,
    /// Initiator's log length at initiation time.
    initiator_known: u32,
    /// Responder's log length at initiation time.
    responder_known: u32,
    /// Lost in transit ([`FaultPlan::message_loss`]): occupies the
    /// initiator's slot until the completion round, then times out silently
    /// — no merge, no discovery, no `on_exchange`.
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

/// A queued shadow-frontier advance: `(node, target log position, the
/// node's fault epoch at queue time)`.
type ShadowAdvance = (u32, u32, u32);

/// Everything that fires at one round: the exchanges completing then, in
/// initiation order, and the shadow advances queued one lap earlier.
#[derive(Default)]
struct Bucket {
    flights: Vec<Flight>,
    advances: Vec<ShadowAdvance>,
}

/// The calendar ring of `ring_len = max_latency + 1` buckets: round `t` fires
/// bucket `t % ring_len`.  A node whose rumor count changed in round `r` is
/// queued for shadow advancement at `r + ring_len`, when every snapshot still
/// in flight was taken after `r`; so every queued entry fires within one lap.
struct Calendar {
    buckets: Vec<Bucket>,
    /// Exchanges in flight, summed over all buckets.
    in_flight: usize,
}

impl Calendar {
    /// The bucket that fires at round `t`.
    // gossip-lint: allow(panic-path): the ring has max_latency + 1 >= 1 buckets, so the modulus is nonzero and the slot in range
    fn bucket(&mut self, t: u64) -> &mut Bucket {
        let len = self.buckets.len() as u64;
        &mut self.buckets[(t % len) as usize]
    }

    /// The next round strictly after `round` at which any bucket fires.
    /// Every queued entry fires within one lap, so bucket `b` fires at the
    /// unique `t ∈ (round, round + ring_len]` with `t ≡ b (mod ring_len)` —
    /// including `b == round % ring_len`, which (being already drained for
    /// the current round) can only mean `t = round + ring_len`.
    // gossip-lint: allow(panic-path): ring_len >= 1 always (max latency + 1), so the modulus is never zero and cur + 1 <= ring_len
    fn next_event(&self, round: u64) -> Option<u64> {
        let cur = (round % self.buckets.len() as u64) as usize;
        let (through_cur, after_cur) = self.buckets.split_at(cur + 1);
        after_cur
            .iter()
            .chain(through_cur)
            .position(|b| !b.flights.is_empty() || !b.advances.is_empty())
            .map(|d| round + d as u64 + 1)
    }
}

/// Deterministic memory accounting of the dissemination state (the source of
/// [`MemStats`]): counters, not allocator probes, so gates built on them are
/// reproducible across machines.
#[derive(Default)]
struct MemCounters {
    /// Currently retained interval runs, summed over all logs.
    live_runs: u64,
    /// Peak of `live_runs` over the run so far.
    peak_runs: u64,
    /// Currently retained log bytes (interval runs and dense layers),
    /// summed over all logs.
    live_log_bytes: u64,
    /// Peak of `live_log_bytes` over the run so far.
    peak_log_bytes: u64,
    /// Append batches stored as dense log layers.
    dense_batches: u64,
    /// 64-bit words currently held by materialised shadow bitsets
    /// (saturation collapse frees a node's shadow).
    shadow_words_live: u64,
    /// Peak of `shadow_words_live` over the run so far.
    shadow_words_peak: u64,
    /// Total log runs and dense layers reclaimed by shadow-frontier
    /// truncation and saturation collapse.
    truncated_runs: u64,
    /// Number of shadow-frontier advancements.
    shadow_advances: u64,
    /// Rumor-set page cost over the run so far, summed over all nodes and
    /// sampled at merge boundaries: each lane's `delta` is the live value
    /// and its `max_prefix` the peak.
    pages: PageTrace,
    /// Nodes whose log and shadow were freed by saturation collapse.
    collapsed_nodes: u64,
}

impl MemCounters {
    /// Accounts log storage appended (a merge batch or a fresh log).
    fn grow_log(&mut self, added: LogFootprint) {
        self.live_runs += added.runs;
        self.live_log_bytes += added.bytes;
        self.dense_batches += added.layers;
    }

    /// Folds the current log storage into its peaks.
    fn note_log_peak(&mut self) {
        self.peak_runs = self.peak_runs.max(self.live_runs);
        self.peak_log_bytes = self.peak_log_bytes.max(self.live_log_bytes);
    }

    /// Accounts log storage reclaimed by truncation.
    fn shrink_log(&mut self, freed: LogFootprint) {
        self.live_runs -= freed.runs;
        self.live_log_bytes -= freed.bytes;
        self.truncated_runs += freed.runs + freed.layers;
    }

    /// Frees one node's acquisition log and shadow bitset (saturation
    /// collapse, crash, rejoin).
    fn release(&mut self, log: &mut AcquisitionLog, shadow: &mut Vec<u64>) {
        self.shrink_log(log.truncate_all());
        self.shadow_words_live -= std::mem::take(shadow).len() as u64;
    }
}

/// One resolved merge obligation of a delivery phase: union `src`'s log
/// positions `start..upto` into `dst`'s rumor state.  Resolved serially
/// against the per-edge watermarks (in flight order), then executed in the
/// canonical order — ascending `dst`, flight order within one `dst` — by
/// [`Progress::merge_completions`].
#[derive(Debug, Clone, Copy)]
struct MergeTask {
    dst: u32,
    src: u32,
    start: u32,
    upto: u32,
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

/// What every merge shard reads and none writes.
struct MergeView<'a> {
    logs: &'a [AcquisitionLog],
    shadows: &'a [Vec<u64>],
    shadow_len: &'a [u32],
    collapsed: &'a [bool],
    graph: &'a Graph,
    alive: Option<&'a AliveView>,
    source_rumor: Option<RumorId>,
    tracked: Option<RumorId>,
    lb_bound: Option<Latency>,
    round: u64,
}

/// The destination range one merge shard owns: its tasks, and its slices of
/// the per-destination state, all starting at destination `base`.
struct MergeShard<'a> {
    tasks: &'a [MergeTask],
    base: usize,
    rumors: &'a mut [RumorSet],
    counts: &'a mut [usize],
    informed_times: Option<&'a mut [Option<u64>]>,
}

/// Phase A output of one merge shard: the batch of every destination that
/// learned at least one rumor, in its log form, plus the shard's counter
/// deltas.
#[derive(Default)]
struct MergeShardNew {
    /// `(destination, run count)` per batch, ascending by destination; a
    /// layer batch counts 0 runs.  (Eight bytes per changed destination: on
    /// a star every leaf changes in the same phase.)
    batches: Vec<(u32, u32)>,
    /// The runs of the run batches, flattened in batch order (per shard, not
    /// per batch, so a phase's allocation count is `O(shards)`).
    runs: Vec<RumorRun>,
    /// The layer batches, with their destinations.
    layers: Vec<(u32, DenseBatch)>,
    pages: PageTrace,
    full_nodes: usize,
    source_known_by: usize,
    lb_deficit_sub: u64,
}

/// Phase A of the sharded completion merge: unions each task's source prefix
/// into the destination's paged rumor set, collecting each destination's
/// newly learned rumors as maximal consecutive-id runs; folds them into the
/// termination counters; and encodes them as the batch the destination's
/// log will store.  A shard owns a contiguous destination range and its
/// tasks are already in canonical order, so the in-shard walk *is* the
/// canonical serial walk restricted to that range; everything else is only
/// read (logs included: encoding a batch reads the destination's log tail).
// gossip-lint: allow(panic-path): task indices are bounded by the shard partition invariants
fn merge_shard_phase_a(shard: MergeShard<'_>, view: &MergeView<'_>) -> MergeShardNew {
    let MergeShard {
        tasks,
        base,
        rumors,
        counts,
        mut informed_times,
    } = shard;
    // Sized once: grown by doubling beside `runs`, it raised the 2-worker
    // star's peak RSS by ~3 MB at an unchanged heap peak.
    let mut out = MergeShardNew {
        batches: Vec::with_capacity(tasks.chunk_by(|a, b| a.dst == b.dst).count()),
        ..MergeShardNew::default()
    };
    // One destination's new runs: id-adjacent runs from successive tasks
    // coalesce, which changes neither the batch's log form nor its counters.
    let mut batch: Vec<RumorRun> = Vec::new();
    for group in tasks.chunk_by(|a, b| a.dst == b.dst) {
        let dst = group[0].dst;
        let (di, li) = (dst as usize, dst as usize - base);
        let dst_set = &mut rumors[li];
        batch.clear();
        // Once the destination saturates, the remaining unions are
        // guaranteed no-ops, exactly like the serial engine's
        // `counts >= universe` skip at task time.
        for t in group {
            if dst_set.is_full() {
                break;
            }
            let si = t.src as usize;
            let pages_before = dst_set.page_footprint();
            if view.collapsed[si] {
                // Saturation-collapsed peer: every snapshot of it still in
                // flight was taken after it saturated (that is the collapse
                // precondition), so the prefix is the whole universe.
                debug_assert_eq!(t.upto as usize, dst_set.universe());
                dst_set.insert_all(&mut batch);
            } else {
                let frontier = view.shadow_len[si];
                if t.start < frontier {
                    // Invariant: a nonzero frontier implies a materialised
                    // shadow holding exactly the first `frontier` log entries.
                    dst_set.union_words_collect_new_runs(0, &view.shadows[si], &mut batch);
                }
                view.logs[si].for_each_chunk(t.start.max(frontier), t.upto, |chunk| match chunk {
                    LogChunk::Run(first, len) => dst_set.insert_run(first, len, &mut batch),
                    LogChunk::Words(word_lo, words) => {
                        dst_set.union_words_collect_new_runs(word_lo, words, &mut batch);
                    }
                });
            }
            out.pages.record(pages_before, dst_set.page_footprint());
        }
        if batch.is_empty() {
            continue;
        }
        for &(first, len) in &batch {
            counts[li] += len as usize;
            let run_contains =
                |r: RumorId| r.0 >= first.0 && u64::from(r.0) < u64::from(first.0) + u64::from(len);
            if view.source_rumor.is_some_and(run_contains) {
                out.source_known_by += 1;
            }
            if view.tracked.is_some_and(run_contains) {
                if let Some(informed) = informed_times.as_deref_mut() {
                    if informed[li].is_none() {
                        informed[li] = Some(view.round);
                    }
                }
            }
            if let Some(bound) = view.lb_bound {
                let nbrs = view.graph.neighbor_slice(NodeId::new(di));
                let node_count = view.graph.node_count();
                for j in first.index()..(first.index() + len as usize).min(node_count) {
                    if let Ok(pos) = nbrs.binary_search_by_key(&NodeId::new(j), |&(w, _)| w) {
                        let (w, e) = nbrs[pos];
                        // A `(dst, w)` pair is only outstanding — and was only
                        // counted — while `w` is alive and the edge un-cut
                        // (crash/cut events retire such pairs eagerly).
                        if view.graph.latency(e) <= bound
                            && view
                                .alive
                                .is_none_or(|a| a.is_node_alive(w) && a.is_edge_alive(e))
                        {
                            out.lb_deficit_sub += 1;
                        }
                    }
                }
            }
        }
        if counts[li] == dst_set.universe() {
            out.full_nodes += 1;
        }
        let count = match view.logs[di].encode_batch(&batch) {
            EncodedBatch::Runs(runs) => {
                out.runs.extend_from_slice(runs);
                runs.len() as u32
            }
            EncodedBatch::Layer(layer) => {
                out.layers.push((dst, layer));
                0
            }
        };
        out.batches.push((dst, count));
    }
    out
}

/// Phase B of the sharded completion merge: appends each phase-A batch to
/// its destination's log and returns the storage added.  The shard's `logs`
/// slice starts at destination `base`.
fn merge_shard_phase_b(
    new: MergeShardNew,
    base: usize,
    logs: &mut [AcquisitionLog],
) -> LogFootprint {
    let mut appended = LogFootprint::default();
    let mut runs = new.runs.as_slice();
    // One batch per destination, so the order of appends across logs is free.
    for (dst, count) in new.batches.into_iter().filter(|&(_, count)| count > 0) {
        let (batch, rest) = runs.split_at(count as usize);
        runs = rest;
        if let Some(log) = logs.get_mut(dst as usize - base) {
            appended += log.append(EncodedBatch::Runs(batch));
        }
    }
    for (dst, layer) in new.layers {
        if let Some(log) = logs.get_mut(dst as usize - base) {
            appended += log.append(EncodedBatch::Layer(layer));
        }
    }
    appended
}

/// Cuts `tasks` (sorted by destination) into at most `max_shards` contiguous
/// ranges of roughly equal length whose destination sets are disjoint — a
/// cut never splits one destination's task group, so every destination's
/// state is owned by exactly one shard.  Returns each shard's task count and
/// the destination range it owns; the ranges tile `0..n`.
///
/// The cut positions depend on `max_shards` (i.e. on the thread count), but
/// never the results: phase outputs are reduced in shard order, and
/// concatenating per-shard walks of a sorted task list in shard order is the
/// canonical serial walk regardless of where the cuts fall.
// gossip-lint: allow(panic-path): hi is only indexed while strictly below tasks.len(), and hi >= 1 inside the loop
fn partition_tasks(tasks: &[MergeTask], max_shards: usize, n: usize) -> Vec<(usize, Range<usize>)> {
    let mut shards = Vec::with_capacity(max_shards);
    let target = tasks.len().div_ceil(max_shards.max(1));
    let (mut lo, mut dst_lo) = (0usize, 0usize);
    while lo < tasks.len() {
        let mut hi = (lo + target).min(tasks.len());
        while hi < tasks.len() && tasks[hi].dst == tasks[hi - 1].dst {
            hi += 1;
        }
        let dst_hi = if hi < tasks.len() {
            tasks[hi].dst as usize
        } else {
            n
        };
        shards.push((hi - lo, dst_lo..dst_hi));
        (lo, dst_lo) = (hi, dst_hi);
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

/// Incrementally maintained dissemination state: interval-compressed
/// acquisition logs, delayed bitset shadows, plus the counters that make
/// every termination check `O(1)`.
struct Progress<'g> {
    graph: &'g Graph,
    /// Per-node acquisition log: every rumor the node knows, one batch per
    /// delivery phase in learn order, each batch stored as interval runs or
    /// one dense layer (whichever is cheaper), truncated behind the shadow
    /// frontier.
    logs: Vec<AcquisitionLog>,
    /// Per-node delayed shadow: the bitset of the node's first
    /// `shadow_len[i]` log entries.  Lazily materialised (empty = none, which
    /// implies `shadow_len[i] == 0`).
    shadows: Vec<Vec<u64>>,
    /// Per-node shadow frontier, as an absolute log position.  Invariant:
    /// every snapshot still in flight from node `i` covers at least this
    /// prefix, so log entries below it are never read again.
    shadow_len: Vec<u32>,
    /// Per-node saturation-collapse flag: the node's rumor set is full, every
    /// possibly-outstanding snapshot of it covers the whole universe, and its
    /// log and shadow have been freed.  Merges from such a node short-circuit
    /// to an `O(pages)` "peer is saturated" union.
    collapsed: Vec<bool>,
    /// `logs[i].len()`, cached as a plain counter (== rumor-set size).
    counts: Vec<usize>,
    /// Number of nodes whose rumor set is full.
    full_nodes: usize,
    /// Rumor whose spread decides [`Termination::AllKnowRumorOf`], if any.
    source_rumor: Option<RumorId>,
    /// Number of nodes that know `source_rumor`.
    source_known_by: usize,
    /// Latency bound of [`Termination::LocalBroadcast`], if any.
    lb_bound: Option<Latency>,
    /// Outstanding `(node, fast neighbor)` pairs for local broadcast.
    lb_deficit: u64,
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
    /// [`SimConfig::shadow_compaction`]'s materialisation threshold, in
    /// reclaimable log bytes.
    min_truncate_bytes: u64,
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
        let source_rumor = match config.termination {
            Termination::AllKnowRumorOf(source) => Some(RumorId::of_node(source)),
            _ => None,
        };
        let lb_bound = match config.termination {
            Termination::LocalBroadcast(bound) => Some(bound),
            _ => None,
        };
        let logs: Vec<AcquisitionLog> = rumors.iter().map(AcquisitionLog::from_set).collect();
        let mut mem = MemCounters::default();
        for set in rumors {
            mem.pages
                .record(PageFootprint::default(), set.page_footprint());
        }
        for log in &logs {
            mem.grow_log(log.footprint());
        }
        mem.note_log_peak();
        let n = rumors.len();
        let mut progress = Progress {
            graph,
            logs,
            shadows: vec![Vec::new(); n],
            shadow_len: vec![0; n],
            collapsed: vec![false; n],
            counts: rumors.iter().map(RumorSet::len).collect(),
            full_nodes: rumors.iter().filter(|s| s.is_full()).count(),
            source_rumor,
            source_known_by: source_rumor
                .map_or(0, |r| rumors.iter().filter(|s| s.contains(r)).count()),
            lb_bound,
            lb_deficit: 0,
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
            min_truncate_bytes: 8 * config.shadow_min_truncate_runs as u64,
            mem,
        };
        if lb_bound.is_some() {
            progress.lb_deficit = graph
                .edge_ids()
                .map(|e| progress.lb_missing(rumors, e))
                .sum();
        }
        // Nodes that start fully saturated (trivial universes, pre-seeded
        // states) have no outstanding snapshots at all: collapse immediately.
        for (i, set) in rumors.iter().enumerate() {
            if set.is_full() {
                progress.collapse_node(i);
            }
        }
        progress
    }

    /// Executes a delivery phase's resolved merge tasks in the **canonical
    /// merge order** — ascending destination, flight order within one
    /// destination — sharded by destination across `threads` workers on the
    /// vendored rayon pool.  Pushes every destination that learned at least
    /// one rumor onto `changed`, ascending.
    ///
    /// Each task unions `src`'s log prefix `start..upto` into `dst`.  The
    /// prefix is served from three sources: a saturation-collapsed `src` is
    /// unioned as "the full universe" in `O(dst pages)` (its log and shadow
    /// are long gone — every outstanding snapshot of it covers everything,
    /// so the complement of what `dst` knows *is* the delta); otherwise
    /// positions below `src`'s shadow frontier come from the shadow bitset
    /// (one word-OR sweep) and the retained tail is replayed run by run and
    /// dense layer by dense layer (a word-OR sweep over its window).
    ///
    /// The merge runs in two phases.  Phase A unions, per destination, all
    /// its tasks into its rumor set, collecting the new runs in one buffer;
    /// folds them into the termination counters; and encodes them as one
    /// batch in the form the destination's log stores
    /// ([`AcquisitionLog::encode_batch`]): its runs, or one dense layer.
    /// The runs-or-layer choice thus sees the whole phase's acquisitions and
    /// depends on neither the shard cuts nor the thread count.  Phase B only
    /// moves each batch into its log ([`AcquisitionLog::append`]).  So the
    /// transient state between the phases is what the logs are about to
    /// hold, not every raw run of the phase: on expander all-to-all, most
    /// runs end up in dense layers a fraction of their size.
    ///
    /// # Why sharding cannot change the result
    ///
    /// * **Reordering to canonical order is sound.**  Within one phase,
    ///   merges into *different* destinations touch disjoint rumor state,
    ///   and a destination's tasks keep their flight order (the sort is
    ///   stable).  Snapshots are taken only on round boundaries, after the
    ///   phase has fully landed, so no in-phase interleaving is observable.
    ///   (The per-merge insertion order is unobservable for exactly this
    ///   reason — shadow and saturated-peer unions yield ascending rumor
    ///   ids, not learn order; `engine_equivalence` pins the final sets.)
    /// * **Shard cuts fall only between destinations** ([`partition_tasks`]),
    ///   so phase A mutates disjoint `rumors`/`counts`/`informed_times`
    ///   slices and phase B disjoint `logs` slices; everything else is read
    ///   shared.  No shard ever observes another's writes.
    /// * **Reductions replay the serial walk.**  Counter deltas are summed
    ///   in shard order; the rumor-set page peaks use the [`PageTrace`]
    ///   composition law; the log peaks need only the phase totals (retained
    ///   runs and bytes are monotone non-decreasing within a phase).  All are
    ///   independent of the cut positions, hence of the thread count.
    ///
    /// The two phases are separated by a barrier: phase B appends to
    /// `logs[dst]` while phase A *reads* `logs[src]` (and `logs[dst]`'s tail,
    /// to encode), and any `src` may be another shard's `dst`.
    fn merge_completions(
        &mut self,
        rumors: &mut [RumorSet],
        tasks: &mut [MergeTask],
        round: u64,
        alive: Option<&AliveView>,
        threads: usize,
        changed: &mut Vec<u32>,
    ) {
        if tasks.is_empty() {
            return;
        }
        // Stable: tasks into one destination keep their flight order.
        tasks.sort_by_key(|t| t.dst);
        let shard_count = if threads <= 1 || tasks.len() < MIN_PAR_TASKS {
            1
        } else {
            threads
        };
        // The shard bounds, computed once: both phases split their
        // per-destination slices along the same destination ranges.
        let shards = partition_tasks(tasks, shard_count, rumors.len());
        let dst_lens = || shards.iter().map(|(_, dsts)| dsts.len());
        let shard_tasks: Vec<(&[MergeTask], usize)> =
            split_lens(tasks, shards.iter().map(|&(count, _)| count))
                .into_iter()
                .zip(&shards)
                .map(|(tasks, (_, dsts))| (&*tasks, dsts.start))
                .collect();

        let Progress {
            graph,
            logs,
            shadows,
            shadow_len,
            collapsed,
            counts,
            full_nodes,
            source_rumor,
            source_known_by,
            lb_bound,
            lb_deficit,
            tracked,
            informed_times,
            mem,
            ..
        } = self;

        // Phase A: union prefixes into the destinations' paged rumor sets,
        // fold the counters and encode each destination's batch.
        let shard_batches: Vec<MergeShardNew> = {
            let view = MergeView {
                logs,
                shadows,
                shadow_len,
                collapsed,
                graph,
                alive,
                source_rumor: *source_rumor,
                tracked: *tracked,
                lb_bound: *lb_bound,
                round,
            };
            let mut informed = tracked
                .is_some()
                .then(|| split_lens(informed_times, dst_lens()).into_iter());
            let jobs: Vec<MergeShard<'_>> = shard_tasks
                .iter()
                .zip(split_lens(rumors, dst_lens()))
                .zip(split_lens(counts, dst_lens()))
                .map(|((&(tasks, base), rumors), counts)| MergeShard {
                    tasks,
                    base,
                    rumors,
                    counts,
                    informed_times: informed.as_mut().and_then(Iterator::next),
                })
                .collect();
            run_jobs(threads, jobs, |shard| merge_shard_phase_a(shard, &view))
        };

        // Deterministic reduction, in shard order.
        for new in &shard_batches {
            mem.pages = mem.pages.then(new.pages);
            *full_nodes += new.full_nodes;
            *source_known_by += new.source_known_by;
            *lb_deficit -= new.lb_deficit_sub;
            changed.extend(new.batches.iter().map(|&(dst, _)| dst));
        }

        // Phase B: move the batches into the destinations' logs.
        let jobs: Vec<_> = shard_batches
            .into_iter()
            .zip(&shard_tasks)
            .zip(split_lens(logs, dst_lens()))
            .collect();
        for appended in run_jobs(threads, jobs, |((new, &(_, base)), logs)| {
            merge_shard_phase_b(new, base, logs)
        }) {
            mem.grow_log(appended);
        }
        // Log storage only grows within a delivery phase, so the phase-end
        // value is its in-phase peak.
        mem.note_log_peak();
    }

    /// Advances `node`'s shadow frontier to log position `target` (its rumor
    /// count as of `ring_len` rounds ago — at or behind every snapshot that
    /// can still be in flight), then truncates the log behind the frontier.
    ///
    /// The shadow bitset is materialised lazily: until at least
    /// [`min_truncate_bytes`](Self::min_truncate_bytes) of whole runs and
    /// layers would be reclaimed, advancing is skipped entirely — the
    /// retained log *is* the prefix, and stays small.
    ///
    /// Saturated nodes take the **collapse** path instead: once the queued
    /// target reaches the full universe — i.e. one whole calendar lap has
    /// passed since the node's set went full, so every snapshot of it still
    /// in flight covers everything — the node's shadow is freed, its log
    /// truncated entirely, and the node marked collapsed: all future merges
    /// from it short-circuit.  While a saturated node waits for that lap,
    /// ordinary advances are skipped (no point materialising a shadow the
    /// collapse is about to free).  Returns whether this advance collapsed
    /// the node, which is a wake event.
    // gossip-lint: allow(panic-path): shadow ring buckets and node indices are bounded by the ring/CSR invariants
    fn advance_shadow(&mut self, rumors: &[RumorSet], node: usize, target: u32) -> bool {
        if self.collapsed[node] {
            return false;
        }
        if self.counts[node] >= rumors[node].universe() {
            let lap_done = target as usize == rumors[node].universe();
            if lap_done {
                self.collapse_node(node);
            }
            return lap_done;
        }
        let current = self.shadow_len[node];
        if target <= current {
            return false;
        }
        if self.shadows[node].is_empty() {
            if self.logs[node].bytes_entirely_below(target) < self.min_truncate_bytes {
                return false;
            }
            let words = vec![0u64; rumors[node].word_count()];
            self.mem.shadow_words_live += words.len() as u64;
            self.mem.shadow_words_peak = self.mem.shadow_words_peak.max(self.mem.shadow_words_live);
            self.shadows[node] = words;
        }
        let shadow = &mut self.shadows[node];
        self.logs[node].for_each_chunk(current, target, |chunk| match chunk {
            LogChunk::Run(first, len) => {
                rumor::set_words_range(shadow, first.index(), len as usize);
            }
            LogChunk::Words(word_lo, words) => rumor::or_words(shadow, word_lo, words),
        });
        self.shadow_len[node] = target;
        self.mem.shrink_log(self.logs[node].truncate_below(target));
        self.mem.shadow_advances += 1;
        false
    }

    /// Saturation collapse of `node`: frees its shadow, truncates its entire
    /// log (releasing the storage), and marks it collapsed so merges from it
    /// serve "the full universe" in `O(dst pages)`.
    ///
    /// Sound only when every possibly-outstanding snapshot of the node
    /// covers the whole universe — the callers guarantee it (one calendar
    /// lap after saturation, or at initialisation when nothing is in
    /// flight).  Its rumor set needs no action: [`RumorSet`] collapsed it to
    /// the canonical page-free full representation the moment it saturated.
    // gossip-lint: allow(panic-path): per-node vecs are sized n at construction; node ids are dense
    fn collapse_node(&mut self, node: usize) {
        debug_assert!(!self.collapsed[node]);
        self.mem
            .release(&mut self.logs[node], &mut self.shadows[node]);
        self.shadow_len[node] = self.logs[node].len();
        self.collapsed[node] = true;
        self.mem.collapsed_nodes += 1;
    }

    /// Retires a crashing node from every termination counter, freezes its
    /// rumor state, and frees its log/shadow storage (a dead node is never
    /// merged from again: every flight touching it is cancelled and no new
    /// ones form).  Must be called with the *post-kill* alive view, exactly
    /// once per effective crash.
    // gossip-lint: allow(panic-path): per-node vecs are sized n at construction; node ids are dense
    fn crash_node(&mut self, rumors: &[RumorSet], node: NodeId, alive: &AliveView) {
        let i = node.index();
        if self.counts[i] >= rumors[i].universe() {
            self.full_nodes -= 1;
        }
        if let Some(r) = self.source_rumor {
            if rumors[i].contains(r) {
                self.source_known_by -= 1;
            }
        }
        // Pairs incident to the dead node leave the local-broadcast
        // obligation.  Only pairs whose *other* endpoint is alive over an
        // un-cut edge were still counted.
        for (w, e) in self.graph.neighbors(node) {
            if alive.is_node_alive(w) && alive.is_edge_alive(e) {
                self.lb_deficit -= self.lb_missing(rumors, e);
            }
        }
        if !self.collapsed[i] {
            self.mem.release(&mut self.logs[i], &mut self.shadows[i]);
            self.shadow_len[i] = self.logs[i].len();
        }
        if let Some(pos) = self
            .pending_recovery
            .iter()
            .position(|&(v, _)| v as usize == i)
        {
            // Crashed again before recovering: it never recovers from *this*
            // rejoin (a future rejoin starts a fresh recovery clock).
            self.pending_recovery.swap_remove(pos);
        }
    }

    /// Amnesiac rejoin: resets the node to its `seeding` initial rumor set
    /// (fresh log, no shadow, not collapsed), re-enters it into every
    /// termination counter, and starts its re-dissemination recovery clock.
    /// Must be called with the *post-revive* alive view.
    // gossip-lint: allow(panic-path): per-node vecs are sized n at construction; node ids are dense
    fn rejoin_node(
        &mut self,
        rumors: &mut [RumorSet],
        node: NodeId,
        round: u64,
        alive: &AliveView,
        seeding: Seeding,
    ) {
        let i = node.index();
        let universe = rumors[i].universe();
        let pages_before = rumors[i].page_footprint();
        rumors[i] = seeding.initial_set(universe, node);
        self.mem
            .pages
            .record(pages_before, rumors[i].page_footprint());
        if !self.collapsed[i] {
            self.mem.release(&mut self.logs[i], &mut self.shadows[i]);
        }
        self.logs[i] = AcquisitionLog::from_set(&rumors[i]);
        self.mem.grow_log(self.logs[i].footprint());
        self.mem.note_log_peak();
        self.shadow_len[i] = 0;
        self.collapsed[i] = false;
        self.counts[i] = rumors[i].len();
        if self.counts[i] >= universe {
            self.full_nodes += 1;
        }
        if let Some(r) = self.source_rumor {
            if rumors[i].contains(r) {
                self.source_known_by += 1;
            }
        }
        if let Some(r) = self.tracked {
            if rumors[i].contains(r) && self.informed_times[i].is_none() {
                self.informed_times[i] = Some(round);
            }
        }
        // The rejoined node re-enters the local-broadcast obligation in both
        // directions of every usable incident edge: it forgot its neighbors'
        // rumors, and its neighbors still hold its (identical) rumor or not —
        // re-count from the actual sets.
        for (w, e) in self.graph.neighbors(node) {
            if alive.is_node_alive(w) && alive.is_edge_alive(e) {
                self.lb_deficit += self.lb_missing(rumors, e);
            }
        }
        if self.recovered(&rumors[i]) {
            self.note_recovery(0);
        } else {
            self.pending_recovery.push((i as u32, round));
        }
    }

    /// The local-broadcast pairs edge `e` still owes: one per endpoint that
    /// misses the other's rumor, when `e` is within the local-broadcast
    /// bound (and 0 otherwise, or under any other termination).  Callers
    /// apply their own alive filtering.
    // gossip-lint: allow(panic-path): edge endpoints are node ids < n, and rumors is sized n
    fn lb_missing(&self, rumors: &[RumorSet], e: EdgeId) -> u64 {
        if self
            .lb_bound
            .is_none_or(|bound| self.graph.latency(e) > bound)
        {
            return 0;
        }
        let rec = self.graph.edge(e);
        let misses =
            |a: NodeId, b: NodeId| u64::from(!rumors[a.index()].contains(RumorId::of_node(b)));
        misses(rec.u, rec.v) + misses(rec.v, rec.u)
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
    /// * discovered latencies, pending-exchange counts (Blocking mode) and
    ///   activation counters are likewise reset.
    ///
    /// Protocol state is owned by the caller and is *not* reset; reuse the
    /// same protocol value to continue its program, or pass a fresh one.
    ///
    /// # Determinism and parallelism
    ///
    /// Each node's per-round RNG stream is derived independently from
    /// `(seed, round, node)` (see [`decision_rng`]), a decision writes only
    /// its own node's [`Protocol::Node`] state, and the completion-merge
    /// pass always executes in canonical order — ascending destination node,
    /// flight order within a destination.  Both passes fan out across
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
            st.advance_shadows(round);
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
    /// Per-node fault epoch: queued shadow advances carry the epoch at queue
    /// time, and a crash or rejoin bumps it — stale entries (whose log
    /// positions refer to a freed or reset log) are dropped on pop.
    epoch: Vec<u32>,
}

/// Everything one run mutates, for the length of its round loop.  Each
/// phase of a round is one method, called by [`Simulation::run`].
struct RoundState<'a> {
    graph: &'a Graph,
    config: &'a SimConfig,
    rumors: &'a mut [RumorSet],
    progress: Progress<'a>,
    calendar: Calendar,
    /// Per-edge merge watermarks: how much of `v`'s log `u` has already
    /// merged over this edge (`[0]`) and vice versa (`[1]`).
    watermarks: Vec<[u32; 2]>,
    discovered: DiscoveredLatencies,
    /// Per-node count of initiated exchanges still in flight.
    pending_own: Vec<usize>,
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
            calendar: Calendar {
                buckets: (0..=graph.max_latency())
                    .map(|_| Bucket::default())
                    .collect(),
                in_flight: 0,
            },
            watermarks: vec![[0, 0]; graph.edge_count()],
            discovered: DiscoveredLatencies::new(graph.edge_count()),
            pending_own: vec![0; n],
            sched: Scheduler::new(n),
            faults: config.faults.as_ref().map(|plan| FaultState {
                events: plan.events(),
                cursor: 0,
                tally: FaultTally::default(),
                loss: plan.loss_stream(),
                alive: AliveView::new(graph),
                seeding,
                epoch: vec![0; n],
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
            discovered: &self.discovered,
            pending_own: &self.pending_own,
            config: self.config,
            round,
        }
    }

    /// Node `node`'s fault epoch (always 0 without a fault plan).
    fn epoch(&self, node: u32) -> u32 {
        self.faults
            .as_ref()
            .and_then(|f| f.epoch.get(node as usize))
            .copied()
            .unwrap_or(0)
    }

    /// Phase 1: applies the fault events scheduled up to `round` — *before*
    /// shadow advances and deliveries, so an exchange completing this very
    /// round but incident to a node that crashes now (or riding an edge cut
    /// now) is cancelled, never delivered; a crash therefore can never
    /// double-adjust a counter a delivery already touched.  An event that
    /// changes nothing (crashing a dead node, reviving a live one, cutting a
    /// cut edge) is an uncounted no-op.
    // gossip-lint: allow(panic-path): node and edge ids come from the graph's own CSR bounds; per-node and per-edge vecs are sized n and m at construction
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
                    self.pending_own[v.index()] = 0;
                    self.progress.crash_node(self.rumors, v, &faults.alive);
                    faults.epoch[v.index()] = faults.epoch[v.index()].wrapping_add(1);
                    self.sched.state[v.index()] = NodeState::Quiescent;
                    let neighbors = self.graph.neighbors(v).map(|(w, _)| w);
                    self.sched.wake_survivors(&faults.alive, neighbors);
                }
                FaultEvent::Rejoin(v) => {
                    if !faults.alive.revive_node(self.graph, v) {
                        continue;
                    }
                    faults.tally.rejoins += 1;
                    // Amnesiac restart: zero *both* directions of every
                    // incident watermark (the peer's stale high-water mark
                    // would otherwise skip the fresh log's prefix, and v must
                    // re-merge everything), and v forgets its discovered
                    // latencies.
                    for (_, e) in self.graph.neighbors(v) {
                        self.watermarks[e.index()] = [0, 0];
                        self.discovered.set(e, self.graph.edge(e).v == v, false);
                    }
                    self.progress
                        .rejoin_node(self.rumors, v, round, &faults.alive, faults.seeding);
                    faults.epoch[v.index()] = faults.epoch[v.index()].wrapping_add(1);
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
                    // The cut edge's local-broadcast pairs retire with it,
                    // unless a crash already retired them.
                    let rec = self.graph.edge(e);
                    if faults.alive.is_node_alive(rec.u) && faults.alive.is_node_alive(rec.v) {
                        self.progress.lb_deficit -= self.progress.lb_missing(self.rumors, e);
                    }
                    self.sched.wake_survivors(&faults.alive, [rec.u, rec.v]);
                }
            }
        }
        self.faults = Some(faults);
    }

    /// Cancels every in-flight exchange `doomed` selects.  A surviving
    /// initiator gets its slot back, which is a wake event.
    // gossip-lint: allow(panic-path): initiators are node ids < n, and pending_own is sized n
    fn cancel_flights(&mut self, faults: &mut FaultState<'_>, doomed: impl Fn(&Flight) -> bool) {
        for bucket in &mut self.calendar.buckets {
            bucket.flights.retain(|fl| {
                if !doomed(fl) {
                    return true;
                }
                faults.tally.cancelled += 1;
                self.calendar.in_flight -= 1;
                if faults.alive.is_node_alive(fl.initiator) {
                    let i = fl.initiator.index();
                    self.pending_own[i] = self.pending_own[i].saturating_sub(1);
                    self.sched.force_wake(i);
                }
                false
            });
        }
    }

    /// Phase 2: advances the shadow frontiers queued one lap ago and
    /// truncates the logs behind them.  A finished saturation-collapse lap
    /// is a wake event (see [`Activity::IdleUntilWoken`]).
    fn advance_shadows(&mut self, round: u64) {
        let mut advances = std::mem::take(&mut self.calendar.bucket(round).advances);
        for (node, target, epoch) in advances.drain(..) {
            // A stale epoch means the node crashed or rejoined since this
            // advance was queued: the target refers to a freed or reset log.
            if epoch == self.epoch(node)
                && self
                    .progress
                    .advance_shadow(self.rumors, node as usize, target)
            {
                self.sched.wake(node as usize);
            }
        }
        self.calendar.bucket(round).advances = advances; // keep the bucket's capacity
    }

    /// Phase 3: delivers the exchanges completing at `round`.  A serial
    /// prologue, in flight order, frees initiator slots, tallies losses and
    /// resolves the per-edge watermarks into merge tasks; the merges run in
    /// canonical order whatever the thread count; each changed destination
    /// queues its shadow advance and settles a pending rejoin recovery; last,
    /// both endpoints of every delivered exchange get `on_exchange`.
    // gossip-lint: allow(panic-path): node and edge ids come from the graph's own CSR bounds; per-node and per-edge vecs are sized n and m at construction
    fn deliver<P: Protocol>(&mut self, protocol: &mut P, round: u64) {
        let mut completions = std::mem::take(&mut self.calendar.bucket(round).flights);
        self.calendar.in_flight -= completions.len();
        for fl in &completions {
            let ii = fl.initiator.index();
            self.pending_own[ii] = self.pending_own[ii].saturating_sub(1);
            if fl.lost {
                // Timed out in transit: the initiator's slot frees up (a
                // wake event) but nothing is delivered — no merge, no
                // latency discovery, no `on_exchange`.
                if let Some(faults) = &mut self.faults {
                    faults.tally.lost += 1;
                }
                self.sched.force_wake(ii);
                continue;
            }
            // Both endpoints merge the peer's log prefix as of initiation,
            // minus what already crossed this edge.
            let rec = self.graph.edge(fl.edge);
            let [toward_u, toward_v] = &mut self.watermarks[fl.edge.index()];
            let (toward_initiator, toward_responder) = if fl.initiator == rec.u {
                (toward_u, toward_v)
            } else {
                (toward_v, toward_u)
            };
            for (dst, src, upto, mark) in [
                (
                    fl.initiator,
                    fl.responder,
                    fl.responder_known,
                    toward_initiator,
                ),
                (
                    fl.responder,
                    fl.initiator,
                    fl.initiator_known,
                    toward_responder,
                ),
            ] {
                let start = (*mark).min(upto);
                *mark = (*mark).max(upto);
                if start < upto
                    && self.progress.counts[dst.index()] < self.rumors[dst.index()].universe()
                {
                    self.merge_tasks.push(MergeTask {
                        dst: dst.index() as u32,
                        src: src.index() as u32,
                        start,
                        upto,
                    });
                }
            }
            self.discovered.set(fl.edge, fl.initiator == rec.v, true);
            self.discovered.set(fl.edge, fl.responder == rec.v, true);
        }

        self.changed_dsts.clear();
        self.progress.merge_completions(
            self.rumors,
            &mut self.merge_tasks,
            round,
            self.faults.as_ref().map(|f| &f.alive),
            self.config.threads,
            &mut self.changed_dsts,
        );
        self.merge_tasks.clear();
        for &node in &self.changed_dsts {
            let advance = (
                node,
                self.progress.counts[node as usize] as u32,
                self.epoch(node),
            );
            self.calendar.bucket(round).advances.push(advance);
            self.progress
                .check_recovery(node, &self.rumors[node as usize], round);
        }

        for fl in completions.drain(..).filter(|fl| !fl.lost) {
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
                // may have merged new rumors, its `on_exchange` state
                // changed, and (Blocking mode) `can_initiate` may have
                // flipped.
                self.sched.wake(node.index());
            }
        }
        self.calendar.bucket(round).flights = completions; // keep the bucket's capacity
    }

    /// Phase 4: evaluates the termination condition at the round boundary
    /// `round`.  Under faults, dissemination conditions quantify over
    /// *alive* nodes only (counters never count dead nodes); with no node
    /// alive they hold vacuously.  `Quiescent` asks every alive node's
    /// [`Protocol::activity`] through the same views the decision pass
    /// builds.
    fn is_done<P: Protocol>(&self, protocol: &mut P, round: u64) -> bool {
        let ctx = self.ctx(round);
        let n_alive = ctx.alive.map_or(self.rumors.len(), AliveView::alive_count);
        let progress = &self.progress;
        match self.config.termination {
            Termination::AllKnowRumorOf(_) => progress.source_known_by == n_alive,
            Termination::AllKnowAll => progress.full_nodes == n_alive,
            Termination::LocalBroadcast(_) => progress.lb_deficit == 0,
            Termination::FixedRounds(target) => round >= target,
            Termination::Quiescent => {
                let (shared, states) = protocol.split(self.graph.node_count());
                self.calendar.in_flight == 0
                    && self.graph.nodes().zip(states.iter()).all(|(v, state)| {
                        ctx.is_dead(v)
                            || P::activity(shared, state, &ctx.view(v)) == Activity::Quiescent
                    })
            }
        }
    }

    /// Phase 6: lets every *active* node act.  The decision pass records one
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
            // Unchanged since the decision pass: only `i`'s own epilogue
            // step can bump `pending_own[i]`, and each node appears in the
            // worklist once.
            if self.config.mode == ExchangeMode::Blocking && self.pending_own[i] > 0 {
                continue;
            }
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
            self.pending_own[i] += 1;
            let flight = Flight {
                initiator: node,
                responder: target,
                edge,
                initiator_known: self.progress.counts[i] as u32,
                responder_known: self.progress.counts[target.index()] as u32,
                // Drawn exactly once per *accepted* initiation, from the
                // dedicated loss stream (never the protocol RNG).
                lost: self
                    .faults
                    .as_mut()
                    .is_some_and(|f| fault::draw_loss(&mut f.loss)),
            };
            let completes_at = round + self.graph.latency(edge);
            self.calendar.bucket(completes_at).flights.push(flight);
            self.calendar.in_flight += 1;
        }
        std::mem::swap(&mut self.sched.worklist, &mut self.sched.spare);
        self.decides = decides;
    }

    /// Phase 7: advances the round clock, returning the next round to
    /// simulate.  With an empty worklist no node can act until the next
    /// calendar event, and rounds without events are no-ops (no deliveries,
    /// no shadow laps, no decisions) — so the clock fast-forwards straight
    /// past them instead of spinning, stopping early at a `FixedRounds`
    /// target or the `max_rounds` cap, both of which are evaluated on the
    /// round counter itself.
    ///
    /// One caveat: this round's decision phase ran after this round's
    /// termination check, and for [`Termination::Quiescent`] a final
    /// `on_round` call may have turned the last node's `activity` to
    /// `Quiescent` — state the check could not see but that the oracle
    /// observes at the next round's boundary.  Nothing can change *during* a
    /// gap (no protocol calls, frozen counters), so one re-check at
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
        let peak_log_bytes = progress.mem.peak_log_bytes;
        let shadow_bytes = progress.mem.shadow_words_peak * 8;
        let watermark_bytes = self.watermarks.len() as u64 * 8;
        let discovery_bytes = self.discovered.bits.len() as u64 * 8;
        let mem = MemStats {
            peak_log_runs: progress.mem.peak_runs,
            peak_log_bytes,
            dense_batches: progress.mem.dense_batches,
            live_log_runs: progress.mem.live_runs,
            truncated_runs: progress.mem.truncated_runs,
            shadow_advances: progress.mem.shadow_advances,
            shadow_bytes,
            rumor_set_bytes,
            pages_live: pages.dense.delta as u64,
            pages_peak: pages.dense.max_prefix as u64,
            saturated_nodes: progress.full_nodes as u64,
            collapsed_nodes: progress.mem.collapsed_nodes,
            peak_engine_bytes: rumor_set_bytes
                + shadow_bytes
                + peak_log_bytes
                + watermark_bytes
                + discovery_bytes,
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
            min_rumors_known: progress.counts.iter().copied().min().unwrap_or(0),
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
    fn blocking_mode_throttles_initiations() {
        // A protocol that never goes quiet, so the measured contrast is the
        // exchange *mode* alone (the bundled flood now idles between laps).
        struct Chatty;
        impl Protocol for Chatty {
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
                view.can_initiate.then(|| view.neighbors[0].0)
            }
        }
        let g = generators::clique(6, 5).unwrap();
        let blocking = SimConfig::new(9)
            .mode(ExchangeMode::Blocking)
            .termination(Termination::FixedRounds(50));
        let nonblocking = SimConfig::new(9).termination(Termination::FixedRounds(50));
        let b = Simulation::new(&g, blocking).run(&mut Chatty);
        let nb = Simulation::new(&g, nonblocking).run(&mut Chatty);
        // With latency-5 edges a blocking node can start at most 1 exchange
        // per 5 rounds; non-blocking can start one every round.
        assert!(b.activations * 3 < nb.activations);
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

    #[test]
    fn shadow_compaction_does_not_change_results_and_reports_memory() {
        // The delayed-shadow machinery is a pure memory optimisation: forcing
        // it on (threshold 0) must leave every semantic field untouched.
        let g = generators::clique(12, 3).unwrap();
        let run = |cfg: SimConfig| Simulation::new(&g, cfg).run(&mut RandomPushPull::new(&g));
        let base = run(SimConfig::new(11).termination(Termination::FixedRounds(40)));
        let forced = run(SimConfig::new(11)
            .termination(Termination::FixedRounds(40))
            .shadow_compaction(0));
        assert_eq!(base.semantics(), forced.semantics());

        let forced_mem = forced.mem.unwrap();
        assert!(forced_mem.shadow_advances > 0, "threshold 0 must advance");
        assert!(forced_mem.truncated_runs > 0, "advancing must truncate");
        assert!(forced_mem.shadow_bytes > 0);
        assert!(forced_mem.peak_engine_bytes >= forced_mem.rumor_set_bytes);

        let lazy_mem = base.mem.unwrap();
        assert_eq!(
            lazy_mem.shadow_advances, 0,
            "12-entry logs never reach the 64-run materialisation threshold"
        );
        assert_eq!(lazy_mem.shadow_bytes, 0);
        assert!(lazy_mem.peak_log_runs > 0);
    }

    #[test]
    fn latency_discovery_through_exchanges() {
        // A protocol can see an incident latency only after using the edge.
        /// Node 0 records, per round, what it knows of its first edge.
        struct Probe {
            learned: Vec<Vec<Option<Latency>>>,
        }
        impl Protocol for Probe {
            type Shared = ();
            type Node = Vec<Option<Latency>>;
            fn name(&self) -> &'static str {
                "probe"
            }
            fn split(&mut self, _: usize) -> (&(), &mut [Vec<Option<Latency>>]) {
                (&(), &mut self.learned)
            }
            fn on_round(
                _: &(),
                learned: &mut Vec<Option<Latency>>,
                view: &NodeView<'_>,
                _: &mut SmallRng,
            ) -> Option<NodeId> {
                if view.node.index() == 0 {
                    let (nbr, edge) = view.neighbors[0];
                    learned.push(view.known_latency(edge));
                    return Some(nbr);
                }
                None
            }
        }
        let g = generators::path(2, 7).unwrap();
        let config = SimConfig::new(1).termination(Termination::FixedRounds(10));
        let mut p = Probe {
            learned: vec![Vec::new(); 2],
        };
        let _ = Simulation::new(&g, config).run(&mut p);
        // Round 0: unknown; after the first exchange completes (round 7) it is known.
        assert_eq!(p.learned[0].len(), 10);
        assert_eq!(p.learned[0][0], None);
        assert_eq!(p.learned[0][9], Some(7));
    }

    #[test]
    fn known_latency_mode_reveals_latencies_immediately() {
        struct Check;
        impl Protocol for Check {
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
                let (_, edge) = view.neighbors[0];
                assert_eq!(view.known_latency(edge), Some(7));
                None
            }
        }
        let g = generators::path(2, 7).unwrap();
        let config = SimConfig::new(1)
            .latencies_known(true)
            .termination(Termination::FixedRounds(2));
        let _ = Simulation::new(&g, config).run(&mut Check);
    }

    #[test]
    fn known_latency_is_none_for_foreign_edges() {
        // Node 0 on a path 0-1-2 can never learn the latency of edge (1, 2),
        // even after every edge has carried an exchange.
        struct ProbeForeign {
            foreign: Vec<Option<Option<Latency>>>,
        }
        impl Protocol for ProbeForeign {
            type Shared = ();
            type Node = Option<Option<Latency>>;
            fn split(&mut self, _: usize) -> (&(), &mut [Option<Option<Latency>>]) {
                (&(), &mut self.foreign)
            }
            fn on_round(
                _: &(),
                foreign: &mut Option<Option<Latency>>,
                view: &NodeView<'_>,
                _: &mut SmallRng,
            ) -> Option<NodeId> {
                if view.node.index() == 0 && view.round == 8 {
                    // Edge id 1 joins nodes 1 and 2 on the path.
                    *foreign = Some(view.known_latency(EdgeId::new(1)));
                }
                view.neighbors.first().map(|&(w, _)| w)
            }
        }
        let g = generators::path(3, 2).unwrap();
        let config = SimConfig::new(1).termination(Termination::FixedRounds(10));
        let mut p = ProbeForeign {
            foreign: vec![None; 3],
        };
        let _ = Simulation::new(&g, config).run(&mut p);
        assert_eq!(p.foreign[0], Some(None));
    }
}
