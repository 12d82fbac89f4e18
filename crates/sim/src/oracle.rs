//! The executable spec: dense-bitset snapshot semantics, `O(n · rounds)`.
//!
//! [`OracleSimulation`] is the one plain statement of the model the
//! production engine is checked against: every round it applies that round's
//! faults, delivers the exchanges completing now (each endpoint merges the
//! snapshot of its peer taken at initiation), checks termination, and then
//! asks every alive node for a decision.  Every rumor state is one flat dense
//! bitset row (`universe / 64` words per node).  There is no delta window,
//! no paged union and no skipped round: a
//! snapshot is a `memcpy` of one row and a merge is a word-wise OR (the paged
//! [`RumorSet`] mirror protocols observe is fed one `insert` per new bit), so
//! a bug in the engine's bulk set operations cannot hide here, and the oracle
//! stays fast enough for the `engine_equivalence` property tests to cross
//! 10³–10⁴ nodes.
//!
//! The oracle consults [`Protocol::activity`] only to decide
//! [`Termination::Quiescent`] and never elides an `on_round` call, so
//! running a protocol here and through [`Simulation`](crate::Simulation)
//! pins the event-driven scheduler's skipping as unobservable (the
//! `activity_equivalence` and `engine_skip` suites rely on this).  It draws
//! each node's per-round RNG from
//! `decision_rng(seed, round, node)`, keeping protocol decisions
//! byte-aligned with the engine at any thread count.  Reports compare via
//! [`RunReport::semantics`](crate::RunReport::semantics) (the oracle reports
//! no memory counters).  Any intentional semantic change to the engine must
//! be mirrored here.
//!
//! This module is exported for the test suites; it is not part of the
//! supported API surface.

use gossip_graph::{AliveView, EdgeId, Graph, NodeId};

use crate::engine::{
    decision_rng, Activity, ExchangeEvent, NodeView, Protocol, SimConfig, Termination,
};
use crate::fault::{self, FaultEvent, FaultPlan};
use crate::report::{FaultReport, RunReport};
use crate::rumor::{RumorId, RumorSet, Seeding};

struct InFlight {
    initiator: NodeId,
    responder: NodeId,
    edge: EdgeId,
    completes_at: u64,
    /// Dense snapshot of the initiator's row at initiation time.
    initiator_snapshot: Vec<u64>,
    /// Dense snapshot of the responder's row at initiation time.
    responder_snapshot: Vec<u64>,
    /// Lost in transit: times out at `completes_at` without delivering.
    lost: bool,
}

/// The dense-bitset semantic oracle (see the module docs).
pub struct OracleSimulation<'g> {
    graph: &'g Graph,
    config: SimConfig,
    /// Every rumor in `0..universe`, shared by all nodes.
    universe: usize,
    /// Words per dense row.
    stride: usize,
    /// Node `i`'s rumor state is `rows[i * stride .. (i + 1) * stride]`.
    rows: Vec<u64>,
    /// Paged mirror of `rows`, maintained bit for bit: protocols observe
    /// [`NodeView::rumors`] as a [`RumorSet`], and the final states must be
    /// comparable against the engine's.
    sets: Vec<RumorSet>,
    /// Incremental popcount of each row (avoids termination re-scans).
    counts: Vec<usize>,
    /// The initial-state rule an amnesiac rejoin resets a node to.
    seeding: Seeding,
}

impl<'g> OracleSimulation<'g> {
    /// Creates an all-to-all oracle ([`Seeding::AllToAll`]), the twin of
    /// [`Simulation::new`](crate::Simulation::new).
    pub fn new(graph: &'g Graph, config: SimConfig) -> Self {
        Self::seeded(graph, config, Seeding::AllToAll)
    }

    /// Creates a one-to-all oracle from `source` ([`Seeding::Broadcast`]),
    /// the twin of [`Simulation::broadcast`](crate::Simulation::broadcast).
    ///
    /// # Panics
    ///
    /// Panics if `source` is not a node of `graph`.
    pub fn broadcast(graph: &'g Graph, config: SimConfig, source: NodeId) -> Self {
        Self::seeded(graph, config, Seeding::Broadcast(source))
    }

    fn seeded(graph: &'g Graph, config: SimConfig, seeding: Seeding) -> Self {
        let initial = seeding.initial_sets(graph.node_count());
        let mut oracle = Self::with_rumors(graph, config, initial);
        oracle.seeding = seeding;
        oracle
    }

    /// Creates an oracle with explicitly provided initial rumor sets.  An
    /// amnesiac rejoin resets a node to its [`Seeding::AllToAll`] set.
    ///
    /// # Panics
    ///
    /// Panics if `initial.len()` differs from the node count, or if a set's
    /// universe does (the engine's rule; the dense rows share one stride).
    pub fn with_rumors(graph: &'g Graph, config: SimConfig, initial: Vec<RumorSet>) -> Self {
        let n = graph.node_count();
        assert_eq!(initial.len(), n, "one rumor set per node is required");
        assert!(
            initial.iter().all(|s| s.universe() == n),
            "every rumor set's universe must be the {n} nodes"
        );
        let stride = n.div_ceil(64);
        let mut rows = vec![0u64; n * stride];
        let counts = initial.iter().map(RumorSet::len).collect();
        for (i, set) in initial.iter().enumerate() {
            fill_row(&mut rows[i * stride..(i + 1) * stride], set);
        }
        OracleSimulation {
            graph,
            config,
            universe: n,
            stride,
            rows,
            sets: initial,
            counts,
            seeding: Seeding::AllToAll,
        }
    }

    /// Consumes the oracle and returns the rumor sets (after a run).
    pub fn into_rumors(self) -> Vec<RumorSet> {
        self.sets
    }

    /// Merges the dense `snapshot` into node `dst`, keeping the row, the
    /// paged mirror and the popcount in sync.  Returns `true` if anything
    /// new arrived.
    // gossip-lint: allow(panic-path): rows/sets/counts are sized n at construction; node ids are dense
    fn merge_snapshot(&mut self, dst: NodeId, snapshot: &[u64]) -> bool {
        let i = dst.index();
        let row = &mut self.rows[i * self.stride..(i + 1) * self.stride];
        let mut changed = false;
        for (w, (word, &snap)) in row.iter_mut().zip(snapshot).enumerate() {
            let new = snap & !*word;
            if new == 0 {
                continue;
            }
            changed = true;
            *word |= new;
            self.counts[i] += new.count_ones() as usize;
            let mut bits = new;
            while bits != 0 {
                let b = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                self.sets[i].insert(RumorId::from(w * 64 + b));
            }
        }
        changed
    }

    /// Runs `protocol` with snapshot-at-initiation semantics over the dense
    /// rows, walking and asking every alive node every round.
    // gossip-lint: allow(panic-path): node and edge ids are below the graph's n and m (its n + 1 offsets bound every node's slice of the flat arc array); rows, sets and counts are sized n
    pub fn run<P: Protocol>(&mut self, protocol: &mut P) -> RunReport {
        let n = self.graph.node_count();
        let stride = self.stride;
        let mut in_flight: Vec<InFlight> = Vec::new();
        let mut activations: u64 = 0;
        let mut rejections: u64 = 0;
        let mut informed_times: Vec<Option<u64>> = match self.config.tracked_rumor {
            Some(r) => self
                .sets
                .iter()
                .map(|s| if s.contains(r) { Some(0) } else { None })
                .collect(),
            None => Vec::new(),
        };

        let fault_plan = self.config.faults.clone();
        let fault_events: &[(u64, FaultEvent)] = match &fault_plan {
            Some(plan) => plan.events(),
            None => &[],
        };
        let mut fault_cursor = 0usize;
        let mut loss = fault_plan.as_ref().and_then(FaultPlan::loss_stream);
        let mut alive: Option<AliveView> = fault_plan.as_ref().map(|_| AliveView::new(self.graph));
        let (mut crashes, mut rejoins, mut links_cut) = (0u64, 0u64, 0u64);
        let (mut cancelled, mut lost_count) = (0u64, 0u64);
        let mut pending_recovery: Vec<(usize, u64)> = Vec::new();
        let mut recovery_latency: Option<u64> = None;
        let recovery_target: Option<RumorId> =
            self.config.tracked_rumor.or(match self.config.termination {
                Termination::AllKnowRumorOf(source) => Some(RumorId::of_node(source)),
                _ => None,
            });
        let note_recovery = |latency: u64, agg: &mut Option<u64>| {
            *agg = Some(agg.map_or(latency, |cur| cur.max(latency)));
        };

        let mut round: u64 = 0;
        let mut completed = self.is_done(0, protocol, &in_flight, alive.as_ref());

        while !completed && round < self.config.max_rounds {
            // 0. Apply fault events scheduled for this round, before this
            //    round's deliveries.
            while fault_events
                .get(fault_cursor)
                .is_some_and(|&(r, _)| r <= round)
            {
                let (_, event) = fault_events[fault_cursor];
                fault_cursor += 1;
                let av = alive.as_mut().expect("fault events imply an alive view");
                match event {
                    FaultEvent::Crash(v) => {
                        if !av.kill_node(self.graph, v) {
                            continue; // already dead: uncounted no-op
                        }
                        crashes += 1;
                        let before = in_flight.len();
                        in_flight.retain(|ex| ex.initiator != v && ex.responder != v);
                        cancelled += (before - in_flight.len()) as u64;
                        if let Some(pos) =
                            pending_recovery.iter().position(|&(i, _)| i == v.index())
                        {
                            pending_recovery.swap_remove(pos);
                        }
                    }
                    FaultEvent::Rejoin(v) => {
                        if !av.revive_node(self.graph, v) {
                            continue; // already alive: uncounted no-op
                        }
                        rejoins += 1;
                        // Amnesiac restart: back to its initial set, no
                        // history.
                        let i = v.index();
                        let initial = self.seeding.initial_set(self.universe, v);
                        fill_row(&mut self.rows[i * stride..(i + 1) * stride], &initial);
                        self.counts[i] = initial.len();
                        self.sets[i] = initial;
                        if let Some(r) = self.config.tracked_rumor {
                            if informed_times[i].is_none() && self.sets[i].contains(r) {
                                informed_times[i] = Some(round);
                            }
                        }
                        let recovered = match recovery_target {
                            Some(r) => self.sets[i].contains(r),
                            None => self.sets[i].is_full(),
                        };
                        if recovered {
                            note_recovery(0, &mut recovery_latency);
                        } else {
                            pending_recovery.push((i, round));
                        }
                    }
                    FaultEvent::CutLink(e) => {
                        if !av.cut_edge(self.graph, e) {
                            continue; // already cut: uncounted no-op
                        }
                        links_cut += 1;
                        let before = in_flight.len();
                        in_flight.retain(|ex| ex.edge != e);
                        cancelled += (before - in_flight.len()) as u64;
                    }
                }
            }

            // 1. Deliver exchanges completing at the start of this round.
            let mut completions: Vec<InFlight> = Vec::new();
            in_flight.retain_mut(|ex| {
                if ex.completes_at == round {
                    completions.push(InFlight {
                        initiator: ex.initiator,
                        responder: ex.responder,
                        edge: ex.edge,
                        completes_at: ex.completes_at,
                        initiator_snapshot: std::mem::take(&mut ex.initiator_snapshot),
                        responder_snapshot: std::mem::take(&mut ex.responder_snapshot),
                        lost: ex.lost,
                    });
                    false
                } else {
                    true
                }
            });
            for ex in completions {
                let latency = self.graph.latency(ex.edge);
                if ex.lost {
                    // Timed out in transit: no merge, no `on_exchange`.
                    lost_count += 1;
                    continue;
                }
                // Both endpoints merge the peer's snapshot taken at initiation.
                self.merge_snapshot(ex.initiator, &ex.responder_snapshot);
                self.merge_snapshot(ex.responder, &ex.initiator_snapshot);
                if let Some(r) = self.config.tracked_rumor {
                    for endpoint in [ex.initiator, ex.responder] {
                        if informed_times[endpoint.index()].is_none()
                            && self.sets[endpoint.index()].contains(r)
                        {
                            informed_times[endpoint.index()] = Some(round);
                        }
                    }
                }
                if !pending_recovery.is_empty() {
                    for endpoint in [ex.initiator, ex.responder] {
                        let i = endpoint.index();
                        if let Some(pos) = pending_recovery.iter().position(|&(v, _)| v == i) {
                            let recovered = match recovery_target {
                                Some(r) => self.sets[i].contains(r),
                                None => self.sets[i].is_full(),
                            };
                            if recovered {
                                let (_, since) = pending_recovery.swap_remove(pos);
                                note_recovery(round - since, &mut recovery_latency);
                            }
                        }
                    }
                }
                for (node, here) in [(ex.initiator, true), (ex.responder, false)] {
                    protocol.on_exchange(
                        node,
                        &ExchangeEvent {
                            peer: if here { ex.responder } else { ex.initiator },
                            edge: ex.edge,
                            latency,
                            initiated_here: here,
                            round,
                        },
                    );
                }
            }

            // 2. Check termination (conditions are evaluated on round boundaries).
            if self.is_done(round, protocol, &in_flight, alive.as_ref()) {
                completed = true;
                break;
            }

            // 3. Let every *alive* node act, each on its own
            //    `(seed, round, node)` RNG stream.
            for i in 0..n {
                let node = NodeId::new(i);
                if let Some(av) = &alive {
                    if !av.is_node_alive(node) {
                        continue;
                    }
                }
                let choice = {
                    let view = self.view(node, round, alive.as_ref(), &self.sets[i]);
                    let mut rng = decision_rng(self.config.seed, round, i as u32);
                    let (shared, states) = protocol.split(n);
                    P::on_round(shared, &mut states[i], &view, &mut rng)
                };
                let Some(target) = choice else { continue };
                let Some(edge) = self.graph.find_edge(node, target) else {
                    rejections += 1;
                    protocol.on_rejected(node, target, round);
                    continue;
                };
                if let Some(av) = &alive {
                    // A dead peer or cut edge rejects like a non-neighbor.
                    if !av.is_edge_alive(edge) || !av.is_node_alive(target) {
                        rejections += 1;
                        protocol.on_rejected(node, target, round);
                        continue;
                    }
                }
                let latency = self.graph.latency(edge);
                activations += 1;
                in_flight.push(InFlight {
                    initiator: node,
                    responder: target,
                    edge,
                    completes_at: round + latency,
                    initiator_snapshot: self.rows[i * stride..(i + 1) * stride].to_vec(),
                    responder_snapshot: self.rows
                        [target.index() * stride..(target.index() + 1) * stride]
                        .to_vec(),
                    // Drawn exactly once per *accepted* initiation, from the
                    // dedicated loss stream — the same call points as the
                    // engine, keeping the streams aligned.
                    lost: fault::draw_loss(&mut loss),
                });
            }

            round += 1;
        }

        if !completed {
            completed = self.is_done(round, protocol, &in_flight, alive.as_ref());
        }
        let faults = alive.map(|av| {
            let (residual_components, largest_component) = av.residual_components(self.graph);
            FaultReport {
                crashes,
                rejoins,
                links_cut,
                exchanges_cancelled: cancelled,
                exchanges_lost: lost_count,
                alive_nodes: av.alive_count() as u64,
                residual_components,
                largest_component,
                stranded_rumors: fault::stranded_rumors(&self.sets, &av),
                recovery_latency,
            }
        });
        RunReport {
            protocol: protocol.name().to_string(),
            rounds: round,
            activations,
            messages: activations * 2,
            completed,
            rejections,
            informed_times: if informed_times.is_empty() {
                None
            } else {
                Some(informed_times)
            },
            min_rumors_known: self.counts.iter().copied().min().unwrap_or(0),
            faults,
            // No window or pages to measure; equivalence
            // compares `RunReport::semantics()`, which strips this field.
            mem: None,
        }
    }

    /// What a protocol sees of `node` at `round` — the one view
    /// construction the decision pass and the `Quiescent` check share.
    fn view<'a>(
        &'a self,
        node: NodeId,
        round: u64,
        alive: Option<&'a AliveView>,
        rumors: &'a RumorSet,
    ) -> NodeView<'a> {
        NodeView {
            node,
            round,
            rumors,
            neighbors: match alive {
                Some(av) => av.neighbor_slice(self.graph, node),
                None => self.graph.neighbor_slice(node),
            },
        }
    }

    // gossip-lint: allow(panic-path): counts/sets are sized n at construction; node ids are dense
    fn is_done<P: Protocol>(
        &self,
        round: u64,
        protocol: &mut P,
        in_flight: &[InFlight],
        alive: Option<&AliveView>,
    ) -> bool {
        // Under faults, dissemination conditions quantify over *alive* nodes
        // and un-cut edges only (vacuously true with no node alive).
        let node_alive = |v: NodeId| alive.is_none_or(|a| a.is_node_alive(v));
        let edge_alive = |e: EdgeId| alive.is_none_or(|a| a.is_edge_alive(e));
        match self.config.termination {
            Termination::AllKnowRumorOf(source) => {
                let r = RumorId::of_node(source);
                self.graph
                    .nodes()
                    .all(|v| !node_alive(v) || self.sets[v.index()].contains(r))
            }
            Termination::AllKnowAll => self
                .graph
                .nodes()
                .all(|v| !node_alive(v) || self.counts[v.index()] == self.universe),
            Termination::LocalBroadcast(bound) => self.graph.nodes().all(|v| {
                !node_alive(v)
                    || self.graph.neighbors(v).all(|(w, e)| {
                        self.graph.latency(e) > bound
                            || !node_alive(w)
                            || !edge_alive(e)
                            || self.sets[v.index()].contains(RumorId::of_node(w))
                    })
            }),
            Termination::FixedRounds(target) => round >= target,
            Termination::Quiescent => {
                let (shared, states) = protocol.split(self.graph.node_count());
                in_flight.is_empty()
                    && self.graph.nodes().all(|v| {
                        let i = v.index();
                        !node_alive(v)
                            || P::activity(
                                shared,
                                &states[i],
                                &self.view(v, round, alive, &self.sets[i]),
                            ) == Activity::Quiescent
                    })
            }
        }
    }
}

/// Overwrites the dense `row` with the bits of `set`.
fn fill_row(row: &mut [u64], set: &RumorSet) {
    row.fill(0);
    for rumor in set.iter() {
        if let Some(word) = row.get_mut(rumor.index() / 64) {
            *word |= 1 << (rumor.index() % 64);
        }
    }
}
