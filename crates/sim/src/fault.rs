//! Deterministic fault injection: crash-stop churn, link cuts, message loss.
//!
//! A [`FaultPlan`] is a *schedule* of fault events — crash-stop node
//! failures (with optional amnesiac rejoin), fail-stop link cuts, and a
//! per-exchange message-loss rate — attached to a simulation through
//! [`SimConfig::faults`](crate::SimConfig::faults).  The plan is pure data:
//! both the snapshot-free engine and the dense-bitset spec
//! ([`crate::oracle`]) interpret the same schedule with the same round-start
//! semantics, which is what lets the `fault_equivalence` suite pin the fault
//! path byte-identical across engines.
//!
//! # Semantics
//!
//! All events scheduled for round `r` are applied **at the very start of
//! round `r`**, before that round's deliveries: an exchange that would have
//! completed at `r` but is incident to a node crashing at `r` (or rides an
//! edge cut at `r`) is *cancelled*, never delivered.  Within one round,
//! events apply in schedule order.  Detailed per-event semantics:
//!
//! * **Crash** (crash-stop): the node stops initiating and responding, all
//!   its in-flight exchanges are cancelled (its surviving neighbors are
//!   woken the same round), and it is excluded from every termination
//!   condition.  Its rumor set is frozen as-is — rumors only it knew are
//!   *stranded* until it rejoins.  Crashing a dead node is a no-op.
//! * **Rejoin** (amnesiac): the node comes back with *only its initial
//!   set* under the run's [`Seeding`](crate::Seeding) (its own rumor
//!   all-to-all; in a broadcast, nothing unless it is the source).  Its
//!   next exchanges deliver it its peers' whole sets again.  Rejoining an alive node is a no-op.
//! * **Link cut** (fail-stop, permanent): the edge stops carrying exchanges
//!   forever; in-flight exchanges on it are cancelled.  Cutting a cut edge
//!   is a no-op.
//! * **Message loss**: each *accepted* initiation is lost independently with
//!   probability `rate_ppm / 1_000_000`, drawn from a dedicated
//!   [`SmallRng`] stream (seeded by `loss_seed`) so the protocol's own RNG
//!   stream is untouched.  A lost exchange stays in flight for the edge's
//!   full latency and then times out silently: no merge, no `on_exchange`
//!   callback (so no latency is revealed) and no wake event.
//!
//! Events scheduled at or beyond the round the run stops are never applied;
//! [`FaultReport`](crate::FaultReport) counts what was actually injected.

use gossip_graph::{AliveView, EdgeId, Graph, NodeId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::rumor::RumorSet;

/// One scheduled fault (see the module docs for exact semantics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultEvent {
    /// Crash-stop failure of a node.
    Crash(NodeId),
    /// Amnesiac recovery of a crashed node.
    Rejoin(NodeId),
    /// Permanent fail-stop cut of a link.
    CutLink(EdgeId),
}

/// A deterministic schedule of fault events plus a message-loss rate.
///
/// Build one explicitly with [`crash`](Self::crash) /
/// [`rejoin`](Self::rejoin) / [`cut_link`](Self::cut_link) /
/// [`message_loss`](Self::message_loss), or derive one from a seed with
/// [`random_churn`](Self::random_churn).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultPlan {
    /// `(round, event)` pairs, sorted by round; same-round events keep
    /// insertion order.
    pub(crate) events: Vec<(u64, FaultEvent)>,
    /// Per-exchange loss probability in parts per million (0 = reliable).
    pub(crate) loss_rate_ppm: u32,
    /// Seed of the dedicated loss RNG stream.
    pub(crate) loss_seed: u64,
}

impl FaultPlan {
    /// An empty plan: no faults, reliable links.
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Schedules a crash-stop failure of `node` at the start of `round`.
    pub fn crash(self, round: u64, node: NodeId) -> Self {
        self.push(round, FaultEvent::Crash(node))
    }

    /// Schedules an amnesiac rejoin of `node` at the start of `round`.
    pub fn rejoin(self, round: u64, node: NodeId) -> Self {
        self.push(round, FaultEvent::Rejoin(node))
    }

    /// Schedules a permanent cut of `edge` at the start of `round`.
    pub fn cut_link(self, round: u64, edge: EdgeId) -> Self {
        self.push(round, FaultEvent::CutLink(edge))
    }

    /// Sets the per-exchange message-loss rate (parts per million) and the
    /// seed of the dedicated loss RNG stream.  A rate above 1_000_000 is
    /// certain loss, the same as 1_000_000.
    pub fn message_loss(mut self, rate_ppm: u32, seed: u64) -> Self {
        self.loss_rate_ppm = rate_ppm.min(1_000_000);
        self.loss_seed = seed;
        self
    }

    /// Derives a churn schedule from a seed: `spec.crash_permille` ‰ of the
    /// nodes crash at rounds drawn uniformly from `spec.window` (each
    /// optionally rejoining `spec.rejoin_after` rounds later),
    /// `spec.cut_permille` ‰ of the edges are cut in the same window, and
    /// exchanges are lost at `spec.loss_ppm` (loss stream seeded with
    /// `seed ^ 0x6C05`).  At least one node always survives the scheduled
    /// crashes.  The result depends only on `(graph shape, seed, spec)`.
    // gossip-lint: allow(panic-path): Fisher–Yates indices k..n (resp. k..m) stay below the vec lengths n and m by construction
    pub fn random_churn(graph: &Graph, seed: u64, spec: &ChurnSpec) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed);
        let n = graph.node_count();
        let m = graph.edge_count();
        let (lo, hi) = spec.window;
        let draw_round = |rng: &mut SmallRng| {
            if hi > lo {
                rng.gen_range(lo..=hi)
            } else {
                lo
            }
        };
        let crashes = (n * spec.crash_permille as usize / 1000).min(n.saturating_sub(1));
        let cuts = m * spec.cut_permille as usize / 1000;
        let mut plan = FaultPlan::new();
        // Partial Fisher–Yates: the first `crashes` entries of `nodes` end up
        // a uniform sample without replacement.
        let mut nodes: Vec<u32> = (0..n as u32).collect();
        for k in 0..crashes {
            let j = rng.gen_range(k..n);
            nodes.swap(k, j);
            let node = NodeId::new(nodes[k] as usize);
            let at = draw_round(&mut rng);
            plan = plan.crash(at, node);
            if let Some(delta) = spec.rejoin_after {
                plan = plan.rejoin(at + delta, node);
            }
        }
        let mut edges: Vec<u32> = (0..m as u32).collect();
        for k in 0..cuts {
            let j = rng.gen_range(k..m);
            edges.swap(k, j);
            plan = plan.cut_link(draw_round(&mut rng), EdgeId::new(edges[k] as usize));
        }
        if spec.loss_ppm > 0 {
            plan = plan.message_loss(spec.loss_ppm, seed ^ 0x6C05);
        }
        plan
    }

    /// The scheduled `(round, event)` pairs, sorted by round.
    pub fn events(&self) -> &[(u64, FaultEvent)] {
        &self.events
    }

    /// The loss RNG for one run, if the plan has a nonzero loss rate,
    /// paired with the rate in parts per million.
    pub(crate) fn loss_stream(&self) -> Option<(SmallRng, u32)> {
        (self.loss_rate_ppm > 0)
            .then(|| (SmallRng::seed_from_u64(self.loss_seed), self.loss_rate_ppm))
    }

    fn push(mut self, round: u64, event: FaultEvent) -> Self {
        // After every event of the same round: same-round events keep their
        // insertion order, which is the order both engines apply them in.
        let at = self.events.partition_point(|&(r, _)| r <= round);
        self.events.insert(at, (round, event));
        self
    }
}

/// Parameters of a seed-derived churn schedule
/// ([`FaultPlan::random_churn`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChurnSpec {
    /// Fraction of nodes to crash, in permille (at least one node survives).
    pub crash_permille: u16,
    /// Rounds after its crash at which each crashed node rejoins
    /// (amnesiac); `None` = crashed nodes stay down.
    pub rejoin_after: Option<u64>,
    /// Fraction of edges to cut, in permille.
    pub cut_permille: u16,
    /// Per-exchange message-loss rate, in parts per million.
    pub loss_ppm: u32,
    /// Inclusive round window fault rounds are drawn from.
    pub window: (u64, u64),
}

/// One draw of the dedicated loss stream: whether the next accepted
/// initiation is lost in transit.  Both engines call this at the same
/// points (accepted initiations, in node order), which keeps the stream —
/// and therefore every report — aligned between them.
pub(crate) fn draw_loss(stream: &mut Option<(SmallRng, u32)>) -> bool {
    match stream {
        Some((rng, ppm)) => rng.gen_range(0u32..1_000_000) < *ppm,
        None => false,
    }
}

/// Rumors no *alive* node knows: the size of the universe minus the union
/// of the alive nodes' rumor sets (0 when every rumor survives somewhere).
// gossip-lint: allow(panic-path): `words` is sized ceil(universe/64) and rumor indices are below the shared universe by construction
pub(crate) fn stranded_rumors(rumors: &[RumorSet], alive: &AliveView) -> u64 {
    let universe = rumors.first().map_or(0, RumorSet::universe);
    if universe == 0 {
        return 0;
    }
    let mut words = vec![0u64; universe.div_ceil(64)];
    let mut known = 0usize;
    for (i, set) in rumors.iter().enumerate() {
        if !alive.is_node_alive(NodeId::new(i)) {
            continue;
        }
        if set.is_full() {
            return 0;
        }
        for r in set.iter() {
            let (w, b) = (r.index() / 64, r.index() % 64);
            if words[w] & (1 << b) == 0 {
                words[w] |= 1 << b;
                known += 1;
            }
        }
        if known == universe {
            return 0;
        }
    }
    (universe - known) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use gossip_graph::generators;

    #[test]
    fn builder_sorts_by_round_and_keeps_same_round_order() {
        let plan = FaultPlan::new()
            .crash(9, NodeId::new(1))
            .cut_link(2, EdgeId::new(0))
            .rejoin(9, NodeId::new(1))
            .crash(2, NodeId::new(0));
        let rounds: Vec<u64> = plan.events().iter().map(|&(r, _)| r).collect();
        assert_eq!(rounds, vec![2, 2, 9, 9]);
        // Same-round order is insertion order: the cut was scheduled before
        // the crash at round 2, the crash before the rejoin at round 9.
        assert_eq!(plan.events()[0].1, FaultEvent::CutLink(EdgeId::new(0)));
        assert_eq!(plan.events()[1].1, FaultEvent::Crash(NodeId::new(0)));
        assert_eq!(plan.events()[2].1, FaultEvent::Crash(NodeId::new(1)));
        assert_eq!(plan.events()[3].1, FaultEvent::Rejoin(NodeId::new(1)));
    }

    #[test]
    fn random_churn_is_deterministic_and_bounded() {
        let g = generators::clique(20, 1).unwrap();
        let spec = ChurnSpec {
            crash_permille: 250,
            rejoin_after: Some(7),
            cut_permille: 100,
            loss_ppm: 50_000,
            window: (1, 10),
        };
        let a = FaultPlan::random_churn(&g, 42, &spec);
        let b = FaultPlan::random_churn(&g, 42, &spec);
        assert_eq!(a, b, "same seed, same plan");
        let c = FaultPlan::random_churn(&g, 43, &spec);
        assert_ne!(a, c, "different seed, different plan");

        let crashes = a
            .events()
            .iter()
            .filter(|(_, e)| matches!(e, FaultEvent::Crash(_)))
            .count();
        let rejoins = a
            .events()
            .iter()
            .filter(|(_, e)| matches!(e, FaultEvent::Rejoin(_)))
            .count();
        assert_eq!(crashes, 5, "250 permille of 20 nodes");
        assert_eq!(rejoins, crashes);
        assert!(a
            .events()
            .iter()
            .all(|&(r, ref e)| matches!(e, FaultEvent::Rejoin(_)) || (1..=10).contains(&r)));

        // The churn-broadcast benchmark's spec on a 1024-node Erdős–Rényi
        // graph: hundreds of events, inserted out of round order.
        let g = generators::erdos_renyi(1024, 0.016, 1, &mut SmallRng::seed_from_u64(5)).unwrap();
        let spec = ChurnSpec {
            crash_permille: 100,
            rejoin_after: Some(6),
            cut_permille: 20,
            window: (1, 12),
            ..spec
        };
        let plan = FaultPlan::random_churn(&g, 42, &spec);
        let events = plan.events();
        assert!(events.windows(2).all(|w| w[0].0 <= w[1].0), "by round");
        let mut rejoins = 0;
        for &(r, e) in events {
            if let FaultEvent::Rejoin(v) = e {
                let crash = events.iter().find(|&&(_, c)| c == FaultEvent::Crash(v));
                assert_eq!(crash.map(|&(c, _)| c + 6), Some(r), "{v:?}");
                rejoins += 1;
            }
        }
        assert_eq!(rejoins, 102, "100 permille of 1024 nodes");
    }

    #[test]
    fn churn_never_crashes_every_node() {
        let g = generators::path(2, 1).unwrap();
        let spec = ChurnSpec {
            crash_permille: 1000,
            rejoin_after: None,
            cut_permille: 0,
            loss_ppm: 0,
            window: (0, 0),
        };
        let plan = FaultPlan::random_churn(&g, 1, &spec);
        let crashes = plan
            .events()
            .iter()
            .filter(|(_, e)| matches!(e, FaultEvent::Crash(_)))
            .count();
        assert_eq!(crashes, 1, "one of two nodes must survive");
    }
}
