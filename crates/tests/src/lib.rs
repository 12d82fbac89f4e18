//! # gossip-tests
//!
//! An integration-only crate: it owns no logic of its own, but wires the
//! repository-root `tests/` (cross-crate integration suites) and `examples/`
//! directories into the Cargo workspace via explicit `[[test]]` and
//! `[[example]]` target entries, so `cargo test -q` runs everything and
//! builds every example.
//!
//! Helpers shared by the integration tests live here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::path::PathBuf;

use gossip_graph::metrics::{dijkstra, estimate_diameter, Distance};
use gossip_graph::{EdgeId, Graph, Latency, NodeId};
use gossip_sim::oracle::OracleSimulation;
use gossip_sim::{ExchangeEvent, NodeView, Protocol, RunReport, Seeding, SimConfig, Simulation};
use rand::rngs::SmallRng;
use rand::Rng;

/// Rounds by which a node's first-informed time may undercut its latency
/// distance from the tracked rumor's origin: none.  The origin holds its
/// rumor at round 0, an exchange initiated in round `r` delivers in round
/// `r + ℓ`, and deliveries precede decisions within a round, so a node
/// informed in round `t` forwards the rumor in round `t` at the earliest.
pub const CAUSAL_SLACK: Distance = 0;

/// Runs one protocol under one config and one initial [`Seeding`] on the
/// production engine and on the dense-bitset spec [`OracleSimulation`], and
/// requires identical semantic reports and identical final rumor sets.
///
/// When a rumor is tracked and its origin `s` holds it at seeding, it also
/// requires causality: every first-informed time is at least
/// `dist_ℓ(s, v) − CAUSAL_SLACK`.  Informed times keep the first time, so
/// this holds under loss, cuts and amnesiac rejoins too.  A fault-free
/// all-to-all run that ends with every node knowing every rumor (a completed
/// [`AllKnowAll`](gossip_sim::Termination::AllKnowAll) run) must also have
/// taken at least the weighted diameter `D` in rounds, since the rumor of
/// one end of a diametral pair travels at least `D` to the other.
///
/// Reports are compared through [`RunReport::semantics`]: the engine fills in
/// [`MemStats`](gossip_sim::MemStats) diagnostics the oracle (by design) does
/// not have; every other field must be byte-identical.  Returns the engine's
/// report, diagnostics included, for suite-specific checks.
///
/// # Panics
///
/// Panics (naming `label`) if the two runs differ.
pub fn assert_matches_oracle<P: Protocol>(
    g: &Graph,
    config: &SimConfig,
    seeding: Seeding,
    make_protocol: impl Fn() -> P,
    label: &str,
) -> RunReport {
    let (mut sim, mut oracle) = match seeding {
        Seeding::AllToAll => (
            Simulation::new(g, config.clone()),
            OracleSimulation::new(g, config.clone()),
        ),
        Seeding::Broadcast(source) => (
            Simulation::broadcast(g, config.clone(), source),
            OracleSimulation::broadcast(g, config.clone(), source),
        ),
    };
    let report = sim.run(&mut make_protocol());
    let oracle_report = oracle.run(&mut make_protocol());

    assert!(
        report.mem.is_some() && oracle_report.mem.is_none(),
        "the engine reports memory diagnostics, the oracle does not: {label}"
    );
    assert_eq!(
        report.semantics(),
        oracle_report.semantics(),
        "report mismatch: {label}"
    );
    assert_eq!(
        sim.into_rumors(),
        oracle.into_rumors(),
        "rumor-state mismatch: {label}"
    );
    assert_causal(g, config, seeding, &report, label);
    assert_all_know_all_takes_the_diameter(g, seeding, &report, label);
    report
}

/// The diameter half of [`assert_matches_oracle`]: a completed, fault-free
/// all-to-all run on a connected graph lasts at least `D` rounds.  The
/// estimator's lower bound is the exact `D` up to
/// [`EXACT_DIAMETER_THRESHOLD`](gossip_graph::metrics::EXACT_DIAMETER_THRESHOLD)
/// nodes and at most `D` above.
fn assert_all_know_all_takes_the_diameter(
    g: &Graph,
    seeding: Seeding,
    report: &RunReport,
    label: &str,
) {
    let all_know_all = seeding == Seeding::AllToAll
        && report.completed
        && report.faults.is_none()
        && report.min_rumors_known == g.node_count();
    if !all_know_all {
        return;
    }
    if let Some(d) = estimate_diameter(g) {
        assert!(
            report.rounds >= d.lower,
            "all-to-all finished in {} rounds, below the diameter {}: {label}",
            report.rounds,
            d.lower
        );
    }
}

/// The causality half of [`assert_matches_oracle`]: no node learns the
/// tracked rumor sooner than the latency distance from its origin allows.
fn assert_causal(g: &Graph, config: &SimConfig, seeding: Seeding, report: &RunReport, label: &str) {
    let (Some(rumor), Some(times)) = (config.tracked_rumor(), &report.informed_times) else {
        return;
    };
    let origin = NodeId::new(rumor.index());
    let seeded = match seeding {
        Seeding::AllToAll => rumor.index() < g.node_count(),
        Seeding::Broadcast(source) => source == origin,
    };
    if !seeded {
        return;
    }
    let dist = dijkstra(g, origin);
    for (v, (&at, &d)) in times.iter().zip(&dist).enumerate() {
        if let Some(at) = at {
            assert!(
                at.saturating_add(CAUSAL_SLACK) >= d,
                "node {v} informed at round {at}, before its distance {d} from {origin:?}: {label}"
            );
        }
    }
}

/// Random push–pull biased toward the fast links a node has learned of: a
/// coin flip picks either a uniformly random neighbor or the fastest
/// incident edge whose latency a completed exchange revealed (the random
/// one while none is known).  Each node keeps the latencies
/// [`ExchangeEvent::latency`] reported to it in its own [`Protocol::Node`]
/// state, so its decisions depend on exactly which exchanges were
/// delivered: a lost or cancelled one must reveal nothing.
#[derive(Debug, Clone, Default)]
pub struct FastestKnown {
    learned: Vec<BTreeMap<EdgeId, Latency>>,
}

impl Protocol for FastestKnown {
    type Shared = ();
    type Node = BTreeMap<EdgeId, Latency>;

    fn name(&self) -> &'static str {
        "fastest-known"
    }

    fn split(&mut self, n: usize) -> (&(), &mut [Self::Node]) {
        self.learned.resize(n, BTreeMap::new());
        (&(), &mut self.learned)
    }

    fn on_round(
        _: &(),
        learned: &mut Self::Node,
        view: &NodeView<'_>,
        rng: &mut SmallRng,
    ) -> Option<NodeId> {
        if view.neighbors.is_empty() || view.rumors.is_full() {
            return None;
        }
        let random = view.neighbors[rng.gen_range(0..view.neighbors.len())].0;
        if rng.gen_bool(0.5) {
            return Some(random);
        }
        let fastest = view
            .neighbors
            .iter()
            .filter_map(|&(w, e)| learned.get(&e).map(|&l| (l, w)))
            .min();
        Some(fastest.map_or(random, |(_, w)| w))
    }

    fn on_exchange(&mut self, node: NodeId, event: &ExchangeEvent) {
        if let Some(learned) = self.learned.get_mut(node.index()) {
            learned.insert(event.edge, event.latency);
        }
    }
}

/// Locates a compiled example binary next to the running test executable.
///
/// Under `cargo test`, integration-test binaries live in
/// `target/<profile>/deps/` and the package's examples are built into
/// `target/<profile>/examples/` before any test runs; this resolves the
/// example's path from [`std::env::current_exe`].
pub fn example_binary(name: &str) -> Option<PathBuf> {
    let exe = std::env::current_exe().ok()?;
    let deps = exe.parent()?;
    let profile = deps.parent()?;
    let candidate = profile
        .join("examples")
        .join(format!("{name}{}", std::env::consts::EXE_SUFFIX));
    candidate.is_file().then_some(candidate)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gossip_graph::GraphBuilder;
    use gossip_sim::{stateless, RumorId, Termination};

    /// Every node pushes to its higher-id neighbor every round.
    struct PushRight;

    impl Protocol for PushRight {
        type Shared = ();
        type Node = ();

        fn split(&mut self, n: usize) -> (&(), &mut [()]) {
            (&(), stateless(n))
        }

        fn on_round(_: &(), _: &mut (), view: &NodeView<'_>, _: &mut SmallRng) -> Option<NodeId> {
            view.neighbors
                .last()
                .map(|&(w, _)| w)
                .filter(|&w| w > view.node)
        }
    }

    /// On a weighted path pushed left to right, each node is informed the
    /// round its latency distance from the source elapses, so the
    /// causality bound is tight: `CAUSAL_SLACK` is the exact offset.
    #[test]
    fn causal_slack_is_exact_on_a_weighted_path() {
        let mut b = GraphBuilder::new(6);
        for (i, latency) in [3, 1, 4, 1, 5].into_iter().enumerate() {
            b.add_edge(i, i + 1, latency).unwrap();
        }
        let g = b.build().unwrap();
        let source = NodeId::new(0);
        let config = SimConfig::new(1)
            .termination(Termination::AllKnowRumorOf(source))
            .track_rumor(RumorId::of_node(source));
        let report = assert_matches_oracle(
            &g,
            &config,
            Seeding::Broadcast(source),
            || PushRight,
            "push-right on a weighted path",
        );
        let times: Vec<Option<u64>> = dijkstra(&g, source)
            .into_iter()
            .map(|d| Some(d - CAUSAL_SLACK))
            .collect();
        assert_eq!(report.informed_times, Some(times));
        assert_eq!(report.rounds, 14);
    }
}
