//! Calendar fast-forward edge cases of the event-driven scheduler.
//!
//! When the active worklist empties, the engine jumps the round clock to the
//! next round in which an exchange completes instead of walking empty
//! rounds.  Three situations are pinned here against the dense-bitset spec
//! [`OracleSimulation`](gossip_sim::oracle::OracleSimulation), which walks
//! every round and asks every node:
//!
//! * a jump whose next event sits **one whole latency away**;
//! * **deltas aging out of the window across skipped stretches** (merges
//!   after a skipped gap must still subtract exactly the batches their
//!   snapshots postdate);
//! * a **`FixedRounds` target landing inside a skipped gap** (the clock must
//!   stop exactly on the target, dropping the still-in-flight exchanges).

use gossip_graph::{generators, NodeId};
use gossip_sim::protocols::RoundRobinFlood;
use gossip_sim::{Activity, NodeView, Protocol, RumorId, Seeding, SimConfig, Termination};
use gossip_tests::assert_matches_oracle;
use rand::rngs::SmallRng;

/// Fires one exchange per node at round 0, then idles forever (but only
/// promises `IdleUntilWoken`, so completions keep re-offering it the chance
/// to act — which it declines).  This leaves rounds where rumor state
/// *changed* but no node stays active.
#[derive(Default)]
struct OneShot {
    fired: Vec<bool>,
}

impl Protocol for OneShot {
    type Shared = ();
    type Node = bool;

    fn name(&self) -> &'static str {
        "one-shot"
    }

    fn split(&mut self, n: usize) -> (&(), &mut [bool]) {
        self.fired.resize(n, false);
        (&(), &mut self.fired)
    }

    fn on_round(_: &(), fired: &mut bool, view: &NodeView<'_>, _: &mut SmallRng) -> Option<NodeId> {
        if *fired || view.neighbors.is_empty() {
            return None;
        }
        *fired = true;
        Some(view.neighbors[0].0)
    }

    fn activity(_: &(), fired: &bool, view: &NodeView<'_>) -> Activity {
        if view.neighbors.is_empty() {
            return Activity::Quiescent;
        }
        if *fired {
            Activity::IdleUntilWoken
        } else {
            Activity::Active
        }
    }
}

/// The long jump: with `OneShot` on a latency-`L` edge, round 0's
/// initiations complete at round `L`, the only event of the run, so the
/// clock jumps from round 0 straight to `L` and from there to the
/// `FixedRounds` target.
#[test]
fn fast_forward_jumps_a_whole_latency() {
    for latency in [2u64, 5, 10] {
        let g = generators::path(2, latency).unwrap();
        let budget = 4 * latency + 8;
        let config = SimConfig::new(1).termination(Termination::FixedRounds(budget));
        let report = assert_matches_oracle(
            &g,
            &config,
            Seeding::AllToAll,
            OneShot::default,
            &format!("latency-long jump, latency {latency}"),
        );
        assert_eq!(report.rounds, budget, "latency {latency}");
        assert_eq!(report.activations, 2);
        assert_eq!(report.min_rumors_known, 2, "the exchange must land");
        let mem = report.mem.unwrap();
        // Everything after round 0 is driven by one event (the delivery at
        // L), so nearly the whole budget is skipped.
        assert!(
            mem.rounds_skipped >= budget - 8,
            "latency {latency}: skipped only {} of {budget} rounds ({mem:?})",
            mem.rounds_skipped
        );
        assert!(
            mem.rounds_simulated <= 8,
            "latency {latency}: walked {} rounds ({mem:?})",
            mem.rounds_simulated
        );
        // Each node's one new rumor is one id-list batch — an 8-byte index
        // entry, a 4-byte base and one 2-byte offset, no run — and the
        // round at the target (more than a latency later) ages both
        // batches out.
        assert_eq!(
            (mem.peak_log_runs, mem.peak_log_bytes),
            (0, 2 * 14),
            "latency {latency} ({mem:?})"
        );
        assert_eq!((mem.truncated_runs, mem.live_log_runs), (2, 0), "{mem:?}");
        assert_eq!(mem.saturated_nodes, 2);
        assert_eq!(mem.active_final, 0);
    }
}

/// Batches stored while the worklist is occupied must age out — and merges
/// after a skipped stretch must still subtract exactly the batches their
/// snapshots postdate.  Flood on a three-node high-latency path: the nodes
/// wake at each delivery, relay once, and idle again, so the clock skips
/// between deliveries that are each one latency apart.
#[test]
fn window_ages_out_across_skipped_windows() {
    let g = generators::path(3, 9).unwrap();
    let config = SimConfig::new(4)
        .termination(Termination::FixedRounds(200))
        .track_rumor(RumorId::from(0usize));
    let report = assert_matches_oracle(
        &g,
        &config,
        Seeding::AllToAll,
        || RoundRobinFlood::new(&g),
        "window aging",
    );
    assert_eq!(report.rounds, 200);
    assert_eq!(report.min_rumors_known, 3, "the path must saturate");
    let mem = report.mem.unwrap();
    assert!(mem.rounds_skipped > 100, "{mem:?}");
    // Deliveries nine rounds apart age out the batches of the previous
    // ones, though every round between them was skipped.
    assert!(mem.truncated_runs > 0, "{mem:?}");
}

/// `FixedRounds` landing strictly inside a skipped gap: the clock must stop
/// exactly on the target — with the exchange that would have completed later
/// dropped, exactly like the oracle that walks every round.
#[test]
fn fixed_rounds_lands_inside_a_skipped_gap() {
    let g = generators::path(2, 10).unwrap();
    let config = SimConfig::new(1).termination(Termination::FixedRounds(7));
    let report = assert_matches_oracle(
        &g,
        &config,
        Seeding::AllToAll,
        || RoundRobinFlood::new(&g),
        "fixed-rounds gap",
    );
    assert_eq!(report.rounds, 7, "the clock must stop on the target");
    assert!(report.completed);
    assert_eq!(
        report.min_rumors_known, 1,
        "the latency-10 exchange was still in flight and is dropped"
    );
    let mem = report.mem.unwrap();
    // Round 0: both initiate.  Round 1: both clean, worklist empties; the
    // only calendar event (delivery at round 10) lies beyond the target, so
    // the jump is capped at 7 and rounds 2..=6 are skipped.
    assert_eq!(mem.rounds_skipped, 5, "{mem:?}");
    assert_eq!(mem.rounds_simulated, 3, "{mem:?}");
}

/// Counts down a fixed number of silent rounds per node, then reports
/// quiescent (reaching 0 is irreversible).  The last `on_round` call
/// *mutates protocol state the current round's termination check has
/// already consumed* — `Termination::Quiescent` must still fire at the exact
/// round boundary the oracle sees, not be overshot by a fast-forward.
struct Countdown {
    remaining: Vec<u32>,
}

impl Protocol for Countdown {
    type Shared = ();
    type Node = u32;

    fn name(&self) -> &'static str {
        "countdown"
    }

    fn split(&mut self, _: usize) -> (&(), &mut [u32]) {
        (&(), &mut self.remaining)
    }

    fn on_round(_: &(), remaining: &mut u32, _: &NodeView<'_>, _: &mut SmallRng) -> Option<NodeId> {
        *remaining = remaining.saturating_sub(1);
        None
    }

    fn activity(_: &(), remaining: &u32, _: &NodeView<'_>) -> Activity {
        if *remaining == 0 {
            Activity::Quiescent
        } else {
            Activity::Active
        }
    }
}

/// `Termination::Quiescent` depends on protocol state that the decision
/// phase can change *after* the round's termination check ran.  When the
/// worklist then empties, the engine must not fast-forward past the round
/// boundary at which the oracle observes the quiescence.
#[test]
fn quiescent_termination_fires_at_the_reference_round_despite_skipping() {
    for rounds in [1u32, 3, 7] {
        let g = generators::path(4, 5).unwrap();
        let config = SimConfig::new(2)
            .termination(Termination::Quiescent)
            .max_rounds(100_000);
        let report = assert_matches_oracle(
            &g,
            &config,
            Seeding::AllToAll,
            || Countdown {
                remaining: vec![rounds; 4],
            },
            &format!("countdown {rounds}"),
        );
        assert!(report.completed, "countdown {rounds}");
        // The last decrement happens in round `rounds - 1`'s decision
        // phase; the oracle sees all-idle at the next boundary.
        assert_eq!(
            u32::try_from(report.rounds).unwrap(),
            rounds,
            "countdown {rounds}"
        );
    }
}

/// The cap interaction: when nothing is in flight, nothing is queued, and no
/// node is active, the engine jumps straight to `max_rounds` — reporting the
/// identical not-completed run the oracle reaches by spinning.
#[test]
fn empty_universe_jumps_to_the_round_cap() {
    let g = generators::path(2, 3).unwrap();
    let config = SimConfig::new(1)
        .termination(Termination::AllKnowRumorOf(NodeId::new(0)))
        .max_rounds(50_000);
    // OneShot disseminates 0's rumor to node 1 and then nothing further can
    // happen; AllKnowRumorOf(0) is satisfied at the delivery, so use a
    // protocol that never acts instead to pin the never-completing path.
    let report = assert_matches_oracle(
        &g,
        &config,
        Seeding::AllToAll,
        || gossip_sim::protocols::Silent,
        "round cap",
    );
    assert!(!report.completed);
    assert_eq!(report.rounds, 50_000);
    let mem = report.mem.unwrap();
    assert_eq!(mem.rounds_simulated, 1, "one look is enough ({mem:?})");
    assert_eq!(mem.rounds_skipped, 49_999, "{mem:?}");
}
