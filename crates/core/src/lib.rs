//! # gossip-core
//!
//! The algorithms of *Slow Links, Fast Links, and the Cost of Gossip*
//! (Sourav, Robinson, Gilbert — ICDCS 2018): information dissemination in
//! graphs whose edges carry latencies.
//!
//! The paper proves that any dissemination algorithm needs
//! `Ω(min(D + Δ, ℓ*/φ*))` rounds and gives nearly matching algorithms:
//!
//! | Section | Algorithm | Bound | Module |
//! |---------|-----------|-------|--------|
//! | §5.1, Thm 29 | classical push–pull | `O((ℓ*/φ*)·log n)` | [`push_pull`] |
//! | App. A.1 | ℓ-DTG local broadcast | `O(ℓ·log² n)` | [`dtg`] |
//! | §4.1, Lem 19–23, Thm 20/25 | directed Baswana–Sen spanner + round-robin broadcast, guess-and-double for unknown `D` | `O(D·log³ n)` | [`spanner`], [`rr_broadcast`], [`spanner_broadcast`] |
//! | §4.2, Lem 26–28 | pattern broadcast `T(k)` | `O(D·log² n·log D)` | [`pattern`] |
//! | §5.2 | latency discovery | `Õ(D + Δ)` | [`discovery`] |
//! | §6, Thm 31 | unified algorithm | `O(min((D+Δ)·log³ n, (ℓ*/φ*)·log n))` | [`unified`] |
//!
//! All algorithms are executed round-accurately on the [`gossip_sim`]
//! simulator; each entry point returns a [`DisseminationReport`] with the
//! measured round count so that the experiment harness can compare the shapes
//! of the curves against the paper's bounds.
//!
//! ```rust
//! use gossip_graph::{generators, NodeId};
//! use gossip_core::{push_pull, spanner_broadcast};
//!
//! // Two 8-cliques joined by a slow bridge.
//! let g = generators::dumbbell(8, 64).unwrap();
//! let pp = push_pull::broadcast(&g, NodeId::new(0), 7);
//! let d = gossip_core::diameter_bound(&g);
//! let sb = spanner_broadcast::run_known_diameter_with(&g, d, 7);
//! assert!(pp.completed && sb.completed);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod report;

pub mod discovery;
pub mod dtg;
pub mod flooding;
pub mod pattern;
pub mod push_pull;
pub mod rr_broadcast;
pub mod spanner;
pub mod spanner_broadcast;
pub mod unified;

pub use report::{DisseminationReport, Phase};

/// The "known D" the phase drivers consume:
/// [`gossip_graph::metrics::diameter_upper_bound`] (the exact `D` up to 1024
/// nodes, a constant-sweep bound in `[D, 2D]` above), falling back to the
/// maximum edge latency for disconnected graphs — on which no all-to-all
/// algorithm can complete, so any positive guess only bounds the wasted
/// work.
///
/// Callers pass it to the known-diameter entry points
/// (`run_known_diameter_with`, `run_known_latencies_with`); drivers that
/// amortise the bound across runs (the sweep caches one per shared
/// topology) compute it once.
pub fn diameter_bound(g: &gossip_graph::Graph) -> gossip_graph::Latency {
    gossip_graph::metrics::diameter_upper_bound(g).unwrap_or_else(|| g.max_latency().max(1))
}

/// One guess of [`guess_and_double`]: the label the guess's Termination_Check
/// is named after, the guess's phases, the rounds its check costs, and the
/// rumor sets it leaves.
type GuessPass = (String, Vec<Phase>, u64, Vec<gossip_sim::RumorSet>);

/// Guess-and-double for an unknown diameter (Algorithms 4 and 5): runs
/// `pass(guess, rumors)` for guesses `1, 2, 4, …` up to the total latency
/// rounded up to a power of two (a trivial upper bound on the diameter),
/// carrying the rumor sets from guess to guess.  After every guess it
/// charges a Termination_Check (`"{label}: termination-check"`) and stops
/// once every rumor set is full.
pub(crate) fn guess_and_double(
    g: &gossip_graph::Graph,
    algorithm: &str,
    mut pass: impl FnMut(gossip_graph::Latency, Vec<gossip_sim::RumorSet>) -> GuessPass,
) -> DisseminationReport {
    let total: u128 = g.total_latency().max(1);
    let mut cap: gossip_graph::Latency = 1;
    while (cap as u128) < total && cap < gossip_graph::Latency::MAX / 2 {
        cap *= 2;
    }
    let mut phases = Vec::new();
    let mut rumors = gossip_sim::Seeding::AllToAll.initial_sets(g.node_count());
    let mut guess: gossip_graph::Latency = 1;
    let mut completed = false;
    while guess <= cap {
        let (label, pass_phases, check_rounds, next) = pass(guess, rumors);
        rumors = next;
        phases.extend(pass_phases);
        phases.push(Phase::new(
            format!("{label}: termination-check"),
            check_rounds,
            0,
        ));
        if rumors.iter().all(gossip_sim::RumorSet::is_full) {
            completed = true;
            break;
        }
        guess = guess.saturating_mul(2);
    }
    DisseminationReport::from_phases(algorithm, phases, completed)
}
