//! Spanner Broadcast (Algorithms 2–4 of the paper): all-to-all information
//! dissemination in `O(D·log³ n)` rounds when latencies are known.
//!
//! The algorithm has three phases:
//!
//! 1. **Neighborhood discovery** — `O(log n)` repetitions of `D`-DTG give every
//!    node its `log n`-hop neighborhood (Theorem 20).  We run one `D`-DTG
//!    round-accurately and charge its measured cost `⌈log₂ n⌉` times, since
//!    each repetition is the same protocol over the same subgraph.
//! 2. **Spanner construction** — a purely local computation
//!    ([`crate::spanner::log_spanner`]), costing zero communication rounds.
//! 3. **RR Broadcast** — round-robin dissemination over the directed spanner
//!    ([`crate::rr_broadcast`]), `O(D·log² n)` rounds (Corollary 22).
//!
//! When the diameter is unknown (Section 4.1.4), the driver guesses `D = 1`
//! and doubles until the Termination_Check (Algorithm 3) passes; the check is
//! itself one more broadcast over the current spanner, and Lemma 24 shows all
//! nodes stop in the same phase.

use gossip_graph::{Graph, Latency};
use gossip_sim::{RumorSet, Seeding};

use crate::{dtg, rr_broadcast, spanner, DisseminationReport, Phase};

/// Runs Spanner Broadcast with a known diameter `d` (Algorithm 2 / Lemma 23).
///
/// "Known D" is usually [`crate::diameter_bound`]`(g)`, the diameter-bound
/// oracle: exact below the threshold, a constant-sweep upper bound `≥ D`
/// above it — the algorithm's phases only need `D` up to constant factors,
/// which the bound preserves.  Callers that already hold a bound (the sweep
/// caches one per topology) pass it instead of recomputing it.
pub fn run_known_diameter_with(g: &Graph, d: Latency, seed: u64) -> DisseminationReport {
    let rumors = Seeding::AllToAll.initial_sets(g.node_count());
    run_with_guess(g, d.max(1), seed, rumors).0
}

/// Runs Spanner Broadcast with the guess-and-double strategy for an unknown
/// diameter (Algorithm 4 / Theorem 25).
///
/// Every phase uses the latency-filtered graph `G_k`; knowledge gained in one
/// phase is carried into the next (rumors are never forgotten).  Each phase is
/// followed by a Termination_Check whose cost equals one more broadcast pass
/// over the same spanner (Algorithm 3).
pub fn run_unknown_diameter(g: &Graph, seed: u64) -> DisseminationReport {
    crate::guess_and_double(g, "spanner-broadcast (unknown D)", |guess, rumors| {
        let (report, rumors) = run_with_guess(g, guess, seed ^ guess, rumors);
        // Termination_Check: one more broadcast pass over the current
        // spanner, so it costs what the last phase cost (Algorithm 3).
        let check_rounds = report.phases.last().map_or(0, |p| p.rounds);
        let phases = report
            .phases
            .into_iter()
            .map(|p| Phase::new(format!("k={guess}: {}", p.name), p.rounds, p.activations))
            .collect();
        (format!("k={guess}"), phases, check_rounds, rumors)
    })
}

/// One Spanner Broadcast pass with diameter guess `k`, starting from the given
/// rumor sets.  Returns the phase report and the resulting rumor sets.
pub fn run_with_guess(
    g: &Graph,
    k: Latency,
    seed: u64,
    rumors: Vec<RumorSet>,
) -> (DisseminationReport, Vec<RumorSet>) {
    let filtered = g.latency_filtered(k);
    let log_n = spanner::ceil_log2(g.node_count());

    // Phase 1: neighborhood discovery = O(log n) repetitions of k-DTG on G_k.
    let (dtg_report, rumors, _) = dtg::run_with_rumors(&filtered, k, seed, rumors, false);
    let discovery = Phase::new(
        "discovery",
        dtg_report.rounds * log_n,
        dtg_report.activations * log_n,
    );

    // Phase 2: local spanner construction on G_k (no communication).
    let spanner = spanner::log_spanner(&filtered, seed ^ 0x5eed);
    let construction = Phase::new("spanner-construction", 0, 0);

    // Phase 3: RR Broadcast over the directed spanner with parameter O(k·log n).
    let rr_k = k.saturating_mul(log_n + 1);
    let (rr_report, rumors) =
        rr_broadcast::run_with_rumors(&filtered, &spanner, rr_k, seed ^ 0xb0a, rumors);

    let completed = rumors.iter().all(RumorSet::is_full);
    let report = DisseminationReport::from_phases(
        "spanner-broadcast",
        vec![
            discovery,
            construction,
            Phase::new("rr-broadcast", rr_report.rounds, rr_report.activations),
        ],
        completed,
    );
    (report, rumors)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gossip_graph::generators;

    #[test]
    fn known_diameter_completes_on_basic_families() {
        for g in [
            generators::clique(16, 1).unwrap(),
            generators::dumbbell(6, 8).unwrap(),
            generators::ring_of_cliques(4, 4, 4).unwrap(),
            generators::grid(4, 4, 2).unwrap(),
        ] {
            let r = run_known_diameter_with(&g, crate::diameter_bound(&g), 3);
            assert!(
                r.completed,
                "spanner broadcast failed on {} nodes",
                g.node_count()
            );
            assert!(r.phase_rounds("discovery") > 0);
            // The rr-broadcast phase can legitimately be 0 rounds when the
            // discovery phase already disseminated everything (small dense graphs).
        }
    }

    #[test]
    fn unknown_diameter_completes_and_costs_more_than_known() {
        let g = generators::dumbbell(6, 8).unwrap();
        let known = run_known_diameter_with(&g, crate::diameter_bound(&g), 7);
        let unknown = run_unknown_diameter(&g, 7);
        assert!(known.completed && unknown.completed);
        assert!(
            unknown.rounds >= known.rounds,
            "guess-and-double ({}) should not beat the known-D run ({})",
            unknown.rounds,
            known.rounds
        );
    }

    #[test]
    fn unknown_diameter_doubles_until_the_bridge_is_covered() {
        let g = generators::dumbbell(4, 32).unwrap();
        let r = run_unknown_diameter(&g, 1);
        assert!(r.completed);
        // Phases for guesses 1, 2, ... must appear until one covers latency 32.
        assert!(r.phases.iter().any(|p| p.name.starts_with("k=1:")));
        assert!(r
            .phases
            .iter()
            .any(|p| p.name.starts_with("k=32:") || p.name.starts_with("k=64:")));
    }

    #[test]
    fn report_phases_sum_to_total() {
        let g = generators::ring_of_cliques(3, 4, 4).unwrap();
        let r = run_known_diameter_with(&g, crate::diameter_bound(&g), 5);
        let sum: u64 = r.phases.iter().map(|p| p.rounds).sum();
        assert_eq!(sum, r.rounds);
    }

    #[test]
    fn scales_roughly_with_diameter_not_conductance() {
        // Two graphs with the same size but very different diameters: the
        // spanner broadcast cost should grow with D.
        let small_d = generators::clique(24, 1).unwrap();
        let large_d = generators::path(24, 8).unwrap();
        let a = run_known_diameter_with(&small_d, crate::diameter_bound(&small_d), 2);
        let b = run_known_diameter_with(&large_d, crate::diameter_bound(&large_d), 2);
        assert!(a.completed && b.completed);
        assert!(
            b.rounds > a.rounds,
            "path with D={} ({} rounds) should cost more than clique with D=1 ({} rounds)",
            8 * 23,
            b.rounds,
            a.rounds
        );
    }
}
