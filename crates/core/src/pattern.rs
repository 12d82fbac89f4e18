//! Pattern Broadcast (Section 4.2, Algorithm 5, Lemmas 26–28): a deterministic
//! all-to-all dissemination algorithm built from ℓ-DTG invocations.
//!
//! The schedule `T(k)` is defined recursively:
//!
//! ```text
//! T(1) = 1-DTG
//! T(k) = T(k/2) · k-DTG · T(k/2)
//! ```
//!
//! so the sequence of ℓ-parameters is `1, 2, 1, 4, 1, 2, 1, 8, …`.  Lemma 26
//! shows that after running `T(k)` every pair of nodes within weighted
//! distance `k` has exchanged rumors, and Lemma 27 bounds the cost by
//! `O(k·log² n·log k)`.  The algorithm needs no knowledge of `n` and works
//! even with blocking communication; the simulator's exchanges are
//! non-blocking, and each ℓ-DTG node already waits for its own exchange to
//! complete before starting the next, so every run is also a blocking run.
//! For an unknown diameter it is wrapped in the same guess-and-double /
//! Termination_Check loop as the spanner algorithm (Algorithm 5).

use gossip_graph::{Graph, Latency};
use gossip_sim::{RumorSet, Seeding};

use crate::{dtg, DisseminationReport, Phase};

/// The recursive schedule `T(k)`: the sequence of ℓ-DTG parameters.
///
/// `k` is rounded up to the next power of two (the recursion halves `k`).
///
/// ```rust
/// assert_eq!(gossip_core::pattern::schedule(4), vec![1, 2, 1, 4, 1, 2, 1]);
/// ```
pub fn schedule(k: Latency) -> Vec<Latency> {
    let k = k.max(1).next_power_of_two();
    if k == 1 {
        return vec![1];
    }
    let half = schedule(k / 2);
    let mut out = half.clone();
    out.push(k);
    out.extend(half);
    out
}

/// Runs the full schedule `T(k)` starting from the given rumor sets and
/// returns the report and final rumor sets.
///
/// # Panics
///
/// Panics if `rumors.len()` differs from the node count of `g`.
pub fn run_schedule(
    g: &Graph,
    k: Latency,
    seed: u64,
    mut rumors: Vec<RumorSet>,
) -> (DisseminationReport, Vec<RumorSet>) {
    let mut phases = Vec::new();
    for (idx, ell) in schedule(k).into_iter().enumerate() {
        let (report, new_rumors, _) =
            dtg::run_with_rumors(g, ell, seed.wrapping_add(idx as u64), rumors, false);
        rumors = new_rumors;
        phases.push(Phase::new(
            format!("{ell}-dtg"),
            report.rounds,
            report.activations,
        ));
    }
    let completed = rumors.iter().all(RumorSet::is_full);
    (
        DisseminationReport::from_phases("pattern-broadcast", phases, completed),
        rumors,
    )
}

/// Pattern Broadcast with a known diameter `d`: runs `T(d)` once (Lemma 27).
///
/// "Known D" is usually [`crate::diameter_bound`]`(g)`, the diameter-bound
/// oracle (exact below the threshold, an upper bound `≥ D` above it); the
/// schedule rounds `k` up to a power of two anyway, so a constant-factor
/// overshoot only ever doubles the top-level `k`.
pub fn run_known_diameter_with(g: &Graph, d: Latency, seed: u64) -> DisseminationReport {
    let rumors = Seeding::AllToAll.initial_sets(g.node_count());
    run_schedule(g, d.max(1), seed, rumors).0
}

/// Pattern Broadcast with an unknown diameter (Algorithm 5): guess-and-double
/// on `k`, with a Termination_Check after every guess whose cost equals one
/// more `T(k)` pass (the check broadcasts and gathers rumor-set digests using
/// the same schedule).
pub fn run_unknown_diameter(g: &Graph, seed: u64) -> DisseminationReport {
    crate::guess_and_double(g, "pattern-broadcast (unknown D)", |guess, rumors| {
        let (report, rumors) = run_schedule(g, guess, seed ^ guess, rumors);
        let label = format!("T({guess})");
        let pass = Phase::new(label.clone(), report.rounds, report.activations);
        (label, vec![pass], report.rounds, rumors)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gossip_graph::generators;

    #[test]
    fn schedule_matches_the_paper_pattern() {
        assert_eq!(schedule(1), vec![1]);
        assert_eq!(schedule(2), vec![1, 2, 1]);
        assert_eq!(schedule(4), vec![1, 2, 1, 4, 1, 2, 1]);
        assert_eq!(
            schedule(8),
            vec![1, 2, 1, 4, 1, 2, 1, 8, 1, 2, 1, 4, 1, 2, 1]
        );
        // Non-powers of two round up.
        assert_eq!(schedule(3), schedule(4));
        assert_eq!(schedule(5), schedule(8));
    }

    #[test]
    fn schedule_length_is_2k_minus_1() {
        for k in [1u64, 2, 4, 8, 16, 32] {
            assert_eq!(schedule(k).len() as u64, 2 * k - 1);
        }
    }

    #[test]
    fn known_diameter_completes_on_unit_latency_families() {
        for g in [
            generators::clique(12, 1).unwrap(),
            generators::cycle(12, 1).unwrap(),
            generators::grid(3, 4, 1).unwrap(),
        ] {
            let r = run_known_diameter_with(&g, crate::diameter_bound(&g), 3);
            assert!(
                r.completed,
                "pattern broadcast failed on {} nodes",
                g.node_count()
            );
        }
    }

    #[test]
    fn known_diameter_completes_with_mixed_latencies() {
        let g = generators::dumbbell(4, 8).unwrap();
        let r = run_known_diameter_with(&g, crate::diameter_bound(&g), 5);
        assert!(r.completed);
        // The schedule must have included an 8-DTG (or larger) phase to cross the bridge.
        assert!(r
            .phases
            .iter()
            .any(|p| p.name == "8-dtg" || p.name == "16-dtg"));
    }

    #[test]
    fn unknown_diameter_completes_and_reports_doubling_phases() {
        let g = generators::dumbbell(4, 8).unwrap();
        let r = run_unknown_diameter(&g, 2);
        assert!(r.completed);
        assert!(r.phases.iter().any(|p| p.name.starts_with("T(1)")));
        assert!(r
            .phases
            .iter()
            .any(|p| p.name.starts_with("T(8)") || p.name.starts_with("T(16)")));
    }

    #[test]
    fn phases_sum_to_total_rounds() {
        let g = generators::ring_of_cliques(3, 3, 4).unwrap();
        let r = run_known_diameter_with(&g, crate::diameter_bound(&g), 9);
        assert_eq!(r.rounds, r.phases.iter().map(|p| p.rounds).sum::<u64>());
    }
}
