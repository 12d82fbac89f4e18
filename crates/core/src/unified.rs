//! The unified upper bound (Section 6, Theorem 31 / Corollary 32).
//!
//! The paper's final algorithm simply runs both routes in parallel and stops
//! with whichever finishes first:
//!
//! * **push–pull**, which costs `O((ℓ*/φ*)·log n)` and needs no knowledge of
//!   the latencies, and
//! * the **spanner route** — latency discovery (if latencies are unknown)
//!   followed by spanner broadcast — which costs `O((D+Δ)·log³ n)`
//!   (or `O(D·log³ n)` when latencies are known).
//!
//! Running two protocols "in parallel" doubles the per-round communication
//! but not the round count, so the unified bound is the minimum of the two.

use gossip_graph::{Graph, NodeId};

use crate::{discovery, push_pull, spanner_broadcast, DisseminationReport, Phase};

/// Which of the two routes finished first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Winner {
    /// Push–pull finished first (the `ℓ*/φ*·log n` regime).
    PushPull,
    /// The spanner route finished first (the `(D+Δ)·log³ n` regime).
    SpannerRoute,
}

/// Detailed outcome of the unified algorithm.
#[derive(Debug, Clone)]
pub struct UnifiedReport {
    /// Rounds of the push–pull route.
    pub push_pull: DisseminationReport,
    /// Rounds of the spanner route (discovery + spanner broadcast when
    /// latencies are unknown; spanner broadcast alone when they are known).
    pub spanner_route: DisseminationReport,
    /// Which route finished first.
    pub winner: Winner,
    /// The unified round count: the minimum of the two routes.
    pub rounds: u64,
    /// True when at least one route completed dissemination.
    pub completed: bool,
}

impl UnifiedReport {
    fn from_routes(push_pull: DisseminationReport, spanner_route: DisseminationReport) -> Self {
        // An incomplete route never wins against a complete one.
        let pp_key = (u64::from(!push_pull.completed), push_pull.rounds);
        let sp_key = (u64::from(!spanner_route.completed), spanner_route.rounds);
        let winner = if pp_key <= sp_key {
            Winner::PushPull
        } else {
            Winner::SpannerRoute
        };
        let (rounds, completed) = match winner {
            Winner::PushPull => (push_pull.rounds, push_pull.completed),
            Winner::SpannerRoute => (spanner_route.rounds, spanner_route.completed),
        };
        UnifiedReport {
            push_pull,
            spanner_route,
            winner,
            rounds,
            completed,
        }
    }
}

/// Unified algorithm in the *unknown latency* setting (Theorem 31, first
/// bound): push–pull races against latency discovery + spanner broadcast with
/// the guess-and-double driver.
pub fn run_unknown_latencies(g: &Graph, source: NodeId, seed: u64) -> UnifiedReport {
    let pp = push_pull::broadcast(g, source, seed);

    let disc = discovery::discover_all(g, seed ^ 0xd15c);
    let sb = spanner_broadcast::run_unknown_diameter(g, seed ^ 0x5b);
    let mut phases = vec![Phase::new(
        "latency-discovery",
        disc.report.rounds,
        disc.report.activations,
    )];
    phases.extend(sb.phases.clone());
    let spanner_route =
        DisseminationReport::from_phases("discovery + spanner-broadcast", phases, sb.completed);

    UnifiedReport::from_routes(pp, spanner_route)
}

/// Unified algorithm in the *known latency* setting (Theorem 31, second
/// bound): push–pull races against spanner broadcast with the known diameter
/// `d` (usually [`crate::diameter_bound`]`(g)`; see
/// [`spanner_broadcast::run_known_diameter_with`]).
pub fn run_known_latencies_with(
    g: &Graph,
    source: NodeId,
    d: gossip_graph::Latency,
    seed: u64,
) -> UnifiedReport {
    let pp = push_pull::broadcast(g, source, seed);
    let sb = spanner_broadcast::run_known_diameter_with(g, d, seed ^ 0x5b);
    UnifiedReport::from_routes(pp, sb)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gossip_graph::generators;

    #[test]
    fn unified_completes_on_mixed_families() {
        for g in [
            generators::clique(16, 1).unwrap(),
            generators::dumbbell(6, 8).unwrap(),
            generators::ring_of_cliques(3, 4, 6).unwrap(),
        ] {
            let r = run_known_latencies_with(&g, NodeId::new(0), crate::diameter_bound(&g), 3);
            assert!(r.completed);
            assert!(r.rounds <= r.push_pull.rounds.max(r.spanner_route.rounds));
        }
    }

    #[test]
    fn push_pull_wins_on_well_connected_fast_graphs() {
        // A unit-latency clique: ℓ*/φ*·log n is tiny, while the spanner route
        // pays log³ n discovery overhead.
        let g = generators::clique(32, 1).unwrap();
        let r = run_known_latencies_with(&g, NodeId::new(0), crate::diameter_bound(&g), 5);
        assert!(r.completed);
        assert_eq!(r.winner, Winner::PushPull);
    }

    #[test]
    fn unified_rounds_is_min_of_routes() {
        let g = generators::grid(4, 4, 2).unwrap();
        let r = run_unknown_latencies(&g, NodeId::new(0), 9);
        assert!(r.completed);
        assert_eq!(r.rounds, r.push_pull.rounds.min(r.spanner_route.rounds));
    }

    #[test]
    fn report_exposes_both_routes() {
        let g = generators::cycle(10, 2).unwrap();
        let r = run_known_latencies_with(&g, NodeId::new(0), crate::diameter_bound(&g), 1);
        assert!(r.push_pull.rounds > 0);
        assert!(r.spanner_route.rounds > 0);
        assert!(r.spanner_route.phase_rounds("rr-broadcast") > 0);
    }
}
