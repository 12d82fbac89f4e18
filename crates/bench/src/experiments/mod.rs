//! The experiment index: each experiment, the paper claim it checks, and
//! the function that runs it.
//!
//! | Experiment | Paper claim | Function |
//! |------------|-------------|----------|
//! | E1 | Theorem 5 sandwich between `φ*` and `φ_avg` | [`conductance::e1_theorem5`] |
//! | E2 | Lemma 7 / Theorem 9: singleton guessing and `Ω(Δ)` local broadcast | [`guessing::e2_singleton_game`], [`guessing::e2_theorem9_network`] |
//! | E3 | Lemma 8 / Theorem 10: `Random_p` guessing and push–pull on the bipartite gadget | [`guessing::e3_random_game`], [`guessing::e3_theorem10_network`] |
//! | E4 | Theorem 13: `Ω(min(Δ+D, ℓ/φ))` trade-off on the ring | [`ring::e4_tradeoff`] |
//! | E5 | Theorem 29: push–pull in `O((ℓ*/φ*)·log n)` | [`upper_bounds::e5_push_pull`] |
//! | E6 | Lemma 19–23 / Theorem 20/25: spanner properties and `O(D·log³ n)` broadcast | [`upper_bounds::e6_spanner`], [`upper_bounds::e6_spanner_broadcast`] |
//! | E7 | Lemmas 26–28: pattern broadcast in `O(D·log² n·log D)` | [`upper_bounds::e7_pattern`] |
//! | E8 | Theorem 31: the unified bound and its regime crossover | [`upper_bounds::e8_unified`] |
//! | F1 | Figure 1: gadget wiring | [`figures::f1_gadgets`] |
//! | F2 | Figure 2 / Lemmas 15–17: ring conductance | [`ring::f2_ring_conductance`] |
//! | F8 | Figures 8–9: ℓ-DTG cost `O(ℓ·log² n)` | [`figures::f8_dtg`] |

pub mod conductance;
pub mod figures;
pub mod guessing;
pub mod ring;
pub mod upper_bounds;

use crate::{Scale, Table};

/// Runs every experiment and returns all tables, in index order.
pub fn run_all(scale: Scale) -> Vec<Table> {
    vec![
        conductance::e1_theorem5(scale),
        guessing::e2_singleton_game(scale),
        guessing::e2_theorem9_network(scale),
        guessing::e3_random_game(scale),
        guessing::e3_theorem10_network(scale),
        ring::e4_tradeoff(scale),
        upper_bounds::e5_push_pull(scale),
        upper_bounds::e6_spanner(scale),
        upper_bounds::e6_spanner_broadcast(scale),
        upper_bounds::e7_pattern(scale),
        upper_bounds::e8_unified(scale),
        figures::f1_gadgets(scale),
        ring::f2_ring_conductance(scale),
        figures::f8_dtg(scale),
    ]
}

/// Looks up a single experiment by its id (`"e1"`, `"e6b"`, `"f2"`, …).
///
/// Returns `None` for unknown ids.
pub fn run_one(id: &str, scale: Scale) -> Option<Vec<Table>> {
    let tables = match id.to_ascii_lowercase().as_str() {
        "e1" => vec![conductance::e1_theorem5(scale)],
        "e2" => vec![
            guessing::e2_singleton_game(scale),
            guessing::e2_theorem9_network(scale),
        ],
        "e3" => vec![
            guessing::e3_random_game(scale),
            guessing::e3_theorem10_network(scale),
        ],
        "e4" => vec![ring::e4_tradeoff(scale)],
        "e5" => vec![upper_bounds::e5_push_pull(scale)],
        "e6" => vec![
            upper_bounds::e6_spanner(scale),
            upper_bounds::e6_spanner_broadcast(scale),
        ],
        "e7" => vec![upper_bounds::e7_pattern(scale)],
        "e8" => vec![upper_bounds::e8_unified(scale)],
        "f1" => vec![figures::f1_gadgets(scale)],
        "f2" => vec![ring::f2_ring_conductance(scale)],
        "f8" => vec![figures::f8_dtg(scale)],
        "all" => run_all(scale),
        _ => return None,
    };
    Some(tables)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_one_knows_every_experiment_id() {
        for id in [
            "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "f1", "f2", "f8",
        ] {
            assert!(
                run_one(id, Scale::Quick).is_some(),
                "unknown experiment id {id}"
            );
        }
        assert!(run_one("nope", Scale::Quick).is_none());
    }
}
