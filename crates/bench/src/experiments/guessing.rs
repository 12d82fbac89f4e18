//! E2 / E3 — the guessing-game lower bounds (Lemmas 7–8) and the networks
//! that embed them (Theorems 9–10).

use gossip_lowerbound::gadgets;
use gossip_lowerbound::game::GuessingGame;
use gossip_lowerbound::predicates::TargetPredicate;
use gossip_lowerbound::reduction::push_pull_reduction;
use gossip_lowerbound::strategies::{
    play, AliceStrategy, ColumnSweep, FreshGreedy, RandomGuessing,
};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::{Cell, Scale, Table};

fn average_game_rounds<S, F>(
    m: usize,
    predicate: TargetPredicate,
    trials: u64,
    seed: u64,
    mut make: F,
) -> f64
where
    S: AliceStrategy,
    F: FnMut() -> S,
{
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut total = 0u64;
    for _ in 0..trials {
        let game = GuessingGame::new(m, predicate, &mut rng);
        let mut strategy = make();
        let out = play(game, &mut strategy, 10_000_000, &mut rng);
        total += out.rounds;
    }
    total as f64 / trials as f64
}

/// E2(a) — Lemma 7: rounds to solve `Guessing(2m, |T| = 1)` as a function of `m`.
pub fn e2_singleton_game(scale: Scale) -> Table {
    let trials = scale.pick(10, 30);
    let sizes: Vec<usize> = scale.pick(vec![8, 16, 32], vec![16, 32, 64, 128, 256, 512]);
    let mut table = Table::new(
        "E2a (Lemma 7): rounds to solve Guessing(2m, |T|=1), average over trials",
        &[
            "m",
            "random-guessing",
            "fresh-greedy",
            "column-sweep",
            "rounds/m (random)",
        ],
    );
    for m in sizes {
        let random = average_game_rounds::<RandomGuessing, _>(
            m,
            TargetPredicate::Singleton,
            trials,
            0xE2 + m as u64,
            || RandomGuessing,
        );
        let greedy = average_game_rounds::<FreshGreedy, _>(
            m,
            TargetPredicate::Singleton,
            trials,
            0x2E2 + m as u64,
            FreshGreedy::default,
        );
        let sweep = average_game_rounds::<ColumnSweep, _>(
            m,
            TargetPredicate::Singleton,
            trials,
            0x3E2 + m as u64,
            || ColumnSweep,
        );
        table.push_row(vec![
            Cell::from(m),
            Cell::from(random),
            Cell::from(greedy),
            Cell::from(sweep),
            Cell::from(random / m as f64),
        ]);
    }
    table
}

/// E2(b) — Theorem 9: local broadcast on the gadget+expander network needs
/// rounds growing with `Δ`, even though the diameter stays `O(log n)`.
pub fn e2_theorem9_network(scale: Scale) -> Table {
    let deltas: Vec<usize> = scale.pick(vec![4, 8], vec![8, 16, 32, 64]);
    let n = scale.pick(48, 256);
    let mut table = Table::new(
        "E2b (Theorem 9): push-pull local broadcast on the Theorem-9 network",
        &["n", "delta", "max_degree", "rounds", "rounds/delta"],
    );
    let mut rng = SmallRng::seed_from_u64(0x79);
    for delta in deltas {
        let net = match gadgets::theorem9_network(n.max(2 * delta + 6), delta, &mut rng) {
            Ok(net) => net,
            Err(_) => continue,
        };
        let out = push_pull_reduction(&net, 0x900 + delta as u64);
        table.push_row(vec![
            Cell::from(net.graph.node_count()),
            Cell::from(delta),
            Cell::from(net.graph.max_degree()),
            Cell::from(out.gossip_rounds),
            Cell::from(out.gossip_rounds as f64 / delta as f64),
        ]);
    }
    table
}

/// E3(a) — Lemma 8: rounds to solve `Guessing(2m, Random_p)` as a function of
/// `p`, for the informed strategy (Θ(1/p)) and random guessing (Θ(log m / p)).
pub fn e3_random_game(scale: Scale) -> Table {
    let trials = scale.pick(6, 20);
    let m = scale.pick(32, 128);
    let ps: Vec<f64> = scale.pick(
        vec![0.25, 0.1],
        vec![0.25, 0.125, 0.0625, 0.03125, 0.015625],
    );
    let mut table = Table::new(
        "E3a (Lemma 8): rounds to solve Guessing(2m, Random_p)",
        &[
            "m",
            "p",
            "fresh-greedy",
            "greedy*p",
            "random-guessing",
            "random*p",
            "random/greedy",
        ],
    );
    for p in ps {
        let greedy = average_game_rounds::<FreshGreedy, _>(
            m,
            TargetPredicate::Random { p },
            trials,
            0xE3,
            FreshGreedy::default,
        );
        let random = average_game_rounds::<RandomGuessing, _>(
            m,
            TargetPredicate::Random { p },
            trials,
            0x2E3,
            || RandomGuessing,
        );
        table.push_row(vec![
            Cell::from(m),
            Cell::from(p),
            Cell::from(greedy),
            Cell::from(greedy * p),
            Cell::from(random),
            Cell::from(random * p),
            Cell::from(random / greedy.max(1e-9)),
        ]);
    }
    table
}

/// E3(b) — Theorem 10: push–pull local broadcast on `G(2n, ℓ, n², Random_φ)`
/// needs `Ω(log n/φ + ℓ)` rounds; the reduction also reports the derived
/// guessing-game rounds (Lemma 6).
pub fn e3_theorem10_network(scale: Scale) -> Table {
    let n = scale.pick(24, 96);
    let configs: Vec<(f64, u64)> = scale.pick(
        vec![(0.3, 2), (0.1, 8)],
        vec![
            (0.4, 2),
            (0.2, 2),
            (0.1, 2),
            (0.1, 16),
            (0.05, 16),
            (0.05, 64),
        ],
    );
    let mut table = Table::new(
        "E3b (Theorem 10): push-pull local broadcast on G(2n, ell, n^2, Random_phi)",
        &[
            "n",
            "phi",
            "ell",
            "gossip rounds",
            "game rounds",
            "rounds*phi",
            "bound 1/phi + ell",
        ],
    );
    let mut rng = SmallRng::seed_from_u64(0x710);
    for (phi, ell) in configs {
        let Ok(net) = gadgets::theorem10_network(n, phi, ell, &mut rng) else {
            continue;
        };
        let out = push_pull_reduction(&net, 0xA00 + ell);
        let bound = 1.0 / phi + ell as f64;
        table.push_row(vec![
            Cell::from(n),
            Cell::from(phi),
            Cell::from(ell),
            Cell::from(out.gossip_rounds),
            Cell::from(out.game_rounds.unwrap_or(0)),
            Cell::from(out.gossip_rounds as f64 * phi),
            Cell::from(bound),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e2_singleton_rounds_grow_with_m() {
        let t = e2_singleton_game(Scale::Quick);
        assert!(t.rows.len() >= 3);
        let first = match t.rows.first().unwrap()[1] {
            Cell::Float(v) => v,
            _ => panic!("expected float"),
        };
        let last = match t.rows.last().unwrap()[1] {
            Cell::Float(v) => v,
            _ => panic!("expected float"),
        };
        assert!(last > first, "singleton game rounds must grow with m");
    }

    #[test]
    fn e2_theorem9_rounds_grow_with_delta() {
        let t = e2_theorem9_network(Scale::Quick);
        assert!(t.rows.len() >= 2);
        let rounds: Vec<i64> = t
            .rows
            .iter()
            .map(|r| match r[3] {
                Cell::Int(v) => v,
                _ => panic!("expected int"),
            })
            .collect();
        assert!(rounds.last().unwrap() > rounds.first().unwrap());
    }

    #[test]
    fn e3_tables_are_nonempty() {
        assert!(!e3_random_game(Scale::Quick).rows.is_empty());
        assert!(!e3_theorem10_network(Scale::Quick).rows.is_empty());
    }
}
