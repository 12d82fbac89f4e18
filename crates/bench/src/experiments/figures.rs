//! F1 / F8 — structural checks of Figure 1 (the gadgets) and Figures 8–9
//! (the DTG building block).

use gossip_core::dtg;
use gossip_graph::{generators, metrics};
use gossip_lowerbound::gadgets;
use gossip_lowerbound::predicates::TargetPredicate;
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::{Cell, Scale, Table};

fn log2(n: usize) -> f64 {
    (n.max(2) as f64).log2()
}

/// F1 — Figure 1: the asymmetric and symmetric guessing-game gadgets, their
/// sizes, the number of hidden fast cross edges, and their weighted diameters.
pub fn f1_gadgets(scale: Scale) -> Table {
    let sizes: Vec<usize> = scale.pick(vec![4, 8], vec![8, 16, 32, 64]);
    let mut table = Table::new(
        "F1 (Figure 1): guessing-game gadgets G and Gsym",
        &[
            "m",
            "variant",
            "nodes",
            "edges",
            "fast cross edges",
            "weighted diameter",
        ],
    );
    let mut rng = SmallRng::seed_from_u64(0xF1);
    for m in sizes {
        for (variant, symmetric) in [("G", false), ("Gsym", true)] {
            let Ok(net) = gadgets::gadget(
                m,
                1,
                (m as u64).max(2) * 4,
                TargetPredicate::Singleton,
                symmetric,
                &mut rng,
            ) else {
                continue;
            };
            let fast_cross = net
                .graph
                .edges()
                .filter(|rec| {
                    let cross = (rec.u.index() < m) != (rec.v.index() < m);
                    cross && rec.latency == 1
                })
                .count();
            table.push_row(vec![
                Cell::from(m),
                Cell::from(variant),
                Cell::from(net.graph.node_count()),
                Cell::from(net.graph.edge_count()),
                Cell::from(fast_cross),
                Cell::from(metrics::weighted_diameter(&net.graph).unwrap_or(0)),
            ]);
        }
    }
    table
}

/// F8 — Figures 8–9 / Appendix A.1: the ℓ-DTG local broadcast completes in
/// `O(ℓ·log² n)` rounds with `O(log n)` iterations.
pub fn f8_dtg(scale: Scale) -> Table {
    let sizes: Vec<usize> = scale.pick(vec![16, 32], vec![32, 64, 128, 256]);
    let ells: Vec<u64> = scale.pick(vec![1, 4], vec![1, 4, 16]);
    let mut table = Table::new(
        "F8 (Appendix A.1): ell-DTG local broadcast rounds vs ell log^2 n",
        &[
            "n",
            "ell",
            "rounds",
            "bound ell log^2 n",
            "rounds/bound",
            "max iterations",
            "log2 n",
        ],
    );
    for &n in &sizes {
        for &ell in &ells {
            let g = generators::clique(n, ell).unwrap();
            let rumors = gossip_sim::Seeding::AllToAll.initial_sets(g.node_count());
            let (report, final_rumors, iterations) =
                dtg::run_with_rumors(&g, ell, 0xF8 + n as u64, rumors, false);
            assert!(dtg::local_broadcast_achieved(&g, ell, &final_rumors));
            let bound = ell as f64 * log2(n) * log2(n);
            table.push_row(vec![
                Cell::from(n),
                Cell::from(ell),
                Cell::from(report.rounds),
                Cell::from(bound),
                Cell::from(report.rounds as f64 / bound.max(1.0)),
                Cell::from(iterations),
                Cell::from(log2(n)),
            ]);
        }
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f1_gadgets_have_exactly_one_fast_cross_edge() {
        let t = f1_gadgets(Scale::Quick);
        for row in &t.rows {
            let fast = match row[4] {
                Cell::Int(v) => v,
                _ => panic!(),
            };
            assert_eq!(
                fast, 1,
                "singleton predicate must plant exactly one fast cross edge"
            );
        }
    }

    #[test]
    fn f8_dtg_cost_grows_with_ell() {
        let t = f8_dtg(Scale::Quick);
        // Compare the two ell values for the same n.
        let rounds: Vec<i64> = t
            .rows
            .iter()
            .map(|r| match r[2] {
                Cell::Int(v) => v,
                _ => panic!(),
            })
            .collect();
        assert!(
            rounds[1] > rounds[0],
            "4-DTG must cost more than 1-DTG on the same clique"
        );
    }
}
