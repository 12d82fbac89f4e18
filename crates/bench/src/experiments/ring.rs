//! E4 / F2 — the Theorem 13 ring of gadgets (Figure 2): the
//! `Ω(min(Δ + D, ℓ/φ))` trade-off and the conductance facts of Lemmas 15–17.

use gossip_conductance::{analyze, phi_ell_of_cut, Method};
use gossip_core::push_pull;
use gossip_graph::cut::Cut;
use gossip_graph::metrics;
use gossip_graph::NodeId;
use gossip_lowerbound::gadgets::{theorem13_parameters, theorem13_ring};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::{Cell, Scale, Table};

/// E4 — sweep the slow latency `ℓ` on a fixed ring and watch the broadcast
/// cost follow `min(Δ + D, ℓ/φ)`: for small `ℓ` the `ℓ/φ` term dominates and
/// the cost grows with `ℓ`; once it crosses `Δ + D` the cost flattens out
/// (the algorithm is better off hunting for the fast edges).
pub fn e4_tradeoff(scale: Scale) -> Table {
    let (layers, layer_size) = match scale {
        Scale::Quick => (4, 4),
        Scale::Full | Scale::Large | Scale::Huge => (8, 8),
    };
    let ells: Vec<u64> = match scale {
        Scale::Quick => vec![2, 8, 32],
        Scale::Full | Scale::Large | Scale::Huge => vec![2, 4, 8, 16, 32, 64, 128, 256],
    };
    let mut table = Table::new(
        "E4 (Theorem 13): push-pull broadcast on the ring of gadgets, sweeping ell",
        &[
            "n",
            "layers",
            "s",
            "ell",
            "D",
            "Delta",
            "phi_ell",
            "bound min(D+Delta, ell/phi)",
            "rounds",
        ],
    );
    let mut rng = SmallRng::seed_from_u64(0xE4);
    for ell in ells {
        let Ok(ring) = theorem13_ring(layers, layer_size, ell, &mut rng) else {
            continue;
        };
        let g = &ring.graph;
        let d = metrics::weighted_diameter(g).unwrap_or(0);
        let delta = g.max_degree() as u64;
        // φ_ℓ at the swept slow latency (Lemma 15 gives α for the balanced
        // ring cut exactly; the sweep estimate over the whole graph is close).
        let phi = analyze(g, Method::SweepCut)
            .map(|c| c.phi_ell(ell))
            .unwrap_or(0.0);
        let bound = ((d + delta) as f64).min(if phi > 0.0 {
            ell as f64 / phi
        } else {
            f64::MAX
        });
        let report = push_pull::broadcast(g, NodeId::new(0), 0x400 + ell);
        table.push_row(vec![
            Cell::from(g.node_count()),
            Cell::from(layers),
            Cell::from(layer_size),
            Cell::from(ell),
            Cell::from(d),
            Cell::from(delta),
            Cell::from(phi),
            Cell::from(bound),
            Cell::from(report.rounds),
        ]);
    }
    table
}

/// F2 — the structural facts of Figure 2: the ring is `(3s−1)`-regular
/// (Observation 14), the balanced cut has `φ_ℓ(C) ≈ s/n'` where `n'` is half
/// the node count (Lemma 15), the graph conductance matches it up to constants
/// (Lemma 16), and `D = Θ(layers/2)`.
pub fn f2_ring_conductance(scale: Scale) -> Table {
    let configs: Vec<(usize, f64)> = match scale {
        Scale::Quick => vec![(24, 0.125), (32, 0.25)],
        Scale::Full | Scale::Large | Scale::Huge => {
            vec![(48, 0.0625), (64, 0.125), (96, 0.1875), (128, 0.25)]
        }
    };
    let mut table = Table::new(
        "F2 (Lemmas 15-17): structure of the Theorem-13 ring",
        &[
            "n(half)",
            "alpha",
            "layers k",
            "s",
            "regular degree",
            "phi_ell(C)",
            "phi_ell (sweep)",
            "D",
            "k/2",
        ],
    );
    // The ring's slow latency, the ℓ both φ_ℓ columns are taken at.
    let ell = 8;
    let mut rng = SmallRng::seed_from_u64(0xF2);
    for (n, alpha) in configs {
        let (k, s) = theorem13_parameters(n, alpha);
        let Ok(ring) = theorem13_ring(k, s, ell, &mut rng) else {
            continue;
        };
        let g = &ring.graph;
        let degree = g.degree(NodeId::new(0));
        // The balanced cut that splits the ring into two arcs of k/2 layers.
        let half_nodes: Vec<NodeId> = (0..(k / 2) * s).map(NodeId::new).collect();
        let cut = Cut::from_side(g, half_nodes);
        let phi_cut = phi_ell_of_cut(g, &cut, ell).unwrap_or(0.0);
        let phi_graph = analyze(g, Method::SweepCut)
            .map(|c| c.phi_ell(ell))
            .unwrap_or(0.0);
        let d = metrics::weighted_diameter(g).unwrap_or(0);
        table.push_row(vec![
            Cell::from(g.node_count() / 2),
            Cell::from(alpha),
            Cell::from(k),
            Cell::from(s),
            Cell::from(degree),
            Cell::from(phi_cut),
            Cell::from(phi_graph),
            Cell::from(d),
            Cell::from(k as f64 / 2.0),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e4_rounds_grow_with_ell_before_the_crossover() {
        let t = e4_tradeoff(Scale::Quick);
        assert!(t.rows.len() >= 2);
        let rounds: Vec<i64> = t
            .rows
            .iter()
            .map(|r| match r[8] {
                Cell::Int(v) => v,
                _ => panic!("expected int"),
            })
            .collect();
        // The slowest configuration should cost more than the fastest.
        assert!(rounds.iter().max().unwrap() > rounds.iter().min().unwrap());
    }

    #[test]
    fn f2_ring_is_regular_and_lemma15_holds_approximately() {
        let t = f2_ring_conductance(Scale::Quick);
        for row in &t.rows {
            let s = match row[3] {
                Cell::Int(v) => v,
                _ => panic!(),
            };
            let degree = match row[4] {
                Cell::Int(v) => v,
                _ => panic!(),
            };
            assert_eq!(degree, 3 * s - 1, "Observation 14 violated");
            let phi_cut = match row[5] {
                Cell::Float(v) => v,
                _ => panic!(),
            };
            assert!(phi_cut > 0.0);
        }
    }
}
