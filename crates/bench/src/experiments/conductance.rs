//! E1 — Theorem 5: the sandwich `φ*/(2ℓ*) ≤ φ_avg ≤ L·φ*/ℓ*` across graph
//! families and latency schemes.

use gossip_conductance::{analyze, Method, MAX_AUTO_EXACT_NODES};
use gossip_graph::latency::LatencyScheme;
use gossip_graph::{generators, Graph};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::{Cell, Scale, Table};

/// The graph families swept by E1 (name, constructor).
pub fn families(scale: Scale, rng: &mut SmallRng) -> Vec<(String, Graph)> {
    let small = scale.pick(8, 12);
    let medium = scale.pick(16, 48);
    let large = scale.pick(32, 128);
    let mut out: Vec<(String, Graph)> = vec![
        (
            format!("clique(n={small})"),
            generators::clique(small, 1).unwrap(),
        ),
        (
            format!("cycle(n={medium})"),
            generators::cycle(medium, 1).unwrap(),
        ),
        (
            format!("dumbbell(s={small}, bridge=16)"),
            generators::dumbbell(small, 16).unwrap(),
        ),
        (
            format!("ring_of_cliques(k=4, s={small}, bridge=8)"),
            generators::ring_of_cliques(4, small, 8).unwrap(),
        ),
        (
            format!("grid(4x{small})"),
            generators::grid(4, small, 2).unwrap(),
        ),
        (
            format!("star(n={medium}, spokes=4)"),
            generators::star(medium, 4).unwrap(),
        ),
        (
            format!("slow_cut_expander(n={large}, d=6, slow=32)"),
            generators::slow_cut_expander(large, 6, 32, rng).unwrap(),
        ),
    ];
    // Weighted variants of the clique under three latency schemes.
    let base = generators::clique(medium, 1).unwrap();
    for (name, scheme) in [
        (
            "two-level",
            LatencyScheme::TwoLevel {
                fast: 1,
                slow: 64,
                fast_probability: 0.2,
            },
        ),
        ("power-law", LatencyScheme::PowerLawClasses { classes: 6 }),
        (
            "uniform-random",
            LatencyScheme::UniformRandom { min: 1, max: 32 },
        ),
    ] {
        out.push((
            format!("clique(n={medium}) + {name} latencies"),
            scheme.apply(&base, rng).unwrap(),
        ));
    }
    out
}

/// Runs E1 and returns the Theorem-5 table.
pub fn e1_theorem5(scale: Scale) -> Table {
    let mut rng = SmallRng::seed_from_u64(0xE1);
    let mut table = Table::new(
        "E1 (Theorem 5): phi*/(2 ell*) <= phi_avg <= L * phi*/ell*",
        &[
            "family", "n", "phi_star", "ell_star", "phi_avg", "L", "lower", "upper", "holds",
        ],
    );
    for (name, g) in families(scale, &mut rng) {
        // `Method::Auto` enumerates every cut on small graphs (the sandwich
        // must hold exactly) and estimates with sweep cuts otherwise.
        let exact = g.node_count() <= MAX_AUTO_EXACT_NODES;
        let report = match analyze(&g, Method::Auto) {
            Ok(r) => r,
            Err(e) => {
                table.push_row(vec![
                    Cell::from(name),
                    Cell::from(g.node_count()),
                    Cell::from(format!("error: {e}")),
                    Cell::from(0u64),
                    Cell::from(0.0),
                    Cell::from(0usize),
                    Cell::from(0.0),
                    Cell::from(0.0),
                    Cell::from("n/a"),
                ]);
                continue;
            }
        };
        table.push_row(vec![
            Cell::from(name),
            Cell::from(g.node_count()),
            Cell::from(report.phi_star),
            Cell::from(report.ell_star),
            Cell::from(report.phi_avg),
            Cell::from(report.nonempty_classes),
            Cell::from(report.theorem5_lower()),
            Cell::from(report.theorem5_upper()),
            Cell::from(if exact {
                if report.theorem5_holds() {
                    "yes"
                } else {
                    "NO"
                }
            } else if report.theorem5_holds_with_tolerance(0.2) {
                "yes (est)"
            } else {
                "NO"
            }),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn theorem5_holds_on_every_family() {
        let table = e1_theorem5(Scale::Quick);
        assert!(!table.rows.is_empty());
        for row in &table.rows {
            let holds = row.last().unwrap().to_string();
            assert!(
                holds == "yes" || holds == "yes (est)",
                "Theorem 5 violated in row {row:?}"
            );
        }
    }

    #[test]
    fn families_cover_multiple_latency_classes() {
        let mut rng = SmallRng::seed_from_u64(1);
        let fams = families(Scale::Quick, &mut rng);
        assert!(fams.len() >= 8);
        assert!(fams.iter().any(|(_, g)| g.max_latency() > 8));
    }
}
