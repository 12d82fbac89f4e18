//! Exact conductance by exhaustive cut enumeration (small graphs).

use gossip_graph::cut::Cut;
use gossip_graph::Graph;

use crate::ConductanceError;

/// Largest node count for which exact enumeration (`2^{n-1}` cuts) is allowed.
pub const MAX_EXACT_NODES: usize = 22;

/// Enumerates every proper cut of `g` exactly once (each unordered bipartition
/// appears a single time, with node 0 always on the `V∖U` side).
///
/// # Errors
///
/// Returns [`ConductanceError::TooLargeForExact`] when the graph exceeds
/// [`MAX_EXACT_NODES`] nodes and [`ConductanceError::TooFewNodes`] when no
/// proper cut exists.
pub fn enumerate_cuts(g: &Graph) -> Result<Vec<Cut>, ConductanceError> {
    let n = g.node_count();
    if n < 2 {
        return Err(ConductanceError::TooFewNodes);
    }
    if n > MAX_EXACT_NODES {
        return Err(ConductanceError::TooLargeForExact {
            nodes: n,
            limit: MAX_EXACT_NODES,
        });
    }
    // Fix node 0 outside U so each bipartition is generated exactly once.
    let count = 1u64 << (n - 1);
    let mut cuts = Vec::with_capacity((count - 1) as usize);
    for mask in 1..count {
        cuts.push(Cut::from_bitmask(g, mask << 1));
    }
    Ok(cuts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{analyze, Method};
    use gossip_graph::generators;
    use gossip_graph::GraphBuilder;

    #[test]
    fn enumeration_counts_all_bipartitions() {
        let g = generators::cycle(4, 1).unwrap();
        let cuts = enumerate_cuts(&g).unwrap();
        // 2^{4-1} - 1 = 7 proper bipartitions.
        assert_eq!(cuts.len(), 7);
        assert!(cuts.iter().all(|c| c.is_proper()));
    }

    #[test]
    fn enumeration_rejects_large_and_tiny_graphs() {
        let g = generators::clique(MAX_EXACT_NODES + 1, 1).unwrap();
        assert!(matches!(
            enumerate_cuts(&g),
            Err(ConductanceError::TooLargeForExact { .. })
        ));
        let single = GraphBuilder::new(1).build().unwrap();
        assert_eq!(enumerate_cuts(&single), Err(ConductanceError::TooFewNodes));
    }

    #[test]
    fn exact_minimum_finds_the_bridge_cut_of_a_dumbbell() {
        let g = generators::dumbbell(4, 8).unwrap();
        let value = analyze(&g, Method::Exact).unwrap().phi_classical;
        // The bottleneck is the bridge: 1 cut edge over min volume (4 clique
        // nodes: 3+3+3+4 = 13).
        assert!((value - 1.0 / 13.0).abs() < 1e-12);
    }

    #[test]
    fn exact_minimum_on_clique_matches_known_conductance() {
        // For K_4 with unit latencies the conductance is minimised by the
        // balanced cut: 4 cut edges / volume 6 = 2/3.
        let g = generators::clique(4, 1).unwrap();
        let value = analyze(&g, Method::Exact).unwrap().phi_classical;
        assert!((value - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn exact_minimum_reports_no_edges() {
        let g = GraphBuilder::new(3).build().unwrap();
        assert_eq!(
            analyze(&g, Method::Exact).unwrap_err(),
            ConductanceError::NoEdges
        );
    }
}
