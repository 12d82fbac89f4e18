//! Deterministic graph families.

use crate::{Graph, GraphBuilder, GraphError, Latency};

/// Complete graph `K_n` with every edge having latency `latency`.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameters`] if `n == 0` and
/// [`GraphError::ZeroLatency`] if `latency == 0`.
pub fn clique(n: usize, latency: Latency) -> Result<Graph, GraphError> {
    if n == 0 {
        return Err(GraphError::InvalidParameters {
            reason: "clique needs n >= 1".into(),
        });
    }
    let mut b = GraphBuilder::new(n);
    b.reserve_edges(n * n.saturating_sub(1) / 2);
    for u in 0..n {
        for v in (u + 1)..n {
            b.add_edge(u, v, latency)?;
        }
    }
    b.build()
}

/// Path `0 - 1 - … - (n-1)` with uniform edge latency.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameters`] if `n == 0`.
pub fn path(n: usize, latency: Latency) -> Result<Graph, GraphError> {
    if n == 0 {
        return Err(GraphError::InvalidParameters {
            reason: "path needs n >= 1".into(),
        });
    }
    let mut b = GraphBuilder::new(n);
    for u in 0..n.saturating_sub(1) {
        b.add_edge(u, u + 1, latency)?;
    }
    b.build()
}

/// Cycle on `n >= 3` nodes with uniform edge latency.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameters`] if `n < 3`.
pub fn cycle(n: usize, latency: Latency) -> Result<Graph, GraphError> {
    if n < 3 {
        return Err(GraphError::InvalidParameters {
            reason: "cycle needs n >= 3".into(),
        });
    }
    let mut b = GraphBuilder::new(n);
    for u in 0..n {
        b.add_edge(u, (u + 1) % n, latency)?;
    }
    b.build()
}

/// Star with one hub (node 0) and `n - 1` leaves, uniform edge latency.
///
/// The star is the paper's example of why pull is necessary: with push-only
/// flooding, a star costs `Ω(nD)`.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameters`] if `n < 2`.
pub fn star(n: usize, latency: Latency) -> Result<Graph, GraphError> {
    if n < 2 {
        return Err(GraphError::InvalidParameters {
            reason: "star needs n >= 2".into(),
        });
    }
    let mut b = GraphBuilder::new(n);
    b.reserve_edges(n - 1);
    for leaf in 1..n {
        b.add_edge(0, leaf, latency)?;
    }
    b.build()
}

/// `rows x cols` grid with uniform edge latency; node `(r, c)` has id `r * cols + c`.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameters`] if either dimension is zero.
pub fn grid(rows: usize, cols: usize, latency: Latency) -> Result<Graph, GraphError> {
    if rows == 0 || cols == 0 {
        return Err(GraphError::InvalidParameters {
            reason: "grid needs both dimensions >= 1".into(),
        });
    }
    let mut b = GraphBuilder::new(rows * cols);
    for r in 0..rows {
        for c in 0..cols {
            let id = r * cols + c;
            if c + 1 < cols {
                b.add_edge(id, id + 1, latency)?;
            }
            if r + 1 < rows {
                b.add_edge(id, id + cols, latency)?;
            }
        }
    }
    b.build()
}

/// Complete binary tree with `n` nodes (node 0 the root, children of `i` are
/// `2i+1` and `2i+2`), uniform edge latency.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameters`] if `n == 0`.
pub fn binary_tree(n: usize, latency: Latency) -> Result<Graph, GraphError> {
    if n == 0 {
        return Err(GraphError::InvalidParameters {
            reason: "tree needs n >= 1".into(),
        });
    }
    let mut b = GraphBuilder::new(n);
    for child in 1..n {
        let parent = (child - 1) / 2;
        b.add_edge(parent, child, latency)?;
    }
    b.build()
}

/// Complete bipartite graph `K_{left, right}`; the left side is nodes
/// `0..left`, the right side `left..left+right`, and every cross edge has
/// latency `latency`.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameters`] if either side is empty.
pub fn complete_bipartite(
    left: usize,
    right: usize,
    latency: Latency,
) -> Result<Graph, GraphError> {
    if left == 0 || right == 0 {
        return Err(GraphError::InvalidParameters {
            reason: "complete bipartite graph needs both sides non-empty".into(),
        });
    }
    let mut b = GraphBuilder::new(left + right);
    b.reserve_edges(left * right);
    for u in 0..left {
        for v in 0..right {
            b.add_edge(u, left + v, latency)?;
        }
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics;

    #[test]
    fn clique_counts() {
        let g = clique(5, 2).unwrap();
        assert_eq!(g.node_count(), 5);
        assert_eq!(g.edge_count(), 10);
        assert_eq!(g.max_degree(), 4);
        assert_eq!(metrics::weighted_diameter(&g), Some(2));
        assert!(clique(0, 1).is_err());
    }

    #[test]
    fn path_diameter_scales_with_latency() {
        let g = path(5, 3).unwrap();
        assert_eq!(g.edge_count(), 4);
        assert_eq!(metrics::weighted_diameter(&g), Some(12));
        assert!(path(0, 1).is_err());
        assert_eq!(path(1, 1).unwrap().edge_count(), 0);
    }

    #[test]
    fn cycle_is_two_regular() {
        let g = cycle(6, 1).unwrap();
        assert_eq!(g.edge_count(), 6);
        assert!(g.nodes().all(|v| g.degree(v) == 2));
        assert_eq!(metrics::weighted_diameter(&g), Some(3));
        assert!(cycle(2, 1).is_err());
    }

    #[test]
    fn star_has_a_hub() {
        let g = star(7, 1).unwrap();
        assert_eq!(g.max_degree(), 6);
        assert_eq!(g.edge_count(), 6);
        assert_eq!(metrics::weighted_diameter(&g), Some(2));
        assert!(star(1, 1).is_err());
    }

    #[test]
    fn grid_structure() {
        let g = grid(3, 4, 1).unwrap();
        assert_eq!(g.node_count(), 12);
        assert_eq!(g.edge_count(), 3 * 3 + 2 * 4); // horizontal + vertical
        assert_eq!(metrics::weighted_diameter(&g), Some(5));
        assert!(grid(0, 3, 1).is_err());
    }

    #[test]
    fn binary_tree_structure() {
        let g = binary_tree(7, 1).unwrap();
        assert_eq!(g.edge_count(), 6);
        assert_eq!(g.max_degree(), 3);
        assert_eq!(metrics::weighted_diameter(&g), Some(4));
        assert!(binary_tree(0, 1).is_err());
    }

    #[test]
    fn complete_bipartite_structure() {
        let g = complete_bipartite(3, 4, 2).unwrap();
        assert_eq!(g.node_count(), 7);
        assert_eq!(g.edge_count(), 12);
        assert_eq!(g.max_degree(), 4);
        assert!(complete_bipartite(0, 4, 1).is_err());
    }

    #[test]
    fn all_basic_families_are_connected() {
        assert!(clique(6, 1).unwrap().is_connected());
        assert!(path(6, 1).unwrap().is_connected());
        assert!(cycle(6, 1).unwrap().is_connected());
        assert!(star(6, 1).unwrap().is_connected());
        assert!(grid(3, 3, 1).unwrap().is_connected());
        assert!(binary_tree(10, 1).unwrap().is_connected());
        assert!(complete_bipartite(3, 3, 1).unwrap().is_connected());
    }
}
