//! Composite families used in the paper's constructions and experiments.

use rand::Rng;

use crate::{Graph, GraphBuilder, GraphError, Latency};

/// Ring of `k` cliques of `s` nodes each: nodes inside a clique are joined by
/// latency-1 edges, and consecutive cliques around the ring are joined by a
/// single *bridge* edge with latency `bridge_latency`.
///
/// This is the "well-clustered, poorly-connected" family: the conductance is
/// governed by the bridges, and raising `bridge_latency` directly raises the
/// critical latency.  (The paper's Theorem-13 construction is a denser
/// relative of this family and lives in `gossip-lowerbound`.)
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameters`] if `k < 2` or `s < 1`.
pub fn ring_of_cliques(k: usize, s: usize, bridge_latency: Latency) -> Result<Graph, GraphError> {
    if k < 2 {
        return Err(GraphError::InvalidParameters {
            reason: "ring of cliques needs at least two cliques".into(),
        });
    }
    if s < 1 {
        return Err(GraphError::InvalidParameters {
            reason: "ring of cliques needs at least one node per clique".into(),
        });
    }
    let mut b = GraphBuilder::new(k * s);
    let node = |clique: usize, i: usize| clique * s + i;
    b.reserve_edges(k * s * s.saturating_sub(1) / 2);
    for c in 0..k {
        for i in 0..s {
            for j in (i + 1)..s {
                b.add_edge(node(c, i), node(c, j), 1)?;
            }
        }
    }
    for c in 0..k {
        let next = (c + 1) % k;
        // When k == 2 the ring degenerates to a single bridge pair; avoid duplicating it.
        if k == 2 && c == 1 {
            break;
        }
        b.add_edge(node(c, s - 1), node(next, 0), bridge_latency)?;
    }
    b.build_connected()
}

/// Dumbbell: two cliques of `s` nodes connected by a single bridge of latency
/// `bridge_latency`.  The bridge is the unique bottleneck cut, which makes the
/// critical conductance and critical latency easy to reason about in tests.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameters`] if `s < 2`.
pub fn dumbbell(s: usize, bridge_latency: Latency) -> Result<Graph, GraphError> {
    if s < 2 {
        return Err(GraphError::InvalidParameters {
            reason: "dumbbell needs at least two nodes per side".into(),
        });
    }
    let mut b = GraphBuilder::new(2 * s);
    b.reserve_edges(s * (s - 1) + 1);
    for side in 0..2 {
        let offset = side * s;
        for i in 0..s {
            for j in (i + 1)..s {
                b.add_edge(offset + i, offset + j, 1)?;
            }
        }
    }
    b.add_edge(s - 1, s, bridge_latency)?;
    b.build_connected()
}

/// Barbell: two cliques of `s` nodes connected by a *path* of `bridge_len`
/// edges (so `bridge_len - 1` intermediate relay nodes), every bridge edge
/// with latency `bridge_latency`.
///
/// With `bridge_len == 1` this degenerates to the [`dumbbell`].  Longer
/// bridges separate the two effects the dumbbell conflates: the cut is still
/// a single edge wide (conductance is unchanged), but information must now
/// traverse `bridge_len` slow hops *in series*, so the dissemination time of
/// any protocol grows linearly in `bridge_len` while the cut volume does not.
///
/// Node layout: `0..s` is the left clique, `s..2s` the right clique, and
/// `2s..2s + bridge_len - 1` the relay nodes in left-to-right order.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameters`] if `s < 2` or `bridge_len < 1`.
pub fn barbell(s: usize, bridge_len: usize, bridge_latency: Latency) -> Result<Graph, GraphError> {
    if s < 2 {
        return Err(GraphError::InvalidParameters {
            reason: "barbell needs at least two nodes per side".into(),
        });
    }
    if bridge_len < 1 {
        return Err(GraphError::InvalidParameters {
            reason: "barbell needs a bridge of at least one edge".into(),
        });
    }
    let mut b = GraphBuilder::new(2 * s + bridge_len - 1);
    b.reserve_edges(s * (s - 1) + bridge_len);
    for side in 0..2 {
        let offset = side * s;
        for i in 0..s {
            for j in (i + 1)..s {
                b.add_edge(offset + i, offset + j, 1)?;
            }
        }
    }
    // Path from the last left-clique node through the relays to the first
    // right-clique node.
    let mut prev = s - 1;
    for relay in 0..bridge_len - 1 {
        let node = 2 * s + relay;
        b.add_edge(prev, node, bridge_latency)?;
        prev = node;
    }
    b.add_edge(prev, s, bridge_latency)?;
    b.build_connected()
}

/// A well-connected graph with a planted slow cut: a random `d`-regular
/// expander on `n` nodes where every edge crossing the balanced cut
/// `({0..n/2}, {n/2..n})` gets latency `slow_latency` and every other edge
/// gets latency 1.
///
/// This family exercises the difference between classical conductance (which
/// stays `Θ(1)` since the topology is an expander) and the critical weighted
/// conductance (which degrades with `slow_latency`): it is the positive
/// counterpart to the lower-bound constructions and is used throughout the
/// E5/E8 experiments.
///
/// # Errors
///
/// Propagates the parameter errors of [`random_regular`](crate::generators::random_regular).
pub fn slow_cut_expander<R: Rng + ?Sized>(
    n: usize,
    d: usize,
    slow_latency: Latency,
    rng: &mut R,
) -> Result<Graph, GraphError> {
    let base = crate::generators::random_regular(n, d, 1, rng)?;
    let half = n / 2;
    let mut b = GraphBuilder::new(n);
    for rec in base.edges() {
        let crosses = (rec.u.index() < half) != (rec.v.index() < half);
        let latency = if crosses { slow_latency } else { 1 };
        b.add_edge(rec.u.index(), rec.v.index(), latency)?;
    }
    b.build_connected()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn ring_of_cliques_counts() {
        let g = ring_of_cliques(4, 5, 7).unwrap();
        assert_eq!(g.node_count(), 20);
        // 4 cliques of C(5,2)=10 edges plus 4 bridges.
        assert_eq!(g.edge_count(), 44);
        assert!(g.is_connected());
        assert_eq!(g.max_latency(), 7);
    }

    #[test]
    fn ring_of_cliques_diameter_grows_with_bridge_latency() {
        let fast = ring_of_cliques(6, 4, 1).unwrap();
        let slow = ring_of_cliques(6, 4, 20).unwrap();
        let d_fast = metrics::weighted_diameter(&fast).unwrap();
        let d_slow = metrics::weighted_diameter(&slow).unwrap();
        assert!(d_slow > d_fast);
        assert!(d_slow >= 3 * 20); // must cross at least 3 bridges to reach the far clique
    }

    #[test]
    fn ring_of_cliques_two_cliques_has_single_bridge() {
        let g = ring_of_cliques(2, 3, 5).unwrap();
        assert_eq!(g.node_count(), 6);
        assert_eq!(g.edge_count(), 2 * 3 + 1);
        assert!(ring_of_cliques(1, 3, 1).is_err());
        assert!(ring_of_cliques(3, 0, 1).is_err());
    }

    #[test]
    fn barbell_structure() {
        let g = barbell(4, 3, 9).unwrap();
        // Two 4-cliques plus two relay nodes.
        assert_eq!(g.node_count(), 10);
        assert_eq!(g.edge_count(), 2 * 6 + 3);
        assert_eq!(g.max_latency(), 9);
        assert!(g.is_connected());
        // Crossing the bridge costs bridge_len hops of bridge latency.
        assert_eq!(metrics::weighted_diameter(&g), Some(1 + 3 * 9 + 1));
        assert!(barbell(1, 2, 1).is_err());
        assert!(barbell(3, 0, 1).is_err());
    }

    #[test]
    fn barbell_with_unit_bridge_matches_dumbbell_shape() {
        let b = barbell(5, 1, 7).unwrap();
        let d = dumbbell(5, 7).unwrap();
        assert_eq!(b.node_count(), d.node_count());
        assert_eq!(b.edge_count(), d.edge_count());
        assert_eq!(
            metrics::weighted_diameter(&b),
            metrics::weighted_diameter(&d)
        );
    }

    #[test]
    fn dumbbell_structure() {
        let g = dumbbell(4, 9).unwrap();
        assert_eq!(g.node_count(), 8);
        assert_eq!(g.edge_count(), 2 * 6 + 1);
        assert_eq!(g.max_latency(), 9);
        assert!(g.is_connected());
        assert!(dumbbell(1, 1).is_err());
    }

    #[test]
    fn dumbbell_diameter_includes_bridge() {
        let g = dumbbell(4, 9).unwrap();
        // far node in left clique -> bridge endpoint (1) -> bridge (9) -> far node (1)
        assert_eq!(metrics::weighted_diameter(&g), Some(11));
    }

    #[test]
    fn slow_cut_expander_assigns_latencies_by_side() {
        let mut rng = SmallRng::seed_from_u64(21);
        let g = slow_cut_expander(32, 6, 50, &mut rng).unwrap();
        assert!(g.is_connected());
        for rec in g.edges() {
            let crosses = (rec.u.index() < 16) != (rec.v.index() < 16);
            if crosses {
                assert_eq!(rec.latency, 50);
            } else {
                assert_eq!(rec.latency, 1);
            }
        }
    }
}
