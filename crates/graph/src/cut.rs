//! Cuts and their latency-class decomposition.
//!
//! A cut `C = (U, V \ U)` is the basic object of the paper's conductance
//! definitions (Definitions 1–4): the weight-ℓ conductance counts the cut
//! edges of latency `≤ ℓ`, and the average weighted conductance groups cut
//! edges into latency classes `(2^{i-1}, 2^i]` and discounts each class by
//! `2^i`.

use crate::{EdgeId, Graph, Latency, NodeId};

/// A two-sided cut of a graph, represented by membership of the "left" side `U`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cut {
    membership: Vec<bool>,
}

impl Cut {
    /// Builds a cut from the set `U` of node ids on one side.
    ///
    /// # Panics
    ///
    /// Panics if any node id is out of range for `g`.
    pub fn from_side<I: IntoIterator<Item = NodeId>>(g: &Graph, side: I) -> Self {
        let mut membership = vec![false; g.node_count()];
        for v in side {
            membership[v.index()] = true;
        }
        Cut { membership }
    }

    /// Builds a cut directly from a membership bitmap (`true` = in `U`).
    ///
    /// # Panics
    ///
    /// Panics if the bitmap length differs from the node count of `g`.
    pub fn from_membership(g: &Graph, membership: Vec<bool>) -> Self {
        assert_eq!(
            membership.len(),
            g.node_count(),
            "membership bitmap length must equal the node count"
        );
        Cut { membership }
    }

    /// Builds the cut `({v : bit v of mask set}, rest)` from an integer bitmask.
    ///
    /// Useful for exhaustively enumerating all cuts of a small graph.
    ///
    /// # Panics
    ///
    /// Panics if `g` has more than 63 nodes.
    pub fn from_bitmask(g: &Graph, mask: u64) -> Self {
        let n = g.node_count();
        assert!(
            n <= 63,
            "bitmask cuts are only supported for graphs with at most 63 nodes"
        );
        let membership = (0..n).map(|i| mask & (1 << i) != 0).collect();
        Cut { membership }
    }

    /// Returns `true` if node `v` is on the `U` side of the cut.
    #[inline]
    // gossip-lint: allow(panic-path): membership bitmap is sized n at construction; node ids are dense
    pub fn contains(&self, v: NodeId) -> bool {
        self.membership[v.index()]
    }

    /// Number of nodes on the `U` side.
    pub fn size_u(&self) -> usize {
        self.membership.iter().filter(|&&m| m).count()
    }

    /// Returns `true` if both sides of the cut are non-empty.
    pub fn is_proper(&self) -> bool {
        let u = self.size_u();
        u > 0 && u < self.membership.len()
    }

    /// Edge ids crossing the cut.
    pub fn cut_edges(&self, g: &Graph) -> Vec<EdgeId> {
        g.edge_ids()
            .filter(|&e| {
                let rec = g.edge(e);
                self.contains(rec.u) != self.contains(rec.v)
            })
            .collect()
    }

    /// Number of cut edges with latency `≤ bound` — the quantity `|E_ℓ(C)|`
    /// of Definition 1.
    pub fn cut_edges_within(&self, g: &Graph, bound: Latency) -> usize {
        g.edges()
            .filter(|rec| rec.latency <= bound && self.contains(rec.u) != self.contains(rec.v))
            .count()
    }

    /// Volume of each side, `(Vol(U), Vol(V \ U))`.
    pub fn volumes(&self, g: &Graph) -> (u64, u64) {
        let mut vol_u = 0;
        let mut vol_rest = 0;
        for v in g.nodes() {
            if self.contains(v) {
                vol_u += g.degree(v) as u64;
            } else {
                vol_rest += g.degree(v) as u64;
            }
        }
        (vol_u, vol_rest)
    }

    /// The normalising term `min(Vol(U), Vol(V \ U))` of the conductance definitions.
    pub fn min_volume(&self, g: &Graph) -> u64 {
        let (a, b) = self.volumes(g);
        a.min(b)
    }

    /// Number of cut edges in each latency class.
    ///
    /// Class `i` (1-based, `i = 1 .. ⌈log₂ ℓmax⌉`) contains cut edges with
    /// latency in `(2^{i-1}, 2^i]`, except class 1 which also contains
    /// latency-1 edges (the paper defines the first class as "latency ≤ 2").
    /// The returned vector is indexed by `i - 1`.
    pub fn latency_class_counts(&self, g: &Graph) -> Vec<usize> {
        let classes = latency_class_count(g.max_latency());
        let mut counts = vec![0usize; classes];
        for rec in g.edges() {
            if self.contains(rec.u) != self.contains(rec.v) {
                let class = latency_class(rec.latency);
                counts[class - 1] += 1;
            }
        }
        counts
    }
}

/// The latency class of a single edge: the smallest `i ≥ 1` with `latency ≤ 2^i`.
///
/// Latency 1 and 2 are both class 1 (the paper's first class is "latency ≤ 2").
///
/// # Panics
///
/// Panics if `latency` is zero (latencies are positive integers).
pub fn latency_class(latency: Latency) -> usize {
    assert!(latency > 0, "latencies must be positive");
    if latency <= 2 {
        return 1;
    }
    // Smallest i with 2^i >= latency.
    let bits = Latency::BITS - (latency - 1).leading_zeros();
    bits as usize
}

/// Number of latency classes needed for a maximum latency, `⌈log₂ ℓmax⌉`
/// (at least 1 whenever the graph has edges).
pub fn latency_class_count(max_latency: Latency) -> usize {
    if max_latency <= 2 {
        usize::from(max_latency > 0)
    } else {
        latency_class(max_latency)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    /// 4-cycle with latencies 1, 1, 3, 8.
    fn cycle4() -> Graph {
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1, 1).unwrap();
        b.add_edge(1, 2, 1).unwrap();
        b.add_edge(2, 3, 3).unwrap();
        b.add_edge(3, 0, 8).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn membership_and_sides() {
        let g = cycle4();
        let cut = Cut::from_side(&g, [NodeId::new(0), NodeId::new(1)]);
        assert!(cut.contains(NodeId::new(0)));
        assert!(!cut.contains(NodeId::new(2)));
        assert_eq!(cut.size_u(), 2);
        let (side_u, side_rest): (Vec<NodeId>, Vec<NodeId>) =
            g.nodes().partition(|&v| cut.contains(v));
        assert_eq!(side_u, vec![NodeId::new(0), NodeId::new(1)]);
        assert_eq!(side_rest, vec![NodeId::new(2), NodeId::new(3)]);
        assert!(cut.is_proper());
    }

    #[test]
    fn cut_edges_and_latency_filter() {
        let g = cycle4();
        let cut = Cut::from_side(&g, [NodeId::new(0), NodeId::new(1)]);
        // Crossing edges: (1,2) latency 1 and (3,0) latency 8.
        assert_eq!(cut.cut_edges_within(&g, Latency::MAX), 2);
        assert_eq!(cut.cut_edges_within(&g, 1), 1);
        assert_eq!(cut.cut_edges_within(&g, 7), 1);
        assert_eq!(cut.cut_edges_within(&g, 8), 2);
        assert_eq!(cut.cut_edges(&g).len(), 2);
    }

    #[test]
    fn volumes_are_degree_sums() {
        let g = cycle4();
        let cut = Cut::from_side(&g, [NodeId::new(0)]);
        let (u, rest) = cut.volumes(&g);
        assert_eq!(u, 2);
        assert_eq!(rest, 6);
        assert_eq!(cut.min_volume(&g), 2);
    }

    #[test]
    fn bitmask_enumeration_matches_explicit_cut() {
        let g = cycle4();
        let a = Cut::from_bitmask(&g, 0b0011);
        let b = Cut::from_side(&g, [NodeId::new(0), NodeId::new(1)]);
        assert_eq!(a, b);
    }

    #[test]
    fn improper_cut_detected() {
        let g = cycle4();
        assert!(!Cut::from_bitmask(&g, 0).is_proper());
        assert!(!Cut::from_bitmask(&g, 0b1111).is_proper());
    }

    #[test]
    fn latency_classes() {
        assert_eq!(latency_class(1), 1);
        assert_eq!(latency_class(2), 1);
        assert_eq!(latency_class(3), 2);
        assert_eq!(latency_class(4), 2);
        assert_eq!(latency_class(5), 3);
        assert_eq!(latency_class(8), 3);
        assert_eq!(latency_class(9), 4);
        assert_eq!(latency_class(16), 4);
        assert_eq!(latency_class(17), 5);
    }

    #[test]
    fn latency_class_counts_of_graph() {
        assert_eq!(latency_class_count(0), 0);
        assert_eq!(latency_class_count(1), 1);
        assert_eq!(latency_class_count(2), 1);
        assert_eq!(latency_class_count(3), 2);
        assert_eq!(latency_class_count(8), 3);
        assert_eq!(latency_class_count(1000), 10);
    }

    #[test]
    fn latency_class_upper_bounds() {
        // Class `i` is `(2^{i-1}, 2^i]`: `2^i` is its last latency.
        for class in 1..=63 {
            let upper: Latency = 1 << class;
            assert_eq!(latency_class(upper), class);
            assert_eq!(latency_class(upper + 1), class + 1);
        }
    }

    #[test]
    fn per_cut_class_histogram() {
        let g = cycle4();
        let cut = Cut::from_side(&g, [NodeId::new(0), NodeId::new(1)]);
        // Crossing edges: latency 1 (class 1) and latency 8 (class 3);
        // max latency 8 => 3 classes.
        assert_eq!(cut.latency_class_counts(&g), vec![1, 0, 1]);
    }

    #[test]
    #[should_panic(expected = "latencies must be positive")]
    fn latency_class_rejects_zero() {
        let _ = latency_class(0);
    }

    #[test]
    #[should_panic(expected = "membership bitmap length")]
    fn membership_length_checked() {
        let g = cycle4();
        let _ = Cut::from_membership(&g, vec![true; 3]);
    }
}
