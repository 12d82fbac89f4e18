//! Directed spanners: edge subsets with a per-node orientation.
//!
//! The spanner-broadcast algorithm (Section 4.1 of the paper) builds an
//! `O(log n)`-stretch spanner of the weighted graph and, crucially, an
//! *orientation* of the spanner edges such that every node has only
//! `O(log n)` out-edges (Lemma 19).  Round-robin broadcast then repeatedly
//! activates each node's out-edges (Algorithm 1).  [`DirectedSpanner`]
//! captures exactly that object: a subset of the parent graph's edges plus a
//! direction for each selected edge.

// BTreeSet, not HashSet: `edge_ids`/`to_graph` iterate this set, and the
// materialised graph's edge order must not depend on per-instance hash seeds
// for runs to be reproducible.
use std::collections::BTreeSet;

use crate::metrics::{batch_width, BatchSweeps, UNREACHABLE};
use crate::{EdgeId, Graph, GraphError, Latency, NodeId};

/// A subset of a graph's edges, each given a direction, forming a spanner.
#[derive(Debug, Clone)]
pub struct DirectedSpanner {
    node_count: usize,
    /// `out[v]` lists `(target, edge-id in the parent graph)` pairs.
    out: Vec<Vec<(NodeId, EdgeId)>>,
    /// Set of selected (undirected) edge ids: keeps each edge's first
    /// orientation only, and iterates in ascending id order.
    selected: BTreeSet<EdgeId>,
}

impl DirectedSpanner {
    /// Creates an empty spanner over the node set of `g`.
    pub fn new(g: &Graph) -> Self {
        DirectedSpanner {
            node_count: g.node_count(),
            out: vec![Vec::new(); g.node_count()],
            selected: BTreeSet::new(),
        }
    }

    /// Number of nodes in the parent graph.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Number of selected (undirected) edges.
    pub fn edge_count(&self) -> usize {
        self.selected.len()
    }

    /// Adds edge `e` of the parent graph, oriented out of `from`.
    ///
    /// Adding the same undirected edge twice (in either direction) keeps only
    /// the first orientation and returns `false`.
    ///
    /// # Panics
    ///
    /// Panics if `from` is not an endpoint of `e` in `g`.
    pub fn add_oriented(&mut self, g: &Graph, from: NodeId, e: EdgeId) -> bool {
        let rec = g.edge(e);
        let to = rec.other(from);
        if !self.selected.insert(e) {
            return false;
        }
        self.out[from.index()].push((to, e));
        true
    }

    /// Out-edges of `v`: `(target, parent edge id)` pairs in insertion order.
    pub fn out_edges(&self, v: NodeId) -> &[(NodeId, EdgeId)] {
        &self.out[v.index()]
    }

    /// Out-degree of `v`.
    pub fn out_degree(&self, v: NodeId) -> usize {
        self.out[v.index()].len()
    }

    /// Maximum out-degree over all nodes — the quantity Lemma 19 bounds by `O(log n)`.
    pub fn max_out_degree(&self) -> usize {
        self.out.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// Iterator over all selected edge ids (ascending order).
    pub fn edge_ids(&self) -> impl Iterator<Item = EdgeId> + '_ {
        self.selected.iter().copied()
    }

    /// Materialises the spanner as an undirected [`Graph`] over the same node
    /// set, keeping the parent latencies.  The orientation is forgotten; use
    /// [`out_edges`](Self::out_edges) when the direction matters.
    ///
    /// # Errors
    ///
    /// Never fails for a spanner built from a valid graph; the `Result`
    /// mirrors the graph-construction API.
    pub fn to_graph(&self, g: &Graph) -> Result<Graph, GraphError> {
        let edges = self.selected.iter().map(|&e| *g.edge(e)).collect();
        Graph::from_parts(self.node_count, edges)
    }

    /// Measures the worst-case multiplicative stretch of the spanner with
    /// respect to the parent graph: `max_{u,v} dist_S(u,v) / dist_G(u,v)`.
    ///
    /// Runs all-pairs Dijkstra on both graphs, up to 64 sources per
    /// traversal on the batch kernel of [`metrics`](crate::metrics), so use
    /// it on test/experiment-sized graphs.  Returns `None` if the spanner
    /// does not connect some pair that the parent graph connects (infinite
    /// stretch).
    pub fn stretch(&self, g: &Graph) -> Option<f64> {
        let s = self.to_graph(g).ok()?;
        let (mut in_g, mut in_s) = (BatchSweeps::default(), BatchSweeps::default());
        let sources: Vec<NodeId> = g.nodes().collect();
        let mut worst: f64 = 1.0;
        for batch in sources.chunks(batch_width(g.node_count())) {
            let dg = in_g.dijkstra(g, batch);
            let ds = in_s.dijkstra(&s, batch);
            for (&dg, &ds) in dg.iter().zip(ds) {
                if dg == UNREACHABLE || dg == 0 {
                    continue;
                }
                if ds == UNREACHABLE {
                    return None;
                }
                worst = worst.max(ds as f64 / dg as f64);
            }
        }
        Some(worst)
    }

    /// Sum of the latencies of the selected edges.
    pub fn total_latency(&self, g: &Graph) -> Latency {
        self.selected.iter().map(|&e| g.latency(e)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    /// Square with one diagonal: 0-1-2-3-0 (latency 1 each) plus 0-2 (latency 5).
    fn square_with_diagonal() -> Graph {
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1, 1).unwrap();
        b.add_edge(1, 2, 1).unwrap();
        b.add_edge(2, 3, 1).unwrap();
        b.add_edge(3, 0, 1).unwrap();
        b.add_edge(0, 2, 5).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn orientation_and_degrees() {
        let g = square_with_diagonal();
        let mut s = DirectedSpanner::new(&g);
        let e01 = g.find_edge(NodeId::new(0), NodeId::new(1)).unwrap();
        let e12 = g.find_edge(NodeId::new(1), NodeId::new(2)).unwrap();
        assert!(s.add_oriented(&g, NodeId::new(0), e01));
        assert!(s.add_oriented(&g, NodeId::new(1), e12));
        // Duplicate insert (other direction) is ignored.
        assert!(!s.add_oriented(&g, NodeId::new(1), e01));
        assert_eq!(s.edge_count(), 2);
        assert_eq!(s.out_degree(NodeId::new(0)), 1);
        assert_eq!(s.out_degree(NodeId::new(1)), 1);
        assert_eq!(s.out_degree(NodeId::new(2)), 0);
        assert_eq!(s.max_out_degree(), 1);
        assert_eq!(s.edge_ids().collect::<Vec<_>>(), vec![e01, e12]);
    }

    #[test]
    fn spanner_graph_and_stretch() {
        let g = square_with_diagonal();
        let mut s = DirectedSpanner::new(&g);
        // Keep the 4-cycle, drop the slow diagonal.
        for (u, v) in [(0, 1), (1, 2), (2, 3), (3, 0)] {
            let e = g.find_edge(NodeId::new(u), NodeId::new(v)).unwrap();
            s.add_oriented(&g, NodeId::new(u), e);
        }
        let sg = s.to_graph(&g).unwrap();
        assert_eq!(sg.edge_count(), 4);
        // dist_G(0,2) = 2 via the cycle (the diagonal costs 5), so dropping the
        // diagonal does not stretch anything: stretch = 1.
        let stretch = s.stretch(&g).unwrap();
        assert!((stretch - 1.0).abs() < 1e-9);
        assert_eq!(s.total_latency(&g), 4);
    }

    #[test]
    fn missing_connectivity_gives_none_stretch() {
        let g = square_with_diagonal();
        let mut s = DirectedSpanner::new(&g);
        let e01 = g.find_edge(NodeId::new(0), NodeId::new(1)).unwrap();
        s.add_oriented(&g, NodeId::new(0), e01);
        assert_eq!(s.stretch(&g), None);
    }

    #[test]
    fn distances_inside_spanner() {
        let g = square_with_diagonal();
        let mut s = DirectedSpanner::new(&g);
        for (u, v) in [(0, 1), (1, 2), (2, 3), (3, 0)] {
            let e = g.find_edge(NodeId::new(u), NodeId::new(v)).unwrap();
            s.add_oriented(&g, NodeId::new(u), e);
        }
        let d = crate::metrics::dijkstra(&s.to_graph(&g).unwrap(), NodeId::new(0));
        assert_eq!(d, vec![0, 1, 2, 1]);
    }
}
