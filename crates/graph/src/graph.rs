//! The core undirected, latency-weighted graph type.

use crate::{EdgeId, GraphError, Latency, NodeId};

/// One undirected edge: its two endpoints and its latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EdgeRecord {
    /// First endpoint (the one with the smaller id at insertion time).
    pub u: NodeId,
    /// Second endpoint.
    pub v: NodeId,
    /// Integer latency of the edge (number of rounds a bidirectional exchange takes).
    pub latency: Latency,
}

impl EdgeRecord {
    /// Returns the endpoint opposite to `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not an endpoint of this edge.
    #[inline]
    pub fn other(&self, node: NodeId) -> NodeId {
        if node == self.u {
            self.v
        } else if node == self.v {
            self.u
        } else {
            panic!(
                "node {node:?} is not an endpoint of edge ({:?}, {:?})",
                self.u, self.v
            )
        }
    }
}

/// An undirected, connected-or-not graph with integer edge latencies.
///
/// The representation is a flat edge list plus a flat adjacency: one `arcs`
/// array holding every node's incident `(neighbor, edge-id)` pairs back to
/// back, and `offsets`, where node `v`'s pairs are
/// `arcs[offsets[v]..offsets[v + 1]]`.  That is the access pattern the
/// simulator and the algorithms need: iterate over a node's incident edges,
/// look up the latency of an edge, and map an edge id back to its endpoints
/// — from three allocations, whatever the node count.
///
/// `Graph` is immutable after construction; build one through
/// [`GraphBuilder`](crate::GraphBuilder) or one of the [`generators`](crate::generators).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Graph {
    /// `n + 1` prefix sums of the degrees: node `v`'s slice of `arcs` starts
    /// at `offsets[v]` and ends at `offsets[v + 1]`.
    offsets: Vec<usize>,
    /// Every node's `(neighbor, edge)` pairs, sorted by neighbor id, then
    /// edge id, within the node's slice.
    arcs: Vec<(NodeId, EdgeId)>,
    edges: Vec<EdgeRecord>,
    max_latency: Latency,
}

/// The one per-edge rule: both endpoints lie below `node_count`, the
/// endpoints differ, and the latency is positive.
pub(crate) fn check_edge(
    node_count: usize,
    u: usize,
    v: usize,
    latency: Latency,
) -> Result<(), GraphError> {
    if let Some(node) = [u, v].into_iter().find(|&x| x >= node_count) {
        return Err(GraphError::NodeOutOfRange { node, node_count });
    }
    if u == v {
        return Err(GraphError::SelfLoop { node: u });
    }
    if latency == 0 {
        return Err(GraphError::ZeroLatency { u, v });
    }
    Ok(())
}

impl Graph {
    /// Builds a graph from its edge list, in edge-id order.  Every record is
    /// checked by [`check_edge`], and a pair that appears twice (in either
    /// orientation) is a [`GraphError::DuplicateEdge`].
    ///
    /// The adjacency is a counting sort of the edge list: degrees give the
    /// offsets, and each record lands in both endpoints' slices.
    // gossip-lint: allow(panic-path): check_edge bounds both endpoints of a record by node_count before they index offsets and cursor, and a node's cursor stays inside its own slice of arcs
    pub(crate) fn from_parts(
        node_count: usize,
        edges: Vec<EdgeRecord>,
    ) -> Result<Self, GraphError> {
        if node_count == 0 {
            return Err(GraphError::Empty);
        }
        let mut offsets = vec![0usize; node_count + 1];
        let mut max_latency: Latency = 0;
        for e in &edges {
            check_edge(node_count, e.u.index(), e.v.index(), e.latency)?;
            offsets[e.u.index() + 1] += 1;
            offsets[e.v.index() + 1] += 1;
            max_latency = max_latency.max(e.latency);
        }
        for v in 0..node_count {
            offsets[v + 1] += offsets[v];
        }
        let mut cursor = offsets[..node_count].to_vec();
        let mut arcs = vec![(NodeId::default(), EdgeId::default()); 2 * edges.len()];
        for (idx, e) in edges.iter().enumerate() {
            let id = EdgeId::new(idx);
            for (from, to) in [(e.u, e.v), (e.v, e.u)] {
                arcs[cursor[from.index()]] = (to, id);
                cursor[from.index()] += 1;
            }
        }
        // Deterministic neighbor order: by neighbor id, then edge id.  A
        // repeated pair then sits side by side in its endpoints' slices.
        for node in 0..node_count {
            let list = &mut arcs[offsets[node]..offsets[node + 1]];
            list.sort_unstable();
            let repeated = list.windows(2).find_map(|pair| match pair {
                [(a, _), (b, _)] if a == b => Some(*a),
                _ => None,
            });
            if let Some(other) = repeated {
                return Err(GraphError::DuplicateEdge {
                    u: node,
                    v: other.index(),
                });
            }
        }
        Ok(Graph {
            offsets,
            arcs,
            edges,
            max_latency,
        })
    }

    /// Number of nodes `n = |V|`.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges `m = |E|`.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Iterator over all node ids `0..n`.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.node_count()).map(NodeId::new)
    }

    /// Iterator over all edge ids `0..m`.
    pub fn edge_ids(&self) -> impl Iterator<Item = EdgeId> + '_ {
        (0..self.edge_count()).map(EdgeId::new)
    }

    /// Iterator over all edge records in id order.
    pub fn edges(&self) -> impl Iterator<Item = &EdgeRecord> + '_ {
        self.edges.iter()
    }

    /// The record (endpoints + latency) of edge `e`.
    ///
    /// # Panics
    ///
    /// Panics if `e` is not a valid edge id of this graph.
    #[inline]
    // gossip-lint: allow(panic-path): EdgeId validity is a Graph construction invariant
    pub fn edge(&self, e: EdgeId) -> &EdgeRecord {
        &self.edges[e.index()]
    }

    /// Latency of edge `e`.
    ///
    /// # Panics
    ///
    /// Panics if `e` is not a valid edge id of this graph.
    #[inline]
    // gossip-lint: allow(panic-path): EdgeId validity is a Graph construction invariant
    pub fn latency(&self, e: EdgeId) -> Latency {
        self.edges[e.index()].latency
    }

    /// The largest edge latency `ℓ_max` in the graph (0 for an edgeless graph).
    #[inline]
    pub fn max_latency(&self) -> Latency {
        self.max_latency
    }

    /// Degree of `v` (number of incident edges).
    ///
    /// # Panics
    ///
    /// Panics if `v` is not a valid node id of this graph.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        self.neighbor_slice(v).len()
    }

    /// Maximum degree `Δ` over all nodes.
    pub fn max_degree(&self) -> usize {
        self.nodes().map(|v| self.degree(v)).max().unwrap_or(0)
    }

    /// The incident `(neighbor, edge)` pairs of `v` as a slice, in
    /// deterministic (neighbor-id) order.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not a valid node id of this graph.
    #[inline]
    // gossip-lint: allow(panic-path): offsets holds n + 1 ascending bounds into arcs, and a NodeId of this graph is < n
    pub fn neighbor_slice(&self, v: NodeId) -> &[(NodeId, EdgeId)] {
        let i = v.index();
        &self.arcs[self.offsets[i]..self.offsets[i + 1]]
    }

    /// Looks up the edge between `u` and `v`, if any.
    pub fn find_edge(&self, u: NodeId, v: NodeId) -> Option<EdgeId> {
        let (probe, target) = if self.degree(u) <= self.degree(v) {
            (u, v)
        } else {
            (v, u)
        };
        self.neighbor_slice(probe)
            .iter()
            .find(|(w, _)| *w == target)
            .map(|(_, e)| *e)
    }

    /// Volume of a set of nodes: the sum of degrees, `Vol(U) = Σ_{v∈U} deg(v)`.
    ///
    /// This is the quantity the paper's conductance definitions normalise by.
    pub fn volume<I: IntoIterator<Item = NodeId>>(&self, nodes: I) -> u64 {
        nodes.into_iter().map(|v| self.degree(v) as u64).sum()
    }

    /// Total volume `2m` of the whole graph.
    pub fn total_volume(&self) -> u64 {
        2 * self.edge_count() as u64
    }

    /// Connected components: their count and each node's label, components
    /// numbered `0..count` in the order of their smallest node.
    pub fn components(&self) -> (usize, Vec<usize>) {
        let mut label = vec![usize::MAX; self.node_count()];
        let mut count = 0;
        let mut stack = Vec::new();
        for start in self.nodes() {
            if label[start.index()] != usize::MAX {
                continue;
            }
            label[start.index()] = count;
            stack.push(start);
            while let Some(v) = stack.pop() {
                for &(w, _) in self.neighbor_slice(v) {
                    if label[w.index()] == usize::MAX {
                        label[w.index()] = count;
                        stack.push(w);
                    }
                }
            }
            count += 1;
        }
        (count, label)
    }

    /// Returns `true` if the graph is connected (single node graphs are connected).
    pub fn is_connected(&self) -> bool {
        self.components().0 == 1
    }

    /// Returns a copy of the graph restricted to edges with latency `<= bound`.
    ///
    /// The node set is unchanged, so the result may be disconnected.  This is
    /// the subgraph `G_ℓ` the paper uses for the ℓ-DTG protocol and for the
    /// weight-ℓ conductance.
    pub fn latency_filtered(&self, bound: Latency) -> Graph {
        let edges: Vec<EdgeRecord> = self
            .edges
            .iter()
            .copied()
            .filter(|e| e.latency <= bound)
            .collect();
        Graph::from_parts(self.node_count(), edges)
            .expect("filtered graph retains the (non-empty) node set")
    }

    /// All distinct latency values present in the graph, sorted ascending.
    pub fn distinct_latencies(&self) -> Vec<Latency> {
        let mut ls: Vec<Latency> = self.edges.iter().map(|e| e.latency).collect();
        ls.sort_unstable();
        ls.dedup();
        ls
    }

    /// Sum of all edge latencies (useful as a crude upper bound on the diameter).
    pub fn total_latency(&self) -> u128 {
        self.edges.iter().map(|e| e.latency as u128).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn path3() -> Graph {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 2).unwrap();
        b.add_edge(1, 2, 5).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn basic_counts() {
        let g = path3();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.max_latency(), 5);
        assert_eq!(g.total_volume(), 4);
    }

    #[test]
    fn degrees_and_neighbors() {
        let g = path3();
        assert_eq!(g.degree(NodeId::new(0)), 1);
        assert_eq!(g.degree(NodeId::new(1)), 2);
        assert_eq!(g.max_degree(), 2);
        let nbrs: Vec<NodeId> = g
            .neighbor_slice(NodeId::new(1))
            .iter()
            .map(|&(v, _)| v)
            .collect();
        assert_eq!(nbrs, vec![NodeId::new(0), NodeId::new(2)]);
    }

    #[test]
    fn find_edge_and_latency() {
        let g = path3();
        let e = g.find_edge(NodeId::new(2), NodeId::new(1)).unwrap();
        assert_eq!(g.latency(e), 5);
        assert!(g.find_edge(NodeId::new(0), NodeId::new(1)).is_some());
        assert_eq!(g.find_edge(NodeId::new(0), NodeId::new(2)), None);
    }

    #[test]
    fn edge_record_other_endpoint() {
        let g = path3();
        let e = g.edge(g.find_edge(NodeId::new(0), NodeId::new(1)).unwrap());
        assert_eq!(e.other(NodeId::new(0)), NodeId::new(1));
        assert_eq!(e.other(NodeId::new(1)), NodeId::new(0));
    }

    #[test]
    #[should_panic]
    fn edge_record_other_panics_for_non_endpoint() {
        let g = path3();
        let e = g.edge(EdgeId::new(0));
        let _ = e.other(NodeId::new(2));
    }

    #[test]
    fn connectivity() {
        let g = path3();
        assert!(g.is_connected());
        // Filtering by latency 2 drops the (1,2) edge and disconnects node 2.
        let f = g.latency_filtered(2);
        assert_eq!(f.edge_count(), 1);
        assert!(!f.is_connected());
    }

    #[test]
    fn components_count_and_label_in_smallest_node_order() {
        let g = path3();
        assert_eq!(g.components(), (1, vec![0, 0, 0]));
        // Components {0, 3}, {1}, {2, 4, 5}.
        let mut b = GraphBuilder::new(6);
        b.add_edge(3, 0, 1).unwrap();
        b.add_edge(5, 2, 1).unwrap();
        b.add_edge(4, 5, 2).unwrap();
        let g = b.build().unwrap();
        assert_eq!(g.components(), (3, vec![0, 1, 2, 0, 2, 2]));
        assert!(!g.is_connected());
    }

    #[test]
    fn from_parts_validates_records_the_builder_never_saw() {
        let record = |u: usize, v: usize, latency: Latency| EdgeRecord {
            u: NodeId::new(u),
            v: NodeId::new(v),
            latency,
        };
        assert_eq!(
            Graph::from_parts(3, vec![record(0, 3, 1)]),
            Err(GraphError::NodeOutOfRange {
                node: 3,
                node_count: 3
            })
        );
        assert_eq!(
            Graph::from_parts(3, vec![record(2, 2, 1)]),
            Err(GraphError::SelfLoop { node: 2 })
        );
        assert_eq!(
            Graph::from_parts(3, vec![record(0, 1, 0)]),
            Err(GraphError::ZeroLatency { u: 0, v: 1 })
        );
        assert_eq!(
            Graph::from_parts(3, vec![record(1, 2, 1), record(0, 1, 1), record(2, 1, 4)]),
            Err(GraphError::DuplicateEdge { u: 1, v: 2 })
        );
    }

    #[test]
    fn volume_of_subsets() {
        let g = path3();
        assert_eq!(g.volume([NodeId::new(0), NodeId::new(1)]), 3);
        assert_eq!(g.volume([NodeId::new(2)]), 1);
    }

    #[test]
    fn distinct_latencies_sorted() {
        let g = path3();
        assert_eq!(g.distinct_latencies(), vec![2, 5]);
        assert_eq!(g.total_latency(), 7);
    }

    #[test]
    fn empty_graph_rejected() {
        assert_eq!(Graph::from_parts(0, vec![]), Err(GraphError::Empty));
    }

    #[test]
    fn single_node_graph_is_connected() {
        let g = GraphBuilder::new(1).build().unwrap();
        assert!(g.is_connected());
        assert_eq!(g.max_degree(), 0);
        assert_eq!(g.max_latency(), 0);
    }
}
