//! Incremental, validated graph construction.

use crate::graph::{check_edge, EdgeRecord};
use crate::{Graph, GraphError, Latency, NodeId};

/// Builder for [`Graph`] values.
///
/// [`add_edge`](Self::add_edge) rejects an edge with an endpoint out of
/// range, a self loop or a zero latency at the call that adds it.  A pair
/// added twice (in either orientation) is rejected by [`build`](Self::build),
/// which checks the whole edge list once.
///
/// # Example
///
/// ```rust
/// use gossip_graph::GraphBuilder;
///
/// let mut b = GraphBuilder::new(3);
/// b.add_edge(0, 1, 1)?;
/// b.add_edge(1, 2, 4)?;
/// let g = b.build()?;
/// assert_eq!(g.edge_count(), 2);
/// # Ok::<(), gossip_graph::GraphError>(())
/// ```
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    node_count: usize,
    edges: Vec<EdgeRecord>,
}

impl GraphBuilder {
    /// Creates a builder for a graph with `node_count` nodes (ids `0..node_count`).
    pub fn new(node_count: usize) -> Self {
        GraphBuilder {
            node_count,
            edges: Vec::new(),
        }
    }

    /// Number of nodes the built graph will have.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Number of edges added so far.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Adds `count` extra nodes and returns the id of the first new node.
    pub fn add_nodes(&mut self, count: usize) -> NodeId {
        let first = self.node_count;
        self.node_count += count;
        NodeId::new(first)
    }

    /// Adds an undirected edge `{u, v}` with the given latency.
    ///
    /// # Errors
    ///
    /// Returns an error if either endpoint is out of range, if `u == v`, or
    /// if the latency is zero.  A duplicate pair is reported by
    /// [`build`](Self::build).
    pub fn add_edge(&mut self, u: usize, v: usize, latency: Latency) -> Result<(), GraphError> {
        check_edge(self.node_count, u, v, latency)?;
        self.edges.push(EdgeRecord {
            u: NodeId::new(u.min(v)),
            v: NodeId::new(u.max(v)),
            latency,
        });
        Ok(())
    }

    /// Reserves capacity for at least `additional` more edges (useful before
    /// a bulk [`add_edge`](Self::add_edge) loop).
    pub fn reserve_edges(&mut self, additional: usize) {
        self.edges.reserve(additional);
    }

    /// Finalises the builder into an immutable [`Graph`].
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::Empty`] if the graph has no nodes and
    /// [`GraphError::DuplicateEdge`] if a pair was added twice.
    pub fn build(self) -> Result<Graph, GraphError> {
        Graph::from_parts(self.node_count, self.edges)
    }

    /// Like [`build`](Self::build) but additionally requires the graph to be connected.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::Disconnected`] if the graph is not connected, and
    /// [`GraphError::Empty`] if it has no nodes.
    pub fn build_connected(self) -> Result<Graph, GraphError> {
        let g = self.build()?;
        if !g.is_connected() {
            return Err(GraphError::Disconnected);
        }
        Ok(g)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_out_of_range() {
        let mut b = GraphBuilder::new(2);
        assert_eq!(
            b.add_edge(0, 5, 1),
            Err(GraphError::NodeOutOfRange {
                node: 5,
                node_count: 2
            })
        );
        assert_eq!(
            b.add_edge(7, 1, 1),
            Err(GraphError::NodeOutOfRange {
                node: 7,
                node_count: 2
            })
        );
    }

    #[test]
    fn rejects_self_loop_zero_latency_and_duplicates() {
        let mut b = GraphBuilder::new(3);
        assert_eq!(b.add_edge(1, 1, 1), Err(GraphError::SelfLoop { node: 1 }));
        assert_eq!(
            b.add_edge(0, 1, 0),
            Err(GraphError::ZeroLatency { u: 0, v: 1 })
        );
        b.add_edge(0, 1, 1).unwrap();
        b.add_edge(1, 0, 3).unwrap();
        assert_eq!(b.build(), Err(GraphError::DuplicateEdge { u: 0, v: 1 }));
    }

    #[test]
    fn duplicate_in_either_orientation_fails_at_build() {
        for (u, v) in [(1, 2), (2, 1)] {
            let mut b = GraphBuilder::new(4);
            b.add_edge(0, 3, 1).unwrap();
            b.add_edge(2, 1, 5).unwrap();
            b.add_edge(3, 1, 1).unwrap();
            b.add_edge(u, v, 5).unwrap();
            assert_eq!(b.build(), Err(GraphError::DuplicateEdge { u: 1, v: 2 }));
        }
        // A repeated edge fails `build_connected` the same way.
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1, 1).unwrap();
        b.add_edge(0, 1, 1).unwrap();
        assert_eq!(
            b.build_connected(),
            Err(GraphError::DuplicateEdge { u: 0, v: 1 })
        );
    }

    #[test]
    fn add_nodes_extends_range() {
        let mut b = GraphBuilder::new(1);
        let first_new = b.add_nodes(2);
        assert_eq!(first_new, NodeId::new(1));
        assert_eq!(b.node_count(), 3);
        b.add_edge(0, 2, 1).unwrap();
        let g = b.build().unwrap();
        assert_eq!(g.node_count(), 3);
    }

    #[test]
    fn build_connected_enforces_connectivity() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 1).unwrap();
        assert_eq!(b.build_connected().unwrap_err(), GraphError::Disconnected);

        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 1).unwrap();
        b.add_edge(1, 2, 1).unwrap();
        assert!(b.build_connected().is_ok());
    }

    #[test]
    fn empty_builder_rejected() {
        assert_eq!(GraphBuilder::new(0).build().unwrap_err(), GraphError::Empty);
    }
}
