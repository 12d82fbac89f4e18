//! Alive-mask views: crash/cut overlays on an immutable [`Graph`].
//!
//! A [`Graph`] is immutable after construction, but fault injection needs
//! nodes to *crash* (and possibly rejoin) and edges to be *cut* mid-run
//! without rebuilding the adjacency (one flat arc array, each node's slice
//! of it bounded by the graph's offsets, with node ids below `n` and edge
//! ids below `m`).  An [`AliveView`] is that overlay:
//! two liveness bitsets (nodes, edges) plus lazily materialised per-node
//! *filtered neighbor lists* for exactly the nodes whose incident topology a
//! fault has touched.  Untouched nodes keep borrowing the graph's own
//! adjacency slice, so the overlay costs `O(n/64 + m/64)` words up front and
//! `O(Σ deg(affected))` per fault event — never `O(m)` per event and never
//! anything on the per-round hot path.
//!
//! # Invariant
//!
//! After every mutation, [`neighbor_slice`](AliveView::neighbor_slice)
//! returns, for every **alive** node, exactly its alive neighbors over
//! un-cut edges: a fault to node `v` (or edge `e`) rebuilds the filtered
//! list of every alive node incident to `v` (resp. `e`).  Consumers can
//! therefore treat the returned slice as the node's current topology with no
//! per-entry liveness checks.

use crate::graph::Graph;
use crate::ids::{EdgeId, NodeId};

/// A node's incident `(neighbor, edge)` list filtered down to alive
/// neighbors and un-cut edges.
type FilteredAdjacency = Box<[(NodeId, EdgeId)]>;

/// Liveness overlay on a [`Graph`]: which nodes are alive, which edges are
/// un-cut, and filtered adjacency for the nodes a fault has touched.
///
/// The view never stores a reference to the graph; every method that needs
/// topology takes `&Graph` so the view can live alongside mutable engine
/// state.  Passing a *different* graph than the one the view was created for
/// is a logic error (sizes are checked only by `debug_assert`).
#[derive(Debug, Clone)]
pub struct AliveView {
    /// Node-liveness bitset (bit `v` set ⇔ node `v` alive).
    node_alive: Vec<u64>,
    /// Edge-liveness bitset (bit `e` set ⇔ edge `e` not cut).
    edge_alive: Vec<u64>,
    /// Filtered `(neighbor, edge)` lists for nodes whose incident topology
    /// changed; `None` means the graph's own slice is still exact.
    overrides: Vec<Option<FilteredAdjacency>>,
    /// Number of alive nodes.
    alive_count: usize,
    /// Number of cut edges.
    cut_edges: usize,
}

impl AliveView {
    /// A view of `graph` with every node alive and every edge un-cut.
    pub fn new(graph: &Graph) -> Self {
        let n = graph.node_count();
        let m = graph.edge_count();
        AliveView {
            node_alive: full_bitset(n),
            edge_alive: full_bitset(m),
            overrides: vec![None; n],
            alive_count: n,
            cut_edges: 0,
        }
    }

    /// Whether node `v` is alive.
    #[inline]
    pub fn is_node_alive(&self, v: NodeId) -> bool {
        bit(&self.node_alive, v.index())
    }

    /// Whether edge `e` has not been cut (its endpoints may still be dead).
    #[inline]
    pub fn is_edge_alive(&self, e: EdgeId) -> bool {
        bit(&self.edge_alive, e.index())
    }

    /// Number of alive nodes.
    #[inline]
    pub fn alive_count(&self) -> usize {
        self.alive_count
    }

    /// Number of cut edges.
    #[inline]
    pub fn cut_edges(&self) -> usize {
        self.cut_edges
    }

    /// The current `(neighbor, edge)` list of `v`: the graph's own slice
    /// until a fault touches `v`'s neighborhood, the filtered override
    /// afterwards.  For an alive `v` the result contains exactly its alive
    /// neighbors over un-cut edges (see the module invariant); for a dead
    /// `v` it is empty.
    // gossip-lint: allow(panic-path): `overrides` is sized node_count at construction and v is a node of the same graph
    pub fn neighbor_slice<'a>(&'a self, graph: &'a Graph, v: NodeId) -> &'a [(NodeId, EdgeId)] {
        match &self.overrides[v.index()] {
            Some(list) => list,
            None => graph.neighbor_slice(v),
        }
    }

    /// Marks `v` dead and rebuilds the filtered lists of its alive
    /// neighbors.  Returns `false` (and does nothing) if `v` was already
    /// dead.
    // gossip-lint: allow(panic-path): `overrides` is sized node_count at construction and v is a node of the same graph
    pub fn kill_node(&mut self, graph: &Graph, v: NodeId) -> bool {
        debug_assert_eq!(self.overrides.len(), graph.node_count());
        if !self.is_node_alive(v) {
            return false;
        }
        clear_bit(&mut self.node_alive, v.index());
        self.alive_count -= 1;
        self.overrides[v.index()] = Some(Box::from([]));
        for &(w, _) in graph.neighbor_slice(v) {
            if self.is_node_alive(w) {
                self.rebuild_override(graph, w);
            }
        }
        true
    }

    /// Marks `v` alive again and rebuilds the filtered lists of `v` and its
    /// alive neighbors (cut edges stay cut).  Returns `false` (and does
    /// nothing) if `v` was already alive.
    pub fn revive_node(&mut self, graph: &Graph, v: NodeId) -> bool {
        if self.is_node_alive(v) {
            return false;
        }
        set_bit(&mut self.node_alive, v.index());
        self.alive_count += 1;
        self.rebuild_override(graph, v);
        for &(w, _) in graph.neighbor_slice(v) {
            if self.is_node_alive(w) {
                self.rebuild_override(graph, w);
            }
        }
        true
    }

    /// Cuts edge `e` permanently and rebuilds the filtered lists of its
    /// alive endpoints.  Returns `false` (and does nothing) if `e` was
    /// already cut.
    pub fn cut_edge(&mut self, graph: &Graph, e: EdgeId) -> bool {
        if !self.is_edge_alive(e) {
            return false;
        }
        clear_bit(&mut self.edge_alive, e.index());
        self.cut_edges += 1;
        let (u, v) = {
            let rec = graph.edge(e);
            (rec.u, rec.v)
        };
        for x in [u, v] {
            if self.is_node_alive(x) {
                self.rebuild_override(graph, x);
            }
        }
        true
    }

    /// Connected components of the *residual* topology — alive nodes over
    /// usable edges — as `(component count, largest component size)`.
    /// `(0, 0)` when no node is alive.
    // gossip-lint: allow(panic-path): `seen` is sized node_count and only indexed by node ids of the same graph
    pub fn residual_components(&self, graph: &Graph) -> (u64, u64) {
        let n = graph.node_count();
        let mut seen = vec![false; n];
        let mut stack: Vec<NodeId> = Vec::new();
        let (mut components, mut largest) = (0u64, 0u64);
        for v in graph.nodes() {
            if !self.is_node_alive(v) || seen[v.index()] {
                continue;
            }
            components += 1;
            let mut size = 0u64;
            seen[v.index()] = true;
            stack.push(v);
            while let Some(x) = stack.pop() {
                size += 1;
                // The module invariant makes this slice exactly the alive
                // neighbors over un-cut edges: no per-entry filtering needed.
                for &(w, _) in self.neighbor_slice(graph, x) {
                    if !seen[w.index()] {
                        seen[w.index()] = true;
                        stack.push(w);
                    }
                }
            }
            largest = largest.max(size);
        }
        (components, largest)
    }

    // gossip-lint: allow(panic-path): `overrides` is sized node_count at construction and v is a node of the same graph
    fn rebuild_override(&mut self, graph: &Graph, v: NodeId) {
        let filtered: Box<[(NodeId, EdgeId)]> = graph
            .neighbor_slice(v)
            .iter()
            .copied()
            .filter(|&(w, e)| bit(&self.node_alive, w.index()) && bit(&self.edge_alive, e.index()))
            .collect();
        self.overrides[v.index()] = Some(filtered);
    }
}

fn full_bitset(len: usize) -> Vec<u64> {
    let mut words = vec![!0u64; len.div_ceil(64)];
    if !len.is_multiple_of(64) {
        if let Some(last) = words.last_mut() {
            *last = (1u64 << (len % 64)) - 1;
        }
    }
    words
}

#[inline]
// gossip-lint: allow(panic-path): callers index liveness bitsets sized ceil(len/64) with i < len by construction
fn bit(words: &[u64], i: usize) -> bool {
    words[i / 64] & (1 << (i % 64)) != 0
}

#[inline]
// gossip-lint: allow(panic-path): callers index liveness bitsets sized ceil(len/64) with i < len by construction
fn set_bit(words: &mut [u64], i: usize) {
    words[i / 64] |= 1 << (i % 64);
}

#[inline]
// gossip-lint: allow(panic-path): callers index liveness bitsets sized ceil(len/64) with i < len by construction
fn clear_bit(words: &mut [u64], i: usize) {
    words[i / 64] &= !(1 << (i % 64));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn pristine_view_borrows_graph_slices() {
        let g = generators::clique(6, 1).unwrap();
        let view = AliveView::new(&g);
        assert_eq!(view.alive_count(), 6);
        assert_eq!(view.cut_edges(), 0);
        for v in g.nodes() {
            assert!(view.is_node_alive(v));
            assert_eq!(view.neighbor_slice(&g, v), g.neighbor_slice(v));
        }
        for e in g.edge_ids() {
            assert!(view.is_edge_alive(e));
        }
        assert_eq!(view.residual_components(&g), (1, 6));
    }

    #[test]
    fn kill_filters_neighbors_and_is_idempotent() {
        let g = generators::star(5, 1).unwrap(); // hub 0, leaves 1..=4
        let mut view = AliveView::new(&g);
        assert!(view.kill_node(&g, NodeId::new(2)));
        assert!(!view.kill_node(&g, NodeId::new(2)), "already dead");
        assert_eq!(view.alive_count(), 4);
        assert!(view.neighbor_slice(&g, NodeId::new(2)).is_empty());
        let hub: Vec<_> = view
            .neighbor_slice(&g, NodeId::new(0))
            .iter()
            .map(|&(w, _)| w.index())
            .collect();
        assert_eq!(hub, vec![1, 3, 4]);
        // Killing the hub strands every leaf.
        assert!(view.kill_node(&g, NodeId::new(0)));
        assert_eq!(view.residual_components(&g), (3, 1));
    }

    #[test]
    fn revive_restores_filtered_topology_but_not_cut_edges() {
        let g = generators::path(3, 1).unwrap(); // 0-1-2
        let mut view = AliveView::new(&g);
        let middle = NodeId::new(1);
        view.kill_node(&g, middle);
        assert_eq!(view.residual_components(&g), (2, 1));
        // Cut 0-1 while node 1 is down, then revive it: the cut is permanent.
        let e01 = g.find_edge(NodeId::new(0), middle).unwrap();
        assert!(view.cut_edge(&g, e01));
        assert!(!view.cut_edge(&g, e01), "already cut");
        assert!(view.revive_node(&g, middle));
        assert!(!view.revive_node(&g, middle), "already alive");
        assert_eq!(view.alive_count(), 3);
        assert!(!view.is_edge_alive(e01));
        let mid: Vec<_> = view
            .neighbor_slice(&g, middle)
            .iter()
            .map(|&(w, _)| w.index())
            .collect();
        assert_eq!(mid, vec![2]);
        assert!(view.neighbor_slice(&g, NodeId::new(0)).is_empty());
        assert_eq!(view.residual_components(&g), (2, 2));
    }

    #[test]
    fn cut_edge_updates_both_endpoints() {
        let g = generators::cycle(4, 1).unwrap();
        let mut view = AliveView::new(&g);
        let e = g.find_edge(NodeId::new(0), NodeId::new(1)).unwrap();
        view.cut_edge(&g, e);
        assert_eq!(view.cut_edges(), 1);
        for v in [NodeId::new(0), NodeId::new(1)] {
            assert!(!view
                .neighbor_slice(&g, v)
                .iter()
                .any(|&(_, edge)| edge == e));
        }
        // A cycle minus one edge is still connected.
        assert_eq!(view.residual_components(&g), (1, 4));
    }

    #[test]
    fn all_dead_residual_is_empty() {
        let g = generators::clique(3, 1).unwrap();
        let mut view = AliveView::new(&g);
        for v in g.nodes() {
            view.kill_node(&g, v);
        }
        assert_eq!(view.alive_count(), 0);
        assert_eq!(view.residual_components(&g), (0, 0));
    }
}
