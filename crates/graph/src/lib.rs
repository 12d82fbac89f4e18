//! # gossip-graph
//!
//! Weighted-graph substrate for the reproduction of *Slow Links, Fast Links,
//! and the Cost of Gossip* (Sourav, Robinson, Gilbert — ICDCS 2018).
//!
//! The paper models a network as a connected, undirected graph `G = (V, E)`
//! where every edge carries an integer *latency*: a bidirectional exchange over
//! an edge of latency `ℓ` takes `ℓ` rounds to complete.  This crate provides
//! that substrate:
//!
//! * [`Graph`] — an undirected graph with integer edge latencies and stable
//!   [`NodeId`] / [`EdgeId`] handles,
//! * [`AliveView`] — crash/cut liveness overlays on an immutable graph
//!   (filtered adjacency for fault injection),
//! * [`GraphBuilder`] — incremental, validated construction,
//! * [`generators`] — the graph families used throughout the paper's proofs
//!   and the evaluation harness (cliques, expanders, rings of cliques,
//!   Erdős–Rényi, grids, stars, dumbbells, bipartite gadgets, …),
//! * [`metrics`] — weighted distances (Dijkstra) and the weighted diameter
//!   `D`, exact or bracketed, with a summary of `n`, `m`, `Δ` and `ℓ_max`,
//! * [`cut`] — cuts, cut edges and their latency-class decomposition
//!   (the raw material of Definitions 1–4 of the paper),
//! * [`spanner`] — directed subgraph/spanner representation with per-node
//!   orientation and stretch measurement (Lemma 19 / Theorem 20),
//! * [`latency`] — latency-assignment strategies used to build weighted
//!   instances of the unweighted families.
//!
//! # Example
//!
//! ```rust
//! use gossip_graph::{GraphBuilder, Latency};
//!
//! // A 4-cycle where one edge is 10x slower than the others.
//! let mut b = GraphBuilder::new(4);
//! b.add_edge(0, 1, 1).unwrap();
//! b.add_edge(1, 2, 1).unwrap();
//! b.add_edge(2, 3, 1).unwrap();
//! b.add_edge(3, 0, 10).unwrap();
//! let g = b.build().unwrap();
//!
//! assert_eq!(g.node_count(), 4);
//! assert_eq!(g.edge_count(), 4);
//! assert_eq!(g.max_latency(), 10 as Latency);
//! assert!(g.is_connected());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod alive;
mod builder;
mod error;
mod graph;
mod ids;

pub mod cut;
pub mod generators;
pub mod latency;
pub mod metrics;
pub mod spanner;

pub use alive::AliveView;
pub use builder::GraphBuilder;
pub use error::GraphError;
pub use graph::{EdgeRecord, Graph};
pub use ids::{EdgeId, Latency, NodeId};
