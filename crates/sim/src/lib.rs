//! # gossip-sim
//!
//! A deterministic, synchronous, round-based simulator of the communication
//! model of *Slow Links, Fast Links, and the Cost of Gossip* (Sourav,
//! Robinson, Gilbert — ICDCS 2018).
//!
//! The model (Section 1 of the paper):
//!
//! * communication proceeds in synchronous rounds over the edges of an
//!   undirected graph with integer edge latencies;
//! * in each round a node may choose **one** neighbor and initiate a
//!   bidirectional exchange with it; if the edge has latency `ℓ`, the exchange
//!   completes `ℓ` rounds later and both endpoints learn each other's rumors;
//! * exchanges are **non-blocking**: a node may initiate a new exchange every
//!   round even while earlier ones are still in flight.  A protocol that must
//!   wait for its own exchange to complete waits itself — ℓ-DTG, and with it
//!   the pattern broadcast of Section 4.2 (analysed "even with blocking
//!   communication"), holds a node's next initiation until
//!   [`Protocol::on_exchange`] reports the previous one done;
//! * nodes know their neighbors but, in the *unknown latency* setting, not the
//!   latencies of their incident edges; the latency of an edge is revealed to
//!   both endpoints once an exchange over that edge completes, as
//!   [`ExchangeEvent::latency`] in [`Protocol::on_exchange`].
//!
//! Algorithms are expressed as [`Protocol`] implementations and executed with
//! [`Simulation`].  The engine owns the per-node [`RumorSet`]s and merges them
//! when exchanges complete, so a protocol only decides *who to contact when*;
//! this matches the paper's treatment where the content of messages is always
//! "everything I currently know".  A protocol keeps shared rules plus one
//! state value per node ([`Protocol::split`]); each node's decision writes
//! only its own state, so [`Simulation::run`] steps the nodes of a round on
//! [`SimConfig::threads`] workers with byte-identical reports.
//!
//! ```rust
//! use gossip_graph::{generators, NodeId};
//! use gossip_sim::{Simulation, SimConfig, Termination, protocols::RandomPushPull};
//!
//! let g = generators::clique(16, 1).unwrap();
//! let config = SimConfig::new(7).termination(Termination::AllKnowRumorOf(NodeId::new(0)));
//! let report = Simulation::broadcast(&g, config, NodeId::new(0)).run(&mut RandomPushPull::new(&g));
//! assert!(report.completed);
//! assert!(report.rounds <= 32, "push-pull on a small clique is fast");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
mod fault;
mod report;
mod rumor;

#[doc(hidden)]
pub mod oracle;
pub mod protocols;

pub use engine::{
    stateless, Activity, ExchangeEvent, NodeView, Protocol, SimConfig, Simulation, Termination,
};
pub use fault::{ChurnSpec, FaultEvent, FaultPlan};
pub use report::{FaultReport, MemStats, RunReport};
pub use rumor::{RumorId, RumorSet, Seeding};
