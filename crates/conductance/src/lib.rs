//! # gossip-conductance
//!
//! Weighted-conductance machinery from *Slow Links, Fast Links, and the Cost
//! of Gossip* (Sourav, Robinson, Gilbert — ICDCS 2018), Section 2.
//!
//! The paper generalises graph conductance to graphs whose edges carry
//! latencies, in two (nearly) equivalent ways:
//!
//! * the **weight-ℓ conductance** `φ_ℓ(G)` (Definition 1): for a cut `C`,
//!   `φ_ℓ(C) = |E_ℓ(C)| / min(Vol(U), Vol(V∖U))` where `E_ℓ(C)` is the set of
//!   cut edges with latency at most `ℓ`, and `φ_ℓ(G)` is the minimum over all
//!   cuts;
//! * the **critical weighted conductance** `φ*` with **critical latency** `ℓ*`
//!   (Definition 2): the `φ_ℓ` whose ratio `φ_ℓ / ℓ` is maximal;
//! * the **average weighted conductance** `φ_avg` (Definitions 3–4): cut
//!   edges are grouped into latency classes `(2^{i-1}, 2^i]` and each class is
//!   discounted by `2^i`.
//!
//! Theorem 5 relates the two: `φ*/(2ℓ*) ≤ φ_avg ≤ L·φ*/ℓ*` where `L` is the
//! number of non-empty latency classes.  The test-suite and the E1 experiment
//! check this relation on every graph family.
//!
//! Exact values require minimising over all `2^{n-1}` cuts, which this crate
//! does for small graphs ([`Method::Exact`]); for larger graphs it uses
//! spectral sweep cuts plus targeted candidate cuts ([`Method::SweepCut`]),
//! which give an upper bound on each `φ_ℓ` (and therefore estimates that are
//! validated against the exact values in the test-suite).
//!
//! ## Cost
//!
//! [`analyze`] is the one analysis entry point.  It makes one pass over the
//! cuts its method considers, moving a single node across the cut from one
//! cut to the next and updating the volume and per-latency cut-edge counts in
//! `O(deg v)`; no cut is materialised.  Every quantity of the
//! [`ConductanceReport`] comes from that one pass, and `φ_ℓ` at any `ℓ` is
//! read from its profile by [`ConductanceReport::phi_ell`].
//! [`Method::SweepCut`] costs one Fiedler solve per sweep
//! threshold (see [`candidate_cuts`]) plus `O(m + n·L)` per ordering, with
//! `L` the number of distinct latencies.  A solve is at most 200
//! power-iteration steps of `O(n + m_ℓ)` each (`m_ℓ` edges in `G_ℓ`): every
//! node gathers its own terms over its `G_ℓ` neighbours in edge-id order, and
//! the solve stops as soon as an iterate repeats one of the last few bit for
//! bit, returning the vector all 200 steps would give.  On a large `G_ℓ` the
//! gathers of a step are split across up to `rayon::current_num_threads()`
//! threads, with the same bits at any thread count.  [`Method::Exact`] costs
//! `O(2^{n-1}·(Δ + L))` over a Gray-code order.  The results are
//! bit-identical to minimising [`phi_ell_of_cut`] and [`phi_avg_of_cut`] over
//! [`candidate_cuts`] / [`enumerate_cuts`], which remain the per-cut
//! reference.
//!
//! ```rust
//! use gossip_graph::generators;
//! use gossip_conductance::{analyze, Method};
//!
//! // A dumbbell: two 4-cliques joined by one slow bridge.
//! let g = generators::dumbbell(4, 16).unwrap();
//! let report = analyze(&g, Method::Exact).unwrap();
//! // The bottleneck cut is the bridge; the bridge is the only cut edge, so
//! // the critical latency is the bridge latency.
//! assert_eq!(report.ell_star, 16);
//! assert!(report.phi_star > 0.0);
//! assert!(report.theorem5_holds());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod analysis;
mod cut_eval;
mod cut_sweep;
mod error;
mod exact;
mod sweep;

pub use analysis::{analyze, ConductanceReport, Method, MAX_AUTO_EXACT_NODES};
pub use cut_eval::{nonempty_latency_classes, phi_avg_of_cut, phi_ell_of_cut};
pub use error::ConductanceError;
pub use exact::{enumerate_cuts, MAX_EXACT_NODES};
pub use sweep::{candidate_cuts, fiedler_ordering};
