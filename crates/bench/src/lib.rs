//! # gossip-bench
//!
//! The experiment harness: one function per entry of the experiment index
//! (E1–E8, F1, F2, F8), tabulated with the paper claim each one checks in
//! [`experiments`].  Each experiment returns a [`Table`] whose rows are also
//! serialisable to JSON, and the `experiments` binary prints them (README,
//! "The experiments binary").

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bench_check;
pub mod experiments;
pub mod json;
pub mod sweep;
pub mod table;

pub use table::{Cell, Table};

/// How large the experiment sweeps should be.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Scale {
    /// Small parameters — used by the test-suite.
    Quick,
    /// The full-size parameters the `experiments` binary runs by default.
    #[default]
    Full,
    /// The large-scale scenario grid (thousands of nodes per instance; tens
    /// of thousands for the cheap protocols, including 32768-node all-to-all
    /// star cells).  Only the sweep runner distinguishes this from
    /// [`Scale::Full`]; the table experiments treat it as full-size.
    Large,
    /// Everything in [`Scale::Large`] plus the huge tier opened by the
    /// interval-compressed engine: 65536-node all-to-all stars, a
    /// 131072-node one-to-all star, and a 16384-node Erdős–Rényi broadcast.
    /// Opt-in (`experiments sweep --huge`): the CI Large sweep leaves it
    /// out, and CI's thread-scaling smoke runs only its 65536-node star
    /// cells.
    Huge,
}

impl Scale {
    /// Picks between the quick and full value ([`Scale::Large`] and
    /// [`Scale::Huge`] count as full).  Both values are built before the
    /// pick, so neither may depend on the other's side effects.
    pub fn pick<T>(self, quick: T, full: T) -> T {
        match self {
            Scale::Quick => quick,
            Scale::Full | Scale::Large | Scale::Huge => full,
        }
    }

    /// Stable identifier used in reports and artifacts.
    pub fn name(self) -> &'static str {
        match self {
            Scale::Quick => "quick",
            Scale::Full => "full",
            Scale::Large => "large",
            Scale::Huge => "huge",
        }
    }
}
