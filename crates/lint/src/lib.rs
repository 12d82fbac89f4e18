//! # gossip-lint
//!
//! A hand-rolled static-analysis pass that machine-checks the determinism
//! conventions every reproducibility claim in this repo rests on:
//! byte-identical sweep reports across thread counts, `semantics`-identical
//! engine equivalence, and the committed bench baseline.
//!
//! No `syn`, no network: a comment/string-stripping Rust lexer
//! ([`lexer`]) feeds token-stream pattern rules ([`rules`]) over a
//! deterministic workspace walk ([`workspace`]), with `file:line`
//! diagnostics and a `--json` mode (schema `gossip-lint/v2`, line-free
//! stable finding ids) reusing `gossip-bench`'s JSON writer ([`report`]).
//! On top of the per-file rules, **gossip-audit** builds a workspace item
//! index ([`items`]), a conservative name-based call graph ([`callgraph`]),
//! and effect extractors ([`effects`]) to check two interprocedural
//! contracts plus a crate-level ban.
//!
//! ## Per-file rules
//!
//! | rule | fires on |
//! |------|----------|
//! | `unordered-iter` | `HashMap`/`HashSet` declaration or iteration in non-test code |
//! | `wall-clock` | `Instant`/`SystemTime` in non-test code |
//! | `ambient-rng` | `thread_rng`/`from_entropy`/`OsRng` — all RNG must be seeded |
//! | `par-order` | parallel iterators chained into order-sensitive sinks |
//! | `debug-assert-side-effect` | mutation inside `debug_assert!` |
//! | `forbid-unsafe` | crate roots missing `#![forbid(unsafe_code)]` |
//!
//! ## Audit rules (workspace-level)
//!
//! | rule | fires on |
//! |------|----------|
//! | `panic-path` | a potential panic site (`unwrap`, `panic!`, indexing, `/`/`%`) in any fn reachable from the merge/delivery roots |
//! | `idle-purity` | an unannotated `fn activity`, or a `contract(pure)` fn that (transitively) mutates non-local state, uses interior mutability, or draws ambient RNG |
//! | `shared-state` | `Mutex`/`RwLock`/`Atomic*`/`static mut`/memory `Ordering` in the audited engine crates |
//!
//! ## Pragmas and contracts
//!
//! A finding is suppressed by an inline pragma **with a mandatory reason**:
//!
//! ```text
//! // gossip-lint: allow(unordered-iter): keyed access only, never iterated
//! ```
//!
//! Purity obligations are declared with a contract annotation on the fn:
//!
//! ```text
//! // gossip-audit: contract(pure)
//! fn activity(shared: &Self::Shared, state: &Self::Node, view: &NodeView<'_>) -> Activity { ... }
//! ```
//!
//! A trailing pragma targets its own line; a pragma on its own line targets
//! the next line of code (for `panic-path`/`idle-purity`, the anchor is the
//! `fn` line, so the pragma sits directly above the declaration).
//! Malformed pragmas, pragmas that suppress nothing, and dangling or
//! unknown contracts are themselves findings, so every suppression in the
//! tree stays load-bearing — `gossip-lint --suppressions` prints the
//! inventory and fails CI on any unused entry.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod callgraph;
pub mod effects;
pub mod items;
pub mod lexer;
pub mod report;
pub mod rules;
pub mod workspace;

pub use report::{Finding, Report, Suppression};
pub use rules::{analyze_source, FileAnalysis};
pub use workspace::{
    analyze_sources, analyze_sources_with, collect_sources, AuditConfig, SourceFile,
};
