//! Deterministic workspace walker and the interprocedural audit driver:
//! finds every first-party `.rs` file, classifies it (test code / crate
//! root / module path), runs the per-file rules, builds the workspace item
//! index and call graph, and runs the three audit rules on top.
//!
//! The analysis is staged: stage one lexes everything and collects
//! `#[cfg(test)] mod name;` declarations so that *file* modules gated to
//! tests are exempted like inline `#[cfg(test)]` blocks; stage two
//! classifies files, runs the per-file rules, and indexes `fn` items;
//! stage three builds the call graph and runs the audit rules
//! (`panic-path`, `idle-purity`,
//! and shared-state, which is per-file but configured here); stage four
//! enriches findings with their enclosing item and line snippet (the
//! inputs to the stable finding id) and applies each file's pragmas.
//! File order is sorted, so the report is byte-identical across runs and
//! platforms.
//!
//! Collection ([`collect_sources`]) and analysis ([`analyze_sources`]) are
//! separate so the test-suite can analyse *modified* in-memory sources —
//! stripping a pragma or injecting a violation — and assert the workspace
//! verdict flips, without touching the checkout.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::callgraph::{self, crate_of};
use crate::effects;
use crate::items::{index_file, Item};
use crate::lexer::{lex, Lexed};
use crate::report::{Finding, Report, Suppression};
use crate::rules::{apply_pragmas, file_findings, test_regions, FileInput};

/// Directories never descended into: build output, vendored third-party
/// code (not ours to lint), VCS metadata, and the lint crate's own
/// deliberately-violating test fixtures.
const SKIP_DIRS: &[&str] = &["target", "vendor", ".git", "fixtures"];

/// Path components that mark everything beneath them as test code — unless
/// the component is a crate directory itself (`crates/tests` is the
/// integration-test *crate*, whose `src/lib.rs` is normal source).
const TEST_DIRS: &[&str] = &["tests", "benches", "examples"];

/// One source file queued for analysis.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Workspace-relative path with `/` separators (used in diagnostics and
    /// for classification).
    pub rel: String,
    /// The file contents.
    pub content: String,
}

/// Configuration for the workspace-level audit rules.
///
/// The defaults encode this repo's contracts: the merge/delivery/calendar
/// path of the engine plus the heavy-protocol entry points as panic-path
/// roots, and the engine crates as shared-state- and idle-purity-audited
/// paths.
pub struct AuditConfig {
    /// `panic-path` roots, as `Type::name` (methods/associated fns) or
    /// bare `name` (free fns) strings.  Every fn transitively reachable
    /// from a root must be free of potential panic sites or carry a
    /// reasoned `allow(panic-path)` pragma on its `fn` line.
    pub panic_roots: Vec<String>,
    /// Path prefixes whose non-test code must stay free of shared-state
    /// primitives (`Mutex`, atomics, `static mut`, ...): determinism here
    /// is argued from value-identical merges, never from synchronisation.
    pub shared_state_paths: Vec<String>,
    /// Path prefixes whose non-test `fn activity` implementations (the
    /// idle-skip decision of the event-driven scheduler) must carry — and
    /// honor — a `// gossip-audit: contract(pure)` annotation.
    pub activity_paths: Vec<String>,
}

impl Default for AuditConfig {
    fn default() -> Self {
        let panic_roots = [
            // The engine's top-level driver (its round phases and the
            // decision pass resolve from it by name) and its
            // merge/delivery/calendar internals.
            "Simulation::run",
            "Simulation::run_sharded",
            "Progress::merge_completions",
            "Calendar::next_event",
            // The sharded merge/decision machinery: shard phase workers, the
            // destination partitioner and the pool fan-out helper (also
            // reachable by name from `merge_completions`; listed explicitly
            // because they are the parallel-path contract this audit exists
            // to keep panic-free).
            "merge_shard_phase_a",
            "merge_shard_phase_b",
            "partition_tasks",
            "run_jobs",
            // The decision pass dispatches `on_round` and `activity`
            // `P::`-qualified, which the call graph cannot resolve, so every
            // engine-crate implementation is a root.  (`split` and the
            // serial callbacks are method calls and resolve by name.)
            "RandomPushPull::on_round",
            "RandomPushPull::activity",
            "RoundRobinFlood::on_round",
            "RoundRobinFlood::activity",
            "Silent::on_round",
            "Silent::activity",
            // The dense-bitset oracle, the executable spec the engine is
            // checked against, is driven only from the test harnesses, so it
            // roots itself.
            "OracleSimulation::run",
            // Rumor-set merge operations (the parallel-merge contract).
            "RumorSet::insert",
            "RumorSet::insert_delta",
            "RumorSet::complement_runs",
            // The delta window and the merge's batch builder, driven from
            // both merge phases.
            "NewRumors::add_difference",
            "NewRumors::drain_runs",
            "PhaseBatches::push",
            "PhaseBatches::get",
            "PhaseBatches::iter",
            "PhaseBatches::extend",
            "DeltaWindow::push",
            "DeltaWindow::age_out",
            "DeltaWindow::deltas_since",
            // Heavy-protocol entry points dispatched through `P: Protocol`
            // generics — invisible to the name-based call graph from
            // `Simulation::run` (core is not a dependency of sim), so they
            // are roots of their own.
            "EllDtg::on_round",
            "EllDtg::on_exchange",
            "EllDtg::activity",
            "RrBroadcast::on_round",
            "RrBroadcast::activity",
            "ProbeAll::on_round",
            "CrossEdgeRecorder::on_round",
            // Fault-injection entry points.  Plan construction runs before
            // `Simulation::run` (from bench/test harnesses), and the
            // graceful-degradation accounting walks liveness bitsets — both
            // must be panic-free on every seed, so they are roots of their
            // own in addition to being reachable from the engine driver.
            "FaultPlan::random_churn",
            "Progress::crash_node",
            "Progress::rejoin_node",
            "AliveView::kill_node",
            "AliveView::revive_node",
            "AliveView::residual_components",
            "stranded_rumors",
        ];
        Self {
            panic_roots: panic_roots.iter().map(|s| s.to_string()).collect(),
            shared_state_paths: vec!["crates/sim/".to_string(), "crates/core/".to_string()],
            activity_paths: vec!["crates/sim/".to_string(), "crates/core/".to_string()],
        }
    }
}

/// Lints every first-party source file under `root` (the workspace root)
/// with the default audit configuration.
pub fn run(root: &Path) -> io::Result<Report> {
    Ok(analyze_sources(&collect_sources(root)?))
}

/// Collects every first-party `.rs` file under `root`, sorted by relative
/// path.
pub fn collect_sources(root: &Path) -> io::Result<Vec<SourceFile>> {
    let mut paths = Vec::new();
    collect(root, &mut paths)?;
    paths.sort();
    paths
        .into_iter()
        .map(|path| {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            Ok(SourceFile {
                rel,
                content: fs::read_to_string(&path)?,
            })
        })
        .collect()
}

/// Runs the rules over an in-memory source set with the default audit
/// configuration (see module docs).
pub fn analyze_sources(files: &[SourceFile]) -> Report {
    analyze_sources_with(files, &AuditConfig::default())
}

/// Per-file classification computed once in stage two.
struct FileCtx {
    module: String,
    whole_file_test: bool,
    crate_root: bool,
}

/// Runs the per-file rules *and* the workspace audit rules over an
/// in-memory source set.
pub fn analyze_sources_with(files: &[SourceFile], config: &AuditConfig) -> Report {
    // Stage one: lex everything, collect `#[cfg(test)] mod name;` modules.
    let mut lexed: Vec<Lexed> = Vec::new();
    let mut test_files: BTreeSet<PathBuf> = BTreeSet::new();
    for file in files {
        let lx = lex(&file.content);
        let (_, test_mods) = test_regions(&lx.tokens);
        for name in &test_mods {
            for candidate in test_mod_candidates(Path::new(&file.rel), name) {
                test_files.insert(candidate);
            }
        }
        lexed.push(lx);
    }

    // Stage two: classify, run the per-file rules, index items.
    let mut ctxs: Vec<FileCtx> = Vec::new();
    let mut raw: Vec<Finding> = Vec::new();
    let mut items: Vec<Item> = Vec::new();
    for (fi, (file, lx)) in files.iter().zip(&lexed).enumerate() {
        let rel = Path::new(&file.rel);
        let ctx = FileCtx {
            module: module_path(rel),
            whole_file_test: is_test_path(rel) || test_files.contains(rel),
            crate_root: is_crate_root(rel),
        };
        let input = FileInput {
            path: &file.rel,
            module: &ctx.module,
            lexed: lx,
            whole_file_test: ctx.whole_file_test,
            crate_root: ctx.crate_root,
        };
        raw.extend(file_findings(&input));

        let (mut test_mask, _) = test_regions(&lx.tokens);
        if ctx.whole_file_test {
            test_mask.iter_mut().for_each(|b| *b = true);
        }
        let (file_items, contract_issues) = index_file(fi, &ctx.module, lx, &test_mask);
        for issue in contract_issues {
            raw.push(Finding::new(
                "contract",
                &file.rel,
                issue.line,
                &ctx.module,
                issue.message,
            ));
        }
        items.extend(file_items);

        // shared-state is per-file but belongs to the audit: value-identity
        // arguments break down the moment synchronisation primitives enter
        // the audited crates.
        if config
            .shared_state_paths
            .iter()
            .any(|p| file.rel.starts_with(p.as_str()))
        {
            for site in effects::shared_state_sites(&lx.tokens, &test_mask) {
                raw.push(Finding::new(
                    "shared-state",
                    &file.rel,
                    site.line,
                    &ctx.module,
                    format!(
                        "{} in an audited crate: determinism is argued from value-identical merges, not synchronisation — remove it or allowlist with a reasoned pragma",
                        site.what
                    ),
                ));
            }
        }
        ctxs.push(ctx);
    }

    // Stage three: call graph + interprocedural audit rules.
    let crate_names: Vec<String> = files.iter().map(|f| crate_of(&f.rel).to_string()).collect();
    let graph = callgraph::build(&items, |fi| &lexed[fi].tokens, &crate_names);
    audit_panic_path(files, &lexed, &items, &graph, &ctxs, config, &mut raw);
    audit_idle_purity(files, &lexed, &items, &graph, &ctxs, config, &mut raw);

    // Stage four: enrichment, pragma application, suppression inventory.
    let contracts_attached: BTreeSet<(usize, u32)> = items
        .iter()
        .filter_map(|it| it.contract_line.map(|l| (it.file, l)))
        .collect();
    let file_index: BTreeMap<&str, usize> = files
        .iter()
        .enumerate()
        .map(|(fi, f)| (f.rel.as_str(), fi))
        .collect();
    let mut by_file: BTreeMap<usize, Vec<Finding>> = BTreeMap::new();
    for finding in raw {
        let fi = file_index[finding.file.as_str()];
        by_file.entry(fi).or_default().push(finding);
    }

    let mut report = Report {
        files_scanned: files.len(),
        ..Report::default()
    };
    for (fi, (file, lx)) in files.iter().zip(&lexed).enumerate() {
        let ctx = &ctxs[fi];
        let input = FileInput {
            path: &file.rel,
            module: &ctx.module,
            lexed: lx,
            whole_file_test: ctx.whole_file_test,
            crate_root: ctx.crate_root,
        };
        let outcome = apply_pragmas(&input, by_file.remove(&fi).unwrap_or_default());
        for mut finding in outcome.findings {
            enrich(&mut finding, fi, lx, &items);
            report.findings.push(finding);
        }
        report.pragmas_used += outcome.pragmas_used;
        for (rule, n) in outcome.suppressed_by_rule {
            *report.suppressed_by_rule.entry(rule).or_default() += n;
        }
        for (pi, pragma) in lx.pragmas.iter().enumerate() {
            report.suppressions.push(Suppression {
                file: file.rel.clone(),
                line: pragma.line,
                kind: "pragma".to_string(),
                name: pragma.rule.clone(),
                reason: pragma.reason.clone(),
                used: outcome.pragma_used[pi],
            });
        }
        for contract in &lx.contracts {
            report.suppressions.push(Suppression {
                file: file.rel.clone(),
                line: contract.line,
                kind: "contract".to_string(),
                name: contract.kind.clone(),
                reason: String::new(),
                used: contracts_attached.contains(&(fi, contract.line)),
            });
        }
    }
    report.findings.sort();
    report.suppressions.sort();
    report
}

/// Does a `Type::name` / `name` root spec match an indexed item?
fn root_matches(root: &str, item: &Item) -> bool {
    match root.split_once("::") {
        Some((ty, name)) => item.self_ty.as_deref() == Some(ty) && item.name == name,
        None => item.self_ty.is_none() && item.name == root,
    }
}

/// **panic-path** — every fn transitively reachable from the configured
/// merge/delivery roots must be free of potential panic sites.
///
/// Sites within one fn are aggregated into a single finding anchored on its
/// `fn` line (so one reasoned pragma covers the fn), with the per-site
/// lines in the human-only detail and the BFS path from the root in the
/// message.
///
/// A root that matches no non-test fn (renamed or deleted) would audit
/// nothing, so it is reported on the line of the string literal declaring
/// it.  A root declared outside the analysed sources (a partial source set
/// under the default configuration, as in unit tests) has no such line and
/// is not reported.
fn audit_panic_path(
    files: &[SourceFile],
    lexed: &[Lexed],
    items: &[Item],
    graph: &callgraph::CallGraph,
    ctxs: &[FileCtx],
    config: &AuditConfig,
    raw: &mut Vec<Finding>,
) {
    for root in &config.panic_roots {
        if items.iter().any(|it| !it.is_test && root_matches(root, it)) {
            continue;
        }
        let literal = format!("\"{root}\"");
        let declared = files
            .iter()
            .zip(ctxs)
            .enumerate()
            .find_map(|(fi, (file, ctx))| {
                let at = file.content.lines().position(|l| l.contains(&literal))?;
                (!ctx.whole_file_test).then_some((fi, at as u32 + 1))
            });
        if let Some((fi, line)) = declared {
            raw.push(Finding::new(
                "panic-path",
                &files[fi].rel,
                line,
                &ctxs[fi].module,
                format!("panic-path root `{root}` matches no non-test fn, so it audits nothing; rename or remove it"),
            ));
        }
    }
    let roots: Vec<usize> = items
        .iter()
        .enumerate()
        .filter(|(_, item)| {
            !item.is_test && config.panic_roots.iter().any(|r| root_matches(r, item))
        })
        .map(|(idx, _)| idx)
        .collect();
    let seen = callgraph::reach(graph, &roots);
    for &idx in seen.keys() {
        let item = &items[idx];
        let Some(body) = item.body else {
            continue;
        };
        let sites = effects::panic_sites(&lexed[item.file].tokens, body);
        if sites.is_empty() {
            continue;
        }
        let mut counts: BTreeMap<&str, usize> = BTreeMap::new();
        for site in &sites {
            *counts.entry(site.kind).or_default() += 1;
        }
        let kinds = effects::PANIC_KINDS
            .iter()
            .filter_map(|k| counts.get(k).map(|n| format!("{n} {k}")))
            .collect::<Vec<_>>()
            .join(", ");
        let detail = sites
            .iter()
            .map(|s| format!("line {} ({})", s.line, s.kind))
            .collect::<Vec<_>>()
            .join(", ");
        let mut finding = Finding::new(
            "panic-path",
            &files[item.file].rel,
            item.line,
            &ctxs[item.file].module,
            format!(
                "`{}` is on the merge/delivery panic-path ({}) with {}; prove each site unreachable and allowlist with a reasoned pragma, or restructure",
                item.qual,
                callgraph::path_to_root(items, &seen, idx),
                kinds
            ),
        );
        finding.item = item.qual.clone();
        finding.detail = format!("sites: {detail}");
        raw.push(finding);
    }
}

/// **idle-purity** — the idle-skip decision must be pure, transitively.
///
/// Two sub-checks: *coverage* (every non-test `fn activity` in the audited
/// paths — a method, or the associated fn over `(shared, state, view)` the
/// `Protocol` trait declares — must carry `contract(pure)`, so stripping an
/// annotation flips the workspace verdict) and *verification* (each
/// `contract(pure)` fn, and everything it transitively calls, is free of
/// purity violations).  Violations anchor on the contract-carrying fn's
/// line, so one pragma there covers a deliberate exception.
fn audit_idle_purity(
    files: &[SourceFile],
    lexed: &[Lexed],
    items: &[Item],
    graph: &callgraph::CallGraph,
    ctxs: &[FileCtx],
    config: &AuditConfig,
    raw: &mut Vec<Finding>,
) {
    for item in items {
        if item.is_test || item.name != "activity" || item.contract_pure {
            continue;
        }
        let rel = &files[item.file].rel;
        if !config
            .activity_paths
            .iter()
            .any(|p| rel.starts_with(p.as_str()))
        {
            continue;
        }
        let mut finding = Finding::new(
            "idle-purity",
            rel,
            item.line,
            &ctxs[item.file].module,
            format!(
                "`{}` implements the idle-skip decision but carries no `// gossip-audit: contract(pure)` annotation — the event-driven scheduler is only sound if this is pure",
                item.qual
            ),
        );
        finding.item = item.qual.clone();
        raw.push(finding);
    }

    for (idx, item) in items.iter().enumerate() {
        if !item.contract_pure || item.is_test {
            continue;
        }
        let seen = callgraph::reach(graph, &[idx]);
        for &jdx in seen.keys() {
            let callee = &items[jdx];
            for violation in effects::purity_sites(callee, &lexed[callee.file].tokens) {
                let message = if jdx == idx {
                    format!(
                        "contract(pure) on `{}` is violated: it {}",
                        item.qual, violation.what
                    )
                } else {
                    format!(
                        "contract(pure) on `{}` is violated transitively: `{}` ({}) {}",
                        item.qual,
                        callee.qual,
                        callgraph::path_to_root(items, &seen, jdx),
                        violation.what
                    )
                };
                let mut finding = Finding::new(
                    "idle-purity",
                    &files[item.file].rel,
                    item.line,
                    &ctxs[item.file].module,
                    message,
                );
                finding.item = item.qual.clone();
                finding.detail = format!("site: {}:{}", files[callee.file].rel, violation.line);
                raw.push(finding);
            }
        }
    }
}

/// Fills a finding's `snippet` (token texts of its anchor line) and `item`
/// (enclosing fn) when the producing rule left them empty — these are the
/// content components of the stable finding id.
fn enrich(finding: &mut Finding, fi: usize, lx: &Lexed, items: &[Item]) {
    if finding.snippet.is_empty() {
        finding.snippet = lx
            .tokens
            .iter()
            .filter(|t| t.line == finding.line)
            .map(|t| t.text.as_str())
            .collect::<Vec<_>>()
            .join(" ");
    }
    if finding.item.is_empty() {
        if let Some(item) = enclosing_item(items, lx, fi, finding.line) {
            finding.item = item.qual.clone();
        }
    }
}

/// The innermost fn item of file `fi` whose declaration-plus-body line
/// range covers `line`.
fn enclosing_item<'a>(items: &'a [Item], lx: &Lexed, fi: usize, line: u32) -> Option<&'a Item> {
    items
        .iter()
        .filter(|it| it.file == fi && it.decl_start_line <= line)
        .filter(|it| {
            let end_line = match it.body {
                Some((_, close)) => lx.tokens.get(close).map_or(it.body_open_line, |t| t.line),
                None => it.body_open_line,
            };
            line <= end_line
        })
        .max_by_key(|it| it.decl_start_line)
}

/// Recursively collects `.rs` files, skipping [`SKIP_DIRS`] and hidden
/// entries; sorted later for determinism.
fn collect(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if name.starts_with('.') {
            continue;
        }
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) {
                continue;
            }
            collect(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Where a `#[cfg(test)] mod name;` declared in `declaring_file` may live.
fn test_mod_candidates(declaring_file: &Path, name: &str) -> Vec<PathBuf> {
    let dir = declaring_file.parent().unwrap_or(Path::new(""));
    let stem = declaring_file
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_default();
    let base = if matches!(stem.as_str(), "lib" | "main" | "mod") {
        dir.to_path_buf()
    } else {
        dir.join(&stem)
    };
    vec![
        base.join(format!("{name}.rs")),
        base.join(name).join("mod.rs"),
    ]
}

/// `true` when every token in the file is test code by *location*:
/// integration tests, benches, and examples directories — but not the
/// `crates/tests` crate directory itself.
fn is_test_path(rel: &Path) -> bool {
    let parts: Vec<String> = rel
        .components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect();
    for (i, part) in parts.iter().enumerate() {
        // The last component is the file name, not a directory.
        if i + 1 == parts.len() {
            break;
        }
        let under_crates = i > 0 && parts[i - 1] == "crates";
        if TEST_DIRS.contains(&part.as_str()) && !under_crates {
            return true;
        }
    }
    false
}

/// `true` for files that are crate roots and must carry
/// `#![forbid(unsafe_code)]`: `src/lib.rs`, `src/main.rs`, `src/bin/*.rs`.
fn is_crate_root(rel: &Path) -> bool {
    let parts: Vec<String> = rel
        .components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect();
    let n = parts.len();
    if n >= 2 && parts[n - 2] == "src" && matches!(parts[n - 1].as_str(), "lib.rs" | "main.rs") {
        return true;
    }
    n >= 3 && parts[n - 3] == "src" && parts[n - 2] == "bin"
}

/// Best-effort Rust module path for diagnostics: `crates/core/src/dtg.rs`
/// → `gossip_core::dtg`.  Every workspace crate is named `gossip-<dir>`,
/// so the mapping needs no Cargo.toml parsing.
fn module_path(rel: &Path) -> String {
    let parts: Vec<String> = rel
        .components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect();
    let stem = parts
        .last()
        .map(|p| p.trim_end_matches(".rs").to_string())
        .unwrap_or_default();
    if parts.len() >= 3 && parts[0] == "crates" && parts[2] == "src" {
        let mut path = format!("gossip_{}", parts[1]);
        for part in &parts[3..parts.len() - 1] {
            if part == "bin" {
                continue;
            }
            path.push_str("::");
            path.push_str(part);
        }
        if !matches!(stem.as_str(), "lib" | "main" | "mod") {
            path.push_str("::");
            path.push_str(&stem);
        }
        return path;
    }
    stem
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn test_path_classification() {
        assert!(is_test_path(Path::new("tests/determinism.rs")));
        assert!(is_test_path(Path::new("examples/quickstart.rs")));
        assert!(is_test_path(Path::new("crates/bench/benches/dtg.rs")));
        assert!(is_test_path(Path::new("crates/graph/tests/props.rs")));
        assert!(!is_test_path(Path::new("crates/tests/src/lib.rs")));
        assert!(!is_test_path(Path::new("crates/core/src/dtg.rs")));
    }

    #[test]
    fn crate_root_classification() {
        assert!(is_crate_root(Path::new("crates/core/src/lib.rs")));
        assert!(is_crate_root(Path::new(
            "crates/bench/src/bin/experiments.rs"
        )));
        assert!(!is_crate_root(Path::new("crates/core/src/dtg.rs")));
        assert!(!is_crate_root(Path::new("tests/determinism.rs")));
    }

    #[test]
    fn module_paths() {
        assert_eq!(
            module_path(Path::new("crates/core/src/dtg.rs")),
            "gossip_core::dtg"
        );
        assert_eq!(
            module_path(Path::new("crates/core/src/lib.rs")),
            "gossip_core"
        );
        assert_eq!(
            module_path(Path::new("crates/graph/src/generators/random.rs")),
            "gossip_graph::generators::random"
        );
        assert_eq!(
            module_path(Path::new("crates/bench/src/bin/experiments.rs")),
            "gossip_bench::experiments"
        );
        assert_eq!(
            module_path(Path::new("tests/determinism.rs")),
            "determinism"
        );
    }

    #[test]
    fn test_mod_candidates_resolve_siblings() {
        let got = test_mod_candidates(Path::new("crates/core/src/lib.rs"), "fixtures");
        assert!(got.contains(&PathBuf::from("crates/core/src/fixtures.rs")));
    }

    #[test]
    fn cfg_test_file_module_is_exempt() {
        let lib = SourceFile {
            rel: "crates/demo/src/lib.rs".to_string(),
            content: "//! Demo.\n#![forbid(unsafe_code)]\n#[cfg(test)]\nmod helpers;\n".to_string(),
        };
        let helpers = SourceFile {
            rel: "crates/demo/src/helpers.rs".to_string(),
            content: "use std::collections::HashMap;\npub fn f(m: &HashMap<u32, u32>) -> usize { m.len() }\n".to_string(),
        };
        let report = analyze_sources(&[lib.clone(), helpers.clone()]);
        assert!(
            report.clean(),
            "cfg(test) file module should be exempt: {:?}",
            report.findings
        );

        // Without the #[cfg(test)] gate the same module is linted.
        let lib_ungated = SourceFile {
            content: lib.content.replace("#[cfg(test)]\n", ""),
            ..lib
        };
        let report = analyze_sources(&[lib_ungated, helpers]);
        assert!(!report.clean(), "ungated module must be linted");
    }

    #[test]
    fn panic_path_findings_aggregate_and_suppress_by_fn_line() {
        let src = SourceFile {
            rel: "crates/sim/src/demo.rs".to_string(),
            content: "pub struct Simulation;
impl Simulation {
    pub fn run(&self) { helper(1); }
}
fn helper(i: usize) -> u64 {
    let xs = vec![1u64, 2];
    xs[i] + xs.first().unwrap()
}
"
            .to_string(),
        };
        let report = analyze_sources(std::slice::from_ref(&src));
        let pp: Vec<&Finding> = report
            .findings
            .iter()
            .filter(|f| f.rule == "panic-path")
            .collect();
        assert_eq!(pp.len(), 1, "one aggregated finding: {:?}", report.findings);
        assert!(pp[0].message.contains("Simulation::run -> "));
        assert!(pp[0].detail.contains("indexing") && pp[0].detail.contains("unwrap/expect"));
        assert_eq!(pp[0].line, 5, "anchored on the fn line");

        // A reasoned pragma directly above the fn suppresses it.
        let allowed = SourceFile {
            content: src.content.replace(
                "fn helper",
                "// gossip-lint: allow(panic-path): demo bounds are checked by caller\nfn helper",
            ),
            ..src
        };
        let report = analyze_sources(&[allowed]);
        assert!(
            !report.findings.iter().any(|f| f.rule == "panic-path"),
            "{:?}",
            report.findings
        );
        assert_eq!(report.suppressed_by_rule.get("panic-path"), Some(&1));
    }

    #[test]
    fn stale_panic_roots_are_reported_where_they_are_declared() {
        let src = SourceFile {
            rel: "crates/sim/src/demo.rs".to_string(),
            content: "pub struct Simulation;
impl Simulation {
    pub fn run(&self) {}
}
pub const ROOTS: [&str; 3] = [\"Simulation::run\", \"Simulation::gone\", \"helper\"];
#[cfg(test)]
fn helper() {}
"
            .to_string(),
        };
        let config = AuditConfig {
            panic_roots: [
                "Simulation::run",
                "Simulation::gone",
                "helper",
                "undeclared",
            ]
            .iter()
            .map(|s| s.to_string())
            .collect(),
            ..AuditConfig::default()
        };
        let report = analyze_sources_with(std::slice::from_ref(&src), &config);
        let stale: Vec<&str> = report
            .findings
            .iter()
            .filter(|f| f.rule == "panic-path")
            .map(|f| f.message.as_str())
            .collect();
        // `helper` matches only test code; `undeclared` has no declaring line.
        assert_eq!(stale.len(), 2, "{:?}", report.findings);
        assert!(stale.iter().any(|m| m.contains("`Simulation::gone`")));
        assert!(stale.iter().any(|m| m.contains("`helper`")));
        assert!(report.findings.iter().all(|f| f.line == 5));

        // With every root live the configuration is clean.
        let config = AuditConfig {
            panic_roots: vec!["Simulation::run".to_string()],
            ..AuditConfig::default()
        };
        assert!(analyze_sources_with(&[src], &config).clean());
    }

    #[test]
    fn idle_purity_coverage_and_verification_fire() {
        // Coverage: an unannotated activity fn in an audited path.
        let uncovered = SourceFile {
            rel: "crates/sim/src/demo.rs".to_string(),
            content: "pub struct P;\nimpl P {\n    pub fn activity(&self) -> u32 { 0 }\n}\n"
                .to_string(),
        };
        let report = analyze_sources(&[uncovered]);
        assert!(
            report
                .findings
                .iter()
                .any(|f| f.rule == "idle-purity" && f.message.contains("no")),
            "{:?}",
            report.findings
        );

        // Verification: an annotated fn that mutates self, transitively.
        let impure = SourceFile {
            rel: "crates/sim/src/demo.rs".to_string(),
            content: "pub struct P { count: u64 }
impl P {
    // gossip-audit: contract(pure)
    pub fn activity(&self) -> u64 { self.peek() }
    fn peek(&self) -> u64 { thread_rng() }
}
fn thread_rng() -> u64 { 4 }
"
            .to_string(),
        };
        let report = analyze_sources(&[impure]);
        let viols: Vec<&Finding> = report
            .findings
            .iter()
            .filter(|f| f.rule == "idle-purity")
            .collect();
        assert!(
            viols.iter().any(|f| f.message.contains("transitively")),
            "{:?}",
            report.findings
        );
        assert_eq!(viols[0].line, 4, "anchored on the contract fn line");
    }

    #[test]
    fn shared_state_fires_only_in_audited_paths() {
        let content = "pub fn bump() {\n    let _ = std::sync::atomic::Ordering::Relaxed;\n}\n";
        let audited = SourceFile {
            rel: "crates/sim/src/demo.rs".to_string(),
            content: content.to_string(),
        };
        let outside = SourceFile {
            rel: "crates/bench/src/demo.rs".to_string(),
            content: content.to_string(),
        };
        let report = analyze_sources(&[audited]);
        assert!(report.findings.iter().any(|f| f.rule == "shared-state"));
        let report = analyze_sources(&[outside]);
        assert!(!report.findings.iter().any(|f| f.rule == "shared-state"));
    }

    #[test]
    fn contracts_appear_in_the_suppression_inventory() {
        let src = SourceFile {
            rel: "crates/sim/src/demo.rs".to_string(),
            content: "pub struct P;
impl P {
    // gossip-audit: contract(pure)
    pub fn activity(&self) -> u32 { 0 }
}
// gossip-audit: contract(pure)
pub struct Dangling;
"
            .to_string(),
        };
        let report = analyze_sources(&[src]);
        let contracts: Vec<&Suppression> = report
            .suppressions
            .iter()
            .filter(|s| s.kind == "contract")
            .collect();
        assert_eq!(contracts.len(), 2);
        assert!(contracts.iter().any(|s| s.used));
        assert!(contracts.iter().any(|s| !s.used));
        // The dangling one is also a finding.
        assert!(report.findings.iter().any(|f| f.rule == "contract"));
        assert!(!report.suppressions_clean());
    }
}
