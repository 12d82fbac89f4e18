//! The six determinism rules, applied to one file's token stream.
//!
//! Every rule is a token-pattern matcher over the [`lexer`](crate::lexer)
//! output.  None of them do type inference — they are deliberately shallow
//! heuristics whose residual false positives are handled by the inline
//! pragma allowlist (`// gossip-lint: allow(<rule>): <reason>`), and whose
//! blind spots are documented on each rule function.  Test code (integration
//! tests, benches, examples, `#[cfg(test)]` items) is exempt from every rule
//! except `forbid-unsafe`, which inspects crate roots.

use std::collections::{BTreeMap, BTreeSet};

use crate::lexer::{Lexed, TokKind, Token};
use crate::report::Finding;

/// The rule names a pragma may allowlist: the six per-file rules plus the
/// three workspace-level audit rules (`panic-path`, `idle-purity`,
/// `shared-state`) driven by [`workspace`](crate::workspace).
pub const RULES: &[&str] = &[
    "unordered-iter",
    "wall-clock",
    "ambient-rng",
    "par-order",
    "debug-assert-side-effect",
    "forbid-unsafe",
    "panic-path",
    "idle-purity",
    "shared-state",
];

/// Iteration methods whose visit order on a hash container is unordered.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "into_keys",
    "into_values",
    "retain",
    "extract_if",
];

/// Order-sensitive sinks when chained directly onto a parallel iterator.
const PAR_SINKS: &[&str] = &["reduce", "fold", "for_each", "sum", "product"];

/// Entry points into the parallel-iterator world.
const PAR_SOURCES: &[&str] = &[
    "par_iter",
    "par_iter_mut",
    "into_par_iter",
    "par_bridge",
    "par_chunks",
];

/// Methods that mutate their receiver or draw from an RNG through it.  They
/// must not appear inside a `debug_assert!` (the release build compiles the
/// whole macro away and silently diverges from the debug build), nor on
/// non-local state in a `contract(pure)` fn.
pub(crate) const MUTATING_METHODS: &[&str] = &[
    "insert",
    "remove",
    "push",
    "pop",
    "push_back",
    "push_front",
    "pop_back",
    "pop_front",
    "drain",
    "clear",
    "truncate",
    "extend",
    "append",
    "swap_remove",
    "retain",
    "resize",
    "sort",
    "sort_by",
    "sort_unstable",
    "set",
    "union_run",
    "insert_delta",
    "union_runs",
    "union_masks",
    "saturate",
    "add_difference",
    "drain_runs",
    "age_out",
    "next_u32",
    "next_u64",
    "fill_bytes",
    "gen",
    "gen_range",
    "gen_bool",
    "sample",
    "shuffle",
    "choose",
];

/// Identifiers that reach ambient (non-seeded) randomness, for the per-file
/// `ambient-rng` rule and the purity check alike.
pub(crate) const AMBIENT_RNG: &[&str] = &[
    "thread_rng",
    "ThreadRng",
    "from_entropy",
    "OsRng",
    "getrandom",
];

/// Wall-clock types; any read of them makes an observable depend on when the
/// run happened.
const WALL_CLOCK: &[&str] = &["Instant", "SystemTime"];

/// Marks every token covered by a `#[cfg(test)]` / `#[test]` item, and
/// collects the names declared by `#[cfg(test)] mod <name>;` (whose *files*
/// are test code too — the walker resolves those).
pub fn test_regions(tokens: &[Token]) -> (Vec<bool>, Vec<String>) {
    let mut mask = vec![false; tokens.len()];
    let mut test_file_mods = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        if tokens[i].text == "#" && tokens.get(i + 1).is_some_and(|t| t.text == "[") {
            let attr_start = i;
            let mut is_test = false;
            let mut j = i;
            // A run of consecutive attributes shares one item.
            while j < tokens.len()
                && tokens[j].text == "#"
                && tokens.get(j + 1).is_some_and(|t| t.text == "[")
            {
                let (end, test) = scan_attribute(tokens, j);
                is_test |= test;
                j = end;
            }
            if is_test {
                let end = item_end(tokens, j);
                if let (Some(m), Some(name)) = (tokens.get(j), tokens.get(j + 1)) {
                    if m.text == "mod"
                        && name.kind == TokKind::Ident
                        && tokens.get(j + 2).is_some_and(|t| t.text == ";")
                    {
                        test_file_mods.push(name.text.clone());
                    }
                }
                for slot in mask
                    .iter_mut()
                    .take((end + 1).min(tokens.len()))
                    .skip(attr_start)
                {
                    *slot = true;
                }
                i = end + 1;
                continue;
            }
            i = j;
            continue;
        }
        i += 1;
    }
    (mask, test_file_mods)
}

/// Scans one `#[...]` attribute starting at the `#`; returns the index just
/// past the closing `]` and whether the attribute gates the item to tests
/// (`#[test]`, `#[cfg(test)]`, `#[cfg(any(test, ...))]`).
pub(crate) fn scan_attribute(tokens: &[Token], at: usize) -> (usize, bool) {
    let mut j = at + 2; // past `#[`
    let first = tokens.get(j).map(|t| t.text.as_str()).unwrap_or("");
    let mut depth = 1i32;
    let mut saw_test_ident = false;
    while j < tokens.len() && depth > 0 {
        match tokens[j].text.as_str() {
            "[" => depth += 1,
            "]" => depth -= 1,
            "test" if tokens[j].kind == TokKind::Ident => saw_test_ident = true,
            _ => {}
        }
        j += 1;
    }
    let is_test = first == "test" || (first == "cfg" && saw_test_ident);
    (j, is_test)
}

/// Finds the index of the token ending the item that starts at `from`: the
/// `}` closing its first top-level brace block, or a top-level `;`.
fn item_end(tokens: &[Token], from: usize) -> usize {
    let mut depth = 0i32;
    let mut j = from;
    while j < tokens.len() {
        match tokens[j].text.as_str() {
            "(" | "[" => depth += 1,
            ")" | "]" => depth -= 1,
            "{" => return skip_braces(tokens, j).saturating_sub(1),
            ";" if depth <= 0 => return j,
            _ => {}
        }
        j += 1;
    }
    tokens.len().saturating_sub(1)
}

/// Returns the index just past the brace block opening at `open`, token
/// balanced; `open + 1` when `open` is not a `{`.
pub(crate) fn skip_braces(tokens: &[Token], open: usize) -> usize {
    if tokens.get(open).is_none_or(|t| t.text != "{") {
        return open + 1;
    }
    let mut depth = 1i32;
    let mut j = open + 1;
    while j < tokens.len() && depth > 0 {
        match tokens[j].text.as_str() {
            "{" => depth += 1,
            "}" => depth -= 1,
            _ => {}
        }
        j += 1;
    }
    j
}

/// Marks every token inside a `use ...;` item (imports of `HashMap` are not
/// declarations and are exempt from `unordered-iter`).
fn use_item_mask(tokens: &[Token]) -> Vec<bool> {
    let mut mask = vec![false; tokens.len()];
    let mut i = 0;
    while i < tokens.len() {
        if tokens[i].kind == TokKind::Ident && tokens[i].text == "use" {
            let mut j = i;
            while j < tokens.len() && tokens[j].text != ";" {
                mask[j] = true;
                j += 1;
            }
            if j < tokens.len() {
                mask[j] = true;
            }
            i = j + 1;
            continue;
        }
        i += 1;
    }
    mask
}

/// Collects identifiers whose declared type (or constructor) is a hash
/// container: `name: HashMap<...>` bindings/fields/params whose type *head*
/// is `HashMap`/`HashSet` (so `Vec<HashMap<..>>` does not taint `name`), and
/// `let [mut] name = HashMap::new()`-style inferred bindings.
///
/// Blind spot: an identifier re-bound across files (or a hash container
/// returned by a helper and bound without annotation) is not tracked; the
/// declaration-site check still fires wherever the type is written.
fn hash_typed_idents(tokens: &[Token], test_mask: &[bool]) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    for i in 0..tokens.len() {
        if test_mask[i] {
            continue;
        }
        // Pattern A: Ident ':' <type whose head is HashMap/HashSet>.
        if tokens[i].kind == TokKind::Ident && tokens.get(i + 1).is_some_and(|t| t.text == ":") {
            if let Some(head) = type_head(tokens, i + 2) {
                if head == "HashMap" || head == "HashSet" {
                    names.insert(tokens[i].text.clone());
                }
            }
        }
        // Pattern B: let [mut] Ident = [std::collections::]Hash{Map,Set}::...
        if tokens[i].kind == TokKind::Ident && tokens[i].text == "let" {
            let mut j = i + 1;
            if tokens.get(j).is_some_and(|t| t.text == "mut") {
                j += 1;
            }
            let Some(name) = tokens.get(j).filter(|t| t.kind == TokKind::Ident) else {
                continue;
            };
            // Find the `=` of the binding (top level of the statement).
            let mut depth = 0i32;
            let mut k = j + 1;
            while k < tokens.len() {
                match tokens[k].text.as_str() {
                    "(" | "[" | "{" => depth += 1,
                    ")" | "]" | "}" => depth -= 1,
                    ";" if depth <= 0 => break,
                    "=" if depth == 0 => {
                        if let Some(head) = path_head(tokens, k + 1) {
                            if head == "HashMap" || head == "HashSet" {
                                names.insert(name.text.clone());
                            }
                        }
                        break;
                    }
                    _ => {}
                }
                k += 1;
            }
        }
    }
    names
}

/// Resolves the head identifier of a type starting at `at`: skips `&`,
/// `mut`, `dyn`, and lifetimes, then follows `a::b::C` to its last segment
/// *before* any generic arguments.
fn type_head(tokens: &[Token], mut at: usize) -> Option<String> {
    while let Some(t) = tokens.get(at) {
        match (t.kind, t.text.as_str()) {
            (TokKind::Punct, "&") | (TokKind::Ident, "mut") | (TokKind::Ident, "dyn") => at += 1,
            (TokKind::Lifetime, _) => at += 1,
            _ => break,
        }
    }
    let mut head = tokens.get(at).filter(|t| t.kind == TokKind::Ident)?;
    // Follow path segments: `std :: collections :: HashMap`.
    while tokens.get(at + 1).is_some_and(|t| t.text == "::")
        && tokens.get(at + 2).is_some_and(|t| t.kind == TokKind::Ident)
    {
        at += 2;
        head = &tokens[at];
    }
    Some(head.text.clone())
}

/// Like [`type_head`] but for an expression path: returns the *first*
/// user-meaningful segment (`HashMap` in `HashMap::new()` or
/// `std::collections::HashMap::with_capacity`).
fn path_head(tokens: &[Token], mut at: usize) -> Option<String> {
    // Skip a fully-qualified std prefix.
    if tokens.get(at).is_some_and(|t| t.text == "std")
        && tokens.get(at + 1).is_some_and(|t| t.text == "::")
        && tokens.get(at + 2).is_some_and(|t| t.text == "collections")
        && tokens.get(at + 3).is_some_and(|t| t.text == "::")
    {
        at += 4;
    }
    tokens
        .get(at)
        .filter(|t| t.kind == TokKind::Ident)
        .map(|t| t.text.clone())
}

/// Context for analysing one file's token stream.
pub struct FileInput<'a> {
    /// Workspace-relative path (used in diagnostics).
    pub path: &'a str,
    /// Rust module path for diagnostics (`gossip_core::dtg`).
    pub module: &'a str,
    /// The lexed file.
    pub lexed: &'a Lexed,
    /// One flag per token of `lexed`: the [`test_regions`] mask, or all
    /// `true` when the whole file is test code (integration test, bench,
    /// example, or a `#[cfg(test)] mod foo;` file module).
    pub test_mask: &'a [bool],
    /// `true` when the file is a crate root (`src/lib.rs`, `src/main.rs`,
    /// `src/bin/*.rs`) and must carry `#![forbid(unsafe_code)]`.
    pub crate_root: bool,
}

/// One file's analysis result.
pub struct FileAnalysis {
    /// Surviving findings (including pragma-hygiene findings), sorted.
    pub findings: Vec<Finding>,
    /// Pragmas that suppressed at least one finding.
    pub pragmas_used: usize,
}

/// Runs every *per-file* rule on one file; returns the raw findings,
/// before pragma application.  The workspace driver appends the
/// interprocedural audit findings to this list and only then applies the
/// file's pragmas — a `panic-path` pragma must be able to suppress a
/// finding produced by the workspace-level call-graph walk.
pub fn file_findings(input: &FileInput<'_>) -> Vec<Finding> {
    let (tokens, test_mask) = (&input.lexed.tokens, input.test_mask);

    let mut raw: Vec<Finding> = Vec::new();
    let mut push = |rule: &'static str, line: u32, message: String| {
        raw.push(Finding::new(rule, input.path, line, input.module, message));
    };

    rule_unordered_iter(tokens, test_mask, &mut push);
    rule_wall_clock(tokens, test_mask, &mut push);
    rule_ambient_rng(tokens, test_mask, &mut push);
    rule_par_order(tokens, test_mask, &mut push);
    rule_debug_assert(tokens, test_mask, &mut push);
    if input.crate_root {
        rule_forbid_unsafe(tokens, &mut push);
    }
    raw
}

/// Runs every per-file rule on one file and applies its pragmas; returns
/// the surviving findings (including pragma-hygiene findings).  Audit rules
/// do *not* run here — use the workspace driver for those.
pub fn analyze_file(input: &FileInput<'_>) -> FileAnalysis {
    let outcome = apply_pragmas(input, file_findings(input));
    FileAnalysis {
        findings: outcome.findings,
        pragmas_used: outcome.pragmas_used,
    }
}

/// The result of applying one file's pragmas to its findings.
pub struct PragmaOutcome {
    /// Surviving findings plus pragma-hygiene findings, sorted.
    pub findings: Vec<Finding>,
    /// Number of pragmas that suppressed at least one finding.
    pub pragmas_used: usize,
    /// Suppressed-finding counts per rule.
    pub suppressed_by_rule: BTreeMap<String, usize>,
    /// Per-pragma used flags, parallel to `input.lexed.pragmas`.
    pub pragma_used: Vec<bool>,
}

/// Suppresses findings covered by well-formed pragmas and reports pragma
/// hygiene problems (unknown rule, missing reason, unused pragma).
pub fn apply_pragmas(input: &FileInput<'_>, raw: Vec<Finding>) -> PragmaOutcome {
    let tokens = &input.lexed.tokens;
    let pragmas = &input.lexed.pragmas;
    let mut used = vec![false; pragmas.len()];
    let mut suppressed_by_rule: BTreeMap<String, usize> = BTreeMap::new();
    let mut out = Vec::new();

    'findings: for finding in raw {
        for (pi, pragma) in pragmas.iter().enumerate() {
            if pragma.rule != finding.rule || pragma.reason.is_empty() {
                continue;
            }
            let hit = if pragma.rule == "forbid-unsafe" {
                // The missing-attribute finding has no meaningful line; any
                // forbid-unsafe pragma in the file covers it.
                true
            } else {
                pragma.target_line(tokens) == finding.line
            };
            if hit {
                used[pi] = true;
                *suppressed_by_rule.entry(finding.rule).or_default() += 1;
                continue 'findings;
            }
        }
        out.push(finding);
    }

    for (pi, pragma) in pragmas.iter().enumerate() {
        let mut problem = None;
        if pragma.rule.is_empty() || !RULES.contains(&pragma.rule.as_str()) {
            problem = Some(format!(
                "malformed pragma: unknown rule '{}' (expected one of: {})",
                pragma.rule,
                RULES.join(", ")
            ));
        } else if pragma.reason.is_empty() {
            problem = Some(format!(
                "pragma allow({}) is missing its mandatory reason (`// gossip-lint: allow({}): <why>`)",
                pragma.rule, pragma.rule
            ));
        } else if !used[pi] {
            problem = Some(format!(
                "unused pragma: allow({}) suppresses no finding on line {} — delete it or fix its placement",
                pragma.rule,
                pragma.target_line(tokens)
            ));
        }
        if let Some(message) = problem {
            out.push(Finding::new(
                "pragma",
                input.path,
                pragma.line,
                input.module,
                message,
            ));
        }
    }
    out.sort();
    PragmaOutcome {
        findings: out,
        pragmas_used: used.iter().filter(|&&u| u).count(),
        suppressed_by_rule,
        pragma_used: used,
    }
}

/// **unordered-iter** — `HashMap`/`HashSet` in non-test code.
///
/// Fires on (a) every *type-position* occurrence of the names (not followed
/// by `::`, not inside a `use` item): declaring an unordered container is
/// where the convention wants a written justification or a `BTreeMap`/
/// `BTreeSet`; and (b) every *iteration* of an identifier tracked as
/// hash-typed (`.iter()`, `.keys()`, `.values()`, `.drain()`, `.retain()`,
/// `for .. in &map`, ...), where the unordered visit order actually escapes.
fn rule_unordered_iter(
    tokens: &[Token],
    test_mask: &[bool],
    push: &mut impl FnMut(&'static str, u32, String),
) {
    let use_mask = use_item_mask(tokens);
    let tracked = hash_typed_idents(tokens, test_mask);
    for (i, t) in tokens.iter().enumerate() {
        if test_mask[i] || t.kind != TokKind::Ident {
            continue;
        }
        // (a) declaration sites.
        if (t.text == "HashMap" || t.text == "HashSet")
            && !use_mask[i]
            && tokens.get(i + 1).is_none_or(|n| n.text != "::")
        {
            let ordered = if t.text == "HashMap" {
                "BTreeMap"
            } else {
                "BTreeSet"
            };
            push(
                "unordered-iter",
                t.line,
                format!(
                    "{} declared in non-test code: iteration order is nondeterministic; use {} or justify why order can never reach an observable",
                    t.text, ordered
                ),
            );
        }
        // (b) iteration sites on tracked identifiers.
        if tracked.contains(&t.text) {
            if tokens.get(i + 1).is_some_and(|n| n.text == ".")
                && tokens
                    .get(i + 2)
                    .is_some_and(|m| ITER_METHODS.contains(&m.text.as_str()))
                && tokens
                    .get(i + 3)
                    .is_some_and(|p| p.text == "(" || p.text == "::")
            {
                push(
                    "unordered-iter",
                    t.line,
                    format!(
                        "iterating hash container `{}` via `.{}` — visit order is nondeterministic",
                        t.text,
                        tokens[i + 2].text
                    ),
                );
            }
            // `for pat in [&[mut]] [self.]ident {`
            if tokens.get(i + 1).is_some_and(|n| n.text == "{") {
                let mut j = i;
                if j >= 2 && tokens[j - 1].text == "." && tokens[j - 2].text == "self" {
                    j -= 2;
                }
                while j >= 1 && (tokens[j - 1].text == "&" || tokens[j - 1].text == "mut") {
                    j -= 1;
                }
                if j >= 1 && tokens[j - 1].kind == TokKind::Ident && tokens[j - 1].text == "in" {
                    push(
                        "unordered-iter",
                        t.line,
                        format!(
                            "for-loop over hash container `{}` — visit order is nondeterministic",
                            t.text
                        ),
                    );
                }
            }
        }
    }
}

/// **wall-clock** — `Instant`/`SystemTime` in non-test code.
///
/// Reading the wall clock makes any derived value depend on when and where
/// the run happened; the only sanctioned use is the explicitly
/// non-deterministic bench timing artifact (allowlisted by pragma).
fn rule_wall_clock(
    tokens: &[Token],
    test_mask: &[bool],
    push: &mut impl FnMut(&'static str, u32, String),
) {
    for (i, t) in tokens.iter().enumerate() {
        if !test_mask[i] && t.kind == TokKind::Ident && WALL_CLOCK.contains(&t.text.as_str()) {
            push(
                "wall-clock",
                t.line,
                format!(
                    "`{}` in non-test code: wall-clock reads are nondeterministic; derive observables from round counters instead",
                    t.text
                ),
            );
        }
    }
}

/// **ambient-rng** — `thread_rng`/`from_entropy`/`OsRng` in non-test code.
///
/// All randomness must flow from an explicitly seeded `SmallRng` so a run is
/// a pure function of its seed.
fn rule_ambient_rng(
    tokens: &[Token],
    test_mask: &[bool],
    push: &mut impl FnMut(&'static str, u32, String),
) {
    for (i, t) in tokens.iter().enumerate() {
        if !test_mask[i] && t.kind == TokKind::Ident && AMBIENT_RNG.contains(&t.text.as_str()) {
            push(
                "ambient-rng",
                t.line,
                format!(
                    "`{}` reaches ambient entropy: seed a SmallRng explicitly (SmallRng::seed_from_u64) so runs are reproducible",
                    t.text
                ),
            );
        }
    }
}

/// **par-order** — a parallel iterator chained into an order-sensitive sink.
///
/// Flags `.reduce()`, `.fold()`, `.for_each()`, `.sum()`, `.product()`, and
/// `.collect::<HashMap/HashSet<..>>()` applied *directly* to the chain
/// (closure bodies nested inside chain arguments are not flagged).  With
/// real work-stealing rayon these sinks observe a nondeterministic element
/// order; deterministic alternatives are an indexed `collect::<Vec<_>>()`
/// followed by a sequential reduction.
fn rule_par_order(
    tokens: &[Token],
    test_mask: &[bool],
    push: &mut impl FnMut(&'static str, u32, String),
) {
    // Running paren depth for every token.
    let mut depth = 0i32;
    let mut depths = Vec::with_capacity(tokens.len());
    for t in tokens {
        if t.text == "(" {
            depths.push(depth);
            depth += 1;
        } else {
            if t.text == ")" {
                depth -= 1;
            }
            depths.push(depth);
        }
    }

    for i in 0..tokens.len() {
        if test_mask[i]
            || tokens[i].kind != TokKind::Ident
            || !PAR_SOURCES.contains(&tokens[i].text.as_str())
        {
            continue;
        }
        let chain_depth = depths[i];
        let mut j = i + 1;
        while j < tokens.len() {
            let t = &tokens[j];
            if depths[j] < chain_depth || (t.text == ";" && depths[j] <= chain_depth) {
                break;
            }
            if depths[j] == chain_depth && t.text == "." {
                if let Some(method) = tokens.get(j + 1).filter(|m| m.kind == TokKind::Ident) {
                    if PAR_SINKS.contains(&method.text.as_str()) {
                        push(
                            "par-order",
                            method.line,
                            format!(
                                "parallel iterator chained into `.{}`: element order is nondeterministic under work stealing; collect into a Vec (indexed) and reduce sequentially",
                                method.text
                            ),
                        );
                    } else if method.text == "collect"
                        && tokens.get(j + 2).is_some_and(|t| t.text == "::")
                        && tokens.get(j + 3).is_some_and(|t| t.text == "<")
                    {
                        if let Some(head) = type_head(tokens, j + 4) {
                            if head == "HashMap" || head == "HashSet" {
                                push(
                                    "par-order",
                                    method.line,
                                    format!(
                                        "parallel `.collect::<{head}<..>>()`: combine order is nondeterministic; collect into a Vec or an ordered map",
                                    ),
                                );
                            }
                        }
                    }
                }
            }
            j += 1;
        }
    }
}

/// **debug-assert-side-effect** — mutation inside `debug_assert!`.
///
/// `debug_assert!` compiles to nothing in release builds, so a mutating call
/// (or RNG draw) inside one silently diverges debug from release — the exact
/// bug class the `semantics`-identical engine-equivalence suites exist to
/// rule out.
fn rule_debug_assert(
    tokens: &[Token],
    test_mask: &[bool],
    push: &mut impl FnMut(&'static str, u32, String),
) {
    const COMPOUND_ASSIGN: &[&str] =
        &["+=", "-=", "*=", "/=", "%=", "^=", "&=", "|=", "<<=", ">>="];
    for i in 0..tokens.len() {
        if test_mask[i]
            || tokens[i].kind != TokKind::Ident
            || !matches!(
                tokens[i].text.as_str(),
                "debug_assert" | "debug_assert_eq" | "debug_assert_ne"
            )
            || tokens.get(i + 1).is_none_or(|t| t.text != "!")
            || tokens.get(i + 2).is_none_or(|t| t.text != "(")
        {
            continue;
        }
        let line = tokens[i].line;
        let mut depth = 1i32;
        let mut j = i + 3;
        let mut saw_let = false;
        while j < tokens.len() && depth > 0 {
            let t = &tokens[j];
            match t.text.as_str() {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => depth -= 1,
                _ => {}
            }
            if depth <= 0 {
                break;
            }
            if t.kind == TokKind::Ident && t.text == "let" {
                saw_let = true;
            }
            if matches!(t.text.as_str(), "," | ";") {
                saw_let = false;
            }
            if COMPOUND_ASSIGN.contains(&t.text.as_str()) {
                push(
                    "debug-assert-side-effect",
                    line,
                    format!(
                        "`{}` inside debug_assert! mutates state that release builds never touch",
                        t.text
                    ),
                );
            }
            if t.text == "=" && !saw_let {
                push(
                    "debug-assert-side-effect",
                    line,
                    "assignment inside debug_assert! mutates state that release builds never touch"
                        .to_string(),
                );
            }
            if t.text == "."
                && tokens
                    .get(j + 1)
                    .is_some_and(|m| MUTATING_METHODS.contains(&m.text.as_str()))
                && tokens
                    .get(j + 2)
                    .is_some_and(|p| p.text == "(" || p.text == "::")
            {
                push(
                    "debug-assert-side-effect",
                    line,
                    format!(
                        "`.{}(..)` inside debug_assert! mutates state (or draws RNG) that release builds never touch",
                        tokens[j + 1].text
                    ),
                );
            }
            j += 1;
        }
    }
}

/// **forbid-unsafe** — every crate root must carry `#![forbid(unsafe_code)]`.
///
/// All workspace crates forbid unsafe today; this rule keeps future crates
/// (and forgotten binary roots) from silently opting back in.
fn rule_forbid_unsafe(tokens: &[Token], push: &mut impl FnMut(&'static str, u32, String)) {
    let pattern = ["#", "!", "[", "forbid", "(", "unsafe_code", ")", "]"];
    let found = tokens.windows(pattern.len()).any(|w| {
        w.iter()
            .zip(pattern.iter())
            .all(|(t, p)| t.text.as_str() == *p)
    });
    if !found {
        push(
            "forbid-unsafe",
            1,
            "crate root is missing `#![forbid(unsafe_code)]` — every workspace crate must forbid unsafe code".to_string(),
        );
    }
}

/// Convenience wrapper used by the ui-fixture suite and the workspace
/// driver: lex + analyze one source string.
pub fn analyze_source(
    path: &str,
    module: &str,
    content: &str,
    whole_file_test: bool,
    crate_root: bool,
) -> FileAnalysis {
    let lexed = crate::lexer::lex(content);
    let (mut mask, _) = test_regions(&lexed.tokens);
    if whole_file_test {
        mask.fill(true);
    }
    let input = FileInput {
        path,
        module,
        lexed: &lexed,
        test_mask: &mask,
        crate_root,
    };
    analyze_file(&input)
}
