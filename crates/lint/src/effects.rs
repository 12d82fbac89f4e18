//! Effect extraction for the interprocedural rules: per-fn panic sites,
//! purity violations, and per-file shared-state sites.
//!
//! Everything here is a token-pattern matcher with the same philosophy as
//! the per-file rules: shallow, deterministic, conservative, with the
//! residual false positives handled by the pragma allowlist.

use std::collections::BTreeSet;

use crate::items::{matching_open, Item, KEYWORDS};
use crate::lexer::{TokKind, Token};
use crate::rules::{AMBIENT_RNG, MUTATING_METHODS};

/// Panic-site categories, in severity/reporting order.
pub const PANIC_KINDS: &[&str] = &["unwrap/expect", "panic-macro", "indexing", "division"];

/// Macros that panic when reached (the asserts when their condition fails).
/// `debug_assert*` is a different identifier and stays exempt: release
/// builds compile it out.
const PANIC_MACROS: &[&str] = &[
    "panic",
    "unreachable",
    "todo",
    "unimplemented",
    "assert",
    "assert_eq",
    "assert_ne",
];

/// Interior-mutability type names: state that can change behind a `&self`.
const INTERIOR_MUT: &[&str] = &[
    "Cell",
    "RefCell",
    "Mutex",
    "RwLock",
    "UnsafeCell",
    "OnceCell",
    "OnceLock",
    "LazyCell",
    "LazyLock",
];

/// One potential panic site inside a fn body.
#[derive(Debug, Clone)]
pub struct PanicSite {
    /// Category (one of [`PANIC_KINDS`]).
    pub kind: &'static str,
    /// 1-based source line.
    pub line: u32,
}

/// Collects the potential panic sites in `tokens[range]` (a fn body).
///
/// Flagged: `.unwrap()`/`.expect(..)`, `panic!`/`unreachable!`/`todo!`/
/// `unimplemented!`/`assert!`/`assert_eq!`/`assert_ne!` (not `debug_assert*`),
/// expression-position `[..]` indexing and slicing, and `/`/`%` (plus their
/// compound-assign forms) whose divisor is not a nonzero numeric literal
/// (`x / 64` is exempt, `x % ring_len` is not).
pub fn panic_sites(tokens: &[Token], range: (usize, usize)) -> Vec<PanicSite> {
    let (start, end) = range;
    let mut out = Vec::new();
    for i in start..=end.min(tokens.len().saturating_sub(1)) {
        let t = &tokens[i];
        match (t.kind, t.text.as_str()) {
            (TokKind::Punct, ".")
                if tokens
                    .get(i + 1)
                    .is_some_and(|m| m.text == "unwrap" || m.text == "expect")
                    && tokens.get(i + 2).is_some_and(|p| p.text == "(") =>
            {
                out.push(PanicSite {
                    kind: "unwrap/expect",
                    line: tokens[i + 1].line,
                });
            }
            (TokKind::Ident, name)
                if PANIC_MACROS.contains(&name)
                    && tokens.get(i + 1).is_some_and(|n| n.text == "!") =>
            {
                out.push(PanicSite {
                    kind: "panic-macro",
                    line: t.line,
                });
            }
            (TokKind::Punct, "[") if is_indexing(tokens, i) => {
                out.push(PanicSite {
                    kind: "indexing",
                    line: t.line,
                });
            }
            (TokKind::Punct, "/" | "%" | "/=" | "%=") => {
                let divisor_is_literal = tokens.get(i + 1).is_some_and(|n| {
                    n.kind == TokKind::Num && n.text != "0" && !n.text.starts_with("0.")
                });
                if !divisor_is_literal {
                    out.push(PanicSite {
                        kind: "division",
                        line: t.line,
                    });
                }
            }
            _ => {}
        }
    }
    out
}

/// Is the `[` at `i` expression-position indexing (vs an attribute, a macro
/// delimiter, an array literal/type, or a slice pattern)?
fn is_indexing(tokens: &[Token], i: usize) -> bool {
    let Some(prev) = i.checked_sub(1).map(|p| &tokens[p]) else {
        return false;
    };
    match (prev.kind, prev.text.as_str()) {
        (TokKind::Ident, text) => !KEYWORDS.contains(&text),
        (TokKind::Punct, ")" | "]") => true,
        _ => false,
    }
}

/// One purity violation inside a fn.
#[derive(Debug, Clone)]
pub struct PuritySite {
    /// What was violated, for the diagnostic.
    pub what: String,
    /// 1-based source line.
    pub line: u32,
}

/// Collects the purity violations of one fn: signature facts (`&mut self`,
/// `&mut` params), non-local writes, mutating method calls on non-local
/// receivers, interior mutability, and ambient RNG.
///
/// Mutation of *locals* (`let mut` bindings in the same body) is allowed: a
/// pure decision path may use local scratch state.  Writes through derefs,
/// to `self`, or to anything not provably local are violations.
pub fn purity_sites(item: &Item, tokens: &[Token]) -> Vec<PuritySite> {
    const COMPOUND_ASSIGN: &[&str] =
        &["+=", "-=", "*=", "/=", "%=", "^=", "&=", "|=", "<<=", ">>="];
    let mut out = Vec::new();
    if item.takes_mut_self {
        out.push(PuritySite {
            what: "takes `&mut self`".to_string(),
            line: item.line,
        });
    }
    if item.has_mut_param {
        out.push(PuritySite {
            what: "takes a `&mut` parameter".to_string(),
            line: item.line,
        });
    }
    let Some((start, end)) = item.body else {
        return out;
    };

    // Interior-mutability types are flagged wherever they appear in the
    // declaration, signature included (`&Cell<u32>` params leak mutability
    // into a "read-only" closure).
    for i in item.fn_idx..start {
        if let Some(t) = tokens.get(i) {
            if t.kind == TokKind::Ident
                && (INTERIOR_MUT.contains(&t.text.as_str())
                    || (t.text.starts_with("Atomic") && t.text.len() > "Atomic".len()))
            {
                out.push(PuritySite {
                    what: format!("uses interior-mutability type `{}`", t.text),
                    line: t.line,
                });
            }
        }
    }

    // Local bindings may be freely mutated: `let [mut] name`, plus any
    // `mut name` binding pattern (closure params, `for mut x in ..`) —
    // `&mut name` is a reference type, not a binding, and is excluded.
    let mut locals: BTreeSet<&str> = BTreeSet::new();
    for i in start..=end {
        let t = &tokens[i];
        if t.kind != TokKind::Ident {
            continue;
        }
        if t.text == "let" {
            let mut j = i + 1;
            if tokens.get(j).is_some_and(|t| t.text == "mut") {
                j += 1;
            }
            if let Some(name) = tokens.get(j).filter(|t| t.kind == TokKind::Ident) {
                locals.insert(name.text.as_str());
            }
        } else if t.text == "mut" && i.checked_sub(1).is_none_or(|p| tokens[p].text != "&") {
            if let Some(name) = tokens.get(i + 1).filter(|t| t.kind == TokKind::Ident) {
                locals.insert(name.text.as_str());
            }
        }
    }

    for i in start..=end.min(tokens.len().saturating_sub(1)) {
        let t = &tokens[i];
        match (t.kind, t.text.as_str()) {
            (TokKind::Punct, _) if t.text == "=" || COMPOUND_ASSIGN.contains(&t.text.as_str()) => {
                if let Some(what) = assignment_violation(tokens, i, &locals) {
                    out.push(PuritySite { what, line: t.line });
                }
            }
            (TokKind::Punct, ".")
                if tokens
                    .get(i + 1)
                    .is_some_and(|m| MUTATING_METHODS.contains(&m.text.as_str()))
                    && tokens.get(i + 2).is_some_and(|p| p.text == "(") =>
            {
                match place_head(tokens, i.saturating_sub(1), start) {
                    Some(head) if head != "self" && locals.contains(head) => {}
                    head => out.push(PuritySite {
                        what: format!(
                            "calls mutating method `.{}(..)` on {}",
                            tokens[i + 1].text,
                            head.map_or("a non-local receiver".to_string(), |h| format!("`{h}`")),
                        ),
                        line: tokens[i + 1].line,
                    }),
                }
            }
            (TokKind::Ident, name)
                if INTERIOR_MUT.contains(&name)
                    || (name.starts_with("Atomic") && name.len() > "Atomic".len()) =>
            {
                out.push(PuritySite {
                    what: format!("uses interior-mutability type `{name}`"),
                    line: t.line,
                });
            }
            (TokKind::Ident, name) if AMBIENT_RNG.contains(&name) => {
                out.push(PuritySite {
                    what: format!("reaches ambient randomness via `{name}`"),
                    line: t.line,
                });
            }
            _ => {}
        }
    }
    out
}

/// Classifies the assignment at token `i`: `None` when it is a `let`
/// binding or a write to a local, otherwise a description of the violation.
fn assignment_violation(tokens: &[Token], i: usize, locals: &BTreeSet<&str>) -> Option<String> {
    let head_idx = place_head_idx(tokens, i.checked_sub(1)?, 0)?;
    let head = tokens[head_idx].text.as_str();
    let before = head_idx.checked_sub(1).map(|p| tokens[p].text.as_str());
    // `let x = ..`, `let mut x = ..`, `if let Some(x) = ..`: bindings.
    if matches!(before, Some("let" | "mut")) {
        return None;
    }
    // `*place = ..` writes through a reference — never provably local.
    if matches!(before, Some("*")) {
        return Some(format!("writes through `*{head}`"));
    }
    if head == "self" {
        return Some("writes to `self` state".to_string());
    }
    if locals.contains(head) {
        return None;
    }
    Some(format!("writes to non-local `{head}`"))
}

/// The text of the leftmost token of the place expression ending just
/// before `from + 1` (walking back over `.field`, `[..]`, `(..)`, and `::`
/// chains); `None` when the expression shape is unrecognised.
fn place_head(tokens: &[Token], from: usize, floor: usize) -> Option<&str> {
    place_head_idx(tokens, from, floor).map(|i| tokens[i].text.as_str())
}

fn place_head_idx(tokens: &[Token], mut j: usize, floor: usize) -> Option<usize> {
    loop {
        let t = tokens.get(j)?;
        match (t.kind, t.text.as_str()) {
            (TokKind::Punct, ")" | "]") => {
                let open = matching_open(tokens, j)?;
                if open <= floor {
                    return None;
                }
                j = open.checked_sub(1)?;
            }
            (TokKind::Ident, _) | (TokKind::Num, _) => {
                // Continue left over a `.`/`::` chain; otherwise this is
                // the head.
                let Some(prev) = j.checked_sub(1) else {
                    return Some(j);
                };
                if j <= floor {
                    return Some(j);
                }
                match tokens[prev].text.as_str() {
                    "." | "::" => {
                        j = prev.checked_sub(1)?;
                    }
                    _ => return Some(j),
                }
            }
            _ => return None,
        }
    }
}

/// One shared-state site in a file.
#[derive(Debug, Clone)]
pub struct SharedStateSite {
    /// What was found, for the diagnostic.
    pub what: String,
    /// 1-based source line.
    pub line: u32,
}

/// Memory-ordering variants of `std::sync::atomic::Ordering` (so that
/// `cmp::Ordering::Less` never fires).
const MEMORY_ORDERINGS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// Collects shared-state sites: `Mutex`/`RwLock`/`AtomicXxx`/`UnsafeCell`
/// identifiers, `Ordering::<memory-ordering>` uses, and `static mut` items,
/// in non-test code.
pub fn shared_state_sites(tokens: &[Token], test_mask: &[bool]) -> Vec<SharedStateSite> {
    let mut out = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        if test_mask.get(i).copied().unwrap_or(false) {
            continue;
        }
        match (t.kind, t.text.as_str()) {
            (TokKind::Ident, "Mutex" | "RwLock" | "UnsafeCell") => out.push(SharedStateSite {
                what: format!("`{}`", t.text),
                line: t.line,
            }),
            (TokKind::Ident, name) if name.starts_with("Atomic") && name.len() > "Atomic".len() => {
                out.push(SharedStateSite {
                    what: format!("`{name}`"),
                    line: t.line,
                });
            }
            (TokKind::Ident, "Ordering")
                if tokens.get(i + 1).is_some_and(|n| n.text == "::")
                    && tokens
                        .get(i + 2)
                        .is_some_and(|v| MEMORY_ORDERINGS.contains(&v.text.as_str())) =>
            {
                out.push(SharedStateSite {
                    what: format!("`Ordering::{}`", tokens[i + 2].text),
                    line: t.line,
                });
            }
            (TokKind::Ident, "static") if tokens.get(i + 1).is_some_and(|n| n.text == "mut") => {
                out.push(SharedStateSite {
                    what: "`static mut`".to_string(),
                    line: t.line,
                });
            }
            _ => {}
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::rules::test_regions;

    fn body_item(src: &str) -> (Vec<Token>, Item) {
        let lexed = lex(src);
        let (mask, _) = test_regions(&lexed.tokens);
        let (items, _) = crate::items::index_file(0, "demo", &lexed, &mask);
        (lexed.tokens, items.into_iter().next().unwrap())
    }

    #[test]
    fn panic_sites_cover_the_categories() {
        let (tokens, item) = body_item(
            "fn f(xs: &[u64], i: usize, n: usize) -> u64 {
                 let a = xs[i];
                 let b = xs.first().unwrap();
                 if i > n { panic!(\"boom\") }
                 assert!(i < n);
                 assert_eq!(i, n);
                 assert_ne!(i, n);
                 debug_assert!(i < n);
                 debug_assert_eq!(i, n);
                 let c = i % n;
                 let d = i / 64;
                 a + b + (c as u64) + (d as u64)
             }",
        );
        let sites = panic_sites(&tokens, item.body.unwrap());
        let kinds: Vec<&str> = sites.iter().map(|s| s.kind).collect();
        assert_eq!(
            kinds,
            vec![
                "indexing",
                "unwrap/expect",
                "panic-macro",
                "panic-macro",
                "panic-macro",
                "panic-macro",
                "division"
            ]
        );
    }

    #[test]
    fn literal_divisors_and_type_brackets_are_exempt() {
        let (tokens, item) = body_item(
            "fn f(i: usize) -> usize {
                 let w: [u64; 4] = [0; 4];
                 let v = vec![1, 2];
                 let half = i / 2 + i % 64;
                 half + w.len() + v.len()
             }",
        );
        let sites = panic_sites(&tokens, item.body.unwrap());
        assert!(sites.is_empty(), "{sites:?}");
    }

    #[test]
    fn purity_allows_local_scratch_but_flags_self_writes() {
        let (tokens, item) = body_item(
            "fn f(&self) -> u64 {
                 let mut acc = 0;
                 acc += 1;
                 let mut q = Vec::new();
                 q.push(acc);
                 acc
             }",
        );
        assert!(purity_sites(&item, &tokens).is_empty());

        let (tokens, item) = body_item("fn f(&mut self) { self.count += 1; }");
        let sites = purity_sites(&item, &tokens);
        assert!(sites.iter().any(|s| s.what.contains("&mut self")));
        assert!(sites.iter().any(|s| s.what.contains("writes to `self`")));
    }

    #[test]
    fn purity_flags_interior_mutability_and_rng() {
        let (tokens, item) = body_item("fn f(&self, c: &std::cell::Cell<u32>) -> u32 { c.get() }");
        let sites = purity_sites(&item, &tokens);
        assert!(sites.iter().any(|s| s.what.contains("Cell")));

        let (tokens, item) = body_item("fn f(&self) -> u32 { thread_rng().gen_range(0..9) }");
        let sites = purity_sites(&item, &tokens);
        assert!(sites.iter().any(|s| s.what.contains("thread_rng")));
        assert!(sites.iter().any(|s| s.what.contains("gen_range")));
    }

    #[test]
    fn shared_state_catches_sync_primitives() {
        let lexed = lex("use std::sync::atomic::{AtomicU64, Ordering};
             static COUNTER: AtomicU64 = AtomicU64::new(0);
             pub fn bump() -> u64 { COUNTER.fetch_add(1, Ordering::Relaxed) }
             pub fn cmp(a: u32, b: u32) -> std::cmp::Ordering { a.cmp(&b) }");
        let (mask, _) = test_regions(&lexed.tokens);
        let sites = shared_state_sites(&lexed.tokens, &mask);
        assert!(
            sites
                .iter()
                .filter(|s| s.what.contains("AtomicU64"))
                .count()
                >= 2
        );
        assert!(sites.iter().any(|s| s.what.contains("Ordering::Relaxed")));
        // `cmp::Ordering` alone does not fire.
        assert_eq!(
            sites
                .iter()
                .filter(|s| s.what.contains("Ordering::"))
                .count(),
            1
        );
    }
}
