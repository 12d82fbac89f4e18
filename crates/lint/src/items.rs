//! The workspace item index: every `fn` item, with enough context for the
//! interprocedural rules — enclosing `impl`/`trait` type, module path, body
//! token range, receiver kind, test classification, and any attached
//! `// gossip-audit: contract(...)` annotation.
//!
//! The index is built from the [`lexer`](crate::lexer) token stream with a
//! small structural scan: brace depth plus a scope stack for `mod`/`impl`/
//! `trait` blocks.  Function *bodies* are skipped wholesale (nothing inside
//! a body declares an item this index cares about), which keeps the scan
//! robust against closures, match arms, and struct literals.

use crate::lexer::{Lexed, TokKind, Token};
use crate::rules::{scan_attribute, skip_braces};

/// One indexed `fn` item.
#[derive(Debug, Clone)]
pub struct Item {
    /// The function name (`run`, `merge_prefix`, ...).
    pub name: String,
    /// The `impl` target type or `trait` name the fn is declared under, if
    /// any (`Simulation`, `Protocol`, ...).
    pub self_ty: Option<String>,
    /// Fully qualified diagnostic name: `module::Type::name`.
    pub qual: String,
    /// Index of the file (into the analyzed source set) declaring the fn.
    pub file: usize,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// 1-based line where the declaration starts (first attribute of the
    /// attribute run, or the `fn` keyword) — contract annotations attach to
    /// any line in `decl_start_line..=body_open_line`.
    pub decl_start_line: u32,
    /// 1-based line of the body `{` (or of the terminating `;` for
    /// body-less trait methods).
    pub body_open_line: u32,
    /// Token index of the `fn` keyword.
    pub fn_idx: usize,
    /// Token range of the parameter list `( .. )`, inclusive of the parens.
    pub params: Option<(usize, usize)>,
    /// Token range of the body, inclusive of both braces; `None` for
    /// body-less trait method declarations.
    pub body: Option<(usize, usize)>,
    /// The fn takes some form of `self` (it is a method or can be called
    /// with method syntax).
    pub has_self: bool,
    /// The fn takes `&mut self`.
    pub takes_mut_self: bool,
    /// The fn takes a `&mut` parameter other than the receiver.
    pub has_mut_param: bool,
    /// The fn is test code (`#[test]`/`#[cfg(test)]` region or whole-file
    /// test classification).
    pub is_test: bool,
    /// A `contract(pure)` annotation is attached to this fn.
    pub contract_pure: bool,
    /// Line of the attached contract annotation, if any.
    pub contract_line: Option<u32>,
}

/// A contract annotation that could not be attached to a `fn` item, or
/// whose kind is unknown — reported as a finding by the rules.
#[derive(Debug, Clone)]
pub struct ContractIssue {
    /// 1-based line of the offending contract comment.
    pub line: u32,
    /// Human-readable description of the problem.
    pub message: String,
}

/// Keywords that can precede `(` without being a call, and that terminate a
/// backwards place-walk.
pub const KEYWORDS: &[&str] = &[
    "if", "else", "while", "for", "loop", "match", "return", "break", "continue", "in", "as",
    "let", "mut", "ref", "move", "fn", "impl", "trait", "mod", "struct", "enum", "union", "use",
    "pub", "where", "unsafe", "dyn", "box", "await", "const", "static", "type",
];

/// Contract kinds the rules know how to verify.
pub const CONTRACT_KINDS: &[&str] = &["pure"];

enum Scope {
    /// An inline `mod <name> {` block.
    Mod(String),
    /// An `impl <Type> {`, `impl Trait for <Type> {`, or `trait <Name> {`
    /// block: fns inside are associated with `<Type>`/`<Name>`.
    Holder(String),
}

/// Indexes one file's `fn` items and attaches its contract annotations.
///
/// `test_mask` must cover `lexed.tokens` (see
/// [`FileInput::test_mask`](crate::rules::FileInput::test_mask)); `module`
/// is the file's
/// diagnostic module path.
pub fn index_file(
    file: usize,
    module: &str,
    lexed: &Lexed,
    test_mask: &[bool],
) -> (Vec<Item>, Vec<ContractIssue>) {
    let tokens = &lexed.tokens;
    let mut items = Vec::new();
    let mut scopes: Vec<(i32, Scope)> = Vec::new();
    let mut depth: i32 = 0;
    // Start of the current attribute run at item level, if any.
    let mut attr_start: Option<usize> = None;
    let mut i = 0;
    while i < tokens.len() {
        let t = &tokens[i];
        match (t.kind, t.text.as_str()) {
            (TokKind::Punct, "{") => {
                depth += 1;
                attr_start = None;
                i += 1;
            }
            (TokKind::Punct, "}") => {
                depth -= 1;
                while scopes.last().is_some_and(|(d, _)| *d >= depth) {
                    scopes.pop();
                }
                attr_start = None;
                i += 1;
            }
            (TokKind::Punct, "#") if tokens.get(i + 1).is_some_and(|t| t.text == "[") => {
                if attr_start.is_none() {
                    attr_start = Some(i);
                }
                i = scan_attribute(tokens, i).0;
            }
            (TokKind::Ident, "macro_rules") => {
                // `macro_rules! name { ... }` bodies contain token soup
                // (including `fn` templates); skip the whole definition.
                let mut j = i;
                while j < tokens.len() && tokens[j].text != "{" {
                    j += 1;
                }
                i = skip_braces(tokens, j);
                attr_start = None;
            }
            (TokKind::Ident, "mod") => {
                if let Some(name) = tokens.get(i + 1).filter(|t| t.kind == TokKind::Ident) {
                    if tokens.get(i + 2).is_some_and(|t| t.text == "{") {
                        scopes.push((depth, Scope::Mod(name.text.clone())));
                    }
                }
                attr_start = None;
                i += 1;
            }
            (TokKind::Ident, "impl") => {
                if let Some((head, brace)) = impl_header(tokens, i) {
                    scopes.push((depth, Scope::Holder(head)));
                    i = brace;
                } else {
                    i += 1;
                }
                attr_start = None;
            }
            (TokKind::Ident, "trait") => {
                if let Some(name) = tokens.get(i + 1).filter(|t| t.kind == TokKind::Ident) {
                    let mut j = i + 2;
                    while j < tokens.len() && tokens[j].text != "{" && tokens[j].text != ";" {
                        j += 1;
                    }
                    if tokens.get(j).is_some_and(|t| t.text == "{") {
                        scopes.push((depth, Scope::Holder(name.text.clone())));
                        i = j;
                    } else {
                        i = j.max(i + 1);
                    }
                } else {
                    i += 1;
                }
                attr_start = None;
            }
            (TokKind::Ident, "fn")
                if tokens.get(i + 1).is_some_and(|t| t.kind == TokKind::Ident) =>
            {
                let (item, next) = parse_fn(
                    file,
                    module,
                    tokens,
                    test_mask,
                    i,
                    attr_start,
                    scopes.as_slice(),
                );
                items.push(item);
                attr_start = None;
                i = next;
            }
            _ => {
                attr_start = None;
                i += 1;
            }
        }
    }

    let issues = attach_contracts(&mut items, lexed);
    (items, issues)
}

/// Attaches each contract annotation to the item whose declaration spans
/// its target line; returns the problems (unknown kind, dangling).
fn attach_contracts(items: &mut [Item], lexed: &Lexed) -> Vec<ContractIssue> {
    let mut issues = Vec::new();
    for contract in &lexed.contracts {
        if !CONTRACT_KINDS.contains(&contract.kind.as_str()) {
            issues.push(ContractIssue {
                line: contract.line,
                message: format!(
                    "malformed contract: unknown kind '{}' (expected `contract({})`)",
                    contract.kind,
                    CONTRACT_KINDS.join("|")
                ),
            });
            continue;
        }
        let target = contract.target_line(&lexed.tokens);
        let attached = items
            .iter_mut()
            .find(|item| item.decl_start_line <= target && target <= item.body_open_line);
        match attached {
            Some(item) => {
                item.contract_pure = true;
                item.contract_line = Some(contract.line);
            }
            None => issues.push(ContractIssue {
                line: contract.line,
                message: "dangling contract annotation: no fn declaration follows it".to_string(),
            }),
        }
    }
    issues
}

/// Parses one `fn` item starting at the `fn` keyword; returns the item and
/// the token index to resume scanning from (past the body or `;`).
fn parse_fn(
    file: usize,
    module: &str,
    tokens: &[Token],
    test_mask: &[bool],
    fn_idx: usize,
    attr_start: Option<usize>,
    scopes: &[(i32, Scope)],
) -> (Item, usize) {
    let name = tokens[fn_idx + 1].text.clone();
    // Scan the signature: generics (angle-aware, since `<` of generics must
    // not be confused with comparison — there is none in a signature), then
    // the parameter parens, then up to the body `{` or a `;`.
    let mut j = fn_idx + 2;
    let mut adepth: i32 = 0;
    let mut pdepth: i32 = 0;
    let mut params: Option<(usize, usize)> = None;
    let mut param_open: Option<usize> = None;
    let mut body_open: Option<usize> = None;
    let mut sig_end = tokens.len().saturating_sub(1);
    while j < tokens.len() {
        let text = tokens[j].text.as_str();
        match text {
            "<" => adepth += 1,
            ">" => adepth -= 1,
            "<<" => adepth += 2,
            ">>" => adepth -= 2,
            "(" => {
                if adepth == 0 && pdepth == 0 && params.is_none() && param_open.is_none() {
                    param_open = Some(j);
                }
                pdepth += 1;
            }
            ")" => {
                pdepth -= 1;
                if pdepth == 0 {
                    if let Some(open) = param_open.take() {
                        params = Some((open, j));
                    }
                }
            }
            "[" => pdepth += 1,
            "]" => pdepth -= 1,
            "{" if pdepth == 0 => {
                body_open = Some(j);
                sig_end = j;
                break;
            }
            ";" if pdepth == 0 => {
                sig_end = j;
                break;
            }
            _ => {}
        }
        j += 1;
    }

    let (body, next) = match body_open {
        Some(open) => {
            let past = skip_braces(tokens, open);
            (Some((open, past.saturating_sub(1))), past)
        }
        None => (None, sig_end + 1),
    };

    let (has_self, takes_mut_self, has_mut_param) = match params {
        Some((open, close)) => receiver_kind(tokens, open, close),
        None => (false, false, false),
    };

    let self_ty = scopes.iter().rev().find_map(|(_, s)| match s {
        Scope::Holder(name) => Some(name.clone()),
        Scope::Mod(_) => None,
    });
    let mut qual = String::from(module);
    for (_, scope) in scopes {
        if let Scope::Mod(name) = scope {
            qual.push_str("::");
            qual.push_str(name);
        }
    }
    if let Some(ty) = &self_ty {
        qual.push_str("::");
        qual.push_str(ty);
    }
    qual.push_str("::");
    qual.push_str(&name);

    let decl_start_line = attr_start.map_or(tokens[fn_idx].line, |a| tokens[a].line);
    let body_open_line = tokens.get(sig_end).map_or(tokens[fn_idx].line, |t| t.line);

    let item = Item {
        name,
        self_ty,
        qual,
        file,
        line: tokens[fn_idx].line,
        decl_start_line,
        body_open_line,
        fn_idx,
        params,
        body,
        has_self,
        takes_mut_self,
        has_mut_param,
        is_test: test_mask.get(fn_idx).copied().unwrap_or(false),
        contract_pure: false,
        contract_line: None,
    };
    (item, next)
}

/// Classifies the receiver and `&mut` parameters of a parameter list:
/// `(has_self, takes_mut_self, has_mut_param)`.
fn receiver_kind(tokens: &[Token], open: usize, close: usize) -> (bool, bool, bool) {
    // The receiver is the first parameter: skip `&`, a lifetime, and `mut`.
    let mut j = open + 1;
    let mut saw_amp = false;
    let mut saw_mut = false;
    while j < close {
        match (tokens[j].kind, tokens[j].text.as_str()) {
            (TokKind::Punct, "&") => saw_amp = true,
            (TokKind::Lifetime, _) => {}
            (TokKind::Ident, "mut") => saw_mut = true,
            _ => break,
        }
        j += 1;
    }
    let has_self = tokens.get(j).is_some_and(|t| t.text == "self") && j < close;
    let takes_mut_self = has_self && saw_amp && saw_mut;

    // Any further `& mut` pair in the list is a mutable non-receiver param.
    let scan_from = if has_self { j + 1 } else { open + 1 };
    let mut has_mut_param = false;
    let mut k = scan_from;
    while k < close {
        if tokens[k].text == "&" {
            let mut m = k + 1;
            if tokens.get(m).is_some_and(|t| t.kind == TokKind::Lifetime) {
                m += 1;
            }
            if tokens.get(m).is_some_and(|t| t.text == "mut") {
                has_mut_param = true;
                break;
            }
        }
        k += 1;
    }
    (has_self, takes_mut_self, has_mut_param)
}

/// Extracts the implemented type's head identifier from an `impl` header
/// (`Simulation` from `impl<'g> Simulation<'g> {`, `RandomPushPull` from
/// `impl Protocol for RandomPushPull {`); returns it plus the index of the
/// opening `{`.
fn impl_header(tokens: &[Token], impl_idx: usize) -> Option<(String, usize)> {
    let mut j = impl_idx + 1;
    let mut adepth: i32 = 0;
    let mut head: Option<String> = None;
    let mut after_for = false;
    while j < tokens.len() {
        let t = &tokens[j];
        match (t.kind, t.text.as_str()) {
            (TokKind::Punct, "<") => adepth += 1,
            (TokKind::Punct, ">") => adepth -= 1,
            (TokKind::Punct, "<<") => adepth += 2,
            (TokKind::Punct, ">>") => adepth -= 2,
            (TokKind::Ident, "for") if adepth == 0 => {
                after_for = true;
                head = None;
            }
            (TokKind::Ident, "where") if adepth == 0 => {
                // The type head is fixed by now; scan on for the brace.
            }
            (TokKind::Ident, _) if adepth == 0 => {
                // Track the last path segment seen at angle depth 0; for
                // `a::b::C` this ends on `C`.
                head = Some(t.text.clone());
            }
            (TokKind::Punct, "{") if adepth == 0 => {
                let _ = after_for;
                return head.map(|h| (h, j));
            }
            (TokKind::Punct, ";") if adepth == 0 => return None,
            _ => {}
        }
        j += 1;
    }
    None
}

/// Finds the index of the opening delimiter matching the closing one at
/// `close` (`)` or `]`), scanning backwards; `None` when unbalanced.
pub fn matching_open(tokens: &[Token], close: usize) -> Option<usize> {
    let (open_text, close_text) = match tokens.get(close)?.text.as_str() {
        ")" => ("(", ")"),
        "]" => ("[", "]"),
        _ => return None,
    };
    let mut depth = 1i32;
    let mut j = close;
    while j > 0 {
        j -= 1;
        let text = tokens[j].text.as_str();
        if text == close_text {
            depth += 1;
        } else if text == open_text {
            depth -= 1;
            if depth == 0 {
                return Some(j);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::rules::test_regions;

    fn index(src: &str) -> Vec<Item> {
        let lexed = lex(src);
        let (mask, _) = test_regions(&lexed.tokens);
        index_file(0, "demo", &lexed, &mask).0
    }

    #[test]
    fn free_impl_and_trait_fns_are_indexed() {
        let src = "
            pub fn free(x: u32) -> u32 { x }
            pub struct S;
            impl S {
                pub fn method(&self) -> u32 { free(1) }
                pub fn method_mut(&mut self, v: &mut Vec<u32>) { v.push(1); }
            }
            pub trait T {
                fn required(&self);
                fn provided(&self) -> u32 { 0 }
            }
            impl T for S {
                fn required(&self) {}
            }
        ";
        let items = index(src);
        let names: Vec<(&str, Option<&str>)> = items
            .iter()
            .map(|i| (i.name.as_str(), i.self_ty.as_deref()))
            .collect();
        assert_eq!(
            names,
            vec![
                ("free", None),
                ("method", Some("S")),
                ("method_mut", Some("S")),
                ("required", Some("T")),
                ("provided", Some("T")),
                ("required", Some("S")),
            ]
        );
        let free = &items[0];
        assert!(!free.has_self && free.body.is_some());
        let method = &items[1];
        assert!(method.has_self && !method.takes_mut_self);
        assert_eq!(method.qual, "demo::S::method");
        let method_mut = &items[2];
        assert!(method_mut.takes_mut_self && method_mut.has_mut_param);
        let required_decl = &items[3];
        assert!(required_decl.body.is_none());
    }

    #[test]
    fn generic_impl_headers_resolve_the_type_head() {
        let items = index(
            "pub struct Sim<'g> { g: &'g u32 }
             impl<'g> Sim<'g> {
                 pub fn run(&mut self) {}
             }",
        );
        assert_eq!(items[0].self_ty.as_deref(), Some("Sim"));
        assert!(items[0].takes_mut_self);
    }

    #[test]
    fn nested_mods_extend_the_qual_path() {
        let items = index("mod inner { pub fn f() {} }");
        assert_eq!(items[0].qual, "demo::inner::f");
    }

    #[test]
    fn test_fns_are_classified() {
        let items = index("#[test]\nfn t() {}\npub fn real() {}");
        assert!(items[0].is_test);
        assert!(!items[1].is_test);
    }

    #[test]
    fn contracts_attach_through_attributes() {
        let src = "// gossip-audit: contract(pure)\n#[inline]\nfn activity(&self) {}\n";
        let lexed = lex(src);
        let (mask, _) = test_regions(&lexed.tokens);
        let (items, issues) = index_file(0, "demo", &lexed, &mask);
        assert!(issues.is_empty(), "{issues:?}");
        assert!(items[0].contract_pure);
        assert_eq!(items[0].contract_line, Some(1));
    }

    #[test]
    fn dangling_and_malformed_contracts_are_issues() {
        let src = "// gossip-audit: contract(pure)\nstruct NotAFn;\n// gossip-audit: contract(fast)\nfn f() {}\n";
        let lexed = lex(src);
        let (mask, _) = test_regions(&lexed.tokens);
        let (items, issues) = index_file(0, "demo", &lexed, &mask);
        assert_eq!(issues.len(), 2, "{issues:?}");
        assert!(issues.iter().any(|i| i.message.contains("dangling")));
        assert!(issues.iter().any(|i| i.message.contains("unknown kind")));
        assert!(!items.iter().any(|i| i.contract_pure));
    }

    #[test]
    fn fn_pointer_types_are_not_items() {
        let items = index("pub struct H { cb: fn(u32) -> u32 }\npub fn real() {}");
        assert_eq!(items.len(), 1);
        assert_eq!(items[0].name, "real");
    }
}
