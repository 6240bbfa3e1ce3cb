//! Rules A1/A2 — workspace architecture: crate layering and dead API.
//!
//! The platform-based-design premise is that components compose along a
//! strict layer order:
//!
//! ```text
//! bios-units → {bios-electrochem, bios-biochem} → bios-afe
//!            → bios-instrument → bios-platform → bios-explore
//!            → bios-server → bios-bench → root
//! ```
//!
//! A crate may reference crates at the same or a lower layer, never a
//! higher one. This module builds the crate dependency graph from every
//! `bios_*` identifier in the token stream (covering both `use` items and
//! inline paths), rejects upward edges (**A1**, error), and reports `pub`
//! items that nothing outside their crate's `src/` ever mentions (**A2**,
//! error: `pub` hides an item from rustc's `dead_code`, so a dead public
//! item is dead code no compiler check will find).
//!
//! Both rules run at *workspace* scope: they need every file at once, so
//! they live behind [`crate::workspace::lint_files`] rather than
//! `lint_source`. A2 follows rustc's compilation units: a crate's own
//! `tests/`, `examples/` and `benches/` are separate crates and count as
//! outside users, as does the stand-alone `perfbench/` package; the
//! crate's doctests live in its `src/` text and do not. References match
//! lexically (the set of identifier tokens of each unit, so a mention in
//! a comment or string literal does not count), so any same-named
//! identifier counts — the rule under-reports rather than false-positives
//! on macro-generated or trait-dispatched uses. A `pub` type or trait that
//! a public signature of its own crate names is spared too: rustc
//! refuses to narrow it (E0446, `private_interfaces`). That check keeps
//! to the exposing item's own visibility, so a dead `pub fn` keeps the
//! types it names alive until it is narrowed itself.

use crate::ast::{Item, ItemKind};
use crate::callgraph::Level;
use crate::lexer::{lex, Lexed, Token, TokenKind};
use crate::parser::parse_items;
use crate::rules::Finding;
use crate::workspace::MemFile;
use std::collections::{BTreeMap, BTreeSet};

/// The layer of every constrained crate; lower layers must not reference
/// higher ones. `bios-lint` is deliberately absent (the linter may read
/// anything and nothing may depend on it).
pub const LAYERS: &[(&str, u32)] = &[
    ("bios-units", 0),
    ("bios-electrochem", 1),
    ("bios-biochem", 1),
    ("bios-afe", 2),
    ("bios-instrument", 3),
    ("bios-platform", 4),
    ("bios-explore", 5),
    ("bios-server", 6),
    ("bios-model", 7),
    ("bios-bench", 8),
    ("advanced-diagnostics", 9),
];

/// Crates whose dead `pub` items A2 reports. The root binary, the bench
/// harness and the linter sit at the top of the graph — nothing is
/// expected to reference their items.
const A2_CRATES: &[&str] = &[
    "bios-units",
    "bios-electrochem",
    "bios-biochem",
    "bios-afe",
    "bios-instrument",
    "bios-platform",
    "bios-explore",
    "bios-server",
    "bios-model",
];

/// The layer index of a crate, or `None` when unconstrained.
pub fn layer_of(crate_name: &str) -> Option<u32> {
    LAYERS
        .iter()
        .find(|(name, _)| *name == crate_name)
        .map(|(_, l)| *l)
}

/// Maps a path identifier (`bios_units`) to the crate it references.
fn crate_for_ident(ident: &str) -> Option<&'static str> {
    match ident {
        "bios_units" => Some("bios-units"),
        "bios_electrochem" => Some("bios-electrochem"),
        "bios_biochem" => Some("bios-biochem"),
        "bios_afe" => Some("bios-afe"),
        "bios_instrument" => Some("bios-instrument"),
        "bios_platform" => Some("bios-platform"),
        "bios_explore" => Some("bios-explore"),
        "bios_server" => Some("bios-server"),
        "bios_model" => Some("bios-model"),
        "bios_bench" => Some("bios-bench"),
        "advanced_diagnostics" => Some("advanced-diagnostics"),
        _ => None,
    }
}

/// One cross-crate reference (first site per `(from, to, file)`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DepEdge {
    pub from: String,
    pub to: String,
    pub file: String,
    pub line: u32,
    pub col: u32,
}

/// The hot region inferred by [`crate::hotpath`], carried on the graph so
/// `--emit-dot` can overlay it: declared roots (kernel entries, markers,
/// `par_map*` closures) and every function name the call-graph fixpoint
/// reached from them.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HotOverlay {
    /// Declared hot roots that resolved to a workspace definition, sorted.
    pub roots: Vec<String>,
    /// The full hot set (roots included), each name with its cadence.
    pub hot: BTreeMap<String, Level>,
}

/// The workspace crate dependency graph.
#[derive(Debug, Default)]
pub struct DepGraph {
    /// Deduplicated edges, sorted by `(from, to, file)`.
    pub edges: Vec<DepEdge>,
    /// Hot-region overlay, when the hot-path analysis ran.
    pub hot: Option<HotOverlay>,
}

impl DepGraph {
    /// Renders the graph as Graphviz DOT, layers as `rank` labels, with
    /// upward (violating) edges highlighted. When a [`HotOverlay`] is
    /// attached, the hot region renders as a colored cluster: roots in
    /// red (labelled `(root)`), reached functions in orange.
    /// Deterministic output.
    pub fn to_dot(&self) -> String {
        let mut out = String::from("digraph bios_layers {\n    rankdir=BT;\n");
        let mut nodes: BTreeSet<&str> = BTreeSet::new();
        for e in &self.edges {
            nodes.insert(&e.from);
            nodes.insert(&e.to);
        }
        for n in &nodes {
            match layer_of(n) {
                Some(l) => out.push_str(&format!("    \"{n}\" [label=\"{n}\\nlayer {l}\"];\n")),
                None => out.push_str(&format!("    \"{n}\" [label=\"{n}\\nunconstrained\"];\n")),
            }
        }
        let mut seen: BTreeSet<(&str, &str)> = BTreeSet::new();
        for e in &self.edges {
            if !seen.insert((&e.from, &e.to)) {
                continue;
            }
            let upward = matches!(
                (layer_of(&e.from), layer_of(&e.to)),
                (Some(f), Some(t)) if t > f
            );
            if upward {
                out.push_str(&format!(
                    "    \"{}\" -> \"{}\" [color=red, penwidth=2];\n",
                    e.from, e.to
                ));
            } else {
                out.push_str(&format!("    \"{}\" -> \"{}\";\n", e.from, e.to));
            }
        }
        if let Some(hot) = &self.hot {
            out.push_str("    subgraph cluster_hot {\n");
            out.push_str("        label=\"hot region (H1-H4)\";\n");
            out.push_str("        style=filled;\n        color=\"#fff3e0\";\n");
            let roots: BTreeSet<&str> = hot.roots.iter().map(String::as_str).collect();
            for name in hot.hot.keys() {
                if roots.contains(name.as_str()) {
                    out.push_str(&format!(
                        "        \"fn {name}\" [label=\"{name}\\n(root)\", style=filled, \
                         fillcolor=\"#ef5350\", shape=box];\n"
                    ));
                } else {
                    out.push_str(&format!(
                        "        \"fn {name}\" [label=\"{name}\", style=filled, \
                         fillcolor=\"#ffb74d\", shape=box];\n"
                    ));
                }
            }
            out.push_str("    }\n");
        }
        out.push_str("}\n");
        out
    }
}

/// The workspace-relevant facts of ONE file, extracted independently of
/// every other file. The workspace analyses ([`analyze_facts`]) are a
/// cheap pure function over these.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FileFacts {
    /// Sorted, deduplicated identifier tokens (test regions included,
    /// comments and string literals not) — A2's reference corpus.
    pub words: Vec<String>,
    /// Cross-crate references from non-test path identifiers, first site
    /// per target crate (lintable files only).
    pub edges: Vec<FactEdge>,
    /// Externally-visible `pub` items (lintable files only).
    pub pubs: Vec<PubItem>,
    /// `(name, exposer)` for every identifier a public signature names,
    /// sorted and deduplicated; see [`exposed_names`] (lintable files
    /// only).
    pub exposed: Vec<(String, String)>,
}

/// One outgoing crate reference in a file (the `from`/`file` halves of a
/// [`DepEdge`] are implied by the file the facts belong to).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FactEdge {
    pub to: String,
    pub line: u32,
    pub col: u32,
}

/// One `pub` item declared by a file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PubItem {
    pub name: String,
    pub kind: String,
    pub line: u32,
    pub col: u32,
}

/// A file's facts plus its workspace coordinates, as [`analyze_facts`]
/// consumes them.
#[derive(Debug, Clone, Copy)]
pub struct FactsRef<'a> {
    pub crate_name: &'a str,
    pub rel_path: &'a str,
    pub lintable: bool,
    pub facts: &'a FileFacts,
}

/// Extracts one file's workspace facts. `lexed`/`items` are `None` for
/// corpus-only files (only the word set is relevant there).
pub fn extract_facts(
    crate_name: &str,
    source: &str,
    lexed: Option<&crate::lexer::Lexed>,
    items: Option<&[Item]>,
) -> FileFacts {
    let owned;
    let tokens = match lexed {
        Some(l) => &l.tokens,
        None => {
            owned = lex(source);
            &owned.tokens
        }
    };
    let words: BTreeSet<String> = tokens
        .iter()
        .filter(|t| t.kind == TokenKind::Ident)
        .map(|t| t.text.clone())
        .collect();
    let mut edges: BTreeMap<String, (u32, u32)> = BTreeMap::new();
    let exposed = lexed.map(exposed_names).unwrap_or_default();
    if let Some(lexed) = lexed {
        for t in &lexed.tokens {
            if t.in_test || t.kind != TokenKind::Ident {
                continue;
            }
            let Some(to) = crate_for_ident(&t.text) else {
                continue;
            };
            if to == crate_name {
                continue;
            }
            edges.entry(to.to_string()).or_insert((t.line, t.col));
        }
    }
    let mut pubs = Vec::new();
    if let Some(items) = items {
        let mut raw = Vec::new();
        for item in items {
            collect_pub_items(item, true, &mut raw);
        }
        for (name, kind, span) in raw {
            pubs.push(PubItem {
                name,
                kind: kind.to_string(),
                line: span.line,
                col: span.col,
            });
        }
    }
    FileFacts {
        words: words.into_iter().collect(),
        edges: edges
            .into_iter()
            .map(|(to, (line, col))| FactEdge { to, line, col })
            .collect(),
        pubs,
        exposed,
    }
}

/// Every identifier a public signature in this file names, paired with
/// the item exposing it (`""` for free fns, consts and statics):
///
/// - `pub fn` parameters, return types and where clauses (the exposer is
///   the enclosing impl's self type, if any);
/// - `pub` fields of a `pub struct` and every variant of a `pub enum`,
///   plus the generics of either;
/// - the whole of a `pub trait` and the right-hand side of a `pub type`;
/// - impl generics and where clauses, and associated types in an impl
///   (exposed by the impl's self type).
///
/// Built on the token stream alone: test regions are skipped, and a
/// `pub(crate)` item exposes nothing.
pub fn exposed_names(lexed: &Lexed) -> Vec<(String, String)> {
    let toks: Vec<&Token> = lexed.tokens.iter().filter(|t| !t.in_test).collect();
    let text = |i: usize| toks.get(i).map_or("", |t| t.text.as_str());
    let mut out: BTreeSet<(String, String)> = BTreeSet::new();
    let mut expose = |from: usize, to: usize, owner: &str| {
        for t in &toks[from.min(to)..to] {
            if t.kind == TokenKind::Ident {
                out.insert((t.text.clone(), owner.to_string()));
            }
        }
    };
    // (self type, brace depth inside its body) of each open impl block.
    let mut impls: Vec<(String, usize)> = Vec::new();
    let mut depth = 0usize;
    let mut i = 0;
    while i < toks.len() {
        let in_impl_body = impls.last().filter(|(_, d)| *d == depth);
        match text(i) {
            "{" => depth += 1,
            "}" => {
                depth = depth.saturating_sub(1);
                if impls.last().is_some_and(|(_, d)| *d > depth) {
                    impls.pop();
                }
            }
            "impl" if i == 0 || matches!(text(i - 1), "{" | "}" | ";" | "]" | "unsafe") => {
                let end = scan_to(&toks, i + 1, &["{", ";"]);
                let mut head = i + 1;
                if text(head) == "<" {
                    head = scan_to(&toks, head + 1, &[">"]) + 1;
                }
                let where_at = scan_to(&toks, head, &["where", "{", ";"]);
                let ty_from = (head..where_at)
                    .find(|&k| text(k) == "for")
                    .map_or(head, |k| k + 1);
                let ty_to = scan_to(&toks, ty_from, &["<", "where", "{", ";"]);
                // A macro's `$name` self type is unknown: exposed by "".
                let self_ty = (ty_from..ty_to)
                    .rev()
                    .find(|&k| toks[k].kind == TokenKind::Ident)
                    .filter(|&k| text(k - 1) != "$")
                    .map_or("", |k| toks[k].text.as_str())
                    .to_string();
                expose(i + 1, head, &self_ty);
                expose(where_at, end, &self_ty);
                if text(end) == "{" {
                    impls.push((self_ty, depth + 1));
                }
                i = end;
                continue;
            }
            "type" if in_impl_body.is_some() => {
                let owner = in_impl_body.map(|(o, _)| o.clone()).unwrap_or_default();
                expose(i + 2, scan_to(&toks, i + 2, &[";"]), &owner);
            }
            "pub" if text(i + 1) != "(" => {
                let mut j = i + 1;
                while matches!(text(j), "unsafe" | "async" | "extern")
                    || (text(j) == "const" && matches!(text(j + 1), "fn" | "unsafe"))
                    || toks.get(j).is_some_and(|t| t.kind == TokenKind::StrLit)
                {
                    j += 1;
                }
                let name = text(j + 1).to_string();
                match text(j) {
                    "fn" => {
                        let owner = in_impl_body.map(|(o, _)| o.clone()).unwrap_or_default();
                        expose(j + 2, scan_to(&toks, j + 2, &["{", ";"]), &owner);
                    }
                    "const" | "static" => expose(j + 2, scan_to(&toks, j + 2, &["=", ";"]), ""),
                    "type" => expose(j + 2, scan_to(&toks, j + 2, &[";"]), &name),
                    "enum" | "trait" => {
                        let open = scan_to(&toks, j + 2, &["{", ";"]);
                        expose(j + 2, close_of(&toks, open), &name);
                    }
                    "struct" | "union" => {
                        let open = scan_to(&toks, j + 2, &["{", "(", ";"]);
                        expose(j + 2, open, &name);
                        if matches!(text(open), "{" | "(") {
                            let close = close_of(&toks, open);
                            let mut field = open + 1;
                            while field < close {
                                let end = scan_to(&toks, field, &[",", ")", "}"]).min(close);
                                let mut k = field;
                                while text(k) == "#" {
                                    k = close_of(&toks, k + 1) + 1;
                                }
                                if text(k) == "pub" && text(k + 1) != "(" {
                                    expose(k + 1, end, &name);
                                }
                                field = end + 1;
                            }
                        }
                    }
                    _ => {}
                }
            }
            _ => {}
        }
        i += 1;
    }
    out.into_iter().collect()
}

/// Index of the first token at or after `from` that is one of `stops`
/// outside any `()`/`[]`/`{}`/`<>` group opened after `from`, or of the
/// token closing the enclosing group, or `toks.len()`.
fn scan_to(toks: &[&Token], from: usize, stops: &[&str]) -> usize {
    let mut depth = 0i32;
    for (k, t) in toks.iter().enumerate().skip(from) {
        let s = t.text.as_str();
        if depth == 0 && stops.contains(&s) {
            return k;
        }
        depth += match s {
            "(" | "[" | "{" | "<" => 1,
            ")" | "]" | "}" | ">" => -1,
            ">>" => -2,
            _ => 0,
        };
        if depth < 0 {
            return k;
        }
    }
    toks.len()
}

/// Index of the token closing the `(`/`[`/`{` at `open`, or `open`
/// itself when that token opens no group.
fn close_of(toks: &[&Token], open: usize) -> usize {
    let Some((o, c)) = toks.get(open).and_then(|t| match t.text.as_str() {
        "(" => Some(("(", ")")),
        "[" => Some(("[", "]")),
        "{" => Some(("{", "}")),
        _ => None,
    }) else {
        return open;
    };
    let mut depth = 0usize;
    for (k, t) in toks.iter().enumerate().skip(open) {
        if t.text == o {
            depth += 1;
        } else if t.text == c {
            depth -= 1;
            if depth == 0 {
                return k;
            }
        }
    }
    toks.len()
}

/// Runs both workspace analyses over every file. Returns raw findings
/// (excerpts unfilled, suppressions unapplied — the caller owns those)
/// plus the dependency graph for the DOT artifact.
pub fn analyze(files: &[MemFile]) -> (Vec<Finding>, DepGraph) {
    let facts: Vec<(String, String, bool, FileFacts)> = files
        .iter()
        .map(|f| {
            let (lexed, items) = if f.lintable {
                let lexed = lex(&f.source);
                let items = parse_items(&lexed);
                (Some(lexed), Some(items))
            } else {
                (None, None)
            };
            (
                f.crate_name.clone(),
                f.rel_path.clone(),
                f.lintable,
                extract_facts(&f.crate_name, &f.source, lexed.as_ref(), items.as_deref()),
            )
        })
        .collect();
    let refs: Vec<FactsRef<'_>> = facts
        .iter()
        .map(|(crate_name, rel_path, lintable, facts)| FactsRef {
            crate_name,
            rel_path,
            lintable: *lintable,
            facts,
        })
        .collect();
    analyze_facts(&refs)
}

/// The pure workspace-analysis phase over pre-extracted facts: builds
/// the dependency graph and runs A1/A2.
pub fn analyze_facts(files: &[FactsRef<'_>]) -> (Vec<Finding>, DepGraph) {
    let mut findings = Vec::new();
    let mut edges = Vec::new();
    for f in files.iter().filter(|f| f.lintable) {
        for e in &f.facts.edges {
            edges.push(DepEdge {
                from: f.crate_name.to_string(),
                to: e.to.clone(),
                file: f.rel_path.to_string(),
                line: e.line,
                col: e.col,
            });
        }
    }
    edges.sort_by(|a, b| (&a.from, &a.to, &a.file).cmp(&(&b.from, &b.to, &b.file)));
    let graph = DepGraph { edges, hot: None };
    rule_a1(&graph, &mut findings);
    rule_a2_facts(files, &mut findings);
    (findings, graph)
}

/// A1: upward edges between constrained crates are layering violations.
fn rule_a1(graph: &DepGraph, findings: &mut Vec<Finding>) {
    for e in &graph.edges {
        let (Some(from_layer), Some(to_layer)) = (layer_of(&e.from), layer_of(&e.to)) else {
            continue;
        };
        if to_layer > from_layer {
            findings.push(Finding {
                rule: "A1",
                file: e.file.clone(),
                line: e.line,
                col: e.col,
                end_col: 0,
                message: format!(
                    "`{}` (layer {}) references `{}` (layer {}): upward \
                     dependency breaks the platform layering units → physics → \
                     afe → instrument → core → bench; invert the dependency or \
                     move the shared type down",
                    e.from, from_layer, e.to, to_layer
                ),
                excerpt: String::new(),
                fix: None,
            });
        }
    }
}

/// A2: `pub` items in library crates that nothing outside the crate's
/// `src/` ever mentions, unless a public signature of the crate exposes
/// them (error-level).
fn rule_a2_facts(files: &[FactsRef<'_>], findings: &mut Vec<Finding>) {
    // Word sets per compilation unit: a crate's `src/` (lintable) is one
    // unit; its corpus trees and every other package are outside it.
    let mut words: BTreeMap<(&str, bool), BTreeSet<&str>> = BTreeMap::new();
    // Per crate: its `pub` item names and what its signatures expose.
    let mut pubs: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    let mut exposed: BTreeMap<&str, BTreeSet<(&str, &str)>> = BTreeMap::new();
    for f in files {
        words
            .entry((f.crate_name, f.lintable))
            .or_default()
            .extend(f.facts.words.iter().map(String::as_str));
        pubs.entry(f.crate_name)
            .or_default()
            .extend(f.facts.pubs.iter().map(|p| p.name.as_str()));
        exposed.entry(f.crate_name).or_default().extend(
            f.facts
                .exposed
                .iter()
                .map(|(n, o)| (n.as_str(), o.as_str())),
        );
    }
    for f in files.iter().filter(|f| f.lintable) {
        if !A2_CRATES.contains(&f.crate_name) {
            continue;
        }
        let crate_pubs = &pubs[f.crate_name];
        for p in &f.facts.pubs {
            let referenced_elsewhere = words
                .iter()
                .filter(|(unit, _)| **unit != (f.crate_name, true))
                .any(|(_, set)| set.contains(p.name.as_str()));
            let is_type = matches!(p.kind.as_str(), "type" | "trait" | "type alias");
            let in_pub_signature = is_type
                && exposed[f.crate_name].iter().any(|&(name, owner)| {
                    name == p.name
                        && owner != p.name
                        && (owner.is_empty() || crate_pubs.contains(owner))
                });
            if !referenced_elsewhere && !in_pub_signature {
                findings.push(Finding {
                    rule: "A2",
                    file: f.rel_path.to_string(),
                    line: p.line,
                    col: p.col,
                    end_col: 0,
                    message: format!(
                        "pub {} `{}` is never referenced outside \
                         `{}`'s src/: dead public API surface; drop `pub` or delete it",
                        p.kind, p.name, f.crate_name
                    ),
                    excerpt: String::new(),
                    fix: None,
                });
            }
        }
    }
}

/// Collects externally-visible `pub` item names. `visible` tracks the
/// parent-module chain: a `pub` item in a private `mod` is not API.
/// Trait members are reached through their trait, so only the trait
/// itself is collected. Macro-generated items never appear in the AST —
/// the rule under-reports rather than flagging generated API.
fn collect_pub_items(
    item: &Item,
    visible: bool,
    out: &mut Vec<(String, &'static str, crate::ast::Span)>,
) {
    if item.in_test {
        return;
    }
    let mut record = |name: &str, kind: &'static str| {
        if visible && item.is_pub && !name.is_empty() && !name.starts_with('_') && name != "main" {
            out.push((name.to_string(), kind, item.span));
        }
    };
    match &item.kind {
        ItemKind::Fn(f) => record(&f.name, "fn"),
        ItemKind::TypeDef { name } => record(name, "type"),
        ItemKind::Trait { name, .. } => record(name, "trait"),
        ItemKind::Const { name } => record(name, "const"),
        ItemKind::TypeAlias { name } => record(name, "type alias"),
        ItemKind::Mod { name, items } => {
            record(name, "mod");
            for it in items {
                collect_pub_items(it, visible && item.is_pub, out);
            }
        }
        ItemKind::Impl { items } => {
            for it in items {
                collect_pub_items(it, visible, out);
            }
        }
        ItemKind::Use { .. } | ItemKind::Other => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem(crate_name: &str, rel_path: &str, source: &str) -> MemFile {
        MemFile {
            crate_name: crate_name.to_string(),
            rel_path: rel_path.to_string(),
            source: source.to_string(),
            lintable: true,
        }
    }

    /// A corpus-only file (`tests/`, `examples/`, `benches/`, perfbench).
    fn corpus(crate_name: &str, rel_path: &str, source: &str) -> MemFile {
        MemFile {
            lintable: false,
            ..mem(crate_name, rel_path, source)
        }
    }

    /// Names A2 reports over `files`.
    fn a2_names(files: &[MemFile]) -> Vec<String> {
        let (findings, _) = analyze(files);
        findings
            .iter()
            .filter(|f| f.rule == "A2")
            .map(|f| f.message.split('`').nth(1).unwrap_or("").to_string())
            .collect()
    }

    #[test]
    fn upward_edge_is_a1_downward_is_clean() {
        let files = vec![
            mem(
                "bios-electrochem",
                "crates/electrochem/src/lib.rs",
                "use bios_instrument::qc::QcGate;\n",
            ),
            mem(
                "bios-instrument",
                "crates/instrument/src/lib.rs",
                "use bios_electrochem::waveform::Waveform;\n",
            ),
        ];
        let (findings, graph) = analyze(&files);
        let a1: Vec<_> = findings.iter().filter(|f| f.rule == "A1").collect();
        assert_eq!(a1.len(), 1, "{findings:?}");
        assert_eq!(a1[0].file, "crates/electrochem/src/lib.rs");
        assert!(a1[0].message.contains("upward dependency"));
        assert_eq!(graph.edges.len(), 2);
    }

    #[test]
    fn same_layer_and_test_references_are_clean() {
        let files = vec![
            mem(
                "bios-biochem",
                "crates/biochem/src/lib.rs",
                "use bios_electrochem::waveform::Waveform;\n",
            ),
            mem(
                "bios-units",
                "crates/units/src/lib.rs",
                "#[cfg(test)]\nmod t {\n    use bios_platform::Session;\n}\n",
            ),
        ];
        let (findings, _) = analyze(&files);
        assert!(findings.iter().all(|f| f.rule != "A1"), "{findings:?}");
    }

    #[test]
    fn dead_pub_item_is_a2_error_and_referenced_is_clean() {
        let files = vec![
            mem(
                "bios-afe",
                "crates/afe/src/lib.rs",
                "pub fn used_gain() {}\npub fn orphan_gain() {}\nfn private_helper() {}\n",
            ),
            mem(
                "bios-instrument",
                "crates/instrument/src/lib.rs",
                "fn f() { bios_afe::used_gain(); }\n",
            ),
        ];
        let (findings, _) = analyze(&files);
        let a2: Vec<_> = findings.iter().filter(|f| f.rule == "A2").collect();
        assert_eq!(a2.len(), 1, "{findings:?}");
        assert!(a2[0].message.contains("orphan_gain"));
    }

    #[test]
    fn a2_counts_the_crates_own_tests_as_outside_users() {
        let src = mem(
            "bios-afe",
            "crates/afe/src/lib.rs",
            "pub fn test_only_hook() {}\n",
        );
        // Its own integration test is a separate crate: the item is live.
        let own_test = corpus(
            "bios-afe",
            "crates/afe/tests/hook.rs",
            "#[test]\nfn t() { bios_afe::test_only_hook(); }\n",
        );
        assert!(a2_names(&[src.clone(), own_test]).is_empty());
        // Mentioned only by another file of its own `src/`: dead.
        let sibling = mem(
            "bios-afe",
            "crates/afe/src/other.rs",
            "fn f() { crate::test_only_hook(); }\n",
        );
        assert_eq!(a2_names(&[src, sibling]), ["test_only_hook"]);
    }

    #[test]
    fn a2_fires_on_an_item_only_its_own_doctest_uses() {
        let src = mem(
            "bios-afe",
            "crates/afe/src/lib.rs",
            "/// ```\n/// bios_afe::doc_only();\n/// ```\npub fn doc_only() {}\n",
        );
        assert_eq!(a2_names(std::slice::from_ref(&src)), ["doc_only"]);
        let user = mem(
            "bios-instrument",
            "crates/instrument/src/lib.rs",
            "fn f() { bios_afe::doc_only(); }\n",
        );
        assert!(a2_names(&[src, user]).is_empty());
    }

    #[test]
    fn a2_ignores_mentions_in_comments_and_strings() {
        let src = mem(
            "bios-afe",
            "crates/afe/src/lib.rs",
            "pub fn spectrum() {}\n",
        );
        let other = |body: &str| mem("bios-biochem", "crates/biochem/src/lib.rs", body);
        let prose = other("// see bios_afe::spectrum\nconst S: &str = \"broad-spectrum\";\n");
        assert_eq!(a2_names(&[src.clone(), prose]), ["spectrum"]);
        assert!(a2_names(&[src, other("fn f() { bios_afe::spectrum(); }\n")]).is_empty());
    }

    #[test]
    fn a2_reads_perfbench_as_corpus() {
        let src = mem(
            "bios-platform",
            "crates/core/src/lib.rs",
            "pub fn benchmark_probe() {}\n",
        );
        let bench = |body: &str| corpus("advdiag-perfbench", "perfbench/src/probe.rs", body);
        assert!(a2_names(&[src.clone(), bench("fn f() { benchmark_probe(); }\n")]).is_empty());
        assert_eq!(a2_names(&[src, bench("fn f() {}\n")]), ["benchmark_probe"]);
    }

    #[test]
    fn a2_spares_a_type_only_a_pub_signature_names() {
        let user = mem(
            "bios-instrument",
            "crates/instrument/src/lib.rs",
            "fn f() { bios_afe::make(); }\n",
        );
        let lib = |vis: &str| {
            mem(
                "bios-afe",
                "crates/afe/src/lib.rs",
                &format!("pub struct Hidden;\n{vis} fn make() -> Hidden {{ Hidden }}\n"),
            )
        };
        // rustc refuses to narrow `Hidden` below the `pub fn` returning it.
        assert!(a2_names(&[lib("pub"), user.clone()]).is_empty());
        // Once the fn is crate-private nothing exposes it: dead.
        assert_eq!(a2_names(&[lib("pub(crate)"), user]), ["Hidden"]);
    }

    #[test]
    fn exposed_names_follow_public_signatures() {
        let src = "pub trait Quantity {}\n\
                   pub struct QRange<Q> { pub lo: Q, hidden: Private }\n\
                   impl<Q: Quantity> QRange<Q> where Q: Bounded {\n\
                       pub fn get(&self, a: Arg) -> Ret { todo() }\n\
                       pub(crate) fn internal(&self, a: Internal) {}\n\
                   }\n\
                   impl core::str::FromStr for Volts {\n\
                       type Err = ParseError;\n\
                       fn from_str(s: &str) -> Result<Self, Self::Err> { body(Body) }\n\
                   }\n\
                   pub enum Variant { A(Payload) }\n\
                   pub const LIMIT: Limit = Limit;\n\
                   #[cfg(test)]\nmod t { pub fn helper(x: TestOnly) {} }\n";
        let exposed = exposed_names(&lex(src));
        let by = |name: &str| -> Vec<&str> {
            exposed
                .iter()
                .filter(|(n, _)| n == name)
                .map(|(_, o)| o.as_str())
                .collect()
        };
        assert_eq!(by("Quantity"), ["QRange"]);
        assert_eq!(by("Bounded"), ["QRange"]);
        assert_eq!(by("Arg"), ["QRange"]);
        assert_eq!(by("Ret"), ["QRange"]);
        assert_eq!(by("ParseError"), ["Volts"]);
        assert_eq!(by("Payload"), ["Variant"]);
        assert_eq!(by("Limit"), [""]);
        for private in ["Private", "Internal", "Body", "TestOnly"] {
            assert!(by(private).is_empty(), "{private}: {exposed:?}");
        }
    }

    #[test]
    fn a2_skips_private_mods_tests_and_top_crates() {
        let files = vec![
            mem(
                "bios-afe",
                "crates/afe/src/lib.rs",
                "mod detail {\n    pub fn internal_only() {}\n}\n\
                 #[cfg(test)]\nmod t {\n    pub fn test_helper() {}\n}\n",
            ),
            mem(
                "bios-bench",
                "crates/bench/src/lib.rs",
                "pub fn harness_entry() {}\n",
            ),
        ];
        let (findings, _) = analyze(&files);
        assert!(findings.iter().all(|f| f.rule != "A2"), "{findings:?}");
    }

    #[test]
    fn dot_marks_upward_edges() {
        let files = vec![mem(
            "bios-electrochem",
            "crates/electrochem/src/lib.rs",
            "use bios_instrument::qc::QcGate;\nuse bios_units::Volts;\n",
        )];
        let (_, graph) = analyze(&files);
        let dot = graph.to_dot();
        assert!(dot.contains("digraph bios_layers"));
        assert!(dot.contains("\"bios-electrochem\" -> \"bios-instrument\" [color=red"));
        assert!(dot.contains("\"bios-electrochem\" -> \"bios-units\";"));
    }
}
