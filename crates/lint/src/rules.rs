//! The rule catalogue and the engine that evaluates it.
//!
//! Every rule has a stable ID (used in diagnostics, suppressions and the
//! baseline) and a crate-level applicability policy mirroring the
//! workspace's invariants:
//!
//! | ID | kind | invariant | applies to |
//! |----|------|-----------|------------|
//! | D1 | token | no `HashMap`/`HashSet` (iteration order) | deterministic crates |
//! | D2 | token | no `Instant`/`SystemTime`/`thread::spawn`, no `static` of interior-mutable type | all but `bios-platform::exec` + bench harness |
//! | P1 | token | no `unwrap`/`expect`/`panic!`/`todo!`/`unimplemented!` | all library code but the bench harness |
//! | U1 | token | no raw `f64` params with dimensioned names in `pub fn` | physics-facing crates |
//! | S1 | token | every `unsafe` needs a `// SAFETY:` comment | everywhere |
//! | F1 | token | no `==`/`!=` against float literals | physics crates |
//! | A1 | workspace | crate layering (units → physics → afe → instrument → core → server → model → bench) | whole workspace |
//! | A2 | workspace | no `pub` item unreferenced outside its crate's `src/` (own `tests/`/`examples/`/`benches/` and `perfbench/` count as outside) unless a pub signature of its crate exposes it | library crates |
//! | H1 | hot-path | no allocation (`Vec::new`/`vec!`/`format!`/`Box::new`/`to_vec`/`clone`/unreserved `push`) in hot code | all but bench/lint |
//! | H2 | hot-path | no iterator float reductions (`sum`/`product`/`fold`) in hot code | all but bench/lint |
//! | H3 | hot-path | no blocking/I-O call reachable from the shard stepping loop | all but bench/lint |
//! | H4 | hot-path | no pure-constructor recomputation inside a hot loop body | all but bench/lint |
//! | M1 | token | no wildcard `_ =>` arm in a `match` over a protocol enum (`SessionStep`/`StepEvent`/`SessionOutcome`/`ServerError`/`ServiceTier`) | everywhere |
//! | W0 | meta | no stale `advdiag::allow` suppressions | everywhere |
//!
//! Some rules attach a [`Fix`] to their findings (F1, U1, D1, W0); see
//! [`crate::fixer`] for the applicability taxonomy and the splicing
//! engine behind `--fix`.
//!
//! Token and hot-path rules skip `#[cfg(test)]` / `#[test]` regions
//! except S1 (an undocumented `unsafe` block is a hazard wherever it
//! lives). A finding on line *n* is suppressed by
//! `// advdiag::allow(ID, reason)` on line *n* or *n − 1*; the reason is
//! mandatory. A well-formed allow that suppresses nothing is itself
//! reported (W0), so grandfathered suppressions cannot go stale silently.

use crate::fixer::{Fix, FixSafety};
use crate::lexer::{lex, Comment, Lexed, Token, TokenKind};

/// One diagnostic produced by a rule. Every finding is an error: an
/// unbaselined one fails the run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Stable rule ID (`"D1"`, `"P1"`, …).
    pub rule: &'static str,
    /// Repo-relative path with `/` separators.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based character (not byte) column; 0 when unknown.
    pub col: u32,
    /// 1-based character column one past the end of the flagged region
    /// on `line` (the annotation underline spans `col..end_col`); 0
    /// when unknown.
    pub end_col: u32,
    /// Human-readable explanation.
    pub message: String,
    /// Trimmed source line (baseline matching key; robust to line drift).
    pub excerpt: String,
    /// Optional rewrite that repairs the finding (see [`crate::fixer`]).
    pub fix: Option<Fix>,
}

/// Where a source file sits in the workspace, which decides rule
/// applicability.
#[derive(Debug, Clone, Copy)]
pub struct FileContext<'a> {
    /// Cargo package name (`"bios-electrochem"`, `"advanced-diagnostics"`, …).
    pub crate_name: &'a str,
    /// Repo-relative path with `/` separators (`"crates/core/src/exec.rs"`).
    pub rel_path: &'a str,
}

/// One `advdiag::allow(rule, reason)` site found in a file's comments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowSite {
    /// The rule ID named by the suppression (not necessarily valid).
    pub rule: String,
    /// 1-based line of the comment.
    pub line: u32,
    /// 1-based character column of the comment.
    pub col: u32,
    /// True when a non-empty reason was given (mandatory to suppress).
    pub has_reason: bool,
    /// Set once the site suppresses at least one finding.
    pub used: bool,
    /// Byte span to delete when the allow is stale: the whole comment if
    /// the comment holds nothing but this allow, else just the
    /// `advdiag::allow(…)` text.
    pub byte_start: usize,
    pub byte_end: usize,
}

/// The per-file lint result: surviving findings plus every suppression
/// site with its usage state (consumed by workspace-level rules and W0).
#[derive(Debug)]
pub struct FileLint {
    pub findings: Vec<Finding>,
    pub allows: Vec<AllowSite>,
}

/// Crates whose outputs must be bit-reproducible (D1).
const DETERMINISTIC_CRATES: &[&str] = &[
    "bios-platform",
    "bios-electrochem",
    "bios-afe",
    "bios-instrument",
    "bios-explore",
];

/// Crates doing physics/chemistry math (F1, and the audience for U1).
const PHYSICS_CRATES: &[&str] = &["bios-units", "bios-electrochem", "bios-biochem", "bios-afe"];

/// Crates whose public APIs model dimensioned quantities (U1).
const UNIT_API_CRATES: &[&str] = &[
    "bios-electrochem",
    "bios-biochem",
    "bios-afe",
    "bios-instrument",
    "bios-platform",
];

/// The bench/repro harness: P1/D2 and the hot-path rules do not apply
/// (it is test infrastructure in a package suit), S1/F1 still do.
pub(crate) const BENCH_CRATE: &str = "bios-bench";

/// The linter itself: exempt from the hot-path rules (it has no kernel
/// or parallel-engine surface and must stay self-hostable).
pub(crate) const LINT_CRATE: &str = "bios-lint";

/// The one module allowed to touch `std::thread` (the deterministic
/// parallel engine itself) and to hold a `static`: its read-once
/// `ADVDIAG_THREADS` override.
const D2_EXEMPT_FILE: &str = "crates/core/src/exec.rs";

/// Interior-mutable types that make a `static` process-global mutable
/// state (D2), besides every `Atomic*`.
const GLOBAL_STATE_TYPES: &[&str] = &[
    "Mutex", "RwLock", "OnceLock", "LazyLock", "Cell", "RefCell", "OnceCell",
];

/// Parameter-name suffixes that imply a physical dimension (U1). Each maps
/// to the `bios-units` newtype that should be used instead.
const DIMENSIONED_SUFFIXES: &[(&str, &str)] = &[
    ("_volts", "Volts"),
    ("_amps", "Amps"),
    ("_seconds", "Seconds"),
    ("_secs", "Seconds"),
    ("_ohms", "Ohms"),
    ("_farads", "Farads"),
    ("_hz", "Hertz"),
    ("_molar", "Molar"),
    ("_kelvin", "Kelvin"),
    ("_cm", "Centimeters"),
];

/// All shipped rule IDs, in catalogue order.
pub const RULE_IDS: &[&str] = &[
    "D1", "D2", "P1", "U1", "S1", "F1", "M1", "A1", "A2", "H1", "H2", "H3", "H4", "W0",
];

/// Rules resolved at workspace scope, not per file: their allows cannot
/// be judged stale by a single-file lint.
const WORKSPACE_RULES: &[&str] = &["A1", "A2"];

/// Lints one source file through every per-file token rule, applies
/// inline suppressions, and returns the surviving findings plus
/// all suppression sites. W0 is *not* computed here — workspace-level
/// rules (A1/A2) may still consume an allow; call
/// [`unused_allow_findings`] once every consumer has run.
pub fn lint_file(ctx: &FileContext<'_>, source: &str) -> FileLint {
    lint_file_prepared(ctx, source, &lex(source))
}

/// As [`lint_file`], but over an already-lexed file — the workspace
/// pipeline lexes each file exactly once and shares the tokens with the
/// parser and the fact extraction.
pub fn lint_file_prepared(ctx: &FileContext<'_>, source: &str, lexed: &Lexed) -> FileLint {
    let lines: Vec<&str> = source.lines().collect();
    let mut findings = Vec::new();
    rule_d1(ctx, lexed, &mut findings);
    rule_d2(ctx, lexed, &mut findings);
    rule_p1(ctx, lexed, &mut findings);
    rule_u1(ctx, lexed, &mut findings);
    rule_s1(ctx, lexed, &mut findings);
    rule_f1(ctx, lexed, &mut findings);
    rule_m1(ctx, lexed, &mut findings);
    for f in &mut findings {
        finish(&lines, f);
    }
    let mut allows = collect_allows(&lexed.comments);
    findings.retain(|f| !suppress(f, &mut allows));
    findings.sort_by(|a, b| (a.line, a.col, a.rule).cmp(&(b.line, b.col, b.rule)));
    FileLint { findings, allows }
}

/// Single-file convenience: [`lint_file`] plus the hot-path analysis (the
/// file stands alone as its workspace) plus W0 for stale allows.
/// Workspace-scoped rules (A1/A2) never run in this mode, so their
/// allows are exempt from W0 here.
pub fn lint_source(ctx: &FileContext<'_>, source: &str) -> Vec<Finding> {
    let lexed = lex(source);
    let items = crate::parser::parse_items(&lexed);
    let mut fl = lint_file_prepared(ctx, source, &lexed);
    let lines: Vec<&str> = source.lines().collect();
    let (mut hot, _overlay) = crate::hotpath::analyze_workspace(&[crate::hotpath::HotFile {
        ctx: *ctx,
        items: &items,
        source,
    }]);
    hot.retain(|f| !suppress(f, &mut fl.allows));
    for f in &mut hot {
        finish(&lines, f);
    }
    fl.findings.extend(hot);
    let mut w0 = unused_allow_findings(ctx, &mut fl.allows, WORKSPACE_RULES);
    for f in &mut w0 {
        finish(&lines, f);
    }
    fl.findings.extend(w0);
    fl.findings
        .sort_by(|a, b| (a.line, a.col, a.rule).cmp(&(b.line, b.col, b.rule)));
    fl.findings
}

/// W0: every well-formed allow (valid shape, non-empty reason) that
/// suppressed nothing is itself a finding — stale suppressions are how
/// grandfathered exceptions outlive their justification. Allows naming a
/// rule in `exempt` are skipped (their consumer did not run). A W0
/// finding is suppressible one level deep by `advdiag::allow(W0, …)`.
/// Excerpts are left empty; the caller fills them.
pub fn unused_allow_findings(
    ctx: &FileContext<'_>,
    allows: &mut [AllowSite],
    exempt: &[&str],
) -> Vec<Finding> {
    let mut out = Vec::new();
    for a in allows.iter() {
        if a.used || !a.has_reason || exempt.contains(&a.rule.as_str()) {
            continue;
        }
        let message = if RULE_IDS.contains(&a.rule.as_str()) {
            format!(
                "`advdiag::allow({}, …)` no longer suppresses anything: the \
                 finding it grandfathered is gone, so remove the allow",
                a.rule
            )
        } else {
            format!(
                "`advdiag::allow({}, …)` names no known rule (valid IDs: {}): \
                 it can never suppress anything",
                a.rule,
                RULE_IDS.join(", ")
            )
        };
        out.push(Finding {
            rule: "W0",
            file: ctx.rel_path.to_string(),
            line: a.line,
            col: a.col,
            end_col: 0,
            message,
            excerpt: String::new(),
            // Deleting the stale allow is always sound: it suppresses
            // nothing, so removing it changes no diagnostics.
            fix: Some(Fix {
                start: a.byte_start,
                end: a.byte_end,
                replacement: String::new(),
                safety: FixSafety::MachineApplicable,
            }),
        });
    }
    // One level of self-suppression: allow(W0, reason) covers these.
    out.retain(|f| !suppress(f, allows));
    out
}

/// The trimmed source line for a 1-based line number, capped so baselines
/// stay readable.
pub(crate) fn excerpt_for(lines: &[&str], line: u32) -> String {
    let text = lines
        .get(line.saturating_sub(1) as usize)
        .map(|l| l.trim())
        .unwrap_or_default();
    text.chars().take(160).collect()
}

/// Fills the presentation fields a rule left blank: the excerpt, and —
/// when the rule did not compute a precise span — an `end_col` running
/// to the end of the flagged line, so annotation underlines always cover
/// the full excerpt.
pub(crate) fn finish(lines: &[&str], f: &mut Finding) {
    f.excerpt = excerpt_for(lines, f.line);
    if f.end_col <= f.col {
        let line_end = lines
            .get(f.line.saturating_sub(1) as usize)
            .map(|l| l.trim_end().chars().count() as u32 + 1)
            .unwrap_or(0);
        f.end_col = line_end.max(f.col + 1);
    }
}

/// True for strings shaped like a rule ID (uppercase letters then
/// digits: `D1`, `A2`, `Z9`). Prose placeholders in documentation —
/// `allow(rule, reason)`, `allow(ID, …)` — do not qualify, so writing
/// about the suppression syntax never creates an allow site.
fn is_rule_shaped(s: &str) -> bool {
    let letters = s.chars().take_while(|c| c.is_ascii_uppercase()).count();
    letters > 0
        && s.chars().skip(letters).count() > 0
        && s.chars().skip(letters).all(|c| c.is_ascii_digit())
}

/// Extracts every `advdiag::allow(rule, reason?)` site from a file's
/// comments. Malformed occurrences (no closing paren, or a first
/// argument that is not shaped like a rule ID) are dropped.
pub fn collect_allows(comments: &[Comment]) -> Vec<AllowSite> {
    let mut sites = Vec::new();
    for c in comments {
        let mut rest = c.text.as_str();
        while let Some(pos) = rest.find("advdiag::allow(") {
            let base = c.text.len() - rest.len();
            let args_start = pos + "advdiag::allow(".len();
            let tail = &rest[args_start..];
            let Some(close) = tail.find(')') else {
                break;
            };
            let args = &tail[..close];
            let (rule, reason) = match args.split_once(',') {
                Some((id, reason)) => (id.trim(), reason.trim()),
                None => (args.trim(), ""),
            };
            if is_rule_shaped(rule) {
                // Deletion span for W0: the whole comment when nothing
                // but comment markers and whitespace surrounds the allow
                // (the common `// advdiag::allow(…)` case), else just
                // the `advdiag::allow(…)` text.
                let rel_start = base + pos;
                let rel_end = base + args_start + close + 1;
                let marker_only = |s: &str| {
                    s.chars()
                        .all(|ch| matches!(ch, '/' | '*' | '!') || ch.is_whitespace())
                };
                let whole = marker_only(&c.text[..rel_start]) && marker_only(&c.text[rel_end..]);
                let (byte_start, byte_end) = if whole {
                    (c.offset, c.offset + c.text.len())
                } else {
                    (c.offset + rel_start, c.offset + rel_end)
                };
                sites.push(AllowSite {
                    rule: rule.to_string(),
                    line: c.line,
                    col: c.col,
                    has_reason: !reason.is_empty(),
                    used: false,
                    byte_start,
                    byte_end,
                });
            }
            rest = &tail[close + 1..];
        }
    }
    sites
}

/// True when a well-formed allow on the finding's line or the line above
/// names its rule; every matching site is marked used. A missing reason
/// does not suppress.
pub fn suppress(f: &Finding, allows: &mut [AllowSite]) -> bool {
    let mut hit = false;
    for a in allows.iter_mut() {
        if a.has_reason && a.rule == f.rule && (a.line == f.line || a.line + 1 == f.line) {
            a.used = true;
            hit = true;
        }
    }
    hit
}

pub(crate) fn push(
    findings: &mut Vec<Finding>,
    rule: &'static str,
    ctx: &FileContext<'_>,
    line: u32,
    col: u32,
    message: String,
) {
    findings.push(Finding {
        rule,
        file: ctx.rel_path.to_string(),
        line,
        col,
        end_col: 0,
        message,
        excerpt: String::new(),
        fix: None,
    });
}

/// Key/element types the D1 fix can prove `Ord` from the spelling alone.
const ORD_KEY_TYPES: &[&str] = &[
    "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize", "bool",
    "char", "String", "str", "Vec",
];

/// True when the `HashMap`/`HashSet` token at `i` can be renamed to its
/// `BTree` twin without a type-bound risk: either no inline generic args
/// follow (a `use` path, `HashMap::new()`, an inferred binding), or the
/// first generic argument spells a provably-`Ord` type.
fn d1_btree_safe(toks: &[Token], i: usize) -> bool {
    match toks.get(i + 1) {
        Some(next) if next.text == "<" => {}
        _ => return true,
    }
    let mut depth = 1i64;
    let mut j = i + 2;
    while let Some(t) = toks.get(j) {
        match t.text.as_str() {
            "<" => depth += 1,
            ">" => {
                depth -= 1;
                if depth == 0 {
                    return true;
                }
            }
            ">>" => {
                depth -= 2;
                if depth <= 0 {
                    return true;
                }
            }
            "," if depth == 1 => return true,
            _ => {
                if t.kind == TokenKind::Ident && !ORD_KEY_TYPES.contains(&t.text.as_str()) {
                    return false;
                }
            }
        }
        j += 1;
    }
    false
}

/// D1: `HashMap`/`HashSet` in deterministic crates. The fix renames the
/// token to `BTreeMap`/`BTreeSet`; it is machine-applicable only when
/// *every* occurrence in the file passes the `Ord` spelling proof —
/// renaming a `use` while leaving a usage site (or vice versa) would
/// split the type in two, so the file converts atomically or not at all.
fn rule_d1(ctx: &FileContext<'_>, lexed: &Lexed, findings: &mut Vec<Finding>) {
    if !DETERMINISTIC_CRATES.contains(&ctx.crate_name) {
        return;
    }
    let toks = &lexed.tokens;
    let hits: Vec<usize> = toks
        .iter()
        .enumerate()
        .filter(|(_, t)| {
            !t.in_test && t.kind == TokenKind::Ident && (t.text == "HashMap" || t.text == "HashSet")
        })
        .map(|(i, _)| i)
        .collect();
    let safety = if hits.iter().all(|&i| d1_btree_safe(toks, i)) {
        FixSafety::MachineApplicable
    } else {
        FixSafety::Suggested
    };
    for &i in &hits {
        let t = &toks[i];
        push(
            findings,
            "D1",
            ctx,
            t.line,
            t.col,
            format!(
                "`{}` in deterministic crate `{}`: iteration order is \
                 randomized per process and can leak into outputs; use \
                 `BTreeMap`/`BTreeSet`",
                t.text, ctx.crate_name
            ),
        );
        if let Some(f) = findings.last_mut() {
            let replacement = if t.text == "HashMap" {
                "BTreeMap"
            } else {
                "BTreeSet"
            };
            f.end_col = t.col + t.text.chars().count() as u32;
            f.fix = Some(Fix {
                start: t.offset,
                end: t.offset + t.text.len(),
                replacement: replacement.to_string(),
                safety,
            });
        }
    }
}

/// The interior-mutable type a `static` item at token `i` names, if any:
/// scans the declared type, from the `:` after the name to the `=`/`;`.
fn static_state_type(toks: &[Token], i: usize) -> Option<&str> {
    let mut j = i + 1;
    if toks.get(j).map(|t| t.text.as_str()) == Some("mut") {
        j += 1;
    }
    if toks.get(j + 1).map(|t| t.text.as_str()) != Some(":") {
        return None;
    }
    toks[j + 2..]
        .iter()
        .take_while(|t| t.text != "=" && t.text != ";")
        .find(|t| {
            t.kind == TokenKind::Ident
                && (GLOBAL_STATE_TYPES.contains(&t.text.as_str()) || t.text.starts_with("Atomic"))
        })
        .map(|t| t.text.as_str())
}

/// D2: wall-clock / ad-hoc threading / process-global mutable state
/// outside the execution engine.
fn rule_d2(ctx: &FileContext<'_>, lexed: &Lexed, findings: &mut Vec<Finding>) {
    if ctx.crate_name == BENCH_CRATE || ctx.rel_path == D2_EXEMPT_FILE {
        return;
    }
    let toks = &lexed.tokens;
    for (i, t) in toks.iter().enumerate() {
        if t.in_test || t.kind != TokenKind::Ident {
            continue;
        }
        if t.text == "Instant" || t.text == "SystemTime" {
            push(
                findings,
                "D2",
                ctx,
                t.line,
                t.col,
                format!(
                    "`{}` outside `bios-platform::exec`: wall-clock reads make \
                     runs irreproducible; derive timing from protocol state",
                    t.text
                ),
            );
        }
        if t.text == "spawn" && i >= 2 && toks[i - 1].text == "::" && toks[i - 2].text == "thread" {
            push(
                findings,
                "D2",
                ctx,
                t.line,
                t.col,
                "`thread::spawn` outside `bios-platform::exec`: ad-hoc threads \
                 bypass the deterministic merge-by-index engine; use `par_map`"
                    .to_string(),
            );
        }
        if t.text == "static" {
            if let Some(ty) = static_state_type(toks, i) {
                push(
                    findings,
                    "D2",
                    ctx,
                    t.line,
                    t.col,
                    format!(
                        "`static` of type `{ty}` outside `bios-platform::exec`: \
                         process-global mutable state lets one test or request \
                         observe another; give the state an owner instead"
                    ),
                );
            }
        }
    }
}

/// P1: panicking calls in non-test library code.
fn rule_p1(ctx: &FileContext<'_>, lexed: &Lexed, findings: &mut Vec<Finding>) {
    if ctx.crate_name == BENCH_CRATE {
        return;
    }
    let toks = &lexed.tokens;
    for (i, t) in toks.iter().enumerate() {
        if t.in_test || t.kind != TokenKind::Ident {
            continue;
        }
        let is_method = |name: &str| {
            t.text == name
                && i >= 1
                && toks[i - 1].text == "."
                && toks.get(i + 1).map(|n| n.text.as_str()) == Some("(")
        };
        if is_method("unwrap") || is_method("expect") {
            push(
                findings,
                "P1",
                ctx,
                t.line,
                t.col,
                format!(
                    "`.{}()` in library code: a surprising input becomes a \
                     process abort; return a typed error instead",
                    t.text
                ),
            );
        }
        if matches!(t.text.as_str(), "panic" | "todo" | "unimplemented")
            && toks.get(i + 1).map(|n| n.text.as_str()) == Some("!")
        {
            push(
                findings,
                "P1",
                ctx,
                t.line,
                t.col,
                format!(
                    "`{}!` in library code: return a typed error instead of \
                     aborting the process",
                    t.text
                ),
            );
        }
    }
}

/// U1: raw `f64` parameters with dimension-implying names in `pub fn`
/// signatures.
fn rule_u1(ctx: &FileContext<'_>, lexed: &Lexed, findings: &mut Vec<Finding>) {
    if !UNIT_API_CRATES.contains(&ctx.crate_name) {
        return;
    }
    let toks = &lexed.tokens;
    let mut i = 0usize;
    while i < toks.len() {
        // Only plain `pub fn` — `pub(crate)` and private fns are not API.
        if toks[i].text == "pub"
            && !toks[i].in_test
            && toks.get(i + 1).map(|t| t.text.as_str()) == Some("fn")
        {
            // Scan the signature: from the opening `(` to its match.
            let mut j = i + 2;
            while j < toks.len() && toks[j].text != "(" {
                j += 1;
            }
            let mut depth = 0i64;
            while j < toks.len() {
                match toks[j].text.as_str() {
                    "(" => depth += 1,
                    ")" => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    ":" if toks.get(j + 1).map(|t| t.text.as_str()) == Some("f64")
                        && toks[j - 1].kind == TokenKind::Ident =>
                    {
                        let name = &toks[j - 1];
                        if let Some((_, newtype)) = DIMENSIONED_SUFFIXES
                            .iter()
                            .find(|(suffix, _)| name.text.ends_with(suffix))
                        {
                            push(
                                findings,
                                "U1",
                                ctx,
                                name.line,
                                name.col,
                                format!(
                                    "public parameter `{}: f64` implies a \
                                     dimension; take `bios_units::{}` so the \
                                     type system carries the unit",
                                    name.text, newtype
                                ),
                            );
                            if let Some(f) = findings.last_mut() {
                                // Suggested, never applied: swapping the
                                // parameter type is an API change every
                                // caller must follow.
                                let ty = &toks[j + 1];
                                f.end_col = name.col + name.text.chars().count() as u32;
                                f.fix = Some(Fix {
                                    start: ty.offset,
                                    end: ty.offset + ty.text.len(),
                                    replacement: format!("bios_units::{newtype}"),
                                    safety: FixSafety::Suggested,
                                });
                            }
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
            i = j;
        }
        i += 1;
    }
}

/// S1: `unsafe` without an adjacent `// SAFETY:` comment. Applies to test
/// code too.
fn rule_s1(ctx: &FileContext<'_>, lexed: &Lexed, findings: &mut Vec<Finding>) {
    for t in &lexed.tokens {
        if t.kind != TokenKind::Ident || t.text != "unsafe" {
            continue;
        }
        let documented = lexed
            .comments
            .iter()
            .any(|c| c.text.contains("SAFETY:") && c.line <= t.line && t.line - c.line <= 3);
        if !documented {
            push(
                findings,
                "S1",
                ctx,
                t.line,
                t.col,
                "`unsafe` without a `// SAFETY:` comment within the three \
                 preceding lines: document the invariant that makes it sound"
                    .to_string(),
            );
        }
    }
}

/// F1: `==` / `!=` against a floating-point literal in physics crates.
fn rule_f1(ctx: &FileContext<'_>, lexed: &Lexed, findings: &mut Vec<Finding>) {
    if !PHYSICS_CRATES.contains(&ctx.crate_name) {
        return;
    }
    let toks = &lexed.tokens;
    for (i, t) in toks.iter().enumerate() {
        if t.in_test || t.kind != TokenKind::Op || (t.text != "==" && t.text != "!=") {
            continue;
        }
        let float_adjacent = [i.checked_sub(1), Some(i + 1)]
            .into_iter()
            .flatten()
            .filter_map(|k| toks.get(k))
            .any(|n| n.kind == TokenKind::FloatLit);
        if float_adjacent {
            push(
                findings,
                "F1",
                ctx,
                t.line,
                t.col,
                format!(
                    "`{}` against a float literal: exact float comparison is \
                     representation-sensitive; compare against a tolerance or \
                     suppress with a reason if an exact sentinel is intended",
                    t.text
                ),
            );
            if let (Some(f), Some((fix, end_col))) = (findings.last_mut(), f1_fix(toks, i)) {
                f.fix = Some(fix);
                if end_col > 0 {
                    f.end_col = end_col;
                }
            }
        }
    }
}

/// Tokens that may legally precede the left operand of a comparison the
/// F1 fix rewrites — they guarantee the operand token *is* the whole
/// operand (no dropped `a.` / `a::` / closing-paren prefix).
const F1_LEFT_BOUNDARY: &[&str] = &[
    ";", "(", "{", "}", ",", "[", "=", "&&", "||", "return", "if", "while", "=>",
];

/// Tokens that may legally follow the right operand (the comparison is
/// not a prefix of a larger expression the rewrite would mangle).
const F1_RIGHT_BOUNDARY: &[&str] = &[";", ")", "}", "]", ",", "&&", "||", "{"];

/// Machine-applicable rewrite of `lhs == lit` / `lhs != lit` into
/// `lhs.total_cmp(&lit).is_eq()` / `.is_ne()`, attempted only when both
/// operands are single ident/float-literal tokens bounded by tokens that
/// prove the comparison stands alone. Returns the fix and the 1-based
/// end column of the rewritten region (0 when it spans lines).
fn f1_fix(toks: &[Token], i: usize) -> Option<(Fix, u32)> {
    let lhs = toks.get(i.checked_sub(1)?)?;
    let rhs = toks.get(i + 1)?;
    let operand_ok =
        |t: &Token| matches!(t.kind, TokenKind::Ident | TokenKind::FloatLit) && !t.text.is_empty();
    if !operand_ok(lhs) || !operand_ok(rhs) {
        return None;
    }
    let left_ok = match i.checked_sub(2).and_then(|k| toks.get(k)) {
        Some(prev) => F1_LEFT_BOUNDARY.contains(&prev.text.as_str()),
        None => true,
    };
    let right_ok = match toks.get(i + 2) {
        Some(next) => F1_RIGHT_BOUNDARY.contains(&next.text.as_str()),
        None => true,
    };
    if !left_ok || !right_ok {
        return None;
    }
    let method = if toks[i].text == "==" {
        "is_eq"
    } else {
        "is_ne"
    };
    let end_col = if rhs.line == lhs.line {
        rhs.col + rhs.text.chars().count() as u32
    } else {
        0
    };
    Some((
        Fix {
            start: lhs.offset,
            end: rhs.offset + rhs.text.len(),
            replacement: format!("{}.total_cmp(&{}).{method}()", lhs.text, rhs.text),
            safety: FixSafety::MachineApplicable,
        },
        end_col,
    ))
}

/// The protocol enums whose `match`es must stay exhaustive (M1). A
/// wildcard arm over one of these silently absorbs every variant a
/// future PR adds — exactly how the shard loop's outcome handling
/// once swallowed a `SessionOutcome` case instead of failing the build.
const PROTOCOL_ENUMS: &[&str] = &[
    "SessionStep",
    "StepEvent",
    "SessionOutcome",
    "ServerError",
    "ServiceTier",
];

/// M1: wildcard `_ =>` arms in `match`es over protocol enums.
///
/// The rule is token-level but type-aware-ish: a lone `_` arm is
/// flagged only when a *sibling* arm's pattern in the same `match`
/// names one of [`PROTOCOL_ENUMS`], so `Ok(_) =>`, tuple wildcards
/// (`(_, x) =>`) and matches over unrelated types never fire. Guarded
/// wildcards (`_ if … =>`) are a deliberate catch-all and exempt.
/// Nested matches are judged each by their own arms: an inner `match`'s
/// patterns are not siblings of the outer one.
fn rule_m1(ctx: &FileContext<'_>, lexed: &Lexed, findings: &mut Vec<Finding>) {
    let toks = &lexed.tokens;
    for (i, t) in toks.iter().enumerate() {
        if t.in_test || t.kind != TokenKind::Ident || t.text != "match" {
            continue;
        }
        // The body `{` is the first brace outside parens/brackets: a
        // bare scrutinee cannot contain a struct literal, so any earlier
        // brace would have to sit inside `(…)` / `[…]`.
        let mut paren = 0i64;
        let mut bracket = 0i64;
        let mut j = i + 1;
        let body_open = loop {
            let Some(n) = toks.get(j) else { break None };
            match n.text.as_str() {
                "(" => paren += 1,
                ")" => paren -= 1,
                "[" => bracket += 1,
                "]" => bracket -= 1,
                "{" if paren == 0 && bracket == 0 => break Some(j),
                ";" | "}" if paren == 0 && bracket == 0 => break None,
                _ => {}
            }
            j += 1;
        };
        let Some(open) = body_open else { continue };
        // Walk the arms at brace depth 1, tracking whether we are in a
        // pattern region (arm start up to its `=>`) or an arm body
        // (after `=>` up to the separating `,` or the `}` of a braced
        // body). Collect protocol mentions from patterns and the sites
        // of lone-`_` arms; flag the latter only if the former exist.
        let mut brace = 1i64;
        paren = 0;
        bracket = 0;
        let mut in_pattern = true;
        let mut protocol = false;
        let mut wildcards: Vec<usize> = Vec::new();
        let mut k = open + 1;
        while let Some(n) = toks.get(k) {
            match n.text.as_str() {
                "{" => brace += 1,
                "}" => {
                    brace -= 1;
                    if brace == 0 {
                        break;
                    }
                    if brace == 1 && paren == 0 && bracket == 0 {
                        in_pattern = true;
                    }
                }
                "(" => paren += 1,
                ")" => paren -= 1,
                "[" => bracket += 1,
                "]" => bracket -= 1,
                "," if brace == 1 && paren == 0 && bracket == 0 => {
                    in_pattern = true;
                }
                "=>" if brace == 1 && paren == 0 && bracket == 0 => {
                    in_pattern = false;
                    if toks
                        .get(k.wrapping_sub(1))
                        .is_some_and(|p| p.kind == TokenKind::Ident && p.text == "_")
                    {
                        wildcards.push(k - 1);
                    }
                }
                _ => {
                    if in_pattern
                        && brace == 1
                        && n.kind == TokenKind::Ident
                        && PROTOCOL_ENUMS.contains(&n.text.as_str())
                    {
                        protocol = true;
                    }
                }
            }
            k += 1;
        }
        if !protocol {
            continue;
        }
        for &w in &wildcards {
            let wt = &toks[w];
            push(
                findings,
                "M1",
                ctx,
                wt.line,
                wt.col,
                "wildcard `_ =>` arm in a `match` over a protocol enum: a \
                 variant added later is silently absorbed instead of failing \
                 the build; enumerate the remaining variants (use `_ if …` \
                 with a reason if a guarded catch-all is intended)"
                    .to_string(),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx_det() -> FileContext<'static> {
        FileContext {
            crate_name: "bios-electrochem",
            rel_path: "crates/electrochem/src/x.rs",
        }
    }

    #[test]
    fn d1_fires_and_suppression_works() {
        let hit = lint_source(&ctx_det(), "use std::collections::HashMap;\n");
        assert_eq!(hit.len(), 1);
        assert_eq!(hit[0].rule, "D1");
        let ok = lint_source(
            &ctx_det(),
            "// advdiag::allow(D1, lookup-only cache, order never observed)\nuse std::collections::HashMap;\n",
        );
        assert!(ok.is_empty());
    }

    #[test]
    fn suppression_requires_reason_and_matching_rule() {
        let no_reason = lint_source(
            &ctx_det(),
            "// advdiag::allow(D1)\nuse std::collections::HashMap;\n",
        );
        assert_eq!(no_reason.len(), 1, "reason is mandatory");
        assert_eq!(no_reason[0].rule, "D1");
        // A mismatched allow leaves the finding *and* is itself stale (W0).
        let wrong_rule = lint_source(
            &ctx_det(),
            "// advdiag::allow(P1, not the right rule)\nuse std::collections::HashMap;\n",
        );
        let rules: Vec<_> = wrong_rule.iter().map(|f| f.rule).collect();
        assert_eq!(rules, ["W0", "D1"]);
    }

    #[test]
    fn w0_reports_stale_and_unknown_allows() {
        // The D1 allow suppresses nothing: there is no HashMap here.
        let stale = lint_source(
            &ctx_det(),
            "// advdiag::allow(D1, gone since PR9)\nfn f() {}\n",
        );
        assert_eq!(stale.len(), 1);
        assert_eq!((stale[0].rule, stale[0].line), ("W0", 1));
        // Unknown rule IDs are called out specifically.
        let unknown = lint_source(&ctx_det(), "// advdiag::allow(Z9, typo)\nfn f() {}\n");
        assert_eq!(unknown.len(), 1);
        assert!(unknown[0].message.contains("no known rule"));
        // W0 itself is suppressible one level deep.
        let hushed = lint_source(
            &ctx_det(),
            "// advdiag::allow(W0, keeping for the next PR) advdiag::allow(D1, gone)\nfn f() {}\n",
        );
        assert!(hushed.is_empty(), "{hushed:?}");
        // Workspace-scoped rules (A1/A2) are exempt in single-file mode.
        let ws = lint_source(
            &ctx_det(),
            "// advdiag::allow(A1, layering reviewed)\nfn f() {}\n",
        );
        assert!(ws.is_empty(), "{ws:?}");
    }

    #[test]
    fn findings_carry_char_columns() {
        let hit = lint_source(&ctx_det(), "fn f() { let µ = x.unwrap(); }\n");
        assert_eq!(hit.len(), 1);
        // `unwrap` starts at char column 20 (byte column would be 21).
        assert_eq!((hit[0].rule, hit[0].line, hit[0].col), ("P1", 1, 20));
    }

    #[test]
    fn p1_skips_tests_and_comments() {
        let src = "fn f() { x.unwrap(); }\n// x.unwrap() in a comment\n#[cfg(test)]\nmod t { fn g() { y.unwrap(); } }\n";
        let findings = lint_source(&ctx_det(), src);
        assert_eq!(findings.len(), 1);
        assert_eq!((findings[0].rule, findings[0].line), ("P1", 1));
    }

    #[test]
    fn u1_flags_dimensioned_f64_params_in_pub_fns_only() {
        let src = "pub fn set(bias_volts: f64) {}\nfn private(bias_volts: f64) {}\npub fn typed(bias: Volts) {}\n";
        let findings = lint_source(&ctx_det(), src);
        assert_eq!(findings.len(), 1);
        assert_eq!((findings[0].rule, findings[0].line), ("U1", 1));
    }

    #[test]
    fn s1_requires_safety_comment() {
        let bad = lint_source(&ctx_det(), "fn f() { unsafe { work() } }\n");
        assert_eq!(bad.len(), 1);
        assert_eq!(bad[0].rule, "S1");
        let good = lint_source(
            &ctx_det(),
            "// SAFETY: buffer outlives the call\nfn f() { unsafe { work() } }\n",
        );
        assert!(good.is_empty());
    }

    #[test]
    fn f1_flags_float_literal_comparisons() {
        let findings = lint_source(&ctx_det(), "fn f(x: f64) -> bool { x == 0.0 }\n");
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, "F1");
        // Integer comparisons are fine.
        assert!(lint_source(&ctx_det(), "fn f(x: i64) -> bool { x == 0 }\n").is_empty());
    }

    #[test]
    fn d2_exempts_exec_and_bench() {
        let exec = FileContext {
            crate_name: "bios-platform",
            rel_path: "crates/core/src/exec.rs",
        };
        let bench = FileContext {
            crate_name: "bios-bench",
            rel_path: "crates/bench/src/x.rs",
        };
        for src in [
            "fn f() { let t = std::thread::spawn(|| 1); }\n",
            "static HITS: std::sync::OnceLock<Mutex<u64>> = OnceLock::new();\n",
        ] {
            let hits = lint_source(&ctx_det(), src);
            assert_eq!(hits.len(), 1, "{hits:?}");
            assert_eq!(hits[0].rule, "D2");
            assert!(lint_source(&exec, src).is_empty());
            assert!(lint_source(&bench, src).is_empty());
        }
        // Immutable statics and `'static` lifetimes are not global state.
        let quiet = "static NAME: &str = \"x\";\nfn f() -> &'static str { NAME }\n";
        assert!(lint_source(&ctx_det(), quiet).is_empty());
    }

    fn ctx_server() -> FileContext<'static> {
        FileContext {
            crate_name: "bios-server",
            rel_path: "crates/server/src/x.rs",
        }
    }

    #[test]
    fn m1_flags_wildcard_arms_over_protocol_enums() {
        let src = "fn f(o: SessionOutcome) {\n    match o {\n        SessionOutcome::Quarantined(d) => handle(d),\n        _ => {}\n    }\n}\n";
        let findings = lint_source(&ctx_server(), src);
        assert_eq!(findings.len(), 1, "{findings:#?}");
        assert_eq!((findings[0].rule, findings[0].line), ("M1", 4));
        // Expression-bodied wildcard arms are caught too.
        let expr = "fn g(t: ServiceTier) -> u8 {\n    match t {\n        ServiceTier::Stat => 0,\n        _ => 9,\n    }\n}\n";
        let hits = lint_source(&ctx_server(), expr);
        assert_eq!(hits.len(), 1);
        assert_eq!((hits[0].rule, hits[0].line), ("M1", 4));
    }

    #[test]
    fn m1_ignores_wildcards_over_unrelated_types_and_inner_patterns() {
        // No protocol enum among the sibling patterns: stay silent.
        let plain =
            "fn f(x: u8) -> u8 {\n    match x {\n        0 => 1,\n        _ => 0,\n    }\n}\n";
        assert!(lint_source(&ctx_server(), plain).is_empty());
        // `Ok(_)` / `(_, x)` wildcards are not wildcard *arms*.
        let inner = "fn g(r: Result<SessionOutcome, E>) {\n    match r {\n        Ok(SessionOutcome::Shed) => shed(),\n        Ok(_) => other(),\n        Err(e) => fail(e),\n    }\n}\n";
        assert!(lint_source(&ctx_server(), inner).is_empty());
        // A guarded wildcard is a deliberate catch-all.
        let guarded = "fn h(o: SessionOutcome) {\n    match o {\n        SessionOutcome::Shed => shed(),\n        _ if degraded() => log(),\n        SessionOutcome::Failed { .. } => fail(),\n    }\n}\n";
        assert!(lint_source(&ctx_server(), guarded).is_empty());
    }

    #[test]
    fn m1_judges_nested_matches_independently_and_skips_tests() {
        // Outer match is over a protocol enum; the inner one is not.
        // Only the outer wildcard arm may fire.
        let nested = "fn f(e: StepEvent, x: u8) {\n    match e {\n        StepEvent::SessionDone => match x {\n            0 => done(),\n            _ => retry(),\n        },\n        _ => {}\n    }\n}\n";
        let hits = lint_source(&ctx_server(), nested);
        assert_eq!(hits.len(), 1, "{hits:#?}");
        assert_eq!((hits[0].rule, hits[0].line), ("M1", 7));
        // Test modules are exempt, like every other token rule.
        let in_test = "#[cfg(test)]\nmod t {\n    fn f(o: SessionOutcome) {\n        match o {\n            SessionOutcome::Shed => {}\n            _ => {}\n        }\n    }\n}\n";
        assert!(lint_source(&ctx_server(), in_test).is_empty());
    }

    #[test]
    fn m1_suppression_works() {
        let src = "fn f(o: SessionOutcome) {\n    match o {\n        SessionOutcome::Shed => shed(),\n        // advdiag::allow(M1, exhaustiveness audited in PR9)\n        _ => {}\n    }\n}\n";
        assert!(lint_source(&ctx_server(), src).is_empty());
    }
}
