//! Fixture-driven integration tests for the hot-path rules (H1
//! allocation, H2 float-reduction order, H3 blocking calls, H4 invariant
//! recomputation): every rule must fire on each seeded site of its
//! positive fixture and stay silent on its negative one. The fixtures
//! under `tests/fixtures/` are linted in memory — they are never
//! compiled, so they can model violations without breaking the build.

use std::collections::BTreeSet;
use std::path::Path;

use bios_lint::hotpath::{HOT_ROOTS, PURE_CTORS};
use bios_lint::lexer::{self, TokenKind};
use bios_lint::{gather, lint_files_graph, lint_source, FileContext};

fn ctx() -> FileContext<'static> {
    FileContext {
        crate_name: "bios-electrochem",
        rel_path: "crates/electrochem/src/fixture.rs",
    }
}

fn rule_hits(src: &str, rule: &str) -> Vec<String> {
    lint_source(&ctx(), src)
        .into_iter()
        .filter(|f| f.rule == rule)
        .map(|f| format!("{}:{} {}", f.line, f.col, f.message))
        .collect()
}

#[test]
fn h1_fires_on_every_seeded_allocation() {
    let src = include_str!("fixtures/h1_positive.rs");
    let hits = rule_hits(src, "H1");
    // Sites 1-9: Vec::new ×2, vec!, to_vec ×2 (one in the
    // par_map_chunks closure root), clone, Box::new, unreserved push,
    // format! under an `advdiag::hot` marker.
    assert_eq!(hits.len(), 9, "{hits:#?}");
}

#[test]
fn h1_flags_the_par_map_chunks_closure_root() {
    let src = include_str!("fixtures/h1_positive.rs");
    let hits = rule_hits(src, "H1");
    // The cold `dispatch` fn's closure body is a hot root of its own.
    assert!(
        hits.iter()
            .any(|h| h.contains("to_vec") && h.starts_with("32:")),
        "{hits:#?}"
    );
}

#[test]
fn h1_stays_silent_on_negative_fixture() {
    // Covers: warm-driver setup allocation, with_capacity'd push,
    // field-receiver push, cold code, an `advdiag::cold`-marked root
    // name, and the Opaque-recovery zero-false-positive case.
    let src = include_str!("fixtures/h1_negative.rs");
    let hits = rule_hits(src, "H1");
    assert!(hits.is_empty(), "{hits:#?}");
}

#[test]
fn h2_fires_on_every_seeded_reduction() {
    let src = include_str!("fixtures/h2_positive.rs");
    let hits = rule_hits(src, "H2");
    // sum, product, fold in the kernel + sum in the par_map closure.
    assert_eq!(hits.len(), 4, "{hits:#?}");
}

#[test]
fn h2_stays_silent_on_negative_fixture() {
    let src = include_str!("fixtures/h2_negative.rs");
    let hits = rule_hits(src, "H2");
    assert!(hits.is_empty(), "{hits:#?}");
}

#[test]
fn h3_fires_on_every_blocking_call_in_the_server_loop() {
    let src = include_str!("fixtures/h3_positive.rs");
    let hits = rule_hits(src, "H3");
    // lock, recv, println!, sleep, Instant::now, fs::read, and a join
    // in a helper reached from `step_active`.
    assert_eq!(hits.len(), 7, "{hits:#?}");
}

#[test]
fn h3_stays_silent_outside_the_server_loop() {
    // `step_wave` is hot but not in `step_active`'s reachability; the
    // injected `Clock` is exempt; cold code may block.
    let src = include_str!("fixtures/h3_negative.rs");
    let hits = rule_hits(src, "H3");
    assert!(hits.is_empty(), "{hits:#?}");
}

#[test]
fn h4_fires_on_every_recomputed_invariant() {
    let src = include_str!("fixtures/h4_positive.rs");
    let hits = rule_hits(src, "H4");
    // Grid::for_experiment in a for loop, Prefactorized::new in
    // a while loop, Grid::uniform in a PerIter helper, and NoiseSource::new plus a
    // method-form `.streamer(..)` in the acquisition loop.
    assert_eq!(hits.len(), 5, "{hits:#?}");
}

#[test]
fn h4_stays_silent_on_negative_fixture() {
    let src = include_str!("fixtures/h4_negative.rs");
    let hits = rule_hits(src, "H4");
    assert!(hits.is_empty(), "{hits:#?}");
}

#[test]
fn hot_findings_obey_inline_allows() {
    let src = "pub fn step_active(x: &Thing) -> Thing {\n\
               // advdiag::allow(H1, fixture: the copy is once per admission, not per step)\n\
               x.clone()\n\
               }\n";
    let hits = rule_hits(src, "H1");
    assert!(hits.is_empty(), "{hits:#?}");
}

#[test]
fn torture_fixture_parses_without_hot_false_positives() {
    // The recovery torture file exercises every parser fallback; none
    // of its fns are hot roots, so the hot pass must stay silent.
    let src = include_str!("fixtures/torture.rs");
    for rule in ["H1", "H2", "H3", "H4"] {
        let hits = rule_hits(src, rule);
        assert!(hits.is_empty(), "{rule}: {hits:#?}");
    }
}

/// Names the hot-path catalogues key on must exist in the live tree: a
/// rename that leaves a `HOT_ROOTS` or `PURE_CTORS` entry naming nothing
/// would switch its guard off without a single finding changing.
#[test]
fn hot_catalogues_name_live_definitions() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root");
    let mut defs: BTreeSet<(String, String)> = BTreeSet::new();
    for f in gather(root).expect("workspace gathers") {
        // Same exemptions as the hot-path analysis itself.
        if f.lintable && f.crate_name != "bios-bench" && f.crate_name != "bios-lint" {
            let file = f.rel_path.rsplit('/').next().unwrap_or_default();
            defs.extend(fn_defs(file.trim_end_matches(".rs"), &f.source));
        }
    }
    for (name, _) in HOT_ROOTS {
        assert!(
            defs.iter().any(|(_, n)| n == name),
            "hot root `{name}` is not defined by any non-test fn"
        );
    }
    for (owner, method) in PURE_CTORS {
        assert!(
            defs.contains(&(owner.to_string(), method.to_string())),
            "pure constructor `{owner}::{method}` is not defined by any non-test fn"
        );
    }
}

/// The workspace hot region, name by name with its cadence, must match
/// `hot_levels.txt`. Hotness stops at names with more than
/// `MAX_TWIN_DEFS` definitions, so a rename, or a third definition of a
/// name such as `tick`, `acquire` or `run_samples`, can shrink what H1–H4
/// scan without changing a single finding; pinning the list turns that
/// into a reviewed edit of the file.
#[test]
fn workspace_hot_levels_match_the_committed_list() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root");
    let (_, graph) = lint_files_graph(&gather(root).expect("workspace gathers"));
    let got: BTreeSet<String> = graph
        .hot
        .expect("the hot-path analysis ran")
        .hot
        .iter()
        .map(|(name, level)| format!("{name} {level:?}"))
        .collect();
    let want: BTreeSet<String> = include_str!("hot_levels.txt")
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(str::to_string)
        .collect();
    let added: Vec<&String> = got.difference(&want).collect();
    let removed: Vec<&String> = want.difference(&got).collect();
    assert!(
        added.is_empty() && removed.is_empty(),
        "the hot region changed; if intended, edit crates/lint/tests/hot_levels.txt\n\
         added: {added:#?}\nremoved: {removed:#?}"
    );
}

/// Every non-test fn defined in one file, as `(owner, name)`: the owner
/// is the self type of the enclosing `impl` block, or the module (the
/// file stem) for a free fn. Fns nested deeper are skipped.
fn fn_defs(module: &str, source: &str) -> Vec<(String, String)> {
    let toks = lexer::lex(source).tokens;
    let mut out = Vec::new();
    let mut depth = 0usize;
    // `(brace depth of an impl body, its self type)`, innermost last.
    let mut impls: Vec<(usize, String)> = Vec::new();
    let mut i = 0;
    while let Some(t) = toks.get(i) {
        match t.text.as_str() {
            "{" => depth += 1,
            "}" => {
                if impls.last().is_some_and(|(d, _)| *d == depth) {
                    impls.pop();
                }
                depth = depth.saturating_sub(1);
            }
            // The self type is the last path segment outside generics,
            // after `for` in a trait impl, before any `where` clause.
            "impl" if t.kind == TokenKind::Ident => {
                let mut angle = 0i32;
                let mut self_ty = String::new();
                let mut j = i + 1;
                while let Some(h) = toks.get(j) {
                    match h.text.as_str() {
                        "<" => angle += 1,
                        ">" => angle -= 1,
                        ">>" => angle -= 2,
                        "{" | ";" | "where" if angle <= 0 => break,
                        _ if angle == 0 && h.kind == TokenKind::Ident && h.text != "for" => {
                            self_ty = h.text.clone();
                        }
                        _ => {}
                    }
                    j += 1;
                }
                while toks.get(j).is_some_and(|h| h.text != "{" && h.text != ";") {
                    j += 1;
                }
                if toks.get(j).is_some_and(|h| h.text == "{") {
                    impls.push((depth + 1, self_ty));
                }
                i = j;
                continue;
            }
            "fn" if t.kind == TokenKind::Ident && !t.in_test => {
                let owner = match impls.last() {
                    Some((d, ty)) if *d == depth => Some(ty.as_str()),
                    _ if depth == 0 => Some(module),
                    _ => None,
                };
                if let (Some(owner), Some(name)) = (owner, toks.get(i + 1)) {
                    out.push((owner.to_string(), name.text.clone()));
                }
            }
            _ => {}
        }
        i += 1;
    }
    out
}
