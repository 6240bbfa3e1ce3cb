//! Parser-recovery torture test: the fixture packs every construct the
//! lossy parser intentionally does not model — nested generics, async
//! blocks, macro invocation bodies (arithmetic the parser must not model),
//! macro definitions, pattern-heavy matches — and the whole file must
//! lint to **zero findings**. Any finding here means the parser
//! over-claimed on a construct it cannot actually analyze, violating
//! the false-negative-lossy contract.

use bios_lint::{lint_source, parser, FileContext};

fn ctx() -> FileContext<'static> {
    FileContext {
        crate_name: "bios-electrochem",
        rel_path: "crates/electrochem/src/torture.rs",
    }
}

#[test]
fn torture_fixture_lints_clean() {
    let src = include_str!("fixtures/torture.rs");
    let findings = lint_source(&ctx(), src);
    assert!(findings.is_empty(), "{findings:#?}");
}

#[test]
fn torture_fixture_still_parses_items() {
    // Recovery must not mean "give up on the file": the parser still
    // recognizes the plain fns around the unmodeled regions.
    let lexed = bios_lint::lexer::lex(include_str!("fixtures/torture.rs"));
    let items = parser::parse_items(&lexed);
    assert!(!items.is_empty());
}

#[test]
fn torture_fixture_is_stable_under_reparse() {
    // Lint twice; recovery paths must be deterministic.
    let src = include_str!("fixtures/torture.rs");
    let a = lint_source(&ctx(), src);
    let b = lint_source(&ctx(), src);
    assert_eq!(a, b);
}
