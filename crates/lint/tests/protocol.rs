//! Fixture-driven integration tests for M1, the protocol-enum
//! exhaustiveness rule: every wildcard arm in the positive fixture must
//! fire, and every shape in the negative fixture must stay silent. The
//! fixtures under `tests/fixtures/` are linted in memory — they are
//! never compiled, so they can model violations without breaking the
//! build.

use bios_lint::{lint_source, FileContext};

fn server() -> FileContext<'static> {
    FileContext {
        crate_name: "bios-server",
        rel_path: "crates/server/src/fixture.rs",
    }
}

fn m1_hits(src: &str) -> Vec<String> {
    lint_source(&server(), src)
        .into_iter()
        .filter(|f| f.rule == "M1")
        .map(|f| format!("{}:{} {}", f.line, f.col, f.message))
        .collect()
}

#[test]
fn m1_fires_on_every_positive_fixture_fn() {
    let src = include_str!("fixtures/m1_positive.rs");
    let hits = m1_hits(src);
    // One wildcard arm per function in the fixture.
    assert_eq!(hits.len(), 5, "{hits:#?}");
}

#[test]
fn m1_stays_silent_on_negative_fixture() {
    let src = include_str!("fixtures/m1_negative.rs");
    let hits = m1_hits(src);
    assert!(hits.is_empty(), "{hits:#?}");
}
