//! Fixture-driven integration tests for the workspace and meta rules
//! (A1, A2, W0): every rule must fire on its positive fixture and stay
//! silent on its negative one. The fixtures under `tests/fixtures/`
//! are linted in memory — they are never compiled, so they can model
//! violations without breaking the build.

use bios_lint::{lint_files, lint_source, FileContext, MemFile, Severity};

fn rule_hits(ctx: &FileContext<'_>, src: &str, rule: &str) -> Vec<String> {
    lint_source(ctx, src)
        .into_iter()
        .filter(|f| f.rule == rule)
        .map(|f| format!("{}:{} {}", f.line, f.col, f.message))
        .collect()
}

fn electrochem() -> FileContext<'static> {
    FileContext {
        crate_name: "bios-electrochem",
        rel_path: "crates/electrochem/src/fixture.rs",
    }
}

/// The A1/A2 fixtures form a four-file in-memory workspace: an upward
/// reference from `bios-units`, a downward reference from
/// `bios-instrument`, and a `bios-afe` API file with one consumed and
/// one orphaned `pub fn`.
fn layering_workspace() -> Vec<MemFile> {
    vec![
        MemFile {
            crate_name: "bios-units".into(),
            rel_path: "crates/units/src/a1_positive.rs".into(),
            source: include_str!("fixtures/a1_positive.rs").into(),
            lintable: true,
        },
        MemFile {
            crate_name: "bios-instrument".into(),
            rel_path: "crates/instrument/src/a1_negative.rs".into(),
            source: include_str!("fixtures/a1_negative.rs").into(),
            lintable: true,
        },
        MemFile {
            crate_name: "bios-afe".into(),
            rel_path: "crates/afe/src/a2_api.rs".into(),
            source: include_str!("fixtures/a2_api.rs").into(),
            lintable: true,
        },
        MemFile {
            crate_name: "bios-instrument".into(),
            rel_path: "crates/instrument/src/a2_consumer.rs".into(),
            source: include_str!("fixtures/a2_consumer.rs").into(),
            lintable: true,
        },
    ]
}

#[test]
fn a1_flags_only_the_upward_edge() {
    let findings = lint_files(&layering_workspace());
    let a1: Vec<_> = findings.iter().filter(|f| f.rule == "A1").collect();
    assert_eq!(a1.len(), 1, "{a1:#?}");
    assert_eq!(a1[0].file, "crates/units/src/a1_positive.rs");
    assert_eq!(a1[0].severity, Severity::Error);
    assert!(
        a1[0].message.contains("bios-instrument"),
        "{}",
        a1[0].message
    );
}

#[test]
fn a2_errors_on_the_orphan_and_spares_the_consumed_item() {
    let findings = lint_files(&layering_workspace());
    let a2: Vec<_> = findings.iter().filter(|f| f.rule == "A2").collect();
    assert!(
        a2.iter().any(|f| f.message.contains("orphan_gain")),
        "{a2:#?}"
    );
    assert!(
        a2.iter().all(|f| !f.message.contains("used_gain")),
        "{a2:#?}"
    );
    assert!(a2.iter().all(|f| f.severity == Severity::Error));
}

#[test]
fn w0_fires_on_stale_and_unknown_allows() {
    let src = include_str!("fixtures/w0_positive.rs");
    let hits = rule_hits(&electrochem(), src, "W0");
    assert_eq!(hits.len(), 2, "{hits:#?}");
    assert!(
        hits.iter().any(|h| h.contains("no longer suppresses")),
        "{hits:#?}"
    );
    assert!(
        hits.iter().any(|h| h.contains("names no known rule")),
        "{hits:#?}"
    );
}

#[test]
fn w0_stays_silent_on_consumed_allows_and_doc_prose() {
    let src = include_str!("fixtures/w0_negative.rs");
    let findings = lint_source(&electrochem(), src);
    assert!(findings.is_empty(), "{findings:#?}");
}
