//! Property tests for the auto-fix engine: randomized source files are
//! assembled from fragment pools (fixable violations, unfixable ones,
//! suppressions, clean code) and driven through the fixpoint. The core
//! contract is idempotence — applying the fixer twice is the same as
//! applying it once — plus "no machine-applicable debt survives": after
//! a fixpoint, re-linting reports nothing the fixer would touch.

use bios_lint::fixer::{fix_files, fix_source};
use bios_lint::{lint_source, FileContext, FixSafety, MemFile};
use proptest::prelude::*;

/// Top-level fragments the generator concatenates. Each is
/// self-contained; several carry machine-applicable violations (F1
/// float comparison, stale W0 allows), two carry suggested-only ones the
/// fixer must leave alone (U1 raw-f64 pub params), and the rest are
/// inert.
const FRAGMENTS: &[&str] = &[
    // F1, machine-applicable.
    "fn cmp_a(x: f64) -> bool {\n    x == 0.5\n}\n",
    "fn cmp_b(y: f64) -> bool {\n    y != 2.5\n}\n",
    // U1: suggested newtype, never auto-applied.
    "pub fn set_bias(bias_volts: f64) -> f64 {\n    bias_volts\n}\n",
    // Stale allow: W0 deletes the line.
    "// advdiag::allow(F1, grandfathered during a long-finished migration)\nfn settled() {}\n",
    // Used allow: suppresses the comparison below it, must survive.
    "fn checked(x: f64) -> bool {\n    // advdiag::allow(F1, fixture models an exact sentinel)\n    x == 0.0\n}\n",
    // U1 on two parameters: suggested only, never auto-applied.
    "pub fn integrate(current_amps: f64, dt_seconds: f64) -> f64 {\n    current_amps * dt_seconds\n}\n",
    // Inert code.
    "fn plain(a: u32, b: u32) -> u32 {\n    a + b\n}\n",
    "const SPAN: usize = 64;\nfn window(i: usize) -> usize {\n    i % SPAN\n}\n",
];

fn assemble(picks: &[usize]) -> String {
    let mut src = String::new();
    for &p in picks {
        src.push_str(FRAGMENTS[p % FRAGMENTS.len()]);
    }
    src
}

fn ctx() -> FileContext<'static> {
    FileContext {
        crate_name: "bios-electrochem",
        rel_path: "crates/electrochem/src/generated.rs",
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Apply-twice == apply-once, for any fragment composition and
    /// order: the second pass must change nothing and apply nothing.
    fn fix_source_is_idempotent(
        picks in prop::collection::vec(0usize..FRAGMENTS.len(), 0..12),
    ) {
        let src = assemble(&picks);
        let (once, _) = fix_source(&ctx(), &src);
        let (twice, applied_again) = fix_source(&ctx(), &once);
        prop_assert_eq!(applied_again, 0, "second pass applied fixes");
        prop_assert_eq!(&twice, &once, "second pass changed bytes");
    }

    /// After a fixpoint, no machine-applicable fix survives re-linting
    /// — and suggested-only fixes are reported but never applied (the
    /// suggested fragments' text is still present verbatim).
    fn fixpoint_leaves_no_machine_applicable_debt(
        picks in prop::collection::vec(0usize..FRAGMENTS.len(), 1..12),
    ) {
        let src = assemble(&picks);
        let (fixed, _) = fix_source(&ctx(), &src);
        let leftovers: Vec<_> = lint_source(&ctx(), &fixed)
            .into_iter()
            .filter(|f| {
                f.fix
                    .as_ref()
                    .is_some_and(|fx| fx.safety == FixSafety::MachineApplicable)
            })
            .collect();
        prop_assert!(leftovers.is_empty(), "{leftovers:#?}");
        if picks.iter().any(|&p| p % FRAGMENTS.len() == 2) {
            prop_assert!(
                fixed.contains("bias_volts: f64"),
                "suggested-only U1 was applied:\n{fixed}"
            );
        }
        if picks.iter().any(|&p| p % FRAGMENTS.len() == 5) {
            prop_assert!(
                fixed.contains("current_amps: f64, dt_seconds: f64"),
                "suggested-only U1 was applied:\n{fixed}"
            );
        }
    }

    /// The workspace fixpoint is idempotent too, with fragments spread
    /// over several files (fixes in one file must not disturb another).
    fn fix_files_is_idempotent(
        picks in prop::collection::vec(0usize..FRAGMENTS.len(), 0..12),
        split in 0usize..12,
    ) {
        let cut = split.min(picks.len());
        let mut files = vec![
            MemFile {
                crate_name: "bios-electrochem".to_string(),
                rel_path: "crates/electrochem/src/gen_a.rs".to_string(),
                source: assemble(&picks[..cut]),
                lintable: true,
            },
            MemFile {
                crate_name: "bios-units".to_string(),
                rel_path: "crates/units/src/gen_b.rs".to_string(),
                source: assemble(&picks[cut..]),
                lintable: true,
            },
        ];
        fix_files(&mut files).map_err(TestCaseError::fail)?;
        let snapshot: Vec<String> = files.iter().map(|f| f.source.clone()).collect();
        let outcome = fix_files(&mut files).map_err(TestCaseError::fail)?;
        prop_assert_eq!(outcome.applied, 0, "second workspace pass applied fixes");
        let after: Vec<String> = files.iter().map(|f| f.source.clone()).collect();
        prop_assert_eq!(snapshot, after);
    }
}
