//! Baseline round-trip properties for the invariant lint engine.
//!
//! The baseline is the contract that lets new rules land without a
//! flag day: grandfathered findings stay silent, anything a new rule
//! reports stays fresh. These properties drive randomized finding
//! multisets (duplicate keys, awkward excerpts, µ-laden messages)
//! through serialize → parse → partition and assert the contract holds
//! when several rules' findings are added concurrently.

use bios_lint::{Baseline, Finding, RULE_IDS};
use proptest::prelude::*;

const FILES: &[&str] = &[
    "crates/electrochem/src/voltammetry.rs",
    "crates/afe/src/adc.rs",
    "crates/core/src/exec.rs",
    "crates/units/src/types.rs",
];

/// Excerpts exercise the hand-rolled JSON escaping: quotes, backslashes
/// and non-ASCII all round-trip through the baseline file.
const EXCERPTS: &[&str] = &[
    "let x = map.get(&k).unwrap();",
    "let path = \"C:\\\\data\\\\run\";",
    "let i_uA = i.as_microamps(); // µA",
    "sum += dt * f(t);",
];

/// Deterministically expands one u64 into a synthetic finding. Low bits
/// pick the rule so a seed range covers several rules at once — the
/// "concurrent rule additions" half of the property.
fn synth(seed: u64) -> Finding {
    let rule = RULE_IDS[(seed % RULE_IDS.len() as u64) as usize];
    let file = FILES[((seed >> 4) % FILES.len() as u64) as usize];
    let excerpt = EXCERPTS[((seed >> 8) % EXCERPTS.len() as u64) as usize];
    let col = ((seed >> 24) % 120 + 1) as u32;
    Finding {
        rule,
        file: file.to_string(),
        line: ((seed >> 16) % 500 + 1) as u32,
        col,
        end_col: col + ((seed >> 32) % 40) as u32,
        message: format!("synthetic finding #{seed}"),
        excerpt: excerpt.to_string(),
        fix: None,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Writing a baseline from any finding multiset and reading it back
    /// grandfathers exactly that multiset — nothing fresh, nothing lost,
    /// duplicates budgeted per occurrence.
    fn baseline_round_trips_any_finding_multiset(
        seeds in prop::collection::vec(0u64..1u64 << 40, 0..40),
    ) {
        let findings: Vec<Finding> = seeds.iter().copied().map(synth).collect();
        let baseline = Baseline::from_findings(&findings);
        let reparsed = Baseline::parse(&baseline.to_json())
            .map_err(TestCaseError::fail)?;
        let (old, fresh) = reparsed.partition(&findings);
        prop_assert!(fresh.is_empty(), "fresh after round-trip: {fresh:?}");
        prop_assert_eq!(old.len(), findings.len());
        // Serialization is a fixed point: parse(to_json) re-serializes
        // byte-identically, so rewriting a baseline never churns the
        // checked-in file.
        prop_assert_eq!(reparsed.to_json(), baseline.to_json());
    }

    /// Rules added after the baseline was written stay fresh: partition
    /// of (grandfathered ++ new-rule findings) keeps the two sets
    /// disjoint, whatever interleaving the new rules report in.
    fn new_rule_findings_stay_fresh_under_concurrent_additions(
        old_seeds in prop::collection::vec(0u64..1u64 << 40, 1..24),
        new_seeds in prop::collection::vec(0u64..1u64 << 40, 1..24),
        interleave in 0u64..1u64 << 16,
    ) {
        let old: Vec<Finding> = old_seeds.iter().copied().map(synth).collect();
        // New-rule findings carry an excerpt no old finding can have, as
        // a freshly-added rule's excerpts are new code shapes.
        let new: Vec<Finding> = new_seeds
            .iter()
            .copied()
            .map(|s| {
                let mut f = synth(s);
                f.excerpt = format!("freshly_reported_shape_{s};");
                f
            })
            .collect();
        let baseline = Baseline::from_findings(&old);
        let reparsed = Baseline::parse(&baseline.to_json())
            .map_err(TestCaseError::fail)?;
        // Interleave old and new findings pseudo-randomly — the order the
        // linter happens to report in must not matter.
        let mut merged: Vec<Finding> = Vec::new();
        let (mut i, mut j, mut bits) = (0usize, 0usize, interleave);
        while i < old.len() || j < new.len() {
            let take_old = j >= new.len() || (i < old.len() && bits & 1 == 0);
            if take_old {
                merged.push(old[i].clone());
                i += 1;
            } else {
                merged.push(new[j].clone());
                j += 1;
            }
            bits = bits.rotate_right(1);
        }
        let (grandfathered, fresh) = reparsed.partition(&merged);
        prop_assert_eq!(grandfathered.len(), old.len());
        prop_assert_eq!(fresh.len(), new.len());
        prop_assert!(
            fresh.iter().all(|f| f.excerpt.starts_with("freshly_reported_shape_")),
            "a grandfathered finding leaked into fresh: {fresh:?}"
        );
    }
}
