//! Self-test for the invariant lint engine (DESIGN.md §6).
//!
//! Seeds one violation per shipped rule into a synthetic source file,
//! asserts the rule fires, then asserts an inline
//! `// advdiag::allow(ID, reason)` suppresses it. Also exercises the
//! crate-applicability exemptions (the bench harness and
//! `bios-platform::exec`), the auto-fix engine (rewrites land, fixpoint
//! is idempotent), and the live workspace, which must lint against the
//! checked-in baseline with zero new error findings.

use std::path::Path;

use bios_lint::fixer::{fix_source, unified_diff};
use bios_lint::{
    lint_files, lint_source, lint_workspace, Baseline, FileContext, FixSafety, MemFile, RULE_IDS,
};

/// A seeded violation: where it lives, the offending code, and the rule it
/// must trigger.
struct Seed {
    rule: &'static str,
    crate_name: &'static str,
    rel_path: &'static str,
    code: &'static str,
    /// 0-based index of the line the finding must land on (the line the
    /// suppression comment is attached to).
    hot_line: usize,
}

const SEEDS: &[Seed] = &[
    Seed {
        rule: "D1",
        crate_name: "bios-platform",
        rel_path: "crates/core/src/seeded.rs",
        code: "use std::collections::BTreeMap;\npub fn f() -> std::collections::HashMap<u32, u32> {\n    unreachable_stub()\n}\n",
        hot_line: 1,
    },
    Seed {
        rule: "D2",
        crate_name: "bios-electrochem",
        rel_path: "crates/electrochem/src/seeded.rs",
        code: "pub fn f() -> u64 {\n    std::time::Instant::now().elapsed().as_nanos() as u64\n}\n",
        hot_line: 1,
    },
    Seed {
        rule: "P1",
        crate_name: "bios-electrochem",
        rel_path: "crates/electrochem/src/seeded.rs",
        code: "pub fn f(x: Option<u8>) -> u8 {\n    x.unwrap()\n}\n",
        hot_line: 1,
    },
    Seed {
        rule: "U1",
        crate_name: "bios-electrochem",
        rel_path: "crates/electrochem/src/seeded.rs",
        code: "pub fn set_length(length_cm: f64) -> f64 {\n    length_cm\n}\n",
        hot_line: 0,
    },
    Seed {
        rule: "S1",
        crate_name: "bios-units",
        rel_path: "crates/units/src/seeded.rs",
        code: "pub fn f(p: *const u8) -> u8 {\n    unsafe { p.read() }\n}\n",
        hot_line: 1,
    },
    Seed {
        rule: "F1",
        crate_name: "bios-electrochem",
        rel_path: "crates/electrochem/src/seeded.rs",
        code: "pub fn f(x: f64) -> bool {\n    x == 0.25\n}\n",
        hot_line: 1,
    },
    Seed {
        rule: "H1",
        crate_name: "bios-electrochem",
        rel_path: "crates/electrochem/src/seeded.rs",
        code: "pub fn step_with_rate_constants(n: usize) -> usize {\n    let scratch: Vec<f64> = Vec::new();\n    scratch.len() + n\n}\n",
        hot_line: 1,
    },
    Seed {
        rule: "H2",
        crate_name: "bios-electrochem",
        rel_path: "crates/electrochem/src/seeded.rs",
        code: "pub fn step_wave(xs: &[f64]) -> f64 {\n    xs.iter().sum()\n}\n",
        hot_line: 1,
    },
    Seed {
        rule: "H3",
        crate_name: "bios-server",
        rel_path: "crates/server/src/seeded.rs",
        code: "pub fn step_active(d: Duration) {\n    std::thread::sleep(d);\n}\n",
        hot_line: 1,
    },
    Seed {
        rule: "H4",
        crate_name: "bios-electrochem",
        rel_path: "crates/electrochem/src/seeded.rs",
        code: "pub fn step_wave(n: usize) -> f64 {\n    let grid = Grid::uniform(n);\n    grid.len() as f64\n}\n",
        hot_line: 1,
    },
    Seed {
        rule: "M1",
        crate_name: "bios-server",
        rel_path: "crates/server/src/seeded.rs",
        code: "pub fn f(t: ServiceTier) -> u8 {\n    match t {\n        ServiceTier::Stat => 0,\n        _ => 9,\n    }\n}\n",
        hot_line: 3,
    },
    Seed {
        rule: "D2",
        crate_name: "bios-platform",
        rel_path: "crates/core/src/seeded.rs",
        code: "use std::sync::Mutex;\nstatic CACHE: Mutex<Vec<u64>> = Mutex::new(Vec::new());\n",
        hot_line: 1,
    },
];

fn findings_for(seed: &Seed, code: &str) -> Vec<&'static str> {
    let ctx = FileContext {
        crate_name: seed.crate_name,
        rel_path: seed.rel_path,
    };
    lint_source(&ctx, code).iter().map(|f| f.rule).collect()
}

/// Inserts `// advdiag::allow(rule, reason)` on its own line directly above
/// the hot line.
fn suppressed(seed: &Seed) -> String {
    let mut lines: Vec<&str> = seed.code.lines().collect();
    let allow = format!("// advdiag::allow({}, seeded self-test)", seed.rule);
    lines.insert(seed.hot_line, &allow);
    let mut out = lines.join("\n");
    out.push('\n');
    out
}

fn main() {
    bios_bench::banner("repro_lint — invariant lint engine self-test");
    let mut failures = 0u32;
    let mut check = |name: &str, ok: bool| {
        println!("  {} {}", if ok { "PASS" } else { "FAIL" }, name);
        if !ok {
            failures += 1;
        }
    };

    // 1. Every rule fires on its seeded violation, and only on its own
    //    hot line.
    for seed in SEEDS {
        let fired = findings_for(seed, seed.code);
        check(
            &format!("{} fires on seeded violation", seed.rule),
            fired.contains(&seed.rule),
        );
    }

    // 2. An inline allow with a reason silences exactly that finding.
    for seed in SEEDS {
        let fired = findings_for(seed, &suppressed(seed));
        check(
            &format!("{} honours advdiag::allow", seed.rule),
            !fired.contains(&seed.rule),
        );
    }

    // 3. An allow *without* a reason does not suppress (the reason is
    //    mandatory).
    {
        let seed = &SEEDS[2]; // P1
        let bare = seed.code.replace(
            "    x.unwrap()",
            "    // advdiag::allow(P1)\n    x.unwrap()",
        );
        check(
            "allow without a reason is rejected",
            findings_for(seed, &bare).contains(&"P1"),
        );
    }

    // 4. Applicability exemptions: the bench harness may unwrap; the
    //    parallel engine may spawn threads; test regions are skipped.
    check(
        "bench harness is exempt from P1",
        !lint_source(
            &FileContext {
                crate_name: "bios-bench",
                rel_path: "crates/bench/src/seeded.rs",
            },
            SEEDS[2].code,
        )
        .iter()
        .any(|f| f.rule == "P1"),
    );
    check(
        "core exec module is exempt from D2",
        !lint_source(
            &FileContext {
                crate_name: "bios-platform",
                rel_path: "crates/core/src/exec.rs",
            },
            "static ENV: OnceLock<Option<usize>> = OnceLock::new();\n\
             pub fn f() { std::thread::spawn(|| ()); }\n",
        )
        .iter()
        .any(|f| f.rule == "D2"),
    );
    check(
        "cfg(test) regions are skipped by P1",
        lint_source(
            &FileContext {
                crate_name: "bios-electrochem",
                rel_path: "crates/electrochem/src/seeded.rs",
            },
            "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { Some(1u8).unwrap(); }\n}\n",
        )
        .is_empty(),
    );

    // 4b. W0: a well-formed suppression that silences nothing is itself
    //     a finding, and is in turn suppressible one level deep.
    {
        let ctx = FileContext {
            crate_name: "bios-electrochem",
            rel_path: "crates/electrochem/src/seeded.rs",
        };
        let stale =
            "// advdiag::allow(P1, nothing left to suppress here)\npub fn f() -> u8 {\n    7\n}\n";
        check(
            "W0 fires on a stale suppression",
            lint_source(&ctx, stale).iter().any(|f| f.rule == "W0"),
        );
        let allowed = format!("// advdiag::allow(W0, kept while the migration lands)\n{stale}");
        check(
            "W0 honours advdiag::allow",
            !lint_source(&ctx, &allowed).iter().any(|f| f.rule == "W0"),
        );
    }

    // 4c. Workspace rules on an in-memory module set: an upward crate
    //     reference is an A1 error; a pub item no other crate mentions
    //     is an A2 error.
    {
        let files = vec![
            MemFile {
                crate_name: "bios-units".to_string(),
                rel_path: "crates/units/src/seeded.rs".to_string(),
                source: "pub fn peek() -> u32 {\n    bios_instrument::session::SLOTS\n}\n"
                    .to_string(),
                lintable: true,
            },
            MemFile {
                crate_name: "bios-afe".to_string(),
                rel_path: "crates/afe/src/seeded.rs".to_string(),
                source: "pub fn orphan_gain() -> f64 {\n    40.0\n}\n".to_string(),
                lintable: true,
            },
        ];
        let findings = lint_files(&files);
        check(
            "A1 flags an upward crate dependency as an error",
            findings.iter().any(|f| f.rule == "A1"),
        );
        check(
            "A2 errors on dead public API",
            findings
                .iter()
                .any(|f| f.rule == "A2" && f.message.contains("orphan_gain")),
        );
        let mut suppressed = files;
        suppressed[0].source = suppressed[0].source.replace(
            "    bios_instrument",
            "    // advdiag::allow(A1, staged migration tracked in DESIGN.md)\n    bios_instrument",
        );
        check(
            "A1 honours advdiag::allow",
            !lint_files(&suppressed).iter().any(|f| f.rule == "A1"),
        );
    }

    // 5. The baseline machinery grandfathers exactly what it is told to.
    {
        let seed = &SEEDS[0];
        let ctx = FileContext {
            crate_name: seed.crate_name,
            rel_path: seed.rel_path,
        };
        let found = lint_source(&ctx, seed.code);
        let baseline = Baseline::from_findings(&found);
        let reparsed = Baseline::parse(&baseline.to_json()).expect("round-trip");
        let (grandfathered, fresh) = reparsed.partition(&found);
        check(
            "baseline grandfathers recorded findings",
            fresh.is_empty() && grandfathered.len() == found.len(),
        );
        let (_, fresh) = Baseline::default().partition(&found);
        check(
            "empty baseline leaves findings new",
            fresh.len() == found.len(),
        );
    }

    // 6. The live workspace is clean against the checked-in baseline.
    {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .nth(2)
            .expect("workspace root");
        let findings = lint_workspace(root).expect("workspace lints");
        let baseline_path = root.join("lint-baseline.json");
        let baseline = match std::fs::read_to_string(&baseline_path) {
            Ok(text) => Baseline::parse(&text).expect("baseline parses"),
            Err(_) => Baseline::default(),
        };
        let (_, fresh) = baseline.partition(&findings);
        // Every fresh finding gates, mirroring the CLI exit code.
        for f in &fresh {
            println!("    new finding: {}:{} [{}]", f.file, f.line, f.rule);
        }
        println!("    workspace: {} fresh finding(s)", fresh.len());
        check("workspace has zero unbaselined errors", fresh.is_empty());
    }

    // 7. The auto-fix engine: machine-applicable rewrites land, the
    //    fixpoint is idempotent, and nothing fixable is left behind.
    {
        let ctx = FileContext {
            crate_name: "bios-electrochem",
            rel_path: "crates/electrochem/src/seeded.rs",
        };
        let src = "use std::collections::HashMap;\n\
             fn classify(x: f64) -> bool {\n    x == 0.5\n}\n\
             fn tally() -> usize {\n    let m: HashMap<u32, f64> = HashMap::new();\n    m.len()\n}\n\
             // advdiag::allow(F1, long since fixed)\nfn settled() {}\n";
        let (fixed, applied) = fix_source(&ctx, src);
        check("fixer applies machine-applicable rewrites", applied >= 3);
        check(
            "F1 comparison rewritten to total_cmp",
            fixed.contains("x.total_cmp(&0.5).is_eq()"),
        );
        check(
            "D1 HashMap with Ord key converted to BTreeMap",
            !fixed.contains("HashMap") && fixed.contains("BTreeMap"),
        );
        check(
            "stale allow deleted by W0 fix",
            !fixed.contains("advdiag::allow"),
        );
        let (again, more) = fix_source(&ctx, &fixed);
        check("fix fixpoint is idempotent", more == 0 && again == fixed);
        let leftovers = lint_source(&ctx, &fixed)
            .into_iter()
            .filter(|f| {
                f.fix
                    .as_ref()
                    .is_some_and(|fx| fx.safety == FixSafety::MachineApplicable)
            })
            .count();
        check(
            "no machine-applicable debt survives the fixpoint",
            leftovers == 0,
        );
        check(
            "unified diff renders the rewrite",
            unified_diff(ctx.rel_path, src, &fixed).contains("-    x == 0.5"),
        );
    }

    println!(
        "\n{} rule(s) exercised: {}",
        RULE_IDS.len(),
        RULE_IDS.join(", ")
    );
    if failures > 0 {
        println!("{failures} check(s) FAILED");
        std::process::exit(1);
    }
    println!("all checks passed");
}
