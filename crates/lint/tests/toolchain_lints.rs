//! Pins the compiler-side half of the invariant checks. Hash containers,
//! wall-clock reads, ad-hoc threads, panicking calls and `unsafe` are
//! enforced by rustc and clippy (CI runs `cargo clippy --workspace
//! --all-targets -- -D warnings`), configured in three places this test
//! reads as text: the workspace lint table and each package's opt-in,
//! `clippy.toml`, and the P1 attribute at each library crate root.
//! Deleting any one of those lines would silently shrink what the
//! checks cover; here it fails a test instead.
//!
//! The vendored dependency stand-ins under `shims/` are not first-party
//! code and are not governed by these lints.

use std::fs;
use std::path::{Path, PathBuf};

/// The package that opts out: the timing harness reads the wall clock.
const BENCH_DIR: &str = "bench";

/// Clippy's panicking-call lints that each library crate root denies
/// outside `cfg(test)`.
const P1_LINTS: &[&str] = &[
    "clippy::unwrap_used",
    "clippy::expect_used",
    "clippy::panic",
    "clippy::todo",
    "clippy::unimplemented",
];

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn read(rel: &str) -> String {
    let path = root().join(rel);
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
}

/// The first-party crate directories under `crates/`, sorted.
fn crate_dirs() -> Vec<String> {
    let mut dirs: Vec<String> = fs::read_dir(root().join("crates"))
        .expect("crates/ is readable")
        .map(|e| {
            e.expect("dir entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .filter(|d| root().join("crates").join(d).join("Cargo.toml").is_file())
        .collect();
    dirs.sort();
    dirs
}

/// The `key = value` lines of TOML table `[header]`, comments and blank
/// lines dropped, whitespace removed (`workspace=true`).
fn table(toml: &str, header: &str) -> Option<Vec<String>> {
    let mut lines = toml.lines().map(str::trim);
    lines.find(|l| *l == format!("[{header}]"))?;
    Some(
        lines
            .take_while(|l| !l.starts_with('['))
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .map(|l| l.split_whitespace().collect())
            .collect(),
    )
}

/// The `path = "…"` entries of the `clippy.toml` array `key`.
fn clippy_paths(toml: &str, key: &str) -> Vec<String> {
    let start = toml
        .find(&format!("{key} = ["))
        .unwrap_or_else(|| panic!("clippy.toml has no `{key}` array"));
    let body = &toml[start..];
    let body = &body[..body.find("\n]").expect("array is closed")];
    body.split("path = \"")
        .skip(1)
        .map(|rest| rest[..rest.find('"').expect("quoted path")].to_string())
        .collect()
}

#[test]
fn workspace_forbids_unsafe_code_and_every_package_inherits_it() {
    let ws = read("Cargo.toml");
    let rust = table(&ws, "workspace.lints.rust").expect("[workspace.lints.rust] table");
    assert!(
        rust.contains(&"unsafe_code=\"forbid\"".to_string()),
        "{rust:?}"
    );
    let mut manifests = vec!["Cargo.toml".to_string()];
    manifests.extend(
        crate_dirs()
            .into_iter()
            .filter(|d| d != BENCH_DIR)
            .map(|d| format!("crates/{d}/Cargo.toml")),
    );
    assert!(manifests.len() >= 11, "{manifests:?}");
    for m in &manifests {
        let lints = table(&read(m), "lints").unwrap_or_else(|| panic!("{m}: no [lints] table"));
        assert_eq!(lints, ["workspace=true"], "{m}");
    }
}

#[test]
fn bench_harness_spells_out_the_forbid_and_allows_only_the_clock_bans() {
    let bench = read(&format!("crates/{BENCH_DIR}/Cargo.toml"));
    assert_eq!(
        table(&bench, "lints.rust").expect("[lints.rust] table"),
        ["unsafe_code=\"forbid\""]
    );
    assert_eq!(
        table(&bench, "lints.clippy").expect("[lints.clippy] table"),
        ["disallowed_types=\"allow\"", "disallowed_methods=\"allow\""]
    );
}

#[test]
fn clippy_toml_bans_hash_containers_clocks_and_ad_hoc_threads() {
    let cfg = read("clippy.toml");
    assert_eq!(
        clippy_paths(&cfg, "disallowed-types"),
        [
            "std::collections::HashMap",
            "std::collections::HashSet",
            "std::time::Instant",
            "std::time::SystemTime",
        ]
    );
    assert_eq!(
        clippy_paths(&cfg, "disallowed-methods"),
        [
            "std::thread::spawn",
            "std::thread::available_parallelism",
            "std::time::Instant::now",
            "std::time::SystemTime::now",
        ]
    );
    // Every entry tells the reader what to use instead.
    let entries = cfg.lines().filter(|l| l.contains("path = ")).count();
    let reasons = cfg.lines().filter(|l| l.contains("reason = ")).count();
    assert_eq!((entries, reasons), (8, 8));
}

#[test]
fn every_library_crate_root_denies_panicking_calls_outside_tests() {
    let mut roots = vec![
        "src/lib.rs".to_string(),
        "crates/lint/src/main.rs".to_string(),
    ];
    roots.extend(
        crate_dirs()
            .into_iter()
            .filter(|d| d != BENCH_DIR)
            .map(|d| format!("crates/{d}/src/lib.rs")),
    );
    for r in &roots {
        let src = read(r);
        let attr = src
            .find("#![cfg_attr(")
            .map(|start| &src[start..start + src[start..].find(")]").expect("attr closes") + 2])
            .unwrap_or_else(|| panic!("{r}: no crate-level cfg_attr"));
        let attr: String = attr.split_whitespace().collect();
        assert!(
            attr.starts_with("#![cfg_attr(not(test),deny("),
            "{r}: {attr}"
        );
        for lint in P1_LINTS {
            assert!(attr.contains(lint), "{r}: {attr} lacks {lint}");
        }
    }
}
