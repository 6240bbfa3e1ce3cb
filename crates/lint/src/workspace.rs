//! Workspace discovery and the workspace-scope lint pipeline.
//!
//! Two kinds of files are gathered:
//!
//! - **lintable** files — the root package's `src/` and every
//!   `crates/*/src/` tree. All per-file rules plus A1 (layering) bind
//!   here.
//! - **corpus-only** files — `tests/`, `benches/` and `examples/` trees
//!   of every package. They are never linted, but their text feeds A2's
//!   reference corpus so an item used only from integration tests is not
//!   reported dead.
//!
//! The walk is sorted so diagnostics, reports and the DOT artifact are
//! deterministic. The vendored dependency stand-ins under `shims/` are
//! deliberately excluded: they imitate external crates' APIs (panicking
//! included) and are not governed by the platform's invariants. In-file
//! `#[cfg(test)]` modules are already skipped by the lexer.
//!
//! Pipeline of [`lint_files`]: a per-file phase (lex, parse, token
//! rules, per-file suppression, fact extraction), then the
//! workspace-grained hot-path analysis (H1–H4) and the workspace
//! analyses (A1/A2 over the merged facts) with suppression resolved
//! against each finding's file, then W0 over every allow that no rule —
//! per-file or workspace — ever consumed.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

use crate::ast::Item;
use crate::depgraph::{self, DepGraph, FactsRef, FileFacts};
use crate::hotpath;
use crate::lexer::lex;
use crate::parser::parse_items;
use crate::rules::{self, lint_file_prepared, suppress, AllowSite, FileContext, Finding};

/// One file scheduled for linting.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Cargo package name owning the file.
    pub crate_name: String,
    /// Repo-relative path with `/` separators.
    pub rel_path: String,
    /// Absolute (or root-joined) path on disk.
    pub path: PathBuf,
}

/// An in-memory workspace file: the unit the workspace pipeline operates
/// on. Decoupling from the filesystem lets `repro_lint` drive the full
/// pipeline (A1/A2/W0 included) on synthetic workspaces.
#[derive(Debug, Clone)]
pub struct MemFile {
    /// Cargo package name owning the file.
    pub crate_name: String,
    /// Repo-relative path with `/` separators.
    pub rel_path: String,
    /// Full file contents.
    pub source: String,
    /// True for `src/` files (linted); false for corpus-only files
    /// (`tests/`, `benches/`, `examples/` — A2 reference corpus only).
    pub lintable: bool,
}

/// Discovers every lintable source file under `root` (the workspace
/// root), sorted by path.
pub fn discover(root: &Path) -> Result<Vec<SourceFile>, String> {
    let mut files = Vec::new();
    for (pkg, dir, rel) in package_dirs(root, &["src"])? {
        collect_tree(&pkg, dir, &rel, &mut files)?;
    }
    files.sort_by(|a, b| a.rel_path.cmp(&b.rel_path));
    Ok(files)
}

/// Gathers the full in-memory workspace: lintable `src/` trees plus the
/// corpus-only `tests/`/`benches/`/`examples/` trees, sorted by path.
pub fn gather(root: &Path) -> Result<Vec<MemFile>, String> {
    let mut out = Vec::new();
    for (lintable, subdirs) in [
        (true, &["src"][..]),
        (false, &["tests", "benches", "examples"]),
    ] {
        for (pkg, dir, rel) in package_dirs(root, subdirs)? {
            let mut files = Vec::new();
            collect_tree(&pkg, dir, &rel, &mut files)?;
            for f in files {
                let source = fs::read_to_string(&f.path)
                    .map_err(|e| format!("cannot read {}: {e}", f.path.display()))?;
                out.push(MemFile {
                    crate_name: f.crate_name,
                    rel_path: f.rel_path,
                    source,
                    lintable,
                });
            }
        }
    }
    out.sort_by(|a, b| a.rel_path.cmp(&b.rel_path));
    Ok(out)
}

/// The full workspace lint pipeline over in-memory files: per-file rules,
/// the hot-path analysis (H1–H4), workspace rules (A1/A2), then
/// stale-suppression detection (W0). Findings come back sorted by
/// `(file, line, col, rule)`.
pub fn lint_files(files: &[MemFile]) -> Vec<Finding> {
    let (findings, _) = lint_files_graph(files);
    findings
}

/// One file's per-file-phase output.
struct PerFile<'a> {
    file: &'a MemFile,
    /// Findings surviving per-file suppression, finished.
    findings: Vec<Finding>,
    /// Allow sites; later phases mark further usage before W0 runs.
    allows: Vec<AllowSite>,
    /// Dependency and vocabulary facts for the workspace rules.
    facts: FileFacts,
    /// Parsed AST (lintable files only).
    items: Vec<Item>,
}

/// [`lint_files`] plus the dependency graph (for the DOT artifact).
pub fn lint_files_graph(files: &[MemFile]) -> (Vec<Finding>, DepGraph) {
    // Per-file phase: each lintable file is lexed and parsed once; the
    // tokens feed the token rules and fact extraction, the AST feeds
    // fact extraction and the hot-path analysis. Corpus-only files
    // contribute word facts alone.
    let mut per_file: Vec<PerFile<'_>> = files
        .iter()
        .map(|f| {
            if !f.lintable {
                return PerFile {
                    file: f,
                    findings: Vec::new(),
                    allows: Vec::new(),
                    facts: depgraph::extract_facts(&f.crate_name, &f.source, None, None),
                    items: Vec::new(),
                };
            }
            let ctx = FileContext {
                crate_name: &f.crate_name,
                rel_path: &f.rel_path,
            };
            let lexed = lex(&f.source);
            let items = parse_items(&lexed);
            let fl = lint_file_prepared(&ctx, &f.source, &lexed);
            let facts =
                depgraph::extract_facts(&f.crate_name, &f.source, Some(&lexed), Some(&items));
            PerFile {
                file: f,
                findings: fl.findings,
                allows: fl.allows,
                facts,
                items,
            }
        })
        .collect();

    // Workspace-grained hot-path analysis (H1–H4): the call graph spans
    // crates, so it runs once over every lintable file.
    let hot_files: Vec<hotpath::HotFile<'_>> = per_file
        .iter()
        .filter(|pf| pf.file.lintable)
        .map(|pf| hotpath::HotFile {
            ctx: FileContext {
                crate_name: pf.file.crate_name.as_str(),
                rel_path: pf.file.rel_path.as_str(),
            },
            items: &pf.items,
            source: pf.file.source.as_str(),
        })
        .collect();
    let (hot_findings, hot_overlay) = hotpath::analyze_workspace(&hot_files);

    // Workspace-scope rules over the merged facts.
    let (ws_findings, mut graph) = {
        let facts_refs: Vec<FactsRef<'_>> = per_file
            .iter()
            .map(|pf| FactsRef {
                crate_name: pf.file.crate_name.as_str(),
                rel_path: pf.file.rel_path.as_str(),
                lintable: pf.file.lintable,
                facts: &pf.facts,
            })
            .collect();
        depgraph::analyze_facts(&facts_refs)
    };
    graph.hot = Some(hot_overlay);

    // Suppress workspace-scope findings against their file's allows
    // (marking usage), then fill excerpts.
    let index: BTreeMap<&str, usize> = per_file
        .iter()
        .enumerate()
        .map(|(i, pf)| (pf.file.rel_path.as_str(), i))
        .collect();
    let mut late = ws_findings;
    late.extend(hot_findings);
    late.retain(|f| {
        let covered = index
            .get(f.file.as_str())
            .map(|&i| suppress(f, &mut per_file[i].allows))
            .unwrap_or(false);
        !covered
    });
    let mut line_cache: BTreeMap<usize, Vec<&str>> = BTreeMap::new();
    for f in &mut late {
        if let Some(&i) = index.get(f.file.as_str()) {
            let lines = line_cache
                .entry(i)
                .or_insert_with(|| per_file[i].file.source.lines().collect());
            rules::finish(lines, f);
        }
    }

    // Every consumer has run: any allow still unused is stale (W0).
    let mut findings = late;
    for pf in &mut per_file {
        findings.append(&mut pf.findings);
        let ctx = FileContext {
            crate_name: &pf.file.crate_name,
            rel_path: &pf.file.rel_path,
        };
        let mut w0 = rules::unused_allow_findings(&ctx, &mut pf.allows, &[]);
        let lines: Vec<&str> = pf.file.source.lines().collect();
        for f in &mut w0 {
            rules::finish(&lines, f);
        }
        findings.append(&mut w0);
    }
    findings
        .sort_by(|a, b| (&a.file, a.line, a.col, a.rule).cmp(&(&b.file, b.line, b.col, b.rule)));
    (findings, graph)
}

/// Lints the workspace on disk: [`gather`] + [`lint_files`].
pub fn lint_workspace(root: &Path) -> Result<Vec<Finding>, String> {
    Ok(lint_files(&gather(root)?))
}

/// As [`lint_workspace`], also returning the dependency graph.
pub fn lint_workspace_graph(root: &Path) -> Result<(Vec<Finding>, DepGraph), String> {
    Ok(lint_files_graph(&gather(root)?))
}

/// Enumerates `(package_dir, subdir_path, rel_prefix)` for the root
/// package and every `crates/*` member, for each existing `subdir`.
fn package_dirs(root: &Path, subdirs: &[&str]) -> Result<Vec<(PathBuf, PathBuf, String)>, String> {
    let mut pkgs = vec![(root.to_path_buf(), String::new())];
    let crates_dir = root.join("crates");
    let mut members: Vec<PathBuf> = fs::read_dir(&crates_dir)
        .map_err(|e| format!("cannot read {}: {e}", crates_dir.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.is_dir() && p.join("Cargo.toml").is_file())
        .collect();
    members.sort();
    for member in members {
        let dir_name = member
            .file_name()
            .and_then(|n| n.to_str())
            .ok_or_else(|| format!("non-UTF-8 crate dir under {}", crates_dir.display()))?
            .to_string();
        pkgs.push((member, format!("crates/{dir_name}/")));
    }
    let mut out = Vec::new();
    for (pkg, prefix) in pkgs {
        for sub in subdirs {
            let dir = pkg.join(sub);
            if dir.is_dir() {
                out.push((pkg.clone(), dir, format!("{prefix}{sub}")));
            }
        }
    }
    Ok(out)
}

/// Adds every `.rs` file under `src_dir` (recursively) for the package
/// rooted at `pkg_dir`.
fn collect_tree(
    pkg_dir: &Path,
    src_dir: PathBuf,
    rel_prefix: &str,
    out: &mut Vec<SourceFile>,
) -> Result<(), String> {
    if !src_dir.is_dir() {
        return Ok(());
    }
    let crate_name = package_name(&pkg_dir.join("Cargo.toml"))?;
    let mut stack = vec![(src_dir, rel_prefix.to_string())];
    while let Some((dir, rel)) = stack.pop() {
        let entries =
            fs::read_dir(&dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
        for entry in entries {
            let entry = entry.map_err(|e| format!("walk error under {}: {e}", dir.display()))?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name
                .to_str()
                .ok_or_else(|| format!("non-UTF-8 file name under {}", dir.display()))?;
            if path.is_dir() {
                stack.push((path, format!("{rel}/{name}")));
            } else if name.ends_with(".rs") {
                out.push(SourceFile {
                    crate_name: crate_name.clone(),
                    rel_path: format!("{rel}/{name}"),
                    path,
                });
            }
        }
    }
    Ok(())
}

/// Extracts `package.name` from a Cargo manifest with a line scan (the
/// manifests in this workspace put `[package]` first and never nest a
/// `name =` key above it).
fn package_name(manifest: &Path) -> Result<String, String> {
    let text = fs::read_to_string(manifest)
        .map_err(|e| format!("cannot read {}: {e}", manifest.display()))?;
    for line in text.lines() {
        let line = line.trim();
        if let Some(rest) = line.strip_prefix("name") {
            let rest = rest.trim_start();
            if let Some(value) = rest.strip_prefix('=') {
                let value = value.trim().trim_matches('"');
                return Ok(value.to_string());
            }
        }
    }
    Err(format!("no package.name in {}", manifest.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem(crate_name: &str, rel_path: &str, source: &str, lintable: bool) -> MemFile {
        MemFile {
            crate_name: crate_name.to_string(),
            rel_path: rel_path.to_string(),
            source: source.to_string(),
            lintable,
        }
    }

    #[test]
    fn workspace_pipeline_resolves_a1_suppression_and_w0() {
        // File 1 has a suppressed upward edge (allow consumed: no W0).
        // File 2 has a stale allow (W0 fires at workspace scope too).
        let files = vec![
            mem(
                "bios-electrochem",
                "crates/electrochem/src/a.rs",
                "// advdiag::allow(A1, transitional until PR5 moves QcGate down)\n\
                 use bios_instrument::qc::QcGate;\n",
                true,
            ),
            mem(
                "bios-electrochem",
                "crates/electrochem/src/b.rs",
                "// advdiag::allow(A1, nothing here references instrument)\nfn f() {}\n",
                true,
            ),
        ];
        let findings = lint_files(&files);
        let rules: Vec<(&str, &str)> = findings.iter().map(|f| (f.rule, f.file.as_str())).collect();
        assert_eq!(
            rules,
            [("W0", "crates/electrochem/src/b.rs")],
            "{findings:?}"
        );
    }

    #[test]
    fn corpus_files_feed_a2_but_are_not_linted() {
        let files = vec![
            mem(
                "bios-afe",
                "crates/afe/src/lib.rs",
                "pub fn bench_only_hook() {}\n",
                true,
            ),
            // Reference from another package's bench tree: item is live.
            // The unwrap() here must NOT be linted (corpus-only file).
            mem(
                "bios-bench",
                "crates/bench/benches/perf.rs",
                "fn main() { bench_only_hook(); x.unwrap(); }\n",
                false,
            ),
        ];
        let findings = lint_files(&files);
        assert!(findings.is_empty(), "{findings:?}");
    }
}
