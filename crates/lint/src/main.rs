//! CLI driver: lint the workspace, report, and exit nonzero on any
//! finding.
//!
//! ```text
//! cargo run -p bios-lint                         # human diagnostics
//! cargo run -p bios-lint -- --format json        # machine-readable report
//! cargo run -p bios-lint -- --format github      # GitHub Actions annotations
//! cargo run -p bios-lint -- --format json --out lint-report.json
//! cargo run -p bios-lint -- --emit-dot target/deps.dot
//! cargo run -p bios-lint -- --fix                # apply machine-applicable fixes
//! cargo run -p bios-lint -- --fix-check --diff target/fixes.patch
//! ```
//!
//! `--fix` applies every machine-applicable fix to disk (iterating to a
//! fixpoint) and then lints the repaired tree; `--fix-check` computes
//! the same fixes without touching disk and fails the run if any would
//! apply — CI uses it to keep auto-fixable debt at zero. `--diff`
//! writes the would-be (or applied) rewrites as a unified diff.
//!
//! Exit codes: 0 = clean (no findings), 1 = findings
//! (or, under `--fix-check`, pending fixes), 2 = usage or I/O error.

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::todo,
        clippy::unimplemented
    )
)]

use std::path::PathBuf;
use std::process::ExitCode;

use bios_lint::fixer;
use bios_lint::Report;

enum Format {
    Text,
    Json,
    Github,
}

struct Options {
    root: PathBuf,
    format: Format,
    out: Option<PathBuf>,
    emit_dot: Option<PathBuf>,
    fix: bool,
    fix_check: bool,
    diff: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        root: PathBuf::from("."),
        format: Format::Text,
        out: None,
        emit_dot: None,
        fix: false,
        fix_check: false,
        diff: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut path_value = |name: &str| -> Result<PathBuf, String> {
            it.next()
                .map(PathBuf::from)
                .ok_or_else(|| format!("{name} requires a path argument"))
        };
        match arg.as_str() {
            "--format" => {
                let v = it
                    .next()
                    .ok_or("--format requires `text`, `json` or `github`")?;
                opts.format = match v.as_str() {
                    "json" => Format::Json,
                    "text" => Format::Text,
                    "github" => Format::Github,
                    other => return Err(format!("unknown format `{other}`")),
                };
            }
            "--root" => opts.root = path_value("--root")?,
            "--out" => opts.out = Some(path_value("--out")?),
            "--emit-dot" => opts.emit_dot = Some(path_value("--emit-dot")?),
            "--fix" => opts.fix = true,
            "--fix-check" => opts.fix_check = true,
            "--diff" => opts.diff = Some(path_value("--diff")?),
            "--help" | "-h" => {
                return Err("usage: bios-lint [--root DIR] [--format text|json|github] \
                     [--out FILE] [--emit-dot FILE] [--fix | --fix-check] [--diff FILE]"
                    .to_string())
            }
            other => return Err(format!("unknown argument `{other}` (try --help)")),
        }
    }
    if opts.fix && opts.fix_check {
        return Err("--fix and --fix-check are mutually exclusive".to_string());
    }
    Ok(opts)
}

fn run(opts: &Options) -> Result<bool, String> {
    let mut files = bios_lint::gather(&opts.root)?;
    let lintable = files.iter().filter(|f| f.lintable).count();

    // Auto-fix: compute the machine-applicable fixpoint in memory, then
    // either write it back (`--fix`) or gate on it (`--fix-check`).
    let mut pending_fixes = 0usize;
    if opts.fix || opts.fix_check {
        let mut working = files.clone();
        let outcome = fixer::fix_files(&mut working)?;
        let mut diffs = String::new();
        for rel in &outcome.changed {
            let old = files.iter().find(|f| &f.rel_path == rel);
            let new = working.iter().find(|f| &f.rel_path == rel);
            if let (Some(old), Some(new)) = (old, new) {
                diffs.push_str(&fixer::unified_diff(rel, &old.source, &new.source));
            }
        }
        if let Some(path) = &opts.diff {
            std::fs::write(path, &diffs)
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        }
        if opts.fix {
            for rel in &outcome.changed {
                if let Some(new) = working.iter().find(|f| &f.rel_path == rel) {
                    let path = opts.root.join(rel);
                    std::fs::write(&path, &new.source)
                        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
                }
            }
            eprintln!(
                "bios-lint: applied {} fix(es) to {} file(s) in {} round(s)",
                outcome.applied,
                outcome.changed.len(),
                outcome.rounds
            );
            files = working; // lint the repaired tree below
        } else {
            pending_fixes = outcome.applied;
            if pending_fixes > 0 {
                eprintln!(
                    "bios-lint: {} machine-applicable fix(es) pending in {} file(s) — \
                     run with --fix to apply",
                    pending_fixes,
                    outcome.changed.len()
                );
            }
        }
    }

    let (findings, graph) = bios_lint::lint_files_graph(&files);

    if let Some(path) = &opts.emit_dot {
        std::fs::write(path, graph.to_dot())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        eprintln!(
            "bios-lint: wrote dependency graph ({} edge(s)) to {}",
            graph.edges.len(),
            path.display()
        );
    }
    let report = Report {
        files: lintable,
        findings: &findings,
    };
    let rendered = match opts.format {
        Format::Json => report.json(),
        Format::Text => report.human(),
        Format::Github => report.github(),
    };
    match &opts.out {
        Some(path) => {
            std::fs::write(path, &rendered)
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            eprintln!(
                "bios-lint: {} file(s), {} finding(s), report at {}",
                report.files,
                report.findings.len(),
                path.display()
            );
        }
        None => print!("{rendered}"),
    }
    Ok(findings.is_empty() && pending_fixes == 0)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(opts) => opts,
        Err(msg) => {
            eprintln!("bios-lint: {msg}");
            return ExitCode::from(2);
        }
    };
    match run(&opts) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("bios-lint: {msg}");
            ExitCode::from(2)
        }
    }
}
