//! CLI driver: lint the workspace, report, and exit nonzero on any
//! finding.
//!
//! ```text
//! cargo run -p bios-lint                         # human diagnostics
//! cargo run -p bios-lint -- --format json        # machine-readable report
//! cargo run -p bios-lint -- --format github      # GitHub Actions annotations
//! cargo run -p bios-lint -- --format json --out lint-report.json
//! ```
//!
//! Exit codes: 0 = clean (no findings), 1 = findings, 2 = usage or I/O
//! error (an unknown flag included).

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
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        root: PathBuf::from("."),
        format: Format::Text,
        out: None,
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
            "--help" | "-h" => {
                return Err(
                    "usage: bios-lint [--root DIR] [--format text|json|github] [--out FILE]"
                        .to_string(),
                )
            }
            other => return Err(format!("unknown argument `{other}` (try --help)")),
        }
    }
    Ok(opts)
}

fn run(opts: &Options) -> Result<bool, String> {
    let files = bios_lint::gather(&opts.root)?;
    let findings = bios_lint::lint_files(&files);
    let report = Report {
        files: files.iter().filter(|f| f.lintable).count(),
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
    Ok(findings.is_empty())
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
