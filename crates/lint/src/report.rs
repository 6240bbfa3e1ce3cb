//! Human, machine-readable and CI-annotation rendering of a lint run.

use crate::rules::Finding;

/// Outcome of one lint run. Every finding is an error: any one fails the
/// run.
#[derive(Debug)]
pub struct Report<'a> {
    /// Files scanned.
    pub files: usize,
    /// Every finding, in report order.
    pub findings: &'a [Finding],
}

impl Report<'_> {
    /// `file:line:col: error[RULE] message` diagnostics and a summary line.
    pub fn human(&self) -> String {
        let mut out = String::new();
        for f in self.findings {
            out.push_str(&format!(
                "{}:{}:{}: error[{}] {}\n    {}\n",
                f.file, f.line, f.col, f.rule, f.message, f.excerpt
            ));
        }
        out.push_str(&format!(
            "bios-lint: {} file(s), {} finding(s)\n",
            self.files,
            self.findings.len()
        ));
        out
    }

    /// The machine-readable report (one finding per line for greppable
    /// artifacts).
    pub fn json(&self) -> String {
        let mut out = String::from("{\n  \"version\": 4,\n  \"tool\": \"bios-lint\",\n");
        out.push_str(&format!(
            "  \"summary\": {{\"files\": {}, \"errors\": {}}},\n",
            self.files,
            self.findings.len()
        ));
        out.push_str("  \"findings\": [\n");
        for (i, f) in self.findings.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"rule\": {}, \"severity\": {}, \"file\": {}, \"line\": {}, \"col\": {}, \"end_col\": {}, \"message\": {}, \"excerpt\": {}}}{}\n",
                escape(f.rule),
                escape("error"),
                escape(&f.file),
                f.line,
                f.col,
                f.end_col,
                escape(&f.message),
                escape(&f.excerpt),
                if i + 1 < self.findings.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// GitHub Actions workflow annotations (`::error file=…,line=…`):
    /// one command per finding, so violations surface inline on the PR
    /// diff. Columns are 1-based and `endColumn` spans the flagged
    /// region, so the underline covers the whole excerpt rather than a
    /// single character.
    pub fn github(&self) -> String {
        let mut out = String::new();
        for f in self.findings {
            let end_col = if f.end_col > f.col {
                f.end_col
            } else {
                f.col + 1
            };
            out.push_str(&format!(
                "::error file={},line={},endLine={},col={},endColumn={},title=bios-lint {}::{}\n",
                f.file,
                f.line,
                f.line,
                f.col,
                end_col,
                f.rule,
                github_escape(&f.message)
            ));
        }
        out
    }
}

/// JSON-escapes a string, quotes included.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Escapes a workflow-command message per the Actions spec (`%`, CR, LF).
fn github_escape(s: &str) -> String {
    s.replace('%', "%25")
        .replace('\r', "%0D")
        .replace('\n', "%0A")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding() -> Finding {
        Finding {
            rule: "F1",
            file: "crates/x/src/a.rs".to_string(),
            line: 12,
            col: 7,
            end_col: 18,
            message: "`==` against a float literal".to_string(),
            excerpt: "x == 0.5 // \"exact\"\ttab".to_string(),
        }
    }

    fn a2() -> Finding {
        Finding {
            rule: "A2",
            ..finding()
        }
    }

    #[test]
    fn json_report_escapes_and_lists_every_finding() {
        let findings = [finding(), a2()];
        let report = Report {
            files: 3,
            findings: &findings,
        };
        let json = report.json();
        assert!(
            json.contains("\"summary\": {\"files\": 3, \"errors\": 2}"),
            "{json}"
        );
        let rows: Vec<&str> = json.lines().filter(|l| l.contains("\"rule\":")).collect();
        assert_eq!(rows.len(), 2, "{json}");
        assert!(rows[0].ends_with("},") && rows[1].ends_with('}'), "{json}");
        assert!(
            rows[0].contains(r#""excerpt": "x == 0.5 // \"exact\"\ttab""#),
            "{json}"
        );
        assert_eq!(escape("a\u{1}b\\"), r#""a\u0001b\\""#);
    }

    #[test]
    fn human_report_lists_findings_and_counts() {
        let findings = [finding()];
        let report = Report {
            files: 1,
            findings: &findings,
        };
        let text = report.human();
        assert!(text.contains("crates/x/src/a.rs:12:7: error[F1]"), "{text}");
        assert!(text.contains("1 file(s), 1 finding(s)"), "{text}");
    }

    #[test]
    fn every_rule_reports_at_error_level() {
        let findings = [a2()];
        let report = Report {
            files: 1,
            findings: &findings,
        };
        assert!(report.human().contains("error[A2]"));
        assert!(report.json().contains("\"severity\": \"error\""));
    }

    #[test]
    fn github_format_emits_workflow_commands() {
        let findings = [finding(), a2()];
        let report = Report {
            files: 1,
            findings: &findings,
        };
        let gh = report.github();
        assert!(
            gh.contains(
                "::error file=crates/x/src/a.rs,line=12,endLine=12,col=7,endColumn=18,\
                 title=bios-lint F1::"
            ),
            "{gh}"
        );
        assert!(gh.contains("title=bios-lint A2::"), "{gh}");
        assert!(!gh.contains("::warning"), "{gh}");
        assert_eq!(gh.lines().count(), 2);
    }
}
