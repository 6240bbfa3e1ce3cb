//! Human, machine-readable and CI-annotation rendering of a lint run.

use crate::baseline::escape;
use crate::rules::Finding;

/// Outcome of one lint run, after baseline partitioning.
#[derive(Debug)]
pub struct Report<'a> {
    /// Files scanned.
    pub files: usize,
    /// Findings covered by the baseline.
    pub baselined: Vec<&'a Finding>,
    /// Unbaselined (new) findings: any one fails the run.
    pub fresh: Vec<&'a Finding>,
}

impl Report<'_> {
    /// `file:line:col: error[RULE] message` diagnostics, new findings
    /// first.
    pub fn human(&self) -> String {
        let mut out = String::new();
        for f in &self.fresh {
            out.push_str(&format!(
                "{}:{}:{}: error[{}] {}\n    {}\n",
                f.file, f.line, f.col, f.rule, f.message, f.excerpt
            ));
        }
        for f in &self.baselined {
            out.push_str(&format!(
                "{}:{}:{}: error[{}] (baselined) {}\n",
                f.file, f.line, f.col, f.rule, f.message
            ));
        }
        out.push_str(&format!(
            "bios-lint: {} file(s), {} finding(s): {} new, {} baselined\n",
            self.files,
            self.fresh.len() + self.baselined.len(),
            self.fresh.len(),
            self.baselined.len()
        ));
        out
    }

    /// The machine-readable report (one finding per line for greppable
    /// artifacts).
    pub fn json(&self) -> String {
        let mut out = String::from("{\n  \"version\": 2,\n  \"tool\": \"bios-lint\",\n");
        out.push_str(&format!(
            "  \"summary\": {{\"files\": {}, \"total\": {}, \"new\": {}, \"new_errors\": {}, \"baselined\": {}}},\n",
            self.files,
            self.fresh.len() + self.baselined.len(),
            self.fresh.len(),
            self.fresh.len(),
            self.baselined.len()
        ));
        out.push_str("  \"findings\": [\n");
        let all: Vec<(&Finding, bool)> = self
            .fresh
            .iter()
            .map(|f| (*f, false))
            .chain(self.baselined.iter().map(|f| (*f, true)))
            .collect();
        for (i, (f, baselined)) in all.iter().enumerate() {
            let fixable = match &f.fix {
                Some(fix) => escape(fix.safety.label()),
                None => "null".to_string(),
            };
            out.push_str(&format!(
                "    {{\"rule\": {}, \"severity\": {}, \"file\": {}, \"line\": {}, \"col\": {}, \"end_col\": {}, \"fixable\": {}, \"baselined\": {}, \"message\": {}, \"excerpt\": {}}}{}\n",
                escape(f.rule),
                escape("error"),
                escape(&f.file),
                f.line,
                f.col,
                f.end_col,
                fixable,
                baselined,
                escape(&f.message),
                escape(&f.excerpt),
                if i + 1 < all.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// GitHub Actions workflow annotations (`::error file=…,line=…`):
    /// one command per fresh finding, so violations surface inline on the
    /// PR diff. Columns are 1-based and `endColumn` spans the flagged
    /// region, so the underline covers the whole excerpt rather than a
    /// single character. Baselined findings are not annotated.
    pub fn github(&self) -> String {
        let mut out = String::new();
        for f in &self.fresh {
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

/// Escapes a workflow-command message per the Actions spec (`%`, CR, LF).
fn github_escape(s: &str) -> String {
    s.replace('%', "%25")
        .replace('\r', "%0D")
        .replace('\n', "%0A")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::Json;

    fn finding() -> Finding {
        Finding {
            rule: "P1",
            file: "crates/x/src/a.rs".to_string(),
            line: 12,
            col: 7,
            end_col: 18,
            message: "`.unwrap()` in library code".to_string(),
            excerpt: "x.unwrap();".to_string(),
            fix: None,
        }
    }

    fn a2() -> Finding {
        Finding {
            rule: "A2",
            ..finding()
        }
    }

    #[test]
    fn json_report_is_parseable() {
        let f = finding();
        let report = Report {
            files: 3,
            baselined: vec![&f],
            fresh: vec![&f],
        };
        let parsed = Json::parse(&report.json()).expect("valid JSON");
        let obj = parsed.as_object().expect("object");
        let findings = obj
            .iter()
            .find(|(k, _)| k == "findings")
            .and_then(|(_, v)| v.as_array())
            .expect("findings array");
        assert_eq!(findings.len(), 2);
    }

    #[test]
    fn human_report_flags_new_vs_baselined() {
        let f = finding();
        let report = Report {
            files: 1,
            baselined: vec![&f],
            fresh: vec![&f],
        };
        let text = report.human();
        assert!(text.contains("crates/x/src/a.rs:12:7: error[P1]"), "{text}");
        assert!(text.contains("(baselined)"));
        assert!(text.contains("1 new, 1 baselined"));
    }

    #[test]
    fn every_rule_reports_at_error_level() {
        let f = a2();
        let report = Report {
            files: 1,
            baselined: vec![],
            fresh: vec![&f],
        };
        assert!(report.human().contains("error[A2]"));
        assert!(report.json().contains("\"new_errors\": 1"));
    }

    #[test]
    fn github_format_emits_workflow_commands() {
        let f = finding();
        let g = a2();
        let report = Report {
            files: 1,
            baselined: vec![&f],
            fresh: vec![&f, &g],
        };
        let gh = report.github();
        assert!(
            gh.contains(
                "::error file=crates/x/src/a.rs,line=12,endLine=12,col=7,endColumn=18,\
                 title=bios-lint P1::"
            ),
            "{gh}"
        );
        assert!(gh.contains("title=bios-lint A2::"), "{gh}");
        assert!(!gh.contains("::warning"), "{gh}");
        // Baselined findings are not annotated: exactly two commands.
        assert_eq!(gh.lines().count(), 2);
    }
}
