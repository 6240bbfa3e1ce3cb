//! The auto-fix engine: machine-applicable rewrites attached to
//! findings, byte-exact splicing, and a fixpoint driver that re-lints
//! after every application round.
//!
//! The safety taxonomy follows rustc's suggestion applicability:
//! [`FixSafety::MachineApplicable`] fixes preserve the program's meaning
//! (or make an intended meaning explicit) and are applied by `--fix`;
//! [`FixSafety::Suggested`] fixes are API-shape changes (U1's newtype
//! rewrite, D1 with a non-`Ord`-provable key) that are reported but never
//! applied automatically.
//!
//! Idempotence is structural: each round lints, applies every
//! non-overlapping machine-applicable fix, and re-lints; the driver only
//! returns success once a round produces no fixes at all, so running the
//! fixer on its own output is always a no-op. A fix that failed to
//! remove its finding would trip the round limit and surface as an
//! error instead of looping.

use std::collections::{BTreeMap, BTreeSet};

use crate::baseline::Baseline;
use crate::rules::{FileContext, Finding};
use crate::workspace::{lint_files_graph, MemFile};

/// How trustworthy a fix is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FixSafety {
    /// Applying the fix preserves the program's meaning; `--fix` applies
    /// these without asking.
    MachineApplicable,
    /// A starting point that needs human follow-up (signature changes,
    /// types the linter cannot prove `Ord`); reported, never applied.
    Suggested,
}

impl FixSafety {
    /// Label used in reports (`"machine-applicable"` / `"suggested"`).
    pub fn label(self) -> &'static str {
        match self {
            FixSafety::MachineApplicable => "machine-applicable",
            FixSafety::Suggested => "suggested",
        }
    }
}

/// A textual rewrite: replace the source bytes `start..end` with
/// `replacement`. Offsets index the exact file contents the finding was
/// produced from, so splicing is byte-exact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fix {
    /// Byte offset of the first replaced byte.
    pub start: usize,
    /// Byte offset one past the last replaced byte.
    pub end: usize,
    /// Replacement text (empty for deletions).
    pub replacement: String,
    pub safety: FixSafety,
}

/// Outcome of a workspace fixpoint run.
#[derive(Debug, Default, Clone)]
pub struct FixOutcome {
    /// Total fixes applied across all rounds.
    pub applied: usize,
    /// Lint → apply rounds executed (0 when already clean).
    pub rounds: u32,
    /// Rel-paths of files whose contents changed, sorted.
    pub changed: Vec<String>,
}

/// Rounds before the driver declares the fixpoint divergent. Every
/// shipped fix removes its own finding, so 2 rounds normally suffice
/// (W0 fixes only appear once their neighbours' findings are gone).
const MAX_ROUNDS: u32 = 8;

/// True for fixes `--fix` may apply.
pub fn is_applicable(f: &Finding) -> bool {
    f.fix
        .as_ref()
        .map(|fx| fx.safety == FixSafety::MachineApplicable)
        .unwrap_or(false)
}

/// Applies non-overlapping fixes to one source text; returns the new
/// text and how many fixes were applied. Fixes are ordered by position;
/// a fix overlapping an earlier-accepted one, or carrying offsets that
/// do not index `source` on char boundaries, is skipped deterministically.
/// A deletion whose line would be left all-whitespace consumes the whole
/// line (stale-suppression comments disappear without leaving blanks).
pub fn splice(source: &str, fixes: &[&Fix]) -> (String, usize) {
    let mut sorted: Vec<&Fix> = fixes.to_vec();
    sorted.sort_by_key(|f| (f.start, f.end));
    sorted.dedup();
    let mut accepted: Vec<(usize, usize, &str)> = Vec::new();
    for f in sorted {
        if f.end < f.start
            || f.end > source.len()
            || !source.is_char_boundary(f.start)
            || !source.is_char_boundary(f.end)
        {
            continue;
        }
        let (start, end) = if f.replacement.is_empty() {
            widen_deletion(source, f.start, f.end)
        } else {
            (f.start, f.end)
        };
        if accepted.iter().any(|(s, e, _)| start < *e && *s < end) {
            continue;
        }
        accepted.push((start, end, f.replacement.as_str()));
    }
    accepted.sort_by_key(|(s, e, _)| (*s, *e));
    let n = accepted.len();
    let mut out = source.to_string();
    for (start, end, rep) in accepted.iter().rev() {
        out.replace_range(*start..*end, rep);
    }
    (out, n)
}

/// If deleting `start..end` would leave its line(s) containing only
/// whitespace, widen the span to swallow the whole line including the
/// trailing newline.
fn widen_deletion(source: &str, start: usize, end: usize) -> (usize, usize) {
    let line_start = source[..start].rfind('\n').map(|p| p + 1).unwrap_or(0);
    let line_end = source[end..]
        .find('\n')
        .map(|p| end + p + 1)
        .unwrap_or(source.len());
    let before_ws = source[line_start..start].chars().all(char::is_whitespace);
    let after_ws = source[end..line_end].chars().all(char::is_whitespace);
    if before_ws && after_ws {
        (line_start, line_end)
    } else {
        (start, end)
    }
}

/// Single-file fixpoint: lints `source` in `ctx` (per-file rules + the
/// single-file hot-path analysis + W0), applies every machine-applicable
/// fix, and repeats until a lint pass yields none. Returns the fixed
/// text and the number of fixes applied. Apply-twice equals apply-once
/// by construction — the last round proves the output is fix-free.
pub fn fix_source(ctx: &FileContext<'_>, source: &str) -> (String, usize) {
    let mut text = source.to_string();
    let mut applied = 0usize;
    for _ in 0..MAX_ROUNDS {
        let findings = crate::rules::lint_source(ctx, &text);
        let fixes: Vec<&Fix> = findings
            .iter()
            .filter(|f| is_applicable(f))
            .filter_map(|f| f.fix.as_ref())
            .collect();
        if fixes.is_empty() {
            break;
        }
        let (next, n) = splice(&text, &fixes);
        if n == 0 {
            break;
        }
        applied += n;
        text = next;
    }
    (text, applied)
}

/// Workspace fixpoint: repeatedly runs the full pipeline over `files`,
/// applies machine-applicable fixes from *fresh* (non-baselined)
/// findings, and stops when a pass yields none. Baselined findings are
/// grandfathered debt and left untouched. Errors if the fixpoint does
/// not converge within [`MAX_ROUNDS`].
pub fn fix_files(files: &mut [MemFile], baseline: &Baseline) -> Result<FixOutcome, String> {
    let mut outcome = FixOutcome::default();
    let mut changed = BTreeSet::new();
    for _ in 0..MAX_ROUNDS {
        let (findings, _) = lint_files_graph(files);
        let (_, fresh) = baseline.partition(&findings);
        let mut per_file: BTreeMap<String, Vec<Fix>> = BTreeMap::new();
        for f in fresh {
            if is_applicable(f) {
                if let Some(fx) = &f.fix {
                    per_file.entry(f.file.clone()).or_default().push(fx.clone());
                }
            }
        }
        if per_file.is_empty() {
            outcome.changed = changed.into_iter().collect();
            return Ok(outcome);
        }
        outcome.rounds += 1;
        let mut applied_this_round = 0usize;
        for (path, fixes) in &per_file {
            let Some(mf) = files.iter_mut().find(|f| &f.rel_path == path) else {
                continue;
            };
            let refs: Vec<&Fix> = fixes.iter().collect();
            let (next, n) = splice(&mf.source, &refs);
            if n > 0 {
                mf.source = next;
                changed.insert(path.clone());
                applied_this_round += n;
            }
        }
        if applied_this_round == 0 {
            return Err(
                "fix run stalled: machine-applicable fixes remain but none could be spliced"
                    .to_string(),
            );
        }
        outcome.applied += applied_this_round;
    }
    Err(format!(
        "fix run did not converge in {MAX_ROUNDS} rounds: a fix is re-introducing its own finding"
    ))
}

/// A minimal unified diff between two versions of one file: a single
/// hunk covering the changed region. Empty when the texts are equal.
pub fn unified_diff(path: &str, old: &str, new: &str) -> String {
    if old == new {
        return String::new();
    }
    let a: Vec<&str> = old.lines().collect();
    let b: Vec<&str> = new.lines().collect();
    let mut pre = 0usize;
    while pre < a.len() && pre < b.len() && a[pre] == b[pre] {
        pre += 1;
    }
    let mut post = 0usize;
    while post < a.len().saturating_sub(pre)
        && post < b.len().saturating_sub(pre)
        && a[a.len() - 1 - post] == b[b.len() - 1 - post]
    {
        post += 1;
    }
    let (a_end, b_end) = (a.len() - post, b.len() - post);
    let mut out = format!("--- a/{path}\n+++ b/{path}\n");
    out.push_str(&format!(
        "@@ -{},{} +{},{} @@\n",
        pre + 1,
        a_end - pre,
        pre + 1,
        b_end - pre
    ));
    for l in &a[pre..a_end] {
        out.push_str(&format!("-{l}\n"));
    }
    for l in &b[pre..b_end] {
        out.push_str(&format!("+{l}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fix(start: usize, end: usize, rep: &str) -> Fix {
        Fix {
            start,
            end,
            replacement: rep.to_string(),
            safety: FixSafety::MachineApplicable,
        }
    }

    #[test]
    fn splice_applies_in_order_and_skips_overlaps() {
        let src = "abc def ghi";
        let f1 = fix(0, 3, "XYZ");
        let f2 = fix(4, 7, "12");
        let overlap = fix(2, 5, "!!");
        let (out, n) = splice(src, &[&f2, &f1, &overlap]);
        assert_eq!(out, "XYZ 12 ghi");
        assert_eq!(n, 2);
    }

    #[test]
    fn splice_rejects_non_boundary_and_oob_spans() {
        let src = "µΩ x";
        let bad = fix(1, 3, "y"); // inside µ
        let oob = fix(0, 99, "y");
        let (out, n) = splice(src, &[&bad, &oob]);
        assert_eq!(out, src);
        assert_eq!(n, 0);
    }

    #[test]
    fn deletion_swallows_whole_blank_line() {
        let src = "keep\n  // advdiag::allow(D1, gone)\nalso\n";
        let start = src.find("//").expect("comment");
        let end = start + "// advdiag::allow(D1, gone)".len();
        let (out, n) = splice(src, &[&fix(start, end, "")]);
        assert_eq!(out, "keep\nalso\n");
        assert_eq!(n, 1);
    }

    #[test]
    fn deletion_preserves_shared_lines() {
        let src = "let x = 1; // advdiag::allow(D1, gone)\n";
        let start = src.find("//").expect("comment");
        let (out, _) = splice(src, &[&fix(start, src.len() - 1, "")]);
        assert_eq!(out, "let x = 1; \n");
    }

    #[test]
    fn unified_diff_covers_changed_region_only() {
        let old = "a\nb\nc\nd\n";
        let new = "a\nB\nc\nd\n";
        let d = unified_diff("f.rs", old, new);
        assert!(d.contains("--- a/f.rs"), "{d}");
        assert!(d.contains("-b\n"), "{d}");
        assert!(d.contains("+B\n"), "{d}");
        assert!(!d.contains("-a\n"), "{d}");
        assert!(unified_diff("f.rs", old, old).is_empty());
    }
}
