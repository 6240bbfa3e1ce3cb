//! Incremental lint cache: per-file findings keyed on content hashes.
//!
//! A cold workspace lint lexes, parses and rule-checks every file; on a
//! large tree almost all of that work is identical run to run. The cache
//! persists, per file, everything the workspace pipeline needs from the
//! per-file phase — surviving findings (fixes included), suppression
//! sites with byte spans, and the dependency/vocabulary facts consumed
//! by the workspace rules — keyed on an FNV-1a hash of the file's exact
//! contents. A warm run re-lexes only files whose hash changed; clean
//! files replay their cached entry and the (cheap, pure) workspace phase
//! runs over the merged facts, so cold and warm runs share one code path
//! and produce byte-identical findings by construction.
//!
//! Interprocedural range analysis (N1–N3) is cached per *crate*, keyed
//! on a hash over the sorted `(rel_path, content_hash)` pairs of the
//! crate's lintable files: any edit anywhere in a crate invalidates that
//! crate's range findings (function summaries cross file boundaries, so
//! per-file invalidation would be unsound), but leaves other crates'
//! entries intact.
//!
//! The on-disk format is versioned and fingerprinted against the rule
//! catalogue; a version, fingerprint, or parse mismatch degrades to an
//! empty cache (everything dirty) — the cache can make a run faster,
//! never wrong. `u64` hashes are stored as hex strings because JSON
//! numbers are f64 and would silently lose the high bits.

use std::collections::BTreeMap;

use crate::baseline::{escape, Json};
use crate::depgraph::{FactEdge, FileFacts, PubItem};
use crate::fixer::{Fix, FixSafety};
use crate::hotpath::{HOT_ROOTS, PURE_CTORS};
use crate::rules::{AllowSite, Finding, Severity, RULE_IDS};

/// Bumped whenever the serialized shape changes incompatibly.
const CACHE_VERSION: u32 = 2;

/// FNV-1a over a byte string — the same dependency-free hash everywhere
/// the cache needs one (file contents, crate keys, the engine
/// fingerprint).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Hash of the rule catalogue, the hot-path catalogues + format version.
/// Adding, removing or reordering rules, hot roots or pure constructors
/// changes what findings a file can produce, so any such change must
/// invalidate every cached entry.
pub fn engine_fingerprint() -> u64 {
    let mut s = format!("v{CACHE_VERSION}");
    for id in RULE_IDS {
        s.push(';');
        s.push_str(id);
    }
    for (root, level) in HOT_ROOTS {
        s.push_str(&format!(";{root}:{level:?}"));
    }
    for (ty, ctor) in PURE_CTORS {
        s.push_str(&format!(";{ty}::{ctor}"));
    }
    fnv1a(s.as_bytes())
}

/// One file's cached per-file phase output.
#[derive(Debug, Clone, PartialEq)]
pub struct CacheEntry {
    /// Crate the file belongs to (package name).
    pub crate_name: String,
    /// True when token/semantic rules ran (false for corpus-only files
    /// such as docs, which contribute only word facts).
    pub lintable: bool,
    /// FNV-1a of the file's exact contents.
    pub hash: u64,
    /// Findings surviving per-file suppression, fully finished
    /// (excerpt + end_col filled), fixes included.
    pub findings: Vec<Finding>,
    /// Every suppression site with its per-file usage state; the
    /// workspace phase re-marks usage for workspace/range findings.
    pub allows: Vec<AllowSite>,
    /// Dependency and vocabulary facts for the workspace rules.
    pub facts: FileFacts,
}

/// One crate's cached interprocedural range findings.
#[derive(Debug, Clone, PartialEq)]
pub struct RangeEntry {
    /// FNV-1a over the crate's sorted `(rel_path, content_hash)` pairs.
    pub key: u64,
    /// N1–N3 findings *before* suppression (suppression state is
    /// per-run), finished.
    pub findings: Vec<Finding>,
}

/// The cached hot-path analysis (H1–H4). The call graph crosses *crate*
/// boundaries (`step_wave` in core reaches kernels in electrochem), so
/// the key covers every lintable file in the workspace: any edit
/// anywhere re-runs the analysis — the whole-workspace analogue of the
/// range analysis' crate grain, for the same soundness reason.
#[derive(Debug, Clone, PartialEq)]
pub struct HotEntry {
    /// [`crate_key`] over ALL lintable files' `(rel_path, hash)` pairs.
    pub key: u64,
    /// H1–H4 findings *before* suppression, finished.
    pub findings: Vec<Finding>,
    /// Hot-region overlay for `--emit-dot`: resolved roots, sorted.
    pub roots: Vec<String>,
    /// The full hot set, sorted.
    pub hot: Vec<String>,
}

/// The whole cache: per-file entries keyed by rel-path, per-crate range
/// entries keyed by crate name, plus the workspace-grained hot entry.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LintCache {
    pub files: BTreeMap<String, CacheEntry>,
    pub ranges: BTreeMap<String, RangeEntry>,
    pub hot: Option<HotEntry>,
}

impl LintCache {
    /// Parses a serialized cache. Any malformation — bad JSON, missing
    /// field, unknown rule, version or fingerprint mismatch — yields an
    /// empty cache rather than an error: stale caches degrade to a cold
    /// run, never to wrong findings.
    pub fn parse(text: &str) -> LintCache {
        parse_cache(text).unwrap_or_default()
    }

    /// Serializes the cache; `parse` of the result round-trips exactly.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("{\n  \"version\": ");
        out.push_str(&CACHE_VERSION.to_string());
        out.push_str(",\n  \"fingerprint\": ");
        out.push_str(&escape(&hex(engine_fingerprint())));
        out.push_str(",\n  \"files\": [");
        let mut first = true;
        for (rel_path, e) in &self.files {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str("\n    {\"rel_path\": ");
            out.push_str(&escape(rel_path));
            out.push_str(", \"crate\": ");
            out.push_str(&escape(&e.crate_name));
            out.push_str(", \"lintable\": ");
            out.push_str(if e.lintable { "true" } else { "false" });
            out.push_str(", \"hash\": ");
            out.push_str(&escape(&hex(e.hash)));
            out.push_str(", \"findings\": ");
            findings_json(&mut out, &e.findings);
            out.push_str(", \"allows\": ");
            allows_json(&mut out, &e.allows);
            out.push_str(", \"facts\": ");
            facts_json(&mut out, &e.facts);
            out.push('}');
        }
        out.push_str("\n  ],\n  \"ranges\": [");
        let mut first = true;
        for (krate, r) in &self.ranges {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str("\n    {\"crate\": ");
            out.push_str(&escape(krate));
            out.push_str(", \"key\": ");
            out.push_str(&escape(&hex(r.key)));
            out.push_str(", \"findings\": ");
            findings_json(&mut out, &r.findings);
            out.push('}');
        }
        out.push_str("\n  ],\n  \"hot\": ");
        match &self.hot {
            None => out.push_str("null"),
            Some(h) => {
                out.push_str("{\"key\": ");
                out.push_str(&escape(&hex(h.key)));
                out.push_str(", \"findings\": ");
                findings_json(&mut out, &h.findings);
                out.push_str(", \"roots\": [");
                for (i, r) in h.roots.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(&escape(r));
                }
                out.push_str("], \"hot\": [");
                for (i, n) in h.hot.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(&escape(n));
                }
                out.push_str("]}");
            }
        }
        out.push_str("\n}\n");
        out
    }
}

fn hex(h: u64) -> String {
    format!("{h:016x}")
}

fn findings_json(out: &mut String, findings: &[Finding]) {
    out.push('[');
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"rule\": ");
        out.push_str(&escape(f.rule));
        out.push_str(", \"file\": ");
        out.push_str(&escape(&f.file));
        out.push_str(&format!(
            ", \"line\": {}, \"col\": {}, \"end_col\": {}, \"severity\": ",
            f.line, f.col, f.end_col
        ));
        out.push_str(&escape(f.severity.label()));
        out.push_str(", \"message\": ");
        out.push_str(&escape(&f.message));
        out.push_str(", \"excerpt\": ");
        out.push_str(&escape(&f.excerpt));
        out.push_str(", \"fix\": ");
        match &f.fix {
            None => out.push_str("null"),
            Some(fix) => {
                out.push_str(&format!(
                    "{{\"start\": {}, \"end\": {}, \"replacement\": ",
                    fix.start, fix.end
                ));
                out.push_str(&escape(&fix.replacement));
                out.push_str(", \"safety\": ");
                out.push_str(&escape(fix.safety.label()));
                out.push('}');
            }
        }
        out.push('}');
    }
    out.push(']');
}

fn allows_json(out: &mut String, allows: &[AllowSite]) {
    out.push('[');
    for (i, a) in allows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"rule\": ");
        out.push_str(&escape(&a.rule));
        out.push_str(&format!(
            ", \"line\": {}, \"col\": {}, \"has_reason\": {}, \"used\": {}, \
             \"byte_start\": {}, \"byte_end\": {}}}",
            a.line, a.col, a.has_reason, a.used, a.byte_start, a.byte_end
        ));
    }
    out.push(']');
}

fn facts_json(out: &mut String, facts: &FileFacts) {
    out.push_str("{\"words\": [");
    for (i, w) in facts.words.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&escape(w));
    }
    out.push_str("], \"edges\": [");
    for (i, e) in facts.edges.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"to\": ");
        out.push_str(&escape(&e.to));
        out.push_str(&format!(", \"line\": {}, \"col\": {}}}", e.line, e.col));
    }
    out.push_str("], \"pubs\": [");
    for (i, p) in facts.pubs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"name\": ");
        out.push_str(&escape(&p.name));
        out.push_str(", \"kind\": ");
        out.push_str(&escape(&p.kind));
        out.push_str(&format!(", \"line\": {}, \"col\": {}}}", p.line, p.col));
    }
    out.push_str("]}");
}

// ---------------------------------------------------------------------
// Tolerant parsing. Every accessor returns Option; any None anywhere
// bubbles up and the whole cache is discarded.
// ---------------------------------------------------------------------

fn field<'a>(obj: &'a [(String, Json)], key: &str) -> Option<&'a Json> {
    obj.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

fn str_field<'a>(obj: &'a [(String, Json)], key: &str) -> Option<&'a str> {
    field(obj, key)?.as_str()
}

fn num_field(obj: &[(String, Json)], key: &str) -> Option<f64> {
    match field(obj, key)? {
        Json::Num(n) => Some(*n),
        _ => None,
    }
}

fn u32_field(obj: &[(String, Json)], key: &str) -> Option<u32> {
    let n = num_field(obj, key)?;
    if n.fract() == 0.0 && (0.0..=u32::MAX as f64).contains(&n) {
        Some(n as u32)
    } else {
        None
    }
}

fn usize_field(obj: &[(String, Json)], key: &str) -> Option<usize> {
    // Byte offsets in real source files fit comfortably in 2^53.
    let n = num_field(obj, key)?;
    if n.fract() == 0.0 && (0.0..=9.0e15).contains(&n) {
        Some(n as usize)
    } else {
        None
    }
}

fn bool_field(obj: &[(String, Json)], key: &str) -> Option<bool> {
    match field(obj, key)? {
        Json::Bool(b) => Some(*b),
        _ => None,
    }
}

fn hash_field(obj: &[(String, Json)], key: &str) -> Option<u64> {
    u64::from_str_radix(str_field(obj, key)?, 16).ok()
}

fn parse_cache(text: &str) -> Option<LintCache> {
    let value = Json::parse(text).ok()?;
    let obj = value.as_object()?;
    if u32_field(obj, "version")? != CACHE_VERSION {
        return None;
    }
    if hash_field(obj, "fingerprint")? != engine_fingerprint() {
        return None;
    }
    let mut cache = LintCache::default();
    for fv in field(obj, "files")?.as_array()? {
        let fo = fv.as_object()?;
        let rel_path = str_field(fo, "rel_path")?.to_string();
        let entry = CacheEntry {
            crate_name: str_field(fo, "crate")?.to_string(),
            lintable: bool_field(fo, "lintable")?,
            hash: hash_field(fo, "hash")?,
            findings: parse_findings(field(fo, "findings")?)?,
            allows: parse_allows(field(fo, "allows")?)?,
            facts: parse_facts(field(fo, "facts")?)?,
        };
        cache.files.insert(rel_path, entry);
    }
    for rv in field(obj, "ranges")?.as_array()? {
        let ro = rv.as_object()?;
        let krate = str_field(ro, "crate")?.to_string();
        let entry = RangeEntry {
            key: hash_field(ro, "key")?,
            findings: parse_findings(field(ro, "findings")?)?,
        };
        cache.ranges.insert(krate, entry);
    }
    cache.hot = match field(obj, "hot")? {
        Json::Null => None,
        hv => {
            let ho = hv.as_object()?;
            let mut roots = Vec::new();
            for r in field(ho, "roots")?.as_array()? {
                roots.push(r.as_str()?.to_string());
            }
            let mut hot = Vec::new();
            for n in field(ho, "hot")?.as_array()? {
                hot.push(n.as_str()?.to_string());
            }
            Some(HotEntry {
                key: hash_field(ho, "key")?,
                findings: parse_findings(field(ho, "findings")?)?,
                roots,
                hot,
            })
        }
    };
    Some(cache)
}

fn parse_findings(value: &Json) -> Option<Vec<Finding>> {
    let mut out = Vec::new();
    for v in value.as_array()? {
        let o = v.as_object()?;
        let rule_str = str_field(o, "rule")?;
        let rule = RULE_IDS.iter().find(|id| **id == rule_str).copied()?;
        let severity = match str_field(o, "severity")? {
            "error" => Severity::Error,
            "warning" => Severity::Warning,
            _ => return None,
        };
        let fix = match field(o, "fix")? {
            Json::Null => None,
            Json::Obj(fo) => Some(Fix {
                start: usize_field(fo, "start")?,
                end: usize_field(fo, "end")?,
                replacement: str_field(fo, "replacement")?.to_string(),
                safety: match str_field(fo, "safety")? {
                    "machine-applicable" => FixSafety::MachineApplicable,
                    "suggested" => FixSafety::Suggested,
                    _ => return None,
                },
            }),
            _ => return None,
        };
        out.push(Finding {
            rule,
            file: str_field(o, "file")?.to_string(),
            line: u32_field(o, "line")?,
            col: u32_field(o, "col")?,
            end_col: u32_field(o, "end_col")?,
            severity,
            message: str_field(o, "message")?.to_string(),
            excerpt: str_field(o, "excerpt")?.to_string(),
            fix,
        });
    }
    Some(out)
}

fn parse_allows(value: &Json) -> Option<Vec<AllowSite>> {
    let mut out = Vec::new();
    for v in value.as_array()? {
        let o = v.as_object()?;
        out.push(AllowSite {
            rule: str_field(o, "rule")?.to_string(),
            line: u32_field(o, "line")?,
            col: u32_field(o, "col")?,
            has_reason: bool_field(o, "has_reason")?,
            used: bool_field(o, "used")?,
            byte_start: usize_field(o, "byte_start")?,
            byte_end: usize_field(o, "byte_end")?,
        });
    }
    Some(out)
}

fn parse_facts(value: &Json) -> Option<FileFacts> {
    let o = value.as_object()?;
    let mut facts = FileFacts::default();
    for w in field(o, "words")?.as_array()? {
        facts.words.push(w.as_str()?.to_string());
    }
    for ev in field(o, "edges")?.as_array()? {
        let eo = ev.as_object()?;
        facts.edges.push(FactEdge {
            to: str_field(eo, "to")?.to_string(),
            line: u32_field(eo, "line")?,
            col: u32_field(eo, "col")?,
        });
    }
    for pv in field(o, "pubs")?.as_array()? {
        let po = pv.as_object()?;
        facts.pubs.push(PubItem {
            name: str_field(po, "name")?.to_string(),
            kind: str_field(po, "kind")?.to_string(),
            line: u32_field(po, "line")?,
            col: u32_field(po, "col")?,
        });
    }
    Some(facts)
}

/// Order-sensitive digest of a findings list (the canonical JSON
/// rendering hashed with FNV-1a). The benchmark asserts cold/warm
/// digest equality with it; any divergence between the cached and
/// from-scratch pipelines is a correctness bug, not a staleness issue.
pub fn findings_digest(findings: &[Finding]) -> u64 {
    let mut s = String::new();
    findings_json(&mut s, findings);
    fnv1a(s.as_bytes())
}

/// The crate key for range-analysis caching: FNV-1a over the crate's
/// sorted `(rel_path, content_hash)` pairs.
pub fn crate_key(pairs: &[(&str, u64)]) -> u64 {
    let mut sorted: Vec<&(&str, u64)> = pairs.iter().collect();
    sorted.sort();
    let mut s = String::new();
    for (path, hash) in sorted {
        s.push_str(path);
        s.push('\x1f');
        s.push_str(&hex(*hash));
        s.push('\x1e');
    }
    fnv1a(s.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_cache() -> LintCache {
        let mut cache = LintCache::default();
        cache.files.insert(
            "crates/core/src/lib.rs".to_string(),
            CacheEntry {
                crate_name: "bios-core".to_string(),
                lintable: true,
                hash: fnv1a(b"fn main() {}"),
                findings: vec![Finding {
                    rule: "D1",
                    file: "crates/core/src/lib.rs".to_string(),
                    line: 3,
                    col: 9,
                    end_col: 16,
                    severity: Severity::Error,
                    message: "HashMap iteration order is nondeterministic".to_string(),
                    excerpt: "let m: HashMap<u32, f64> = HashMap::new();".to_string(),
                    fix: Some(Fix {
                        start: 42,
                        end: 49,
                        replacement: "BTreeMap".to_string(),
                        safety: FixSafety::MachineApplicable,
                    }),
                }],
                allows: vec![AllowSite {
                    rule: "P1".to_string(),
                    line: 10,
                    col: 5,
                    has_reason: true,
                    used: true,
                    byte_start: 120,
                    byte_end: 155,
                }],
                facts: FileFacts {
                    words: vec!["alpha".to_string(), "beta\"quoted".to_string()],
                    edges: vec![FactEdge {
                        to: "bios-num".to_string(),
                        line: 7,
                        col: 2,
                    }],
                    pubs: vec![PubItem {
                        name: "Solver".to_string(),
                        kind: "struct".to_string(),
                        line: 1,
                        col: 1,
                    }],
                },
            },
        );
        cache.ranges.insert(
            "bios-core".to_string(),
            RangeEntry {
                key: crate_key(&[("crates/core/src/lib.rs", fnv1a(b"fn main() {}"))]),
                findings: vec![Finding {
                    rule: "N1",
                    file: "crates/core/src/lib.rs".to_string(),
                    line: 5,
                    col: 13,
                    end_col: 20,
                    severity: Severity::Error,
                    message: "possible division by zero".to_string(),
                    excerpt: "let r = v / d;".to_string(),
                    fix: None,
                }],
            },
        );
        cache.hot = Some(HotEntry {
            key: crate_key(&[("crates/core/src/lib.rs", fnv1a(b"fn main() {}"))]),
            findings: vec![Finding {
                rule: "H1",
                file: "crates/core/src/lib.rs".to_string(),
                line: 9,
                col: 4,
                end_col: 14,
                severity: Severity::Error,
                message: "allocation in hot code".to_string(),
                excerpt: "let v = Vec::new();".to_string(),
                fix: None,
            }],
            roots: vec!["step_wave".to_string()],
            hot: vec!["hot_helper".to_string(), "step_wave".to_string()],
        });
        cache
    }

    #[test]
    fn round_trips_exactly() {
        let cache = sample_cache();
        let text = cache.to_json();
        let back = LintCache::parse(&text);
        assert_eq!(back, cache);
    }

    #[test]
    fn malformed_or_mismatched_yields_empty() {
        assert_eq!(LintCache::parse("not json"), LintCache::default());
        assert_eq!(LintCache::parse("{}"), LintCache::default());
        // Wrong fingerprint: a structurally valid cache from a different
        // rule catalogue must be discarded wholesale.
        let good = sample_cache().to_json();
        let bad = good.replace(
            &format!("{:016x}", engine_fingerprint()),
            "deadbeefdeadbeef",
        );
        assert_eq!(LintCache::parse(&bad), LintCache::default());
        // Unknown rule id → discarded.
        let bad = good.replace("\"D1\"", "\"Z9\"");
        assert_eq!(LintCache::parse(&bad), LintCache::default());
    }

    #[test]
    fn crate_key_is_order_insensitive_and_content_sensitive() {
        let a = crate_key(&[("a.rs", 1), ("b.rs", 2)]);
        let b = crate_key(&[("b.rs", 2), ("a.rs", 1)]);
        assert_eq!(a, b);
        let c = crate_key(&[("a.rs", 3), ("b.rs", 2)]);
        assert_ne!(a, c);
    }
}
