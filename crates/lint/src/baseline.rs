//! Grandfathered-findings baseline.
//!
//! The baseline is a checked-in JSON file listing findings that predate a
//! rule (or are accepted debt). A finding matches a baseline entry on
//! `(rule, file, excerpt)` — deliberately *not* on line number, so
//! unrelated edits that shift lines do not invalidate the baseline, while
//! any change to the offending line itself surfaces the finding again.
//! Matching is multiset-style: two identical offending lines in one file
//! need two entries.
//!
//! The parser below is a tiny recursive-descent JSON reader covering the
//! whole grammar; it exists so `bios-lint` stays dependency-free (the
//! workspace's serde shims are for product crates, and the linter must
//! not depend on code it lints).

use std::collections::BTreeMap;

use crate::rules::Finding;

/// One grandfathered finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BaselineEntry {
    pub rule: String,
    pub file: String,
    pub excerpt: String,
}

/// Parsed baseline file.
#[derive(Debug, Default)]
pub struct Baseline {
    pub entries: Vec<BaselineEntry>,
}

impl Baseline {
    /// Parses the JSON written by [`Baseline::to_json`].
    pub fn parse(text: &str) -> Result<Self, String> {
        let value = Json::parse(text)?;
        let obj = value.as_object().ok_or("baseline root must be an object")?;
        let entries_val = obj
            .field("entries")
            .ok_or("baseline is missing the `entries` array")?;
        let arr = entries_val
            .as_array()
            .ok_or("baseline `entries` must be an array")?;
        let mut entries = Vec::with_capacity(arr.len());
        for (i, e) in arr.iter().enumerate() {
            let eo = e
                .as_object()
                .ok_or_else(|| format!("baseline entry {i} must be an object"))?;
            let field = |name: &str| -> Result<String, String> {
                eo.field(name)
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| format!("baseline entry {i} is missing string field `{name}`"))
            };
            entries.push(BaselineEntry {
                rule: field("rule")?,
                file: field("file")?,
                excerpt: field("excerpt")?,
            });
        }
        Ok(Self { entries })
    }

    /// Serializes in a stable, diff-friendly one-entry-per-line layout.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"version\": 1,\n  \"entries\": [\n");
        for (i, e) in self.entries.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"rule\": {}, \"file\": {}, \"excerpt\": {}}}{}\n",
                escape(&e.rule),
                escape(&e.file),
                escape(&e.excerpt),
                if i + 1 < self.entries.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Builds a baseline from current findings (for `--write-baseline`),
    /// sorted for stable diffs.
    pub fn from_findings(findings: &[Finding]) -> Self {
        let mut entries: Vec<BaselineEntry> = findings
            .iter()
            .map(|f| BaselineEntry {
                rule: f.rule.to_string(),
                file: f.file.clone(),
                excerpt: f.excerpt.clone(),
            })
            .collect();
        entries.sort_by(|a, b| (&a.file, &a.rule, &a.excerpt).cmp(&(&b.file, &b.rule, &b.excerpt)));
        Self { entries }
    }

    /// Splits `findings` into `(baselined, new)` using multiset matching.
    pub fn partition<'a>(&self, findings: &'a [Finding]) -> (Vec<&'a Finding>, Vec<&'a Finding>) {
        let mut budget: BTreeMap<(&str, &str, &str), usize> = BTreeMap::new();
        for e in &self.entries {
            *budget
                .entry((e.rule.as_str(), e.file.as_str(), e.excerpt.as_str()))
                .or_insert(0) += 1;
        }
        let mut baselined = Vec::new();
        let mut fresh = Vec::new();
        for f in findings {
            let key = (f.rule, f.file.as_str(), f.excerpt.as_str());
            match budget.get_mut(&key) {
                Some(n) if *n > 0 => {
                    *n -= 1;
                    baselined.push(f);
                }
                _ => fresh.push(f),
            }
        }
        (baselined, fresh)
    }
}

/// JSON-escapes a string, quotes included.
pub fn escape(s: &str) -> String {
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

/// Minimal JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing data at byte {}", p.pos));
        }
        Ok(v)
    }

    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(m) => Some(m),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// Convenience lookup on the `Vec<(String, Json)>` object representation.
trait ObjExt {
    fn field(&self, key: &str) -> Option<&Json>;
}

impl ObjExt for [(String, Json)] {
    fn field(&self, key: &str) -> Option<&Json> {
        self.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn consume(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", b as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while let Some(c) = self.peek() {
            if c.is_ascii_digit() || matches!(c, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| "non-UTF-8 number".to_string())?;
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("bad number `{text}` at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.consume(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let hex = std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?;
                            let code =
                                u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the whole run of plain characters up to the
                    // next quote or backslash in one slice. Both
                    // delimiters are ASCII, so the run ends on a char
                    // boundary and each byte is visited once.
                    let rest = self.text.get(self.pos..).ok_or("non-UTF-8 string")?;
                    let run = rest.find(['"', '\\']).unwrap_or(rest.len());
                    out.push_str(&rest[..run]);
                    self.pos += run;
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.consume(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.consume(b'{')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(items));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.consume(b':')?;
            let val = self.value()?;
            items.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(items));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(rule: &'static str, file: &str, excerpt: &str) -> Finding {
        Finding {
            rule,
            file: file.to_string(),
            line: 1,
            col: 1,
            end_col: 0,
            message: String::new(),
            excerpt: excerpt.to_string(),
            fix: None,
        }
    }

    #[test]
    fn roundtrip_and_partition() {
        let findings = vec![
            finding("P1", "a.rs", "x.unwrap();"),
            finding("P1", "a.rs", "x.unwrap();"),
            finding("F1", "b.rs", "x == 0.0"),
        ];
        let base = Baseline::from_findings(&findings[..2]);
        let reparsed = Baseline::parse(&base.to_json()).expect("roundtrip");
        assert_eq!(reparsed.entries, base.entries);
        let (old, new) = reparsed.partition(&findings);
        assert_eq!(old.len(), 2);
        assert_eq!(new.len(), 1);
        assert_eq!(new[0].rule, "F1");
    }

    #[test]
    fn multiset_matching_counts_duplicates() {
        let base = Baseline::from_findings(&[finding("P1", "a.rs", "x.unwrap();")]);
        let findings = vec![
            finding("P1", "a.rs", "x.unwrap();"),
            finding("P1", "a.rs", "x.unwrap();"),
        ];
        let (old, new) = base.partition(&findings);
        assert_eq!(
            (old.len(), new.len()),
            (1, 1),
            "one entry covers one finding"
        );
    }

    #[test]
    fn parser_handles_escapes_and_nesting() {
        let v = Json::parse(
            r#"{"a": [1, -2.5e3, "q\"\n", "µA ± 5 % — ok\t✓"], "b": {"c": null, "d": true}}"#,
        )
        .expect("parses");
        let obj = v.as_object().expect("object");
        assert!(obj.iter().any(|(k, _)| k == "a"));
        let arr = obj
            .iter()
            .find(|(k, _)| k == "a")
            .map(|(_, v)| v)
            .and_then(Json::as_array)
            .expect("array");
        assert_eq!(arr[2].as_str(), Some("q\"\n"));
        assert_eq!(arr[3].as_str(), Some("µA ± 5 % — ok\t✓"));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Baseline::parse("not json").is_err());
        assert!(Baseline::parse("{}").is_err(), "entries array is required");
        assert!(Json::parse("[1, 2,]").is_err(), "trailing comma");
    }
}
