//! A minimal Rust lexer: good enough to walk this workspace's sources as a
//! flat token stream with line/column spans, comments kept aside, and
//! `#[cfg(test)]` / `#[test]` regions marked.
//!
//! This is *not* a general Rust parser. It understands exactly what the
//! rules in [`crate::rules`] need: identifiers, numeric/string/char
//! literals (including raw strings and raw identifiers), lifetimes,
//! maximal-munch multi-character operators, and nested block comments.
//! Everything it cannot classify becomes a single-character operator
//! token, which is always safe for the token-pattern matching the rules
//! do.
//!
//! Columns are **1-based and counted in characters**, not bytes: the
//! units crate spells `µA` and `Ω` in doc comments, and a byte-based
//! column would drift past every multi-byte scalar on the line, pointing
//! editors and CI annotations at the wrong spot.

/// What a token is, at the granularity the rules care about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword (including raw identifiers, with the `r#`
    /// stripped).
    Ident,
    /// Floating-point literal (`1.0`, `1e-3`, `2f64`, …).
    FloatLit,
    /// Integer literal (including `0x`/`0o`/`0b` forms).
    IntLit,
    /// String literal of any flavor (`"…"`, `r#"…"#`, `b"…"`).
    StrLit,
    /// Character or byte literal (`'x'`, `b'\n'`).
    CharLit,
    /// Lifetime (`'a`).
    Lifetime,
    /// Operator / punctuation, maximal-munch (`::`, `==`, `->`, `{`, …).
    Op,
}

/// One lexed token.
#[derive(Debug, Clone)]
pub struct Token {
    pub kind: TokenKind,
    /// Source text of the token (operators keep their full spelling).
    /// Invariant: `text == src[offset..offset + text.len()]`, which is
    /// what lets the auto-fix engine splice replacements byte-exactly.
    pub text: String,
    /// 1-based source line the token starts on.
    pub line: u32,
    /// 1-based column (in characters, not bytes) the token starts at.
    pub col: u32,
    /// Byte offset of the token start in the source.
    pub offset: usize,
    /// True if the token sits inside a `#[cfg(test)]` / `#[test]` item.
    pub in_test: bool,
}

/// A comment, kept out of the token stream but retained for the
/// suppression / `SAFETY:` scanners.
#[derive(Debug, Clone)]
pub struct Comment {
    /// 1-based line the comment starts on.
    pub line: u32,
    /// 1-based character column the comment starts at.
    pub col: u32,
    /// Byte offset of the comment start in the source.
    pub offset: usize,
    /// Comment text including the `//` / `/*` markers.
    pub text: String,
}

/// Result of lexing one source file.
#[derive(Debug, Default)]
pub struct Lexed {
    pub tokens: Vec<Token>,
    pub comments: Vec<Comment>,
}

/// Multi-character operators, longest first so maximal munch works by
/// scanning the table in order.
const OPERATORS: &[&str] = &[
    "<<=", ">>=", "..=", "...", "::", "->", "=>", "==", "!=", "<=", ">=", "&&", "||", "<<", ">>",
    "+=", "-=", "*=", "/=", "%=", "^=", "&=", "|=", "..",
];

/// Character column (1-based) of byte offset `at`, given the byte offset
/// of the start of its line. Both offsets must sit on char boundaries.
fn char_col(src: &str, line_start: usize, at: usize) -> u32 {
    src[line_start..at].chars().count() as u32 + 1
}

/// Lexes `src`, then marks test regions.
pub fn lex(src: &str) -> Lexed {
    let mut out = Lexed::default();
    let bytes = src.as_bytes();
    let mut i = 0usize;
    let mut line = 1u32;
    // Byte offset where the current line begins (for column computation).
    let mut line_start = 0usize;
    while i < bytes.len() {
        let c = bytes[i] as char;
        // Newlines / whitespace.
        if c == '\n' {
            line += 1;
            i += 1;
            line_start = i;
            continue;
        }
        if c.is_ascii_whitespace() {
            i += 1;
            continue;
        }
        let col = char_col(src, line_start, i);
        // Comments.
        if c == '/' && i + 1 < bytes.len() {
            match bytes[i + 1] as char {
                '/' => {
                    let start = i;
                    while i < bytes.len() && bytes[i] != b'\n' {
                        i += 1;
                    }
                    out.comments.push(Comment {
                        line,
                        col,
                        offset: start,
                        text: src[start..i].to_string(),
                    });
                    continue;
                }
                '*' => {
                    let start = i;
                    let start_line = line;
                    let mut depth = 1u32;
                    i += 2;
                    while i < bytes.len() && depth > 0 {
                        if bytes[i] == b'\n' {
                            line += 1;
                            i += 1;
                            line_start = i;
                        } else if bytes[i] == b'/' && i + 1 < bytes.len() && bytes[i + 1] == b'*' {
                            depth += 1;
                            i += 2;
                        } else if bytes[i] == b'*' && i + 1 < bytes.len() && bytes[i + 1] == b'/' {
                            depth -= 1;
                            i += 2;
                        } else {
                            i += 1;
                        }
                    }
                    out.comments.push(Comment {
                        line: start_line,
                        col,
                        offset: start,
                        text: src[start..i].to_string(),
                    });
                    continue;
                }
                _ => {}
            }
        }
        // Raw strings / raw identifiers / byte strings.
        if (c == 'r' || c == 'b')
            && scan_raw_or_byte(
                src,
                bytes,
                &mut i,
                &mut line,
                &mut line_start,
                col,
                &mut out,
            )
        {
            continue;
        }
        // Identifiers and keywords.
        if c.is_ascii_alphabetic() || c == '_' {
            let start = i;
            while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                i += 1;
            }
            out.tokens.push(Token {
                kind: TokenKind::Ident,
                text: src[start..i].to_string(),
                line,
                col,
                offset: start,
                in_test: false,
            });
            continue;
        }
        // Numbers.
        if c.is_ascii_digit() {
            let start = i;
            let (text, is_float) = scan_number(src, bytes, &mut i);
            out.tokens.push(Token {
                kind: if is_float {
                    TokenKind::FloatLit
                } else {
                    TokenKind::IntLit
                },
                text,
                line,
                col,
                offset: start,
                in_test: false,
            });
            continue;
        }
        // Strings.
        if c == '"' {
            let start = i;
            i += 1;
            while i < bytes.len() && bytes[i] != b'"' {
                if bytes[i] == b'\\' {
                    // An escape consumes the next byte — which may be the
                    // newline of a `\`-continued line.
                    i += 1;
                }
                if bytes.get(i) == Some(&b'\n') {
                    line += 1;
                    line_start = i + 1;
                }
                i += 1;
            }
            i = (i + 1).min(bytes.len());
            out.tokens.push(Token {
                kind: TokenKind::StrLit,
                text: src[start..i].to_string(),
                line,
                col,
                offset: start,
                in_test: false,
            });
            continue;
        }
        // Char literal vs lifetime.
        if c == '\'' {
            let start = i;
            i += 1;
            let is_lifetime = i < bytes.len()
                && ((bytes[i] as char).is_ascii_alphabetic() || bytes[i] == b'_')
                && !(i + 1 < bytes.len() && bytes[i + 1] == b'\'');
            if is_lifetime {
                while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                    i += 1;
                }
                out.tokens.push(Token {
                    kind: TokenKind::Lifetime,
                    text: src[start..i].to_string(),
                    line,
                    col,
                    offset: start,
                    in_test: false,
                });
            } else {
                while i < bytes.len() && bytes[i] != b'\'' {
                    if bytes[i] == b'\\' {
                        i += 1;
                    }
                    i += 1;
                }
                i = (i + 1).min(bytes.len());
                out.tokens.push(Token {
                    kind: TokenKind::CharLit,
                    text: src[start..i].to_string(),
                    line,
                    col,
                    offset: start,
                    in_test: false,
                });
            }
            continue;
        }
        // Operators: maximal munch against the multi-char table, else one
        // character.
        let rest = &src[i..];
        let mut matched = None;
        for op in OPERATORS {
            if rest.starts_with(op) {
                matched = Some(*op);
                break;
            }
        }
        let op_text = matched.map(str::to_string).unwrap_or_else(|| {
            // Always split on UTF-8 boundaries: take one full char.
            let ch_len = rest.chars().next().map(char::len_utf8).unwrap_or(1);
            rest[..ch_len].to_string()
        });
        let op_start = i;
        i += op_text.len();
        out.tokens.push(Token {
            kind: TokenKind::Op,
            text: op_text,
            line,
            col,
            offset: op_start,
            in_test: false,
        });
    }
    mark_test_regions(&mut out.tokens);
    out
}

/// Handles `r#"…"#`, `r"…"`, `r#ident`, `b"…"`, `br#"…"#`, `b'…'`.
/// Returns true (and advances `i`) if it consumed something.
fn scan_raw_or_byte(
    src: &str,
    bytes: &[u8],
    i: &mut usize,
    line: &mut u32,
    line_start: &mut usize,
    col: u32,
    out: &mut Lexed,
) -> bool {
    let start = *i;
    let start_line = *line;
    let mut j = *i + 1;
    // `br` / `rb` prefixes.
    if j < bytes.len() && (bytes[j] == b'r' || bytes[j] == b'b') && bytes[start] != bytes[j] {
        j += 1;
    }
    // Count `#`s.
    let mut hashes = 0usize;
    while j < bytes.len() && bytes[j] == b'#' {
        hashes += 1;
        j += 1;
    }
    if j < bytes.len() && bytes[j] == b'"' {
        // Raw / byte string: scan to closing quote followed by `hashes` #s.
        j += 1;
        loop {
            if j >= bytes.len() {
                break;
            }
            if bytes[j] == b'\n' {
                *line += 1;
                j += 1;
                *line_start = j;
                continue;
            }
            if bytes[j] == b'"' {
                let mut k = j + 1;
                let mut seen = 0usize;
                while k < bytes.len() && bytes[k] == b'#' && seen < hashes {
                    seen += 1;
                    k += 1;
                }
                if seen == hashes {
                    j = k;
                    break;
                }
            }
            // Plain byte string (`b"…"`, zero hashes) still honors escapes.
            if hashes == 0 && bytes[j] == b'\\' {
                j += 1;
            }
            j += 1;
        }
        out.tokens.push(Token {
            kind: TokenKind::StrLit,
            text: src[start..j.min(src.len())].to_string(),
            line: start_line,
            col,
            offset: start,
            in_test: false,
        });
        *i = j;
        return true;
    }
    if hashes == 1
        && j < bytes.len()
        && ((bytes[j] as char).is_ascii_alphabetic() || bytes[j] == b'_')
    {
        // Raw identifier `r#ident`: emit as a plain ident.
        let id_start = j;
        while j < bytes.len() && (bytes[j].is_ascii_alphanumeric() || bytes[j] == b'_') {
            j += 1;
        }
        out.tokens.push(Token {
            kind: TokenKind::Ident,
            text: src[id_start..j].to_string(),
            line: start_line,
            col,
            offset: id_start,
            in_test: false,
        });
        *i = j;
        return true;
    }
    if bytes[start] == b'b' && start + 1 < bytes.len() && bytes[start + 1] == b'\'' {
        // Byte char literal.
        let mut k = start + 2;
        while k < bytes.len() && bytes[k] != b'\'' {
            if bytes[k] == b'\\' {
                k += 1;
            }
            k += 1;
        }
        k = (k + 1).min(bytes.len());
        out.tokens.push(Token {
            kind: TokenKind::CharLit,
            text: src[start..k].to_string(),
            line: start_line,
            col,
            offset: start,
            in_test: false,
        });
        *i = k;
        return true;
    }
    false
}

/// Scans a numeric literal starting at `*i`; returns `(text, is_float)`.
fn scan_number(src: &str, bytes: &[u8], i: &mut usize) -> (String, bool) {
    let start = *i;
    let mut is_float = false;
    let radix_prefixed = bytes[*i] == b'0'
        && *i + 1 < bytes.len()
        && matches!(bytes[*i + 1], b'x' | b'o' | b'b' | b'X' | b'O' | b'B');
    if radix_prefixed {
        *i += 2;
        while *i < bytes.len() && (bytes[*i].is_ascii_alphanumeric() || bytes[*i] == b'_') {
            *i += 1;
        }
        return (src[start..*i].to_string(), false);
    }
    while *i < bytes.len() && (bytes[*i].is_ascii_digit() || bytes[*i] == b'_') {
        *i += 1;
    }
    // Fractional part — but not `1..2` (range) or `1.method()`.
    if *i < bytes.len()
        && bytes[*i] == b'.'
        && !(*i + 1 < bytes.len()
            && (bytes[*i + 1] == b'.' || (bytes[*i + 1] as char).is_ascii_alphabetic()))
    {
        is_float = true;
        *i += 1;
        while *i < bytes.len() && (bytes[*i].is_ascii_digit() || bytes[*i] == b'_') {
            *i += 1;
        }
    }
    // Exponent.
    if *i < bytes.len() && matches!(bytes[*i], b'e' | b'E') {
        let mut k = *i + 1;
        if k < bytes.len() && matches!(bytes[k], b'+' | b'-') {
            k += 1;
        }
        if k < bytes.len() && bytes[k].is_ascii_digit() {
            is_float = true;
            *i = k;
            while *i < bytes.len() && (bytes[*i].is_ascii_digit() || bytes[*i] == b'_') {
                *i += 1;
            }
        }
    }
    // Type suffix (`f64`, `u32`, …).
    let suffix_start = *i;
    while *i < bytes.len() && (bytes[*i].is_ascii_alphanumeric() || bytes[*i] == b'_') {
        *i += 1;
    }
    if src[suffix_start..*i].starts_with('f') {
        is_float = true;
    }
    (src[start..*i].to_string(), is_float)
}

/// Marks every token inside an item annotated `#[cfg(test)]` (or any
/// `cfg(…)` whose argument mentions `test`) or `#[test]` with
/// `in_test = true`. The "item" is everything up to the matching `}` of
/// the first `{` after the attribute (or up to `;` if one comes first).
fn mark_test_regions(tokens: &mut [Token]) {
    let mut idx = 0usize;
    while idx < tokens.len() {
        if let Some(after_attr) = test_attribute_end(tokens, idx) {
            // Skip any further attributes stacked on the same item.
            let mut j = after_attr;
            while let Some(next) = attribute_end(tokens, j) {
                j = next;
            }
            // Find the item's body: first `{` (mark through its match) or a
            // terminating `;`.
            let mut k = j;
            let mut end = tokens.len();
            while k < tokens.len() {
                let t = &tokens[k].text;
                if tokens[k].kind == TokenKind::Op && t == ";" {
                    end = k + 1;
                    break;
                }
                if tokens[k].kind == TokenKind::Op && t == "{" {
                    let mut depth = 0i64;
                    let mut m = k;
                    while m < tokens.len() {
                        if tokens[m].kind == TokenKind::Op {
                            match tokens[m].text.as_str() {
                                "{" => depth += 1,
                                "}" => {
                                    depth -= 1;
                                    if depth == 0 {
                                        break;
                                    }
                                }
                                _ => {}
                            }
                        }
                        m += 1;
                    }
                    end = (m + 1).min(tokens.len());
                    break;
                }
                k += 1;
            }
            for t in tokens.iter_mut().take(end).skip(idx) {
                t.in_test = true;
            }
            idx = end;
        } else {
            idx += 1;
        }
    }
}

/// If `tokens[idx..]` starts a `#[test]` or `#[cfg(… test …)]` attribute,
/// returns the index just past its closing `]`.
fn test_attribute_end(tokens: &[Token], idx: usize) -> Option<usize> {
    let end = attribute_end(tokens, idx)?;
    let body = &tokens[idx + 2..end - 1];
    let is_bare_test = body.len() == 1 && body[0].text == "test";
    let is_cfg_test = body.first().map(|t| t.text.as_str()) == Some("cfg")
        && body
            .iter()
            .any(|t| t.kind == TokenKind::Ident && t.text == "test");
    (is_bare_test || is_cfg_test).then_some(end)
}

/// If `tokens[idx..]` starts any `#[…]` attribute, returns the index just
/// past its closing `]`.
fn attribute_end(tokens: &[Token], idx: usize) -> Option<usize> {
    if tokens.get(idx).map(|t| t.text.as_str()) != Some("#")
        || tokens.get(idx + 1).map(|t| t.text.as_str()) != Some("[")
    {
        return None;
    }
    let mut depth = 0i64;
    let mut j = idx + 1;
    while j < tokens.len() {
        if tokens[j].kind == TokenKind::Op {
            match tokens[j].text.as_str() {
                "[" => depth += 1,
                "]" => {
                    depth -= 1;
                    if depth == 0 {
                        return Some(j + 1);
                    }
                }
                _ => {}
            }
        }
        j += 1;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comments_are_not_tokens() {
        let lexed = lex("// hello unwrap()\nlet x = 1; /* panic! */");
        assert!(lexed
            .tokens
            .iter()
            .all(|t| t.text != "unwrap" && t.text != "panic"));
        assert_eq!(lexed.comments.len(), 2);
        assert_eq!(lexed.comments[0].line, 1);
        assert_eq!(lexed.comments[1].line, 2);
    }

    #[test]
    fn float_vs_int_literals() {
        let lexed = lex("let a = 1.0; let b = 3; let c = 1e-3; let d = 2f64; let e = 0x10;");
        let kinds: Vec<_> = lexed
            .tokens
            .iter()
            .filter(|t| matches!(t.kind, TokenKind::FloatLit | TokenKind::IntLit))
            .map(|t| t.kind)
            .collect();
        assert_eq!(
            kinds,
            [
                TokenKind::FloatLit,
                TokenKind::IntLit,
                TokenKind::FloatLit,
                TokenKind::FloatLit,
                TokenKind::IntLit
            ]
        );
    }

    #[test]
    fn range_is_not_a_float() {
        let lexed = lex("for i in 0..10 {}");
        assert!(lexed
            .tokens
            .iter()
            .any(|t| t.text == ".." && t.kind == TokenKind::Op));
        assert!(lexed.tokens.iter().all(|t| t.kind != TokenKind::FloatLit));
    }

    #[test]
    fn raw_strings_and_lifetimes() {
        let lexed =
            lex(r##"let s = r#"unwrap() "quoted""#; fn f<'a>(x: &'a str) -> char { 'x' }"##);
        assert!(lexed.tokens.iter().all(|t| t.text != "unwrap"));
        assert!(lexed.tokens.iter().any(|t| t.kind == TokenKind::Lifetime));
        assert!(lexed.tokens.iter().any(|t| t.kind == TokenKind::CharLit));
    }

    #[test]
    fn cfg_test_region_is_marked() {
        let src = "fn live() { x.unwrap(); }\n#[cfg(test)]\nmod tests {\n  fn t() { y.unwrap(); }\n}\nfn tail() {}";
        let lexed = lex(src);
        let unwraps: Vec<bool> = lexed
            .tokens
            .iter()
            .filter(|t| t.text == "unwrap")
            .map(|t| t.in_test)
            .collect();
        assert_eq!(unwraps, [false, true]);
        let tail = lexed
            .tokens
            .iter()
            .find(|t| t.text == "tail")
            .map(|t| t.in_test);
        assert_eq!(tail, Some(false));
    }

    #[test]
    fn multichar_operators_munch() {
        let lexed = lex("a == b; c != d; e::f; g -> h;");
        let ops: Vec<_> = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Op && t.text.len() > 1)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(ops, ["==", "!=", "::", "->"]);
    }

    #[test]
    fn columns_are_char_based_not_byte_based() {
        // `µ` is 2 bytes, `Ω` is 2 bytes: a byte-counting lexer would put
        // `x` at column 13 on line 2 and the comment at column 7 on line 3.
        let src = "/// gain in µA/Ω-ish units\nlet µΩx = 1;\n  /*Ω*/ let y = 2;\n";
        let lexed = lex(src);
        assert_eq!((lexed.comments[0].line, lexed.comments[0].col), (1, 1));
        // Line 2: `let` at col 1, `µ` and `Ω` become 1-char Op tokens,
        // `x` lands at col 7 counted in chars.
        let x = lexed.tokens.iter().find(|t| t.text == "x").expect("x");
        assert_eq!((x.line, x.col), (2, 7));
        // Line 3: block comment starts at char col 3, `let` after it at 9.
        assert_eq!((lexed.comments[1].line, lexed.comments[1].col), (3, 3));
        let let_y = lexed
            .tokens
            .iter()
            .position(|t| t.text == "y")
            .expect("y stmt");
        assert_eq!(lexed.tokens[let_y - 1].text, "let");
        assert_eq!(lexed.tokens[let_y - 1].col, 9);
        assert_eq!(lexed.tokens[let_y].col, 13);
    }

    #[test]
    fn token_offsets_index_exact_source_slices() {
        // Multi-byte chars, comments, raw strings: every token and
        // comment must satisfy `text == src[offset..offset+len]` — the
        // invariant the auto-fix splicer relies on.
        let src = "let µx = 1.5; // c Ω\nfn f(s: &str) -> f64 { r#\"q\"# ; x == 1.5 }\n";
        let lexed = lex(src);
        for t in &lexed.tokens {
            assert_eq!(&src[t.offset..t.offset + t.text.len()], t.text, "{t:?}");
        }
        for c in &lexed.comments {
            assert_eq!(&src[c.offset..c.offset + c.text.len()], c.text, "{c:?}");
        }
    }

    #[test]
    fn columns_after_multiline_string_restart_correctly() {
        let src = "let s = \"a\nb\"; let t = 1;\n";
        let lexed = lex(src);
        let t = lexed.tokens.iter().find(|t| t.text == "t").expect("t");
        // `b"; let t = 1;` — `t` is on line 2 at char column 9.
        assert_eq!((t.line, t.col), (2, 9));
    }

    #[test]
    fn backslash_continued_strings_still_count_their_lines() {
        let src = "let s = \"a \\\n  b \\\n  c\";\nfn f() {}\n";
        let lexed = lex(src);
        let f = lexed.tokens.iter().find(|t| t.text == "f").expect("f");
        assert_eq!(f.line, 4, "each `\\`-newline continuation is a line");
    }
}
