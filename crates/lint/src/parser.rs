//! A dependency-free, fault-tolerant recursive-descent parser from the
//! [`crate::lexer`] token stream to the [`crate::ast`] tree.
//!
//! Design rule: **never fail, never over-claim**. Any construct the
//! parser does not model (macros, patterns, generics, guards) collapses
//! into [`Expr::Opaque`] or is skipped with balanced-delimiter scans, and
//! every loop provably advances the cursor. The analyses built on the
//! AST only report on shapes they fully recognize, so parser
//! lossiness yields false negatives, never false positives — the right
//! failure mode for a CI gate.
//!
//! Known-unparsed constructs (documented false-negative classes, see
//! DESIGN.md §6c): macro invocation bodies, match-arm guards, `let … else`
//! divergence typing, const-generic expressions, and struct-field types.

use crate::ast::{Block, Expr, FnItem, Item, ItemKind, Span, Stmt};
use crate::lexer::{Lexed, Token, TokenKind};

/// Parses a lexed file into a list of items. Never fails: unmodeled
/// regions are skipped or collapsed into `Opaque` nodes.
pub fn parse_items(lexed: &Lexed) -> Vec<Item> {
    let mut p = Parser {
        toks: &lexed.tokens,
        pos: 0,
    };
    p.items_until_close()
}

struct Parser<'a> {
    toks: &'a [Token],
    pos: usize,
}

/// Binding powers for infix operators: `(left, right)`; higher binds
/// tighter. Assignment is right-associative (right < left).
fn infix_bp(op: &str) -> Option<(u8, u8)> {
    Some(match op {
        "=" | "+=" | "-=" | "*=" | "/=" | "%=" | "^=" | "&=" | "|=" | "<<=" | ">>=" => (3, 2),
        ".." | "..=" => (5, 4),
        "||" => (6, 7),
        "&&" => (8, 9),
        "==" | "!=" | "<" | ">" | "<=" | ">=" => (10, 11),
        "|" => (12, 13),
        "^" => (14, 15),
        "&" => (16, 17),
        "<<" | ">>" => (18, 19),
        "+" | "-" => (20, 21),
        "*" | "/" | "%" => (22, 23),
        _ => return None,
    })
}

/// Binding power of prefix operators' operands (tighter than any infix).
const PREFIX_BP: u8 = 24;

/// Pattern tokens that are not bindings (`let mut x`, `ref y`, `_`).
fn is_pattern_keyword(text: &str) -> bool {
    matches!(
        text,
        "mut" | "ref" | "_" | "box" | "self" | "crate" | "super" | "Some" | "Ok" | "Err" | "None"
    )
}

impl<'a> Parser<'a> {
    // ---- cursor utilities -------------------------------------------------

    fn peek(&self) -> Option<&'a Token> {
        self.toks.get(self.pos)
    }

    fn peek_at(&self, off: usize) -> Option<&'a Token> {
        self.toks.get(self.pos + off)
    }

    fn text(&self) -> &'a str {
        self.peek().map(|t| t.text.as_str()).unwrap_or("")
    }

    fn text_at(&self, off: usize) -> &'a str {
        self.peek_at(off).map(|t| t.text.as_str()).unwrap_or("")
    }

    fn span(&self) -> Span {
        self.peek()
            .map(|t| Span {
                line: t.line,
                col: t.col,
            })
            .unwrap_or_default()
    }

    fn bump(&mut self) -> Option<&'a Token> {
        let t = self.toks.get(self.pos);
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, text: &str) -> bool {
        if self.text() == text {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn at_end(&self) -> bool {
        self.pos >= self.toks.len()
    }

    fn is_ident(&self) -> bool {
        self.peek().map(|t| t.kind) == Some(TokenKind::Ident)
    }

    /// Consumes a balanced `(…)`, `[…]` or `{…}` group starting at the
    /// current token (which must be an opener); no-op otherwise.
    fn skip_balanced(&mut self) {
        let close = match self.text() {
            "(" => ")",
            "[" => "]",
            "{" => "}",
            _ => return,
        };
        let open = self.text().to_string();
        let mut depth = 0i64;
        while let Some(t) = self.bump() {
            if t.kind == TokenKind::Op {
                if t.text == open {
                    depth += 1;
                } else if t.text == close {
                    depth -= 1;
                    if depth == 0 {
                        return;
                    }
                }
            }
        }
    }

    /// Consumes a balanced `<…>` generics group starting at `<`.
    /// `->` and `=>` do not close angles; `>>`/`<<` count twice.
    fn skip_angles(&mut self) {
        if self.text() != "<" {
            return;
        }
        let mut depth = 0i64;
        while let Some(t) = self.peek() {
            match t.text.as_str() {
                "<" => depth += 1,
                "<<" => depth += 2,
                ">" => depth -= 1,
                ">>" => depth -= 2,
                // Generics never contain these at depth > 0 in this
                // workspace; bail out rather than scan to EOF.
                ";" | "{" => return,
                _ => {}
            }
            self.pos += 1;
            if depth <= 0 {
                return;
            }
        }
    }

    /// Skips tokens until one of `stops` appears outside any `()`, `[]`,
    /// `{}` or `<>` nesting. The stop token is *not* consumed. `;` always
    /// stops (never crossed), and so does EOF.
    fn skip_until(&mut self, stops: &[&str]) {
        let (mut par, mut brk, mut brc, mut ang) = (0i64, 0i64, 0i64, 0i64);
        while let Some(t) = self.peek() {
            let text = t.text.as_str();
            if par == 0 && brk == 0 && brc == 0 && ang <= 0 {
                if stops.contains(&text) || text == ";" {
                    return;
                }
                if ang < 0 {
                    // A stray `>` closed more than we opened (e.g. the
                    // enclosing generics): stop before it.
                    return;
                }
            }
            match text {
                "(" => par += 1,
                ")" => {
                    if par == 0 && brk == 0 && brc == 0 {
                        return; // closing the enclosing group
                    }
                    par -= 1;
                }
                "[" => brk += 1,
                "]" => {
                    if brk == 0 && par == 0 && brc == 0 {
                        return;
                    }
                    brk -= 1;
                }
                "{" => brc += 1,
                "}" => {
                    if brc == 0 && par == 0 && brk == 0 {
                        return;
                    }
                    brc -= 1;
                }
                "<" => ang += 1,
                "<<" => ang += 2,
                ">" => {
                    if par == 0 && brk == 0 && brc == 0 && ang == 0 {
                        return;
                    }
                    ang -= 1;
                }
                ">>" => ang -= 2,
                _ => {}
            }
            self.pos += 1;
        }
    }

    /// Skips any `#[…]` / `#![…]` attributes at the cursor.
    fn skip_attributes(&mut self) {
        loop {
            if self.text() == "#" && self.text_at(1) == "[" {
                self.pos += 1;
                self.skip_balanced();
            } else if self.text() == "#" && self.text_at(1) == "!" && self.text_at(2) == "[" {
                self.pos += 2;
                self.skip_balanced();
            } else {
                return;
            }
        }
    }

    // ---- items ------------------------------------------------------------

    /// Parses items until `}` (not consumed) or EOF.
    fn items_until_close(&mut self) -> Vec<Item> {
        let mut items = Vec::new();
        while !self.at_end() && self.text() != "}" {
            let before = self.pos;
            if let Some(item) = self.item() {
                items.push(item);
            }
            if self.pos == before {
                self.pos += 1; // guaranteed progress
            }
        }
        items
    }

    /// Parses one item; `None` when only trivia was consumed.
    fn item(&mut self) -> Option<Item> {
        self.skip_attributes();
        if self.at_end() || self.text() == "}" {
            return None;
        }
        let span = self.span();
        let in_test = self.peek().map(|t| t.in_test).unwrap_or(false);
        // Visibility.
        let mut is_pub = false;
        if self.text() == "pub" {
            self.pos += 1;
            if self.text() == "(" {
                self.skip_balanced(); // pub(crate) / pub(super): not API
            } else {
                is_pub = true;
            }
        }
        // Modifiers that may precede `fn`.
        loop {
            match self.text() {
                "default" | "async" => {
                    self.pos += 1;
                }
                "unsafe" if self.text_at(1) != "{" => {
                    self.pos += 1;
                }
                "const" if self.text_at(1) == "fn" => {
                    self.pos += 1;
                }
                "extern" => {
                    self.pos += 1;
                    if self.peek().map(|t| t.kind) == Some(TokenKind::StrLit) {
                        self.pos += 1;
                    }
                    if self.text() == "crate" {
                        self.skip_until(&[]);
                        self.eat(";");
                        return Some(Item {
                            kind: ItemKind::Other,
                            span,
                            is_pub,
                            in_test,
                        });
                    }
                    if self.text() == "{" {
                        self.skip_balanced();
                        return Some(Item {
                            kind: ItemKind::Other,
                            span,
                            is_pub,
                            in_test,
                        });
                    }
                }
                _ => break,
            }
        }
        let kind = match self.text() {
            "use" => {
                self.pos += 1;
                let mut segments = Vec::new();
                while !self.at_end() && self.text() != ";" {
                    if let Some(t) = self.peek() {
                        if t.kind == TokenKind::Ident {
                            segments.push(t.text.clone());
                        }
                    }
                    self.pos += 1;
                }
                self.eat(";");
                ItemKind::Use { segments }
            }
            "mod" => {
                self.pos += 1;
                let name = self.ident_or_empty();
                if self.eat(";") {
                    ItemKind::Mod {
                        name,
                        items: Vec::new(),
                    }
                } else if self.eat("{") {
                    let items = self.items_until_close();
                    self.eat("}");
                    ItemKind::Mod { name, items }
                } else {
                    ItemKind::Other
                }
            }
            "fn" => ItemKind::Fn(Box::new(self.fn_item())),
            "struct" | "enum" | "union" => {
                self.pos += 1;
                let name = self.ident_or_empty();
                // Scan to the defining body / terminating `;`, skipping
                // generics, tuple fields and where clauses.
                loop {
                    self.skip_until(&["{", "("]);
                    match self.text() {
                        "{" => {
                            self.skip_balanced();
                            break;
                        }
                        "(" => {
                            self.skip_balanced();
                            continue;
                        }
                        ";" => {
                            self.pos += 1;
                            break;
                        }
                        _ => break, // EOF / enclosing close
                    }
                }
                ItemKind::TypeDef { name }
            }
            "trait" => {
                self.pos += 1;
                let name = self.ident_or_empty();
                self.skip_until(&["{"]);
                if self.eat("{") {
                    let items = self.items_until_close();
                    self.eat("}");
                    ItemKind::Trait { name, items }
                } else {
                    self.eat(";");
                    ItemKind::Other
                }
            }
            "impl" => {
                self.pos += 1;
                self.skip_until(&["{"]);
                if self.eat("{") {
                    let items = self.items_until_close();
                    self.eat("}");
                    ItemKind::Impl { items }
                } else {
                    self.eat(";");
                    ItemKind::Other
                }
            }
            "const" | "static" => {
                self.pos += 1;
                self.eat("mut");
                let name = self.ident_or_empty();
                self.skip_until(&[]);
                self.eat(";");
                ItemKind::Const { name }
            }
            "type" => {
                self.pos += 1;
                let name = self.ident_or_empty();
                self.skip_until(&[]);
                self.eat(";");
                ItemKind::TypeAlias { name }
            }
            "macro_rules" => {
                self.pos += 1;
                self.eat("!");
                self.ident_or_empty();
                self.skip_balanced();
                ItemKind::Other
            }
            _ => {
                // Macro invocation in item position (`quantity! { … }`),
                // or something unmodeled.
                if self.is_ident() && self.text_at(1) == "!" {
                    self.pos += 2;
                    let delim = self.text().to_string();
                    self.skip_balanced();
                    if delim != "{" {
                        self.eat(";");
                    }
                } else {
                    self.pos += 1;
                }
                ItemKind::Other
            }
        };
        Some(Item {
            kind,
            span,
            is_pub,
            in_test,
        })
    }

    fn ident_or_empty(&mut self) -> String {
        if self.is_ident() {
            self.bump().map(|t| t.text.clone()).unwrap_or_default()
        } else {
            String::new()
        }
    }

    /// Parses `fn name<..>(params) -> ret where .. { body }`; cursor at
    /// the `fn` keyword. Only the name and the body are kept.
    fn fn_item(&mut self) -> FnItem {
        self.eat("fn");
        let name = self.ident_or_empty();
        if self.text() == "<" {
            self.skip_angles();
        }
        if self.text() == "(" {
            self.skip_balanced();
        }
        if self.eat("->") {
            self.skip_until(&["{", "where"]);
        }
        if self.text() == "where" {
            self.skip_until(&["{"]);
        }
        let body = if self.text() == "{" {
            Some(self.block())
        } else {
            self.eat(";");
            None
        };
        FnItem { name, body }
    }

    // ---- blocks and statements --------------------------------------------

    /// Parses a `{ … }` block; cursor at `{`.
    fn block(&mut self) -> Block {
        let span = self.span();
        self.eat("{");
        let mut stmts = Vec::new();
        while !self.at_end() && self.text() != "}" {
            let before = self.pos;
            self.skip_attributes();
            match self.text() {
                "}" => break,
                "let" => self.let_stmt(&mut stmts),
                "fn" | "use" | "mod" | "struct" | "enum" | "union" | "trait" | "impl"
                | "static" | "type" | "macro_rules" | "pub" | "const" => {
                    if let Some(item) = self.item() {
                        stmts.push(Stmt::Item(item));
                    }
                }
                "unsafe" if self.text_at(1) != "{" => {
                    if let Some(item) = self.item() {
                        stmts.push(Stmt::Item(item));
                    }
                }
                ";" => {
                    self.pos += 1;
                }
                _ => {
                    let e = self.expr(0, true);
                    stmts.push(Stmt::Expr(e));
                    self.eat(";");
                }
            }
            if self.pos == before {
                self.pos += 1;
            }
        }
        self.eat("}");
        Block { stmts, span }
    }

    /// Parses `let pat [: ty] [= init] [else { … }];` into one or two
    /// statements (the `else` block is kept as a trailing expression so
    /// its contents stay visible to the analyses).
    fn let_stmt(&mut self, stmts: &mut Vec<Stmt>) {
        let span = self.span();
        self.eat("let");
        let pat_start = self.pos;
        self.skip_until(&[":", "="]);
        let names = self.binding_idents(pat_start, self.pos);
        if self.eat(":") {
            self.skip_until(&["="]);
        }
        let mut init = None;
        if self.eat("=") {
            init = Some(self.expr(0, true));
        }
        stmts.push(Stmt::Let { names, init, span });
        if self.eat("else") && self.text() == "{" {
            stmts.push(Stmt::Expr(Expr::Block(self.block())));
        }
        self.eat(";");
    }

    /// Identifiers bound by a pattern in `toks[start..end]`: idents that
    /// are not pattern keywords and not enum/struct constructor paths
    /// (followed by `::`, `(` or `{`).
    fn binding_idents(&self, start: usize, end: usize) -> Vec<String> {
        let mut names = Vec::new();
        for (off, t) in self.toks[start..end].iter().enumerate() {
            let i = start + off;
            if t.kind != TokenKind::Ident || is_pattern_keyword(&t.text) {
                continue;
            }
            let next = self
                .toks
                .get(i + 1)
                .filter(|_| i + 1 < end)
                .map(|n| n.text.as_str())
                .unwrap_or("");
            if matches!(next, "::" | "(" | "{" | "!") {
                continue; // constructor path or macro, not a binding
            }
            let prev = if i > start {
                self.toks[i - 1].text.as_str()
            } else {
                ""
            };
            if prev == "::" {
                continue;
            }
            names.push(t.text.clone());
        }
        names
    }

    // ---- expressions ------------------------------------------------------

    /// Pratt expression parser. `allow_struct` gates `Path { … }` struct
    /// literals (off inside `if`/`while`/`match`/`for` headers).
    fn expr(&mut self, min_bp: u8, allow_struct: bool) -> Expr {
        let mut lhs = self.prefix(allow_struct);
        loop {
            // Postfix operators bind tightest.
            match self.text() {
                "." => {
                    let span = self.span();
                    self.pos += 1;
                    match self.peek().map(|t| t.kind) {
                        Some(TokenKind::Ident) => {
                            let name = self.bump().map(|t| t.text.clone()).unwrap_or_default();
                            if self.text() == "::" && self.text_at(1) == "<" {
                                self.pos += 1;
                                self.skip_angles(); // turbofish
                            }
                            if self.text() == "(" {
                                let args = self.call_args();
                                lhs = Expr::MethodCall {
                                    recv: Box::new(lhs),
                                    method: name,
                                    args,
                                    span,
                                };
                            } else {
                                lhs = Expr::Field {
                                    recv: Box::new(lhs),
                                    name,
                                    span,
                                };
                            }
                        }
                        Some(TokenKind::IntLit) | Some(TokenKind::FloatLit) => {
                            let name = self.bump().map(|t| t.text.clone()).unwrap_or_default();
                            lhs = Expr::Field {
                                recv: Box::new(lhs),
                                name,
                                span,
                            };
                        }
                        _ => {
                            lhs = Expr::Opaque { span };
                        }
                    }
                    continue;
                }
                "(" => {
                    let span = lhs.span();
                    let args = self.call_args();
                    lhs = Expr::Call {
                        callee: Box::new(lhs),
                        args,
                        span,
                    };
                    continue;
                }
                "[" => {
                    let span = self.span();
                    self.pos += 1;
                    let index = self.expr(0, true);
                    self.eat("]");
                    lhs = Expr::Index {
                        recv: Box::new(lhs),
                        index: Box::new(index),
                        span,
                    };
                    continue;
                }
                "?" => {
                    self.pos += 1;
                    continue; // error-propagation is value-transparent
                }
                "as" => {
                    if PREFIX_BP < min_bp {
                        break;
                    }
                    let span = self.span();
                    self.pos += 1;
                    self.skip_cast_type();
                    lhs = Expr::Cast {
                        expr: Box::new(lhs),
                        span,
                    };
                    continue;
                }
                _ => {}
            }
            let op = self.text();
            let Some((l_bp, r_bp)) = infix_bp(op) else {
                break;
            };
            if l_bp < min_bp {
                break;
            }
            let span = self.span();
            let op = op.to_string();
            self.pos += 1;
            let rhs = self.expr(r_bp, allow_struct);
            lhs = if op.ends_with('=') && !matches!(op.as_str(), "==" | "!=" | "<=" | ">=" | "..=")
            {
                Expr::Assign {
                    op,
                    target: Box::new(lhs),
                    value: Box::new(rhs),
                    span,
                }
            } else {
                Expr::Binary {
                    op,
                    lhs: Box::new(lhs),
                    rhs: Box::new(rhs),
                    span,
                }
            };
        }
        lhs
    }

    /// Parses the type after `as` (a small subset: references, raw
    /// pointers, paths with generics, parenthesized types).
    fn skip_cast_type(&mut self) {
        loop {
            match self.text() {
                "&" => {
                    self.pos += 1;
                    self.eat("mut");
                }
                "*" => {
                    self.pos += 1;
                    self.eat("const");
                    self.eat("mut");
                }
                _ => break,
            }
        }
        if self.text() == "(" {
            self.skip_balanced();
            return;
        }
        while self.is_ident() {
            self.pos += 1;
            if self.text() == "<" {
                self.skip_angles();
            }
            if !self.eat("::") {
                break;
            }
        }
    }

    /// Parses a parenthesized argument list; cursor at `(`.
    fn call_args(&mut self) -> Vec<Expr> {
        let mut args = Vec::new();
        self.eat("(");
        while !self.at_end() && self.text() != ")" {
            args.push(self.expr(0, true));
            if !self.eat(",") {
                break;
            }
        }
        self.eat(")");
        args
    }

    /// Parses a prefix / primary expression.
    fn prefix(&mut self, allow_struct: bool) -> Expr {
        self.skip_attributes();
        let span = self.span();
        let Some(tok) = self.peek() else {
            return Expr::Opaque { span };
        };
        match tok.kind {
            TokenKind::FloatLit | TokenKind::IntLit | TokenKind::StrLit | TokenKind::CharLit => {
                self.pos += 1;
                return Expr::Lit { span };
            }
            TokenKind::Lifetime => {
                // Labeled block/loop: `'outer: loop { … }`.
                self.pos += 1;
                self.eat(":");
                return self.prefix(allow_struct);
            }
            _ => {}
        }
        match self.text() {
            "-" | "!" => {
                let op = self.text().to_string();
                self.pos += 1;
                let e = self.expr(PREFIX_BP, allow_struct);
                Expr::Unary {
                    op,
                    expr: Box::new(e),
                    span,
                }
            }
            "&" | "&&" => {
                // `&&x` is two reborrows.
                if self.text() == "&&" {
                    self.pos += 1;
                } else {
                    self.pos += 1;
                    self.eat("mut");
                }
                let e = self.expr(PREFIX_BP, allow_struct);
                Expr::Unary {
                    op: "&".to_string(),
                    expr: Box::new(e),
                    span,
                }
            }
            "*" => {
                self.pos += 1;
                let e = self.expr(PREFIX_BP, allow_struct);
                Expr::Unary {
                    op: "*".to_string(),
                    expr: Box::new(e),
                    span,
                }
            }
            "move" => {
                self.pos += 1;
                self.prefix(allow_struct)
            }
            "|" | "||" => self.closure(span),
            "(" => {
                self.pos += 1;
                let mut items = Vec::new();
                while !self.at_end() && self.text() != ")" {
                    items.push(self.expr(0, true));
                    if !self.eat(",") {
                        break;
                    }
                }
                self.eat(")");
                if items.len() == 1 {
                    items.pop().unwrap_or(Expr::Opaque { span })
                } else {
                    Expr::Seq { items, span }
                }
            }
            "[" => {
                self.pos += 1;
                let mut items = Vec::new();
                while !self.at_end() && self.text() != "]" {
                    items.push(self.expr(0, true));
                    if !self.eat(",") && !self.eat(";") {
                        break;
                    }
                }
                self.eat("]");
                Expr::Seq { items, span }
            }
            "{" => Expr::Block(self.block()),
            "unsafe" if self.text_at(1) == "{" => {
                self.pos += 1;
                Expr::Block(self.block())
            }
            "if" => self.if_expr(span),
            "while" => {
                self.pos += 1;
                if self.eat("let") {
                    self.skip_until(&["="]);
                    self.eat("=");
                }
                let cond = self.expr(0, false);
                let body = if self.text() == "{" {
                    self.block()
                } else {
                    Block {
                        stmts: Vec::new(),
                        span,
                    }
                };
                Expr::While {
                    cond: Box::new(cond),
                    body,
                    span,
                }
            }
            "loop" => {
                self.pos += 1;
                let body = if self.text() == "{" {
                    self.block()
                } else {
                    Block {
                        stmts: Vec::new(),
                        span,
                    }
                };
                Expr::While {
                    cond: Box::new(Expr::Opaque { span }),
                    body,
                    span,
                }
            }
            "for" => {
                self.pos += 1;
                let pat_start = self.pos;
                // The pattern cannot contain the `in` keyword.
                while !self.at_end() && self.text() != "in" && self.text() != "{" {
                    self.pos += 1;
                }
                let bindings = self.binding_idents(pat_start, self.pos);
                self.eat("in");
                let iter = self.expr(0, false);
                let body = if self.text() == "{" {
                    self.block()
                } else {
                    Block {
                        stmts: Vec::new(),
                        span,
                    }
                };
                Expr::For {
                    bindings,
                    iter: Box::new(iter),
                    body,
                    span,
                }
            }
            "match" => {
                self.pos += 1;
                let scrutinee = self.expr(0, false);
                let mut arms = Vec::new();
                if self.eat("{") {
                    while !self.at_end() && self.text() != "}" {
                        let before = self.pos;
                        self.skip_attributes();
                        self.skip_until(&["=>"]);
                        if self.eat("=>") {
                            arms.push(self.expr(0, true));
                            self.eat(",");
                        }
                        if self.pos == before {
                            self.pos += 1;
                        }
                    }
                    self.eat("}");
                }
                Expr::Match {
                    scrutinee: Box::new(scrutinee),
                    arms,
                    span,
                }
            }
            "return" | "break" | "continue" => {
                let op = self.text().to_string();
                self.pos += 1;
                if matches!(self.text(), ";" | ")" | "," | "}" | "]") || self.at_end() {
                    Expr::Opaque { span }
                } else {
                    let e = self.expr(0, allow_struct);
                    Expr::Unary {
                        op,
                        expr: Box::new(e),
                        span,
                    }
                }
            }
            ".." | "..=" => {
                self.pos += 1;
                if !matches!(self.text(), ";" | ")" | "," | "}" | "]") && !self.at_end() {
                    self.expr(5, allow_struct);
                }
                Expr::Opaque { span }
            }
            _ if self.is_ident() => self.path_expr(span, allow_struct),
            _ => {
                self.pos += 1;
                Expr::Opaque { span }
            }
        }
    }

    /// Parses a closure; cursor at `|` or `||`.
    fn closure(&mut self, span: Span) -> Expr {
        let mut params = Vec::new();
        if self.eat("||") {
            // no parameters
        } else {
            self.eat("|");
            let start = self.pos;
            // Scan to the closing `|` at depth 0.
            let (mut par, mut brk, mut ang) = (0i64, 0i64, 0i64);
            while let Some(t) = self.peek() {
                match t.text.as_str() {
                    "(" => par += 1,
                    ")" => par -= 1,
                    "[" => brk += 1,
                    "]" => brk -= 1,
                    "<" => ang += 1,
                    ">" => ang -= 1,
                    "|" if par == 0 && brk == 0 && ang <= 0 => break,
                    "{" | ";" => break, // malformed; bail
                    _ => {}
                }
                self.pos += 1;
            }
            params = self.binding_idents(start, self.pos);
            self.eat("|");
        }
        if self.eat("->") {
            self.skip_until(&["{"]);
        }
        let body = self.expr(2, true);
        Expr::Closure {
            params,
            body: Box::new(body),
            span,
        }
    }

    /// Parses an `if` (or `if let`) expression; cursor at `if`.
    fn if_expr(&mut self, span: Span) -> Expr {
        self.eat("if");
        if self.eat("let") {
            self.skip_until(&["="]);
            self.eat("=");
        }
        let cond = self.expr(0, false);
        let then = if self.text() == "{" {
            self.block()
        } else {
            Block {
                stmts: Vec::new(),
                span,
            }
        };
        let els = if self.eat("else") {
            if self.text() == "if" {
                let espan = self.span();
                Some(Box::new(self.if_expr(espan)))
            } else if self.text() == "{" {
                Some(Box::new(Expr::Block(self.block())))
            } else {
                None
            }
        } else {
            None
        };
        Expr::If {
            cond: Box::new(cond),
            then,
            els,
            span,
        }
    }

    /// Parses a path expression (`a::b::c`), then a struct literal, macro
    /// invocation or plain path.
    fn path_expr(&mut self, span: Span, allow_struct: bool) -> Expr {
        let mut segments = Vec::new();
        segments.push(self.bump().map(|t| t.text.clone()).unwrap_or_default());
        loop {
            if self.text() == "::" {
                if self.text_at(1) == "<" {
                    self.pos += 1;
                    self.skip_angles(); // turbofish
                    continue;
                }
                if self.peek_at(1).map(|t| t.kind) == Some(TokenKind::Ident) {
                    self.pos += 1;
                    segments.push(self.bump().map(|t| t.text.clone()).unwrap_or_default());
                    continue;
                }
            }
            break;
        }
        // Macro invocation: `name!(…)` / `name![…]` / `name!{…}`. The
        // body is skipped (lossy, false-negative direction) but the name
        // survives so hot-path rules can see `format!`/`vec!`/`println!`.
        if self.text() == "!" && matches!(self.text_at(1), "(" | "[" | "{") {
            self.pos += 1;
            self.skip_balanced();
            let name = segments.last().cloned().unwrap_or_default();
            return Expr::MacroCall { name, span };
        }
        // Struct literal.
        if allow_struct && self.text() == "{" && self.looks_like_struct_lit() {
            self.pos += 1;
            let mut fields = Vec::new();
            while !self.at_end() && self.text() != "}" {
                if self.eat("..") {
                    // Functional update: `..base`.
                    fields.push(self.expr(0, true));
                    break;
                }
                if self.is_ident() && self.text_at(1) == ":" {
                    self.pos += 2;
                    fields.push(self.expr(0, true));
                } else {
                    fields.push(self.expr(0, true)); // shorthand
                }
                if !self.eat(",") {
                    break;
                }
            }
            self.eat("}");
            return Expr::StructLit { fields, span };
        }
        Expr::Path { segments, span }
    }

    /// Lookahead heuristic: does `{ …` after a path open a struct
    /// literal? True for `{}`, `{ ident: …`, `{ ident,`, `{ ident }` and
    /// `{ ..base }` — everything else is treated as a block.
    fn looks_like_struct_lit(&self) -> bool {
        match self.text_at(1) {
            "}" | ".." => true,
            _ => {
                self.peek_at(1).map(|t| t.kind) == Some(TokenKind::Ident)
                    && matches!(self.text_at(2), ":" | "," | "}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse(src: &str) -> Vec<Item> {
        parse_items(&lex(src))
    }

    fn only_fn(items: &[Item]) -> &FnItem {
        for it in items {
            if let ItemKind::Fn(f) = &it.kind {
                return f;
            }
        }
        panic!("no fn parsed");
    }

    #[test]
    fn parses_fn_with_params_and_body() {
        let items = parse("pub fn f(a: f64, b: Volts) -> f64 { let c = a + 1.0; c }");
        assert!(items[0].is_pub);
        let f = only_fn(&items);
        assert_eq!(f.name, "f");
        let body = f.body.as_ref().expect("body");
        assert_eq!(body.stmts.len(), 2);
        match &body.stmts[0] {
            Stmt::Let { names, init, .. } => {
                assert_eq!(names.as_slice(), ["c"]);
                assert!(matches!(init, Some(Expr::Binary { op, .. }) if op == "+"));
            }
            other => panic!("expected let, got {other:?}"),
        }
    }

    #[test]
    fn method_chains_and_calls() {
        let items = parse("fn f() { x.as_millivolts().abs(); Volts::from_millivolts(1.0); }");
        let f = only_fn(&items);
        let body = f.body.as_ref().expect("body");
        match &body.stmts[0] {
            Stmt::Expr(Expr::MethodCall { method, recv, .. }) => {
                assert_eq!(method, "abs");
                assert!(
                    matches!(&**recv, Expr::MethodCall { method, .. } if method == "as_millivolts")
                );
            }
            other => panic!("expected chain, got {other:?}"),
        }
        match &body.stmts[1] {
            Stmt::Expr(Expr::Call { callee, args, .. }) => {
                assert!(matches!(&**callee, Expr::Path { segments, .. }
                        if segments.as_slice() == ["Volts", "from_millivolts"]));
                assert_eq!(args.len(), 1);
            }
            other => panic!("expected call, got {other:?}"),
        }
    }

    #[test]
    fn closures_and_for_loops() {
        let items = parse("fn f() { par_map(p, &xs, |_, x| x + 1.0); for (k, v) in m { k; } }");
        let f = only_fn(&items);
        let body = f.body.as_ref().expect("body");
        match &body.stmts[0] {
            Stmt::Expr(Expr::Call { args, .. }) => match &args[2] {
                Expr::Closure { params, body, .. } => {
                    assert_eq!(params.as_slice(), ["x"]);
                    assert!(matches!(&**body, Expr::Binary { .. }));
                }
                other => panic!("expected closure, got {other:?}"),
            },
            other => panic!("expected call, got {other:?}"),
        }
        match &body.stmts[1] {
            Stmt::Expr(Expr::For { bindings, .. }) => {
                assert_eq!(bindings.as_slice(), ["k", "v"]);
            }
            other => panic!("expected for, got {other:?}"),
        }
    }

    #[test]
    fn struct_literal_vs_block_disambiguation() {
        let items = parse("fn f() { if x { y() } let p = Point { x: 1, y: 2 }; }");
        let f = only_fn(&items);
        let body = f.body.as_ref().expect("body");
        assert!(matches!(&body.stmts[0], Stmt::Expr(Expr::If { .. })));
        match &body.stmts[1] {
            Stmt::Let { init, .. } => {
                assert!(matches!(init, Some(Expr::StructLit { fields, .. }) if fields.len() == 2));
            }
            other => panic!("expected let, got {other:?}"),
        }
    }

    #[test]
    fn items_nest_through_mods_impls_traits() {
        let items = parse(
            "mod m { impl Foo { pub fn g(&self) {} } trait T { fn d(&self) { x(); } } }\n\
             use a::b::{c, d};",
        );
        let mut fn_names = Vec::new();
        for it in &items {
            it.visit_fns(&mut |_, f| fn_names.push(f.name.clone()));
        }
        assert_eq!(fn_names, ["g", "d"]);
        let uses: Vec<_> = items
            .iter()
            .filter_map(|i| match &i.kind {
                ItemKind::Use { segments } => Some(segments.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(uses, [["a", "b", "c", "d"]]);
    }

    #[test]
    fn generics_turbofish_and_matches_do_not_derail() {
        let items = parse(
            "fn f<T: Ord>(xs: Vec<Vec<f64>>) -> BTreeMap<u32, f64> {\n\
               let v = xs.iter().map(|r| r[0]).collect::<Vec<_>>();\n\
               match v.first() { Some(x) => *x, None => 0.0 }\n\
             }",
        );
        let f = only_fn(&items);
        assert_eq!(f.name, "f");
        let body = f.body.as_ref().expect("body");
        assert!(matches!(
            body.stmts.last(),
            Some(Stmt::Expr(Expr::Match { arms, .. })) if arms.len() == 2
        ));
    }

    #[test]
    fn macro_invocations_keep_name_drop_body() {
        let items = parse("fn f() { assert!(x > 0.0); let v = std::vec![1.0, 2.0]; }");
        let f = only_fn(&items);
        let body = f.body.as_ref().expect("body");
        assert!(matches!(
            &body.stmts[0],
            Stmt::Expr(Expr::MacroCall { name, .. }) if name == "assert"
        ));
        assert!(matches!(
            &body.stmts[1],
            Stmt::Let {
                init: Some(Expr::MacroCall { name, .. }),
                ..
            } if name == "vec"
        ));
    }

    #[test]
    fn literals_and_unary_ops_are_captured() {
        let items = parse(
            "fn f() -> f64 { let a = 1_000.5f64; let b = 0x10; let c = -2.0; let d = &a; a }",
        );
        let f = only_fn(&items);
        let body = f.body.as_ref().expect("body");
        let init = |i: usize| match &body.stmts[i] {
            Stmt::Let { init: Some(e), .. } => e,
            other => panic!("expected let, got {other:?}"),
        };
        assert!(matches!(init(0), Expr::Lit { .. }));
        assert!(matches!(init(1), Expr::Lit { .. }));
        match init(2) {
            Expr::Unary { op, expr, .. } => {
                assert_eq!(op, "-");
                assert!(matches!(&**expr, Expr::Lit { .. }));
            }
            other => panic!("expected unary, got {other:?}"),
        }
        assert!(matches!(init(3), Expr::Unary { op, .. } if op == "&"));
    }

    #[test]
    fn every_workspace_shape_terminates() {
        // Torture mix: raw idents, labels, let-else, casts, ranges,
        // nested closures, tuple fields.
        let src = r#"
            pub(crate) fn g(t: &mut (f64, u32)) -> Result<(), E> {
                'outer: loop { break 'outer; }
                let Some(x) = opt else { return Err(E::new()); };
                let y = (x as f64) * 2.0;
                let z = t.0 + y;
                for i in 0..10 { let _ = i; }
                Ok(())
            }
            quantity! { Volts, "V", scaled { from_mv / as_mv: 1e-3 } }
        "#;
        let items = parse(src);
        assert!(items.iter().any(|i| matches!(i.kind, ItemKind::Fn(_))));
    }
}
