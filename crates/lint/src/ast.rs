//! The expression/item AST the hot-path and layering analyses walk.
//!
//! This is a *lossy* abstract syntax tree: it keeps exactly the structure
//! [`crate::hotpath`] and [`crate::depgraph`] reason about — items,
//! functions, let-bindings, calls, method chains, closures, loops — and
//! collapses everything else into [`Expr::Opaque`].
//! Losing structure is always safe for the rules built on top: they are
//! written to report only on shapes they fully recognize, so an opaque
//! node can produce a false *negative*, never a false positive.
//!
//! Every node carries a [`Span`] (1-based line, 1-based character column)
//! that maps straight onto the `(rule, file, excerpt)` reporting scheme
//! from the token-pattern engine.

/// Source position of a node: 1-based line, 1-based character column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Span {
    pub line: u32,
    pub col: u32,
}

/// One parsed item (top-level or nested in a `mod`/`impl`/`trait` body).
#[derive(Debug)]
pub struct Item {
    pub kind: ItemKind,
    pub span: Span,
    /// `pub` without a restriction (`pub(crate)` etc. does not count).
    pub is_pub: bool,
    /// True when the item sits inside a `#[cfg(test)]` / `#[test]` region.
    pub in_test: bool,
}

/// What kind of item it is. Bodies the analyses do not look into
/// (struct fields, macro definitions, …) are not retained.
#[derive(Debug)]
pub enum ItemKind {
    /// `use a::b::{c, d};` — every path segment identifier, flattened.
    Use { segments: Vec<String> },
    /// A function with an optionally parsed body.
    Fn(Box<FnItem>),
    /// An inline module with its items.
    Mod { name: String, items: Vec<Item> },
    /// A struct / enum / union definition (name only).
    TypeDef { name: String },
    /// A trait definition and the items inside it (default bodies parse).
    Trait { name: String, items: Vec<Item> },
    /// An `impl` block and the items inside it.
    Impl { items: Vec<Item> },
    /// A `const` or `static` (name only).
    Const { name: String },
    /// A `type` alias (name only).
    TypeAlias { name: String },
    /// Anything else (macro definition/invocation, extern block, …).
    Other,
}

/// A function item (the signature is skipped).
#[derive(Debug)]
pub struct FnItem {
    pub name: String,
    /// `None` for bodyless signatures (trait methods, extern fns).
    pub body: Option<Block>,
}

/// A `{ … }` block.
#[derive(Debug)]
pub struct Block {
    pub stmts: Vec<Stmt>,
    pub span: Span,
}

/// One statement in a block.
#[derive(Debug)]
pub enum Stmt {
    /// `let pat [: ty] = init;` — `names` are the idents the pattern
    /// binds (one entry for a simple `let x =`), `init` the initializer.
    Let {
        names: Vec<String>,
        init: Option<Expr>,
        span: Span,
    },
    /// An expression statement (with or without `;`).
    Expr(Expr),
    /// A nested item (fn/use/… inside a block).
    Item(Item),
}

/// An expression. `Opaque` stands in for anything the parser does not
/// model; it never has children.
#[derive(Debug)]
pub enum Expr {
    /// `a::b::c` (turbofish dropped). One segment for a plain variable.
    Path { segments: Vec<String>, span: Span },
    /// Numeric/string/char literal.
    Lit { span: Span },
    /// Prefix `-`/`!`/`*`/`&`/`&mut`/`return`/`break` — `op` keeps the
    /// operator spelling.
    Unary {
        op: String,
        expr: Box<Expr>,
        span: Span,
    },
    /// `lhs op rhs` for non-assignment binary operators.
    Binary {
        op: String,
        lhs: Box<Expr>,
        rhs: Box<Expr>,
        span: Span,
    },
    /// `target op value` for `=`, `+=`, `-=`, `*=`, `/=`, …
    Assign {
        op: String,
        target: Box<Expr>,
        value: Box<Expr>,
        span: Span,
    },
    /// `recv.method(args)`.
    MethodCall {
        recv: Box<Expr>,
        method: String,
        args: Vec<Expr>,
        span: Span,
    },
    /// `recv.field` (also tuple indices).
    Field {
        recv: Box<Expr>,
        name: String,
        span: Span,
    },
    /// `callee(args)`.
    Call {
        callee: Box<Expr>,
        args: Vec<Expr>,
        span: Span,
    },
    /// `recv[index]`.
    Index {
        recv: Box<Expr>,
        index: Box<Expr>,
        span: Span,
    },
    /// `|params| body` / `move |params| body`.
    Closure {
        params: Vec<String>,
        body: Box<Expr>,
        span: Span,
    },
    /// `{ … }` (incl. `unsafe { … }`, `loop { … }`).
    Block(Block),
    /// `if cond { then } [else …]` (`else` arm is a Block or another If).
    If {
        cond: Box<Expr>,
        then: Block,
        els: Option<Box<Expr>>,
        span: Span,
    },
    /// `match scrutinee { pat => expr, … }` — arm patterns dropped.
    Match {
        scrutinee: Box<Expr>,
        arms: Vec<Expr>,
        span: Span,
    },
    /// `for <bindings> in iter { body }`.
    For {
        bindings: Vec<String>,
        iter: Box<Expr>,
        body: Block,
        span: Span,
    },
    /// `while cond { body }` (incl. `while let`, condition kept).
    While {
        cond: Box<Expr>,
        body: Block,
        span: Span,
    },
    /// `expr as Type` (the type is skipped).
    Cast { expr: Box<Expr>, span: Span },
    /// Array/tuple literal `[a, b]` / `(a, b)`.
    Seq { items: Vec<Expr>, span: Span },
    /// `Path { field: expr, … }` struct literal (field values kept).
    StructLit { fields: Vec<Expr>, span: Span },
    /// `name!(…)` macro invocation. `name` is the last path segment;
    /// the token soup inside the delimiters is dropped, so a macro body
    /// can only hide violations (false-negative direction), never fire
    /// them — but the *name* is visible to allocation/blocking rules
    /// (`format!`, `vec!`, `println!`).
    MacroCall { name: String, span: Span },
    /// Anything unmodeled (range, `?`-chain tail, …).
    Opaque { span: Span },
}

impl Expr {
    /// The source position of the expression.
    pub fn span(&self) -> Span {
        match self {
            Expr::Path { span, .. }
            | Expr::Lit { span, .. }
            | Expr::Unary { span, .. }
            | Expr::Binary { span, .. }
            | Expr::Assign { span, .. }
            | Expr::MethodCall { span, .. }
            | Expr::Field { span, .. }
            | Expr::Call { span, .. }
            | Expr::Index { span, .. }
            | Expr::Closure { span, .. }
            | Expr::If { span, .. }
            | Expr::Match { span, .. }
            | Expr::For { span, .. }
            | Expr::While { span, .. }
            | Expr::Cast { span, .. }
            | Expr::Seq { span, .. }
            | Expr::StructLit { span, .. }
            | Expr::MacroCall { span, .. }
            | Expr::Opaque { span } => *span,
            Expr::Block(b) => b.span,
        }
    }

    /// Calls `f` on this expression and every sub-expression, pre-order.
    /// Blocks recurse through their statements (items included).
    pub fn visit<'a>(&'a self, f: &mut impl FnMut(&'a Expr)) {
        f(self);
        match self {
            Expr::Path { .. } | Expr::Lit { .. } | Expr::MacroCall { .. } | Expr::Opaque { .. } => {
            }
            Expr::Unary { expr, .. } | Expr::Cast { expr, .. } => expr.visit(f),
            Expr::Binary { lhs, rhs, .. } => {
                lhs.visit(f);
                rhs.visit(f);
            }
            Expr::Assign { target, value, .. } => {
                target.visit(f);
                value.visit(f);
            }
            Expr::MethodCall { recv, args, .. } => {
                recv.visit(f);
                for a in args {
                    a.visit(f);
                }
            }
            Expr::Field { recv, .. } => recv.visit(f),
            Expr::Call { callee, args, .. } => {
                callee.visit(f);
                for a in args {
                    a.visit(f);
                }
            }
            Expr::Index { recv, index, .. } => {
                recv.visit(f);
                index.visit(f);
            }
            Expr::Closure { body, .. } => body.visit(f),
            Expr::Block(b) => b.visit(f),
            Expr::If {
                cond, then, els, ..
            } => {
                cond.visit(f);
                then.visit(f);
                if let Some(e) = els {
                    e.visit(f);
                }
            }
            Expr::Match {
                scrutinee, arms, ..
            } => {
                scrutinee.visit(f);
                for a in arms {
                    a.visit(f);
                }
            }
            Expr::For { iter, body, .. } => {
                iter.visit(f);
                body.visit(f);
            }
            Expr::While { cond, body, .. } => {
                cond.visit(f);
                body.visit(f);
            }
            Expr::Seq { items, .. } | Expr::StructLit { fields: items, .. } => {
                for e in items {
                    e.visit(f);
                }
            }
        }
    }

    /// As [`Self::visit`], but passes each visited expression's *loop
    /// depth*: how many `for`/`while` bodies enclose it, starting from
    /// `depth`. Closure bodies do not add depth — whether a closure runs
    /// per element is its caller's contract, and guessing would move the
    /// engine's lossiness out of the false-negative direction.
    pub fn visit_depth<'a>(&'a self, depth: u32, f: &mut impl FnMut(&'a Expr, u32)) {
        f(self, depth);
        match self {
            Expr::Path { .. } | Expr::Lit { .. } | Expr::MacroCall { .. } | Expr::Opaque { .. } => {
            }
            Expr::Unary { expr, .. } | Expr::Cast { expr, .. } => expr.visit_depth(depth, f),
            Expr::Binary { lhs, rhs, .. } => {
                lhs.visit_depth(depth, f);
                rhs.visit_depth(depth, f);
            }
            Expr::Assign { target, value, .. } => {
                target.visit_depth(depth, f);
                value.visit_depth(depth, f);
            }
            Expr::MethodCall { recv, args, .. } => {
                recv.visit_depth(depth, f);
                for a in args {
                    a.visit_depth(depth, f);
                }
            }
            Expr::Field { recv, .. } => recv.visit_depth(depth, f),
            Expr::Call { callee, args, .. } => {
                callee.visit_depth(depth, f);
                for a in args {
                    a.visit_depth(depth, f);
                }
            }
            Expr::Index { recv, index, .. } => {
                recv.visit_depth(depth, f);
                index.visit_depth(depth, f);
            }
            Expr::Closure { body, .. } => body.visit_depth(depth, f),
            Expr::Block(b) => b.visit_depth(depth, f),
            Expr::If {
                cond, then, els, ..
            } => {
                cond.visit_depth(depth, f);
                then.visit_depth(depth, f);
                if let Some(e) = els {
                    e.visit_depth(depth, f);
                }
            }
            Expr::Match {
                scrutinee, arms, ..
            } => {
                scrutinee.visit_depth(depth, f);
                for a in arms {
                    a.visit_depth(depth, f);
                }
            }
            Expr::For { iter, body, .. } => {
                iter.visit_depth(depth, f);
                body.visit_depth(depth + 1, f);
            }
            Expr::While { cond, body, .. } => {
                cond.visit_depth(depth, f);
                body.visit_depth(depth + 1, f);
            }
            Expr::Seq { items, .. } | Expr::StructLit { fields: items, .. } => {
                for e in items {
                    e.visit_depth(depth, f);
                }
            }
        }
    }
}

impl Block {
    /// Calls `f` on every expression in the block, pre-order.
    pub fn visit<'a>(&'a self, f: &mut impl FnMut(&'a Expr)) {
        for stmt in &self.stmts {
            match stmt {
                Stmt::Let { init: Some(e), .. } => e.visit(f),
                Stmt::Let { .. } => {}
                Stmt::Expr(e) => e.visit(f),
                Stmt::Item(item) => item.visit_exprs(f),
            }
        }
    }

    /// Depth-tracking variant of [`Self::visit`]. Nested items are
    /// skipped: a function defined inside a loop does not *run* there.
    pub fn visit_depth<'a>(&'a self, depth: u32, f: &mut impl FnMut(&'a Expr, u32)) {
        for stmt in &self.stmts {
            match stmt {
                Stmt::Let { init: Some(e), .. } => e.visit_depth(depth, f),
                Stmt::Let { .. } => {}
                Stmt::Expr(e) => e.visit_depth(depth, f),
                Stmt::Item(_) => {}
            }
        }
    }
}

impl Item {
    /// Calls `f` on every expression in every function body under this
    /// item (recursing through mods, impls and traits).
    pub fn visit_exprs<'a>(&'a self, f: &mut impl FnMut(&'a Expr)) {
        match &self.kind {
            ItemKind::Fn(func) => {
                if let Some(body) = &func.body {
                    body.visit(f);
                }
            }
            ItemKind::Mod { items, .. }
            | ItemKind::Trait { items, .. }
            | ItemKind::Impl { items } => {
                for it in items {
                    it.visit_exprs(f);
                }
            }
            _ => {}
        }
    }

    /// Calls `f` on every function item under this item (recursing
    /// through mods, impls and traits), with the item that declares it.
    pub fn visit_fns<'a>(&'a self, f: &mut impl FnMut(&'a Item, &'a FnItem)) {
        match &self.kind {
            ItemKind::Fn(func) => f(self, func),
            ItemKind::Mod { items, .. }
            | ItemKind::Trait { items, .. }
            | ItemKind::Impl { items } => {
                for it in items {
                    it.visit_fns(f);
                }
            }
            _ => {}
        }
    }
}
