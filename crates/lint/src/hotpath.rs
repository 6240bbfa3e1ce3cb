//! Hot-region inference and the H1–H4 hot-path rules.
//!
//! The bench digest gates prove *that* a hot-loop regression happened;
//! these rules say *where*, before the bench ever runs. The hot region is
//! everything the workspace [`CallGraph`] reaches from declared roots:
//!
//! * the kernel entries in [`HOT_ROOTS`] (every definition of a root name
//!   is hot — `step_with_rate_constants` deliberately names both the
//!   scalar and the batch kernel);
//! * closures passed to the deterministic parallel primitives
//!   (`par_map`, `try_par_map`, `par_map_mut`, `par_map_chunks`);
//! * any function under an opt-in `// advdiag::hot` marker comment.
//!
//! Hotness carries a cadence ([`Level`]): per-step entries and everything
//! reached through a loop body are `PerIter` — their whole bodies are
//! per-iteration regions and the allocation/reduction rules apply
//! everywhere in them — while whole-experiment *drivers*
//! (`simulate_chrono_fleet`) are `Warm`: their straight-line setup code is
//! exactly where a hoisted scratch buffer belongs, so the rules apply only
//! inside their loop bodies and in what those bodies call.
//!
//! The symmetric `// advdiag::cold(reason)` marker declares a *boundary*:
//! the marked function is excluded from the hot region and hotness does
//! not propagate through it. It exists for call sites that are reachable
//! from a stepping loop but run at a coarser cadence by contract — e.g.
//! the per-acquisition dispatch boundary, which executes whole simulated
//! experiments and allocates by design. Like `advdiag::allow`, the marker
//! is a visible in-code decision, reviewed with the code it marks.
//!
//! Rules over the hot region (all error severity, none machine-fixable):
//!
//! * **H1** — allocation in hot code: `Vec::new()`, `Box::new(…)`,
//!   `vec![…]`, `format!(…)`, `.to_vec()`, `.clone()`, `.collect()`, and
//!   `.push(…)` onto a hot-local vector that was not
//!   `with_capacity`-reserved.
//!   Pushes onto parameters/fields are silent: a cold caller owns that
//!   buffer's allocation.
//! * **H2** — float-reduction-order hazard: `.sum()` / `.product()` /
//!   `.fold(…)` in hot code. The batch kernels' digest stability rests on
//!   per-lane float op order being *literally identical* to scalar;
//!   iterator reductions hide that order behind the iterator's shape, so
//!   hot accumulation must be an explicit index loop. This is the static
//!   twin of the bench digest gates (see DESIGN.md §6e).
//! * **H3** — blocking or I/O call reachable from the server's shard
//!   stepping loop (`step_active`): locks, channel receives, thread
//!   joins/park/sleep, `println!`-family output, file I/O, wall-clock
//!   reads. The injected telemetry `Clock` is exempt (its default is
//!   `NullClock`).
//! * **H4** — per-iteration invariant recomputation: calls to the
//!   known-pure constructors in [`PURE_CTORS`] inside a loop body in hot
//!   code (one factorization per `(grid, dt, D)` is the PR-2 contract).
//!
//! Everything here inherits the engine's lossiness contract: macro bodies,
//! `Opaque` nodes, ambiguous names and unmarked indirection can only *hide*
//! a violation (false negative), never invent one.

use std::collections::BTreeSet;

use crate::ast::{Block, Expr, Item, Stmt};
use crate::callgraph::{CallGraph, Level};
use crate::depgraph::HotOverlay;
use crate::rules::{push, FileContext, Finding, BENCH_CRATE, LINT_CRATE};

/// Declared kernel entry points (every non-test definition of these names
/// is a hot root) with their cadence: `PerIter` entries run once per
/// step/tick/wave, so their whole bodies are per-iteration regions;
/// `Warm` entries are whole-experiment drivers whose straight-line code
/// is setup (the place hoisted buffers live) and whose loop bodies are
/// the per-step part.
pub const HOT_ROOTS: &[(&str, Level)] = &[
    ("solve_batch_in_place", Level::PerIter),
    ("step_with_rate_constants", Level::PerIter),
    ("simulate_chrono_fleet", Level::Warm),
    ("step_wave", Level::PerIter),
    ("step_active", Level::PerIter),
    ("sweep_and_mark", Level::PerIter),
    ("score_shard_margins", Level::PerIter),
    ("acquire", Level::Warm),
    ("acquire_planned", Level::Warm),
];

/// The server's shard stepping loop: the reachability root for H3.
const SERVER_LOOP_ROOT: &str = "step_active";

/// Parallel primitives whose closure arguments are hot roots.
const PAR_ROOT_FNS: &[&str] = &["par_map", "try_par_map", "par_map_mut", "par_map_chunks"];

/// Synthetic call-graph node owning every `par_map*` closure's calls.
const PAR_CLOSURE: &str = "{par-closure}";

/// Known-pure constructors whose result is loop-invariant (H4): calling
/// one inside a hot loop body recomputes an invariant per iteration.
/// Each entry is the last two path segments of the call — a type and
/// its associated fn, or a module and its free fn.
pub const PURE_CTORS: &[(&str, &str)] = &[
    ("Prefactorized", "new"),
    ("Grid", "for_experiment"),
    ("Grid", "for_experiment_with"),
    ("Grid", "uniform"),
    ("Grid", "expanding"),
    ("NoiseSource", "new"),
    ("Potentiostat", "streamer"),
    ("Tia", "streamer"),
];

/// The [`PURE_CTORS`] that take `self` and so are usually called in
/// method form (`pstat.streamer(dt)`). The receiver's type is unknown to
/// the scanner, so method calls match on these names alone, which belong
/// to no other method in the workspace.
const PURE_RECEIVER_CTORS: &[&str] = &["streamer"];

/// Allocating macros (H1).
const ALLOC_MACROS: &[&str] = &["vec", "format"];

/// Output/formatting macros that block or write to a stream (H3).
const BLOCKING_MACROS: &[&str] = &[
    "println", "print", "eprintln", "eprint", "dbg", "write", "writeln",
];

/// Method names that block the calling thread (H3).
const BLOCKING_METHODS: &[&str] = &["lock", "recv", "recv_timeout", "join", "park", "wait"];

/// One file's contribution to the workspace hot-path analysis.
pub struct HotFile<'a> {
    pub ctx: FileContext<'a>,
    pub items: &'a [Item],
    /// Raw source, scanned for `advdiag::hot` / `advdiag::cold` markers.
    pub source: &'a str,
}

/// A function definition the analysis tracks.
struct FnDef<'a> {
    file: usize,
    name: &'a str,
    line: u32,
    body: &'a Block,
}

/// Runs the hot-region analysis over the whole workspace. Returns raw
/// findings (excerpts unfilled, suppressions unapplied — the caller owns
/// both, exactly like `depgraph::analyze_facts`) plus the overlay for
/// `--emit-dot`.
pub fn analyze_workspace(files: &[HotFile<'_>]) -> (Vec<Finding>, HotOverlay) {
    // Collect definitions. Bench and the linter itself are exempt (the
    // bench crate measures hot loops, it is not one).
    let mut defs: Vec<FnDef<'_>> = Vec::new();
    for (fi, hf) in files.iter().enumerate() {
        if hf.ctx.crate_name == BENCH_CRATE || hf.ctx.crate_name == LINT_CRATE {
            continue;
        }
        for item in hf.items {
            item.visit_fns(&mut |it, f| {
                if it.in_test {
                    return;
                }
                if let Some(body) = &f.body {
                    defs.push(FnDef {
                        file: fi,
                        name: &f.name,
                        line: it.span.line,
                        body,
                    });
                }
            });
        }
    }

    // Build the call graph.
    let mut graph = CallGraph::new();
    for d in &defs {
        graph.add_def(d.name);
    }
    for d in &defs {
        collect_edges(d.name, d.body, &mut graph);
    }
    for (root, level) in HOT_ROOTS {
        graph.add_root(root, *level);
    }
    graph.add_root(PAR_CLOSURE, Level::PerIter);
    // Marker roots and cold boundaries: a marker comment applies to the
    // first function starting on its line or within the next two lines.
    for (fi, hf) in files.iter().enumerate() {
        for line in marker_lines(hf.source, "advdiag::hot") {
            if let Some(name) = fn_at(&defs, fi, line) {
                graph.add_root(name, Level::PerIter);
            }
        }
        for line in marker_lines(hf.source, "advdiag::cold") {
            if let Some(name) = fn_at(&defs, fi, line) {
                graph.add_cold(name);
            }
        }
    }

    let levels = graph.hot_levels();
    let hot3 = graph.hot_set_from([SERVER_LOOP_ROOT]);

    // Rule pass. Three scan classes:
    //  * `PerIter` functions: whole body is a per-iteration region.
    //  * Declared `Warm` *roots* (drivers): their loop bodies are step
    //    loops by declaration, so only those are scanned. A transitively
    //    warm function is NOT scanned — whether its own loops iterate
    //    over time steps or over setup data is unknowable from names,
    //    and the lossiness contract resolves unknowns to silence (its
    //    in-loop *calls* still propagate `PerIter` through the graph).
    //  * Everything else: only `par_map*` closure bodies.
    let warm_roots: BTreeSet<&str> = HOT_ROOTS
        .iter()
        .filter(|(_, l)| *l == Level::Warm)
        .map(|(r, _)| *r)
        .collect();
    let mut findings = Vec::new();
    for d in &defs {
        let ctx = files[d.file].ctx;
        let level = levels.get(d.name);
        if level == Some(&Level::PerIter) || (level.is_some() && warm_roots.contains(d.name)) {
            let mut s = Scanner {
                ctx,
                in_server_loop: hot3.contains(d.name),
                periter: level == Some(&Level::PerIter),
                loop_depth: 0,
                vecs: Vec::new(),
                findings: &mut findings,
            };
            s.block(d.body);
        } else if level.is_none() {
            for closure_body in par_closures(d.body) {
                let mut s = Scanner {
                    ctx,
                    in_server_loop: false,
                    // The closure runs once per element: its whole body
                    // is a per-iteration region.
                    periter: true,
                    loop_depth: 0,
                    vecs: Vec::new(),
                    findings: &mut findings,
                };
                s.expr(closure_body);
            }
        }
    }

    let roots: BTreeSet<String> = graph
        .roots()
        .filter(|r| levels.contains_key(*r))
        .map(str::to_string)
        .collect();
    let overlay = HotOverlay {
        roots: roots.into_iter().collect(),
        hot: levels,
    };
    (findings, overlay)
}

/// 1-based lines whose comment text contains `needle`.
fn marker_lines(source: &str, needle: &str) -> Vec<u32> {
    let mut out = Vec::new();
    for (i, line) in source.lines().enumerate() {
        if let Some(slash) = line.find("//") {
            if line[slash..].contains(needle) {
                out.push(i as u32 + 1);
            }
        }
    }
    out
}

/// The function in `file` starting on `line` or within the two lines
/// after it (marker above the item, attributes tolerated).
fn fn_at<'a>(defs: &[FnDef<'a>], file: usize, line: u32) -> Option<&'a str> {
    defs.iter()
        .filter(|d| d.file == file && d.line >= line && d.line <= line + 2)
        .min_by_key(|d| d.line)
        .map(|d| d.name)
}

/// The callee name of a call-shaped expression, when resolvable.
fn callee_of(e: &Expr) -> Option<&str> {
    match e {
        Expr::Call { callee, .. } => match &**callee {
            Expr::Path { segments, .. } => segments.last().map(String::as_str),
            _ => None,
        },
        Expr::MethodCall { method, .. } => Some(method),
        _ => None,
    }
}

/// Registers every call inside `body` as an edge from `caller`, tagged
/// with whether the call site sits inside a loop body; calls inside a
/// `par_map*` closure argument are additionally owned by the synthetic
/// [`PAR_CLOSURE`] root, always as in-loop edges (the closure runs once
/// per element).
fn collect_edges(caller: &str, body: &Block, graph: &mut CallGraph) {
    body.visit_depth(0, &mut |e, depth| {
        if let Some(callee) = callee_of(e) {
            graph.add_call(caller, callee, depth > 0);
        }
    });
    for closure_body in par_closures(body) {
        closure_body.visit(&mut |e| {
            if let Some(callee) = callee_of(e) {
                graph.add_call(PAR_CLOSURE, callee, true);
            }
        });
    }
}

/// Bodies of closures passed directly to a `par_map*` primitive.
fn par_closures(body: &Block) -> Vec<&Expr> {
    let mut out = Vec::new();
    body.visit(&mut |e| {
        if let Expr::Call { callee, args, .. } = e {
            if let Expr::Path { segments, .. } = &**callee {
                if segments
                    .last()
                    .is_some_and(|s| PAR_ROOT_FNS.contains(&s.as_str()))
                {
                    for a in args {
                        if let Expr::Closure { body, .. } = a {
                            out.push(&**body);
                        }
                    }
                }
            }
        }
    });
    out
}

/// True when `segments` ends with `a::b`.
fn ends_with(segments: &[String], a: &str, b: &str) -> bool {
    let n = segments.len();
    n >= 2 && segments[n - 2] == a && segments[n - 1] == b
}

/// The rule walker for one hot region. Tracks loop depth and region-local
/// vector bindings (the H1 `push` refinement). H1/H2/H4 fire only in
/// *per-iteration* positions: anywhere in a `PerIter` function, inside
/// loop bodies of a `Warm` one. H3 fires at any depth — a blocking call
/// stalls the serving round wherever it sits.
struct Scanner<'a, 'f> {
    ctx: FileContext<'a>,
    in_server_loop: bool,
    /// The whole region is per-iteration (see [`Level::PerIter`]).
    periter: bool,
    loop_depth: u32,
    /// `(name, reserved)` for vectors `let`-bound inside this region.
    vecs: Vec<(&'a str, bool)>,
    findings: &'f mut Vec<Finding>,
}

impl<'a> Scanner<'a, '_> {
    /// True when the current position executes once per hot-loop
    /// iteration — the gate for the allocation/reduction rules.
    fn per_iteration(&self) -> bool {
        self.periter || self.loop_depth > 0
    }
    fn block(&mut self, b: &'a Block) {
        for stmt in &b.stmts {
            match stmt {
                Stmt::Let { names, init, .. } => {
                    if let Some(init) = init {
                        self.expr(init);
                        if let [name] = names.as_slice() {
                            match vec_binding(init) {
                                Some(reserved) => self.vecs.push((name.as_str(), reserved)),
                                None => self.vecs.retain(|(n, _)| *n != name.as_str()),
                            }
                        }
                    }
                }
                Stmt::Expr(e) => self.expr(e),
                // Nested items are their own definitions; the call graph
                // decides their hotness independently.
                Stmt::Item(_) => {}
            }
        }
    }

    fn expr(&mut self, e: &'a Expr) {
        self.check(e);
        match e {
            Expr::Path { .. } | Expr::Lit { .. } | Expr::MacroCall { .. } | Expr::Opaque { .. } => {
            }
            Expr::Unary { expr, .. } | Expr::Cast { expr, .. } => self.expr(expr),
            Expr::Binary { lhs, rhs, .. } => {
                self.expr(lhs);
                self.expr(rhs);
            }
            Expr::Assign { target, value, .. } => {
                self.expr(target);
                self.expr(value);
            }
            Expr::MethodCall { recv, args, .. } => {
                self.expr(recv);
                for a in args {
                    self.expr(a);
                }
            }
            Expr::Field { recv, .. } => self.expr(recv),
            Expr::Call { callee, args, .. } => {
                self.expr(callee);
                for a in args {
                    self.expr(a);
                }
            }
            Expr::Index { recv, index, .. } => {
                self.expr(recv);
                self.expr(index);
            }
            Expr::Closure { body, .. } => self.expr(body),
            Expr::Block(b) => self.block(b),
            Expr::If {
                cond, then, els, ..
            } => {
                self.expr(cond);
                self.block(then);
                if let Some(els) = els {
                    self.expr(els);
                }
            }
            Expr::Match {
                scrutinee, arms, ..
            } => {
                self.expr(scrutinee);
                for a in arms {
                    self.expr(a);
                }
            }
            Expr::For { iter, body, .. } => {
                self.expr(iter);
                self.loop_depth += 1;
                self.block(body);
                self.loop_depth -= 1;
            }
            Expr::While { cond, body, .. } => {
                self.expr(cond);
                self.loop_depth += 1;
                self.block(body);
                self.loop_depth -= 1;
            }
            Expr::Seq { items, .. } | Expr::StructLit { fields: items, .. } => {
                for x in items {
                    self.expr(x);
                }
            }
        }
    }

    fn check(&mut self, e: &'a Expr) {
        let span = e.span();
        match e {
            Expr::Call { callee, .. } => {
                if let Expr::Path { segments, .. } = &**callee {
                    if self.per_iteration()
                        && (ends_with(segments, "Vec", "new") || ends_with(segments, "Box", "new"))
                    {
                        self.emit(
                            "H1",
                            span,
                            format!(
                                "allocation in hot code: `{}::new` — hoist the buffer to a \
                                 cold caller or reuse a persistent scratch field",
                                segments[segments.len() - 2]
                            ),
                        );
                    }
                    if self.per_iteration()
                        && PURE_CTORS.iter().any(|(t, m)| ends_with(segments, t, m))
                    {
                        let n = segments.len();
                        self.emit(
                            "H4",
                            span,
                            format!(
                                "invariant recomputed per iteration: `{}::{}` is pure in its \
                                 arguments — construct it once before the hot loop",
                                segments[n - 2],
                                segments[n - 1]
                            ),
                        );
                    }
                    if self.in_server_loop && blocking_path(segments) {
                        self.emit(
                            "H3",
                            span,
                            format!(
                                "blocking/I-O call reachable from the shard stepping loop: \
                                 `{}` — the serving round must stay non-blocking (inject a \
                                 `Clock`, move I/O behind the dispatch boundary)",
                                segments.join("::")
                            ),
                        );
                    }
                }
            }
            Expr::MethodCall { recv, method, .. } => match method.as_str() {
                "to_vec" | "clone" | "collect" if self.per_iteration() => self.emit(
                    "H1",
                    span,
                    format!(
                        "allocation in hot code: `.{method}()` — borrow instead, or hoist \
                         the copy out of the hot region"
                    ),
                ),
                "push" if self.per_iteration() => {
                    if let Expr::Path { segments, .. } = &**recv {
                        if let [name] = segments.as_slice() {
                            if self.vecs.iter().any(|(n, cap)| *n == name.as_str() && !cap) {
                                self.emit(
                                    "H1",
                                    span,
                                    format!(
                                        "`{name}.push(…)` may reallocate in hot code: the \
                                         vector was created here without `with_capacity` — \
                                         reserve in a cold region or reuse a scratch buffer"
                                    ),
                                );
                            }
                        }
                    }
                }
                m if self.per_iteration() && PURE_RECEIVER_CTORS.contains(&m) => self.emit(
                    "H4",
                    span,
                    format!(
                        "invariant recomputed per iteration: `.{m}()` is pure in its \
                         arguments — construct it once before the hot loop"
                    ),
                ),
                "sum" | "product" | "fold" if self.per_iteration() => self.emit(
                    "H2",
                    span,
                    format!(
                        "float-reduction-order hazard: `.{method}()` in hot code hides the \
                         accumulation order the digest gates pin down — use an explicit \
                         index loop matching the scalar twin's op order"
                    ),
                ),
                m if self.in_server_loop && BLOCKING_METHODS.contains(&m) => self.emit(
                    "H3",
                    span,
                    format!(
                        "blocking call reachable from the shard stepping loop: `.{m}()` — \
                         the serving round must stay non-blocking"
                    ),
                ),
                _ => {}
            },
            Expr::MacroCall { name, .. } => {
                if self.per_iteration() && ALLOC_MACROS.contains(&name.as_str()) {
                    self.emit(
                        "H1",
                        span,
                        format!(
                            "allocation in hot code: `{name}!(…)` — hoist the buffer/string \
                             construction out of the hot region"
                        ),
                    );
                }
                if self.in_server_loop && BLOCKING_MACROS.contains(&name.as_str()) {
                    self.emit(
                        "H3",
                        span,
                        format!(
                            "I/O in the shard stepping loop: `{name}!(…)` — route telemetry \
                             through the injected `Clock`/stats instead of a stream"
                        ),
                    );
                }
            }
            _ => {}
        }
    }

    fn emit(&mut self, rule: &'static str, span: crate::ast::Span, message: String) {
        push(self.findings, rule, &self.ctx, span.line, span.col, message);
    }
}

/// Classifies a `let` initializer as a vector allocation: `Some(reserved)`
/// when it is one, with `reserved == true` for `Vec::with_capacity`.
fn vec_binding(init: &Expr) -> Option<bool> {
    match init {
        Expr::Call { callee, .. } => match &**callee {
            Expr::Path { segments, .. } => {
                if ends_with(segments, "Vec", "with_capacity") {
                    Some(true)
                } else if ends_with(segments, "Vec", "new") {
                    Some(false)
                } else {
                    None
                }
            }
            _ => None,
        },
        Expr::MacroCall { name, .. } if name == "vec" => Some(false),
        _ => None,
    }
}

/// True for call paths that name blocking or I/O facilities (H3).
fn blocking_path(segments: &[String]) -> bool {
    if segments.last().is_some_and(|s| s == "sleep") {
        return true;
    }
    if ends_with(segments, "Instant", "now") || ends_with(segments, "SystemTime", "now") {
        return true;
    }
    segments
        .iter()
        .any(|s| matches!(s.as_str(), "File" | "fs" | "stdin" | "stdout" | "stderr"))
}
