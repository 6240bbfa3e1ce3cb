//! `bios-lint` — the workspace's in-tree invariant lint engine.
//!
//! The platform's headline guarantees (bit-identical parallel execution,
//! no silent corruption under injected faults) are dynamic properties; a
//! stray allocation in a stepping loop, a float reduction whose order
//! drifts, or a wildcard arm over a protocol enum can silently void them
//! between test runs. This crate encodes the invariants no compiler lint
//! expresses as *static* rules checked on every CI run, in the
//! platform-based-design spirit of the source paper: component contracts
//! are verified at design time, not discovered in the field. The generic
//! checks rustc and clippy already ship (hash containers, wall-clock
//! reads, ad-hoc threads, panicking calls, `unsafe`) are configured in
//! `clippy.toml`, the workspace lint table and each crate root instead.
//!
//! Pipeline: [`lexer`] turns a source file into a token stream with
//! comments kept aside and `#[cfg(test)]` regions marked; [`parser`]
//! builds the lossy AST the hot-path and layering analyses walk;
//! [`rules`] runs the per-file token rules (D2, U1, F1, M1) and applies
//! inline `// advdiag::allow(rule, reason)` suppressions; [`workspace`]
//! adds the workspace rules — layering and dead API (A1, A2,
//! [`depgraph`]), the hot-path guards (H1–H4, [`hotpath`]) — and
//! stale-suppression detection (W0); [`report`] renders every finding for
//! humans or machines.
//!
//! The crate is dependency-free by design — the linter must not depend on
//! code it lints, and must stay trivially auditable.
//!
//! See `DESIGN.md` §6 for the rule catalogue and how to add a rule.

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

pub mod ast;
pub mod callgraph;
pub mod depgraph;
pub mod hotpath;
pub mod lexer;
pub mod parser;
pub mod report;
pub mod rules;
pub mod workspace;

pub use callgraph::{CallGraph, Level};
pub use report::Report;
pub use rules::{lint_file, lint_source, AllowSite, FileContext, FileLint, Finding, RULE_IDS};
pub use workspace::{discover, gather, lint_files, lint_files_hot, lint_workspace, MemFile};
