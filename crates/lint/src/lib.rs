//! `bios-lint` — the workspace's in-tree invariant lint engine.
//!
//! The platform's headline guarantees (bit-identical parallel execution,
//! no silent corruption under injected faults) are dynamic properties; a
//! single stray `HashMap` iteration, wall-clock read or `unwrap()` in a
//! hot path can silently void them between test runs. This crate encodes
//! those invariants as *static* rules checked on every CI run, in the
//! platform-based-design spirit of the source paper: component contracts
//! are verified at design time, not discovered in the field.
//!
//! Pipeline: [`lexer`] turns a source file into a token stream with
//! comments kept aside and `#[cfg(test)]` regions marked; [`parser`]
//! builds the lossy AST the hot-path and layering analyses walk;
//! [`rules`] runs the per-file token rules (D1, D2, P1, U1, S1, F1, M1)
//! and applies inline `// advdiag::allow(rule, reason)` suppressions;
//! [`workspace`] adds the workspace rules — layering and dead API (A1,
//! A2, [`depgraph`]), the hot-path guards (H1–H4, [`hotpath`]) — and
//! stale-suppression detection (W0); [`baseline`] subtracts
//! grandfathered findings; [`report`] renders what is left for humans
//! or machines; [`fixer`] applies the machine-applicable rewrites.
//!
//! The crate is dependency-free by design — the linter must not depend on
//! code it lints, and must stay trivially auditable.
//!
//! See `DESIGN.md` §6 for the rule catalogue and how to add a rule.

#![forbid(unsafe_code)]

pub mod ast;
pub mod baseline;
pub mod callgraph;
pub mod depgraph;
pub mod fixer;
pub mod hotpath;
pub mod lexer;
pub mod parser;
pub mod report;
pub mod rules;
pub mod workspace;

pub use baseline::{Baseline, BaselineEntry};
pub use callgraph::{CallGraph, Level};
pub use depgraph::{DepGraph, HotOverlay};
pub use fixer::{Fix, FixOutcome, FixSafety};
pub use report::Report;
pub use rules::{lint_file, lint_source, AllowSite, FileContext, FileLint, Finding, RULE_IDS};
pub use workspace::{
    discover, gather, lint_files, lint_files_graph, lint_workspace, lint_workspace_graph, MemFile,
};
