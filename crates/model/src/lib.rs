//! `bios-model` — bounded exhaustive model checking of the shipped
//! session machine and diagnostics server.
//!
//! The platform's correctness story otherwise rests on example-based
//! tests and property tests: both sample the behavior space. This crate
//! closes the gap for the *protocol* layer by exploring **every**
//! reachable state of the real
//! [`SessionMachine`](bios_platform::SessionMachine) and the real
//! [`DiagnosticsServer`](bios_server::DiagnosticsServer), run over a
//! small real [`Platform`](bios_platform::Platform) (one or two working
//! electrodes), and checking invariants at each one:
//!
//! * **Session level** ([`SessionModel`]) — every interleaving of QC
//!   verdicts and acquisition errors across every electrode and retry
//!   attempt. Invariants: no stuck non-terminal state, the machine's own
//!   [`check_invariants`](bios_platform::SessionMachine::check_invariants)
//!   (retry budget in lock-step with spent retry slots, parked samples
//!   only in `Qc`, outcomes sealed exactly at terminal phases), backoff
//!   termination, and — generalizing the single-path checkpoint test in
//!   `bios-platform` — **every** reachable checkpoint re-converges after
//!   serialize and [`resume_session`](bios_platform::Platform::resume_session)
//!   (checkpoint closure).
//! * **Server level** ([`ServerModel`]) — every shard interleaving,
//!   chaos draw and QC verdict for a bounded request batch. Invariants:
//!   conservation from the client's side (submitted = drained + queued +
//!   in-flight, every shed unit reported once), stats/outcome agreement,
//!   queue and concurrency bounds, deadline and quarantine enforcement,
//!   quiescence, and the **single-digest theorem**: all interleavings
//!   under one resolved nondeterminism reach one terminal state. Pruned
//!   mode explores one canonical interleaving per round (DPOR-style),
//!   with the independence justification *verified* by commutation
//!   probes at every branch point rather than assumed.
//!
//! Only the inputs from outside the protocol are abstracted. A drawn
//! verdict enters the machine as a synthetic `SampleResult` through
//! `begin_sample`/`complete_sample`; at the server level, chaos and
//! verdict draws enter through the [`TickInputs`](bios_server::TickInputs)
//! seam that production fills with the `ChaosPlan` and the physics, and
//! single shards tick through the same per-shard tick the server fans
//! out. No transition is re-implemented here.
//!
//! Violations are not panics: the explorer returns a
//! [`Counterexample`] — a minimal (BFS-shortest) choice trace — which
//! [`TraceArtifact`] packages with the full config as a self-contained
//! JSON artifact. `repro_model` (in `bios-bench`) replays artifacts
//! deterministically and seeds deliberate mutations to prove the checker
//! catches them.
//!
//! # Example
//!
//! ```
//! use bios_model::{explore, ExploreLimits, SessionModel, SessionModelConfig};
//! use bios_platform::RetryPolicy;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let config = SessionModelConfig::new(2, RetryPolicy::default());
//! let model = SessionModel::new(config)?;
//! let report = explore(&model, &ExploreLimits::default());
//! assert!(report.violation.is_none(), "protocol invariant broken");
//! assert!(!report.truncated, "space fully explored");
//! # Ok(())
//! # }
//! ```
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
#![warn(missing_docs)]

mod canon;
mod config;
mod error;
mod explore;
mod server_model;
mod session_model;
mod trace;

pub use canon::CanonEncode;
pub use config::{Interleave, MRequest, MVerdict, Mutation, ServerModelConfig, SessionModelConfig};
pub use error::ModelError;
pub use explore::{
    explore, replay, Choice, Counterexample, ExploreLimits, ExploreReport, ExploreStats, Model,
    ReplayOutcome,
};
pub use server_model::{ServerModel, ServerState};
pub use session_model::SessionModel;
pub use trace::TraceArtifact;
