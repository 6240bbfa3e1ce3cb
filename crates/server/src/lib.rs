//! `bios-server` — diagnostics as a service.
//!
//! The ROADMAP's serving milestone: a sharded, deterministic scheduler
//! that drives fleets of simulated patient devices through the resumable
//! [`SessionMachine`](bios_platform::SessionMachine) state machine, with
//! the production disciplines a clinical backend needs:
//!
//! * **Bounded admission** — every shard owns a fixed-capacity queue;
//!   submission past the bound returns a typed
//!   [`ServerError::Overloaded`], never unbounded growth.
//! * **Per-session deadlines** — a session that overstays its tick budget
//!   is cut via `finish_partial` and served as a
//!   [`SessionOutcome::DeadlineMiss`] with flagged provenance.
//! * **Graceful degradation tiers** — above the shed watermark the queue
//!   drops lowest-[`ServiceTier`] work first, and every shed unit is
//!   reported, never silently discarded.
//! * **Fleet quarantine** — devices whose sessions chronically fail
//!   accumulate strikes; past the threshold the server rejects them with
//!   [`ServerError::Quarantined`] until released.
//! * **Chaos harness** — a [`ChaosPlan`] composes the AFE fault injector
//!   ([`FaultPlan`](bios_afe::FaultPlan)) with server-level faults
//!   (device stalls, mid-session aborts; queue-full storms are driven by
//!   the submitting harness), all hash-derived so runs replay
//!   bit-identically.
//!
//! Scheduling is deterministic by construction: the shards with queued or
//! in-flight work advance through
//! [`par_map_mut`](bios_platform::par_map_mut) (contiguous chunks, merged
//! in shard order; one busy shard ticks inline, and an idle shard, whose
//! tick would be a no-op, is skipped), every session steps in admission
//! order, and no wall clock enters the control path — time is a virtual
//! tick counter, and telemetry timestamps come from an injected [`Clock`]
//! that defaults to [`NullClock`]. The same submissions and ticks produce the same
//! completed reports under any [`ExecPolicy`](bios_platform::ExecPolicy).
//!
//! # Example
//!
//! ```
//! use bios_biochem::Analyte;
//! use bios_platform::{PanelSpec, PlatformBuilder};
//! use bios_server::{DiagnosticsServer, NullClock, ServerConfig, ServiceTier, SessionRequest};
//! use bios_units::Molar;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let platform = PlatformBuilder::new(PanelSpec::paper_fig4()).build()?;
//! let mut server = DiagnosticsServer::new(&platform, ServerConfig::default());
//! server.submit(SessionRequest {
//!     device: 7,
//!     tier: ServiceTier::Stat,
//!     sample: vec![(Analyte::Glucose, Molar::from_millimolar(3.0))],
//!     seed: 42,
//! })?;
//! let clock = NullClock;
//! while !server.is_idle() {
//!     server.tick(&clock);
//! }
//! let served = server.drain_completed();
//! assert_eq!(served.len(), 1);
//! assert!(served[0].outcome.report().is_some());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod chaos;
mod clock;
mod error;
mod server;

pub use chaos::{ChaosPlan, ServerFaultKind};
pub use clock::{Clock, NullClock};
pub use error::ServerError;
pub use server::{
    CompletedSession, DiagnosticsServer, InFlight, ServerConfig, ServerStats, ServiceTier,
    SessionOutcome, SessionRequest, Shard, TickInputs, TickSummary,
};
