//! `bios-platform` — the DATE 2011 paper's contribution: platform-based
//! design of integrated multi-target electrochemical biosensors.
//!
//! The paper proposes "the use of a platform, i.e., a restriction of the
//! design space to the use of a small number of parametrized components, to
//! cope with the design of integrated multiple-target biosensors" (§I).
//! This crate implements that idea end to end:
//!
//! * [`PanelSpec`] — *what to sense*: targets with LOD/range requirements;
//! * [`PlatformBuilder`] — probe selection (oxidase vs cytochrome,
//!   multi-target grouping), sensor [`SensorStructure`] choice including
//!   the quantitative cross-talk/chamber decision
//!   ([`crosstalk_fraction`]), and readout-chain instantiation;
//! * [`Platform`] — the runnable Fig. 4-style instance: multiplexed
//!   [`Schedule`], full-session simulation
//!   ([`Platform::run_session`]) and a [`PlatformCost`] summary;
//! * [`SessionOptions`] / [`Platform::run_session_with`] — graceful
//!   degradation: seeded fault injection
//!   ([`FaultPlan`](bios_afe::FaultPlan)), per-acquisition QC gating,
//!   bounded retries with quarantine, and a [`DegradationSummary`] so
//!   faulted sessions return partial results with provenance;
//! * [`evaluate`] — one [`DesignPoint`]'s analytic LOD prediction
//!   ([`predict_lod`]), feasibility and cost, the per-point model the
//!   `bios-explore` pipeline explores design spaces with.
//!
//! # Example: the paper's Fig. 4 platform in four lines
//!
//! ```
//! use bios_biochem::Analyte;
//! use bios_platform::{PanelSpec, PlatformBuilder};
//! use bios_units::Molar;
//!
//! # fn main() -> Result<(), bios_platform::PlatformError> {
//! let platform = PlatformBuilder::new(PanelSpec::paper_fig4()).build()?;
//! let sample = [(Analyte::Glucose, Molar::from_millimolar(3.0))];
//! let report = platform.run_session(&sample, 42)?;
//! assert!(report.reading_for(Analyte::Glucose).expect("on panel").identified);
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

mod builder;
mod chamber;
mod cost;
mod error;
mod exec;
mod explore;
mod platform;
mod report;
mod requirements;
mod robustness;
mod schedule;
mod selectivity;
mod session;
mod structure;

pub use builder::{PlatformBuilder, ProbePreference};
pub use chamber::{crosstalk_fraction, minimum_pitch};
pub use cost::{electronics_budget, PlatformCost, ReadoutSharing};
pub use error::PlatformError;
pub use exec::{par_map, par_map_chunks, par_map_mut, try_par_map, ExecPolicy};
pub use explore::{
    effective_sensitivity, evaluate, noise_breakdown, predict_lod, required_lod, DesignPoint,
    EvaluatedDesign, NoiseBreakdown,
};
pub use platform::{Platform, SensorModel, SessionReport, TargetReading, WeAssignment};
pub use requirements::{PanelSpec, TargetSpec};
pub use robustness::{DegradationSummary, RetryPolicy, SessionOptions, TargetQuality};
pub use schedule::{Schedule, ScheduleSlot};
pub use selectivity::SelectivityMatrix;
pub use session::{
    SampleRequest, SampleResult, SessionCheckpoint, SessionMachine, SessionStep, StepEvent,
    StepKind,
};
pub use structure::SensorStructure;
