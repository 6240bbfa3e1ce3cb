//! `advdiag` — an integrated platform for advanced diagnostics.
//!
//! Facade crate re-exporting the whole workspace, a Rust reproduction of
//! De Micheli et al., *"An Integrated Platform for Advanced Diagnostics"*,
//! DATE 2011. See `DESIGN.md` for the system inventory and `EXPERIMENTS.md`
//! for the reproduced tables and figures.
//!
//! * [`units`] — typed physical quantities,
//! * [`electrochem`] — diffusion/kinetics simulation engine,
//! * [`biochem`] — analytes, enzymes and calibrated sensor models,
//! * [`afe`] — behavioral analog front-end,
//! * [`instrument`] — protocols, peaks and calibration statistics,
//! * [`platform`] — the paper's platform methodology and design-space
//!   exploration,
//! * [`explore`] — compiler-style exploration at scale: static pruning
//!   passes, exact Pareto dominance and sharded parallel scoring over
//!   million-point spaces,
//! * [`server`] — diagnostics as a service: a sharded deterministic
//!   scheduler with bounded admission, deadlines, degradation tiers and
//!   a chaos harness,
//! * [`model`] — bounded exhaustive model checker for the session and
//!   server protocols, with counterexample replay artifacts.
//!
//! # Quickstart
//!
//! ```
//! use advdiag::platform::{PanelSpec, PlatformBuilder};
//! use advdiag::biochem::Analyte;
//! use advdiag::units::Molar;
//!
//! # fn main() -> Result<(), advdiag::platform::PlatformError> {
//! let platform = PlatformBuilder::new(PanelSpec::paper_fig4()).build()?;
//! let sample = [(Analyte::Glucose, Molar::from_millimolar(4.2))];
//! let report = platform.run_session(&sample, 1)?;
//! println!("{}", platform.datasheet());
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

/// The most commonly used types, importable in one line:
/// `use advdiag::prelude::*;`.
pub mod prelude {
    pub use bios_afe::{ChainConfig, CurrentRange, ReadoutChain};
    pub use bios_biochem::{Analyte, CypIsoform, CypSensor, Oxidase, OxidaseSensor, Probe};
    pub use bios_electrochem::{Cell, Electrode, PotentialProgram, RedoxCouple};
    pub use bios_instrument::{ChronoProtocol, CvProtocol};
    pub use bios_platform::{PanelSpec, Platform, PlatformBuilder, SessionReport, TargetSpec};
    pub use bios_units::{Amps, Molar, Seconds, Volts, VoltsPerSecond};
}

pub use bios_afe as afe;
pub use bios_biochem as biochem;
pub use bios_electrochem as electrochem;
pub use bios_explore as explore;
pub use bios_instrument as instrument;
pub use bios_model as model;
pub use bios_platform as platform;
pub use bios_server as server;
pub use bios_units as units;
