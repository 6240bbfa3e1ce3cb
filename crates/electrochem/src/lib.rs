//! Electrochemistry simulation engine for the `advdiag` biosensing platform.
//!
//! This crate replaces the wet-lab electrochemical cell of the DATE 2011
//! paper with a quantitative model:
//!
//! * [`RedoxCouple`] — the species the electrode sees,
//! * [`Electrode`] / [`Cell`] — geometry, materials, nanostructuring,
//!   double layer and uncompensated resistance,
//! * [`PotentialProgram`] — holds, steps and triangular sweeps,
//! * [`DiffusionSim`] — an implicit (backward-Euler, Thomas-solver) 1-D
//!   finite-volume solver for Fick's second law with an exact linear
//!   Butler–Volmer boundary,
//! * [`BatchDiffusionSim`] — the same solver vectorized across an electrode
//!   fleet: structure-of-arrays `[node × lane]` planes and one batched
//!   Thomas sweep per species per step, bit-identical per lane,
//! * [`simulate_chrono`] / [`simulate_cv_with`] / [`simulate_chrono_fleet`] —
//!   experiment drivers producing [`Transient`]s and [`Voltammogram`]s,
//! * closed-form cross-checks: [`cottrell_current`],
//!   [`randles_sevcik_peak`], [`microdisk_settling_time`].
//!
//! Sign convention is IUPAC throughout: anodic (oxidation) current positive.
//!
//! # Example: a cyclic voltammogram
//!
//! ```
//! use bios_electrochem::{
//!     simulate_cv_with, Cell, Electrode, PotentialProgram, RedoxCouple, SimOptions,
//! };
//! use bios_units::{Molar, Volts, VoltsPerSecond};
//!
//! # fn main() -> Result<(), bios_electrochem::ElectrochemError> {
//! let cell = Cell::builder(Electrode::paper_gold_we()).build()?;
//! let couple = RedoxCouple::ferrocyanide();
//! let sweep = PotentialProgram::cyclic_single(
//!     Volts::new(0.55), Volts::new(-0.1),
//!     VoltsPerSecond::from_millivolts_per_second(50.0));
//! let bulk = Molar::from_millimolar(1.0);
//! let cv = simulate_cv_with(&cell, &couple, bulk, Molar::ZERO, &sweep, SimOptions::default())?;
//! assert!(cv.min_current().expect("nonempty").1.value() < 0.0);
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

mod cell;
mod cottrell;
mod diffusion;
mod double_layer;
mod electrode;
mod error;
mod grid;
mod kinetics;
mod randles_sevcik;
mod simulate;
mod species;
mod swv;
mod trace;
mod tridiag;
mod waveform;

pub use cell::{Cell, CellBuilder};
pub use cottrell::{cottrell_current, microdisk_settling_time};
pub use diffusion::{BatchDiffusionSim, DiffusionSim};
pub use double_layer::sweep_charging_current;
pub use electrode::{Electrode, ElectrodeMaterial, Nanostructure};
pub use error::ElectrochemError;
pub use grid::Grid;
pub use kinetics::rate_constants;
pub use randles_sevcik::randles_sevcik_peak;
pub use simulate::{
    simulate_chrono, simulate_chrono_fleet, simulate_chrono_with, simulate_cv_with, SimOptions,
};
pub use species::{RedoxCouple, RedoxCoupleBuilder};
pub use swv::{simulate_swv, SwvParams};
pub use trace::{Transient, Voltammogram};
pub use tridiag::Tridiagonal;
pub use waveform::PotentialProgram;
