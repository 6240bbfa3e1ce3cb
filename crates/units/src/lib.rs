//! Typed physical quantities for the `advdiag` biosensing platform.
//!
//! Electrochemical biosensing mixes many physical domains — electrode
//! potentials in volts, faradaic currents in nano- to micro-amperes, analyte
//! concentrations in mol/L, diffusion coefficients in cm²/s.  Passing bare
//! `f64` values between those domains is how unit bugs are born, so every
//! public API in this workspace speaks in the newtypes defined here
//! (guideline C-NEWTYPE).
//!
//! Each quantity is a transparent wrapper around `f64` with:
//!
//! * checked, dimension-preserving arithmetic (`Volts + Volts`, `Volts * 2.0`),
//! * a small set of *dimensional* products (`Amps * Ohms = Volts`,
//!   `Molar * Liters = Moles`, …),
//! * SI-prefix aware [`Display`](core::fmt::Display) and
//!   [`FromStr`](core::str::FromStr) (`"250 nA"`, `"-625 mV"`),
//! * scaled constructors/accessors (`Amps::from_nanoamps`,
//!   `Volts::as_millivolts`).
//!
//! # Example
//!
//! ```
//! use bios_units::{Amps, Ohms, Volts};
//!
//! # fn main() -> Result<(), bios_units::ParseQuantityError> {
//! let feedback: Ohms = "100 kΩ".parse()?;
//! let current = Amps::from_nanoamps(250.0);
//! let output: Volts = current * feedback;
//! assert!((output.as_millivolts() - 25.0).abs() < 1e-12);
//! assert_eq!(format!("{output}"), "25 mV");
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

#[macro_use]
mod quantity;
mod consts;
mod error;
mod prefix;
mod range;
mod types;

pub use consts::{FARADAY, GAS_CONSTANT, T_BODY, T_ROOM};
pub use error::{ErrorSeverity, ParseQuantityError, RangeError};
pub use prefix::{format_si, Prefix};
pub use quantity::Quantity;
pub use range::QRange;
pub use types::{
    Amps, AmpsPerCm2, Centimeters, Coulombs, DiffusionCoefficient, Farads, FaradsPerCm2, Hertz,
    Joules, Kelvin, Liters, Molar, Moles, MolesPerCm2, MolesPerCm2PerSecond, MolesPerCm3, Ohms,
    Seconds, SquareCentimeters, Volts, VoltsPerSecond, Watts,
};
