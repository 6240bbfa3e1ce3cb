//! Biochemistry for the `advdiag` biosensing platform: analytes, enzymes
//! and calibrated sensing models.
//!
//! The DATE 2011 paper senses two enzyme families:
//!
//! * **Oxidases** ([`Oxidase`], [`OxidaseSensor`]) convert their metabolite
//!   and O₂ into H₂O₂ (paper eqs. 1–2), which the electrode oxidizes at
//!   +550…+700 mV (eq. 3, Table I) — read out by chronoamperometry.
//! * **Cytochromes P450** ([`CypIsoform`], [`CypSensor`]) reduce their drug
//!   substrates via the heme centre (eq. 4, Table II) — read out by cyclic
//!   voltammetry, one catalytic peak per drug.
//!
//! All sensor models are calibrated from the paper's Tables I–III, which
//! live in [`tables`] together with the calibration arithmetic. Supporting
//! models: Michaelis–Menten saturation ([`MichaelisMenten`]),
//! diffusion-limiting membranes ([`Membrane`], the Fig. 3 transient),
//! electrode functionalization ([`Functionalization`]), direct-oxidation
//! interferents ([`Interferent`]) and one-compartment pharmacokinetics
//! ([`OneCompartmentPk`]) for drug-monitoring workloads.
//!
//! # Example
//!
//! ```
//! use bios_biochem::{Oxidase, OxidaseSensor};
//! use bios_units::{Molar, Seconds};
//!
//! # fn main() -> Result<(), bios_biochem::BiochemError> {
//! let glucose = OxidaseSensor::from_registry(Oxidase::Glucose)?;
//! // Inject 2 mM of glucose and watch the Fig. 3 transient develop.
//! let j30 = glucose.transient_current_density(
//!     Molar::ZERO, Molar::from_millimolar(2.0), Seconds::new(30.0));
//! let jss = glucose.steady_current_density(Molar::from_millimolar(2.0));
//! assert!(j30.value() > 0.88 * jss.value()); // ≈90% at 30 s
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

mod analyte;
mod cytochrome;
mod error;
mod functionalization;
mod interference;
mod membrane;
mod michaelis;
mod oxidase;
mod oxygen;
mod pharmacokinetics;
mod probe;
pub mod tables;

pub use analyte::{Analyte, AnalyteKind};
pub use cytochrome::{CypIsoform, CypSensor, CypSweep};
pub use error::BiochemError;
pub use functionalization::Functionalization;
pub use interference::Interferent;
pub use membrane::Membrane;
pub use michaelis::MichaelisMenten;
pub use oxidase::{Oxidase, OxidaseSensor};
pub use oxygen::{thermal_activity_factor, OxygenConditions};
pub use pharmacokinetics::{OneCompartmentPk, Route};
pub use probe::{Probe, Technique};
