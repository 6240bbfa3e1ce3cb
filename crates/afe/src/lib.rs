//! Behavioral analog front-end models for the `advdiag` biosensing
//! platform — the electronics half of the paper's Fig. 1 and Fig. 2.
//!
//! Blocks:
//!
//! * [`Potentiostat`] — the control loop holding the RE–WE potential,
//! * [`RandlesCell`] — the dummy cell used to exercise it,
//! * [`Tia`] — transimpedance current-to-voltage conversion,
//! * [`NoiseSource`] — white + flicker + drift input-referred noise,
//! * [`CorrelatedDoubleSampler`] — blank-electrode CDS (§II-C),
//! * chopper stabilization via `NoiseConfig::chopped`,
//! * [`Adc`] / [`VoltageGenerator`] — data converters,
//! * [`AnalogMux`] — sharing one chain across working electrodes,
//! * [`CurrentRange`] — the paper's ±10 µA/10 nA and ±100 µA/100 nA classes,
//! * [`ReadoutChain`] — the composed Fig. 2 chain,
//! * [`FaultPlan`] — seeded electrode/mux/converter fault injection, and
//! * [`CostBudget`] — power/area cost models for design-space exploration.
//!
//! # Example: digitize a fake sensor current
//!
//! ```
//! use bios_afe::{ChainConfig, CurrentRange, ReadoutChain};
//! use bios_electrochem::PotentialProgram;
//! use bios_units::{Amps, Seconds, Volts};
//!
//! # fn main() -> Result<(), bios_afe::AfeError> {
//! let chain = ReadoutChain::new(ChainConfig::for_range(CurrentRange::oxidase())?);
//! let hold = PotentialProgram::Hold {
//!     potential: Volts::from_millivolts(650.0),
//!     duration: Seconds::new(1.0),
//! };
//! let samples = chain.acquire(&hold, Seconds::from_millis(100.0), 7,
//!     |_t, _e| Amps::from_nanoamps(250.0), |_t, _e| Amps::ZERO)?;
//! assert!(samples.last().expect("nonempty").current.as_nanoamps() > 200.0);
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

mod adc;
mod cds;
mod chain;
mod current_range;
mod error;
mod fault;
mod mux;
mod noise;
mod potentiostat;
mod power;
mod randles;
mod tia;
mod vgen;

pub use adc::Adc;
pub use cds::{CorrelatedDoubleSampler, MatchingQuality};
pub use chain::{AcquisitionPlan, ChainConfig, ReadoutChain, Sample, CHOPPER_SUPPRESSION};
pub use current_range::CurrentRange;
pub use error::AfeError;
pub use fault::{Fault, FaultKind, FaultPlan};
pub use mux::AnalogMux;
pub use noise::{NoiseConfig, NoiseSource};
pub use potentiostat::{Potentiostat, PotentiostatStream};
pub use power::{
    adc_cost, chopper_cost, dac_cost, mux_cost, potentiostat_cost, tia_cost, BlockCost, CostBudget,
};
pub use randles::RandlesCell;
pub use tia::{Tia, TiaStream};
pub use vgen::VoltageGenerator;
