//! Measurement science for the `advdiag` biosensing platform: protocols,
//! peak analysis and calibration statistics.
//!
//! This crate turns the paper's §II-B "desirable properties of a biosensing
//! acquisition chain" into code:
//!
//! * [`run_chrono`] — chronoamperometry on oxidase sensors: injections,
//!   `t₉₀` and transient response times (Fig. 3);
//! * [`run_cv`] — cyclic voltammetry on cytochrome P450 sensors: cathodic
//!   [`Peak`] detection, electrochemical [`match_signature`]
//!   identification (Table II), peak-height readout;
//! * [`analyze_calibration`] — sensitivity (eq. 6), LOD = `V_b + 3σ_b`
//!   (eq. 5), linear-range detection and `NL_max` (eq. 7);
//! * [`ReplicateStats`] — replicate statistics behind the Table III-style
//!   outputs.
//!
//! Every stochastic function takes an explicit seed; identical seeds give
//! identical measurements.

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

mod calibration;
mod chrono_protocol;
mod cv_protocol;
mod error;
mod injection;
mod peaks;
mod qc;
mod replicate;
mod signature;

pub use calibration::{
    analyze_calibration, fit_line, max_nonlinearity, CalibrationOutcome, CalibrationPoint,
    LinearFit,
};
pub use chrono_protocol::{
    analyze_transient, plan_chrono, run_chrono, run_chrono_with_interferents, ChronoMeasurement,
    ChronoPlan, ChronoProtocol,
};
pub use cv_protocol::{peak_readout, plan_cv, run_cv, CvMeasurement, CvPlan, CvProtocol};
pub use error::InstrumentError;
pub use injection::{run_injection_series, InjectionSchedule, InjectionSeriesResult};
pub use peaks::{cathodic_segment, detect_cathodic_peaks, Peak, PeakOptions};
pub use qc::{QcClass, QcDecision, QcGate, QcReason, QcVerdict};
pub use replicate::ReplicateStats;
pub use signature::{match_signature, ExpectedPeak, SignatureMatch, DEFAULT_WINDOW};
