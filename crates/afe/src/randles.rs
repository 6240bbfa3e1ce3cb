//! Randles equivalent circuit — the standard dummy cell used to exercise
//! potentiostat + TIA hardware (experiment F1).
//!
//! Topology: solution resistance `R_s` in series with the parallel pair of
//! double-layer capacitance `C_dl` and charge-transfer resistance `R_ct`.

use crate::error::AfeError;
use bios_units::{Amps, Farads, Ohms, Seconds, Volts};

/// A Randles dummy cell with exact discrete-time stepping.
///
/// # Example
///
/// ```
/// use bios_afe::RandlesCell;
/// use bios_units::{Farads, Ohms, Seconds, Volts};
///
/// # fn main() -> Result<(), bios_afe::AfeError> {
/// let mut cell = RandlesCell::new(
///     Ohms::new(100.0),
///     Ohms::from_kiloohms(100.0),
///     Farads::from_nanofarads(46.0),
/// )?;
/// // Apply a 100 mV step: the initial current is E/Rs, decaying toward
/// // E/(Rs + Rct).
/// let i0 = cell.step(Volts::from_millivolts(100.0), Seconds::from_micros(0.1));
/// assert!(i0.as_microamps() > 900.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RandlesCell {
    rs: Ohms,
    rct: Ohms,
    cdl: Farads,
    /// Voltage across the parallel (Cdl ∥ Rct) branch.
    vc: f64,
}

impl RandlesCell {
    /// Creates the cell at rest (capacitor discharged).
    ///
    /// # Errors
    ///
    /// Returns [`AfeError::InvalidParameter`] for non-positive elements.
    pub fn new(rs: Ohms, rct: Ohms, cdl: Farads) -> Result<Self, AfeError> {
        if rs.value() <= 0.0 {
            return Err(AfeError::invalid("rs", "must be positive"));
        }
        if rct.value() <= 0.0 {
            return Err(AfeError::invalid("rct", "must be positive"));
        }
        if cdl.value() <= 0.0 {
            return Err(AfeError::invalid("cdl", "must be positive"));
        }
        Ok(Self {
            rs,
            rct,
            cdl,
            vc: 0.0,
        })
    }

    /// Solution resistance.
    pub fn rs(&self) -> Ohms {
        self.rs
    }

    /// Charge-transfer resistance.
    pub fn rct(&self) -> Ohms {
        self.rct
    }

    /// Double-layer capacitance.
    pub fn cdl(&self) -> Farads {
        self.cdl
    }

    /// DC resistance `R_s + R_ct`.
    pub fn dc_resistance(&self) -> Ohms {
        self.rs + self.rct
    }

    /// Relaxation time constant `C_dl·(R_s ∥ R_ct)` for a voltage-driven
    /// step.
    pub fn time_constant(&self) -> Seconds {
        let parallel = self.rs.value() * self.rct.value() / (self.rs.value() + self.rct.value());
        Seconds::new(self.cdl.value() * parallel)
    }

    /// Advances one step with applied potential `e`, returning the cell
    /// current (exact exponential update for a constant-over-step drive).
    ///
    /// # Panics
    ///
    /// Panics if `dt` is not strictly positive.
    pub fn step(&mut self, e: Volts, dt: Seconds) -> Amps {
        assert!(dt.value() > 0.0, "time step must be positive");
        // The capacitor relaxes toward the divider voltage
        // v∞ = E·Rct/(Rs+Rct) with τ = Cdl·(Rs∥Rct).
        let v_inf = e.value() * self.rct.value() / (self.rs.value() + self.rct.value());
        let tau = self.time_constant().value();
        self.vc = v_inf + (self.vc - v_inf) * (-dt.value() / tau).exp();
        Amps::new((e.value() - self.vc) / self.rs.value())
    }

    /// The present branch voltage (observable for tests).
    #[cfg(test)]
    pub(crate) fn branch_voltage(&self) -> Volts {
        Volts::new(self.vc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell() -> RandlesCell {
        RandlesCell::new(
            Ohms::new(100.0),
            Ohms::from_kiloohms(100.0),
            Farads::from_nanofarads(46.0),
        )
        .expect("valid")
    }

    #[test]
    fn construction_validates() {
        assert!(RandlesCell::new(Ohms::ZERO, Ohms::new(1.0), Farads::new(1e-9)).is_err());
        assert!(RandlesCell::new(Ohms::new(1.0), Ohms::ZERO, Farads::new(1e-9)).is_err());
        assert!(RandlesCell::new(Ohms::new(1.0), Ohms::new(1.0), Farads::ZERO).is_err());
    }

    #[test]
    fn step_response_spans_rs_to_dc_limit() {
        let mut c = cell();
        let e = Volts::from_millivolts(100.0);
        let dt = Seconds::from_micros(0.05);
        let i0 = c.step(e, dt);
        // Initially the capacitor shorts Rct: i ≈ E/Rs = 1 mA.
        assert!(
            (i0.as_milliamps() - 1.0).abs() < 0.05,
            "i0 = {}",
            i0.as_milliamps()
        );
        // After many time constants: i = E/(Rs+Rct) ≈ 1 µA.
        let mut i = i0;
        for _ in 0..100_000 {
            i = c.step(e, Seconds::from_micros(1.0));
        }
        let expected = e.value() / c.dc_resistance().value();
        assert!(
            (i.value() - expected).abs() / expected < 0.01,
            "i = {}",
            i.value()
        );
    }

    #[test]
    fn time_constant_uses_parallel_resistance() {
        let c = cell();
        let parallel = 100.0 * 1e5 / (100.0 + 1e5);
        assert!((c.time_constant().value() - 46e-9 * parallel).abs() < 1e-12);
    }

    #[test]
    fn current_decays_exponentially() {
        let mut c = cell();
        let e = Volts::from_millivolts(100.0);
        let tau = c.time_constant().value();
        let n = 100;
        let dt = Seconds::new(tau / n as f64);
        let mut i_tau = Amps::ZERO;
        for _ in 0..n {
            i_tau = c.step(e, dt);
        }
        // i(τ) = i_∞ + (i0 − i_∞)·e⁻¹.
        let i0 = e.value() / c.rs().value();
        let i_inf = e.value() / c.dc_resistance().value();
        let expected = i_inf + (i0 - i_inf) * (-1.0f64).exp();
        assert!((i_tau.value() - expected).abs() / expected < 0.02);
    }

    #[test]
    fn zero_drive_relaxes_to_zero() {
        let mut c = cell();
        let _ = c.step(Volts::new(1.0), Seconds::from_millis(1.0));
        for _ in 0..10_000 {
            let _ = c.step(Volts::ZERO, Seconds::from_micros(10.0));
        }
        assert!(c.branch_voltage().value().abs() < 1e-9);
    }
}
