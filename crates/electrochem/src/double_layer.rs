//! Double-layer (non-faradaic) charging currents — the background every
//! biosensor measurement sits on.
//!
//! The paper (§III) notes that scaling electrodes down shrinks the
//! background current "due to different double-layer capacitance phenomena";
//! these models quantify that.

use crate::cell::Cell;
use crate::error::ElectrochemError;
use bios_units::{Amps, Seconds, Volts, VoltsPerSecond};

/// Charging current during a linear sweep: `i_c = C_dl·(dE/dt)`.
///
/// After a few cell time constants the capacitor tracks the ramp and the
/// charging current is constant; this returns that asymptote, signed with
/// the sweep direction (anodic-positive convention).
pub fn sweep_charging_current(cell: &Cell, rate: VoltsPerSecond, direction_up: bool) -> Amps {
    let magnitude = cell.double_layer_capacitance().value() * rate.value();
    Amps::new(if direction_up { magnitude } else { -magnitude })
}

/// Charging transient after a potential step `ΔE` through the uncompensated
/// resistance: `i_c(t) = (ΔE/R_u)·exp(−t/(R_u·C_dl))`.
///
/// Returns zero for `t < 0`. With `R_u = 0` the step charges instantly and
/// the function returns zero for `t > 0` (and ΔE/0 = ∞ is avoided by
/// convention: use a small series resistance if you need the spike).
pub fn step_charging_current(cell: &Cell, delta_e: Volts, t: Seconds) -> Amps {
    if t.value() < 0.0 {
        return Amps::ZERO;
    }
    let ru = cell.uncompensated_resistance().value();
    // advdiag::allow(F1, exact sentinel: an ideally unresisted cell charges instantaneously)
    if ru == 0.0 {
        return Amps::ZERO;
    }
    let tau = cell.time_constant().value();
    Amps::new(delta_e.value() / ru * (-t.value() / tau).exp())
}

/// Time for the step-charging transient to decay below `fraction` of its
/// initial value: `t = τ·ln(1/fraction)`.
///
/// # Panics
///
/// Panics unless `0 < fraction < 1`.
pub fn charging_settling_time(cell: &Cell, fraction: f64) -> Seconds {
    assert!(
        fraction > 0.0 && fraction < 1.0,
        "fraction must be in (0, 1)"
    );
    Seconds::new(cell.time_constant().value() * (1.0 / fraction).ln())
}

/// Discrete-time double-layer charging model for the simulation drivers.
///
/// The interface capacitance `C_dl` charges through the uncompensated
/// resistance `R_u`; for a piecewise-constant applied potential the update
/// is exact: `E_cap ← E + (E_cap − E)·exp(−Δt/τ)`, and the average charging
/// current over the step is `C_dl·ΔE_cap/Δt`. As `τ → 0` this recovers the
/// ideal `i_c = C_dl·dE/dt`. A filter is bound to one step length `Δt`, so
/// the decay factor is computed once, not per step.
#[derive(Debug, Clone, PartialEq)]
pub struct ChargingFilter {
    e_cap: f64,
    cdl: f64,
    dt: f64,
    /// `exp(−Δt/τ)`, or `None` when `τ ≤ 0` and the capacitor follows the
    /// applied potential at once.
    decay: Option<f64>,
}

impl ChargingFilter {
    /// Creates the filter pre-equilibrated at `initial` potential, stepping
    /// by `dt`.
    ///
    /// # Errors
    ///
    /// Returns [`ElectrochemError::InvalidParameter`] unless `dt` is
    /// positive and finite.
    pub fn new(cell: &Cell, initial: Volts, dt: Seconds) -> Result<Self, ElectrochemError> {
        let dt = dt.value();
        if dt <= 0.0 || !dt.is_finite() {
            return Err(ElectrochemError::invalid(
                "dt",
                "must be positive and finite",
            ));
        }
        let tau = cell.time_constant().value();
        Ok(Self {
            e_cap: initial.value(),
            cdl: cell.double_layer_capacitance().value(),
            dt,
            decay: if tau <= 0.0 {
                None
            } else {
                Some((-dt / tau).exp())
            },
        })
    }

    /// Advances one step with applied potential `e`; returns the average
    /// charging current over the step (anodic positive).
    pub fn step(&mut self, e: Volts) -> Amps {
        let next = match self.decay {
            Some(k) => e.value() + (self.e_cap - e.value()) * k,
            None => e.value(),
        };
        let i = self.cdl * (next - self.e_cap) / self.dt;
        self.e_cap = next;
        Amps::new(i)
    }

    /// The capacitor's present potential.
    pub fn capacitor_potential(&self) -> Volts {
        Volts::new(self.e_cap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::electrode::{Electrode, ElectrodeMaterial};
    use bios_units::SquareCentimeters;

    fn cell_with_area(area_mm2: f64) -> Cell {
        let we = Electrode::new(
            ElectrodeMaterial::Gold,
            SquareCentimeters::from_square_millimeters(area_mm2),
        )
        .expect("valid");
        Cell::builder(we).build().expect("valid")
    }

    #[test]
    fn sweep_charging_scales_with_area() {
        // The microelectrode advantage: 10× smaller electrode → 10× smaller background.
        let rate = VoltsPerSecond::from_millivolts_per_second(20.0);
        let big = sweep_charging_current(&cell_with_area(2.3), rate, true);
        let small = sweep_charging_current(&cell_with_area(0.23), rate, true);
        assert!((big.value() / small.value() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn sweep_charging_signs_follow_direction() {
        let cell = cell_with_area(0.23);
        let rate = VoltsPerSecond::from_millivolts_per_second(20.0);
        assert!(sweep_charging_current(&cell, rate, true).value() > 0.0);
        assert!(sweep_charging_current(&cell, rate, false).value() < 0.0);
    }

    #[test]
    fn paper_electrode_background_magnitude() {
        // 0.23 mm² gold, 20 µF/cm², 20 mV/s → 46 nF · 0.02 V/s ≈ 0.92 nA.
        let cell = cell_with_area(0.23);
        let i = sweep_charging_current(
            &cell,
            VoltsPerSecond::from_millivolts_per_second(20.0),
            true,
        );
        assert!(
            (i.as_nanoamps() - 0.92).abs() < 0.05,
            "i = {}",
            i.as_nanoamps()
        );
    }

    #[test]
    fn step_transient_decays_exponentially() {
        let cell = cell_with_area(0.23);
        let de = Volts::from_millivolts(650.0);
        let i0 = step_charging_current(&cell, de, Seconds::ZERO);
        assert!((i0.value() - 0.65 / 100.0).abs() < 1e-12);
        let tau = cell.time_constant();
        let i_tau = step_charging_current(&cell, de, tau);
        assert!((i_tau.value() / i0.value() - (-1.0f64).exp()).abs() < 1e-9);
        assert_eq!(
            step_charging_current(&cell, de, Seconds::new(-1.0)),
            Amps::ZERO
        );
    }

    #[test]
    fn settling_time_log_relation() {
        let cell = cell_with_area(0.23);
        let t1 = charging_settling_time(&cell, 0.01);
        // ln(100) ≈ 4.6 time constants.
        assert!((t1.value() / cell.time_constant().value() - 100.0f64.ln()).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "fraction")]
    fn settling_rejects_bad_fraction() {
        let _ = charging_settling_time(&cell_with_area(0.23), 1.5);
    }

    #[test]
    fn charging_filter_tracks_ramp_asymptote() {
        let cell = cell_with_area(0.23);
        let dt = Seconds::from_millis(1.0);
        let mut filt = ChargingFilter::new(&cell, Volts::ZERO, dt).expect("dt");
        let rate = 0.02; // 20 mV/s
        let mut i = Amps::ZERO;
        for k in 0..2000 {
            let e = Volts::new(rate * (k + 1) as f64 * dt.value());
            i = filt.step(e);
        }
        let expected = sweep_charging_current(
            &cell,
            VoltsPerSecond::from_millivolts_per_second(20.0),
            true,
        );
        assert!((i.value() - expected.value()).abs() / expected.value() < 0.01);
    }

    #[test]
    fn charging_filter_rejects_bad_intervals() {
        let cell = cell_with_area(0.23);
        for dt in [0.0, -1e-3, f64::NAN, f64::INFINITY] {
            assert!(
                ChargingFilter::new(&cell, Volts::ZERO, Seconds::new(dt)).is_err(),
                "dt {dt}"
            );
        }
    }

    #[test]
    fn charging_filter_step_charge_conserved() {
        // Total charge through the filter after a step equals C·ΔE.
        let cell = cell_with_area(0.23);
        let dt = Seconds::from_micros(1.0);
        let mut filt = ChargingFilter::new(&cell, Volts::ZERO, dt).expect("dt");
        let e = Volts::from_millivolts(650.0);
        let mut q = 0.0;
        for _ in 0..200 {
            q += filt.step(e).value() * dt.value();
        }
        let expected = cell.double_layer_capacitance().value() * 0.65;
        assert!(
            (q - expected).abs() / expected < 1e-6,
            "q = {q}, expected {expected}"
        );
        assert!((filt.capacitor_potential().value() - 0.65).abs() < 1e-9);
    }
}
