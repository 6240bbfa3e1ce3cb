//! One-compartment pharmacokinetics — generates the drug-concentration
//! timelines the therapeutic-monitoring workloads (paper §I-A) run against.

use crate::error::BiochemError;
use bios_units::{Liters, Molar, Moles, Seconds};

/// Route of administration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum Route {
    /// Instantaneous appearance in plasma (bolus).
    Intravenous,
    /// First-order absorption with rate constant `ka`.
    Oral,
}

/// A one-compartment pharmacokinetic model with first-order elimination.
///
/// `C(t) = (D/V)·e^{−ke·t}` for IV bolus;
/// `C(t) = (D/V)·ka/(ka−ke)·(e^{−ke·t} − e^{−ka·t})` for oral dosing.
///
/// # Example
///
/// ```
/// use bios_biochem::{OneCompartmentPk, Route};
/// use bios_units::{Liters, Moles, Seconds};
///
/// # fn main() -> Result<(), bios_biochem::BiochemError> {
/// let pk = OneCompartmentPk::new(
///     Moles::from_millimoles(35.0), // dose
///     Liters::new(42.0),            // volume of distribution
///     Route::Oral,
///     1.5e-4,                        // ka, 1/s  (~13 min half-time)
///     3.2e-5,                        // ke, 1/s  (~6 h half-life)
/// )?;
/// let c_peak = pk.concentration(pk.time_to_peak());
/// assert!(c_peak.value() > 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct OneCompartmentPk {
    dose: Moles,
    volume: Liters,
    route: Route,
    ka_per_s: f64,
    ke_per_s: f64,
}

impl OneCompartmentPk {
    /// Creates the model.
    ///
    /// # Errors
    ///
    /// Returns [`BiochemError::InvalidParameter`] for non-positive dose,
    /// volume or rate constants, or `ka == ke` for oral dosing (the
    /// degenerate case; perturb one constant slightly).
    pub fn new(
        dose: Moles,
        volume: Liters,
        route: Route,
        ka_per_s: f64,
        ke_per_s: f64,
    ) -> Result<Self, BiochemError> {
        if dose.value() <= 0.0 || !dose.value().is_finite() {
            return Err(BiochemError::invalid("dose", "must be positive and finite"));
        }
        if volume.value() <= 0.0 || !volume.value().is_finite() {
            return Err(BiochemError::invalid(
                "volume",
                "must be positive and finite",
            ));
        }
        if ke_per_s <= 0.0 || !ke_per_s.is_finite() {
            return Err(BiochemError::invalid("ke", "must be positive and finite"));
        }
        if route == Route::Oral {
            if ka_per_s <= 0.0 || !ka_per_s.is_finite() {
                return Err(BiochemError::invalid("ka", "must be positive and finite"));
            }
            if (ka_per_s - ke_per_s).abs() < 1e-12 {
                return Err(BiochemError::invalid(
                    "ka",
                    "must differ from ke (degenerate oral model)",
                ));
            }
        }
        Ok(Self {
            dose,
            volume,
            route,
            ka_per_s,
            ke_per_s,
        })
    }

    /// Plasma concentration a time `t` after dosing (zero for `t < 0`).
    pub fn concentration(&self, t: Seconds) -> Molar {
        if t.value() < 0.0 {
            return Molar::ZERO;
        }
        let c0 = self.dose.value() / self.volume.value(); // mol/L
        let c = match self.route {
            Route::Intravenous => c0 * (-self.ke_per_s * t.value()).exp(),
            Route::Oral => {
                let (ka, ke) = (self.ka_per_s, self.ke_per_s);
                c0 * ka / (ka - ke) * ((-ke * t.value()).exp() - (-ka * t.value()).exp())
            }
        };
        Molar::new(c.max(0.0))
    }

    /// Elimination half-life `ln 2 / ke`.
    pub fn half_life(&self) -> Seconds {
        Seconds::new(core::f64::consts::LN_2 / self.ke_per_s)
    }

    /// Time of peak plasma concentration (`0` for IV bolus;
    /// `ln(ka/ke)/(ka−ke)` for oral).
    pub fn time_to_peak(&self) -> Seconds {
        match self.route {
            Route::Intravenous => Seconds::ZERO,
            Route::Oral => {
                Seconds::new((self.ka_per_s / self.ke_per_s).ln() / (self.ka_per_s - self.ke_per_s))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn oral() -> OneCompartmentPk {
        OneCompartmentPk::new(
            Moles::from_millimoles(35.0),
            Liters::new(42.0),
            Route::Oral,
            1.5e-4,
            3.2e-5,
        )
        .expect("valid")
    }

    #[test]
    fn construction_validates() {
        let d = Moles::from_millimoles(1.0);
        let v = Liters::new(40.0);
        assert!(OneCompartmentPk::new(Moles::ZERO, v, Route::Intravenous, 0.0, 1e-4).is_err());
        assert!(OneCompartmentPk::new(d, Liters::ZERO, Route::Intravenous, 0.0, 1e-4).is_err());
        assert!(OneCompartmentPk::new(d, v, Route::Intravenous, 0.0, 0.0).is_err());
        assert!(OneCompartmentPk::new(d, v, Route::Oral, 1e-4, 1e-4).is_err());
        assert!(OneCompartmentPk::new(d, v, Route::Oral, 0.0, 1e-4).is_err());
    }

    #[test]
    fn iv_starts_at_dose_over_volume() {
        let pk = OneCompartmentPk::new(
            Moles::from_millimoles(42.0),
            Liters::new(42.0),
            Route::Intravenous,
            0.0,
            3.2e-5,
        )
        .expect("valid");
        assert!((pk.concentration(Seconds::ZERO).as_millimolar() - 1.0).abs() < 1e-12);
        // One half-life later: half.
        let c = pk.concentration(pk.half_life());
        assert!((c.as_millimolar() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn oral_peaks_then_decays() {
        let pk = oral();
        let t_peak = pk.time_to_peak();
        let c_peak = pk.concentration(t_peak);
        let before = pk.concentration(t_peak * 0.3);
        let after = pk.concentration(t_peak * 4.0);
        assert!(c_peak.value() > before.value());
        assert!(c_peak.value() > after.value());
        assert_eq!(pk.concentration(Seconds::new(-1.0)), Molar::ZERO);
        assert!(pk.concentration(Seconds::ZERO).value() < 1e-15);
    }

    #[test]
    fn peak_time_is_a_maximum() {
        let pk = oral();
        let t = pk.time_to_peak().value();
        let c = |tt: f64| pk.concentration(Seconds::new(tt)).value();
        assert!(c(t) >= c(t * 0.99));
        assert!(c(t) >= c(t * 1.01));
    }
}
