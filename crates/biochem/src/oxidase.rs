//! Oxidase biosensors: enzyme → H₂O₂ → anodic current (paper eqs. 1–3).

use crate::analyte::Analyte;
use crate::error::BiochemError;
use crate::membrane::Membrane;
use crate::michaelis::MichaelisMenten;
use crate::tables::{oxidase_row, performance_of, PerformanceRow};
use bios_units::{AmpsPerCm2, Molar, Seconds, Volts};

/// The four oxidases of the paper's Table I.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum Oxidase {
    /// Glucose oxidase (GOD) — FAD prosthetic group.
    Glucose,
    /// Lactate oxidase — FMN prosthetic group.
    Lactate,
    /// L-glutamate oxidase (GlOD) — FAD.
    Glutamate,
    /// Cholesterol oxidase (COD) — FAD.
    Cholesterol,
}

impl Oxidase {
    /// All oxidase variants in Table I order.
    pub const ALL: [Oxidase; 4] = [
        Oxidase::Glucose,
        Oxidase::Lactate,
        Oxidase::Glutamate,
        Oxidase::Cholesterol,
    ];

    /// The metabolite this oxidase senses.
    pub fn target(self) -> Analyte {
        match self {
            Oxidase::Glucose => Analyte::Glucose,
            Oxidase::Lactate => Analyte::Lactate,
            Oxidase::Glutamate => Analyte::Glutamate,
            Oxidase::Cholesterol => Analyte::Cholesterol,
        }
    }

    /// The Table I chronoamperometric working potential vs Ag/AgCl.
    pub fn applied_potential(self) -> Volts {
        oxidase_row(self).applied_potential
    }
}

impl core::fmt::Display for Oxidase {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let s = match self {
            Oxidase::Glucose => "glucose oxidase",
            Oxidase::Lactate => "lactate oxidase",
            Oxidase::Glutamate => "L-glutamate oxidase",
            Oxidase::Cholesterol => "cholesterol oxidase",
        };
        f.write_str(s)
    }
}

/// A calibrated oxidase biosensor model.
///
/// Produces anodic current density `j(C) = S·Km·C/(Km + C)` where the
/// low-concentration slope `S` and apparent `Km` come from the paper's
/// Table III (see `tables` for the calibration policy), with a membrane
/// that shapes the transient (Fig. 3).
///
/// # Example
///
/// ```
/// use bios_biochem::{Oxidase, OxidaseSensor};
/// use bios_units::Molar;
///
/// # fn main() -> Result<(), bios_biochem::BiochemError> {
/// let sensor = OxidaseSensor::from_registry(Oxidase::Glucose)?;
/// let j = sensor.steady_current_density(Molar::from_millimolar(4.0));
/// // Table III: 27.7 µA/(mM·cm²) × 4 mM × (1 − 10% saturation) ≈ 99.7 µA/cm².
/// assert!((j.as_microamps_per_cm2() - 99.7).abs() < 0.5);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct OxidaseSensor {
    oxidase: Oxidase,
    sensitivity_si: f64, // A/(M·cm²)
    kinetics: MichaelisMenten,
    membrane: Membrane,
    blank_sd: AmpsPerCm2,
}

impl OxidaseSensor {
    /// Builds the sensor with the Table III calibration for this oxidase's
    /// target (CNT-nanostructured electrode, as the paper's §III notes).
    ///
    /// # Errors
    ///
    /// Returns [`BiochemError::UnsupportedAnalyte`] if the registry lacks a
    /// performance row for the target (never happens for Table I oxidases
    /// except cholesterol-via-oxidase, which Table III reports via CYP11A1 —
    /// that case uses the CYP row's calibration).
    pub fn from_registry(oxidase: Oxidase) -> Result<Self, BiochemError> {
        let row =
            performance_of(oxidase.target()).ok_or_else(|| BiochemError::UnsupportedAnalyte {
                probe: oxidase.to_string(),
                analyte: oxidase.target().to_string(),
            })?;
        Self::from_performance(oxidase, row)
    }

    /// Builds the sensor from an explicit performance row (for what-if
    /// exploration with modified calibrations).
    ///
    /// # Errors
    ///
    /// Returns [`BiochemError::InvalidParameter`] for non-positive
    /// sensitivity.
    pub(crate) fn from_performance(
        oxidase: Oxidase,
        row: &PerformanceRow,
    ) -> Result<Self, BiochemError> {
        if row.sensitivity_si() <= 0.0 {
            return Err(BiochemError::invalid("sensitivity", "must be positive"));
        }
        Ok(Self {
            oxidase,
            sensitivity_si: row.sensitivity_si(),
            kinetics: MichaelisMenten::new(row.km_apparent())?,
            membrane: Membrane::paper_glucose_membrane(),
            blank_sd: row.blank_sd(),
        })
    }

    /// Scales the sensitivity, e.g. to model removing the CNT
    /// nanostructuring (ablation A3).
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not strictly positive.
    pub fn with_sensitivity_scaled(mut self, factor: f64) -> Self {
        assert!(factor > 0.0, "sensitivity factor must be positive");
        self.sensitivity_si *= factor;
        self.blank_sd = AmpsPerCm2::new(self.blank_sd.value()); // noise is electrode-side, unchanged
        self
    }

    /// The enzyme.
    pub fn oxidase(&self) -> Oxidase {
        self.oxidase
    }

    /// The membrane.
    pub fn membrane(&self) -> &Membrane {
        &self.membrane
    }

    /// Low-concentration sensitivity in A/(M·cm²).
    pub fn sensitivity_si(&self) -> f64 {
        self.sensitivity_si
    }

    /// The sensor's Michaelis–Menten law.
    pub fn kinetics(&self) -> &MichaelisMenten {
        &self.kinetics
    }

    /// Blank (zero-analyte) current-density noise SD.
    pub fn blank_sd(&self) -> AmpsPerCm2 {
        self.blank_sd
    }

    /// Chronoamperometric working potential (Table I).
    pub fn applied_potential(&self) -> Volts {
        self.oxidase.applied_potential()
    }

    /// Steady-state anodic current density at analyte concentration `c`:
    /// `j = S·Km·C/(Km + C)` (air-saturated oxygen assumed).
    pub fn steady_current_density(&self, c: Molar) -> AmpsPerCm2 {
        AmpsPerCm2::new(
            self.sensitivity_si * self.kinetics.km().value() * self.kinetics.saturation(c),
        )
    }

    /// Steady-state current density under explicit dissolved-oxygen
    /// conditions: the FAD/FMN regeneration (paper eq. 2) needs O₂, so the
    /// current carries the availability factor `[O₂]/(Km_O₂+[O₂])`
    /// normalized to the air-saturated calibration reference.
    pub fn steady_current_density_with_oxygen(
        &self,
        c: Molar,
        oxygen: crate::OxygenConditions,
    ) -> AmpsPerCm2 {
        let reference = crate::OxygenConditions::air_saturated().availability();
        self.steady_current_density(c) * (oxygen.availability() / reference)
    }

    /// Current density a time `t` after the concentration stepped from
    /// `c_before` to `c_after` (membrane-shaped transient; Fig. 3).
    pub fn transient_current_density(
        &self,
        c_before: Molar,
        c_after: Molar,
        t_since_step: Seconds,
    ) -> AmpsPerCm2 {
        let j0 = self.steady_current_density(c_before);
        let j1 = self.steady_current_density(c_after);
        let f = self.membrane.step_response(t_since_step);
        AmpsPerCm2::new(j0.value() + (j1.value() - j0.value()) * f)
    }

    /// Steady-state response time `t₉₀` (paper §II-B).
    pub fn response_time_t90(&self) -> Seconds {
        self.membrane.response_time(0.9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metadata_matches_paper() {
        assert_eq!(Oxidase::Glucose.target(), Analyte::Glucose);
        assert_eq!(Oxidase::Glucose.applied_potential(), Volts::new(0.55));
        assert_eq!(Oxidase::Cholesterol.applied_potential(), Volts::new(0.70));
    }

    #[test]
    fn registry_sensor_slope_matches_table_iii() {
        let s = OxidaseSensor::from_registry(Oxidase::Glucose).expect("registry");
        // Slope at a concentration well inside the linear regime.
        let c = Molar::from_millimolar(0.1);
        let j = s.steady_current_density(c);
        let slope = j.value() / c.value(); // A/(M·cm²)
        let expected = 27.7e-3;
        assert!(
            (slope - expected).abs() / expected < 0.01,
            "slope {slope} vs {expected}"
        );
    }

    #[test]
    fn saturation_limits_linear_range() {
        let s = OxidaseSensor::from_registry(Oxidase::Glucose).expect("registry");
        // At the top of the linear range (4 mM) nonlinearity is 10%.
        let c_top = Molar::from_millimolar(4.0);
        let j = s.steady_current_density(c_top).value();
        let linear = s.sensitivity_si() * c_top.value();
        assert!(((linear - j) / linear - 0.10).abs() < 1e-9);
    }

    #[test]
    fn transient_reaches_90pct_by_t90() {
        let s = OxidaseSensor::from_registry(Oxidase::Glucose).expect("registry");
        let c0 = Molar::ZERO;
        let c1 = Molar::from_millimolar(2.0);
        let t90 = s.response_time_t90();
        // Fig. 3: ≈30 s.
        assert!((t90.value() - 30.0).abs() < 1.5, "t90 = {}", t90.value());
        let j_t90 = s.transient_current_density(c0, c1, t90);
        let j_ss = s.steady_current_density(c1);
        assert!((j_t90.value() / j_ss.value() - 0.9).abs() < 1e-6);
        // Before the injection nothing happens.
        assert_eq!(
            s.transient_current_density(c0, c1, Seconds::new(-5.0))
                .value(),
            0.0
        );
    }

    #[test]
    fn all_four_registry_sensors_build() {
        // Note: the cholesterol *oxidase* path reuses the Table III
        // cholesterol row (reported via CYP11A1) — still a valid calibration.
        for ox in Oxidase::ALL {
            let s = OxidaseSensor::from_registry(ox).expect("registry");
            assert!(s.blank_sd().value() > 0.0);
            assert!(s.sensitivity_si() > 0.0);
        }
    }

    #[test]
    fn step_response_table_matches_transient_bit_for_bit() {
        // A chrono grid as a protocol plans it: samples before, at and
        // after the injection, out to where the series has converged.
        let dt = 0.25;
        let injection = 10.0;
        let since: Vec<Seconds> = (0..=2400)
            .map(|k| Seconds::new((k as f64 * dt) - injection))
            .collect();
        let (c0, c1) = (Molar::ZERO, Molar::from_millimolar(2.5));
        for ox in Oxidase::ALL {
            let s = OxidaseSensor::from_registry(ox).expect("registry");
            let table = s.membrane().step_response_table(since.iter().copied());
            assert_eq!(table.len(), since.len());
            let j0 = s.steady_current_density(c0).value();
            let j1 = s.steady_current_density(c1).value();
            for (f, t) in table.iter().zip(&since) {
                let direct = s.membrane().step_response(*t);
                assert_eq!(f.to_bits(), direct.to_bits(), "{ox} at {t:?}");
                let want = s.transient_current_density(c0, c1, *t).value();
                let planned = j0 + (j1 - j0) * f;
                assert_eq!(planned.to_bits(), want.to_bits(), "{ox} at {t:?}");
            }
        }
    }

    #[test]
    fn sensitivity_scaling_for_ablation() {
        let s = OxidaseSensor::from_registry(Oxidase::Glucose).expect("registry");
        let bare = s.clone().with_sensitivity_scaled(1.0 / 12.0);
        let c = Molar::from_millimolar(1.0);
        let ratio = s.steady_current_density(c).value() / bare.steady_current_density(c).value();
        assert!((ratio - 12.0).abs() < 1e-9);
    }

    #[test]
    fn oxygen_deficit_attenuates_the_signal() {
        let s = OxidaseSensor::from_registry(Oxidase::Glucose).expect("registry");
        let c = Molar::from_millimolar(2.0);
        let air = s.steady_current_density_with_oxygen(c, crate::OxygenConditions::air_saturated());
        // Air-saturated conditions equal the calibration reference.
        assert!((air.value() - s.steady_current_density(c).value()).abs() < 1e-18);
        let tissue =
            s.steady_current_density_with_oxygen(c, crate::OxygenConditions::subcutaneous_tissue());
        assert!(tissue.value() < 0.5 * air.value(), "tissue deficit");
        let anoxic = s.steady_current_density_with_oxygen(
            c,
            crate::OxygenConditions::new(Molar::ZERO).expect("valid"),
        );
        assert_eq!(anoxic.value(), 0.0);
    }

    #[test]
    fn lactate_is_most_sensitive_oxidase() {
        let j_at = |ox: Oxidase| {
            OxidaseSensor::from_registry(ox)
                .expect("registry")
                .steady_current_density(Molar::from_millimolar(0.5))
                .value()
        };
        assert!(j_at(Oxidase::Lactate) > j_at(Oxidase::Glucose));
        assert!(j_at(Oxidase::Glucose) > j_at(Oxidase::Glutamate));
    }
}
