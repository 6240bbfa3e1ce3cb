//! Oxygen as the oxidase co-substrate (paper eqs. 1–2).
//!
//! The FAD/FMN cycle needs molecular oxygen to regenerate (eq. 2:
//! `FADH₂ + O₂ → H₂O₂ + FAD`), so an oxidase sensor's current carries an
//! O₂-availability factor `[O₂]/(Km_O₂ + [O₂])`. Air-saturated buffer has
//! plenty; implanted subcutaneous tissue does not — the classic "oxygen
//! deficit" of implantable glucose sensors the paper's §I references
//! (Gough et al.) spent years engineering around.

use crate::error::BiochemError;
use bios_units::{Kelvin, Molar};

/// Apparent Michaelis constant of typical oxidases for molecular oxygen.
pub(crate) const KM_OXYGEN: Molar = Molar::new(0.2e-3);

/// Dissolved-oxygen conditions around the sensor.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct OxygenConditions {
    concentration: Molar,
}

impl OxygenConditions {
    /// Creates conditions with an explicit dissolved-O₂ concentration.
    ///
    /// # Errors
    ///
    /// Returns [`BiochemError::InvalidParameter`] for negative or
    /// non-finite concentrations.
    pub fn new(concentration: Molar) -> Result<Self, BiochemError> {
        if concentration.value() < 0.0 || !concentration.value().is_finite() {
            return Err(BiochemError::invalid(
                "concentration",
                "must be non-negative and finite",
            ));
        }
        Ok(Self { concentration })
    }

    /// Air-saturated aqueous buffer at 25 °C: ≈0.25 mM.
    pub(crate) fn air_saturated() -> Self {
        Self {
            concentration: Molar::from_micromolar(250.0),
        }
    }

    /// Subcutaneous tissue: ≈0.05 mM — the implant regime.
    pub fn subcutaneous_tissue() -> Self {
        Self {
            concentration: Molar::from_micromolar(50.0),
        }
    }

    /// Hypoxic tissue: ≈0.01 mM.
    pub fn hypoxic() -> Self {
        Self {
            concentration: Molar::from_micromolar(10.0),
        }
    }

    /// The dissolved-O₂ concentration.
    pub fn concentration(&self) -> Molar {
        self.concentration
    }

    /// The multiplicative availability factor `[O₂]/(Km_O₂ + [O₂])` the
    /// oxidase turnover (and thus the sensor current) carries.
    pub(crate) fn availability(&self) -> f64 {
        let c = self.concentration.value();
        c / (KM_OXYGEN.value() + c)
    }
}

impl Default for OxygenConditions {
    fn default() -> Self {
        Self::air_saturated()
    }
}

/// Thermal activity factor of an enzyme relative to 25 °C, with the
/// classic Q₁₀ ≈ 2 rule (each 10 K roughly doubles turnover) below the
/// denaturation knee at ≈45 °C, above which activity collapses.
pub fn thermal_activity_factor(t: Kelvin) -> f64 {
    let celsius = t.as_celsius();
    if celsius > 45.0 {
        // Denaturation: sharp collapse, 50% lost per extra 2 °C.
        let base = 2f64.powf((45.0 - 25.0) / 10.0);
        return base * 0.5f64.powf((celsius - 45.0) / 2.0);
    }
    2f64.powf((celsius - 25.0) / 10.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bios_units::{T_BODY, T_ROOM};

    #[test]
    fn construction_validates() {
        assert!(OxygenConditions::new(Molar::new(-1.0)).is_err());
        assert!(OxygenConditions::new(Molar::new(f64::NAN)).is_err());
        assert!(OxygenConditions::new(Molar::ZERO).is_ok());
    }

    #[test]
    fn air_saturated_is_nearly_unlimited() {
        assert!(OxygenConditions::air_saturated().availability() > 0.5);
    }

    #[test]
    fn tissue_oxygen_deficit_is_real() {
        // The implant regime loses a fifth to a half of the signal —
        // the well-known oxygen deficit.
        let tissue = OxygenConditions::subcutaneous_tissue().availability();
        let air = OxygenConditions::air_saturated().availability();
        assert!(tissue < 0.5 * air / 0.55, "tissue {tissue} vs air {air}");
        let hypoxic = OxygenConditions::hypoxic().availability();
        assert!(hypoxic < tissue);
        assert!(
            OxygenConditions::new(Molar::ZERO)
                .expect("valid")
                .availability()
                == 0.0
        );
    }

    #[test]
    fn q10_doubles_per_10_degrees() {
        let room = thermal_activity_factor(T_ROOM);
        assert!((room - 1.0).abs() < 1e-12);
        let body = thermal_activity_factor(T_BODY);
        // 37 °C: 2^(12/10) ≈ 2.3.
        assert!((body - 2f64.powf(1.2)).abs() < 1e-9);
    }

    #[test]
    fn denaturation_collapses_activity() {
        let at_44 = thermal_activity_factor(Kelvin::from_celsius(44.0));
        let at_55 = thermal_activity_factor(Kelvin::from_celsius(55.0));
        assert!(at_44 > 3.0, "still thriving just below the knee");
        assert!(at_55 < 0.25, "denatured: {at_55}");
        // Continuity at the knee.
        let before = thermal_activity_factor(Kelvin::from_celsius(44.999));
        let after = thermal_activity_factor(Kelvin::from_celsius(45.001));
        assert!((before - after).abs() / before < 0.01);
    }
}
