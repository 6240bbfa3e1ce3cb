//! Michaelis–Menten kinetics — the saturation law that sets every
//! biosensor's linear range.

use crate::error::BiochemError;
use bios_units::Molar;

/// Michaelis–Menten saturation kinetics `v = V·C/(Km + C)` (normalized to
/// `V = 1`; multiply by your Vmax).
///
/// The *apparent* `Km` of an immobilized, membrane-covered enzyme is larger
/// than the solution value; in this workspace apparent `Km`s are derived
/// from the paper's reported linear ranges (see `tables`).
///
/// # Example
///
/// ```
/// use bios_biochem::MichaelisMenten;
/// use bios_units::Molar;
///
/// # fn main() -> Result<(), bios_biochem::BiochemError> {
/// let mm = MichaelisMenten::new(Molar::from_millimolar(36.0))?;
/// // Half-saturation at Km.
/// assert!((mm.saturation(Molar::from_millimolar(36.0)) - 0.5).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct MichaelisMenten {
    km: Molar,
}

impl MichaelisMenten {
    /// Creates the law with the given (apparent) Michaelis constant.
    ///
    /// # Errors
    ///
    /// Returns [`BiochemError::InvalidParameter`] unless `Km` is strictly
    /// positive and finite.
    pub fn new(km: Molar) -> Result<Self, BiochemError> {
        if km.value() <= 0.0 || !km.value().is_finite() {
            return Err(BiochemError::invalid("km", "must be positive and finite"));
        }
        Ok(Self { km })
    }

    /// The Michaelis constant.
    pub fn km(&self) -> Molar {
        self.km
    }

    /// Fractional saturation `C/(Km + C)` in `[0, 1)`.
    ///
    /// Negative concentrations are clamped to zero (they can only arise from
    /// numerical noise upstream).
    pub fn saturation(&self, c: Molar) -> f64 {
        let c = c.value().max(0.0);
        c / (self.km.value() + c)
    }

    /// The largest concentration whose nonlinearity stays below `tolerance`:
    /// `C_max = Km·tol/(1 − tol)`.
    ///
    /// With a 10% tolerance the linear range ends at `Km/9` — which is how
    /// the registry back-derives apparent `Km`s from the paper's Table III
    /// linear ranges.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < tolerance < 1`.
    pub fn linear_limit(&self, tolerance: f64) -> Molar {
        assert!(
            tolerance > 0.0 && tolerance < 1.0,
            "tolerance must be in (0, 1)"
        );
        Molar::new(self.km.value() * tolerance / (1.0 - tolerance))
    }

    /// Inverse problem: the apparent `Km` for which `linear_limit(tolerance)`
    /// equals `c_max`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < tolerance < 1` and `c_max > 0`.
    pub fn from_linear_limit(c_max: Molar, tolerance: f64) -> Self {
        assert!(
            tolerance > 0.0 && tolerance < 1.0,
            "tolerance must be in (0, 1)"
        );
        assert!(c_max.value() > 0.0, "linear limit must be positive");
        Self {
            km: Molar::new(c_max.value() * (1.0 - tolerance) / tolerance),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mm(km_mm: f64) -> MichaelisMenten {
        MichaelisMenten::new(Molar::from_millimolar(km_mm)).expect("valid")
    }

    #[test]
    fn construction_validates() {
        assert!(MichaelisMenten::new(Molar::ZERO).is_err());
        assert!(MichaelisMenten::new(Molar::new(-1.0)).is_err());
        assert!(MichaelisMenten::new(Molar::new(f64::NAN)).is_err());
    }

    #[test]
    fn limits_of_saturation() {
        let m = mm(10.0);
        assert_eq!(m.saturation(Molar::ZERO), 0.0);
        assert!(m.saturation(Molar::from_millimolar(1e6)) > 0.999);
        // Clamps negatives.
        assert_eq!(m.saturation(Molar::new(-1.0)), 0.0);
    }

    #[test]
    fn linear_limit_round_trips_with_inverse() {
        let m = mm(36.0);
        let c_max = m.linear_limit(0.1);
        assert!((c_max.as_millimolar() - 4.0).abs() < 1e-9);
        let back = MichaelisMenten::from_linear_limit(c_max, 0.1);
        assert!((back.km().as_millimolar() - 36.0).abs() < 1e-9);
    }

    #[test]
    fn saturation_is_monotone() {
        let m = mm(5.0);
        let mut prev = -1.0;
        for k in 0..100 {
            let s = m.saturation(Molar::from_millimolar(k as f64 * 0.5));
            assert!(s >= prev);
            prev = s;
        }
    }

    #[test]
    #[should_panic(expected = "tolerance")]
    fn linear_limit_rejects_bad_tolerance() {
        let _ = mm(1.0).linear_limit(1.0);
    }
}
