//! Redox couples: the electroactive species observed at the working electrode.

use crate::error::ElectrochemError;
use bios_units::{DiffusionCoefficient, Volts};

/// A redox couple `O + n·e⁻ ⇌ R` with its transport and kinetic parameters.
///
/// This is the species the electrode *sees*: for oxidase biosensors it is the
/// H₂O₂/O₂ couple produced by the enzyme (paper eq. 3); for cytochrome P450
/// sensors it is the heme Fe³⁺/Fe²⁺ centre whose reduction drives eq. 4.
///
/// # Example
///
/// ```
/// use bios_electrochem::RedoxCouple;
/// use bios_units::Volts;
///
/// # fn main() -> Result<(), bios_electrochem::ElectrochemError> {
/// let h2o2 = RedoxCouple::builder("H2O2")
///     .electrons(2)
///     .formal_potential(Volts::new(0.45))
///     .diffusion(1.7e-5)
///     .rate_constant(1e-4) // sluggish kinetics: needs the +650 mV overpotential
///     .build()?;
/// assert_eq!(h2o2.electrons(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct RedoxCouple {
    name: String,
    electrons: u32,
    formal_potential: Volts,
    diffusion_ox: DiffusionCoefficient,
    diffusion_red: DiffusionCoefficient,
    rate_constant_cm_per_s: f64,
    transfer_coefficient: f64,
}

impl RedoxCouple {
    /// Starts building a couple with the given display name.
    pub fn builder(name: impl Into<String>) -> RedoxCoupleBuilder {
        RedoxCoupleBuilder {
            name: name.into(),
            electrons: 1,
            formal_potential: Volts::ZERO,
            diffusion_ox: DiffusionCoefficient::new(1e-5),
            diffusion_red: None,
            rate_constant_cm_per_s: 1.0,
            transfer_coefficient: 0.5,
        }
    }

    /// Display name of the couple (e.g. `"H2O2"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of electrons `n` transferred.
    pub fn electrons(&self) -> u32 {
        self.electrons
    }

    /// Formal potential `E⁰'` vs Ag/AgCl.
    pub fn formal_potential(&self) -> Volts {
        self.formal_potential
    }

    /// Diffusion coefficient of the oxidized form.
    pub fn diffusion_ox(&self) -> DiffusionCoefficient {
        self.diffusion_ox
    }

    /// Diffusion coefficient of the reduced form.
    pub fn diffusion_red(&self) -> DiffusionCoefficient {
        self.diffusion_red
    }

    /// Standard heterogeneous rate constant `k⁰` in cm/s.
    ///
    /// ≳0.1 cm/s behaves reversibly at the paper's 20 mV/s scan rates;
    /// ≲10⁻⁴ cm/s is irreversible and needs a large overpotential.
    pub(crate) fn rate_constant_cm_per_s(&self) -> f64 {
        self.rate_constant_cm_per_s
    }

    /// Charge-transfer coefficient `α` (0 < α < 1, usually ≈0.5).
    pub fn transfer_coefficient(&self) -> f64 {
        self.transfer_coefficient
    }
}

/// Builder for [`RedoxCouple`] (guideline C-BUILDER).
#[derive(Debug, Clone)]
pub struct RedoxCoupleBuilder {
    name: String,
    electrons: u32,
    formal_potential: Volts,
    diffusion_ox: DiffusionCoefficient,
    diffusion_red: Option<DiffusionCoefficient>,
    rate_constant_cm_per_s: f64,
    transfer_coefficient: f64,
}

impl RedoxCoupleBuilder {
    /// Sets the number of electrons transferred (default 1).
    pub fn electrons(mut self, n: u32) -> Self {
        self.electrons = n;
        self
    }

    /// Sets the formal potential `E⁰'` vs Ag/AgCl (default 0 V).
    pub fn formal_potential(mut self, e0: Volts) -> Self {
        self.formal_potential = e0;
        self
    }

    /// Sets the diffusion coefficient of both forms, in cm²/s (default 10⁻⁵).
    pub fn diffusion(mut self, d_cm2_per_s: f64) -> Self {
        self.diffusion_ox = DiffusionCoefficient::new(d_cm2_per_s);
        self
    }

    /// Sets a distinct diffusion coefficient for the reduced form.
    pub fn diffusion_red(mut self, d_cm2_per_s: f64) -> Self {
        self.diffusion_red = Some(DiffusionCoefficient::new(d_cm2_per_s));
        self
    }

    /// Sets the standard heterogeneous rate constant `k⁰` in cm/s (default 1.0).
    pub fn rate_constant(mut self, k0_cm_per_s: f64) -> Self {
        self.rate_constant_cm_per_s = k0_cm_per_s;
        self
    }

    /// Sets the charge-transfer coefficient `α` (default 0.5).
    pub fn transfer_coefficient(mut self, alpha: f64) -> Self {
        self.transfer_coefficient = alpha;
        self
    }

    /// Validates the parameters and builds the couple.
    ///
    /// # Errors
    ///
    /// Returns [`ElectrochemError::InvalidParameter`] when `n == 0`, a
    /// diffusion coefficient or rate constant is non-positive, or `α` is
    /// outside `(0, 1)`.
    pub fn build(self) -> Result<RedoxCouple, ElectrochemError> {
        if self.electrons == 0 {
            return Err(ElectrochemError::invalid("electrons", "must be at least 1"));
        }
        if self.diffusion_ox.value() <= 0.0 || !self.diffusion_ox.value().is_finite() {
            return Err(ElectrochemError::invalid(
                "diffusion_ox",
                "must be positive and finite",
            ));
        }
        let diffusion_red = self.diffusion_red.unwrap_or(self.diffusion_ox);
        if diffusion_red.value() <= 0.0 || !diffusion_red.value().is_finite() {
            return Err(ElectrochemError::invalid(
                "diffusion_red",
                "must be positive and finite",
            ));
        }
        if self.rate_constant_cm_per_s <= 0.0 || !self.rate_constant_cm_per_s.is_finite() {
            return Err(ElectrochemError::invalid(
                "rate_constant",
                "must be positive and finite",
            ));
        }
        if !(self.transfer_coefficient > 0.0 && self.transfer_coefficient < 1.0) {
            return Err(ElectrochemError::invalid(
                "transfer_coefficient",
                "must lie strictly between 0 and 1",
            ));
        }
        if !self.formal_potential.is_finite() {
            return Err(ElectrochemError::invalid(
                "formal_potential",
                "must be finite",
            ));
        }
        Ok(RedoxCouple {
            name: self.name,
            electrons: self.electrons,
            formal_potential: self.formal_potential,
            diffusion_ox: self.diffusion_ox,
            diffusion_red,
            rate_constant_cm_per_s: self.rate_constant_cm_per_s,
            transfer_coefficient: self.transfer_coefficient,
        })
    }
}

/// Well-known couples used throughout the workspace.
impl RedoxCouple {
    /// Hydrogen peroxide oxidation (paper eq. 3): the common oxidase product.
    ///
    /// Kinetically sluggish on plain electrodes — the reason the paper's
    /// Table I oxidase sensors poll at +550…+700 mV instead of near `E⁰'`.
    ///
    /// Constructed as a literal rather than through the validating builder so
    /// this constant constructor has no panic path.
    pub fn hydrogen_peroxide() -> Self {
        Self {
            name: "H2O2".to_string(),
            electrons: 2,
            formal_potential: Volts::new(0.27),
            diffusion_ox: DiffusionCoefficient::new(1.71e-5),
            diffusion_red: DiffusionCoefficient::new(1.71e-5),
            rate_constant_cm_per_s: 2.0e-6,
            transfer_coefficient: 0.5,
        }
    }

    /// Ferrocyanide/ferricyanide: the classic fast, reversible test couple
    /// used to validate potentiostats and simulators.
    pub fn ferrocyanide() -> Self {
        Self {
            name: "Fe(CN)6^3-/4-".to_string(),
            electrons: 1,
            formal_potential: Volts::new(0.23),
            diffusion_ox: DiffusionCoefficient::new(6.7e-6),
            diffusion_red: DiffusionCoefficient::new(6.7e-6),
            rate_constant_cm_per_s: 0.1,
            transfer_coefficient: 0.5,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults_and_overrides() {
        let c = RedoxCouple::builder("X")
            .electrons(2)
            .formal_potential(Volts::new(-0.25))
            .diffusion(5e-6)
            .build()
            .expect("valid");
        assert_eq!(c.name(), "X");
        assert_eq!(c.electrons(), 2);
        assert_eq!(c.formal_potential(), Volts::new(-0.25));
        // diffusion_red defaults to diffusion_ox
        assert_eq!(c.diffusion_red(), c.diffusion_ox());
        assert_eq!(c.transfer_coefficient(), 0.5);
    }

    #[test]
    fn builder_rejects_bad_parameters() {
        assert!(RedoxCouple::builder("X").electrons(0).build().is_err());
        assert!(RedoxCouple::builder("X").diffusion(-1.0).build().is_err());
        assert!(RedoxCouple::builder("X")
            .rate_constant(0.0)
            .build()
            .is_err());
        assert!(RedoxCouple::builder("X")
            .transfer_coefficient(1.0)
            .build()
            .is_err());
        assert!(RedoxCouple::builder("X")
            .transfer_coefficient(0.0)
            .build()
            .is_err());
        assert!(RedoxCouple::builder("X")
            .formal_potential(Volts::new(f64::NAN))
            .build()
            .is_err());
    }

    #[test]
    fn distinct_reduced_diffusion() {
        let c = RedoxCouple::builder("X")
            .diffusion(1e-5)
            .diffusion_red(2e-5)
            .build()
            .expect("valid");
        assert_eq!(c.diffusion_ox().value(), 1e-5);
        assert_eq!(c.diffusion_red().value(), 2e-5);
    }

    #[test]
    fn presets_are_physical() {
        let h = RedoxCouple::hydrogen_peroxide();
        assert_eq!(h.electrons(), 2);
        assert!(
            h.rate_constant_cm_per_s() < 1e-4,
            "H2O2 must be irreversible"
        );
        let f = RedoxCouple::ferrocyanide();
        assert!(
            f.rate_constant_cm_per_s() >= 0.01,
            "ferrocyanide must be fast"
        );
    }
}
