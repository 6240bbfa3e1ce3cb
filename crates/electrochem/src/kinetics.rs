//! Butler–Volmer heterogeneous electron-transfer kinetics.

use crate::species::RedoxCouple;
use bios_units::{Kelvin, Volts, FARADAY, GAS_CONSTANT};

/// Forward (reduction) and backward (oxidation) heterogeneous rate constants
/// in cm/s at applied potential `e` for the given couple.
///
/// `kf = k⁰·exp(−α·n·f·(E−E⁰'))`, `kb = k⁰·exp((1−α)·n·f·(E−E⁰'))` with
/// `f = F/(RT)`; exponents are clamped to ±50 to avoid overflow at extreme
/// overpotentials (the rates are unphysically large there anyway).
///
/// # Example
///
/// ```
/// use bios_electrochem::{rate_constants, RedoxCouple};
/// use bios_units::{Volts, T_ROOM};
///
/// let couple = RedoxCouple::ferrocyanide();
/// // At E = E⁰' both rate constants equal k⁰.
/// let (kf, kb) = rate_constants(&couple, couple.formal_potential(), T_ROOM, 1.0);
/// assert!((kf - kb).abs() < 1e-12);
/// ```
pub fn rate_constants(
    couple: &RedoxCouple,
    e: Volts,
    temperature: Kelvin,
    kinetic_factor: f64,
) -> (f64, f64) {
    let f = FARADAY / (GAS_CONSTANT * temperature.value());
    let n = couple.electrons() as f64;
    let alpha = couple.transfer_coefficient();
    let eta = e.value() - couple.formal_potential().value();
    let k0 = couple.rate_constant_cm_per_s() * kinetic_factor;
    let kf = k0 * (-alpha * n * f * eta).clamp(-50.0, 50.0).exp();
    let kb = k0 * ((1.0 - alpha) * n * f * eta).clamp(-50.0, 50.0).exp();
    (kf, kb)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bios_units::T_ROOM;

    #[test]
    fn rates_cross_at_formal_potential() {
        let c = RedoxCouple::ferrocyanide();
        let (kf, kb) = rate_constants(&c, c.formal_potential(), T_ROOM, 1.0);
        assert!((kf - kb).abs() < 1e-15);
    }

    #[test]
    fn negative_overpotential_favors_reduction() {
        let c = RedoxCouple::ferrocyanide();
        let e = c.formal_potential() - Volts::from_millivolts(100.0);
        let (kf, kb) = rate_constants(&c, e, T_ROOM, 1.0);
        assert!(
            kf > kb,
            "cathodic overpotential must favor the forward (reduction) rate"
        );
        // α = 0.5, 100 mV → kf/k0 = exp(0.5·f·0.1) ≈ e^1.946 ≈ 7.0.
        assert!((kf / c.rate_constant_cm_per_s() - 7.0).abs() < 0.1);
    }

    #[test]
    fn kinetic_factor_scales_both_rates() {
        let c = RedoxCouple::hydrogen_peroxide();
        let e = Volts::new(0.65);
        let (kf1, kb1) = rate_constants(&c, e, T_ROOM, 1.0);
        let (kf2, kb2) = rate_constants(&c, e, T_ROOM, 10.0);
        assert!((kf2 / kf1 - 10.0).abs() < 1e-9);
        assert!((kb2 / kb1 - 10.0).abs() < 1e-9);
    }

    #[test]
    fn extreme_overpotential_does_not_overflow() {
        let c = RedoxCouple::ferrocyanide();
        let (kf, kb) = rate_constants(&c, Volts::new(-100.0), T_ROOM, 1.0);
        assert!(kf.is_finite() && kb.is_finite());
    }

    #[test]
    fn electrons_steepen_the_exponent() {
        let c1 = RedoxCouple::builder("a")
            .electrons(1)
            .build()
            .expect("valid");
        let c2 = RedoxCouple::builder("b")
            .electrons(2)
            .build()
            .expect("valid");
        let e = Volts::from_millivolts(-50.0);
        let (kf1, _) = rate_constants(&c1, e, T_ROOM, 1.0);
        let (kf2, _) = rate_constants(&c2, e, T_ROOM, 1.0);
        assert!(kf2 > kf1);
    }
}
