//! Closed-form chronoamperometry relations (Cottrell and microelectrode
//! steady state) used to validate the numerical solver and to size readout
//! circuits quickly.

use crate::species::RedoxCouple;
use bios_units::{Amps, Centimeters, Molar, Seconds, SquareCentimeters, FARADAY};

/// Cottrell current for a diffusion-limited potential step on a planar
/// electrode: `i(t) = n·F·A·C·√(D/(π·t))`.
///
/// # Panics
///
/// Panics if `t` is not strictly positive (the Cottrell expression diverges
/// at `t = 0`).
///
/// # Example
///
/// ```
/// use bios_electrochem::{cottrell_current, RedoxCouple};
/// use bios_units::{Molar, Seconds, SquareCentimeters};
///
/// let c = RedoxCouple::ferrocyanide();
/// let i = cottrell_current(
///     &c,
///     SquareCentimeters::new(0.01),
///     Molar::from_millimolar(1.0),
///     Seconds::new(1.0),
/// );
/// // ≈ 96485 · 0.01 · 1e-6 · √(6.7e-6/π) ≈ 1.41 µA
/// assert!((i.as_microamps() - 1.41).abs() < 0.02);
/// ```
pub fn cottrell_current(
    couple: &RedoxCouple,
    area: SquareCentimeters,
    bulk: Molar,
    t: Seconds,
) -> Amps {
    assert!(t.value() > 0.0, "cottrell current diverges at t = 0");
    let n = couple.electrons() as f64;
    let d = couple.diffusion_ox().value();
    let c = bulk.to_moles_per_cm3().value();
    Amps::new(n * FARADAY * area.value() * c * (d / (core::f64::consts::PI * t.value())).sqrt())
}

/// Time for a disk microelectrode of radius `r` to settle within ~10% of its
/// steady state, `t ≈ r²/D` — the response-time advantage of miniaturization.
pub fn microdisk_settling_time(couple: &RedoxCouple, radius: Centimeters) -> Seconds {
    Seconds::new(radius.value().powi(2) / couple.diffusion_ox().value())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn current_decays_as_inverse_sqrt_t() {
        let c = RedoxCouple::ferrocyanide();
        let a = SquareCentimeters::new(0.01);
        let conc = Molar::from_millimolar(1.0);
        let i1 = cottrell_current(&c, a, conc, Seconds::new(1.0));
        let i4 = cottrell_current(&c, a, conc, Seconds::new(4.0));
        assert!((i1.value() / i4.value() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn current_scales_linearly_with_concentration_and_area() {
        let c = RedoxCouple::ferrocyanide();
        let i1 = cottrell_current(
            &c,
            SquareCentimeters::new(0.01),
            Molar::from_millimolar(1.0),
            Seconds::new(1.0),
        );
        let i2 = cottrell_current(
            &c,
            SquareCentimeters::new(0.02),
            Molar::from_millimolar(2.0),
            Seconds::new(1.0),
        );
        assert!((i2.value() / i1.value() - 4.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "diverges")]
    fn zero_time_panics() {
        let c = RedoxCouple::ferrocyanide();
        let _ = cottrell_current(
            &c,
            SquareCentimeters::new(0.01),
            Molar::from_millimolar(1.0),
            Seconds::ZERO,
        );
    }

    #[test]
    fn microdisk_is_faster_when_smaller() {
        let c = RedoxCouple::ferrocyanide();
        let small = microdisk_settling_time(&c, Centimeters::from_micrometers(5.0));
        let large = microdisk_settling_time(&c, Centimeters::from_micrometers(50.0));
        assert!(small.value() < large.value() / 50.0);
        // 5 µm disk settles in well under a second.
        assert!(small.value() < 0.1);
    }
}
