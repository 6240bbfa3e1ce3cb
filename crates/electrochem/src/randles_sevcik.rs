//! Randles–Ševčík relations for reversible cyclic voltammetry — the
//! closed-form benchmarks the CV simulator must reproduce.

use crate::species::RedoxCouple;
use bios_units::{Amps, Kelvin, Molar, SquareCentimeters, VoltsPerSecond, FARADAY, GAS_CONSTANT};

/// Reversible CV peak current magnitude:
/// `i_p = 0.4463·n·F·A·C·√(n·F·v·D/(R·T))`.
///
/// # Example
///
/// ```
/// use bios_electrochem::{randles_sevcik_peak, RedoxCouple};
/// use bios_units::{Molar, SquareCentimeters, T_ROOM, VoltsPerSecond};
///
/// let c = RedoxCouple::ferrocyanide();
/// let ip = randles_sevcik_peak(
///     &c,
///     SquareCentimeters::new(0.01),
///     Molar::from_millimolar(1.0),
///     VoltsPerSecond::from_millivolts_per_second(20.0),
///     T_ROOM,
/// );
/// // ≈ 0.98 µA for these parameters.
/// assert!((ip.as_microamps() - 0.98).abs() < 0.02);
/// ```
pub fn randles_sevcik_peak(
    couple: &RedoxCouple,
    area: SquareCentimeters,
    bulk: Molar,
    scan_rate: VoltsPerSecond,
    temperature: Kelvin,
) -> Amps {
    let n = couple.electrons() as f64;
    let d = couple.diffusion_ox().value();
    let c = bulk.to_moles_per_cm3().value();
    let f_over_rt = FARADAY / (GAS_CONSTANT * temperature.value());
    Amps::new(
        0.4463 * n * FARADAY * area.value() * c * (n * f_over_rt * scan_rate.value() * d).sqrt(),
    )
}

/// Cathodic peak potential of a reversible reduction:
/// `E_p = E⁰' − 1.109·RT/(nF)` (≈ `E⁰' − 28.5/n` mV at 25 °C): the
/// expected value the CV simulator's tests check against.
#[cfg(test)]
pub(crate) fn reversible_cathodic_peak_potential(
    couple: &RedoxCouple,
    temperature: Kelvin,
) -> bios_units::Volts {
    let shift = 1.109 * GAS_CONSTANT * temperature.value() / (couple.electrons() as f64 * FARADAY);
    bios_units::Volts::new(couple.formal_potential().value() - shift)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bios_units::T_ROOM;

    #[test]
    fn peak_scales_with_sqrt_scan_rate() {
        let c = RedoxCouple::ferrocyanide();
        let a = SquareCentimeters::new(0.01);
        let conc = Molar::from_millimolar(1.0);
        let i1 = randles_sevcik_peak(&c, a, conc, VoltsPerSecond::new(0.02), T_ROOM);
        let i4 = randles_sevcik_peak(&c, a, conc, VoltsPerSecond::new(0.08), T_ROOM);
        assert!((i4.value() / i1.value() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn peak_linear_in_concentration() {
        let c = RedoxCouple::ferrocyanide();
        let a = SquareCentimeters::new(0.01);
        let v = VoltsPerSecond::new(0.02);
        let i1 = randles_sevcik_peak(&c, a, Molar::from_millimolar(1.0), v, T_ROOM);
        let i3 = randles_sevcik_peak(&c, a, Molar::from_millimolar(3.0), v, T_ROOM);
        assert!((i3.value() / i1.value() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn cathodic_peak_sits_below_formal_potential() {
        let c = RedoxCouple::ferrocyanide();
        let ec = reversible_cathodic_peak_potential(&c, T_ROOM);
        // 28.5 mV shift at room temperature for n = 1.
        assert!(((c.formal_potential() - ec).as_millivolts() - 28.5).abs() < 0.2);
    }
}
