//! Cross-talk between working electrodes sharing one solution volume, and
//! the chamber-separation decision (paper §II-A).
//!
//! The paper argues that oxidases can share a chamber because H₂O₂
//! cross-talk is negligible; this module makes that argument quantitative
//! so the design explorer can re-derive it (and find where it breaks).

use bios_units::{Centimeters, DiffusionCoefficient, Seconds};

/// Diffusion coefficient of H₂O₂ in aqueous solution.
pub(crate) const D_H2O2: DiffusionCoefficient = DiffusionCoefficient::new(1.71e-5);

/// Geometric capture efficiency of a neighbouring electrode for product
/// spreading in 3-D solution (most of the product diffuses into the bulk,
/// not onto the neighbour).
pub(crate) const CAPTURE_EFFICIENCY: f64 = 0.05;

/// Fraction of one WE's H₂O₂ signal that appears on a neighbour a distance
/// `pitch` away after a measurement of duration `t`:
/// `f = η·exp(−pitch²/(4·D·t))`.
///
/// # Panics
///
/// Panics for non-positive pitch or time.
///
/// # Example
///
/// ```
/// use bios_platform::crosstalk_fraction;
/// use bios_units::{Centimeters, Seconds};
///
/// // 1 mm pitch, 70 s measurement: well under 1% — the paper's
/// // "negligible cross-talk" claim.
/// let f = crosstalk_fraction(Centimeters::from_millimeters(1.0), Seconds::new(70.0));
/// assert!(f < 0.01);
/// ```
pub fn crosstalk_fraction(pitch: Centimeters, t: Seconds) -> f64 {
    assert!(pitch.value() > 0.0, "pitch must be positive");
    assert!(t.value() > 0.0, "measurement time must be positive");
    let spread = 4.0 * D_H2O2.value() * t.value();
    CAPTURE_EFFICIENCY * (-pitch.value().powi(2) / spread).exp()
}

/// Decides whether a shared-volume multi-WE design needs chamber
/// separation: `true` when the worst-case neighbour cross-talk exceeds
/// `tolerance` of the signal.
///
/// # Panics
///
/// Panics unless `0 < tolerance < 1`.
pub(crate) fn needs_chambers(pitch: Centimeters, measurement: Seconds, tolerance: f64) -> bool {
    assert!(
        tolerance > 0.0 && tolerance < 1.0,
        "tolerance must be in (0, 1)"
    );
    crosstalk_fraction(pitch, measurement) > tolerance
}

/// The minimum electrode pitch keeping cross-talk below `tolerance` for a
/// measurement of duration `t` (bisection on [`crosstalk_fraction`]).
///
/// Returns zero pitch when even touching electrodes satisfy the tolerance
/// (i.e. `η ≤ tolerance`).
///
/// # Panics
///
/// Panics unless `0 < tolerance < 1`.
pub fn minimum_pitch(t: Seconds, tolerance: f64) -> Centimeters {
    assert!(
        tolerance > 0.0 && tolerance < 1.0,
        "tolerance must be in (0, 1)"
    );
    if CAPTURE_EFFICIENCY <= tolerance {
        return Centimeters::ZERO;
    }
    // f = η·exp(−p²/4Dt) = tol  →  p = √(4Dt·ln(η/tol)).
    let spread = 4.0 * D_H2O2.value() * t.value();
    Centimeters::new((spread * (CAPTURE_EFFICIENCY / tolerance).ln()).sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crosstalk_decays_with_pitch() {
        let t = Seconds::new(70.0);
        let close = crosstalk_fraction(Centimeters::from_millimeters(0.2), t);
        let far = crosstalk_fraction(Centimeters::from_millimeters(2.0), t);
        assert!(close > far);
        assert!(far < 1e-4);
    }

    #[test]
    fn crosstalk_grows_with_time() {
        let p = Centimeters::from_millimeters(1.0);
        let short = crosstalk_fraction(p, Seconds::new(10.0));
        let long = crosstalk_fraction(p, Seconds::new(1000.0));
        assert!(long > short);
    }

    #[test]
    fn paper_claim_1mm_pitch_is_fine() {
        // The Fig. 4 layout at ~1 mm pitch with 70 s chronoamperometry:
        // cross-talk < 1%, so a shared chamber works — the paper's claim.
        assert!(!needs_chambers(
            Centimeters::from_millimeters(1.0),
            Seconds::new(70.0),
            0.01
        ));
    }

    #[test]
    fn tight_pitch_long_dwell_needs_chambers() {
        assert!(needs_chambers(
            Centimeters::from_millimeters(0.2),
            Seconds::new(300.0),
            0.01
        ));
    }

    #[test]
    fn minimum_pitch_is_consistent() {
        let t = Seconds::new(70.0);
        let p = minimum_pitch(t, 0.01);
        assert!(p.value() > 0.0);
        let f = crosstalk_fraction(p, t);
        assert!((f - 0.01).abs() < 1e-9, "f = {f}");
        // Just above the minimum pitch: fine; just below: not.
        assert!(!needs_chambers(p * 1.01, t, 0.01));
        assert!(needs_chambers(p * 0.99, t, 0.01));
    }

    #[test]
    fn loose_tolerance_allows_any_pitch() {
        assert_eq!(minimum_pitch(Seconds::new(100.0), 0.10), Centimeters::ZERO);
    }
}
