//! Diffusion-limiting membranes and their transient response.
//!
//! Real oxidase sensors sit behind a polymer membrane (plus an unstirred
//! boundary layer). The membrane does three things the paper's §II-B
//! properties depend on: it sets the steady-state response *time* (Fig. 3's
//! ≈30 s), it raises the apparent `Km` (extending the linear range), and it
//! attenuates the flux.
//!
//! The transient model is the exact series solution for the exit flux of a
//! planar membrane after a concentration step at the entry face:
//! `F(t)/F_ss = 1 + 2·Σ_{k≥1} (−1)^k·exp(−k²π²·D·t/L²)`.

use crate::error::BiochemError;
use bios_units::{Centimeters, DiffusionCoefficient, Seconds};

/// A planar diffusion-limiting membrane.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Membrane {
    thickness: Centimeters,
    diffusion: DiffusionCoefficient,
}

impl Membrane {
    /// Creates a membrane of the given thickness and effective in-membrane
    /// diffusion coefficient.
    ///
    /// # Errors
    ///
    /// Returns [`BiochemError::InvalidParameter`] unless both are strictly
    /// positive and finite.
    pub fn new(
        thickness: Centimeters,
        diffusion: DiffusionCoefficient,
    ) -> Result<Self, BiochemError> {
        if thickness.value() <= 0.0 || !thickness.value().is_finite() {
            return Err(BiochemError::invalid(
                "thickness",
                "must be positive and finite",
            ));
        }
        if diffusion.value() <= 0.0 || !diffusion.value().is_finite() {
            return Err(BiochemError::invalid(
                "diffusion",
                "must be positive and finite",
            ));
        }
        Ok(Self {
            thickness,
            diffusion,
        })
    }

    /// The membrane used for the paper's glucose sensor reproduction:
    /// ≈100 µm effective layer with D ≈ 10⁻⁶ cm²/s, giving the ≈30 s
    /// steady-state response of Fig. 3.
    /// A literal, not `Self::new`, so this constant constructor cannot panic.
    pub fn paper_glucose_membrane() -> Self {
        Self {
            thickness: Centimeters::from_micrometers(99.0),
            diffusion: DiffusionCoefficient::new(1e-6),
        }
    }

    /// Effective diffusion coefficient inside the membrane.
    pub fn diffusion(&self) -> DiffusionCoefficient {
        self.diffusion
    }

    /// The diffusion time scale `L²/D`.
    pub(crate) fn diffusion_time(&self) -> Seconds {
        Seconds::new(self.thickness.value().powi(2) / self.diffusion.value())
    }

    /// Normalized exit-flux step response in `[0, 1]`: the fraction of the
    /// steady-state flux reached a time `t` after a concentration step at
    /// the sample face. Zero for `t ≤ 0`.
    pub fn step_response(&self, t: Seconds) -> f64 {
        if t.value() <= 0.0 {
            return 0.0;
        }
        let theta = self.diffusion.value() * t.value() / self.thickness.value().powi(2);
        // For θ < 0.01 the true response is below 10⁻¹⁰ while the
        // alternating series leaves ~10⁻⁹ truncation wiggle — return the
        // physical zero instead of the numerical noise.
        if theta < 0.01 {
            return 0.0;
        }
        let mut sum = 1.0;
        for k in 1..=60u32 {
            let term = 2.0
                * (-((k * k) as f64) * core::f64::consts::PI.powi(2) * theta).exp()
                * if k % 2 == 1 { -1.0 } else { 1.0 };
            sum += term;
            if term.abs() < 1e-15 {
                break;
            }
        }
        sum.clamp(0.0, 1.0)
    }

    /// Time to reach `fraction` of the steady-state flux, by bisection on
    /// the step response. This is the sensor's `t₉₀` for `fraction = 0.9`
    /// (the paper's "steady-state response time", §II-B).
    ///
    /// # Panics
    ///
    /// Panics unless `0 < fraction < 1`.
    pub fn response_time(&self, fraction: f64) -> Seconds {
        assert!(
            fraction > 0.0 && fraction < 1.0,
            "fraction must be in (0, 1)"
        );
        let t_scale = self.diffusion_time().value();
        let (mut lo, mut hi) = (0.0, 5.0 * t_scale);
        for _ in 0..200 {
            let mid = 0.5 * (lo + hi);
            if self.step_response(Seconds::new(mid)) < fraction {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        Seconds::new(0.5 * (lo + hi))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_validates() {
        let d = DiffusionCoefficient::new(1e-6);
        assert!(Membrane::new(Centimeters::ZERO, d).is_err());
        assert!(Membrane::new(Centimeters::new(0.01), DiffusionCoefficient::new(0.0)).is_err());
    }

    #[test]
    fn step_response_is_monotone_sigmoid() {
        let m = Membrane::paper_glucose_membrane();
        let mut prev = -1e-9;
        for k in 0..200 {
            let r = m.step_response(Seconds::new(k as f64 * 0.5));
            assert!(r >= prev - 1e-12, "non-monotone at {k}");
            assert!((0.0..=1.0).contains(&r));
            prev = r;
        }
        assert_eq!(m.step_response(Seconds::new(-1.0)), 0.0);
        assert!(m.step_response(Seconds::new(1e4)) > 0.999);
    }

    #[test]
    fn paper_membrane_t90_is_about_30_s() {
        let m = Membrane::paper_glucose_membrane();
        let t90 = m.response_time(0.9);
        assert!(
            (t90.value() - 30.0).abs() < 1.5,
            "t90 = {} s, expected ≈30 s (paper Fig. 3)",
            t90.value()
        );
    }

    #[test]
    fn response_time_consistent_with_step_response() {
        let m = Membrane::paper_glucose_membrane();
        for f in [0.1, 0.5, 0.9, 0.99] {
            let t = m.response_time(f);
            assert!((m.step_response(t) - f).abs() < 1e-6, "fraction {f}");
        }
    }

    #[test]
    fn thinner_membrane_responds_faster() {
        let thick = Membrane::paper_glucose_membrane();
        let thin = Membrane::new(
            Centimeters::from_micrometers(30.0),
            DiffusionCoefficient::new(1e-6),
        )
        .expect("valid");
        assert!(thin.response_time(0.9).value() < thick.response_time(0.9).value() / 5.0);
    }
}
