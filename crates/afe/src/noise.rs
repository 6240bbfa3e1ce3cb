//! Input-referred noise models: white (thermal/shot), flicker (1/f) and
//! low-frequency drift.
//!
//! The paper's §II-C singles out the flicker component — "particular care
//! has to be taken for the Flicker (or 1/f) noise component, which can be
//! reduced by techniques such as chopping and Correlated Double Sampling" —
//! so the model keeps the three components separate and lets the chopper
//! and CDS blocks act on them individually.

use crate::error::AfeError;
use bios_units::{Amps, Seconds};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration of an input-referred current-noise source.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct NoiseConfig {
    /// White noise density in A/√Hz (thermal + shot).
    pub white_density: f64,
    /// Flicker noise density at 1 Hz in A/√Hz; PSD ∝ 1/f below the corner.
    pub flicker_density_1hz: f64,
    /// Drift random-walk coefficient in A/√s (electrode fouling, reference
    /// drift — the slow component CDS removes).
    pub drift_per_sqrt_s: f64,
}

impl NoiseConfig {
    /// A noiseless configuration (for deterministic tests).
    #[cfg(test)]
    pub(crate) const NONE: NoiseConfig = NoiseConfig {
        white_density: 0.0,
        flicker_density_1hz: 0.0,
        drift_per_sqrt_s: 0.0,
    };

    /// A typical CMOS potentiostat front-end: ~50 fA/√Hz white,
    /// ~2 pA/√Hz flicker at 1 Hz, ~1 pA/√s drift.
    pub fn typical_cmos() -> Self {
        Self {
            white_density: 50e-15,
            flicker_density_1hz: 2e-12,
            drift_per_sqrt_s: 1e-12,
        }
    }

    /// Applies ideal chopper stabilization: the signal is modulated above
    /// the 1/f corner before amplification, suppressing flicker by
    /// `suppression` (typically 50×) at the cost of √2 more white noise
    /// (ripple folding).
    pub(crate) fn chopped(self, suppression: f64) -> Self {
        Self {
            white_density: self.white_density * core::f64::consts::SQRT_2,
            flicker_density_1hz: self.flicker_density_1hz / suppression.max(1.0),
            drift_per_sqrt_s: self.drift_per_sqrt_s / suppression.max(1.0),
        }
    }
}

impl Default for NoiseConfig {
    fn default() -> Self {
        Self::typical_cmos()
    }
}

/// A streaming noise sample generator (seeded, reproducible) for one fixed
/// sample interval.
///
/// Flicker noise uses the Voss–McCartney octave-bank algorithm: `N` random
/// sources, source `k` refreshed every `2^k` samples, summed — the classic
/// O(1)-per-sample pink-noise generator.
///
/// The sample interval is bound at construction, so every factor that
/// depends only on it (the white-noise SD, the flicker normalization, the
/// drift step) is computed once. A component whose weight is exactly zero
/// still takes its random draws, keeping every later draw in place, but
/// skips the math: its contribution could only have been a signed zero.
///
/// # Example
///
/// ```
/// use bios_afe::{NoiseConfig, NoiseSource};
/// use bios_units::Seconds;
///
/// # fn main() -> Result<(), bios_afe::AfeError> {
/// let mut n = NoiseSource::new(NoiseConfig::typical_cmos(), Seconds::from_millis(10.0), 42)?;
/// let sample = n.sample();
/// assert!(sample.value().abs() < 1e-6); // noise, not signal
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct NoiseSource {
    config: NoiseConfig,
    rng: StdRng,
    // Voss–McCartney state.
    rows: [f64; 16],
    counter: u64,
    drift: f64,
    // Per-sample factors of the bound interval.
    white_sd: f64,
    pink_scale: f64,
    sqrt_dt: f64,
    // Components that can only contribute a signed zero.
    white_dead: bool,
    pink_dead: bool,
    drift_dead: bool,
}

impl NoiseSource {
    /// Creates a generator with the given configuration, sample interval
    /// and seed.
    ///
    /// # Errors
    ///
    /// Returns [`AfeError::InvalidParameter`] unless `dt` is positive and
    /// finite.
    pub fn new(config: NoiseConfig, dt: Seconds, seed: u64) -> Result<Self, AfeError> {
        let dt = AfeError::check_dt(dt)?;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut rows = [0.0; 16];
        for r in &mut rows {
            *r = rng.gen_range(-1.0..1.0);
        }
        let bandwidth = 0.5 / dt; // Nyquist bandwidth of the sample
        let white_sd = config.white_density * bandwidth.sqrt();
        // Scale so the density near 1 Hz matches the configured value for
        // this sample rate (empirical Voss–McCartney normalization).
        let pink_scale = (bandwidth.ln().max(1.0)).sqrt();
        let sqrt_dt = dt.sqrt();
        Ok(Self {
            config,
            rng,
            rows,
            counter: 0,
            drift: 0.0,
            white_sd,
            pink_scale,
            sqrt_dt,
            white_dead: is_dead(config.white_density, bandwidth.sqrt()),
            pink_dead: is_dead(config.flicker_density_1hz, pink_scale),
            drift_dead: is_dead(config.drift_per_sqrt_s, sqrt_dt),
        })
    }

    /// The configuration in force.
    pub fn config(&self) -> NoiseConfig {
        self.config
    }

    /// Draws the next input-referred noise current.
    pub fn sample(&mut self) -> Amps {
        let white = if self.white_dead {
            self.uniform_pair();
            0.0
        } else {
            self.gaussian() * self.white_sd
        };

        // Pink noise: refresh row k every 2^k samples.
        self.counter = self.counter.wrapping_add(1);
        let flips = self.counter.trailing_zeros().min(15);
        let idx = flips as usize;
        self.rows[idx] = self.rng.gen_range(-1.0..1.0);
        let pink = if self.pink_dead {
            0.0
        } else {
            // Left to right from the first row: the association
            // `Iterator::sum` used, which every recorded trace pins.
            let mut total = self.rows[0];
            for r in &self.rows[1..] {
                total += r;
            }
            let pink_raw = total / (16f64).sqrt();
            pink_raw * self.config.flicker_density_1hz * self.pink_scale
        };

        // Random-walk drift.
        if self.drift_dead {
            self.uniform_pair();
        } else {
            self.drift += self.gaussian() * self.config.drift_per_sqrt_s * self.sqrt_dt;
        }

        Amps::new(white + pink + self.drift)
    }

    /// The accumulated drift component alone (shared between matched
    /// channels; the CDS model subtracts it).
    pub fn drift(&self) -> Amps {
        Amps::new(self.drift)
    }

    /// The two uniform draws one Box–Muller normal consumes.
    fn uniform_pair(&mut self) -> (f64, f64) {
        (
            self.rng.gen_range(f64::MIN_POSITIVE..1.0),
            self.rng.gen_range(0.0..1.0),
        )
    }

    fn gaussian(&mut self) -> f64 {
        // Box–Muller.
        let (u1, u2) = self.uniform_pair();
        (-2.0 * u1.ln()).sqrt() * (2.0 * core::f64::consts::PI * u2).cos()
    }
}

/// Whether a noise term `draw × weight × factor` is ±0 for every draw:
/// Box–Muller and the pink rows only produce finite draws, so an exactly
/// zero weight with a finite factor makes the term vanish, while an
/// infinite factor would make it NaN and keeps it live.
fn is_dead(weight: f64, factor: f64) -> bool {
    // advdiag::allow(F1, exact sentinel: only an exactly-zero weight removes a term bit for bit)
    weight == 0.0 && factor.is_finite()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sd(samples: &[f64]) -> f64 {
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        (samples.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / samples.len() as f64).sqrt()
    }

    #[test]
    fn zero_config_is_silent() {
        let mut n = NoiseSource::new(NoiseConfig::NONE, Seconds::from_millis(1.0), 1).expect("dt");
        for _ in 0..100 {
            assert_eq!(n.sample().value(), 0.0);
        }
    }

    #[test]
    fn same_seed_reproduces() {
        let dt = Seconds::from_millis(5.0);
        let mut a = NoiseSource::new(NoiseConfig::typical_cmos(), dt, 7).expect("dt");
        let mut b = NoiseSource::new(NoiseConfig::typical_cmos(), dt, 7).expect("dt");
        for _ in 0..50 {
            assert_eq!(a.sample().value(), b.sample().value());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let dt = Seconds::from_millis(5.0);
        let mut a = NoiseSource::new(NoiseConfig::typical_cmos(), dt, 1).expect("dt");
        let mut b = NoiseSource::new(NoiseConfig::typical_cmos(), dt, 2).expect("dt");
        let same = (0..20).all(|_| a.sample().value() == b.sample().value());
        assert!(!same);
    }

    #[test]
    fn white_noise_sd_scales_with_bandwidth() {
        let cfg = NoiseConfig {
            white_density: 1e-12,
            flicker_density_1hz: 0.0,
            drift_per_sqrt_s: 0.0,
        };
        let collect = |dt_s: f64, seed: u64| {
            let mut n = NoiseSource::new(cfg, Seconds::new(dt_s), seed).expect("dt");
            (0..4000).map(|_| n.sample().value()).collect::<Vec<_>>()
        };
        let fast = sd(&collect(1e-4, 3)); // 5 kHz bandwidth
        let slow = sd(&collect(1e-2, 4)); // 50 Hz bandwidth
        let ratio = fast / slow;
        assert!((ratio - 10.0).abs() < 1.5, "ratio {ratio}");
    }

    #[test]
    fn chopping_suppresses_flicker_and_drift() {
        let cfg = NoiseConfig::typical_cmos();
        let chopped = cfg.chopped(50.0);
        assert!(chopped.flicker_density_1hz < cfg.flicker_density_1hz / 40.0);
        assert!(chopped.drift_per_sqrt_s < cfg.drift_per_sqrt_s / 40.0);
        assert!(chopped.white_density > cfg.white_density);
    }

    #[test]
    fn flicker_dominates_at_slow_sampling() {
        // Biosensing samples slowly (paper: signals take ~30 s), exactly the
        // regime where 1/f dwarfs white noise.
        let cfg = NoiseConfig::typical_cmos();
        let mut n = NoiseSource::new(
            NoiseConfig {
                drift_per_sqrt_s: 0.0,
                ..cfg
            },
            Seconds::from_millis(100.0),
            11,
        )
        .expect("dt");
        let samples: Vec<f64> = (0..2000).map(|_| n.sample().value()).collect();
        let total_sd = sd(&samples);
        let white_only_sd = cfg.white_density * (0.5f64 / 0.1).sqrt();
        assert!(
            total_sd > 5.0 * white_only_sd,
            "flicker must dominate: {total_sd} vs white {white_only_sd}"
        );
    }

    #[test]
    fn drift_accumulates() {
        let cfg = NoiseConfig {
            white_density: 0.0,
            flicker_density_1hz: 0.0,
            drift_per_sqrt_s: 1e-12,
        };
        let mut n = NoiseSource::new(cfg, Seconds::new(1.0), 5).expect("dt");
        for _ in 0..1000 {
            let _ = n.sample();
        }
        assert!(n.drift().value().abs() > 0.0);
    }

    #[test]
    fn rejects_bad_intervals() {
        for dt in [0.0, -1e-3, f64::NAN, f64::INFINITY] {
            assert!(NoiseSource::new(NoiseConfig::typical_cmos(), Seconds::new(dt), 1).is_err());
        }
    }

    #[test]
    fn dead_components_keep_later_draws_in_place() {
        // A drift-only source skips its white and flicker math but must
        // still consume their draws: its walk matches the full source's.
        let dt = Seconds::from_millis(250.0);
        let full = NoiseConfig::typical_cmos();
        let drift_only = NoiseConfig {
            white_density: 0.0,
            flicker_density_1hz: 0.0,
            ..full
        };
        let mut a = NoiseSource::new(full, dt, 9).expect("dt");
        let mut b = NoiseSource::new(drift_only, dt, 9).expect("dt");
        for _ in 0..500 {
            let _ = a.sample();
            assert_eq!(b.sample().value(), a.drift().value());
        }
    }
}
