//! Correlated double sampling with a blank working electrode (§II-C).
//!
//! "The output of the sensor is measured twice: once in a known condition
//! and once in an unknown condition. The value measured from the known
//! condition is then subtracted … The latter can be realized using an extra
//! WE without any enzyme on it." The subtraction removes offset and the
//! drift/flicker components *shared* between the matched electrodes, at the
//! cost of √2 more white noise — and it fails for species that oxidize
//! directly on the blank electrode (dopamine, etoposide).

use bios_units::Amps;

/// A correlated double sampler pairing an active and a blank channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct CorrelatedDoubleSampler {
    /// Fraction of low-frequency disturbance common to both electrodes
    /// (1.0 = perfectly matched pair).
    matching: MatchingQuality,
}

/// How well the active and blank electrodes are matched.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum MatchingQuality {
    /// Same die, adjacent electrodes: ~99% common-mode rejection.
    Monolithic,
    /// Same substrate, different position: ~90%.
    SameSubstrate,
    /// Separate devices: ~50%.
    Discrete,
}

impl MatchingQuality {
    /// The fraction of drift/offset removed by subtraction.
    pub fn rejection(self) -> f64 {
        match self {
            MatchingQuality::Monolithic => 0.99,
            MatchingQuality::SameSubstrate => 0.90,
            MatchingQuality::Discrete => 0.50,
        }
    }
}

impl CorrelatedDoubleSampler {
    /// Creates a sampler with the given electrode matching.
    pub fn new(matching: MatchingQuality) -> Self {
        Self { matching }
    }

    /// Models one corrected sample: the wanted `signal` survives, a shared
    /// low-frequency `disturbance` is attenuated to its residual fraction
    /// (the blank electrode sees `rejection`× of it), and per-channel
    /// uncorrelated noise terms combine by plain subtraction.
    pub fn correct(
        &self,
        signal: Amps,
        shared_disturbance: Amps,
        active_noise: Amps,
        blank_noise: Amps,
    ) -> Amps {
        signal + shared_disturbance * self.residual_drift_fraction() + active_noise - blank_noise
    }

    /// The drift suppression factor applied to shared low-frequency
    /// disturbance: `1 − rejection`.
    pub(crate) fn residual_drift_fraction(&self) -> f64 {
        1.0 - self.matching.rejection()
    }
}

impl Default for CorrelatedDoubleSampler {
    fn default() -> Self {
        Self::new(MatchingQuality::Monolithic)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matching_quality_ordering() {
        assert!(
            MatchingQuality::Monolithic.rejection() > MatchingQuality::SameSubstrate.rejection()
        );
        assert!(MatchingQuality::SameSubstrate.rejection() > MatchingQuality::Discrete.rejection());
        let mono = CorrelatedDoubleSampler::new(MatchingQuality::Monolithic);
        assert!((mono.residual_drift_fraction() - 0.01).abs() < 1e-12);
    }

    #[test]
    fn correct_attenuates_shared_drift() {
        let cds = CorrelatedDoubleSampler::new(MatchingQuality::Monolithic);
        let out = cds.correct(
            Amps::from_nanoamps(100.0),
            Amps::from_nanoamps(50.0),
            Amps::ZERO,
            Amps::ZERO,
        );
        // 1% residual of the 50 nA drift survives.
        assert!((out.as_nanoamps() - 100.5).abs() < 1e-9);
        let sloppy = CorrelatedDoubleSampler::new(MatchingQuality::Discrete);
        let out2 = sloppy.correct(
            Amps::from_nanoamps(100.0),
            Amps::from_nanoamps(50.0),
            Amps::ZERO,
            Amps::ZERO,
        );
        assert!((out2.as_nanoamps() - 125.0).abs() < 1e-9);
    }
}
