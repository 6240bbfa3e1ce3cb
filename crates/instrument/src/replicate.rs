//! Replicate statistics: the `V_b`/`σ_b` machinery behind the paper's
//! LOD definition (eq. 5).

use crate::error::InstrumentError;

/// Summary statistics of replicate measurements.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ReplicateStats {
    n: usize,
    mean: f64,
    sd: f64,
}

impl ReplicateStats {
    /// Computes statistics from raw replicate values (sample SD, `n − 1`
    /// denominator).
    ///
    /// # Errors
    ///
    /// Returns [`InstrumentError::InsufficientData`] for fewer than 2
    /// replicates.
    pub fn from_samples(samples: &[f64]) -> Result<Self, InstrumentError> {
        if samples.len() < 2 {
            return Err(InstrumentError::InsufficientData {
                needed: 2,
                got: samples.len(),
            });
        }
        let n = samples.len();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / (n - 1) as f64;
        Ok(Self {
            n,
            mean,
            sd: var.sqrt(),
        })
    }

    /// Number of replicates.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Sample mean.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Sample standard deviation.
    pub fn sd(&self) -> f64 {
        self.sd
    }

    /// The paper's eq. 5 detection threshold in response units:
    /// `LOD_response = V_b + 3·σ_b` (ACS committee definition, <7% false
    /// positive risk).
    pub fn detection_threshold(&self) -> f64 {
        self.mean + 3.0 * self.sd
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_single_sample() {
        assert!(ReplicateStats::from_samples(&[1.0]).is_err());
        assert!(ReplicateStats::from_samples(&[]).is_err());
    }

    #[test]
    fn known_statistics() {
        let s = ReplicateStats::from_samples(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0])
            .expect("enough data");
        assert!((s.mean() - 5.0).abs() < 1e-12);
        // Sample SD with n−1: sqrt(32/7) ≈ 2.138.
        assert!((s.sd() - (32.0f64 / 7.0).sqrt()).abs() < 1e-12);
        assert_eq!(s.n(), 8);
    }

    #[test]
    fn detection_threshold_is_mean_plus_3sd() {
        let s = ReplicateStats::from_samples(&[1.0, 1.0, 1.0, 3.0]).expect("enough data");
        assert!((s.detection_threshold() - (s.mean() + 3.0 * s.sd())).abs() < 1e-12);
    }
}
