//! Peak detection on voltammograms: find the cathodic maxima whose
//! "height is proportional to the target concentration, while position
//! gives information on the type of molecules" (paper §I-B).

use crate::error::InstrumentError;
use bios_units::{Amps, Volts};

/// A detected peak.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Peak {
    /// Potential at the peak apex.
    pub potential: Volts,
    /// Raw current at the apex.
    pub current: Amps,
    /// Topographic prominence (baseline-corrected height magnitude).
    pub height: Amps,
    /// Sample index of the apex in the analyzed segment.
    pub index: usize,
}

/// Options for peak detection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PeakOptions {
    /// Minimum prominence for a peak to be reported.
    pub min_height: Amps,
    /// Moving-average smoothing half-width in samples (0 = none).
    pub smoothing: usize,
}

impl Default for PeakOptions {
    fn default() -> Self {
        Self {
            min_height: Amps::from_nanoamps(0.05),
            smoothing: 2,
        }
    }
}

/// Detects *cathodic* peaks (local minima of the current, reported with
/// positive `height`) on a potential-sorted or time-ordered sweep segment.
///
/// The heights use topographic prominence — the drop from the apex to the
/// higher of the two flanking cols — which approximates the
/// baseline-corrected peak height electrochemists read off a voltammogram.
///
/// # Errors
///
/// Returns [`InstrumentError::InsufficientData`] for fewer than 5 samples
/// and [`InstrumentError::NonFiniteData`] if any current in the sweep is
/// NaN or infinite.
///
/// # Example
///
/// ```
/// use bios_instrument::{detect_cathodic_peaks, PeakOptions};
/// use bios_units::{Amps, Volts};
///
/// # fn main() -> Result<(), bios_instrument::InstrumentError> {
/// // A synthetic cathodic peak at −0.4 V.
/// let sweep: Vec<(Volts, Amps)> = (0..200)
///     .map(|k| {
///         let e = -0.8 + 0.004 * k as f64;
///         let i = -1e-9 * (-((e + 0.4) / 0.05).powi(2)).exp();
///         (Volts::new(e), Amps::new(i))
///     })
///     .collect();
/// let peaks = detect_cathodic_peaks(&sweep, PeakOptions::default())?;
/// assert_eq!(peaks.len(), 1);
/// assert!((peaks[0].potential.value() + 0.4).abs() < 0.01);
/// # Ok(())
/// # }
/// ```
pub fn detect_cathodic_peaks(
    sweep: &[(Volts, Amps)],
    options: PeakOptions,
) -> Result<Vec<Peak>, InstrumentError> {
    if sweep.len() < 5 {
        return Err(InstrumentError::InsufficientData {
            needed: 5,
            got: sweep.len(),
        });
    }
    if sweep
        .iter()
        .any(|(e, i)| !e.value().is_finite() || !i.value().is_finite())
    {
        return Err(InstrumentError::non_finite("peak detection"));
    }
    // Work on the negated signal so peaks are maxima.
    let raw: Vec<f64> = sweep.iter().map(|(_, i)| -i.value()).collect();
    let y = smooth(&raw, options.smoothing);

    let mut peaks = Vec::new();
    for k in 1..y.len() - 1 {
        if !(y[k] > y[k - 1] && y[k] >= y[k + 1]) {
            continue;
        }
        // Topographic prominence: walk outward to the higher cols.
        let mut left_col = y[k];
        for j in (0..k).rev() {
            left_col = left_col.min(y[j]);
            if y[j] > y[k] {
                break;
            }
        }
        let mut right_col = y[k];
        for j in k + 1..y.len() {
            right_col = right_col.min(y[j]);
            if y[j] > y[k] {
                break;
            }
        }
        let prominence = y[k] - left_col.max(right_col);
        if prominence >= options.min_height.value() {
            peaks.push(Peak {
                potential: sweep[k].0,
                current: sweep[k].1,
                height: Amps::new(prominence),
                index: k,
            });
        }
    }
    // Most prominent first. Total order is safe: non-finite inputs were
    // rejected above, so every prominence is finite.
    peaks.sort_by(|a, b| b.height.value().total_cmp(&a.height.value()));
    Ok(peaks)
}

/// Extracts the cathodic (downward-potential) leg of a voltammogram as
/// `(E, i)` pairs, ready for [`detect_cathodic_peaks`].
pub fn cathodic_segment(cv: &bios_electrochem::Voltammogram) -> Vec<(Volts, Amps)> {
    let segs = cv.segments();
    for range in segs {
        if range.len() >= 2 {
            let e = cv.potential();
            if e[range.end - 1].value() < e[range.start].value() {
                return range
                    .map(|k| (cv.potential()[k], cv.current()[k]))
                    .collect();
            }
        }
    }
    Vec::new()
}

fn smooth(y: &[f64], half_width: usize) -> Vec<f64> {
    if half_width == 0 {
        return y.to_vec();
    }
    let n = y.len();
    (0..n)
        .map(|k| {
            let lo = k.saturating_sub(half_width);
            let hi = (k + half_width + 1).min(n);
            y[lo..hi].iter().sum::<f64>() / (hi - lo) as f64
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gaussian_sweep(centers: &[(f64, f64)]) -> Vec<(Volts, Amps)> {
        (0..400)
            .map(|k| {
                let e = -0.9 + 0.0025 * k as f64;
                let mut i = 0.0;
                for (c, a) in centers {
                    i -= a * (-((e - c) / 0.04).powi(2)).exp();
                }
                (Volts::new(e), Amps::new(i))
            })
            .collect()
    }

    #[test]
    fn finds_two_separated_peaks_in_order_of_height() {
        let sweep = gaussian_sweep(&[(-0.25, 1e-9), (-0.40, 5e-9)]);
        let peaks = detect_cathodic_peaks(&sweep, PeakOptions::default()).expect("enough data");
        assert_eq!(peaks.len(), 2, "{peaks:?}");
        // Sorted by prominence: aminopyrine-like first.
        assert!((peaks[0].potential.value() + 0.40).abs() < 0.01);
        assert!((peaks[1].potential.value() + 0.25).abs() < 0.01);
        assert!(peaks[0].height.value() > peaks[1].height.value());
    }

    #[test]
    fn height_approximates_amplitude() {
        let sweep = gaussian_sweep(&[(-0.4, 2e-9)]);
        let peaks = detect_cathodic_peaks(&sweep, PeakOptions::default()).expect("enough data");
        assert_eq!(peaks.len(), 1);
        assert!((peaks[0].height.as_nanoamps() - 2.0).abs() < 0.1);
    }

    #[test]
    fn min_height_filters_noise_bumps() {
        let mut sweep = gaussian_sweep(&[(-0.4, 2e-9)]);
        // Add a tiny wiggle.
        for (k, (_, i)) in sweep.iter_mut().enumerate() {
            *i += Amps::new(2e-11 * ((k as f64) * 0.9).sin());
        }
        let strict = PeakOptions {
            min_height: Amps::from_nanoamps(0.5),
            smoothing: 2,
        };
        let peaks = detect_cathodic_peaks(&sweep, strict).expect("enough data");
        assert_eq!(peaks.len(), 1);
    }

    #[test]
    fn anodic_peaks_are_ignored() {
        let sweep: Vec<(Volts, Amps)> = (0..100)
            .map(|k| {
                let e = -0.5 + 0.005 * k as f64;
                // Positive (anodic) bump only.
                let i = 1e-9 * (-((e + 0.25) / 0.04).powi(2)).exp();
                (Volts::new(e), Amps::new(i))
            })
            .collect();
        let peaks = detect_cathodic_peaks(&sweep, PeakOptions::default()).expect("enough data");
        assert!(peaks.is_empty(), "{peaks:?}");
    }

    #[test]
    fn non_finite_samples_are_a_typed_error() {
        let mut sweep = gaussian_sweep(&[(-0.4, 2e-9)]);
        sweep[17].1 = Amps::new(f64::NAN);
        assert!(matches!(
            detect_cathodic_peaks(&sweep, PeakOptions::default()),
            Err(InstrumentError::NonFiniteData { .. })
        ));
        let mut sweep = gaussian_sweep(&[(-0.4, 2e-9)]);
        sweep[30].1 = Amps::new(f64::INFINITY);
        assert!(matches!(
            detect_cathodic_peaks(&sweep, PeakOptions::default()),
            Err(InstrumentError::NonFiniteData { .. })
        ));
    }

    #[test]
    fn too_few_samples_is_an_error() {
        let sweep = vec![(Volts::ZERO, Amps::ZERO); 3];
        assert!(matches!(
            detect_cathodic_peaks(&sweep, PeakOptions::default()),
            Err(InstrumentError::InsufficientData { .. })
        ));
    }

    #[test]
    fn smoothing_preserves_flat_signals() {
        let y = vec![3.0; 20];
        assert_eq!(smooth(&y, 3), y);
    }

    #[test]
    fn cathodic_segment_takes_the_down_leg() {
        use bios_electrochem::Voltammogram;
        use bios_units::Seconds;
        let mut cv = Voltammogram::new();
        // Down 0 → −0.5 then up −0.5 → 0.
        for k in 0..=50 {
            cv.push(
                Seconds::new(k as f64),
                Volts::new(-0.01 * k as f64),
                Amps::new(-1e-9),
            );
        }
        for k in 1..=50 {
            cv.push(
                Seconds::new(50.0 + k as f64),
                Volts::new(-0.5 + 0.01 * k as f64),
                Amps::new(1e-9),
            );
        }
        let down = cathodic_segment(&cv);
        assert!(
            down.first().expect("nonempty").0.value() > down.last().expect("nonempty").0.value()
        );
        assert!(down.iter().all(|(_, i)| i.value() < 0.0));
    }

    #[test]
    fn peak_on_sloping_baseline_still_found() {
        let sweep: Vec<(Volts, Amps)> = (0..400)
            .map(|k| {
                let e = -0.9 + 0.0025 * k as f64;
                // Sloping background + one peak.
                let i = -2e-9 * e - 3e-9 * (-((e + 0.4) / 0.04).powi(2)).exp();
                (Volts::new(e), Amps::new(i))
            })
            .collect();
        let peaks = detect_cathodic_peaks(&sweep, PeakOptions::default()).expect("enough data");
        assert_eq!(peaks.len(), 1);
        assert!((peaks[0].potential.value() + 0.4).abs() < 0.015);
    }
}
