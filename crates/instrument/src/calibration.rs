//! Calibration analysis: sensitivity (paper eq. 6), LOD (eq. 5), linear
//! range and maximum nonlinearity (eq. 7) from measured data.

use crate::error::InstrumentError;
use crate::replicate::ReplicateStats;
use bios_units::{Molar, QRange};

/// One calibration point: a known concentration and the measured response
/// (any consistent unit — amps, volts or codes).
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct CalibrationPoint {
    /// Prepared analyte concentration.
    pub concentration: Molar,
    /// Measured steady-state response.
    pub response: f64,
}

/// An ordinary-least-squares line fit.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct LinearFit {
    /// Slope in response units per molar.
    pub slope: f64,
    /// Intercept in response units.
    pub intercept: f64,
    /// Coefficient of determination.
    pub r2: f64,
    /// Residual standard deviation.
    pub residual_sd: f64,
    /// Number of points fitted.
    pub n: usize,
}

impl LinearFit {
    /// Predicted response at a concentration.
    pub(crate) fn predict(&self, c: Molar) -> f64 {
        self.intercept + self.slope * c.value()
    }
}

/// Fits a least-squares line through calibration points.
///
/// # Errors
///
/// Returns [`InstrumentError::InsufficientData`] for fewer than 2 points,
/// [`InstrumentError::NonFiniteData`] if any coordinate is NaN or
/// infinite, and [`InstrumentError::FitFailed`] when all concentrations
/// coincide.
pub fn fit_line(points: &[CalibrationPoint]) -> Result<LinearFit, InstrumentError> {
    if points.len() < 2 {
        return Err(InstrumentError::InsufficientData {
            needed: 2,
            got: points.len(),
        });
    }
    ensure_finite(points, "line fit")?;
    let n = points.len() as f64;
    let sx: f64 = points.iter().map(|p| p.concentration.value()).sum();
    let sy: f64 = points.iter().map(|p| p.response).sum();
    let sxx: f64 = points.iter().map(|p| p.concentration.value().powi(2)).sum();
    let sxy: f64 = points
        .iter()
        .map(|p| p.concentration.value() * p.response)
        .sum();
    let denom = n * sxx - sx * sx;
    if denom.abs() < 1e-300 {
        return Err(InstrumentError::FitFailed(
            "degenerate abscissa (all concentrations equal)".to_string(),
        ));
    }
    let slope = (n * sxy - sx * sy) / denom;
    let intercept = (sy - slope * sx) / n;
    let mean_y = sy / n;
    let ss_tot: f64 = points.iter().map(|p| (p.response - mean_y).powi(2)).sum();
    let ss_res: f64 = points
        .iter()
        .map(|p| (p.response - (intercept + slope * p.concentration.value())).powi(2))
        .sum();
    let r2 = if ss_tot == 0.0 {
        1.0
    } else {
        1.0 - ss_res / ss_tot
    };
    let dof = (points.len().max(3) - 2) as f64;
    Ok(LinearFit {
        slope,
        intercept,
        r2,
        residual_sd: (ss_res / dof).sqrt(),
        n: points.len(),
    })
}

/// Rejects point sets containing NaN or infinite coordinates with a
/// typed error, so downstream sorts and fits never see them.
fn ensure_finite(
    points: &[CalibrationPoint],
    context: &'static str,
) -> Result<(), InstrumentError> {
    if points
        .iter()
        .any(|p| !p.concentration.value().is_finite() || !p.response.is_finite())
    {
        return Err(InstrumentError::non_finite(context));
    }
    Ok(())
}

/// The paper's eq. 7 maximum nonlinearity of a point set against the
/// average sensitivity through the reference (first) point, normalized by
/// the response span:
/// `NL_max = max|V_C − V_C0 − S_avg·(C − C0)| / ΔV`.
///
/// # Errors
///
/// Returns [`InstrumentError::InsufficientData`] for fewer than 3 points,
/// [`InstrumentError::NonFiniteData`] for NaN or infinite coordinates,
/// and [`InstrumentError::FitFailed`] for a zero response span.
pub fn max_nonlinearity(points: &[CalibrationPoint]) -> Result<f64, InstrumentError> {
    if points.len() < 3 {
        return Err(InstrumentError::InsufficientData {
            needed: 3,
            got: points.len(),
        });
    }
    ensure_finite(points, "nonlinearity analysis")?;
    let first = points[0];
    let last = points[points.len() - 1];
    let dc = last.concentration.value() - first.concentration.value();
    let dv = last.response - first.response;
    if dv.abs() < 1e-300 || dc.abs() < 1e-300 {
        return Err(InstrumentError::FitFailed(
            "degenerate calibration span".to_string(),
        ));
    }
    let s_avg = dv / dc; // eq. 6 average sensitivity over the range
    let worst = points
        .iter()
        .map(|p| {
            (p.response
                - first.response
                - s_avg * (p.concentration.value() - first.concentration.value()))
            .abs()
        })
        .fold(0.0f64, f64::max);
    Ok(worst / dv.abs())
}

/// Complete calibration analysis of a sensor.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct CalibrationOutcome {
    /// Fit over the detected linear region.
    pub fit: LinearFit,
    /// Blank statistics (`V_b`, `σ_b`).
    pub blank_mean: f64,
    /// Blank standard deviation.
    pub blank_sd: f64,
    /// Limit of detection from eq. 5 translated to concentration:
    /// `LOD = 3σ_b / slope`.
    pub lod: Molar,
    /// Detected linear range (widest low-end window within tolerance).
    pub linear_range: QRange<Molar>,
    /// eq. 7 nonlinearity over the detected linear range.
    pub nl_max: f64,
}

/// Analyzes a calibration campaign: blank replicates plus a
/// concentration-sorted series of measured points.
///
/// The linear range is found by growing a window from the lowest
/// concentration and stopping when eq. 7 nonlinearity exceeds
/// `nl_tolerance`.
///
/// # Errors
///
/// Returns [`InstrumentError`] for insufficient blanks (<2) or points (<3),
/// NaN or infinite blanks or points, or degenerate fits.
///
/// # Example
///
/// ```
/// use bios_instrument::{analyze_calibration, CalibrationPoint};
/// use bios_units::Molar;
///
/// # fn main() -> Result<(), bios_instrument::InstrumentError> {
/// let blanks = [0.0, 1e-9, -1e-9, 5e-10];
/// let points: Vec<CalibrationPoint> = (1..=8)
///     .map(|k| CalibrationPoint {
///         concentration: Molar::from_millimolar(k as f64 * 0.5),
///         response: 1e-6 * k as f64 * 0.5, // perfectly linear
///     })
///     .collect();
/// let outcome = analyze_calibration(&blanks, &points, 0.1)?;
/// assert!(outcome.nl_max < 0.01);
/// # Ok(())
/// # }
/// ```
pub fn analyze_calibration(
    blanks: &[f64],
    points: &[CalibrationPoint],
    nl_tolerance: f64,
) -> Result<CalibrationOutcome, InstrumentError> {
    if !(0.0..1.0).contains(&nl_tolerance) || nl_tolerance == 0.0 {
        return Err(InstrumentError::invalid(
            "nl_tolerance",
            "must lie strictly between 0 and 1",
        ));
    }
    if blanks.iter().any(|b| !b.is_finite()) {
        return Err(InstrumentError::non_finite("blank statistics"));
    }
    let blank_stats = ReplicateStats::from_samples(blanks)?;
    if points.len() < 3 {
        return Err(InstrumentError::InsufficientData {
            needed: 3,
            got: points.len(),
        });
    }
    ensure_finite(points, "calibration analysis")?;
    let mut sorted = points.to_vec();
    sorted.sort_by(|a, b| a.concentration.value().total_cmp(&b.concentration.value()));

    // Grow the linear window from the bottom: anchor the sensitivity on the
    // three lowest concentrations (the paper's slope is the *initial* slope
    // of the calibration curve) and extend while each next point deviates
    // from that line by less than the tolerance. A chord-based criterion
    // would silently absorb Michaelis–Menten saturation.
    let anchor = fit_line(&sorted[..3])?;
    let mut end = 3;
    while end < sorted.len() {
        let p = sorted[end];
        let pred = anchor.predict(p.concentration);
        if pred.abs() < 1e-300 || ((p.response - pred) / pred).abs() > nl_tolerance {
            break;
        }
        end += 1;
    }
    let linear_points = &sorted[..end];
    let fit = fit_line(linear_points)?;
    let nl_max = max_nonlinearity(linear_points)?;
    let lod = if fit.slope.abs() < 1e-300 {
        return Err(InstrumentError::FitFailed("zero sensitivity".to_string()));
    } else {
        Molar::new((3.0 * blank_stats.sd() / fit.slope).abs())
    };
    let linear_range = QRange::new(
        linear_points[0].concentration,
        linear_points[linear_points.len() - 1].concentration,
    )
    .map_err(|e| InstrumentError::FitFailed(e.to_string()))?;
    Ok(CalibrationOutcome {
        fit,
        blank_mean: blank_stats.mean(),
        blank_sd: blank_stats.sd(),
        lod,
        linear_range,
        nl_max,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mm(v: f64) -> Molar {
        Molar::from_millimolar(v)
    }

    #[test]
    fn fit_recovers_known_line() {
        let points: Vec<CalibrationPoint> = (0..10)
            .map(|k| CalibrationPoint {
                concentration: mm(k as f64),
                response: 2.5e-3 * (k as f64 * 1e-3) + 1e-9,
            })
            .collect();
        let fit = fit_line(&points).expect("fit");
        assert!((fit.slope - 2.5e-3).abs() / 2.5e-3 < 1e-9);
        assert!((fit.intercept - 1e-9).abs() < 1e-15);
        assert!(fit.r2 > 0.999999);
    }

    #[test]
    fn fit_rejects_degenerate_input() {
        assert!(fit_line(&[]).is_err());
        let same = vec![
            CalibrationPoint {
                concentration: mm(1.0),
                response: 1.0
            };
            4
        ];
        assert!(matches!(
            fit_line(&same),
            Err(InstrumentError::FitFailed(_))
        ));
    }

    #[test]
    fn nonlinearity_zero_for_perfect_line() {
        let points: Vec<CalibrationPoint> = (1..8)
            .map(|k| CalibrationPoint {
                concentration: mm(k as f64),
                response: 3.0 * k as f64,
            })
            .collect();
        assert!(max_nonlinearity(&points).expect("nl") < 1e-12);
    }

    #[test]
    fn nonlinearity_detects_saturation() {
        // Michaelis–Menten with Km = 9 mM: 10% NL at ~1 mM... measure a
        // clearly saturating set.
        let km = 9.0;
        let points: Vec<CalibrationPoint> = (1..=10)
            .map(|k| {
                let c = k as f64;
                CalibrationPoint {
                    concentration: mm(c),
                    response: c / (km + c),
                }
            })
            .collect();
        let nl = max_nonlinearity(&points).expect("nl");
        assert!(nl > 0.05, "nl = {nl}");
    }

    #[test]
    fn analyze_full_campaign_on_mm_sensor() {
        // Simulated glucose-like sensor: slope 27.7e-3 A/(M·...) with
        // Km = 36 mM, blanks with σ = 12 nA.
        let s = 27.7e-3;
        let km = 36e-3;
        let blanks = [0.0, 12e-9, -10e-9, 8e-9, -14e-9, 5e-9];
        let points: Vec<CalibrationPoint> = [0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 8.0, 16.0, 32.0]
            .iter()
            .map(|c_mm| {
                let c = c_mm * 1e-3;
                CalibrationPoint {
                    concentration: Molar::new(c),
                    response: s * km * c / (km + c),
                }
            })
            .collect();
        let out = analyze_calibration(&blanks, &points, 0.10).expect("analysis");
        // Sensitivity ≈ S: a fit over a window ending at 10% saturation is
        // intrinsically ~10% below the true initial slope.
        assert!(
            (out.fit.slope - s).abs() / s < 0.13,
            "slope {} vs {s}",
            out.fit.slope
        );
        // The linear range must stop where MM saturation bites — the paper's
        // 4 mM for a 36 mM apparent Km at 10% tolerance.
        assert!(
            out.linear_range.hi().as_millimolar() <= 4.0 + 1e-9,
            "linear top {}",
            out.linear_range.hi().as_millimolar()
        );
        assert!(out.lod.value() > 0.0);
    }

    #[test]
    fn lod_scales_with_blank_noise() {
        let points: Vec<CalibrationPoint> = (1..6)
            .map(|k| CalibrationPoint {
                concentration: mm(k as f64),
                response: 1e-3 * k as f64,
            })
            .collect();
        let quiet = analyze_calibration(&[0.0, 1e-9, -1e-9], &points, 0.1).expect("analysis");
        let noisy = analyze_calibration(&[0.0, 1e-7, -1e-7], &points, 0.1).expect("analysis");
        assert!(noisy.lod.value() > 50.0 * quiet.lod.value());
    }

    #[test]
    fn non_finite_inputs_are_typed_errors() {
        let mut points: Vec<CalibrationPoint> = (1..6)
            .map(|k| CalibrationPoint {
                concentration: mm(k as f64),
                response: 1e-3 * k as f64,
            })
            .collect();
        points[2].response = f64::NAN;
        assert!(matches!(
            fit_line(&points),
            Err(InstrumentError::NonFiniteData { .. })
        ));
        assert!(matches!(
            max_nonlinearity(&points),
            Err(InstrumentError::NonFiniteData { .. })
        ));
        assert!(matches!(
            analyze_calibration(&[0.0, 1e-9], &points, 0.1),
            Err(InstrumentError::NonFiniteData { .. })
        ));
        points[2].response = 3e-3;
        points[4].concentration = Molar::new(f64::INFINITY);
        assert!(matches!(
            fit_line(&points),
            Err(InstrumentError::NonFiniteData { .. })
        ));
        // NaN blanks are caught before replicate statistics.
        let good: Vec<CalibrationPoint> = (1..6)
            .map(|k| CalibrationPoint {
                concentration: mm(k as f64),
                response: 1e-3 * k as f64,
            })
            .collect();
        assert!(matches!(
            analyze_calibration(&[0.0, f64::NAN], &good, 0.1),
            Err(InstrumentError::NonFiniteData { .. })
        ));
    }

    #[test]
    fn rejects_bad_tolerance() {
        let points: Vec<CalibrationPoint> = (1..6)
            .map(|k| CalibrationPoint {
                concentration: mm(k as f64),
                response: k as f64,
            })
            .collect();
        assert!(analyze_calibration(&[0.0, 1.0], &points, 0.0).is_err());
        assert!(analyze_calibration(&[0.0, 1.0], &points, 1.0).is_err());
    }
}
