//! Property-based tests for the measurement-science layer.

use bios_biochem::Analyte;
use bios_instrument::{
    analyze_calibration, detect_cathodic_peaks, fit_line, match_signature, max_nonlinearity,
    CalibrationPoint, ExpectedPeak, PeakOptions, ReplicateStats, DEFAULT_WINDOW,
};
use bios_units::{Amps, Molar, Volts};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// fit_line exactly recovers any non-degenerate line.
    #[test]
    fn fit_recovers_exact_lines(
        slope in -1e3f64..1e3,
        intercept in -1.0f64..1.0,
        n in 3usize..40,
        c0 in 0.001f64..1.0,
        dc in 0.001f64..1.0,
    ) {
        let points: Vec<CalibrationPoint> = (0..n)
            .map(|k| {
                let c = c0 + dc * k as f64;
                CalibrationPoint {
                    concentration: Molar::new(c),
                    response: intercept + slope * c,
                }
            })
            .collect();
        let fit = fit_line(&points).expect("non-degenerate");
        let scale = slope.abs().max(1.0);
        prop_assert!((fit.slope - slope).abs() < 1e-6 * scale, "{} vs {slope}", fit.slope);
        prop_assert!(fit.r2 > 0.999999 || slope.abs() < 1e-9);
    }

    /// The fit residual SD is invariant under adding a constant and scales
    /// linearly with response scaling.
    #[test]
    fn fit_residual_equivariance(seed in 0u64..500, scale in 0.5f64..100.0, offset in -10.0f64..10.0) {
        let noise = |k: usize| (((seed as f64 + k as f64) * 12.9898).sin() * 43758.5453).fract() - 0.5;
        let base: Vec<CalibrationPoint> = (0..12)
            .map(|k| CalibrationPoint {
                concentration: Molar::new(0.1 * (k + 1) as f64),
                response: 2.0 * 0.1 * (k + 1) as f64 + 0.05 * noise(k),
            })
            .collect();
        let shifted: Vec<CalibrationPoint> = base
            .iter()
            .map(|p| CalibrationPoint { response: p.response * scale + offset, ..*p })
            .collect();
        let f0 = fit_line(&base).expect("fit");
        let f1 = fit_line(&shifted).expect("fit");
        prop_assert!((f1.residual_sd - f0.residual_sd * scale).abs() < 1e-9 * scale.max(1.0));
        prop_assert!((f1.slope - f0.slope * scale).abs() < 1e-9 * scale.max(1.0));
    }

    /// eq. 7 nonlinearity is invariant under response scaling (it is
    /// normalized) and zero for lines.
    #[test]
    fn nonlinearity_scale_invariant(scale in 0.1f64..100.0, curvature in 0.0f64..0.5) {
        let points: Vec<CalibrationPoint> = (0..8)
            .map(|k| {
                let c = 0.1 * (k + 1) as f64;
                CalibrationPoint {
                    concentration: Molar::new(c),
                    response: c + curvature * c * c,
                }
            })
            .collect();
        let scaled: Vec<CalibrationPoint> = points
            .iter()
            .map(|p| CalibrationPoint { response: p.response * scale, ..*p })
            .collect();
        let n0 = max_nonlinearity(&points).expect("nl");
        let n1 = max_nonlinearity(&scaled).expect("nl");
        prop_assert!((n0 - n1).abs() < 1e-9);
        if curvature == 0.0 {
            prop_assert!(n0 < 1e-12);
        }
    }

    /// Peak detection is equivariant under current scaling: same
    /// positions, proportionally scaled heights.
    #[test]
    fn peak_detection_scale_equivariant(amp_na in 0.5f64..50.0, scale in 1.5f64..20.0) {
        let sweep = |a: f64| -> Vec<(Volts, Amps)> {
            (0..300)
                .map(|k| {
                    let e = -0.7 + 0.002 * k as f64;
                    let i = -a * 1e-9 * (-((e + 0.35) / 0.04).powi(2)).exp();
                    (Volts::new(e), Amps::new(i))
                })
                .collect()
        };
        let opts = PeakOptions {
            min_height: Amps::from_picoamps(100.0),
            smoothing: 2,
        };
        let p0 = detect_cathodic_peaks(&sweep(amp_na), opts).expect("peaks");
        let p1 = detect_cathodic_peaks(&sweep(amp_na * scale), opts).expect("peaks");
        prop_assert_eq!(p0.len(), 1);
        prop_assert_eq!(p1.len(), 1);
        prop_assert_eq!(p0[0].potential, p1[0].potential);
        let ratio = p1[0].height.value() / p0[0].height.value();
        prop_assert!((ratio - scale).abs() < 0.05 * scale, "ratio {ratio}");
    }

    /// Signature matching never assigns one peak to two analytes and never
    /// matches outside the window.
    #[test]
    fn signature_matching_sound(
        peaks_mv in prop::collection::vec(-800.0f64..-10.0, 0..6),
        expected_mv in prop::collection::vec(-800.0f64..-10.0, 1..6),
    ) {
        let peaks: Vec<bios_instrument::Peak> = peaks_mv
            .iter()
            .enumerate()
            .map(|(k, e)| bios_instrument::Peak {
                potential: Volts::from_millivolts(*e),
                current: Amps::new(-1e-9),
                height: Amps::new(1e-9 * (k + 1) as f64),
                index: k,
            })
            .collect();
        let expected: Vec<ExpectedPeak> = expected_mv
            .iter()
            .map(|e| ExpectedPeak {
                analyte: Analyte::Clozapine,
                potential: Volts::from_millivolts(*e),
            })
            .collect();
        let matches = match_signature(&peaks, &expected, DEFAULT_WINDOW);
        prop_assert_eq!(matches.len(), expected.len());
        let mut used = std::collections::BTreeSet::new();
        for m in &matches {
            if let Some(p) = m.peak {
                prop_assert!(
                    (p.potential - m.expected).abs().value() <= DEFAULT_WINDOW.value() + 1e-12
                );
                prop_assert!(used.insert(p.index), "peak double-claimed");
            }
        }
    }

    /// Replicate statistics: shifting adds to the mean, scaling multiplies
    /// the SD; the detection threshold follows eq. 5.
    #[test]
    fn replicate_stats_affine(
        vals in prop::collection::vec(-1e3f64..1e3, 2..50),
        shift in -100.0f64..100.0,
        scale in 0.1f64..10.0,
    ) {
        let s0 = ReplicateStats::from_samples(&vals).expect("enough data");
        let transformed: Vec<f64> = vals.iter().map(|v| v * scale + shift).collect();
        let s1 = ReplicateStats::from_samples(&transformed).expect("enough data");
        let tol = 1e-9 * (1.0 + s0.mean().abs() + s0.sd());
        prop_assert!((s1.mean() - (s0.mean() * scale + shift)).abs() < tol * scale.max(1.0) * 100.0);
        prop_assert!((s1.sd() - s0.sd() * scale).abs() < tol * scale.max(1.0) * 100.0);
        prop_assert!((s1.detection_threshold() - (s1.mean() + 3.0 * s1.sd())).abs() < 1e-9 * (1.0 + s1.mean().abs()));
    }

    /// Calibration analysis LOD is inversely proportional to sensitivity:
    /// scaling all responses (and blanks) by k leaves the LOD unchanged;
    /// scaling only the slope divides it.
    #[test]
    fn lod_scaling_relations(k in 2.0f64..50.0) {
        let blanks = [0.0, 1e-9, -1e-9, 2e-9, -2e-9];
        let points: Vec<CalibrationPoint> = (1..8)
            .map(|j| CalibrationPoint {
                concentration: Molar::new(1e-3 * j as f64),
                response: 1e-4 * j as f64,
            })
            .collect();
        let base = analyze_calibration(&blanks, &points, 0.1).expect("analysis");
        // Scale everything: LOD invariant.
        let blanks_k: Vec<f64> = blanks.iter().map(|b| b * k).collect();
        let points_k: Vec<CalibrationPoint> = points
            .iter()
            .map(|p| CalibrationPoint { response: p.response * k, ..*p })
            .collect();
        let both = analyze_calibration(&blanks_k, &points_k, 0.1).expect("analysis");
        prop_assert!((both.lod.value() - base.lod.value()).abs() < 1e-9 * base.lod.value());
        // Scale only the slope: LOD divides by k.
        let steeper = analyze_calibration(&blanks, &points_k, 0.1).expect("analysis");
        prop_assert!(
            (steeper.lod.value() - base.lod.value() / k).abs() < 1e-9 * base.lod.value()
        );
    }
}
