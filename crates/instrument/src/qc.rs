//! Per-measurement quality-control gates.
//!
//! Every acquisition is screened before its numbers reach calibration or
//! concentration estimation: a [`QcGate`] runs a fixed battery of checks
//! (non-finite guard, saturation/clipping, baseline-noise bound,
//! calibration-drift bound, tail stationarity, minimum credible response)
//! and classifies the measurement [`Pass`](QcClass::Pass) /
//! [`Suspect`](QcClass::Suspect) / [`Fail`](QcClass::Fail) with
//! machine-readable [`QcReason`]s. The platform layer retries failed
//! slots and quarantines persistently failing electrodes — results are
//! degraded *visibly*, never silently.

use crate::chrono_protocol::ChronoMeasurement;
use crate::cv_protocol::CvMeasurement;
use bios_units::Amps;

/// QC classification of one measurement.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, serde::Serialize, serde::Deserialize,
)]
pub enum QcClass {
    /// All checks passed; the measurement is fully trusted.
    Pass,
    /// At least one check tripped a warning bound; the value is usable
    /// with reduced confidence.
    Suspect,
    /// At least one check tripped a rejection bound; the value must not
    /// be used and the slot should be retried.
    Fail,
}

impl QcClass {
    fn worst(self, other: QcClass) -> QcClass {
        self.max(other)
    }
}

impl core::fmt::Display for QcClass {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            QcClass::Pass => write!(f, "pass"),
            QcClass::Suspect => write!(f, "suspect"),
            QcClass::Fail => write!(f, "fail"),
        }
    }
}

/// Machine-readable cause attached to a non-passing QC verdict.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
#[non_exhaustive]
pub enum QcReason {
    /// A sample was NaN or infinite.
    NonFinite,
    /// This fraction of samples sat at the chain's full-scale rails.
    Saturated {
        /// Clipped-sample fraction in `[0, 1]`.
        fraction: f64,
    },
    /// Pre-injection baseline noise exceeded its bound.
    BaselineNoise {
        /// Baseline standard deviation as a fraction of full scale.
        relative_sd: f64,
    },
    /// The baseline sat too far from zero — calibration or reference
    /// drift.
    BaselineDrift {
        /// Baseline magnitude as a fraction of full scale.
        relative_offset: f64,
    },
    /// The post-injection tail kept trending instead of settling —
    /// fouling or reference drift in progress.
    NonStationaryTail {
        /// Tail trend over the tail window as a fraction of the tail mean.
        relative_slope: f64,
    },
    /// The analytical response was implausibly small for a scheduled
    /// target — open electrode or stale mux channel.
    LowResponse {
        /// Measured `ΔI` in amps.
        delta: f64,
    },
    /// Baseline noise sat implausibly far below the chain's calibrated
    /// self-noise — signal-path attenuation (open electrode contact,
    /// stale mux channel) scales the noise floor down with the signal.
    QuietChannel {
        /// Measured baseline noise as a fraction of the calibrated level.
        ratio: f64,
    },
    /// The post-injection tail scattered far beyond the response
    /// magnitude after detrending — intermittent corruption (stale mux
    /// samples, dropouts, spikes) rather than honest chain noise.
    NoisyTail {
        /// Detrended tail residual relative to the response magnitude.
        relative_residual: f64,
    },
    /// The chain's built-in self-test recovered a test signal with the
    /// wrong gain — attenuation or amplification in the signal path that
    /// quiescent noise (often below one ADC code) cannot reveal.
    GainError {
        /// Measured self-test response over the calibrated response.
        ratio: f64,
    },
    /// The acquisition aborted with a recoverable typed error before
    /// producing analyzable data.
    Aborted {
        /// Human-readable error description.
        detail: String,
    },
}

/// One measurement's QC outcome: the class plus every tripped reason.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct QcVerdict {
    /// Overall classification (worst of all tripped checks).
    pub class: QcClass,
    /// Machine-readable causes, in check order; empty for a clean pass.
    pub reasons: Vec<QcReason>,
}

impl QcVerdict {
    fn pass() -> Self {
        Self {
            class: QcClass::Pass,
            reasons: Vec::new(),
        }
    }

    fn add(&mut self, class: QcClass, reason: QcReason) {
        self.class = self.class.worst(class);
        self.reasons.push(reason);
    }

    /// Whether the measurement may be used at all.
    pub fn is_usable(&self) -> bool {
        self.class != QcClass::Fail
    }

    /// Folds another verdict into this one: worst class wins, reasons
    /// append in order.
    pub fn merge(&mut self, other: QcVerdict) {
        self.class = self.class.worst(other.class);
        self.reasons.extend(other.reasons);
    }

    /// What a retry scheduler should do with the screened measurement,
    /// given whether the retry budget is already spent. This is the
    /// verdict acting as a *step input*: the decision is pure data, so a
    /// suspended session replays it identically on resume.
    pub fn decision(&self, budget_exhausted: bool) -> QcDecision {
        match self.class {
            QcClass::Fail if budget_exhausted => QcDecision::Reject,
            QcClass::Fail => QcDecision::Retry,
            _ => QcDecision::Accept,
        }
    }
}

/// The scheduling consequence of a [`QcVerdict`] — the typed contract
/// between the QC gate and any retry scheduler (blocking loop, resumable
/// state machine, or fleet server).
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum QcDecision {
    /// The reading is usable (pass or suspect): keep it and move on.
    Accept,
    /// The reading failed QC with retry budget remaining: discard it and
    /// re-acquire under the next derived seed.
    Retry,
    /// The reading failed QC with the budget exhausted: keep only a
    /// flagged placeholder; never serve the value.
    Reject,
}

/// Thresholds for the QC battery. All fractions are relative to the
/// chain's full-scale current, making one gate meaningful across the
/// paper's nA and µA readout classes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QcGate {
    /// Fraction of full scale beyond which a sample counts as clipped.
    pub clip_level: f64,
    /// Clipped-sample fraction tripping Suspect.
    pub clip_suspect: f64,
    /// Clipped-sample fraction tripping Fail.
    pub clip_fail: f64,
    /// Baseline relative noise tripping Suspect.
    pub noise_suspect: f64,
    /// Baseline relative noise tripping Fail.
    pub noise_fail: f64,
    /// Baseline relative magnitude tripping Suspect.
    pub drift_suspect: f64,
    /// Baseline relative magnitude tripping Fail.
    pub drift_fail: f64,
    /// Relative tail trend tripping Suspect.
    pub slope_suspect: f64,
    /// Relative tail trend tripping Fail.
    pub slope_fail: f64,
    /// Baseline noise *below* this fraction of the calibrated chain
    /// self-noise trips Suspect (attenuation detector; only active when a
    /// reference is supplied).
    pub quiet_suspect: f64,
    /// Baseline noise below this fraction of the calibrated self-noise
    /// trips Fail.
    pub quiet_fail: f64,
    /// Detrended tail residual (relative to the response) tripping
    /// Suspect.
    pub residual_suspect: f64,
    /// Detrended tail residual tripping Fail.
    pub residual_fail: f64,
    /// Self-test gain error (fractional) tripping Suspect.
    pub gain_suspect: f64,
    /// Self-test gain error tripping Fail.
    pub gain_fail: f64,
    /// Smallest credible `|ΔI|` for a scheduled target; smaller responses
    /// trip [`QcReason::LowResponse`] as Fail. Set to [`Amps::ZERO`] to
    /// disable (e.g. for blanks).
    pub min_delta: Amps,
}

impl Default for QcGate {
    fn default() -> Self {
        Self {
            clip_level: 0.98,
            clip_suspect: 0.01,
            clip_fail: 0.05,
            noise_suspect: 0.01,
            noise_fail: 0.05,
            drift_suspect: 0.10,
            drift_fail: 0.30,
            slope_suspect: 0.10,
            slope_fail: 0.40,
            quiet_suspect: 0.8,
            quiet_fail: 0.45,
            residual_suspect: 0.05,
            residual_fail: 0.15,
            gain_suspect: 0.10,
            gain_fail: 0.25,
            min_delta: Amps::from_picoamps(10.0),
        }
    }
}

impl QcGate {
    /// A gate with the response-magnitude check disabled.
    pub fn without_min_delta(mut self) -> Self {
        self.min_delta = Amps::ZERO;
        self
    }

    fn grade(&self, value: f64, suspect: f64, fail: f64) -> Option<QcClass> {
        if value > fail {
            Some(QcClass::Fail)
        } else if value > suspect {
            Some(QcClass::Suspect)
        } else {
            None
        }
    }

    /// Grades a built-in self-test: `measured` is the chain's live
    /// response to a known test input, `expected` the commissioning
    /// (calibration-time) response to the same input. Gain errors beyond
    /// the suspect/fail bounds trip [`QcReason::GainError`].
    pub fn check_self_test(&self, measured: Amps, expected: Amps) -> QcVerdict {
        let mut verdict = QcVerdict::pass();
        if !measured.value().is_finite() || !expected.value().is_finite() {
            verdict.add(QcClass::Fail, QcReason::NonFinite);
            return verdict;
        }
        if expected.value().abs() == 0.0 {
            return verdict;
        }
        let ratio = measured.value() / expected.value();
        let error = (ratio - 1.0).abs();
        if let Some(class) = self.grade(error, self.gain_suspect, self.gain_fail) {
            verdict.add(class, QcReason::GainError { ratio });
        }
        verdict
    }

    /// Screens a chronoamperometric measurement against a chain whose
    /// full-scale input current is `full_scale`. With `reference_noise`
    /// (the chain's calibrated self-noise, e.g. from
    /// `ReadoutChain::baseline_noise_reference`) it also compares the
    /// measured baseline noise against it. A channel far quieter
    /// than its calibration is attenuated, not healthy — the one symptom
    /// an open electrode contact or stale mux channel cannot hide.
    pub fn check_chrono_referenced(
        &self,
        m: &ChronoMeasurement,
        full_scale: Amps,
        reference_noise: Option<Amps>,
    ) -> QcVerdict {
        let mut verdict = QcVerdict::pass();
        let fs = full_scale.value().abs();
        let currents: Vec<f64> = m.transient.current().iter().map(|i| i.value()).collect();

        // 1. Non-finite guard: nothing else is meaningful if this trips.
        if currents.iter().any(|v| !v.is_finite())
            || !m.baseline.value().is_finite()
            || !m.steady_state.value().is_finite()
        {
            verdict.add(QcClass::Fail, QcReason::NonFinite);
            return verdict;
        }
        if currents.is_empty() || fs == 0.0 {
            verdict.add(QcClass::Fail, QcReason::NonFinite);
            return verdict;
        }

        // 2. Saturation / clipping.
        let clipped = currents
            .iter()
            .filter(|v| v.abs() >= self.clip_level * fs)
            .count() as f64
            / currents.len() as f64;
        if let Some(class) = self.grade(clipped, self.clip_suspect, self.clip_fail) {
            verdict.add(class, QcReason::Saturated { fraction: clipped });
        }

        // 3. Baseline noise bound over the pre-injection window.
        let pre: Vec<f64> = m
            .transient
            .iter()
            .filter(|(t, _)| t.value() < m.injection_time.value())
            .map(|(_, i)| i.value())
            .collect();
        if pre.len() >= 4 {
            let mean = pre.iter().sum::<f64>() / pre.len() as f64;
            let sd =
                (pre.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / pre.len() as f64).sqrt();
            let relative_sd = sd / fs;
            if let Some(class) = self.grade(relative_sd, self.noise_suspect, self.noise_fail) {
                verdict.add(class, QcReason::BaselineNoise { relative_sd });
            }
            // 3b. Calibration comparison: a channel much quieter than its
            // commissioning self-noise is attenuated, not healthy.
            if let Some(reference) = reference_noise {
                if reference.value() > 0.0 {
                    let ratio = sd / reference.value();
                    if ratio < self.quiet_fail {
                        verdict.add(QcClass::Fail, QcReason::QuietChannel { ratio });
                    } else if ratio < self.quiet_suspect {
                        verdict.add(QcClass::Suspect, QcReason::QuietChannel { ratio });
                    }
                }
            }
        }

        // 4. Calibration drift: the baseline should sit near zero.
        let relative_offset = m.baseline.value().abs() / fs;
        if let Some(class) = self.grade(relative_offset, self.drift_suspect, self.drift_fail) {
            verdict.add(class, QcReason::BaselineDrift { relative_offset });
        }

        // 5. Tail stationarity: fit a line over the last third of the
        // post-injection window; a settled sensor trends flat, fouling or
        // drift keeps trending.
        let tail: Vec<(f64, f64)> = m
            .transient
            .iter()
            .filter(|(t, _)| {
                let t0 = m.injection_time.value();
                let span = m.transient.last().map(|(tl, _)| tl.value()).unwrap_or(t0) - t0;
                t.value() >= t0 + 2.0 * span / 3.0
            })
            .map(|(t, i)| (t.value(), i.value()))
            .collect();
        if tail.len() >= 4 {
            let n = tail.len() as f64;
            let sx: f64 = tail.iter().map(|(t, _)| t).sum();
            let sy: f64 = tail.iter().map(|(_, i)| i).sum();
            let sxx: f64 = tail.iter().map(|(t, _)| t * t).sum();
            let sxy: f64 = tail.iter().map(|(t, i)| t * i).sum();
            let denom = n * sxx - sx * sx;
            if denom.abs() > 0.0 {
                let slope = (n * sxy - sx * sy) / denom;
                let window = tail.last().map(|(t, _)| *t).unwrap_or(tail[0].0) - tail[0].0;
                let mean = sy / n;
                let scale = mean.abs().max(0.05 * fs);
                let relative_slope = (slope * window / scale).abs();
                if let Some(class) = self.grade(relative_slope, self.slope_suspect, self.slope_fail)
                {
                    verdict.add(class, QcReason::NonStationaryTail { relative_slope });
                }
                // 5b. Detrended residual: honest chain noise is small
                // against the response; intermittent corruption (stale
                // samples, dropouts) scatters samples across the whole
                // signal span and survives detrending.
                let intercept = (sy - slope * sx) / n;
                let residual_sd = (tail
                    .iter()
                    .map(|(t, i)| (i - (slope * t + intercept)).powi(2))
                    .sum::<f64>()
                    / n)
                    .sqrt();
                let relative_residual = residual_sd / m.delta().value().abs().max(0.02 * fs);
                if let Some(class) =
                    self.grade(relative_residual, self.residual_suspect, self.residual_fail)
                {
                    verdict.add(class, QcReason::NoisyTail { relative_residual });
                }
            }
        }

        // 6. Minimum credible response for a scheduled target.
        let delta = m.delta().value();
        if self.min_delta.value() > 0.0 && delta.abs() < self.min_delta.value() {
            verdict.add(QcClass::Fail, QcReason::LowResponse { delta });
        }

        verdict
    }

    /// Screens a voltammetric measurement against a chain whose
    /// full-scale input current is `full_scale`.
    pub fn check_cv(&self, m: &CvMeasurement, full_scale: Amps) -> QcVerdict {
        let mut verdict = QcVerdict::pass();
        let fs = full_scale.value().abs();
        let currents: Vec<f64> = m.voltammogram.current().iter().map(|i| i.value()).collect();

        if currents.iter().any(|v| !v.is_finite()) {
            verdict.add(QcClass::Fail, QcReason::NonFinite);
            return verdict;
        }
        if currents.is_empty() || fs == 0.0 {
            verdict.add(QcClass::Fail, QcReason::NonFinite);
            return verdict;
        }

        let clipped = currents
            .iter()
            .filter(|v| v.abs() >= self.clip_level * fs)
            .count() as f64
            / currents.len() as f64;
        if let Some(class) = self.grade(clipped, self.clip_suspect, self.clip_fail) {
            verdict.add(class, QcReason::Saturated { fraction: clipped });
        }

        // High-frequency noise estimate from successive differences
        // (insensitive to the slow catalytic wave shape): sd(diff)/√2.
        if currents.len() >= 8 {
            let diffs: Vec<f64> = currents.windows(2).map(|w| w[1] - w[0]).collect();
            let mean = diffs.iter().sum::<f64>() / diffs.len() as f64;
            let sd = (diffs.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / diffs.len() as f64)
                .sqrt()
                / core::f64::consts::SQRT_2;
            let relative_sd = sd / fs;
            if let Some(class) = self.grade(relative_sd, self.noise_suspect, self.noise_fail) {
                verdict.add(class, QcReason::BaselineNoise { relative_sd });
            }
        }

        // Minimum credible response: the most prominent detected peak.
        if self.min_delta.value() > 0.0 {
            let best = m.peaks.first().map(|p| p.height.value()).unwrap_or(0.0);
            if best < self.min_delta.value() {
                verdict.add(QcClass::Fail, QcReason::LowResponse { delta: best });
            }
        }

        verdict
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bios_electrochem::Transient;
    use bios_units::Seconds;

    /// A clean synthetic step transient: baseline 0, step to `step` nA at
    /// t = 10 s, exponential settle, tiny deterministic ripple.
    fn clean_measurement(step_na: f64) -> ChronoMeasurement {
        let mut tr = Transient::new();
        for k in 0..280 {
            let t = k as f64 * 0.25;
            let i = if t < 10.0 {
                1e-11 * ((k % 3) as f64 - 1.0)
            } else {
                step_na * 1e-9 * (1.0 - (-(t - 10.0) / 3.0).exp()) + 1e-11 * ((k % 3) as f64 - 1.0)
            };
            tr.push(Seconds::new(t), Amps::new(i));
        }
        crate::analyze_transient(tr, Seconds::new(10.0))
    }

    /// 1 µA test full scale.
    const FS: Amps = Amps::new(1e-6);

    #[test]
    fn clean_transient_passes() {
        let v = QcGate::default().check_chrono_referenced(&clean_measurement(100.0), FS, None);
        assert_eq!(v.class, QcClass::Pass, "{:?}", v.reasons);
        assert!(v.reasons.is_empty());
        assert!(v.is_usable());
    }

    #[test]
    fn nan_sample_fails_nonfinite() {
        let mut m = clean_measurement(100.0);
        let mut tr = Transient::new();
        for (k, (t, i)) in m.transient.iter().enumerate() {
            tr.push(t, if k == 50 { Amps::new(f64::NAN) } else { i });
        }
        m.transient = tr;
        let v = QcGate::default().check_chrono_referenced(&m, FS, None);
        assert_eq!(v.class, QcClass::Fail);
        assert!(matches!(v.reasons[0], QcReason::NonFinite));
    }

    #[test]
    fn railed_transient_fails_saturated() {
        let mut tr = Transient::new();
        for k in 0..280 {
            let t = k as f64 * 0.25;
            let i = if t < 10.0 { 0.0 } else { 1e-6 }; // pinned at full scale
            tr.push(Seconds::new(t), Amps::new(i));
        }
        let m = crate::analyze_transient(tr, Seconds::new(10.0));
        let v = QcGate::default().check_chrono_referenced(&m, FS, None);
        assert_eq!(v.class, QcClass::Fail);
        assert!(v
            .reasons
            .iter()
            .any(|r| matches!(r, QcReason::Saturated { .. })));
    }

    #[test]
    fn noisy_baseline_trips_noise_bound() {
        let mut tr = Transient::new();
        for k in 0..280 {
            let t = k as f64 * 0.25;
            // ±60 nA deterministic square ripple = 6% of full scale.
            let ripple = 6e-8 * if k % 2 == 0 { 1.0 } else { -1.0 };
            let i = if t < 10.0 { ripple } else { 1e-7 + ripple };
            tr.push(Seconds::new(t), Amps::new(i));
        }
        let m = crate::analyze_transient(tr, Seconds::new(10.0));
        let v = QcGate::default().check_chrono_referenced(&m, FS, None);
        assert_eq!(v.class, QcClass::Fail, "{:?}", v.reasons);
        assert!(v
            .reasons
            .iter()
            .any(|r| matches!(r, QcReason::BaselineNoise { .. })));
    }

    #[test]
    fn offset_baseline_trips_drift_bound() {
        let mut tr = Transient::new();
        for k in 0..280 {
            let t = k as f64 * 0.25;
            let i = 0.35e-6 + if t < 10.0 { 0.0 } else { 1e-7 };
            tr.push(Seconds::new(t), Amps::new(i));
        }
        let m = crate::analyze_transient(tr, Seconds::new(10.0));
        let v = QcGate::default().check_chrono_referenced(&m, FS, None);
        assert_eq!(v.class, QcClass::Fail, "{:?}", v.reasons);
        assert!(v
            .reasons
            .iter()
            .any(|r| matches!(r, QcReason::BaselineDrift { .. })));
    }

    #[test]
    fn trending_tail_trips_stationarity() {
        let mut tr = Transient::new();
        for k in 0..280 {
            let t = k as f64 * 0.25;
            // Response keeps decaying instead of settling (fouling-like).
            let i = if t < 10.0 {
                0.0
            } else {
                2e-7 * (-(t - 10.0) / 40.0).exp()
            };
            tr.push(Seconds::new(t), Amps::new(i));
        }
        let m = crate::analyze_transient(tr, Seconds::new(10.0));
        let v = QcGate::default().check_chrono_referenced(&m, FS, None);
        assert!(v.class >= QcClass::Suspect, "{:?}", v.reasons);
        assert!(v
            .reasons
            .iter()
            .any(|r| matches!(r, QcReason::NonStationaryTail { .. })));
    }

    #[test]
    fn vanished_response_fails_low_response() {
        let v = QcGate::default().check_chrono_referenced(&clean_measurement(0.0), FS, None);
        assert_eq!(v.class, QcClass::Fail, "{:?}", v.reasons);
        assert!(v
            .reasons
            .iter()
            .any(|r| matches!(r, QcReason::LowResponse { .. })));
        // The same gate with the response check disabled passes it.
        let relaxed = QcGate::default().without_min_delta();
        let v = relaxed.check_chrono_referenced(&clean_measurement(0.0), FS, None);
        assert!(v.is_usable());
    }

    #[test]
    fn class_ordering_and_display() {
        assert!(QcClass::Fail > QcClass::Suspect);
        assert!(QcClass::Suspect > QcClass::Pass);
        assert_eq!(QcClass::Fail.to_string(), "fail");
        assert_eq!(QcClass::Pass.worst(QcClass::Suspect), QcClass::Suspect);
    }

    #[test]
    fn verdict_serializes_with_reasons() {
        let mut v = QcVerdict::pass();
        v.add(QcClass::Suspect, QcReason::Saturated { fraction: 0.02 });
        let json = serde_json::to_string(&v).expect("serialize");
        assert!(json.contains("Suspect"));
        assert!(json.contains("Saturated"));
        let back: QcVerdict = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back, v);
    }
}
