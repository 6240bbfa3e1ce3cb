//! Chronoamperometry protocol: the oxidase readout of paper Table I and
//! the Fig. 3 time-response experiment.

use crate::calibration::{analyze_calibration, CalibrationOutcome, CalibrationPoint};
use crate::error::InstrumentError;
use bios_afe::ReadoutChain;
use bios_biochem::{Interferent, OxidaseSensor};
use bios_electrochem::{Electrode, PotentialProgram, Transient};
use bios_units::{Amps, Molar, Seconds};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Timing of a chronoamperometric measurement.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ChronoProtocol {
    /// Pre-injection settling time at the working potential.
    pub settle: Seconds,
    /// Recording time after the injection.
    pub measure: Seconds,
    /// Sample interval.
    pub dt: Seconds,
}

impl ChronoProtocol {
    /// Validates the timing.
    ///
    /// # Errors
    ///
    /// Returns [`InstrumentError::InvalidParameter`] for non-positive
    /// durations or a `dt` that undersamples the measurement (<20 samples).
    pub fn validate(&self) -> Result<(), InstrumentError> {
        if self.settle.value() <= 0.0 || self.measure.value() <= 0.0 || self.dt.value() <= 0.0 {
            return Err(InstrumentError::invalid("timing", "must be positive"));
        }
        if self.measure.value() / self.dt.value() < 20.0 {
            return Err(InstrumentError::invalid(
                "dt",
                "must give at least 20 samples over the measurement",
            ));
        }
        Ok(())
    }
}

impl Default for ChronoProtocol {
    fn default() -> Self {
        Self {
            settle: Seconds::new(10.0),
            measure: Seconds::new(60.0),
            dt: Seconds::new(0.25),
        }
    }
}

/// The analyzed result of one chronoamperometric measurement.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ChronoMeasurement {
    /// The recorded current transient (chain output).
    pub transient: Transient,
    /// When the analyte was injected.
    pub injection_time: Seconds,
    /// Pre-injection baseline current.
    pub baseline: Amps,
    /// Post-injection steady-state current (tail mean).
    pub steady_state: Amps,
    /// Steady-state response time: time from injection to 90% of the step
    /// (paper §II-B), if the response settled.
    pub t90: Option<Seconds>,
    /// Transient response time: time from injection to the maximum of
    /// `dI/dt` (paper §II-B).
    pub transient_response_time: Option<Seconds>,
}

impl ChronoMeasurement {
    /// The analytical response `ΔI = I_ss − I_baseline`.
    pub fn delta(&self) -> Amps {
        self.steady_state - self.baseline
    }
}

/// Runs one chronoamperometric measurement of `concentration` on an oxidase
/// sensor through the readout chain.
///
/// Sensor-side blank noise is modeled per the registry: a per-run offset
/// drawn from `N(0, σ_blank·A)` (run-to-run electrode variability — the
/// quantity behind the paper's `σ_b`) plus smaller within-run fluctuation.
///
/// # Errors
///
/// Returns [`InstrumentError`] for invalid protocol timing or AFE rejects.
///
/// # Example
///
/// ```
/// use bios_afe::{ChainConfig, CurrentRange, ReadoutChain};
/// use bios_biochem::{Oxidase, OxidaseSensor};
/// use bios_electrochem::Electrode;
/// use bios_instrument::{run_chrono, ChronoProtocol};
/// use bios_units::Molar;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let sensor = OxidaseSensor::from_registry(Oxidase::Glucose)?;
/// let chain = ReadoutChain::new(ChainConfig::for_range(CurrentRange::oxidase())?);
/// let m = run_chrono(
///     &sensor,
///     &Electrode::paper_gold_we(),
///     &chain,
///     Molar::from_millimolar(2.0),
///     &ChronoProtocol::default(),
///     42,
/// )?;
/// assert!(m.delta().value() > 0.0);
/// # Ok(())
/// # }
/// ```
pub fn run_chrono(
    sensor: &OxidaseSensor,
    electrode: &Electrode,
    chain: &ReadoutChain,
    concentration: Molar,
    protocol: &ChronoProtocol,
    seed: u64,
) -> Result<ChronoMeasurement, InstrumentError> {
    run_chrono_with_interferents(sensor, electrode, chain, concentration, &[], protocol, seed)
}

/// [`run_chrono`] with electroactive interferents present in the sample.
///
/// Interferents oxidize on *both* the enzyme electrode and the blank
/// electrode, so when the chain has CDS enabled the subtraction removes
/// their contribution — the §II-C benefit of the extra WE. Without CDS
/// they bias the reading. (The paper's caveat — the blank "is not helpful
/// in presence of molecules such as Dopamine and Etoposide" — is about
/// *monitoring* a directly-oxidizing target: then the blank sees the
/// analyte itself and CDS subtracts the wanted signal too.)
///
/// Like the analyte, interferents arrive with the injection.
///
/// # Errors
///
/// Returns [`InstrumentError`] for invalid protocol timing or AFE rejects.
pub fn run_chrono_with_interferents(
    sensor: &OxidaseSensor,
    electrode: &Electrode,
    chain: &ReadoutChain,
    concentration: Molar,
    interferents: &[(Interferent, Molar)],
    protocol: &ChronoProtocol,
    seed: u64,
) -> Result<ChronoMeasurement, InstrumentError> {
    protocol.validate()?;
    let area = electrode.geometric_area();
    let program = PotentialProgram::Hold {
        potential: sensor.applied_potential(),
        duration: Seconds::new(protocol.settle.value() + protocol.measure.value()),
    };
    let mut rng = StdRng::seed_from_u64(seed ^ 0xb10_5eed);
    let blank_sd_current = sensor.blank_sd().value() * area.value();
    // Injection-to-injection response variability (matrix effects, membrane
    // state): this is the σ_b behind the paper's eq. 5, so it must appear
    // in the ΔI statistic — it switches on *with* the injection. A constant
    // electrode offset would cancel in ΔI and belongs to the AFE drift.
    let response_offset = gaussian(&mut rng) * blank_sd_current;
    let within_sd = blank_sd_current / 5.0;
    let injection = protocol.settle;
    let interferents_active = interferents.to_vec();
    let interferents_blank = interferents.to_vec();
    let interference = move |list: &[(Interferent, Molar)], e, since: Seconds| -> f64 {
        if since.value() <= 0.0 {
            return 0.0;
        }
        list.iter()
            .map(|(i, c)| i.current_density(e, *c).value() * area.value())
            .sum()
    };
    let interference_blank = interference;
    // `transient_current_density(0, c, since)` split into its
    // per-acquisition part (the two steady states) and its per-sample part
    // (the membrane step response, shared with the offset below).
    let j0 = sensor.steady_current_density(Molar::ZERO).value();
    let j1 = sensor.steady_current_density(concentration).value();
    let samples = chain.acquire(
        &program,
        protocol.dt,
        seed,
        move |t, e| {
            let since = Seconds::new(t.value() - injection.value());
            let f = sensor.membrane().step_response(since);
            let j = j0 + (j1 - j0) * f;
            // The response perturbation develops with the membrane-shaped
            // response itself (a step here would fake an instantaneous
            // dI/dt spike at the injection).
            let offset = response_offset * f;
            Amps::new(
                j * area.value()
                    + offset
                    + interference(&interferents_active, e, since)
                    + gaussian(&mut rng) * within_sd,
            )
        },
        move |t, e| {
            let since = Seconds::new(t.value() - injection.value());
            Amps::new(interference_blank(&interferents_blank, e, since))
        },
    )?;
    let transient: Transient = samples.iter().map(|s| (s.t, s.current)).collect();
    Ok(analyze_transient(transient, injection))
}

/// Extracts the §II-B response metrics from a recorded transient with a
/// known injection time.
pub fn analyze_transient(transient: Transient, injection: Seconds) -> ChronoMeasurement {
    // Baseline: mean over the second half of the settle window.
    let pre: Vec<f64> = transient
        .iter()
        .filter(|(t, _)| t.value() > injection.value() * 0.5 && t.value() < injection.value())
        .map(|(_, i)| i.value())
        .collect();
    let baseline = Amps::new(if pre.is_empty() {
        transient
            .current()
            .first()
            .map(|i| i.value())
            .unwrap_or(0.0)
    } else {
        pre.iter().sum::<f64>() / pre.len() as f64
    });
    let steady_state = transient.tail_mean(0.1).unwrap_or(baseline);
    let delta = steady_state - baseline;

    // t90: first crossing of baseline + 0.9·delta after the injection.
    let threshold = baseline.value() + 0.9 * delta.value();
    let t90 = if delta.value().abs() > 0.0 {
        transient
            .iter()
            .filter(|(t, _)| t.value() >= injection.value())
            .find(|(_, i)| {
                if delta.value() > 0.0 {
                    i.value() >= threshold
                } else {
                    i.value() <= threshold
                }
            })
            .map(|(t, _)| Seconds::new(t.value() - injection.value()))
    } else {
        None
    };

    // Transient response time: argmax of the (coarsely smoothed) slope.
    let times = transient.time();
    let currents = transient.current();
    let mut best: Option<(f64, f64)> = None; // (slope, t)
    for k in 2..transient.len().saturating_sub(2) {
        if times[k].value() < injection.value() {
            continue;
        }
        let dt = times[k + 2].value() - times[k - 2].value();
        if dt <= 0.0 {
            continue;
        }
        let slope = ((currents[k + 2].value() - currents[k - 2].value()) / dt).abs();
        if best.map(|(s, _)| slope > s).unwrap_or(true) {
            best = Some((slope, times[k].value()));
        }
    }
    let transient_response_time = best
        .map(|(_, t)| Seconds::new(t - injection.value()))
        .filter(|_| delta.value() != 0.0);

    ChronoMeasurement {
        transient,
        injection_time: injection,
        baseline,
        steady_state,
        t90,
        transient_response_time,
    }
}

/// Runs a full calibration campaign: `n_blanks` blank measurements plus one
/// measurement per requested concentration, analyzed per the paper's
/// eqs. 5–7.
///
/// # Errors
///
/// Returns [`InstrumentError`] for invalid protocols, too few points, or
/// degenerate data.
pub fn calibrate_chrono(
    sensor: &OxidaseSensor,
    electrode: &Electrode,
    chain: &ReadoutChain,
    concentrations: &[Molar],
    n_blanks: usize,
    protocol: &ChronoProtocol,
    seed: u64,
) -> Result<CalibrationOutcome, InstrumentError> {
    let mut blanks = Vec::with_capacity(n_blanks);
    for k in 0..n_blanks {
        let m = run_chrono(
            sensor,
            electrode,
            chain,
            Molar::ZERO,
            protocol,
            seed.wrapping_add(k as u64),
        )?;
        blanks.push(m.delta().value());
    }
    let mut points = Vec::with_capacity(concentrations.len());
    for (k, &c) in concentrations.iter().enumerate() {
        let m = run_chrono(
            sensor,
            electrode,
            chain,
            c,
            protocol,
            seed.wrapping_add(1000 + k as u64),
        )?;
        points.push(CalibrationPoint {
            concentration: c,
            response: m.delta().value(),
        });
    }
    analyze_calibration(&blanks, &points, 0.10)
}

fn gaussian(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * core::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bios_afe::{ChainConfig, CurrentRange};
    use bios_biochem::Oxidase;

    fn setup() -> (OxidaseSensor, Electrode, ReadoutChain) {
        (
            OxidaseSensor::from_registry(Oxidase::Glucose).expect("registry"),
            Electrode::paper_gold_we(),
            ReadoutChain::new(ChainConfig::for_range(CurrentRange::oxidase()).expect("config")),
        )
    }

    #[test]
    fn protocol_validation() {
        assert!(ChronoProtocol::default().validate().is_ok());
        let bad = ChronoProtocol {
            settle: Seconds::ZERO,
            ..Default::default()
        };
        assert!(bad.validate().is_err());
        let undersampled = ChronoProtocol {
            dt: Seconds::new(10.0),
            ..Default::default()
        };
        assert!(undersampled.validate().is_err());
    }

    #[test]
    fn glucose_injection_reproduces_fig3_timing() {
        let (sensor, electrode, chain) = setup();
        let m = run_chrono(
            &sensor,
            &electrode,
            &chain,
            Molar::from_millimolar(2.0),
            &ChronoProtocol::default(),
            1,
        )
        .expect("measurement");
        assert!(m.delta().value() > 0.0, "anodic step expected");
        let t90 = m.t90.expect("response settled").value();
        // Paper Fig. 3: ≈30 s to steady state.
        assert!((t90 - 30.0).abs() < 6.0, "t90 = {t90}");
        // The transient (max-slope) time is earlier than t90.
        let tr = m.transient_response_time.expect("slope found").value();
        assert!(tr < t90, "tr = {tr}, t90 = {t90}");
    }

    #[test]
    fn response_scales_with_concentration() {
        // Single measurements carry the realistic σ_b ≈ 12 nA blank noise
        // (that's what makes the LOD 575 µM), so average replicates.
        let (sensor, electrode, chain) = setup();
        let mean_delta = |c_mm: f64, base_seed: u64| {
            let runs = 6;
            (0..runs)
                .map(|k| {
                    run_chrono(
                        &sensor,
                        &electrode,
                        &chain,
                        Molar::from_millimolar(c_mm),
                        &ChronoProtocol::default(),
                        base_seed + k,
                    )
                    .expect("measurement")
                    .delta()
                    .value()
                })
                .sum::<f64>()
                / runs as f64
        };
        let d1 = mean_delta(1.0, 100);
        let d2 = mean_delta(2.0, 200);
        assert!(
            (d2 / d1 - 2.0).abs() < 0.35,
            "expected ~2x response: {d1} vs {d2}"
        );
    }

    #[test]
    fn calibration_recovers_table_iii_sensitivity() {
        let (sensor, electrode, chain) = setup();
        let concs: Vec<Molar> = [0.5, 1.0, 1.5, 2.0, 3.0, 4.0]
            .iter()
            .map(|c| Molar::from_millimolar(*c))
            .collect();
        let out = calibrate_chrono(
            &sensor,
            &electrode,
            &chain,
            &concs,
            6,
            &ChronoProtocol::default(),
            77,
        )
        .expect("calibration");
        // Sensitivity per area: slope / area ≈ 27.7 µA/(mM·cm²) within the
        // MM attenuation and noise.
        let area = electrode.geometric_area().value();
        let s_ua_mm_cm2 = out.fit.slope / area * 1e3 * 1e6 / 1e6; // A/M/cm² → µA/mM/cm² is ×1e3... compute directly:
        let s_si = out.fit.slope / area; // A/(M·cm²)
        let s_report = s_si * 1e3; // µA/(mM·cm²)
                                   // One-shot responses near the LOD carry ~±20% scatter; the bench
                                   // harness averages replicates, here we just need the right scale.
        assert!(
            (s_report - 27.7).abs() / 27.7 < 0.30,
            "sensitivity {s_report} µA/(mM·cm²)"
        );
        let _ = s_ua_mm_cm2;
        // LOD lands in the ballpark of the paper's 575 µM (within a factor
        // of ~2.5 — it is a statistical estimate from 6 blanks).
        let lod_um = out.lod.as_micromolar();
        assert!(
            lod_um > 150.0 && lod_um < 1600.0,
            "LOD {lod_um} µM vs paper 575 µM"
        );
        // Realistic blank noise near the LOD limits single-shot R².
        assert!(out.fit.r2 > 0.90, "r2 = {}", out.fit.r2);
    }

    #[test]
    fn blank_measurement_has_no_t90() {
        let (sensor, electrode, chain) = setup();
        let m = run_chrono(
            &sensor,
            &electrode,
            &chain,
            Molar::ZERO,
            &ChronoProtocol::default(),
            5,
        )
        .expect("measurement");
        // Any apparent delta is pure noise, far below a real response.
        let real = run_chrono(
            &sensor,
            &electrode,
            &chain,
            Molar::from_millimolar(2.0),
            &ChronoProtocol::default(),
            5,
        )
        .expect("measurement");
        assert!(m.delta().value().abs() < real.delta().value() / 4.0);
    }

    #[test]
    fn ascorbate_biases_reading_unless_cds_removes_it() {
        use bios_afe::{ChainConfig, CorrelatedDoubleSampler, CurrentRange, MatchingQuality};
        use bios_biochem::Analyte;

        let sensor = OxidaseSensor::from_registry(Oxidase::Glucose).expect("registry");
        let electrode = Electrode::paper_gold_we();
        let asc = Interferent::of(Analyte::Ascorbate).expect("registry");
        let interferents = [(asc, Molar::from_micromolar(100.0))];
        let protocol = ChronoProtocol::default();
        let c = Molar::from_millimolar(2.0);

        let plain_cfg = ChainConfig::for_range(CurrentRange::oxidase()).expect("range");
        let plain = ReadoutChain::new(plain_cfg);
        let with_cds = ReadoutChain::new(
            plain_cfg.with_cds(CorrelatedDoubleSampler::new(MatchingQuality::Monolithic)),
        );

        let clean = run_chrono(&sensor, &electrode, &plain, c, &protocol, 4)
            .expect("measurement")
            .delta()
            .value();
        let biased = run_chrono_with_interferents(
            &sensor,
            &electrode,
            &plain,
            c,
            &interferents,
            &protocol,
            4,
        )
        .expect("measurement")
        .delta()
        .value();
        let corrected = run_chrono_with_interferents(
            &sensor,
            &electrode,
            &with_cds,
            c,
            &interferents,
            &protocol,
            4,
        )
        .expect("measurement")
        .delta()
        .value();

        // 100 µM ascorbate at 8 µA/(mM·cm²) on 0.0023 cm² ≈ 1.8 nA of bias
        // — small against the ~120 nA glucose signal but systematic.
        let expected_bias = 8.0e-3 * 100e-6 * electrode.geometric_area().value();
        assert!(
            (biased - clean - expected_bias).abs() < 0.5 * expected_bias,
            "bias {} vs expected {expected_bias}",
            biased - clean
        );
        // CDS cancels it (same seed → same noise; only the blank path differs).
        assert!(
            (corrected - clean).abs() < 0.2 * expected_bias,
            "cds residual {}",
            corrected - clean
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let (sensor, electrode, chain) = setup();
        let run = |seed| {
            run_chrono(
                &sensor,
                &electrode,
                &chain,
                Molar::from_millimolar(1.0),
                &ChronoProtocol::default(),
                seed,
            )
            .expect("measurement")
        };
        assert_eq!(run(9).transient, run(9).transient);
    }
}
