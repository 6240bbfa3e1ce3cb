//! Chronoamperometry protocol: the oxidase readout of paper Table I and
//! the Fig. 3 time-response experiment.

use crate::error::InstrumentError;
use bios_afe::{AcquisitionPlan, ReadoutChain};
use bios_biochem::{Interferent, OxidaseSensor};
use bios_electrochem::{Electrode, PotentialProgram, Transient};
use bios_units::{Amps, Molar, Seconds, SquareCentimeters};
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
    plan_chrono(sensor, electrode, chain, protocol)?.run(chain, concentration, interferents, seed)
}

/// The seed- and sample-independent half of a chronoamperometric
/// measurement on one sensor and electrode under one protocol: the chain's
/// [`AcquisitionPlan`] for the held potential and the membrane step
/// response at every sample. Built by [`plan_chrono`]; every
/// [`ChronoPlan::run`] reads it.
#[derive(Debug, Clone, PartialEq)]
pub struct ChronoPlan {
    sensor: OxidaseSensor,
    area: SquareCentimeters,
    protocol: ChronoProtocol,
    acquisition: AcquisitionPlan,
    step_response: Vec<f64>,
}

/// Plans [`run_chrono_with_interferents`] of `sensor` on `electrode`
/// through `chain`'s voltage generator and potentiostat under `protocol`.
///
/// # Errors
///
/// Returns [`InstrumentError`] for invalid protocol timing or AFE rejects.
// advdiag::cold(chrono planning: runs once per sensor, chain and protocol, before
// any sample is taken)
pub fn plan_chrono(
    sensor: &OxidaseSensor,
    electrode: &Electrode,
    chain: &ReadoutChain,
    protocol: &ChronoProtocol,
) -> Result<ChronoPlan, InstrumentError> {
    protocol.validate()?;
    let program = PotentialProgram::Hold {
        potential: sensor.applied_potential(),
        duration: Seconds::new(protocol.settle.value() + protocol.measure.value()),
    };
    let acquisition = chain.acquisition_plan(&program, protocol.dt)?;
    let injection = protocol.settle;
    let step_response = sensor.membrane().step_response_table(
        acquisition
            .times()
            .iter()
            .map(|t| Seconds::new(t.value() - injection.value())),
    );
    Ok(ChronoPlan {
        sensor: sensor.clone(),
        area: electrode.geometric_area(),
        protocol: *protocol,
        acquisition,
        step_response,
    })
}

impl ChronoPlan {
    /// Runs the planned measurement of `concentration` with `interferents`
    /// through `chain`: the same bits as [`run_chrono_with_interferents`]
    /// with the plan's sensor, electrode and protocol.
    ///
    /// # Errors
    ///
    /// Returns [`InstrumentError`] for AFE rejects, including a `chain`
    /// whose voltage generator or potentiostat differs from the one the
    /// plan was built on.
    pub fn run(
        &self,
        chain: &ReadoutChain,
        concentration: Molar,
        interferents: &[(Interferent, Molar)],
        seed: u64,
    ) -> Result<ChronoMeasurement, InstrumentError> {
        let sensor = &self.sensor;
        let area = self.area;
        let mut rng = StdRng::seed_from_u64(seed ^ 0xb10_5eed);
        let blank_sd_current = sensor.blank_sd().value() * area.value();
        // Injection-to-injection response variability (matrix effects,
        // membrane state): this is the σ_b behind the paper's eq. 5, so it
        // must appear in the ΔI statistic — it switches on *with* the
        // injection. A constant electrode offset would cancel in ΔI and
        // belongs to the AFE drift.
        let response_offset = gaussian(&mut rng) * blank_sd_current;
        let within_sd = blank_sd_current / 5.0;
        let injection = self.protocol.settle;
        let interference = move |e, since: Seconds| -> f64 {
            if since.value() <= 0.0 {
                return 0.0;
            }
            interferents
                .iter()
                .map(|(i, c)| i.current_density(e, *c).value() * area.value())
                .sum()
        };
        // `transient_current_density(0, c, since)` split into its
        // per-acquisition part (the two steady states) and its per-sample
        // part (the planned membrane step response, shared with the offset
        // below).
        let j0 = sensor.steady_current_density(Molar::ZERO).value();
        let j1 = sensor.steady_current_density(concentration).value();
        let step_response = &self.step_response;
        let samples = chain.acquire_planned(
            &self.acquisition,
            self.protocol.dt,
            seed,
            move |k, t, e| {
                let since = Seconds::new(t.value() - injection.value());
                let f = step_response[k];
                let j = j0 + (j1 - j0) * f;
                // The response perturbation develops with the membrane-shaped
                // response itself (a step here would fake an instantaneous
                // dI/dt spike at the injection).
                let offset = response_offset * f;
                Amps::new(
                    j * area.value()
                        + offset
                        + interference(e, since)
                        + gaussian(&mut rng) * within_sd,
                )
            },
            move |_, t, e| {
                let since = Seconds::new(t.value() - injection.value());
                Amps::new(interference(e, since))
            },
        )?;
        let transient: Transient = samples.iter().map(|s| (s.t, s.current)).collect();
        Ok(analyze_transient(transient, injection))
    }
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

    #[test]
    fn one_plan_serves_every_seed_concentration_and_faulted_twin() {
        use bios_afe::{Fault, FaultKind};
        let (sensor, electrode, chain) = setup();
        let protocol = ChronoProtocol::default();
        let plan = plan_chrono(&sensor, &electrode, &chain, &protocol).expect("plan");
        let twin = chain.clone().with_faults(
            vec![Fault::new(FaultKind::Fouling, Seconds::new(20.0), 0.6).expect("fault")],
            5,
        );
        let asc = Interferent::of(bios_biochem::Analyte::Ascorbate).expect("registry");
        let interferents = [(asc, Molar::from_micromolar(80.0))];
        for c in [Molar::ZERO, Molar::from_millimolar(1.5)] {
            for seed in [3, 4] {
                for chain in [&chain, &twin] {
                    let fresh = run_chrono_with_interferents(
                        &sensor,
                        &electrode,
                        chain,
                        c,
                        &interferents,
                        &protocol,
                        seed,
                    )
                    .expect("fresh");
                    let planned = plan.run(chain, c, &interferents, seed).expect("planned");
                    assert_eq!(planned, fresh);
                }
            }
        }
        // A chain with another potentiostat is refused, not mis-simulated.
        let mut other = *chain.config();
        other.potentiostat =
            bios_afe::Potentiostat::new(1e3, bios_units::Hertz::from_megahertz(1.0))
                .expect("pstat");
        let err = plan
            .run(&ReadoutChain::new(other), Molar::ZERO, &[], 1)
            .expect_err("mismatched chain");
        assert!(matches!(
            err,
            InstrumentError::Afe(bios_afe::AfeError::PlanMismatch { .. })
        ));
    }
}
