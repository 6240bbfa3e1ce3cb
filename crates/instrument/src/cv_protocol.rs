//! Cyclic voltammetry protocol: the cytochrome P450 readout of paper
//! Table II, with peak detection and signature matching.

use crate::error::InstrumentError;
use crate::peaks::{cathodic_segment, detect_cathodic_peaks, Peak, PeakOptions};
use crate::signature::{match_signature, ExpectedPeak, SignatureMatch, DEFAULT_WINDOW};
use bios_afe::ReadoutChain;
use bios_biochem::{Analyte, CypSensor};
use bios_electrochem::{Electrode, PotentialProgram, Voltammogram};
use bios_units::{Amps, Molar, Seconds, Volts, VoltsPerSecond, T_ROOM};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration of a CV measurement.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct CvProtocol {
    /// Scan rate — the paper's guidance is ≈20 mV/s (§II-C).
    pub scan_rate: VoltsPerSecond,
    /// Peak detection options are derived from this floor.
    pub min_peak_height: Amps,
}

impl CvProtocol {
    /// Validates the protocol.
    ///
    /// # Errors
    ///
    /// Returns [`InstrumentError::InvalidParameter`] for a non-positive
    /// scan rate.
    pub fn validate(&self) -> Result<(), InstrumentError> {
        if self.scan_rate.value() <= 0.0 {
            return Err(InstrumentError::invalid("scan_rate", "must be positive"));
        }
        Ok(())
    }
}

impl Default for CvProtocol {
    fn default() -> Self {
        Self {
            scan_rate: VoltsPerSecond::from_millivolts_per_second(20.0),
            min_peak_height: Amps::from_picoamps(50.0),
        }
    }
}

/// The analyzed result of one CV measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct CvMeasurement {
    /// The recorded voltammogram (chain output).
    pub voltammogram: Voltammogram,
    /// Detected cathodic peaks, most prominent first.
    pub peaks: Vec<Peak>,
    /// Signature matches against the sensor's substrate table.
    pub matches: Vec<SignatureMatch>,
}

impl CvMeasurement {
    /// The matched peak height for an analyte, if identified.
    pub fn peak_height(&self, analyte: Analyte) -> Option<Amps> {
        self.matches
            .iter()
            .find(|m| m.analyte == analyte)
            .and_then(|m| m.peak.map(|p| p.height))
    }
}

/// Runs one CV measurement of a drug panel on a CYP sensor through the
/// readout chain.
///
/// Sensor-side blank noise is modeled per substrate: each catalytic wave's
/// amplitude is perturbed by a per-run draw from `N(0, σ_blank·A)`, which is
/// exactly the run-to-run peak-height variability behind the Table III LODs.
///
/// # Errors
///
/// Returns [`InstrumentError`] for invalid protocols or AFE rejects.
///
/// # Example
///
/// ```
/// use bios_afe::{ChainConfig, CurrentRange, ReadoutChain};
/// use bios_biochem::{Analyte, CypIsoform, CypSensor};
/// use bios_electrochem::Electrode;
/// use bios_instrument::{run_cv, CvProtocol};
/// use bios_units::Molar;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let sensor = CypSensor::from_registry(CypIsoform::Cyp2B4)?;
/// // The paper's CYP range class is for ≈1 cm² electrodes; scale it to the
/// // 0.23 mm² biointerface WE.
/// let range = CurrentRange::cytochrome().scaled(0.0023);
/// let chain = ReadoutChain::new(ChainConfig::for_range(range)?);
/// let m = run_cv(
///     &sensor,
///     &Electrode::paper_gold_we(),
///     &chain,
///     &[(Analyte::Benzphetamine, Molar::from_millimolar(1.0))],
///     &CvProtocol::default(),
///     42,
/// )?;
/// assert!(m.peak_height(Analyte::Benzphetamine).is_some());
/// # Ok(())
/// # }
/// ```
pub fn run_cv(
    sensor: &CypSensor,
    electrode: &Electrode,
    chain: &ReadoutChain,
    concentrations: &[(Analyte, Molar)],
    protocol: &CvProtocol,
    seed: u64,
) -> Result<CvMeasurement, InstrumentError> {
    protocol.validate()?;
    let area = electrode.geometric_area();
    let (start, vertex) = sensor.recommended_window();
    let program = PotentialProgram::cyclic_single(start, vertex, protocol.scan_rate);
    let half = program.duration().value() / 2.0;

    // Per-run amplitude perturbations, one per substrate.
    let mut rng = StdRng::seed_from_u64(seed ^ 0xcc_5eed);
    let mut perturbations: Vec<(Analyte, Volts, f64)> = Vec::new();
    for a in sensor.substrates() {
        let sd = sensor
            .blank_sd(a)
            .ok_or_else(|| InstrumentError::invalid("substrate", format!("{a} not registered")))?
            .value()
            * area.value();
        let e = sensor
            .nominal_peak_potential(a)
            .ok_or_else(|| InstrumentError::invalid("substrate", format!("{a} not registered")))?;
        perturbations.push((a, e, gaussian(&mut rng) * sd));
    }
    let sweep = sensor.sweep(protocol.scan_rate, concentrations, T_ROOM);
    let rt = bios_units::GAS_CONSTANT * T_ROOM.value();
    let samples = chain.acquire(
        &program,
        Seconds::new(program.suggested_dt().value().max(0.02)),
        seed,
        move |t, e| {
            let direction_up = t.value() >= half;
            let j = sweep.current_density(e, direction_up);
            let mut i = j.value() * area.value();
            if !direction_up {
                // Peak-amplitude noise: same line shape as the catalytic wave.
                for (_, e_peak, n) in &perturbations {
                    let xi = (2.0 * bios_units::FARADAY * (e.value() - e_peak.value()) / rt)
                        .clamp(-200.0, 200.0);
                    let shape = 4.0 * xi.exp() / (1.0 + xi.exp()).powi(2);
                    i -= n * shape;
                }
            }
            Amps::new(i)
        },
        |_t, _e| Amps::ZERO,
    )?;

    let voltammogram: Voltammogram = samples
        .iter()
        .map(|s| (s.t, s.applied, s.current))
        .collect();
    let segment = cathodic_segment(&voltammogram);
    let peaks = detect_cathodic_peaks(
        &segment,
        PeakOptions {
            min_height: protocol.min_peak_height,
            smoothing: 2,
        },
    )?;
    let mut expected: Vec<ExpectedPeak> = Vec::new();
    for a in sensor.substrates() {
        let potential = sensor
            .nominal_peak_potential(a)
            .ok_or_else(|| InstrumentError::invalid("substrate", format!("{a} not registered")))?;
        expected.push(ExpectedPeak {
            analyte: a,
            potential,
        });
    }
    let matches = match_signature(&peaks, &expected, DEFAULT_WINDOW);
    Ok(CvMeasurement {
        voltammogram,
        peaks,
        matches,
    })
}

/// Linear readout of the baseline-corrected cathodic current at an expected
/// peak potential: apex current against the mean of two flanking samples
/// ±100 mV away. Unlike peak detection this is signed and linear in the
/// wave amplitude, which makes it usable for blank replicates (where no
/// peak exists) — the response statistic for LOD campaigns.
pub fn peak_readout(segment: &[(Volts, Amps)], expected: Volts) -> Option<Amps> {
    let at = |target: f64| -> Option<f64> {
        segment
            .iter()
            .min_by(|a, b| {
                (a.0.value() - target)
                    .abs()
                    .total_cmp(&(b.0.value() - target).abs())
            })
            .map(|(_, i)| i.value())
    };
    let apex = at(expected.value())?;
    let left = at(expected.value() - 0.1)?;
    let right = at(expected.value() + 0.1)?;
    // Cathodic peaks are negative; report the positive height.
    Some(Amps::new((left + right) / 2.0 - apex))
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
    use bios_biochem::CypIsoform;

    fn setup(iso: CypIsoform) -> (CypSensor, Electrode, ReadoutChain) {
        let electrode = Electrode::paper_gold_we();
        // Scale the paper's CYP range class (specified for ≈1 cm²
        // electrodes) to the 0.23 mm² WE area.
        let range = CurrentRange::cytochrome().scaled(electrode.geometric_area().value());
        (
            CypSensor::from_registry(iso).expect("registry"),
            electrode,
            ReadoutChain::new(ChainConfig::for_range(range).expect("config")),
        )
    }

    #[test]
    fn benzphetamine_peak_found_at_table_ii_potential() {
        let (sensor, electrode, chain) = setup(CypIsoform::Cyp2B4);
        let m = run_cv(
            &sensor,
            &electrode,
            &chain,
            &[(Analyte::Benzphetamine, Molar::from_millimolar(1.0))],
            &CvProtocol::default(),
            1,
        )
        .expect("measurement");
        let hit = m
            .matches
            .iter()
            .find(|x| x.analyte == Analyte::Benzphetamine)
            .expect("in table");
        assert!(hit.identified(), "peaks: {:?}", m.peaks);
        let err = hit.position_error.expect("matched").abs().as_millivolts();
        assert!(err < 20.0, "position error {err} mV");
    }

    #[test]
    fn two_drug_panel_on_one_electrode() {
        // The paper's §III claim: CYP2B4 detects benzphetamine and
        // aminopyrine at the same electrode via two peaks.
        let (sensor, electrode, chain) = setup(CypIsoform::Cyp2B4);
        let m = run_cv(
            &sensor,
            &electrode,
            &chain,
            &[
                (Analyte::Benzphetamine, Molar::from_millimolar(1.0)),
                (Analyte::Aminopyrine, Molar::from_millimolar(4.0)),
            ],
            &CvProtocol::default(),
            2,
        )
        .expect("measurement");
        assert!(m.peak_height(Analyte::Benzphetamine).is_some());
        assert!(m.peak_height(Analyte::Aminopyrine).is_some());
        // Aminopyrine's sensitivity is 10× higher: its peak dominates.
        assert!(
            m.peak_height(Analyte::Aminopyrine)
                .expect("matched")
                .value()
                > m.peak_height(Analyte::Benzphetamine)
                    .expect("matched")
                    .value()
        );
    }

    #[test]
    fn absent_drug_gives_no_peak() {
        let (sensor, electrode, chain) = setup(CypIsoform::Cyp2B4);
        let m = run_cv(&sensor, &electrode, &chain, &[], &CvProtocol::default(), 3)
            .expect("measurement");
        // A blank can produce sub-threshold noise bumps; anything matched
        // must stay below the analyte's eq. 5 detection threshold (3σ_b·A).
        for hit in &m.matches {
            if let Some(p) = hit.peak {
                let threshold = 3.0
                    * sensor.blank_sd(hit.analyte).expect("registered").value()
                    * electrode.geometric_area().value();
                assert!(
                    p.height.value() < threshold,
                    "blank produced a {} peak of {} above the LOD threshold",
                    hit.analyte,
                    p.height
                );
            }
        }
    }

    #[test]
    fn peak_height_tracks_concentration() {
        let (sensor, electrode, chain) = setup(CypIsoform::Cyp2B4);
        let h = |c_mm: f64, seed| {
            run_cv(
                &sensor,
                &electrode,
                &chain,
                &[(Analyte::Aminopyrine, Molar::from_millimolar(c_mm))],
                &CvProtocol::default(),
                seed,
            )
            .expect("measurement")
            .peak_height(Analyte::Aminopyrine)
            .map(|a| a.value())
            .unwrap_or(0.0)
        };
        let h2 = h(2.0, 4);
        let h6 = h(6.0, 5);
        assert!(h6 > 2.0 * h2, "h(6 mM) = {h6}, h(2 mM) = {h2}");
    }

    #[test]
    fn peak_readout_is_linear_in_amplitude() {
        // Synthetic n=2 wave, amplitude a → readout ≈ a.
        let wave = |a: f64| -> Vec<(Volts, Amps)> {
            (0..400)
                .map(|k| {
                    let e = -0.7 + 0.002 * k as f64;
                    let xi = 2.0 * bios_units::FARADAY * (e + 0.4)
                        / (bios_units::GAS_CONSTANT * T_ROOM.value());
                    let shape = 4.0 * xi.clamp(-60.0, 60.0).exp()
                        / (1.0 + xi.clamp(-60.0, 60.0).exp()).powi(2);
                    (Volts::new(e), Amps::new(-a * shape))
                })
                .collect()
        };
        let r1 = peak_readout(&wave(1e-9), Volts::new(-0.4)).expect("readout");
        let r3 = peak_readout(&wave(3e-9), Volts::new(-0.4)).expect("readout");
        assert!((r3.value() / r1.value() - 3.0).abs() < 0.01);
        assert!((r1.as_nanoamps() - 1.0).abs() < 0.05);
    }
}
