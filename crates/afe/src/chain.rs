//! The full acquisition chain of Fig. 2: voltage generator → potentiostat →
//! cell → transimpedance amplifier → conditioning (chopper/CDS) → ADC.

use crate::adc::Adc;
use crate::cds::CorrelatedDoubleSampler;
use crate::current_range::CurrentRange;
use crate::error::AfeError;
use crate::fault::{Fault, FaultRuntime};
use crate::noise::{NoiseConfig, NoiseSource};
use crate::potentiostat::Potentiostat;
use crate::tia::Tia;
use crate::vgen::VoltageGenerator;
use bios_electrochem::PotentialProgram;
use bios_units::{Amps, Hertz, Ohms, Seconds, Volts};

/// Flicker suppression a practical chopper achieves.
pub const CHOPPER_SUPPRESSION: f64 = 50.0;

/// Static configuration of a readout chain.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChainConfig {
    /// The current-to-voltage stage.
    pub tia: Tia,
    /// The digitizer.
    pub adc: Adc,
    /// Input-referred noise (amplifier white + flicker, electrode drift).
    pub noise: NoiseConfig,
    /// Whether chopper stabilization is enabled (suppresses amplifier
    /// flicker ×[`CHOPPER_SUPPRESSION`], costs √2 white noise).
    pub chopper: bool,
    /// Correlated double sampling against a blank electrode, if any.
    pub cds: Option<CorrelatedDoubleSampler>,
    /// The waveform DAC.
    pub vgen: VoltageGenerator,
    /// The cell-potential control loop.
    pub potentiostat: Potentiostat,
}

impl ChainConfig {
    /// A chain sized for the given current readout class: the TIA feedback
    /// is chosen so the class's full scale spans the ADC range, and the ADC
    /// has one bit of margin over the class's requirement.
    ///
    /// # Errors
    ///
    /// Propagates block construction errors (cannot occur for the paper's
    /// two classes).
    pub fn for_range(range: CurrentRange) -> Result<Self, AfeError> {
        let rail = Volts::new(1.65);
        let feedback = Ohms::new(rail.value() / range.full_scale().value());
        let tia = Tia::new(feedback, Hertz::from_kilohertz(1.0), rail)?.inverted();
        let adc = Adc::new(
            (range.required_bits() + 1).clamp(8, 16),
            rail,
            Hertz::new(100.0),
        )?;
        Ok(Self {
            tia,
            adc,
            noise: NoiseConfig::typical_cmos(),
            chopper: false,
            cds: None,
            vgen: VoltageGenerator::paper_default()?,
            potentiostat: Potentiostat::typical_cmos()?,
        })
    }

    /// Enables the chopper.
    pub fn with_chopper(mut self) -> Self {
        self.chopper = true;
        self
    }

    /// Enables CDS with the given sampler.
    pub fn with_cds(mut self, cds: CorrelatedDoubleSampler) -> Self {
        self.cds = Some(cds);
        self
    }

    /// Overrides the noise model.
    pub fn with_noise(mut self, noise: NoiseConfig) -> Self {
        self.noise = noise;
        self
    }

    /// The input current that exactly spans the chain: the TIA's
    /// full-scale input. Fault models and QC gates use this as the
    /// "rail" reference for saturation and spike amplitudes.
    pub fn full_scale_current(&self) -> Amps {
        self.tia.full_scale_input()
    }
}

/// One digitized sample out of the chain.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Sample {
    /// Sample time.
    pub t: Seconds,
    /// Programmed setpoint potential.
    pub setpoint: Volts,
    /// Potential actually applied to the cell.
    pub applied: Volts,
    /// Raw ADC code.
    pub code: i32,
    /// Code converted back to volts.
    pub volts: Volts,
    /// Input current estimate (volts ÷ TIA gain) — what the instrument
    /// layer analyzes.
    pub current: Amps,
}

/// A runnable acquisition chain.
///
/// # Example
///
/// ```
/// use bios_afe::{ChainConfig, CurrentRange, ReadoutChain};
/// use bios_electrochem::PotentialProgram;
/// use bios_units::{Amps, Seconds, Volts};
///
/// # fn main() -> Result<(), bios_afe::AfeError> {
/// let chain = ReadoutChain::new(ChainConfig::for_range(CurrentRange::oxidase())?);
/// let program = PotentialProgram::Hold {
///     potential: Volts::from_millivolts(650.0),
///     duration: Seconds::new(2.0),
/// };
/// // A fake 100 nA cell.
/// let samples = chain.acquire(&program, Seconds::from_millis(100.0), 42,
///     |_t, _e| Amps::from_nanoamps(100.0), |_t, _e| Amps::ZERO)?;
/// assert_eq!(samples.len(), 21);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ReadoutChain {
    config: ChainConfig,
    faults: Vec<Fault>,
    fault_seed: u64,
}

impl ReadoutChain {
    /// Wraps a configuration.
    pub fn new(config: ChainConfig) -> Self {
        Self {
            config,
            faults: Vec::new(),
            fault_seed: 0,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &ChainConfig {
        &self.config
    }

    /// Injects faults into every subsequent acquisition. `fault_seed`
    /// drives the faults' per-sample randomness (spikes, dropouts) —
    /// typically [`FaultPlan::chain_seed`](crate::FaultPlan::chain_seed)
    /// — independently of the acquisition noise seed.
    pub fn with_faults(mut self, faults: Vec<Fault>, fault_seed: u64) -> Self {
        self.faults = faults;
        self.fault_seed = fault_seed;
        self
    }

    /// The faults this chain injects.
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// Measures the chain's own input-referred baseline noise: a dry
    /// acquisition with grounded inputs held at 0 V over `window`,
    /// returning the standard deviation of the recorded current.
    ///
    /// This is the commissioning number a QC gate compares live baselines
    /// against. Injected faults are exercised by the dry run too, so a
    /// faulted chain's self-noise diverges from its fault-free twin's —
    /// signal-path attenuation (open electrode, stale mux) shows up as an
    /// implausibly quiet channel. Deterministic in `seed`.
    ///
    /// # Errors
    ///
    /// Returns [`AfeError`] if `dt` is not positive and finite, or `window`
    /// is non-positive.
    pub fn baseline_noise_reference(
        &self,
        dt: Seconds,
        window: Seconds,
        seed: u64,
    ) -> Result<Amps, AfeError> {
        if window.value() <= 0.0 {
            return Err(AfeError::invalid("window", "must be positive"));
        }
        let program = PotentialProgram::Hold {
            potential: Volts::ZERO,
            duration: window,
        };
        let samples = self.acquire(&program, dt, seed, |_t, _e| Amps::ZERO, |_t, _e| Amps::ZERO)?;
        let n = samples.len() as f64;
        let mean = samples.iter().map(|s| s.current.value()).sum::<f64>() / n;
        let var = samples
            .iter()
            .map(|s| (s.current.value() - mean).powi(2))
            .sum::<f64>()
            / n;
        Ok(Amps::new(var.sqrt()))
    }

    /// Built-in self-test: drives the chain with a known synthetic input
    /// current (half of full scale, the dummy-cell trick) and returns the
    /// mean recovered current over the hold, skipping the first quarter
    /// for settling.
    ///
    /// Comparing a live chain's response against its commissioning value
    /// exposes gain errors the noise floor cannot — signal-path
    /// attenuation hides below one ADC code at quiescent input, but not
    /// under a half-scale test signal. Injected faults are exercised by
    /// the self-test. Deterministic in `seed`.
    ///
    /// # Errors
    ///
    /// Returns [`AfeError`] if `dt` is not positive and finite, or `window`
    /// is non-positive.
    pub fn self_test_response(
        &self,
        dt: Seconds,
        window: Seconds,
        seed: u64,
    ) -> Result<Amps, AfeError> {
        if window.value() <= 0.0 {
            return Err(AfeError::invalid("window", "must be positive"));
        }
        let program = PotentialProgram::Hold {
            potential: Volts::ZERO,
            duration: window,
        };
        let test = Amps::new(0.5 * self.config.full_scale_current().value());
        let samples = self.acquire(&program, dt, seed, |_t, _e| test, |_t, _e| Amps::ZERO)?;
        let skip = samples.len() / 4;
        let tail = &samples[skip..];
        let mean = tail.iter().map(|s| s.current.value()).sum::<f64>() / tail.len() as f64;
        Ok(Amps::new(mean))
    }

    /// Runs the chain over `program`, sampling every `dt`.
    ///
    /// `active` maps `(t, applied potential)` to the active working
    /// electrode's current; `blank` to the enzyme-free blank electrode's
    /// (only consulted when CDS is enabled — pass a closure returning
    /// [`Amps::ZERO`] otherwise).
    ///
    /// # Errors
    ///
    /// Returns [`AfeError`] if the program violates the voltage generator's
    /// range or slew limits, or `dt` is not positive and finite.
    pub fn acquire<A, B>(
        &self,
        program: &PotentialProgram,
        dt: Seconds,
        seed: u64,
        mut active: A,
        mut blank: B,
    ) -> Result<Vec<Sample>, AfeError>
    where
        A: FnMut(Seconds, Volts) -> Amps,
        B: FnMut(Seconds, Volts) -> Amps,
    {
        // Amplifier-side noise (white + flicker): chopped if enabled.
        let amp_cfg = NoiseConfig {
            drift_per_sqrt_s: 0.0,
            ..self.config.noise
        };
        let amp_cfg = if self.config.chopper {
            amp_cfg.chopped(CHOPPER_SUPPRESSION)
        } else {
            amp_cfg
        };
        // Electrode-side drift: shared between active and blank electrodes,
        // untouched by the chopper, attenuated by CDS matching.
        let drift_cfg = NoiseConfig {
            white_density: 0.0,
            flicker_density_1hz: 0.0,
            drift_per_sqrt_s: self.config.noise.drift_per_sqrt_s,
        };
        // Every stream binds (and validates) `dt` once, here.
        let mut amp_active = NoiseSource::new(amp_cfg, dt, seed)?;
        let mut amp_blank = NoiseSource::new(amp_cfg, dt, seed.wrapping_add(1))?;
        let mut drift = NoiseSource::new(drift_cfg, dt, seed.wrapping_add(2))?;

        let mut pstat = self
            .config
            .potentiostat
            .streamer(program.potential_at(Seconds::ZERO), dt)?;
        let mut tia = self.config.tia.streamer(dt)?;
        self.config.vgen.check(program)?;

        // Fault injection sits between the ideal blocks: currents are
        // perturbed before the TIA, compliance collapse clips its output,
        // and code faults hit after quantization. A no-op runtime (all
        // severities zero) is skipped entirely so fault-free acquisitions
        // stay bit-identical to the pre-fault-model chain.
        let mut fault_rt = FaultRuntime::new(
            &self.faults,
            self.fault_seed,
            self.config.full_scale_current(),
        );
        let inject = !fault_rt.is_noop();
        let max_code = (1i32 << (self.config.adc.bits() - 1)) - 1;

        // Loop invariants: a Hold program's DAC setpoint is the same at
        // every sample (realize = quantize(potential), independent of t),
        // and neither the CDS residual fraction nor the TIA gain changes
        // mid-run.
        let hold_setpoint = match program {
            PotentialProgram::Hold { .. } => {
                Some(self.config.vgen.realize(program, Seconds::ZERO)?)
            }
            _ => None,
        };
        let cds_residual = self
            .config
            .cds
            .as_ref()
            .map(|c| c.residual_drift_fraction());
        let gain = self.config.tia.gain();

        let duration = program.duration();
        let steps = (duration.value() / dt.value()).round() as usize;
        let mut out = Vec::with_capacity(steps + 1);
        for k in 0..=steps {
            let t = Seconds::new((k as f64 * dt.value()).min(duration.value()));
            let setpoint = match hold_setpoint {
                Some(v) => v,
                None => self.config.vgen.realize(program, t)?,
            };
            let applied = pstat.step(setpoint);
            let drift_now = drift.sample();
            let i_active = active(t, applied) + amp_active.sample();
            let i_meas = match cds_residual {
                Some(residual) => {
                    let i_blank = blank(t, applied) + amp_blank.sample();
                    // Shared drift attenuates by the matching rejection.
                    i_active - i_blank + drift_now * residual
                }
                None => i_active + drift_now,
            };
            let i_meas = if inject {
                fault_rt.apply_current(k, t, i_meas)
            } else {
                i_meas
            };
            let v = tia.process(i_meas);
            let v = if inject {
                fault_rt.apply_voltage(t, v, self.config.tia.rail())
            } else {
                v
            };
            let code = self.config.adc.quantize(v);
            let code = if inject {
                fault_rt.apply_code(k, t, code, max_code)
            } else {
                code
            };
            let volts = self.config.adc.to_volts(code);
            let current = Amps::new(volts.value() / gain);
            out.push(Sample {
                t,
                setpoint,
                applied,
                code,
                volts,
                current,
            });
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cds::MatchingQuality;

    fn hold(mv: f64, secs: f64) -> PotentialProgram {
        PotentialProgram::Hold {
            potential: Volts::from_millivolts(mv),
            duration: Seconds::new(secs),
        }
    }

    fn chain() -> ReadoutChain {
        ReadoutChain::new(ChainConfig::for_range(CurrentRange::oxidase()).expect("config"))
    }

    fn sd(samples: &[f64]) -> f64 {
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        (samples.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / samples.len() as f64).sqrt()
    }

    #[test]
    fn recovers_dc_current_within_resolution() {
        let c = chain();
        let truth = Amps::from_nanoamps(500.0);
        let samples = c
            .acquire(
                &hold(650.0, 5.0),
                Seconds::from_millis(100.0),
                1,
                |_, _| truth,
                |_, _| Amps::ZERO,
            )
            .expect("acquire");
        // Average the tail to beat the noise.
        let tail: Vec<f64> = samples[10..].iter().map(|s| s.current.value()).collect();
        let mean = tail.iter().sum::<f64>() / tail.len() as f64;
        assert!(
            (mean - truth.value()).abs() < CurrentRange::oxidase().resolution().value(),
            "mean {mean}"
        );
    }

    #[test]
    fn acquisition_is_reproducible_by_seed() {
        // Typical CMOS noise sits below one ADC LSB (≈2.4 nA of input
        // current here), so use electrode-scale noise to make the seed
        // visible in the codes.
        let cfg = ChainConfig::for_range(CurrentRange::oxidase())
            .expect("config")
            .with_noise(NoiseConfig {
                white_density: 2e-9,
                flicker_density_1hz: 0.0,
                drift_per_sqrt_s: 0.0,
            });
        let c = ReadoutChain::new(cfg);
        let run = |seed| {
            c.acquire(
                &hold(650.0, 1.0),
                Seconds::from_millis(50.0),
                seed,
                |_, _| Amps::from_nanoamps(100.0),
                |_, _| Amps::ZERO,
            )
            .expect("acquire")
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
    }

    #[test]
    fn chopper_reduces_low_frequency_noise() {
        // Flicker-dominated noise scaled above the ADC LSB so the effect
        // survives quantization.
        let cfg = ChainConfig::for_range(CurrentRange::oxidase())
            .expect("config")
            .with_noise(NoiseConfig {
                white_density: 1e-10,
                flicker_density_1hz: 1e-8,
                drift_per_sqrt_s: 0.0,
            });
        let noisy = ReadoutChain::new(cfg);
        let chopped = ReadoutChain::new(cfg.with_chopper());
        let measure = |c: &ReadoutChain, seed: u64| {
            let s = c
                .acquire(
                    &hold(650.0, 60.0),
                    Seconds::from_millis(250.0),
                    seed,
                    |_, _| Amps::ZERO,
                    |_, _| Amps::ZERO,
                )
                .expect("acquire");
            sd(&s.iter().map(|x| x.current.value()).collect::<Vec<_>>())
        };
        // Average over several seeds for a stable comparison.
        let n_runs = 8;
        let mean_noisy: f64 =
            (0..n_runs).map(|k| measure(&noisy, 100 + k)).sum::<f64>() / n_runs as f64;
        let mean_chop: f64 =
            (0..n_runs).map(|k| measure(&chopped, 200 + k)).sum::<f64>() / n_runs as f64;
        assert!(
            mean_chop < mean_noisy * 0.6,
            "chopper must cut 1/f-dominated noise: {mean_chop} vs {mean_noisy}"
        );
    }

    #[test]
    fn cds_subtracts_blank_interferent() {
        let cfg = ChainConfig::for_range(CurrentRange::oxidase())
            .expect("config")
            .with_noise(NoiseConfig::NONE)
            .with_cds(CorrelatedDoubleSampler::new(MatchingQuality::Monolithic));
        let c = ReadoutChain::new(cfg);
        let signal = Amps::from_nanoamps(300.0);
        let interferent = Amps::from_nanoamps(80.0);
        let samples = c
            .acquire(
                &hold(650.0, 2.0),
                Seconds::from_millis(100.0),
                3,
                move |_, _| signal + interferent,
                move |_, _| interferent,
            )
            .expect("acquire");
        let last = samples.last().expect("nonempty");
        assert!(
            (last.current.value() - signal.value()).abs()
                < 2.0 * CurrentRange::oxidase().resolution().value(),
            "cds output {}",
            last.current.value()
        );
    }

    #[test]
    fn rejects_bad_programs_and_dt() {
        let c = chain();
        let over_range = hold(1500.0, 1.0);
        assert!(c
            .acquire(
                &over_range,
                Seconds::from_millis(10.0),
                1,
                |_, _| Amps::ZERO,
                |_, _| { Amps::ZERO }
            )
            .is_err());
        // Non-positive and non-finite intervals are typed errors, not
        // per-sample panics.
        for dt in [0.0, -0.1, f64::NAN, f64::INFINITY] {
            assert!(c
                .acquire(
                    &hold(0.0, 1.0),
                    Seconds::new(dt),
                    1,
                    |_, _| Amps::ZERO,
                    |_, _| Amps::ZERO
                )
                .is_err());
        }
    }

    #[test]
    fn saturation_clips_codes_not_panics() {
        let c = chain();
        let samples = c
            .acquire(
                &hold(650.0, 1.0),
                Seconds::from_millis(100.0),
                1,
                |_, _| Amps::from_microamps(100.0), // 10× over range
                |_, _| Amps::ZERO,
            )
            .expect("acquire");
        let max_code = (1 << (c.config().adc.bits() - 1)) - 1;
        // Codes approach (or pin at) the positive rail without overflow.
        assert!(samples.iter().all(|s| s.code <= max_code));
        assert!(samples.last().expect("nonempty").code >= max_code - 1);
    }

    #[test]
    fn cv_program_passes_through_dac_staircase() {
        let c =
            ReadoutChain::new(ChainConfig::for_range(CurrentRange::cytochrome()).expect("config"));
        let cv = PotentialProgram::cyclic_single(
            Volts::new(0.1),
            Volts::new(-0.8),
            bios_units::VoltsPerSecond::from_millivolts_per_second(20.0),
        );
        let samples = c
            .acquire(
                &cv,
                Seconds::from_millis(500.0),
                4,
                |_, _| Amps::ZERO,
                |_, _| Amps::ZERO,
            )
            .expect("acquire");
        // The setpoint follows the triangle within one DAC LSB.
        for s in &samples {
            let ideal = cv.potential_at(s.t);
            assert!(
                (s.setpoint.value() - ideal.value()).abs()
                    <= c.config().vgen.lsb().value() / 2.0 + 1e-12
            );
        }
    }
}
