//! Injection series: repeated sample presentations on one oxidase
//! electrode — the experiment behind the paper's §II-B *sample throughput*
//! property ("the number of individual samples per unit of time",
//! accounting for both transient response and recovery).

use crate::chrono_protocol::analyze_transient;
use crate::error::InstrumentError;
use bios_afe::ReadoutChain;
use bios_biochem::OxidaseSensor;
use bios_electrochem::{Electrode, PotentialProgram, Transient};
use bios_units::{Amps, Molar, Seconds};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A piecewise-constant concentration schedule: at each listed time the
/// bath concentration steps to the given value.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct InjectionSchedule {
    events: Vec<(Seconds, Molar)>,
    duration: Seconds,
}

impl InjectionSchedule {
    /// Creates a schedule from `(time, new concentration)` events over a
    /// total duration. Events must be strictly increasing in time.
    ///
    /// # Errors
    ///
    /// Returns [`InstrumentError::InvalidParameter`] for unordered events,
    /// negative concentrations, or events outside the duration.
    pub fn new(events: Vec<(Seconds, Molar)>, duration: Seconds) -> Result<Self, InstrumentError> {
        if duration.value() <= 0.0 {
            return Err(InstrumentError::invalid("duration", "must be positive"));
        }
        let mut last = -f64::INFINITY;
        for (t, c) in &events {
            if t.value() <= last {
                return Err(InstrumentError::invalid(
                    "events",
                    "must be strictly increasing in time",
                ));
            }
            if t.value() < 0.0 || t.value() >= duration.value() {
                return Err(InstrumentError::invalid(
                    "events",
                    "must lie inside the duration",
                ));
            }
            if c.value() < 0.0 {
                return Err(InstrumentError::invalid(
                    "events",
                    "concentrations must be non-negative",
                ));
            }
            last = t.value();
        }
        Ok(Self { events, duration })
    }

    /// A classic sample/wash cycle: `n` samples of concentration `c`, each
    /// held for `dwell` and followed by a `wash` back to blank.
    ///
    /// # Errors
    ///
    /// Returns [`InstrumentError::InvalidParameter`] for degenerate timing.
    pub fn sample_wash_cycles(
        n: usize,
        c: Molar,
        dwell: Seconds,
        wash: Seconds,
    ) -> Result<Self, InstrumentError> {
        if n == 0 {
            return Err(InstrumentError::invalid("n", "must be at least 1"));
        }
        let cycle = dwell.value() + wash.value();
        if dwell.value() <= 0.0 || wash.value() <= 0.0 {
            return Err(InstrumentError::invalid("timing", "must be positive"));
        }
        let mut events = Vec::with_capacity(2 * n);
        for k in 0..n {
            events.push((Seconds::new(k as f64 * cycle), c));
            events.push((Seconds::new(k as f64 * cycle + dwell.value()), Molar::ZERO));
        }
        Self::new(events, Seconds::new(n as f64 * cycle + wash.value()))
    }

    /// The events.
    pub(crate) fn events(&self) -> &[(Seconds, Molar)] {
        &self.events
    }

    /// Total duration.
    pub fn duration(&self) -> Seconds {
        self.duration
    }
}

/// The outcome of an injection-series run.
#[derive(Debug, Clone, PartialEq)]
pub struct InjectionSeriesResult {
    /// The recorded transient.
    pub transient: Transient,
    /// Per-positive-injection response time `t₉₀` (s).
    pub response_times: Vec<f64>,
    /// Per-wash recovery time back within 10% of baseline (s).
    pub recovery_times: Vec<f64>,
    /// §II-B sample throughput estimate, samples/hour, from the mean
    /// response + recovery cycle.
    pub throughput_per_hour: Option<f64>,
}

/// Runs an injection schedule on an oxidase sensor through the chain.
///
/// The sensor current superposes membrane-shaped step responses for every
/// schedule event (linear-system superposition — valid while the
/// concentration steps stay inside the quasi-linear regime).
///
/// # Errors
///
/// Returns [`InstrumentError`] for invalid schedules or AFE rejects.
///
/// # Example
///
/// ```
/// use bios_afe::{ChainConfig, CurrentRange, ReadoutChain};
/// use bios_biochem::{Oxidase, OxidaseSensor};
/// use bios_electrochem::Electrode;
/// use bios_instrument::{run_injection_series, InjectionSchedule};
/// use bios_units::{Molar, Seconds};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let sensor = OxidaseSensor::from_registry(Oxidase::Glucose)?;
/// let chain = ReadoutChain::new(ChainConfig::for_range(CurrentRange::oxidase())?);
/// let schedule = InjectionSchedule::sample_wash_cycles(
///     3, Molar::from_millimolar(2.0), Seconds::new(60.0), Seconds::new(60.0))?;
/// let result = run_injection_series(
///     &sensor, &Electrode::paper_gold_we(), &chain, &schedule, Seconds::new(0.5), 7)?;
/// assert_eq!(result.response_times.len(), 3);
/// # Ok(())
/// # }
/// ```
pub fn run_injection_series(
    sensor: &OxidaseSensor,
    electrode: &Electrode,
    chain: &ReadoutChain,
    schedule: &InjectionSchedule,
    dt: Seconds,
    seed: u64,
) -> Result<InjectionSeriesResult, InstrumentError> {
    if dt.value() <= 0.0 {
        return Err(InstrumentError::invalid("dt", "must be positive"));
    }
    let area = electrode.geometric_area();
    let program = PotentialProgram::Hold {
        potential: sensor.applied_potential(),
        duration: schedule.duration(),
    };
    let mut rng = StdRng::seed_from_u64(seed ^ 0xf1a_0000);
    let within_sd = sensor.blank_sd().value() * area.value() / 5.0;
    let events = schedule.events().to_vec();
    let samples = chain.acquire(
        &program,
        dt,
        seed,
        move |t, _e| {
            // Superpose membrane-shaped responses of all past steps.
            let mut j = 0.0;
            let mut prev_c = Molar::ZERO;
            for (et, c) in &events {
                let since = Seconds::new(t.value() - et.value());
                if since.value() <= 0.0 {
                    break;
                }
                let delta = sensor.steady_current_density(*c).value()
                    - sensor.steady_current_density(prev_c).value();
                j += delta * sensor.membrane().step_response(since);
                prev_c = *c;
            }
            let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
            let u2: f64 = rng.gen_range(0.0..1.0);
            let g = (-2.0 * u1.ln()).sqrt() * (2.0 * core::f64::consts::PI * u2).cos();
            Amps::new(j * area.value() + g * within_sd)
        },
        |_t, _e| Amps::ZERO,
    )?;
    let transient: Transient = samples.iter().map(|s| (s.t, s.current)).collect();

    // Analyze each event with the single-step analyzer on its own window.
    let mut response_times = Vec::new();
    let mut recovery_times = Vec::new();
    let events = schedule.events();
    for (k, (et, c)) in events.iter().enumerate() {
        let window_end = events
            .get(k + 1)
            .map(|(t, _)| t.value())
            .unwrap_or(schedule.duration().value());
        let window: Transient = transient
            .iter()
            .filter(|(t, _)| t.value() >= et.value() * 0.0 && t.value() <= window_end)
            .collect();
        let m = analyze_transient(window, *et);
        if let Some(t90) = m.t90 {
            if c.value() > 0.0 {
                response_times.push(t90.value());
            } else {
                recovery_times.push(t90.value());
            }
        }
    }
    let throughput_per_hour = if !response_times.is_empty() && !recovery_times.is_empty() {
        let mean_resp = response_times.iter().sum::<f64>() / response_times.len() as f64;
        let mean_rec = recovery_times.iter().sum::<f64>() / recovery_times.len() as f64;
        Some(3600.0 / (mean_resp + mean_rec))
    } else {
        None
    };
    Ok(InjectionSeriesResult {
        transient,
        response_times,
        recovery_times,
        throughput_per_hour,
    })
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
            ReadoutChain::new(ChainConfig::for_range(CurrentRange::oxidase()).expect("range")),
        )
    }

    #[test]
    fn schedule_validation() {
        assert!(InjectionSchedule::new(
            vec![
                (Seconds::new(5.0), Molar::ZERO),
                (Seconds::new(5.0), Molar::ZERO)
            ],
            Seconds::new(10.0)
        )
        .is_err());
        assert!(InjectionSchedule::new(
            vec![(Seconds::new(15.0), Molar::ZERO)],
            Seconds::new(10.0)
        )
        .is_err());
        assert!(InjectionSchedule::new(
            vec![(Seconds::new(1.0), Molar::new(-1.0))],
            Seconds::new(10.0)
        )
        .is_err());
        assert!(InjectionSchedule::sample_wash_cycles(
            0,
            Molar::from_millimolar(1.0),
            Seconds::new(60.0),
            Seconds::new(60.0)
        )
        .is_err());
    }

    #[test]
    fn wash_cycles_span_their_duration() {
        let s = InjectionSchedule::sample_wash_cycles(
            2,
            Molar::from_millimolar(2.0),
            Seconds::new(60.0),
            Seconds::new(40.0),
        )
        .expect("valid");
        assert!((s.duration().value() - 240.0).abs() < 1e-9);
    }

    #[test]
    fn three_cycles_give_three_responses_and_recoveries() {
        let (sensor, electrode, chain) = setup();
        let schedule = InjectionSchedule::sample_wash_cycles(
            3,
            Molar::from_millimolar(2.0),
            Seconds::new(70.0),
            Seconds::new(70.0),
        )
        .expect("valid");
        let result =
            run_injection_series(&sensor, &electrode, &chain, &schedule, Seconds::new(0.5), 3)
                .expect("run");
        assert_eq!(result.response_times.len(), 3);
        assert_eq!(result.recovery_times.len(), 3);
        // Membrane-dominated symmetric kinetics: both ≈30 s.
        for t in result.response_times.iter().chain(&result.recovery_times) {
            assert!((t - 30.0).abs() < 10.0, "t90 {t}");
        }
        // Throughput: ≈3600/60 = 60 samples/hour.
        let tph = result.throughput_per_hour.expect("cycles measured");
        assert!((tph - 60.0).abs() < 15.0, "throughput {tph}");
    }

    #[test]
    fn repeated_injections_reach_the_same_plateau() {
        let (sensor, electrode, chain) = setup();
        let schedule = InjectionSchedule::sample_wash_cycles(
            2,
            Molar::from_millimolar(2.0),
            Seconds::new(80.0),
            Seconds::new(80.0),
        )
        .expect("valid");
        let result =
            run_injection_series(&sensor, &electrode, &chain, &schedule, Seconds::new(0.5), 9)
                .expect("run");
        // Currents near the end of each dwell are equal within noise.
        let at = |t: f64| {
            result
                .transient
                .current_at(Seconds::new(t))
                .expect("sampled")
                .value()
        };
        let first = at(78.0);
        let second = at(238.0);
        assert!(
            (first - second).abs() < 0.1 * first.abs().max(1e-12),
            "plateaus {first} vs {second}"
        );
    }
}
