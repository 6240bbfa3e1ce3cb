//! Layer probes: cost-equivalent replays of each layer's public calls.
//!
//! The instrument, AFE and biochem layers run inside `run_samples`, where
//! the benchmark cannot put spans. Their share of an acquisition comes
//! from replaying each Fig. 4 acquisition shape piece by piece: the whole
//! instrument call, the AFE chain alone with zero-current closures, and
//! the biochem current model alone. Probes also fill the time metrics of
//! layers a workload does not exercise, so every per-layer time is a
//! fresh measurement on every workload.

use crate::drive::{drive_session, write_session_metrics, SessionTally, ShapeSplit};
use crate::report::Layers;
use crate::stats::{mean, sorted, tail};
use crate::trace::Tracer;
use bios_afe::{ChainConfig, CurrentRange, Fault, FaultKind, FaultPlan, ReadoutChain};
use bios_biochem::{Analyte, Interferent};
use bios_electrochem::{
    simulate_chrono_fleet, simulate_cv_with, Cell, Electrode, ElectrodeMaterial, Grid,
    Nanostructure, PotentialProgram, RedoxCouple, SimOptions,
};
use bios_instrument::{
    analyze_transient, cathodic_segment, detect_cathodic_peaks, run_chrono_with_interferents,
    run_cv, PeakOptions, QcGate,
};
use bios_platform::{
    evaluate, DesignPoint, PanelSpec, Platform, ProbePreference, ReadoutSharing, SensorModel,
    SessionOptions,
};
use bios_server::{DiagnosticsServer, NullClock, ServerConfig, ServiceTier, SessionRequest};
use bios_units::{Amps, Molar, Seconds, SquareCentimeters, Volts, VoltsPerSecond, T_ROOM};
use std::hint::black_box;
use std::time::Instant;

/// Repeats per replayed acquisition shape.
const REPS: usize = 40;

fn ns_since(t0: Instant) -> f64 {
    t0.elapsed().as_nanos() as f64
}

/// Mean wall time of `f` over `reps` calls, in ns.
fn mean_ns(reps: usize, mut f: impl FnMut(usize)) -> f64 {
    let t0 = Instant::now();
    for k in 0..reps {
        f(k);
    }
    ns_since(t0) / reps as f64
}

fn concentration(sample: &[(Analyte, Molar)], analyte: Analyte) -> Molar {
    sample
        .iter()
        .find(|(a, _)| *a == analyte)
        .map(|(_, c)| *c)
        .unwrap_or(Molar::ZERO)
}

/// A faulted twin of `chain`: the first non-empty randomized plan.
fn faulted(chain: &ReadoutChain) -> ReadoutChain {
    let plan = (1u64..)
        .map(|s| FaultPlan::randomized(s, 1))
        .find(|p| !p.faults_for(0).is_empty())
        .expect("some seed faults electrode 0");
    chain
        .clone()
        .with_faults(plan.faults_for(0), plan.chain_seed(0))
}

/// One replayed acquisition shape.
#[derive(Debug, Default, Clone, Copy)]
struct ShapeCost {
    instrument_ns: f64,
    qc_ns: f64,
    analysis_ns: f64,
    afe_ns: f64,
    afe_faulted_ns: f64,
    samples: f64,
    biochem_eval_ns: f64,
}

fn replay_chrono(
    platform: &Platform,
    slot: usize,
    sample: &[(Analyte, Molar)],
) -> Option<ShapeCost> {
    let a = &platform.assignments()[slot];
    let SensorModel::Oxidase(sensor) = a.sensor() else {
        return None;
    };
    let area = a.electrode().geometric_area().value();
    let chain = ReadoutChain::new(
        ChainConfig::for_range(CurrentRange::oxidase().scaled(area.min(1.0)))
            .expect("oxidase range realizes"),
    );
    let protocol = *platform.chrono_protocol();
    let c = concentration(sample, a.targets()[0]);
    let interferents: Vec<(Interferent, Molar)> = sample
        .iter()
        .filter_map(|(x, c)| Interferent::of(*x).map(|i| (i, *c)))
        .collect();
    let run = |seed: u64| {
        run_chrono_with_interferents(
            sensor,
            a.electrode(),
            &chain,
            c,
            &interferents,
            &protocol,
            seed,
        )
        .expect("replayed chrono acquisition")
    };
    let m = run(1);
    let instrument_ns = mean_ns(REPS, |k| {
        black_box(run(100 + k as u64));
    });
    let gate = QcGate::default();
    let full_scale = chain.config().full_scale_current();
    let qc_ns = mean_ns(REPS, |_| {
        black_box(gate.check_chrono_referenced(&m, full_scale, Some(Amps::new(1e-12))));
    });
    let mut analysis_ns = 0.0;
    for _ in 0..REPS {
        let transient = m.transient.clone();
        let t0 = Instant::now();
        black_box(analyze_transient(transient, protocol.settle));
        analysis_ns += ns_since(t0);
    }
    analysis_ns /= REPS as f64;

    let duration = Seconds::new(protocol.settle.value() + protocol.measure.value());
    let program = PotentialProgram::Hold {
        potential: sensor.applied_potential(),
        duration,
    };
    let zero = |_t: Seconds, _e: Volts| Amps::ZERO;
    let afe = |chain: &ReadoutChain| {
        mean_ns(REPS, |k| {
            black_box(chain.acquire(&program, protocol.dt, k as u64, zero, zero)).ok();
        })
    };
    let afe_ns = afe(&chain);
    let afe_faulted_ns = afe(&faulted(&chain));
    let samples = chain
        .acquire(&program, protocol.dt, 0, zero, zero)
        .map(|s| s.len())
        .unwrap_or(1) as f64;

    let times: Vec<Seconds> = (0..samples as usize)
        .map(|i| Seconds::new(i as f64 * protocol.dt.value() - protocol.settle.value()))
        .collect();
    let t0 = Instant::now();
    for _ in 0..REPS {
        for &since in &times {
            let j = sensor.transient_current_density(Molar::ZERO, black_box(c), since);
            black_box(j.value() + sensor.membrane().step_response(since));
        }
    }
    let biochem_eval_ns = ns_since(t0) / (REPS as f64 * samples);
    Some(ShapeCost {
        instrument_ns,
        qc_ns,
        analysis_ns,
        afe_ns,
        afe_faulted_ns,
        samples,
        biochem_eval_ns,
    })
}

fn replay_cv(platform: &Platform, slot: usize, sample: &[(Analyte, Molar)]) -> Option<ShapeCost> {
    let a = &platform.assignments()[slot];
    let SensorModel::Cytochrome(sensor) = a.sensor() else {
        return None;
    };
    let area = a.electrode().geometric_area().value();
    let chain = ReadoutChain::new(
        ChainConfig::for_range(CurrentRange::cytochrome().scaled(area.min(1.0)))
            .expect("cytochrome range realizes"),
    );
    let protocol = *platform.cv_protocol();
    let concs: Vec<(Analyte, Molar)> = a
        .targets()
        .iter()
        .map(|t| (*t, concentration(sample, *t)))
        .collect();
    let run = |seed: u64| {
        run_cv(sensor, a.electrode(), &chain, &concs, &protocol, seed)
            .expect("replayed CV acquisition")
    };
    let m = run(1);
    let instrument_ns = mean_ns(REPS, |k| {
        black_box(run(100 + k as u64));
    });
    let gate = QcGate::default();
    let full_scale = chain.config().full_scale_current();
    let qc_ns = mean_ns(REPS, |_| {
        black_box(gate.check_cv(&m, full_scale));
    });
    let options = PeakOptions {
        min_height: protocol.min_peak_height,
        smoothing: 2,
    };
    let analysis_ns = mean_ns(REPS, |_| {
        let segment = cathodic_segment(&m.voltammogram);
        black_box(detect_cathodic_peaks(&segment, options)).ok();
    });

    let (start, vertex) = sensor.recommended_window();
    let program = PotentialProgram::cyclic_single(start, vertex, protocol.scan_rate);
    let dt = Seconds::new(program.suggested_dt().value().max(0.02));
    let zero = |_t: Seconds, _e: Volts| Amps::ZERO;
    let afe = |chain: &ReadoutChain| {
        mean_ns(REPS, |k| {
            black_box(chain.acquire(&program, dt, k as u64, zero, zero)).ok();
        })
    };
    let afe_ns = afe(&chain);
    let afe_faulted_ns = afe(&faulted(&chain));
    let points: Vec<(Volts, bool)> = chain
        .acquire(&program, dt, 0, zero, zero)
        .map(|s| {
            s.iter()
                .map(|x| (x.applied, x.t.value() >= 0.5 * program.duration().value()))
                .collect()
        })
        .unwrap_or_default();
    let samples = points.len().max(1) as f64;
    let t0 = Instant::now();
    for _ in 0..REPS {
        for &(e, up) in &points {
            black_box(sensor.current_density(black_box(e), protocol.scan_rate, up, &concs, T_ROOM));
        }
    }
    let biochem_eval_ns = ns_since(t0) / (REPS as f64 * samples);
    Some(ShapeCost {
        instrument_ns,
        qc_ns,
        analysis_ns,
        afe_ns,
        afe_faulted_ns,
        samples,
        biochem_eval_ns,
    })
}

/// The chrono and CV acquisition splits of the Fig. 4 platform.
#[derive(Debug, Default, Clone, Copy)]
pub struct Replay {
    pub chrono: ShapeSplit,
    pub cv: ShapeSplit,
}

/// Replays every Fig. 4 acquisition shape and writes the instrument, AFE
/// and biochem metrics.
pub fn replay(platform: &Platform, sample: &[(Analyte, Molar)], layers: &mut Layers) -> Replay {
    let slots = 0..platform.assignments().len();
    let chrono: Vec<ShapeCost> = slots
        .clone()
        .filter_map(|s| replay_chrono(platform, s, sample))
        .collect();
    let cv: Vec<ShapeCost> = slots
        .filter_map(|s| replay_cv(platform, s, sample))
        .collect();
    let all: Vec<ShapeCost> = chrono.iter().chain(cv.iter()).copied().collect();
    let avg =
        |v: &[ShapeCost], f: fn(&ShapeCost) -> f64| mean(&v.iter().map(f).collect::<Vec<_>>());

    layers.set(
        "instrument.chrono_us",
        avg(&chrono, |c| c.instrument_ns) / 1e3,
    );
    layers.set("instrument.cv_us", avg(&cv, |c| c.instrument_ns) / 1e3);
    layers.set("instrument.analysis_us", avg(&all, |c| c.analysis_ns) / 1e3);
    layers.set("instrument.qc_us", avg(&all, |c| c.qc_ns) / 1e3);
    let samples: f64 = all.iter().map(|c| c.samples).sum();
    layers.set(
        "afe.ns_per_sample",
        all.iter().map(|c| c.afe_ns).sum::<f64>() / samples,
    );
    layers.set(
        "afe.ns_per_sample_faulted",
        all.iter().map(|c| c.afe_faulted_ns).sum::<f64>() / samples,
    );
    layers.set(
        "afe.acquire_share",
        all.iter().map(|c| c.afe_ns).sum::<f64>()
            / all.iter().map(|c| c.instrument_ns).sum::<f64>(),
    );
    layers.set(
        "biochem.ns_per_eval_chrono",
        avg(&chrono, |c| c.biochem_eval_ns),
    );
    layers.set("biochem.ns_per_eval_cv", avg(&cv, |c| c.biochem_eval_ns));

    // The post-assay built-in self-test of a faulted chain: an
    // assay-length (64 s) window sampled every 0.1 s.
    let chain = faulted(&ReadoutChain::new(
        ChainConfig::for_range(CurrentRange::oxidase().scaled(0.0023)).expect("range"),
    ));
    let st = mean_ns(REPS / 4, |k| {
        black_box(chain.self_test_response(Seconds::new(0.1), Seconds::new(64.0), k as u64)).ok();
    });
    layers.set("afe.self_test_ms", st / 1e6);

    let split = |v: &[ShapeCost]| ShapeSplit {
        total_ns: avg(v, |c| c.instrument_ns + c.qc_ns),
        afe_ns: avg(v, |c| c.afe_ns),
        biochem_ns: avg(v, |c| c.biochem_eval_ns * c.samples),
    };
    Replay {
        chrono: split(&chrono),
        cv: split(&cv),
    }
}

/// The Fig. 4 platform and its reference sample.
pub fn fig4_platform() -> Platform {
    bios_platform::PlatformBuilder::new(PanelSpec::paper_fig4())
        .build()
        .expect("the paper panel builds")
}

pub fn reference_sample() -> Vec<(Analyte, Molar)> {
    vec![
        (Analyte::Glucose, Molar::from_millimolar(3.0)),
        (Analyte::Lactate, Molar::from_millimolar(1.5)),
        (Analyte::Glutamate, Molar::from_millimolar(3.2)),
        (Analyte::Benzphetamine, Molar::from_millimolar(0.9)),
        (Analyte::Aminopyrine, Molar::from_millimolar(4.0)),
        (Analyte::Cholesterol, Molar::from_micromolar(50.0)),
    ]
}

/// A 32-lane electrode fleet with `k`-dependent areas and concentrations.
pub fn fleet_lanes(
    lanes: usize,
    area_mm2: impl Fn(usize) -> f64,
    conc_mm: impl Fn(usize) -> f64,
) -> (Vec<Cell>, Vec<Molar>, Vec<Molar>) {
    let cells = (0..lanes)
        .map(|k| {
            let we = Electrode::new(
                ElectrodeMaterial::Gold,
                SquareCentimeters::from_square_millimeters(area_mm2(k)),
            )
            .expect("positive area");
            Cell::builder(we).build().expect("cell")
        })
        .collect();
    let ox = (0..lanes)
        .map(|k| Molar::from_millimolar(conc_mm(k)))
        .collect();
    (cells, ox, vec![Molar::ZERO; lanes])
}

/// The chronoamperometric hold every fleet runs.
pub fn fleet_program() -> PotentialProgram {
    PotentialProgram::Hold {
        potential: Volts::new(0.65),
        duration: Seconds::new(0.5),
    }
}

/// Spatial nodes of the fleet program's grid.
pub fn fleet_nodes(couple: &RedoxCouple) -> usize {
    let program = fleet_program();
    let d = couple
        .diffusion_ox()
        .value()
        .max(couple.diffusion_red().value());
    Grid::for_experiment_with(
        bios_units::DiffusionCoefficient::new(d),
        program.duration(),
        program.suggested_dt(),
        Grid::DEFAULT_GAMMA,
    )
    .map(|g| g.len())
    .unwrap_or(0)
}

fn kernel_probe(layers: &mut Layers) {
    let couple = RedoxCouple::ferrocyanide();
    let cell = Cell::builder(Electrode::paper_gold_we())
        .build()
        .expect("cell");
    let program = PotentialProgram::cyclic_single(
        Volts::new(0.55),
        Volts::new(-0.1),
        VoltsPerSecond::from_millivolts_per_second(50.0),
    );
    let cv = mean_ns(8, |_| {
        black_box(
            simulate_cv_with(
                &cell,
                &couple,
                Molar::from_millimolar(1.0),
                Molar::ZERO,
                &program,
                SimOptions::default(),
            )
            .ok(),
        );
    });
    let (cells, ox, red) = fleet_lanes(32, |k| 0.1 + 0.07 * k as f64, |k| 0.2 + 0.05 * k as f64);
    let fleet = fleet_program();
    let mut lane_steps = 0usize;
    let t0 = Instant::now();
    for _ in 0..8 {
        let out = simulate_chrono_fleet(&cells, &couple, &ox, &red, &fleet, SimOptions::default())
            .expect("fleet");
        lane_steps += out.iter().map(|t| t.len() - 1).sum::<usize>();
    }
    let fleet_ns = ns_since(t0);
    layers.set("kernel.cv_ms", cv / 1e6);
    layers.set(
        "kernel.lane_steps_per_s",
        lane_steps as f64 / (fleet_ns / 1e9),
    );
}

/// Mean `bios_platform::evaluate` time (us) over a slice of Fig. 4 design
/// points, one call each.
pub fn evaluate_us() -> f64 {
    let panel = PanelSpec::paper_fig4();
    let mut points = Vec::new();
    for nanostructure in [
        Nanostructure::None,
        Nanostructure::GoldNanoparticles,
        Nanostructure::CobaltOxide,
        Nanostructure::CarbonNanotubes,
    ] {
        for adc_bits in [8u8, 10, 12, 14, 16] {
            points.push(DesignPoint {
                nanostructure,
                sharing: ReadoutSharing::Shared,
                chopper: adc_bits % 4 == 0,
                cds: false,
                adc_bits,
                preference: ProbePreference::MinimizeElectrodes,
            });
        }
    }
    mean_ns(points.len(), |k| {
        black_box(evaluate(&panel, &points[k]).ok());
    }) / 1e3
}

/// Ticks a default server over a small clean fleet, once to warm up and
/// once measured.
fn server_probe(platform: &Platform, sample: &[(Analyte, Molar)], layers: &mut Layers) {
    let fleet = |n: u64| {
        let mut server = DiagnosticsServer::new(platform, ServerConfig::default());
        for device in 0..n {
            server
                .submit(SessionRequest {
                    device,
                    tier: ServiceTier::Routine,
                    sample: sample.to_vec(),
                    seed: 9000 + device,
                })
                .expect("probe fleet fits the queues");
        }
        server
    };
    fleet(64).run_until_idle(&NullClock, u64::MAX);
    let mut server = fleet(256);
    let mut ticks = Vec::new();
    while !server.is_idle() {
        let t0 = Instant::now();
        server.tick(&NullClock);
        ticks.push(ns_since(t0) / 1e6);
    }
    let s = sorted(&ticks);
    layers.set("server.tick_p50_ms", crate::stats::percentile(&s, 50.0));
    layers.set("server.tick_tail_ms", tail(&s).value);
}

/// Steps a few sessions through the step API — clean ones plus one with
/// a dead electrode, which exercises Backoff and Quarantine.
fn session_probe(platform: &Platform, sample: &[(Analyte, Molar)], out: &mut Layers) {
    let clean = SessionOptions::default();
    let dead = SessionOptions::default()
        .with_fault_plan(FaultPlan::new(77).with_fault(
            0,
            Fault::immediate(FaultKind::ElectrodeOpen, 1.0).expect("fault"),
        ))
        .with_qc(QcGate::default());
    let mut tracer = Tracer::new(true);
    let mut tally = SessionTally::default();
    for k in 0..12u32 {
        let options = if k % 4 == 3 { &dead } else { &clean };
        drive_session(
            platform,
            sample,
            500 + u64::from(k),
            options,
            &mut tracer,
            k,
            &mut tally,
        )
        .expect("probe session");
    }
    write_session_metrics(tracer.spans(), &tally, out);
}

/// Replays the Fig. 4 acquisition shapes (see [`replay`]).
pub fn replay_fig4(layers: &mut Layers) -> Replay {
    replay(&fig4_platform(), &reference_sample(), layers)
}

/// Fills every per-layer metric the workload's traced run did not
/// measure: times from probes, ratios and counts of unused layers as 0.
pub fn fill_missing(layers: &mut Layers) {
    let platform = fig4_platform();
    let sample = reference_sample();
    let mut probed = Layers::default();
    if !layers.has("instrument.chrono_us") {
        replay(&platform, &sample, &mut probed);
    }
    if !layers.has("explore.evaluate_us") {
        probed.set("explore.evaluate_us", evaluate_us());
    }
    kernel_probe(&mut probed);
    server_probe(&platform, &sample, &mut probed);
    session_probe(&platform, &sample, &mut probed);
    for (name, unit) in crate::report::PER_LAYER {
        if !layers.has(name) {
            let time = matches!(unit, "ms" | "us" | "ns" | "1/s");
            layers.set(name, probed.get(name).filter(|_| time).unwrap_or(0.0));
        }
    }
}
