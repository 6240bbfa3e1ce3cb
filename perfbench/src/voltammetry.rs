//! `voltammetry`: seeded electrode-characterisation jobs, the one
//! workload that runs the `electrochem` diffusion kernel. A job is a CV
//! scan-rate series on one electrode plus a 32-lane chronoamperogram.

use crate::drive::LayerTimes;
use crate::probe::{fleet_lanes, fleet_nodes, fleet_program};
use crate::report::Layers;
use crate::stats::{Fnv, Rng};
use crate::trace::Tracer;
use crate::{Cli, Measured};
use bios_electrochem::{
    simulate_chrono_fleet, simulate_chrono_with, simulate_cv_with, Cell, Electrode,
    ElectrodeMaterial, PotentialProgram, RedoxCouple, SimOptions, Transient, Voltammogram,
};
use bios_platform::{par_map, ExecPolicy};
use bios_units::{Molar, SquareCentimeters, Volts, VoltsPerSecond};
use std::time::Instant;

pub const LANES: usize = 32;
/// Scan rates a series draws from (mV/s); a finite set, so the
/// prefactorized operators warm up during set-up.
const RATES_MV_S: [f64; 5] = [10.0, 20.0, 50.0, 100.0, 200.0];
const SERIES: usize = 3;
/// Jobs whose fleet output is checked against per-lane runs.
const CHECKED_JOBS: usize = 2;
const WARMUP_JOBS: usize = 32;

/// One characterisation job, all drawn from the run seed.
#[derive(Debug, Clone, PartialEq)]
pub struct Job {
    area_mm2: f64,
    conc_mm: f64,
    rates_mv_s: Vec<f64>,
    lane_area_mm2: Vec<f64>,
    lane_conc_mm: Vec<f64>,
}

pub fn job(seed: u64, index: u64) -> Job {
    let mut rng = Rng::new(seed.wrapping_mul(0x9e37_79b9).wrapping_add(index));
    let first = rng.below((RATES_MV_S.len() - SERIES + 1) as u64) as usize;
    Job {
        area_mm2: rng.range(0.1, 2.3),
        conc_mm: rng.range(0.2, 1.8),
        rates_mv_s: RATES_MV_S[first..first + SERIES].to_vec(),
        lane_area_mm2: (0..LANES).map(|_| rng.range(0.1, 2.3)).collect(),
        lane_conc_mm: (0..LANES).map(|_| rng.range(0.2, 1.8)).collect(),
    }
}

fn cell(area_mm2: f64) -> Cell {
    let we = Electrode::new(
        ElectrodeMaterial::Gold,
        SquareCentimeters::from_square_millimeters(area_mm2),
    )
    .expect("positive area");
    Cell::builder(we).build().expect("cell")
}

fn cv(job: &Job, rate: f64) -> Voltammogram {
    let program = PotentialProgram::cyclic_single(
        Volts::new(0.55),
        Volts::new(-0.1),
        VoltsPerSecond::from_millivolts_per_second(rate),
    );
    simulate_cv_with(
        &cell(job.area_mm2),
        &RedoxCouple::ferrocyanide(),
        Molar::from_millimolar(job.conc_mm),
        Molar::ZERO,
        &program,
        SimOptions::default(),
    )
    .expect("CV")
}

fn lanes(job: &Job) -> (Vec<Cell>, Vec<Molar>, Vec<Molar>) {
    fleet_lanes(LANES, |k| job.lane_area_mm2[k], |k| job.lane_conc_mm[k])
}

fn fleet(job: &Job) -> Vec<Transient> {
    let (cells, ox, red) = lanes(job);
    simulate_chrono_fleet(
        &cells,
        &RedoxCouple::ferrocyanide(),
        &ox,
        &red,
        &fleet_program(),
        SimOptions::default(),
    )
    .expect("fleet")
}

/// The same lanes one at a time through the scalar simulation.
fn per_lane(job: &Job) -> Vec<Transient> {
    let (cells, ox, red) = lanes(job);
    cells
        .iter()
        .zip(ox.iter().zip(&red))
        .map(|(c, (&o, &r))| {
            simulate_chrono_with(
                c,
                &RedoxCouple::ferrocyanide(),
                o,
                r,
                &fleet_program(),
                SimOptions::default(),
            )
            .expect("lane")
        })
        .collect()
}

pub fn digest(lanes: &[Transient]) -> u64 {
    let mut h = Fnv::new();
    for tr in lanes {
        h.word(tr.len() as u64);
        for (t, i) in tr.iter() {
            h.word(t.value().to_bits());
            h.word(i.value().to_bits());
        }
    }
    h.finish()
}

fn run_job(job: &Job, policy: ExecPolicy) -> (Vec<Voltammogram>, Vec<Transient>) {
    let cvs = par_map(policy, &job.rates_mv_s, |_, &r| cv(job, r));
    (cvs, fleet(job))
}

pub struct State {
    seed: u64,
}

pub fn setup(cli: &Cli) -> State {
    for rate in RATES_MV_S {
        cv(&job(cli.seed ^ 0x3a, 0), rate);
    }
    for k in 0..WARMUP_JOBS as u64 {
        run_job(&job(cli.seed ^ 0x3a, k), ExecPolicy::Auto);
    }
    State { seed: cli.seed }
}

pub fn run(state: &State, cli: &Cli) -> Measured {
    let mut m = Measured::default();
    let mut fleet_digests = Vec::new();
    let start = Instant::now();
    let mut k = 0u64;
    while start.elapsed().as_secs_f64() < cli.seconds {
        let j = job(state.seed, k);
        let t0 = Instant::now();
        let (cvs, lanes) = run_job(&j, ExecPolicy::Auto);
        let t1 = Instant::now();
        let ms = (t1 - t0).as_secs_f64() * 1e3;
        m.finish((t1 - start).as_secs_f64(), 1.0, ms / 1e3);
        m.attempted += 1;
        m.latencies_ms.push(ms);
        let cathodic = cvs
            .iter()
            .all(|v| v.min_current().is_some_and(|(_, i)| i.value() < 0.0));
        if !cathodic {
            m.mismatch(format!("job {k}: a voltammogram has no cathodic current"));
        } else if ms > cli.latency_limit_ms {
            m.failed += 1;
        }
        if (k as usize) < CHECKED_JOBS {
            fleet_digests.push(digest(&lanes));
        }
        k += 1;
    }
    m.wall_s = start.elapsed().as_secs_f64();
    check_fleets(state.seed, &fleet_digests, &mut m);
    m.info
        .push(("requests", "\"characterisation jobs\"".into()));
    m.info.push(("load", "\"closed loop, 1 client\"".into()));
    m.info.push(("lanes", LANES.to_string()));
    m
}

/// The batched fleet must be bit-identical to per-lane simulation.
fn check_fleets(seed: u64, digests: &[u64], m: &mut Measured) {
    for (k, d) in digests.iter().enumerate() {
        let scalar = digest(&per_lane(&job(seed, k as u64)));
        if scalar != *d {
            m.mismatch(format!(
                "job {k}: fleet digest {d:016x} differs from per-lane {scalar:016x}"
            ));
        }
    }
}

pub fn traced(state: &State, cli: &Cli, layers: &mut Layers) -> Measured {
    let mut m = Measured::default();
    let start = Instant::now();
    let mut n = 0u64;
    while start.elapsed().as_secs_f64() < 0.4 * cli.seconds {
        run_job(&job(state.seed, n), ExecPolicy::Sequential);
        n += 1;
    }
    let untraced_s = start.elapsed().as_secs_f64();

    let mut tracer = Tracer::new(true);
    let mut lane_steps = 0usize;
    let mut digests = Vec::new();
    let t0 = Instant::now();
    for k in 0..n {
        let j = job(state.seed, k);
        tracer.begin("request", k as u32);
        for &rate in &j.rates_mv_s {
            tracer.time("kernel.cv", k as u32, || cv(&j, rate));
        }
        let lanes = tracer.time("kernel.fleet", k as u32, || fleet(&j));
        tracer.end();
        lane_steps += lanes.iter().map(|t| t.len() - 1).sum::<usize>();
        if (k as usize) < CHECKED_JOBS {
            digests.push(digest(&lanes));
        }
        m.attempted += 1;
    }
    let traced_s = t0.elapsed().as_secs_f64();
    check_fleets(state.seed, &digests, &mut m);

    let spans = tracer.spans();
    LayerTimes::from_spans(spans, Default::default(), Default::default())
        .write_shares(traced_s * 1e9, layers);
    let total = |name: &str| -> (f64, usize) {
        let v: Vec<f64> = spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect();
        (v.iter().sum(), v.len())
    };
    let (fleet_ns, _) = total("kernel.fleet");
    let (cv_ns, cvs) = total("kernel.cv");
    layers.set(
        "kernel.lane_steps_per_s",
        lane_steps as f64 / (fleet_ns / 1e9),
    );
    layers.set("kernel.cv_ms", cv_ns / cvs.max(1) as f64 / 1e6);
    layers.set(
        "kernel.nodes",
        fleet_nodes(&RedoxCouple::ferrocyanide()) as f64,
    );
    layers.set("trace.wall_ms", traced_s * 1e3);
    layers.set("trace.overhead_ratio", traced_s / untraced_s - 1.0);
    layers.set(
        "loadgen.lag_tail_ms",
        crate::fig4::request_gap_tail_ms(spans),
    );
    m.spans.push(("voltammetry", tracer));
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_jobs() {
        assert_eq!(job(11, 3), job(11, 3));
        assert_ne!(job(11, 3), job(12, 3));
        assert_ne!(job(11, 3), job(11, 4));
        let j = job(11, 3);
        assert_eq!(j.rates_mv_s.len(), SERIES);
        assert_eq!(j.lane_area_mm2.len(), LANES);
    }
}
