//! Batched SoA diffusion-kernel throughput — the BENCH_7 workload.
//!
//! One electrode fleet, one Thomas sweep per species per step
//! ([`simulate_chrono_fleet`]), timed against the per-lane scalar driver
//! on the standard grid. Three digest pairs guard the result:
//!
//! 1. fleet vs per-lane scalar, standard grid — SoA batching alone must
//!    be bit-identical;
//! 2. fleet vs per-lane scalar, coarse grid — batching stays
//!    bit-identical on the reduced grid;
//! 3. single-dispatch fleet vs [`par_map_chunks`]-chunked fleet, coarse
//!    grid — how the fleet is partitioned across workers must not change
//!    one bit of any lane.
//!
//! Digests use [`digest_debug`]: FNV-1a over
//! shortest-roundtrip float rendering, so equality ⇔ bit identity.
//!
//! The headline `batch_gain` compares the coarse-grid batched kernel
//! against the standard-grid scalar baseline — it deliberately combines
//! the SoA win and the expanding-grid node reduction, because together
//! they are the single-thread speedup a serving host actually gets.
//! `batched_standard_steps_per_s` isolates the SoA share.

use crate::perf::{digest_debug, measure};
use bios_electrochem::{
    simulate_chrono_fleet, simulate_chrono_with, Cell, Electrode, ElectrodeMaterial, Grid,
    PotentialProgram, RedoxCouple, SimOptions, Transient,
};
use bios_platform::{par_map_chunks, ExecPolicy};
use bios_units::{DiffusionCoefficient, Molar, Seconds, SquareCentimeters, Volts};

/// Electrode lanes in the fleet workload.
pub const LANES: usize = 32;

/// Expanding-grid ratio for the coarse (batched) variants; the standard
/// variants use [`Grid::DEFAULT_GAMMA`].
pub const COARSE_GAMMA: f64 = 1.4;

/// Timed samples per variant (min is reported).
const SAMPLES: usize = 3;

/// Gate disposition recorded in the report (see
/// [`BatchKernelReport::speedup_gate`]).
pub const GATE_ENFORCED: &str = "enforced";
/// See [`GATE_ENFORCED`].
pub const GATE_SKIPPED_SINGLE_CORE: &str = "skipped_single_core_host";

/// The BENCH_7 report: batched-kernel throughput plus the digest
/// evidence that batching changed nothing.
#[derive(Debug, Clone)]
pub struct BatchKernelReport {
    /// `std::thread::available_parallelism` on the measuring host.
    pub host_cores: usize,
    /// Worker count the multi-threaded variant resolved to.
    pub threads: usize,
    /// The [`ExecPolicy`] of the multi-threaded variant, rendered.
    pub exec_policy: String,
    /// Electrode lanes in the fleet.
    pub lanes: usize,
    /// Backward-Euler time steps per run, summed across lanes (identical
    /// for every variant — the physical workload is fixed).
    pub steps: usize,
    /// Spatial nodes of the standard grid ([`Grid::DEFAULT_GAMMA`]).
    pub grid_nodes_standard: usize,
    /// Spatial nodes of the coarse grid ([`COARSE_GAMMA`]).
    pub grid_nodes_coarse: usize,
    /// Per-lane scalar driver, standard grid — the BENCH_2-comparable
    /// baseline.
    pub scalar_steps_per_s: f64,
    /// Fleet kernel, standard grid, one dispatch: the SoA gain alone.
    pub batched_standard_steps_per_s: f64,
    /// Fleet kernel, coarse grid, one dispatch: the headline number.
    pub batched_steps_per_s: f64,
    /// Fleet kernel, coarse grid, chunked across workers.
    pub batched_mt_steps_per_s: f64,
    /// Digest of the per-lane scalar run, standard grid.
    pub digest_scalar_standard: u64,
    /// Digest of the fleet run, standard grid.
    pub digest_fleet_standard: u64,
    /// Digest of the per-lane scalar run, coarse grid.
    pub digest_scalar_coarse: u64,
    /// Digest of the fleet run, coarse grid.
    pub digest_fleet_coarse: u64,
    /// Digest of the worker-chunked fleet run, coarse grid.
    pub digest_fleet_coarse_mt: u64,
    /// [`GATE_ENFORCED`] when the host can express a multi-thread
    /// speedup, [`GATE_SKIPPED_SINGLE_CORE`] otherwise — so a committed
    /// report can never pass a speedup gate it never ran.
    pub speedup_gate: &'static str,
}

impl BatchKernelReport {
    /// True iff all three digest pairs agree (bit-identical lanes).
    pub fn all_digests_match(&self) -> bool {
        self.digest_scalar_standard == self.digest_fleet_standard
            && self.digest_scalar_coarse == self.digest_fleet_coarse
            && self.digest_fleet_coarse == self.digest_fleet_coarse_mt
    }

    /// Single-thread gain of the batched coarse-grid kernel over the
    /// scalar standard-grid baseline (SoA × grid reduction).
    pub fn batch_gain(&self) -> f64 {
        self.batched_steps_per_s / self.scalar_steps_per_s
    }

    /// Multi-thread speedup of the chunked fleet over one dispatch.
    pub fn mt_speedup(&self) -> f64 {
        self.batched_mt_steps_per_s / self.batched_steps_per_s
    }
}

/// The fleet: heterogeneous electrode areas and bulk concentrations, so
/// no lane is a copy of another and digest checks exercise real per-lane
/// state.
fn fleet() -> (Vec<Cell>, Vec<Molar>, Vec<Molar>) {
    let cells: Vec<Cell> = (0..LANES)
        .map(|k| {
            let mm2 = 0.1 + 0.07 * k as f64;
            let we = Electrode::new(
                ElectrodeMaterial::Gold,
                SquareCentimeters::from_square_millimeters(mm2),
            )
            .expect("positive area");
            Cell::builder(we).build().expect("cell")
        })
        .collect();
    let bulk_ox: Vec<Molar> = (0..LANES)
        .map(|k| Molar::from_millimolar(0.2 + 0.05 * k as f64))
        .collect();
    let bulk_red = vec![Molar::ZERO; LANES];
    (cells, bulk_ox, bulk_red)
}

fn options(gamma: Option<f64>) -> SimOptions {
    SimOptions {
        dt: None,
        include_charging: true,
        grid_gamma: gamma,
    }
}

/// Runs the batched-kernel workload under `policy` (the multi-threaded
/// variant; the baseline and single-dispatch variants are always
/// sequential) and returns the BENCH_7 report.
pub fn run(policy: ExecPolicy) -> BatchKernelReport {
    let (cells, bulk_ox, bulk_red) = fleet();
    let couple = RedoxCouple::ferrocyanide();
    let program = PotentialProgram::Hold {
        potential: Volts::new(0.65),
        duration: Seconds::new(0.5),
    };

    let scalar = |gamma: Option<f64>| -> Vec<Transient> {
        cells
            .iter()
            .zip(bulk_ox.iter().zip(&bulk_red))
            .map(|(cell, (&ox, &red))| {
                simulate_chrono_with(cell, &couple, ox, red, &program, options(gamma))
                    .expect("scalar transient")
            })
            .collect()
    };
    let fleet_once = |gamma: Option<f64>| -> Vec<Transient> {
        simulate_chrono_fleet(
            &cells,
            &couple,
            &bulk_ox,
            &bulk_red,
            &program,
            options(gamma),
        )
        .expect("fleet transients")
    };
    let fleet_chunked = |gamma: Option<f64>| -> Vec<Transient> {
        par_map_chunks(policy, &cells, |start, chunk| {
            let end = start + chunk.len();
            simulate_chrono_fleet(
                chunk,
                &couple,
                &bulk_ox[start..end],
                &bulk_red[start..end],
                &program,
                options(gamma),
            )
            .expect("fleet chunk transients")
        })
    };

    // Digest evidence first (untimed).
    let digest_scalar_standard = digest_debug(&scalar(None));
    let digest_fleet_standard = digest_debug(&fleet_once(None));
    let digest_scalar_coarse = digest_debug(&scalar(Some(COARSE_GAMMA)));
    let reference_fleet = fleet_once(Some(COARSE_GAMMA));
    let digest_fleet_coarse = digest_debug(&reference_fleet);
    let digest_fleet_coarse_mt = digest_debug(&fleet_chunked(Some(COARSE_GAMMA)));

    let steps = reference_fleet[0].len() * LANES;
    let dt = program.suggested_dt();
    let d_max = couple
        .diffusion_ox()
        .value()
        .max(couple.diffusion_red().value());
    let grid_nodes = |gamma: f64| {
        Grid::for_experiment_with(
            DiffusionCoefficient::new(d_max),
            program.duration(),
            dt,
            gamma,
        )
        .expect("grid")
        .len()
    };

    // Timings: every variant factorizes its own systems at construction,
    // one per scalar sim and one per species for a whole fleet.
    let scalar_t = measure(SAMPLES, || scalar(None));
    let fleet_std_t = measure(SAMPLES, || fleet_once(None));
    let fleet_t = measure(SAMPLES, || fleet_once(Some(COARSE_GAMMA)));
    let fleet_mt_t = measure(SAMPLES, || fleet_chunked(Some(COARSE_GAMMA)));

    let host_cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    BatchKernelReport {
        host_cores,
        threads: policy.threads_for(LANES),
        exec_policy: format!("{policy:?}"),
        lanes: LANES,
        steps,
        grid_nodes_standard: grid_nodes(Grid::DEFAULT_GAMMA),
        grid_nodes_coarse: grid_nodes(COARSE_GAMMA),
        scalar_steps_per_s: steps as f64 / scalar_t,
        batched_standard_steps_per_s: steps as f64 / fleet_std_t,
        batched_steps_per_s: steps as f64 / fleet_t,
        batched_mt_steps_per_s: steps as f64 / fleet_mt_t,
        digest_scalar_standard,
        digest_fleet_standard,
        digest_scalar_coarse,
        digest_fleet_coarse,
        digest_fleet_coarse_mt,
        speedup_gate: if host_cores < 2 {
            GATE_SKIPPED_SINGLE_CORE
        } else {
            GATE_ENFORCED
        },
    }
}

/// Renders the report as pretty-printed JSON (hand-rolled, like
/// [`perf::to_json`](crate::perf::to_json), for stable committed output).
pub fn to_json(report: &BatchKernelReport) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!(
        "  \"host_cores\": {},\n  \"threads\": {},\n  \"exec_policy\": \"{}\",\n",
        report.host_cores, report.threads, report.exec_policy
    ));
    out.push_str(&format!(
        "  \"lanes\": {},\n  \"steps\": {},\n",
        report.lanes, report.steps
    ));
    out.push_str(&format!(
        "  \"grid\": {{\"standard_nodes\": {}, \"coarse_nodes\": {}, \"coarse_gamma\": {:.2}}},\n",
        report.grid_nodes_standard, report.grid_nodes_coarse, COARSE_GAMMA
    ));
    out.push_str(&format!(
        "  \"kernel\": {{\"scalar_steps_per_s\": {:.0}, \"batched_standard_steps_per_s\": {:.0}, \"batched_steps_per_s\": {:.0}, \"batched_mt_steps_per_s\": {:.0}, \"batch_gain\": {:.2}, \"mt_speedup\": {:.2}}},\n",
        report.scalar_steps_per_s,
        report.batched_standard_steps_per_s,
        report.batched_steps_per_s,
        report.batched_mt_steps_per_s,
        report.batch_gain(),
        report.mt_speedup(),
    ));
    out.push_str(&format!(
        "  \"digests\": {{\"scalar_standard\": \"{:016x}\", \"fleet_standard\": \"{:016x}\", \"scalar_coarse\": \"{:016x}\", \"fleet_coarse\": \"{:016x}\", \"fleet_coarse_mt\": \"{:016x}\"}},\n",
        report.digest_scalar_standard,
        report.digest_fleet_standard,
        report.digest_scalar_coarse,
        report.digest_fleet_coarse,
        report.digest_fleet_coarse_mt,
    ));
    out.push_str(&format!(
        "  \"all_digests_match\": {},\n  \"speedup_gate\": \"{}\"\n}}\n",
        report.all_digests_match(),
        report.speedup_gate
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_rendering_is_valid_shape() {
        let report = BatchKernelReport {
            host_cores: 4,
            threads: 4,
            exec_policy: String::from("Auto"),
            lanes: 32,
            steps: 6432,
            grid_nodes_standard: 46,
            grid_nodes_coarse: 14,
            scalar_steps_per_s: 1_000_000.0,
            batched_standard_steps_per_s: 1_500_000.0,
            batched_steps_per_s: 3_500_000.0,
            batched_mt_steps_per_s: 7_000_000.0,
            digest_scalar_standard: 7,
            digest_fleet_standard: 7,
            digest_scalar_coarse: 9,
            digest_fleet_coarse: 9,
            digest_fleet_coarse_mt: 9,
            speedup_gate: GATE_ENFORCED,
        };
        assert!(report.all_digests_match());
        assert!((report.batch_gain() - 3.5).abs() < 1e-12);
        assert!((report.mt_speedup() - 2.0).abs() < 1e-12);
        let json = to_json(&report);
        assert!(json.contains("\"batch_gain\": 3.50"));
        assert!(json.contains("\"speedup_gate\": \"enforced\""));
        assert!(json.contains("\"all_digests_match\": true"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn digest_mismatch_is_detected_per_pair() {
        let mut report = BatchKernelReport {
            host_cores: 1,
            threads: 1,
            exec_policy: String::from("Sequential"),
            lanes: 2,
            steps: 10,
            grid_nodes_standard: 40,
            grid_nodes_coarse: 12,
            scalar_steps_per_s: 1.0,
            batched_standard_steps_per_s: 1.0,
            batched_steps_per_s: 1.0,
            batched_mt_steps_per_s: 1.0,
            digest_scalar_standard: 1,
            digest_fleet_standard: 1,
            digest_scalar_coarse: 2,
            digest_fleet_coarse: 2,
            digest_fleet_coarse_mt: 2,
            speedup_gate: GATE_SKIPPED_SINGLE_CORE,
        };
        assert!(report.all_digests_match());
        report.digest_fleet_coarse_mt = 3;
        assert!(!report.all_digests_match(), "mt divergence must fail");
    }

    /// The real workload at reduced scale: every digest pair must agree.
    #[test]
    fn small_fleet_digests_agree() {
        use bios_electrochem::{simulate_chrono_fleet, simulate_chrono_with};

        let (cells, bulk_ox, bulk_red) = fleet();
        let couple = RedoxCouple::ferrocyanide();
        let program = PotentialProgram::Hold {
            potential: Volts::new(0.65),
            duration: Seconds::new(0.05),
        };
        let take = 4usize;
        for gamma in [None, Some(COARSE_GAMMA)] {
            let scalar: Vec<Transient> = cells[..take]
                .iter()
                .zip(bulk_ox[..take].iter().zip(&bulk_red[..take]))
                .map(|(cell, (&ox, &red))| {
                    simulate_chrono_with(cell, &couple, ox, red, &program, options(gamma))
                        .expect("scalar")
                })
                .collect();
            let batched = simulate_chrono_fleet(
                &cells[..take],
                &couple,
                &bulk_ox[..take],
                &bulk_red[..take],
                &program,
                options(gamma),
            )
            .expect("fleet");
            assert_eq!(
                digest_debug(&scalar),
                digest_debug(&batched),
                "gamma {gamma:?}"
            );
        }
    }
}
