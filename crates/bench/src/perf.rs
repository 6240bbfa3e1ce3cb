//! Execution-engine perf harness: times representative platform workloads
//! sequentially and in parallel, checks the outputs are byte-identical
//! (the engine's contract), and measures the diffusion kernel's step rate.
//!
//! The `repro_throughput` binary drives this module and writes the result
//! as `BENCH_2.json`; CI's perf-smoke job gates on `digests_match` and a
//! minimum speedup. Digests are FNV-1a over the `Debug` rendering of each
//! workload's full result — `f64`'s `Debug` is shortest-roundtrip, so two
//! digests agree iff every float in both results is bit-identical.

use std::hint::black_box;
use std::time::Instant;

use bios_explore::{explore, ExploreSpace, ExploreSpec};
use bios_platform::{par_map, ExecPolicy, PanelSpec, SessionOptions};

/// Seeds for the session-batch workload: one full Fig. 4 session each.
const SESSION_SEEDS: u64 = 12;

/// Seeds for the fault-matrix workload (each seed ⇒ 46 sessions).
const MATRIX_SEEDS: [u64; 2] = [2011, 7];

/// Timed samples per workload variant (min is reported).
const SAMPLES: usize = 3;

/// Times `routine`: one warm-up call, then `samples.max(1)` timed calls.
/// Returns the fastest call in seconds, the sample least contaminated by
/// scheduler noise, which is what every speedup gate reads.
pub(crate) fn measure<O>(samples: usize, mut routine: impl FnMut() -> O) -> f64 {
    black_box(routine());
    let mut fastest_ns = f64::INFINITY;
    for _ in 0..samples.max(1) {
        let start = Instant::now();
        black_box(routine());
        fastest_ns = fastest_ns.min(start.elapsed().as_nanos() as f64);
    }
    fastest_ns / 1e9
}

/// FNV-1a over a byte stream.
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Content digest of any `Debug`-rendering value (see module docs for why
/// this is exact for floats).
pub fn digest_debug<T: std::fmt::Debug>(value: &T) -> u64 {
    fnv1a(format!("{value:?}").into_bytes())
}

/// One workload timed under both policies.
#[derive(Debug, Clone)]
pub struct WorkloadResult {
    /// Workload name.
    pub name: &'static str,
    /// Independent work units fanned out.
    pub units: usize,
    /// Best sequential wall time, seconds.
    pub sequential_s: f64,
    /// Best parallel wall time, seconds.
    pub parallel_s: f64,
    /// Result digest under the sequential policy.
    pub digest_sequential: u64,
    /// Result digest under the parallel policy.
    pub digest_parallel: u64,
}

impl WorkloadResult {
    /// Sequential time over parallel time.
    pub fn speedup(&self) -> f64 {
        self.sequential_s / self.parallel_s
    }

    /// Whether parallel output was byte-identical to sequential.
    pub fn digests_match(&self) -> bool {
        self.digest_sequential == self.digest_parallel
    }

    /// Work units per second under the parallel policy.
    pub fn units_per_s(&self) -> f64 {
        self.units as f64 / self.parallel_s
    }
}

/// Solver-kernel throughput: backward-Euler steps per second.
#[derive(Debug, Clone, Copy)]
pub struct KernelResult {
    /// Implicit solver steps per timed run.
    pub steps: usize,
    /// Steps/s of the best timed run.
    pub steps_per_s: f64,
}

/// The full harness output.
#[derive(Debug, Clone)]
pub struct PerfReport {
    /// `std::thread::available_parallelism` on the measuring host.
    pub host_threads: usize,
    /// Worker count the parallel policy resolved to.
    pub parallel_threads: usize,
    /// The [`ExecPolicy`] the parallel variant ran under, rendered —
    /// without it a committed report can't be compared across hosts.
    pub exec_policy: String,
    /// Per-workload timings and digests.
    pub workloads: Vec<WorkloadResult>,
    /// Solver-kernel numbers.
    pub kernel: KernelResult,
}

impl PerfReport {
    /// True iff every workload's parallel output matched sequential.
    pub fn all_digests_match(&self) -> bool {
        self.workloads.iter().all(WorkloadResult::digests_match)
    }

    /// The smallest speedup across workloads.
    pub fn min_speedup(&self) -> f64 {
        self.workloads
            .iter()
            .map(WorkloadResult::speedup)
            .fold(f64::INFINITY, f64::min)
    }

    /// Gate disposition for this host: on a single-core host no speedup
    /// is expressible, so the gate is *skipped* — and the committed
    /// report says so, instead of recording `host_cores: 1` silently
    /// next to a ~1.0 "speedup" that never gated anything.
    pub fn speedup_gate(&self) -> &'static str {
        if self.host_threads < 2 {
            crate::batch::GATE_SKIPPED_SINGLE_CORE
        } else {
            crate::batch::GATE_ENFORCED
        }
    }
}

/// Times one workload under the sequential policy and under `policy`,
/// digesting one representative run of each.
fn time_workload<T: std::fmt::Debug>(
    name: &'static str,
    units: usize,
    policy: ExecPolicy,
    run: impl Fn(ExecPolicy) -> T,
) -> WorkloadResult {
    let digest_sequential = digest_debug(&run(ExecPolicy::Sequential));
    let digest_parallel = digest_debug(&run(policy));
    let seq = measure(SAMPLES, || run(ExecPolicy::Sequential));
    let par = measure(SAMPLES, || run(policy));
    WorkloadResult {
        name,
        units,
        sequential_s: seq,
        parallel_s: par,
        digest_sequential,
        digest_parallel,
    }
}

/// Runs the full harness under `policy` (the parallel variant; sequential
/// is always the reference).
pub fn run(policy: ExecPolicy) -> PerfReport {
    let platform = crate::fig4::build_platform();
    let sample = crate::fig4::reference_sample();
    let explore_spec = ExploreSpec {
        space: ExploreSpace::paper_default(),
        ..ExploreSpec::standard(PanelSpec::paper_fig4())
    };

    // Workload 1: a batch of independent full sessions (seeds fan out;
    // electrodes inside each session stay sequential — batch-level
    // parallelism scales further than the 5-electrode session fan-out).
    let seeds: Vec<u64> = (0..SESSION_SEEDS).map(|k| 2011 + 31 * k).collect();
    let session_opts = SessionOptions::default().with_exec(ExecPolicy::Sequential);
    let sessions = time_workload("session_batch", seeds.len(), policy, |p| {
        par_map(p, &seeds, |_, &s| {
            platform
                .run_session_with(&sample, s, &session_opts)
                .expect("session")
        })
    });

    // Workload 2: the exploration pipeline over the paper's 96-point
    // sub-box (static passes, then the surviving band scored in shards).
    let explore = time_workload("explore", explore_spec.space.len() as usize, policy, |p| {
        explore(&explore_spec, p).expect("explore")
    });

    // Workload 3: the fault matrix (45 cells × seeds, plus baselines).
    let matrix_units = bios_afe::FaultKind::ALL.len() * crate::fault_matrix::SEVERITIES.len();
    let matrix = time_workload("fault_matrix", matrix_units, policy, |p| {
        let report = crate::fault_matrix::run_with(&MATRIX_SEEDS, p);
        // Digest the rendered matrix plus counters: MatrixReport's Debug
        // covers every outcome, retry and quarantine count.
        format!("{report:?}")
    });

    // Solver kernel: many short chronoamperometric transients.
    let kernel = kernel_throughput();

    let host_threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    PerfReport {
        host_threads,
        parallel_threads: policy.threads_for(usize::MAX),
        exec_policy: format!("{policy:?}"),
        workloads: vec![sessions, explore, matrix],
        kernel,
    }
}

/// Steps/s of the backward-Euler diffusion kernel over many *short*
/// transients, the way protocol drivers use the solver (one fresh
/// `DiffusionSim` per measurement), so construction cost — assembly,
/// factorization and the unit-flux solve — is not amortized away by one
/// long hold.
fn kernel_throughput() -> KernelResult {
    use bios_electrochem::{simulate_chrono, Cell, Electrode, PotentialProgram, RedoxCouple};
    use bios_units::{Molar, Seconds, Volts};

    const REPS: usize = 60;
    let cell = Cell::builder(Electrode::paper_gold_we())
        .build()
        .expect("cell");
    let couple = RedoxCouple::ferrocyanide();
    let program = PotentialProgram::Hold {
        potential: Volts::new(0.65),
        duration: Seconds::new(0.5),
    };
    let run_single = || {
        simulate_chrono(
            &cell,
            &couple,
            Molar::from_millimolar(1.0),
            Molar::ZERO,
            &program,
        )
        .expect("transient")
    };
    let steps = run_single().len() * REPS;

    let timed = measure(SAMPLES, || {
        for _ in 0..REPS {
            black_box(run_single());
        }
    });
    KernelResult {
        steps,
        steps_per_s: steps as f64 / timed,
    }
}

/// Renders the report as pretty-printed JSON (hand-rolled: the vendored
/// `serde_json` shim has no pretty printer, and the file is committed, so
/// stable readable formatting matters more than a serializer).
pub fn to_json(report: &PerfReport) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!(
        "  \"host_cores\": {},\n  \"threads\": {},\n  \"exec_policy\": \"{}\",\n",
        report.host_threads, report.parallel_threads, report.exec_policy
    ));
    out.push_str("  \"workloads\": [\n");
    for (i, w) in report.workloads.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"units\": {}, \"sequential_s\": {:.4}, \"parallel_s\": {:.4}, \"speedup\": {:.2}, \"units_per_s\": {:.2}, \"digest_sequential\": \"{:016x}\", \"digest_parallel\": \"{:016x}\", \"digests_match\": {}}}{}\n",
            w.name,
            w.units,
            w.sequential_s,
            w.parallel_s,
            w.speedup(),
            w.units_per_s(),
            w.digest_sequential,
            w.digest_parallel,
            w.digests_match(),
            if i + 1 < report.workloads.len() { "," } else { "" },
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"kernel\": {{\"steps\": {}, \"steps_per_s\": {:.0}}},\n",
        report.kernel.steps, report.kernel.steps_per_s,
    ));
    out.push_str(&format!(
        "  \"all_digests_match\": {},\n  \"min_speedup\": {:.2},\n  \"speedup_gate\": \"{}\"\n}}\n",
        report.all_digests_match(),
        report.min_speedup(),
        report.speedup_gate()
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_sensitive_and_stable() {
        let a = digest_debug(&vec![1.0f64, 2.0, 3.0]);
        let b = digest_debug(&vec![1.0f64, 2.0, 3.0]);
        let c = digest_debug(&vec![1.0f64, 2.0, f64::from_bits(3.0f64.to_bits() + 1)]);
        assert_eq!(a, b);
        assert_ne!(a, c, "a 1-ULP difference must change the digest");
    }

    #[test]
    fn json_rendering_is_valid_shape() {
        let report = PerfReport {
            host_threads: 4,
            parallel_threads: 4,
            exec_policy: String::from("Auto"),
            workloads: vec![WorkloadResult {
                name: "probe",
                units: 10,
                sequential_s: 1.0,
                parallel_s: 0.25,
                digest_sequential: 7,
                digest_parallel: 7,
            }],
            kernel: KernelResult {
                steps: 100,
                steps_per_s: 1000.0,
            },
        };
        let json = to_json(&report);
        assert!(json.contains("\"host_cores\": 4"));
        assert!(json.contains("\"threads\": 4"));
        assert!(json.contains("\"exec_policy\": \"Auto\""));
        assert!(json.contains("\"speedup\": 4.00"));
        assert!(json.contains("\"digests_match\": true"));
        assert!(json.contains("\"min_speedup\": 4.00"));
        assert!(json.contains("\"speedup_gate\": \"enforced\""));
        // Balanced braces/brackets — cheap structural sanity.
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "balanced objects"
        );
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }
}
