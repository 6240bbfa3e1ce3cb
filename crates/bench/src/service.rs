//! Serving harness: sustained fleet load, chaos matrix and admission
//! probes against `bios-server`, written as `BENCH_6.json`.
//!
//! Four phases, one report:
//!
//! 1. **Sustained load** — thousands of concurrent sessions driven to
//!    completion, every served report compared bit-for-bit against a
//!    same-seed blocking baseline (any mismatch is a silent corruption),
//!    with p50/p99/max per-step latency sampled through a wall
//!    [`bios_server::Clock`].
//! 2. **Chaos matrix** — server-level faults (device stalls, mid-session
//!    aborts) crossed with AFE fault overlays; every induced failure must
//!    surface (typed outcome, flagged report or fleet quarantine) or be
//!    absorbed within the fault-matrix tolerance. Anything materially
//!    wrong yet presented as clean counts as a silent corruption.
//! 3. **Overload probe** — a queue-full storm past the admission bound;
//!    rejections must be typed [`ServerError::Overloaded`], the bound
//!    must never be exceeded, and shed work must be reported.
//! 4. **Quarantine probe** — a chronically failing device must be
//!    fleet-quarantined and then refused with a typed
//!    [`ServerError::Quarantined`].
//!
//! The acceptance target across all phases is **zero** silent
//! corruptions: under load, chaos and overload, every degradation carries
//! provenance.

use crate::fault_matrix::TOLERANCE;
use bios_afe::{Fault, FaultKind, FaultPlan};
use bios_biochem::Analyte;
use bios_instrument::{QcClass, QcGate};
use bios_platform::{par_map, ExecPolicy, SessionOptions, SessionReport};
use bios_server::{
    ChaosPlan, Clock, DiagnosticsServer, ServerConfig, ServerError, ServiceTier, SessionOutcome,
    SessionRequest,
};

/// A real monotonic clock for latency telemetry. Lives here — not in
/// `bios-server` — because `bios-bench` is the one crate that allows
/// clippy's wall-clock bans (`clippy.toml`): the serving control path
/// must never read wall time itself.
pub struct WallClock {
    origin: std::time::Instant,
}

impl WallClock {
    /// A clock anchored at construction.
    pub fn new() -> Self {
        Self {
            origin: std::time::Instant::now(),
        }
    }
}

impl Default for WallClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for WallClock {
    fn now_nanos(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }
}

/// Distinct session seeds cycled across the fleet (keeps the baseline set
/// small while still exercising seed diversity).
const LOAD_SEED_CYCLE: u64 = 64;

/// Devices per chaos-matrix cell.
const CHAOS_DEVICES: u64 = 32;

/// Phase 1 result: sustained concurrent load.
#[derive(Debug, Clone)]
pub struct LoadResult {
    /// Sessions submitted (= devices).
    pub sessions: usize,
    /// Shards the fleet ran on.
    pub shards: usize,
    /// Most sessions simultaneously in flight after any tick.
    pub concurrent_peak: usize,
    /// Virtual ticks to drain the fleet.
    pub ticks: u64,
    /// State-machine steps executed.
    pub steps: u64,
    /// Sessions served as `Completed`.
    pub completed: usize,
    /// Sessions served as anything else (must be 0 under clean load).
    pub non_completed: usize,
    /// Served reports that were NOT bit-identical to their same-seed
    /// blocking baseline — silent corruptions; the gate is 0.
    pub mismatches: usize,
    /// Median per-step latency, microseconds.
    pub p50_step_us: f64,
    /// 99th-percentile per-step latency, microseconds.
    pub p99_step_us: f64,
    /// Worst per-step latency, microseconds.
    pub max_step_us: f64,
    /// Wall time to serve the whole fleet, seconds.
    pub wall_s: f64,
}

impl LoadResult {
    /// Sessions served per wall second.
    pub fn sessions_per_s(&self) -> f64 {
        self.sessions as f64 / self.wall_s.max(1e-9)
    }
}

/// One cell of the chaos matrix: a server-fault mix crossed with an AFE
/// overlay setting.
#[derive(Debug, Clone)]
pub struct ChaosCell {
    /// Server-level fault mix injected ("none", "stall", "abort",
    /// "stall+abort").
    pub server_fault: &'static str,
    /// Whether randomized AFE fault plans were laid over the sessions.
    pub afe_overlay: bool,
    /// Devices driven through the cell.
    pub devices: usize,
    /// Devices the chaos plan actually scheduled a fault on.
    pub induced: usize,
    /// Induced failures that surfaced with provenance (typed non-clean
    /// outcome, flagged/degraded report, or fleet quarantine).
    pub surfaced: usize,
    /// Induced faults absorbed within tolerance (reading matched the
    /// fault-free baseline) with a clean outcome.
    pub recovered: usize,
    /// Materially wrong results presented as clean — the count that must
    /// be 0.
    pub silent: usize,
    /// Devices fleet-quarantined during the cell.
    pub quarantined: usize,
}

/// Phase 3 result: the queue-full storm.
#[derive(Debug, Clone)]
pub struct OverloadProbe {
    /// Requests burst at the server.
    pub attempted: usize,
    /// Requests admitted within the bound.
    pub admitted: usize,
    /// Requests refused with a typed `Overloaded` error.
    pub rejected_overloaded: usize,
    /// The configured per-shard queue bound.
    pub queue_capacity: usize,
    /// Highest queue occupancy observed.
    pub peak_queue: usize,
    /// Queued work shed (typed, tier-ordered) while draining.
    pub shed: usize,
    /// Admitted sessions that reached a terminal outcome.
    pub drained: usize,
    /// True iff `peak_queue <= queue_capacity` and every refusal was the
    /// typed error.
    pub bound_respected: bool,
}

/// Phase 4 result: fleet quarantine of a chronically failing device.
#[derive(Debug, Clone)]
pub struct QuarantineProbe {
    /// Failed sessions before the device was quarantined.
    pub sessions_to_quarantine: usize,
    /// Whether the post-quarantine submission was refused with the typed
    /// `Quarantined` error.
    pub rejection_typed: bool,
}

/// The full serving-harness report (rendered to `BENCH_6.json`).
#[derive(Debug, Clone)]
pub struct ServiceReport {
    /// `std::thread::available_parallelism` on the measuring host.
    pub host_cores: usize,
    /// Worker count the policy resolved to.
    pub threads: usize,
    /// The `ExecPolicy` the fleet ran under, rendered.
    pub exec_policy: String,
    /// Phase 1.
    pub load: LoadResult,
    /// Phase 2, all cells.
    pub chaos: Vec<ChaosCell>,
    /// Phase 3.
    pub overload: OverloadProbe,
    /// Phase 4.
    pub quarantine: QuarantineProbe,
}

impl ServiceReport {
    /// Silent corruptions across every phase — the number that must be 0.
    pub fn silent_corruptions(&self) -> usize {
        self.load.mismatches + self.chaos.iter().map(|c| c.silent).sum::<usize>()
    }

    /// True iff every induced chaos failure either surfaced with
    /// provenance or was absorbed within tolerance.
    pub fn all_chaos_surfaced(&self) -> bool {
        self.chaos
            .iter()
            .all(|c| c.surfaced + c.recovered == c.induced && c.silent == 0)
    }

    /// True iff the admission contract held: bound never exceeded, every
    /// refusal typed, quarantine rejection typed.
    pub fn admission_contract_held(&self) -> bool {
        self.overload.bound_respected && self.quarantine.rejection_typed
    }

    /// Host-parallelism disposition recorded in the JSON: throughput and
    /// latency figures measured on a single-core host carry no parallel
    /// signal, and a committed report must say so explicitly rather than
    /// leave a silent `host_cores: 1` next to numbers that look like
    /// fleet-level parallelism.
    pub fn parallelism_disposition(&self) -> &'static str {
        if self.host_cores < 2 {
            "single_core_host_no_parallel_signal"
        } else {
            "multi_core"
        }
    }
}

/// Runs all four phases. `sessions` sizes the sustained-load fleet; the
/// chaos matrix and probes are fixed-size.
pub fn run(policy: ExecPolicy, sessions: usize) -> ServiceReport {
    let host_cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    ServiceReport {
        host_cores,
        threads: policy.threads_for(usize::MAX),
        exec_policy: format!("{policy:?}"),
        load: run_load(policy, sessions),
        chaos: run_chaos_matrix(policy),
        overload: run_overload_probe(),
        quarantine: run_quarantine_probe(),
    }
}

fn load_seed(device: u64) -> u64 {
    4000 + (device % LOAD_SEED_CYCLE) * 97
}

/// Phase 1: submit `sessions` sessions at once, drive the whole fleet to
/// completion, and verify every served report bit-for-bit.
fn run_load(policy: ExecPolicy, sessions: usize) -> LoadResult {
    let platform = crate::fig4::build_platform();
    let sample = crate::fig4::reference_sample();
    let shards = 8usize;
    let per_shard = sessions.div_ceil(shards);
    let config = ServerConfig::default()
        .with_shards(shards)
        .with_queue_capacity(per_shard.max(1))
        .with_shed_watermark(per_shard.max(1))
        .with_max_active(per_shard.max(1))
        .with_steps_per_tick(2)
        .with_deadline_ticks(1_000_000)
        .with_exec(policy);
    let mut server = DiagnosticsServer::new(&platform, config);
    for device in 0..sessions as u64 {
        server
            .submit(SessionRequest {
                device,
                tier: ServiceTier::Routine,
                sample: sample.clone(),
                seed: load_seed(device),
            })
            .expect("load fleet sized to fit the queues");
    }

    let clock = WallClock::new();
    let t0 = clock.now_nanos();
    let mut concurrent_peak = 0usize;
    let mut steps = 0u64;
    let mut ticks = 0u64;
    while !server.is_idle() {
        let summary = server.tick(&clock);
        steps += summary.steps;
        ticks += 1;
        concurrent_peak = concurrent_peak.max(server.in_flight());
    }
    let wall_s = (clock.now_nanos() - t0) as f64 / 1e9;

    let mut latencies = server.drain_latencies();
    latencies.sort_unstable();
    let pct = |p: f64| -> f64 {
        if latencies.is_empty() {
            return 0.0;
        }
        let idx = ((latencies.len() - 1) as f64 * p).round() as usize;
        latencies[idx] as f64 / 1e3
    };
    let (p50_step_us, p99_step_us, max_step_us) = (pct(0.50), pct(0.99), pct(1.0));

    // Bit-exact verification: one blocking baseline per distinct seed
    // (sessions are pure functions of (sample, seed, options), and the
    // server pins per-session exec to sequential).
    let baseline_opts = SessionOptions::default().with_exec(ExecPolicy::Sequential);
    let seed_cycle: Vec<u64> = (0..LOAD_SEED_CYCLE.min(sessions as u64))
        .map(load_seed)
        .collect();
    let baselines: Vec<SessionReport> = par_map(policy, &seed_cycle, |_, &s| {
        platform
            .run_session_with(&sample, s, &baseline_opts)
            .expect("baseline session")
    });
    let baseline_for = |seed: u64| -> &SessionReport {
        &baselines[seed_cycle
            .iter()
            .position(|&s| s == seed)
            .expect("seed from cycle")]
    };

    let mut completed = 0usize;
    let mut non_completed = 0usize;
    let mut mismatches = 0usize;
    for served in server.drain_completed() {
        match &served.outcome {
            SessionOutcome::Completed(report) => {
                completed += 1;
                if report != baseline_for(served.seed) {
                    mismatches += 1;
                }
            }
            SessionOutcome::DeadlineMiss(_)
            | SessionOutcome::Aborted(_)
            | SessionOutcome::Shed
            | SessionOutcome::Failed { .. } => non_completed += 1,
        }
    }

    LoadResult {
        sessions,
        shards,
        concurrent_peak,
        ticks,
        steps,
        completed,
        non_completed,
        mismatches,
        p50_step_us,
        p99_step_us,
        max_step_us,
        wall_s,
    }
}

/// Phase 2: server faults × AFE overlay, every induced failure judged
/// against a same-seed fault-free baseline.
fn run_chaos_matrix(policy: ExecPolicy) -> Vec<ChaosCell> {
    let platform = crate::fig4::build_platform();
    let sample = crate::fig4::reference_sample();
    let options = SessionOptions::default().with_qc(QcGate::default());
    let baseline_opts = options.clone().with_exec(ExecPolicy::Sequential);

    // (label, stall rate, abort rate) × AFE overlay on/off. Stall length
    // exceeds the deadline so an un-surfaced stall cannot hide.
    let server_faults: [(&'static str, f64, f64); 4] = [
        ("none", 0.0, 0.0),
        ("stall", 0.6, 0.0),
        ("abort", 0.0, 0.6),
        ("stall+abort", 0.6, 0.6),
    ];
    let grid: Vec<(usize, &'static str, f64, f64, bool)> = server_faults
        .iter()
        .flat_map(|&(label, stall, abort)| {
            [false, true]
                .into_iter()
                .map(move |afe| (label, stall, abort, afe))
        })
        .enumerate()
        .map(|(i, (label, stall, abort, afe))| (i, label, stall, abort, afe))
        .collect();

    grid.iter()
        .map(|&(cell_idx, label, stall_rate, abort_rate, afe)| {
            let chaos = ChaosPlan::new(900 + cell_idx as u64)
                .with_stalls(stall_rate, 64)
                .with_aborts(abort_rate)
                .with_afe_faults(if afe { 0.8 } else { 0.0 });
            let config = ServerConfig::default()
                .with_shards(4)
                .with_deadline_ticks(24)
                .with_steps_per_tick(4)
                .with_exec(policy);
            let mut server = DiagnosticsServer::with_options(&platform, config, options.clone())
                .with_chaos(chaos.clone());
            let seed_of = |device: u64| 10_000 + cell_idx as u64 * 1000 + device;
            for device in 0..CHAOS_DEVICES {
                server
                    .submit(SessionRequest {
                        device,
                        tier: ServiceTier::Routine,
                        sample: sample.clone(),
                        seed: seed_of(device),
                    })
                    .expect("chaos fleet fits the default queues");
            }
            server.run_until_idle(&bios_server::NullClock, 1_000_000);
            let quarantined = server.quarantined_devices();

            let devices: Vec<u64> = (0..CHAOS_DEVICES).collect();
            let wes = platform.assignments().len();
            let baselines: Vec<SessionReport> = par_map(policy, &devices, |_, &d| {
                platform
                    .run_session_with(&sample, seed_of(d), &baseline_opts)
                    .expect("baseline session")
            });

            let mut cell = ChaosCell {
                server_fault: label,
                afe_overlay: afe,
                devices: CHAOS_DEVICES as usize,
                induced: 0,
                surfaced: 0,
                recovered: 0,
                silent: 0,
                quarantined: quarantined.len(),
            };
            for served in server.drain_completed() {
                let device = served.device;
                let induced = !chaos.faults_for(device).is_empty()
                    || chaos.fault_plan_for(device, wes).is_some();
                let baseline = &baselines[device as usize];
                let clean_outcome = served.outcome.is_clean();
                // Flagged readings (Suspect/Fail class) are surfaced
                // degradation even when the session itself completed
                // cleanly — same rule the fault matrix applies.
                let flagged = served
                    .outcome
                    .report()
                    .is_some_and(|r| r.qualities().iter().any(|q| q.class != QcClass::Pass));
                let surfaced = !clean_outcome || flagged || quarantined.contains(&device);
                if induced {
                    cell.induced += 1;
                    if surfaced {
                        cell.surfaced += 1;
                    } else if within_tolerance(
                        served.outcome.report().expect("clean ⇒ report"),
                        baseline,
                    ) {
                        cell.recovered += 1;
                    } else {
                        cell.silent += 1;
                    }
                } else {
                    // An unfaulted device must come back bit-identical —
                    // scheduling alone corrupting a result is the worst
                    // kind of silent failure.
                    let intact = matches!(
                        &served.outcome,
                        SessionOutcome::Completed(report) if report == baseline
                    );
                    if !intact {
                        cell.silent += 1;
                    }
                }
            }
            cell
        })
        .collect()
}

/// Whether every panel reading in `report` matches the baseline within
/// the fault-matrix tolerance (same identification, same estimability).
fn within_tolerance(report: &SessionReport, baseline: &SessionReport) -> bool {
    baseline.readings().iter().all(|b| {
        let analyte = b.analyte;
        let Some(f) = report.reading_for(analyte) else {
            return false;
        };
        let deviation =
            (f.response.value() - b.response.value()).abs() / b.response.value().abs().max(1e-15);
        deviation <= TOLERANCE
            && f.identified == b.identified
            && f.estimated.is_some() == b.estimated.is_some()
    })
}

/// Phase 3: burst far past the queue bound, then drain.
fn run_overload_probe() -> OverloadProbe {
    let platform = crate::fig4::build_platform();
    let sample = crate::fig4::reference_sample();
    let capacity = 24usize;
    let config = ServerConfig::default()
        .with_shards(2)
        .with_queue_capacity(capacity)
        .with_shed_watermark(16)
        .with_max_active(8)
        .with_steps_per_tick(4);
    let mut server = DiagnosticsServer::new(&platform, config);

    let attempted = 120usize;
    let mut admitted = 0usize;
    let mut rejected = 0usize;
    let mut all_typed = true;
    for k in 0..attempted as u64 {
        let tier = match k % 3 {
            0 => ServiceTier::Stat,
            1 => ServiceTier::Routine,
            _ => ServiceTier::BestEffort,
        };
        match server.submit(SessionRequest {
            device: k,
            tier,
            sample: sample.clone(),
            seed: 70_000 + k,
        }) {
            Ok(()) => admitted += 1,
            Err(ServerError::Overloaded {
                queue_len,
                capacity: cap,
                ..
            }) => {
                rejected += 1;
                all_typed &= queue_len == cap;
            }
            Err(_) => all_typed = false,
        }
    }
    let peak_queue = server.peak_queue_len();
    server.run_until_idle(&bios_server::NullClock, 1_000_000);
    let served = server.drain_completed();
    let shed = served
        .iter()
        .filter(|c| matches!(c.outcome, SessionOutcome::Shed))
        .count();
    OverloadProbe {
        attempted,
        admitted,
        rejected_overloaded: rejected,
        queue_capacity: capacity,
        peak_queue,
        shed,
        drained: served.len(),
        bound_respected: all_typed && peak_queue <= capacity && served.len() == admitted,
    }
}

/// Phase 4: a device whose electrode is dead fails every session; the
/// fleet must quarantine it and refuse further work with a typed error.
fn run_quarantine_probe() -> QuarantineProbe {
    let platform = crate::fig4::build_platform();
    let sample = crate::fig4::reference_sample();
    let glucose_we = platform
        .assignments()
        .iter()
        .find(|a| a.targets().contains(&Analyte::Glucose))
        .map(|a| a.index())
        .unwrap_or(0);
    let plan = FaultPlan::new(31).with_fault(
        glucose_we,
        Fault::immediate(FaultKind::ElectrodeOpen, 1.0).expect("valid fault"),
    );
    let options = SessionOptions::default()
        .with_fault_plan(plan)
        .with_qc(QcGate::default());
    let config = ServerConfig::default()
        .with_shards(1)
        .with_quarantine_threshold(3);
    let mut server = DiagnosticsServer::with_options(&platform, config, options);

    let device = 5u64;
    let mut failed_sessions = 0usize;
    let mut rejection_typed = false;
    for k in 0..16u64 {
        match server.submit(SessionRequest {
            device,
            tier: ServiceTier::Routine,
            sample: sample.clone(),
            seed: 80_000 + k,
        }) {
            Ok(()) => {
                failed_sessions += 1;
                server.run_until_idle(&bios_server::NullClock, 1_000_000);
            }
            Err(ServerError::Quarantined { device: d }) => {
                rejection_typed = d == device;
                break;
            }
            Err(_) => break,
        }
    }
    QuarantineProbe {
        sessions_to_quarantine: failed_sessions,
        rejection_typed,
    }
}

/// Renders the report as pretty-printed JSON (hand-rolled, same rationale
/// as [`crate::perf::to_json`]: the vendored `serde_json` shim has no
/// pretty printer and the file is committed).
pub fn to_json(report: &ServiceReport) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!(
        "  \"host_cores\": {},\n  \"threads\": {},\n  \"exec_policy\": \"{}\",\n  \"parallelism\": \"{}\",\n",
        report.host_cores,
        report.threads,
        report.exec_policy,
        report.parallelism_disposition()
    ));
    let l = &report.load;
    out.push_str(&format!(
        "  \"load\": {{\"sessions\": {}, \"shards\": {}, \"concurrent_peak\": {}, \"ticks\": {}, \"steps\": {}, \"completed\": {}, \"non_completed\": {}, \"mismatches\": {}, \"p50_step_us\": {:.2}, \"p99_step_us\": {:.2}, \"max_step_us\": {:.2}, \"wall_s\": {:.3}, \"sessions_per_s\": {:.0}}},\n",
        l.sessions,
        l.shards,
        l.concurrent_peak,
        l.ticks,
        l.steps,
        l.completed,
        l.non_completed,
        l.mismatches,
        l.p50_step_us,
        l.p99_step_us,
        l.max_step_us,
        l.wall_s,
        l.sessions_per_s(),
    ));
    out.push_str("  \"chaos_matrix\": [\n");
    for (i, c) in report.chaos.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"server_fault\": \"{}\", \"afe_overlay\": {}, \"devices\": {}, \"induced\": {}, \"surfaced\": {}, \"recovered\": {}, \"silent\": {}, \"quarantined\": {}}}{}\n",
            c.server_fault,
            c.afe_overlay,
            c.devices,
            c.induced,
            c.surfaced,
            c.recovered,
            c.silent,
            c.quarantined,
            if i + 1 < report.chaos.len() { "," } else { "" },
        ));
    }
    out.push_str("  ],\n");
    let o = &report.overload;
    out.push_str(&format!(
        "  \"overload\": {{\"attempted\": {}, \"admitted\": {}, \"rejected_overloaded\": {}, \"queue_capacity\": {}, \"peak_queue\": {}, \"shed\": {}, \"drained\": {}, \"bound_respected\": {}}},\n",
        o.attempted,
        o.admitted,
        o.rejected_overloaded,
        o.queue_capacity,
        o.peak_queue,
        o.shed,
        o.drained,
        o.bound_respected,
    ));
    let q = &report.quarantine;
    out.push_str(&format!(
        "  \"quarantine\": {{\"sessions_to_quarantine\": {}, \"rejection_typed\": {}}},\n",
        q.sessions_to_quarantine, q.rejection_typed
    ));
    out.push_str(&format!(
        "  \"silent_corruptions\": {},\n  \"all_chaos_surfaced\": {},\n  \"admission_contract_held\": {}\n}}\n",
        report.silent_corruptions(),
        report.all_chaos_surfaced(),
        report.admission_contract_held(),
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_fleet_serves_clean_and_bit_identical() {
        let load = run_load(ExecPolicy::Sequential, 40);
        assert_eq!(load.completed, 40);
        assert_eq!(load.non_completed, 0);
        assert_eq!(load.mismatches, 0, "served reports must match baselines");
        assert!(load.concurrent_peak >= 40, "whole fleet in flight at once");
    }

    #[test]
    fn chaos_matrix_surfaces_every_induced_failure() {
        let cells = run_chaos_matrix(ExecPolicy::Sequential);
        assert_eq!(cells.len(), 8, "4 server-fault mixes x AFE on/off");
        for c in &cells {
            assert_eq!(
                c.silent, 0,
                "{} afe={}: silent corruption",
                c.server_fault, c.afe_overlay
            );
            assert_eq!(
                c.surfaced + c.recovered,
                c.induced,
                "{} afe={}: unaccounted induced failure",
                c.server_fault,
                c.afe_overlay
            );
        }
        // The stall and abort cells must actually induce something.
        assert!(cells.iter().any(|c| c.induced > 0 && c.surfaced > 0));
    }

    #[test]
    fn overload_probe_respects_the_bound_with_typed_rejections() {
        let probe = run_overload_probe();
        assert!(probe.bound_respected);
        assert!(
            probe.rejected_overloaded > 0,
            "storm must overflow the bound"
        );
        assert_eq!(probe.admitted + probe.rejected_overloaded, probe.attempted);
        assert!(probe.shed > 0, "watermark below capacity must shed");
    }

    #[test]
    fn quarantine_probe_trips_after_the_threshold() {
        let probe = run_quarantine_probe();
        assert_eq!(probe.sessions_to_quarantine, 3);
        assert!(probe.rejection_typed);
    }

    #[test]
    fn json_rendering_is_balanced_and_carries_the_gates() {
        let report = ServiceReport {
            host_cores: 4,
            threads: 4,
            exec_policy: String::from("Auto"),
            load: LoadResult {
                sessions: 10,
                shards: 2,
                concurrent_peak: 10,
                ticks: 5,
                steps: 200,
                completed: 10,
                non_completed: 0,
                mismatches: 0,
                p50_step_us: 20.0,
                p99_step_us: 40.0,
                max_step_us: 50.0,
                wall_s: 0.01,
            },
            chaos: vec![ChaosCell {
                server_fault: "stall",
                afe_overlay: true,
                devices: 8,
                induced: 5,
                surfaced: 5,
                recovered: 0,
                silent: 0,
                quarantined: 1,
            }],
            overload: OverloadProbe {
                attempted: 12,
                admitted: 8,
                rejected_overloaded: 4,
                queue_capacity: 4,
                peak_queue: 4,
                shed: 2,
                drained: 8,
                bound_respected: true,
            },
            quarantine: QuarantineProbe {
                sessions_to_quarantine: 3,
                rejection_typed: true,
            },
        };
        let json = to_json(&report);
        assert!(json.contains("\"silent_corruptions\": 0"));
        assert!(json.contains("\"all_chaos_surfaced\": true"));
        assert!(json.contains("\"admission_contract_held\": true"));
        assert!(json.contains("\"exec_policy\": \"Auto\""));
        assert!(json.contains("\"parallelism\": \"multi_core\""));
        let single = ServiceReport {
            host_cores: 1,
            ..report.clone()
        };
        assert!(to_json(&single).contains("single_core_host_no_parallel_signal"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }
}
