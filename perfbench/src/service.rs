//! `service_open`: a `DiagnosticsServer` with `ServerConfig::default()`,
//! first drained from a burst (capacity), then fed seeded Poisson
//! arrivals at a fixed rate (open loop). An AFE-fault overlay covers about
//! a fifth of the devices, so faulted devices take the BIST, retry,
//! backoff and quarantine path while clean devices take the plain one.

use crate::drive::{drive_session, write_session_metrics, LayerTimes, SessionTally};
use crate::probe::{fig4_platform, reference_sample, Replay};
use crate::report::Layers;
use crate::stats::{poisson_arrivals, sorted, tail, Fnv, Rng};
use crate::trace::Tracer;
use crate::{Cli, Measured};
use bios_afe::FaultKind;
use bios_biochem::Analyte;
use bios_instrument::{QcClass, QcGate};
use bios_platform::{par_map, ExecPolicy, Platform, SessionOptions, SessionReport};
use bios_server::{
    ChaosPlan, CompletedSession, DiagnosticsServer, NullClock, ServerConfig, ServerError,
    ServiceTier, SessionOutcome, SessionRequest,
};
use bios_units::Molar;
use std::collections::{HashMap, VecDeque};
use std::time::Instant;

/// Device ids requests are drawn from; a device recurs a few times a run.
const DEVICE_POOL: u64 = 4096;
/// Share of device ids given an AFE fault overlay. Ids whose overlay
/// holds a fault the QC gate misses are left out of the pool (see
/// [`device_pool`]), which leaves about a fifth of served devices faulted.
const AFE_FAULT_RATE: f64 = 0.3;
/// Distinct session seeds (each has one blocking baseline).
const SEED_CYCLE: usize = 64;
/// Sessions per capacity burst; 256 per default shard, under the shed
/// watermark.
const BURST: usize = 1024;
/// Bursts per run; capacity is their median drain rate.
const BURSTS: usize = 5;
/// Share of `--seconds` given to the open-loop arrivals.
const OPEN_LOOP_SHARE: f64 = 0.75;
/// Sessions served during set-up.
const WARMUP_SESSIONS: usize = 256;
/// Relative response deviation beyond which a clean-looking reading of a
/// faulted device counts as silently corrupted (the fault-matrix rule).
const TOLERANCE: f64 = 0.30;

pub struct State {
    platform: Platform,
    sample: Vec<(Analyte, Molar)>,
    options: SessionOptions,
    chaos: ChaosPlan,
    pool: Vec<u64>,
    seeds: Vec<u64>,
    rng: Rng,
}

/// One generated request: device and seed slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ask {
    device: u64,
    slot: usize,
}

fn asks(rng: &mut Rng, pool: &[u64], n: usize) -> Vec<Ask> {
    (0..n)
        .map(|_| Ask {
            device: pool[rng.below(pool.len() as u64) as usize],
            slot: rng.below(SEED_CYCLE as u64) as usize,
        })
        .collect()
}

/// The run's open-loop schedule: arrival offsets and their requests.
pub fn schedule(seed: u64, rate: f64, horizon_s: f64, pool: &[u64]) -> (Vec<f64>, Vec<Ask>) {
    let mut rng = Rng::new(seed ^ 0x0be7_100b);
    let arrivals = poisson_arrivals(&mut rng, rate, horizon_s);
    let asks = asks(&mut rng, pool, arrivals.len());
    (arrivals, asks)
}

/// Fault kinds the default QC gate can let through: a stuck multiplexer
/// (any electrode) or a crosstalk spike on the CV electrode can serve a
/// reading several times off with every verdict `Pass`.
const MISSED_BY_QC: [FaultKind; 2] = [FaultKind::MuxStuck, FaultKind::CrosstalkSpike];

/// Device ids whose overlay holds none of [`MISSED_BY_QC`]: such devices
/// would make some runs serve silent corruptions, so they are not sent.
pub fn device_pool(chaos: &ChaosPlan, electrodes: usize) -> Vec<u64> {
    (0..DEVICE_POOL)
        .filter(|&d| {
            chaos.fault_plan_for(d, electrodes).is_none_or(|plan| {
                (0..electrodes)
                    .flat_map(|we| plan.faults_for(we))
                    .all(|f| !MISSED_BY_QC.contains(&f.kind))
            })
        })
        .collect()
}

pub fn setup(cli: &Cli) -> State {
    let platform = fig4_platform();
    let sample = reference_sample();
    let options = SessionOptions::default().with_qc(QcGate::default());
    let chaos = ChaosPlan::new(cli.seed ^ 0xc4a0).with_afe_faults(AFE_FAULT_RATE);
    let seeds = crate::fig4::session_seeds(cli.seed ^ 0x5e55, SEED_CYCLE);
    let pool = device_pool(&chaos, platform.assignments().len());
    let mut state = State {
        platform,
        sample,
        options,
        chaos,
        pool,
        seeds,
        rng: Rng::new(cli.seed),
    };
    let warmup = asks(&mut state.rng, &state.pool, WARMUP_SESSIONS);
    let mut server = state.server(ExecPolicy::Auto);
    for ask in &warmup {
        let _ = server.submit(state.request(*ask));
    }
    server.run_until_idle(&NullClock, u64::MAX);
    server.drain_completed();
    state
}

impl State {
    fn server(&self, exec: ExecPolicy) -> DiagnosticsServer<'_> {
        DiagnosticsServer::with_options(
            &self.platform,
            ServerConfig::default().with_exec(exec),
            self.options.clone(),
        )
        .with_chaos(self.chaos.clone())
    }

    fn request(&self, ask: Ask) -> SessionRequest {
        SessionRequest {
            device: ask.device,
            tier: ServiceTier::Routine,
            sample: self.sample.clone(),
            seed: self.seeds[ask.slot],
        }
    }

    fn faulted(&self, device: u64) -> bool {
        self.chaos
            .fault_plan_for(device, self.platform.assignments().len())
            .is_some()
    }

    /// The options a request runs under inside the server: the base
    /// options plus the device's chaos overlay.
    fn options_for(&self, device: u64) -> SessionOptions {
        let mut options = self.options.clone().with_exec(ExecPolicy::Sequential);
        if let Some(plan) = self
            .chaos
            .fault_plan_for(device, self.platform.assignments().len())
        {
            options.fault_plan = Some(plan);
        }
        options
    }

    /// The fault-free blocking report of each seed slot.
    fn baselines(&self) -> Vec<SessionReport> {
        let sequential = self.options.clone().with_exec(ExecPolicy::Sequential);
        par_map(ExecPolicy::Auto, &self.seeds, |_, &s| {
            self.platform
                .run_session_with(&self.sample, s, &sequential)
                .expect("baseline session")
        })
    }

    /// Checks each served faulted report against the blocking run of the
    /// same request. Runs after the timed region, so the self-test records
    /// it builds cannot warm the measured sessions.
    fn verify_faulted(&self, served: &[(u64, u64, u64)], m: &mut Measured) {
        let mut keys: Vec<(u64, u64)> = served.iter().map(|&(d, s, _)| (d, s)).collect();
        keys.sort_unstable();
        keys.dedup();
        let digests = par_map(ExecPolicy::Auto, &keys, |_, &(device, seed)| {
            let report = self
                .platform
                .run_session_with(&self.sample, seed, &self.options_for(device))
                .expect("faulted baseline session");
            report_digest(&report)
        });
        let expected: HashMap<(u64, u64), u64> = keys.into_iter().zip(digests).collect();
        for &(device, seed, digest) in served {
            if expected.get(&(device, seed)) != Some(&digest) {
                m.mismatch(format!(
                    "faulted device {device} seed {seed} differs from its blocking run"
                ));
            }
        }
    }
}

fn report_digest(report: &SessionReport) -> u64 {
    let mut h = Fnv::new();
    h.bytes(format!("{report:?}").as_bytes());
    h.finish()
}

/// Judges one served session. A clean device's report must equal its
/// blocking baseline bit for bit; a faulted device's report digest goes
/// to `faulted` for [`State::verify_faulted`]. A faulted device must also
/// surface its fault or stay within tolerance of the fault-free baseline
/// (the fault-matrix rule); a miss is a silent corruption, which the
/// platform rather than the server owns, so it counts as a failure but
/// does not make the run incorrect. Returns whether the session failed;
/// the caller counts it.
fn judge(
    state: &State,
    baselines: &[SessionReport],
    served: &CompletedSession,
    quarantined: &[u64],
    faulted: &mut Vec<(u64, u64, u64)>,
    m: &mut Measured,
) -> bool {
    let slot = state
        .seeds
        .iter()
        .position(|&s| s == served.seed)
        .unwrap_or(0);
    let baseline = &baselines[slot];
    match &served.outcome {
        SessionOutcome::Completed(report) => {
            if !state.faulted(served.device) {
                if report != baseline {
                    m.mismatches.push(format!(
                        "clean device {} seed {} differs from its blocking baseline",
                        served.device, served.seed
                    ));
                    return true;
                }
                return false;
            }
            faulted.push((served.device, served.seed, report_digest(report)));
            let flagged = report.qualities().iter().any(|q| q.class != QcClass::Pass);
            let surfaced =
                !served.outcome.is_clean() || flagged || quarantined.contains(&served.device);
            if !surfaced && !within_tolerance(report, baseline) {
                m.errors.push(format!(
                    "faulted device {} served a silently corrupted report",
                    served.device
                ));
                return true;
            }
            false
        }
        SessionOutcome::Failed { error } => {
            m.errors.push(error.clone());
            true
        }
        SessionOutcome::DeadlineMiss(_) | SessionOutcome::Aborted(_) | SessionOutcome::Shed => {
            m.errors.push(served.outcome.label().to_string());
            true
        }
    }
}

fn within_tolerance(report: &SessionReport, baseline: &SessionReport) -> bool {
    baseline.readings().iter().all(|b| {
        let Some(f) = report.reading_for(b.analyte) else {
            return false;
        };
        let deviation =
            (f.response.value() - b.response.value()).abs() / b.response.value().abs().max(1e-15);
        deviation <= TOLERANCE
            && f.identified == b.identified
            && f.estimated.is_some() == b.estimated.is_some()
    })
}

/// Counters of one serving phase.
#[derive(Debug, Default)]
struct Serve {
    /// Per served session: served time, one session, seconds from its
    /// due time to being served.
    done: Vec<(f64, f64, f64)>,
    lags_s: Vec<f64>,
    ticks_s: Vec<f64>,
    /// `(device, seed, report digest)` of every served faulted session.
    faulted: Vec<(u64, u64, u64)>,
    served: u64,
    refused_faulted: u64,
    refused_clean: u64,
    shed: u64,
    deadline: u64,
}

/// Submits `asks` at their due offsets (all at once when `due` is empty)
/// and ticks until every admitted session is served, judging each one.
fn serve(
    state: &State,
    server: &mut DiagnosticsServer<'_>,
    asks: &[Ask],
    due: &[f64],
    baselines: &[SessionReport],
    limit_s: f64,
    m: &mut Measured,
) -> Serve {
    let mut out = Serve::default();
    let mut pending: HashMap<(u64, u64), VecDeque<f64>> = HashMap::new();
    let start = Instant::now();
    let mut next = 0usize;
    while next < asks.len() || !server.is_idle() {
        let now = start.elapsed().as_secs_f64();
        while next < asks.len() && due.get(next).is_none_or(|&d| d <= now) {
            let at = due.get(next).copied().unwrap_or(0.0);
            out.lags_s.push(now - at);
            let ask = asks[next];
            let request = state.request(ask);
            let key = (request.device, request.seed);
            m.attempted += 1;
            match server.submit(request) {
                Ok(()) => pending.entry(key).or_default().push_back(at),
                Err(ServerError::Quarantined { .. }) if state.faulted(ask.device) => {
                    // Refusing a chronically faulty device is the correct
                    // answer, not a failure.
                    out.refused_faulted += 1;
                }
                Err(e) => {
                    out.refused_clean += 1;
                    m.failed += 1;
                    m.errors.push(e.to_string());
                }
            }
            next += 1;
        }
        if server.is_idle() {
            // Spin rather than sleep until the next arrival: waking a
            // halted virtual CPU takes a host-dependent while, which would
            // land in every latency after an idle gap.
            if let Some(&d) = due.get(next) {
                while start.elapsed().as_secs_f64() < d {
                    std::hint::spin_loop();
                }
            }
            continue;
        }
        let t0 = Instant::now();
        server.tick(&NullClock);
        out.ticks_s.push(t0.elapsed().as_secs_f64());
        let done = server.drain_completed();
        if done.is_empty() {
            continue;
        }
        let served_at = start.elapsed().as_secs_f64();
        let quarantined = server.quarantined_devices();
        for c in &done {
            let at = pending
                .get_mut(&(c.device, c.seed))
                .and_then(VecDeque::pop_front)
                .unwrap_or(0.0);
            let latency = served_at - at;
            out.served += 1;
            match &c.outcome {
                SessionOutcome::Shed => out.shed += 1,
                SessionOutcome::DeadlineMiss(_) => out.deadline += 1,
                _ => {}
            }
            let failed = judge(state, baselines, c, &quarantined, &mut out.faulted, m);
            if failed || latency > limit_s {
                m.failed += 1;
            }
            out.done.push((served_at, 1.0, latency));
        }
    }
    out
}

pub fn run(state: &mut State, cli: &Cli) -> Measured {
    let (due, open_asks) = schedule(
        cli.seed,
        cli.rate,
        OPEN_LOOP_SHARE * cli.seconds,
        &state.pool,
    );
    let burst_asks: Vec<Vec<Ask>> = (0..BURSTS)
        .map(|_| asks(&mut state.rng, &state.pool, BURST))
        .collect();
    let baselines = state.baselines();
    let limit_s = cli.latency_limit_ms / 1e3;
    let mut m = Measured::default();
    // One long-lived server for both phases: its per-step latency log is
    // never drained, so its growth shows in peak memory.
    let mut server = state.server(ExecPolicy::Auto);
    let mut burst_rates = Vec::new();
    let mut faulted = Vec::new();
    for asks in &burst_asks {
        let t0 = Instant::now();
        let burst = serve(
            state,
            &mut server,
            asks,
            &[],
            &baselines,
            f64::INFINITY,
            &mut m,
        );
        burst_rates.push(BURST as f64 / t0.elapsed().as_secs_f64());
        faulted.extend(burst.faulted);
    }
    let t0 = Instant::now();
    let open = serve(
        state,
        &mut server,
        &open_asks,
        &due,
        &baselines,
        limit_s,
        &mut m,
    );
    m.wall_s = t0.elapsed().as_secs_f64();
    faulted.extend_from_slice(&open.faulted);
    state.verify_faulted(&faulted, &mut m);
    m.latencies_ms = open.done.iter().map(|d| d.2 * 1e3).collect();
    m.done = open.done;
    m.capacity_per_s = Some(crate::stats::median(&burst_rates));
    m.info.push(("requests", "\"sessions\"".into()));
    m.info.push((
        "load",
        format!(
            "\"{BURSTS} bursts of {BURST}, then open-loop Poisson arrivals at {} /s for {:.2} s\"",
            cli.rate,
            OPEN_LOOP_SHARE * cli.seconds
        ),
    ));
    m.info.push(("device_pool", state.pool.len().to_string()));
    m.info
        .push(("burst_rates_per_s", format!("{burst_rates:?}")));
    m.info.push(("afe_fault_rate", AFE_FAULT_RATE.to_string()));
    let silent = m
        .errors
        .iter()
        .filter(|e| e.contains("silently corrupted"))
        .count();
    m.info.push(("silent_corruptions", silent.to_string()));
    m.info
        .push(("quarantine_refusals", open.refused_faulted.to_string()));
    m.info.push((
        "generator_lag_tail_ms",
        format!("{:?}", 1e3 * tail(&sorted(&open.lags_s)).value),
    ));
    m
}

pub fn traced(state: &mut State, cli: &Cli, replay: &Replay, layers: &mut Layers) -> Measured {
    let mut m = Measured::default();
    let (due, open_asks) = schedule(cli.seed, cli.rate, 0.35 * cli.seconds, &state.pool);
    let burst = asks(&mut state.rng, &state.pool, BURST / 2);
    let baselines = state.baselines();

    // Open loop under the real policy: tick times, generator lag, counts.
    let mut server = state.server(ExecPolicy::Auto);
    let open = serve(
        state,
        &mut server,
        &open_asks,
        &due,
        &baselines,
        f64::INFINITY,
        &mut m,
    );
    state.verify_faulted(&open.faulted, &mut m);
    let ticks_ms: Vec<f64> = sorted(&open.ticks_s.iter().map(|s| s * 1e3).collect::<Vec<_>>());
    let lags_ms: Vec<f64> = sorted(&open.lags_s.iter().map(|s| s * 1e3).collect::<Vec<_>>());
    layers.set(
        "server.tick_p50_ms",
        crate::stats::percentile(&ticks_ms, 50.0),
    );
    layers.set("server.tick_tail_ms", tail(&ticks_ms).value);
    layers.set(
        "server.served_per_tick",
        open.served as f64 / ticks_ms.len().max(1) as f64,
    );
    layers.set("server.shed", open.shed as f64);
    layers.set("server.deadline_miss", open.deadline as f64);
    layers.set(
        "server.rejected",
        (open.refused_clean + open.refused_faulted) as f64,
    );
    layers.set(
        "server.quarantined",
        server.quarantined_devices().len() as f64,
    );
    layers.set("loadgen.lag_tail_ms", tail(&lags_ms).value);

    // A sequential burst, once untraced and once traced, then every served
    // session replayed through the step API to split tick time by layer.
    // The first pass only warms the per-device self-test records, so the
    // untraced and traced passes see the same caches.
    let mut untraced_s = 0.0;
    for _ in 0..2 {
        let mut plain = state.server(ExecPolicy::Sequential);
        let t0 = Instant::now();
        serve(
            state,
            &mut plain,
            &burst,
            &[],
            &baselines,
            f64::INFINITY,
            &mut Measured::default(),
        );
        untraced_s = t0.elapsed().as_secs_f64();
    }
    let mut tracer = Tracer::new(true);
    let mut traced_server = state.server(ExecPolicy::Sequential);
    let t0 = Instant::now();
    let mut served = Vec::new();
    let mut ticks = 0usize;
    for ask in &burst {
        let request = state.request(*ask);
        let _ = tracer.time("server.submit", 0, || traced_server.submit(request));
    }
    while !traced_server.is_idle() {
        tracer.time("server.tick", 0, || traced_server.tick(&NullClock));
        ticks += 1;
        let done = tracer.time("server.drain", 0, || traced_server.drain_completed());
        served.extend(done);
    }
    let traced_s = t0.elapsed().as_secs_f64();
    let server_ns: f64 = crate::trace::self_times(tracer.spans()).iter().sum::<u64>() as f64;
    let tick_ns: f64 = tracer
        .spans()
        .iter()
        .filter(|s| s.name == "server.tick")
        .map(|s| (s.end_ns - s.start_ns) as f64)
        .sum();

    let mut replay_tracer = Tracer::new(true);
    let mut tally = SessionTally::default();
    for (k, c) in served.iter().enumerate() {
        let SessionOutcome::Completed(report) = &c.outcome else {
            continue;
        };
        let options = state.options_for(c.device);
        replay_tracer.begin("request", k as u32);
        let stepped = drive_session(
            &state.platform,
            &state.sample,
            c.seed,
            &options,
            &mut replay_tracer,
            k as u32,
            &mut tally,
        );
        replay_tracer.end();
        m.attempted += 1;
        match stepped {
            Ok(r) if r == *report => {}
            Ok(_) => m.mismatch(format!(
                "stepped replay of device {} differs from its served report",
                c.device
            )),
            Err(e) => {
                m.failed += 1;
                m.errors.push(e.to_string());
            }
        }
    }
    let platform = LayerTimes::from_spans(replay_tracer.spans(), replay.chrono, replay.cv);
    let platform_ns = platform.sum();
    // Stepping one session at a time can cost more than the server's
    // coalesced dispatches; then the replayed layers are scaled down to
    // fit the server spans and the scheduler keeps nothing.
    let fit = if platform_ns > server_ns {
        server_ns / platform_ns
    } else {
        1.0
    };
    let mut times = LayerTimes {
        session: platform.session * fit,
        acquire: platform.acquire * fit,
        instrument: platform.instrument * fit,
        afe: platform.afe * fit,
        biochem: platform.biochem * fit,
        ..LayerTimes::default()
    };
    times.server = server_ns - times.sum();
    times.write_shares(traced_s * 1e9, layers);
    layers.set(
        "server.sched_share",
        if tick_ns > 0.0 {
            (tick_ns - platform_ns) / tick_ns
        } else {
            0.0
        },
    );
    layers.set("trace.wall_ms", traced_s * 1e3);
    layers.set("trace.overhead_ratio", traced_s / untraced_s - 1.0);
    write_session_metrics(replay_tracer.spans(), &tally, layers);
    // Acquisitions per shard per tick: the most one coalesced dispatch
    // can carry.
    let shards = ServerConfig::default().shards;
    layers.set(
        "acquire.batch",
        tally.acquisitions as f64 / (ticks * shards).max(1) as f64,
    );
    m.spans.push(("service_open-server", tracer));
    m.spans.push(("service_open-replay", replay_tracer));
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule() {
        let pool: Vec<u64> = (0..DEVICE_POOL).collect();
        let (a_due, a_asks) = schedule(4, 700.0, 1.0, &pool);
        let (b_due, b_asks) = schedule(4, 700.0, 1.0, &pool);
        assert_eq!(a_due, b_due);
        assert_eq!(a_asks, b_asks);
        assert_eq!(a_due.len(), a_asks.len());
        let (c_due, _) = schedule(5, 700.0, 1.0, &pool);
        assert_ne!(a_due, c_due);
        assert!(a_asks
            .iter()
            .all(|a| a.device < DEVICE_POOL && a.slot < SEED_CYCLE));
    }

    #[test]
    fn pool_leaves_out_stuck_multiplexers_and_keeps_other_faults() {
        let chaos = ChaosPlan::new(3).with_afe_faults(AFE_FAULT_RATE);
        let pool = device_pool(&chaos, 5);
        let faulted = pool
            .iter()
            .filter(|&&d| chaos.fault_plan_for(d, 5).is_some())
            .count();
        let share = faulted as f64 / pool.len() as f64;
        assert!((0.15..0.25).contains(&share), "faulted share {share}");
        assert!(pool.len() < DEVICE_POOL as usize);
    }
}
