//! `fig4_session`: one closed-loop client running back-to-back Fig. 4
//! sessions — single-patient time-to-result.

use crate::drive::{drive_session, write_session_metrics, LayerTimes, SessionTally};
use crate::probe::{fig4_platform, reference_sample, Replay};
use crate::report::Layers;
use crate::stats::Rng;
use crate::trace::Tracer;
use crate::{Cli, Measured};
use bios_biochem::Analyte;
use bios_platform::{par_map, ExecPolicy, Platform, SessionOptions, SessionReport};
use bios_units::Molar;
use std::time::Instant;

/// Distinct session seeds a run cycles through.
const SEED_CYCLE: usize = 64;
/// Sessions run during set-up, so lazy state is built before timing.
const WARMUP_SESSIONS: usize = 256;

pub struct State {
    platform: Platform,
    sample: Vec<(Analyte, Molar)>,
    seeds: Vec<u64>,
}

pub fn session_seeds(seed: u64, n: usize) -> Vec<u64> {
    let mut rng = Rng::new(seed);
    (0..n).map(|_| rng.next_u64() >> 16).collect()
}

pub fn setup(cli: &Cli) -> State {
    let platform = fig4_platform();
    let sample = reference_sample();
    let seeds = session_seeds(cli.seed, SEED_CYCLE);
    let options = SessionOptions::default();
    for k in 0..WARMUP_SESSIONS {
        platform
            .run_session_with(&sample, seeds[k % SEED_CYCLE] ^ 0xa11, &options)
            .expect("warm-up session");
    }
    State {
        platform,
        sample,
        seeds,
    }
}

fn baselines(state: &State) -> Vec<SessionReport> {
    let sequential = SessionOptions::default().with_exec(ExecPolicy::Sequential);
    par_map(ExecPolicy::Auto, &state.seeds, |_, &s| {
        state
            .platform
            .run_session_with(&state.sample, s, &sequential)
            .expect("baseline session")
    })
}

pub fn run(state: &State, cli: &Cli) -> Measured {
    let baselines = baselines(state);
    let options = SessionOptions::default();
    let mut m = Measured::default();
    let limit_ms = cli.latency_limit_ms;
    let start = Instant::now();
    let mut k = 0usize;
    while start.elapsed().as_secs_f64() < cli.seconds {
        let slot = k % SEED_CYCLE;
        let t0 = Instant::now();
        let result = state
            .platform
            .run_session_with(&state.sample, state.seeds[slot], &options);
        let t1 = Instant::now();
        let ms = (t1 - t0).as_secs_f64() * 1e3;
        m.finish((t1 - start).as_secs_f64(), 1.0, ms / 1e3);
        m.attempted += 1;
        match result {
            Ok(report) if report == baselines[slot] => {
                m.latencies_ms.push(ms);
                if ms > limit_ms {
                    m.failed += 1;
                }
            }
            Ok(_) => m.mismatch(format!(
                "session seed {} differs from its sequential baseline",
                state.seeds[slot]
            )),
            Err(e) => {
                m.failed += 1;
                m.latencies_ms.push(ms);
                m.errors.push(e.to_string());
            }
        }
        k += 1;
    }
    m.wall_s = start.elapsed().as_secs_f64();
    m.info.push(("requests", "\"sessions\"".into()));
    m.info.push(("load", "\"closed loop, 1 client\"".into()));
    m.info.push(("session_seeds", SEED_CYCLE.to_string()));
    m
}

/// Runs `n` sessions through the step API, returning the wall time.
fn drive_n(
    state: &State,
    n: usize,
    tracer: &mut Tracer,
    tally: &mut SessionTally,
    check: Option<&[SessionReport]>,
    m: &mut Measured,
) -> f64 {
    let options = SessionOptions::default().with_exec(ExecPolicy::Sequential);
    let start = Instant::now();
    for k in 0..n {
        let slot = k % SEED_CYCLE;
        tracer.begin("request", k as u32);
        let report = drive_session(
            &state.platform,
            &state.sample,
            state.seeds[slot],
            &options,
            tracer,
            k as u32,
            tally,
        );
        tracer.end();
        if let Some(baselines) = check {
            m.attempted += 1;
            match report {
                Ok(r) if r == baselines[slot] => {}
                Ok(_) => m.mismatch(format!(
                    "stepped session {k} differs from its served report"
                )),
                Err(e) => {
                    m.failed += 1;
                    m.errors.push(e);
                }
            }
        }
    }
    start.elapsed().as_secs_f64()
}

pub fn traced(state: &State, cli: &Cli, replay: &Replay, layers: &mut Layers) -> Measured {
    let baselines = baselines(state);
    let mut m = Measured::default();
    // Untraced reference first: it fixes how many sessions both halves run.
    let mut off = Tracer::new(false);
    let mut untraced_tally = SessionTally::default();
    let mut n = 0usize;
    let start = Instant::now();
    let options = SessionOptions::default().with_exec(ExecPolicy::Sequential);
    while start.elapsed().as_secs_f64() < 0.4 * cli.seconds {
        let slot = n % SEED_CYCLE;
        drive_session(
            &state.platform,
            &state.sample,
            state.seeds[slot],
            &options,
            &mut off,
            n as u32,
            &mut untraced_tally,
        )
        .expect("untraced session");
        n += 1;
    }
    let untraced_s = start.elapsed().as_secs_f64();

    let mut tracer = Tracer::new(true);
    let mut tally = SessionTally::default();
    let traced_s = drive_n(state, n, &mut tracer, &mut tally, Some(&baselines), &mut m);
    let wall_ns = traced_s * 1e9;
    layers.set("trace.wall_ms", traced_s * 1e3);
    layers.set("trace.overhead_ratio", traced_s / untraced_s - 1.0);
    write_session_metrics(tracer.spans(), &tally, layers);
    // The step API lifts one acquisition at a time.
    layers.set("acquire.batch", 1.0);
    LayerTimes::from_spans(tracer.spans(), replay.chrono, replay.cv).write_shares(wall_ns, layers);
    layers.set("loadgen.lag_tail_ms", request_gap_tail_ms(tracer.spans()));
    m.spans.push(("fig4_session", tracer));
    m
}

/// Tail of the gaps between one request span's end and the next one's
/// start: how late a closed-loop client issues its next request.
pub fn request_gap_tail_ms(spans: &[crate::trace::Span]) -> f64 {
    let roots: Vec<&crate::trace::Span> = spans
        .iter()
        .filter(|s| s.parent == crate::trace::NO_PARENT)
        .collect();
    let gaps: Vec<f64> = roots
        .windows(2)
        .map(|w| w[1].start_ns.saturating_sub(w[0].end_ns) as f64 / 1e6)
        .collect();
    if gaps.is_empty() {
        return 0.0;
    }
    crate::stats::tail(&crate::stats::sorted(&gaps)).value
}
