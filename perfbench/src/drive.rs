//! Drives one session through the public step API, one call per span, and
//! turns the recorded spans into per-layer self times.

use crate::trace::{layer_of, self_times, Span, Tracer};
use bios_biochem::{Analyte, Technique};
use bios_instrument::QcClass;
use bios_platform::{ExecPolicy, Platform, SessionOptions, SessionReport, StepEvent, StepKind};
use bios_units::Molar;
use std::time::Instant;

/// Counts gathered while driving sessions.
#[derive(Debug, Default, Clone)]
pub struct SessionTally {
    pub sessions: u64,
    pub steps: u64,
    pub retries: u64,
    pub acquisitions: u64,
    pub useful: u64,
    pub steps_by_kind: [u64; 6],
    /// Per session, the busiest electrode's summed step time (ns); only
    /// filled while tracing.
    pub critical_path_ns: Vec<u64>,
}

/// Step kinds the step API executes (a `Done` electrode is never
/// stepped), each with its span name and per-step metric.
const STEPS: [(StepKind, &str, &str); 6] = [
    (
        StepKind::ApplyPotential,
        "session.ApplyPotential",
        "session.step_us.ApplyPotential",
    ),
    (StepKind::Settle, "session.Settle", "session.step_us.Settle"),
    (StepKind::Sample, "session.Sample", "session.step_us.Sample"),
    (StepKind::Qc, "session.Qc", "session.step_us.Qc"),
    (
        StepKind::Backoff,
        "session.Backoff",
        "session.step_us.Backoff",
    ),
    (
        StepKind::Quarantine,
        "session.Quarantine",
        "session.step_us.Quarantine",
    ),
];

fn step_index(kind: StepKind) -> usize {
    STEPS
        .iter()
        .position(|(k, _, _)| *k == kind)
        .expect("the step API never runs a Done step")
}

/// Runs one session single-threaded through `next_step`, `step`,
/// `begin_sample`, `run_samples` and `complete_sample`, each inside its
/// own span. The report equals `run_session_with` for the same inputs.
/// While tracing it also records the session's busiest electrode.
pub fn drive_session(
    platform: &Platform,
    sample: &[(Analyte, Molar)],
    seed: u64,
    options: &SessionOptions,
    tracer: &mut Tracer,
    request: u32,
    tally: &mut SessionTally,
) -> Result<SessionReport, String> {
    let timed = tracer.is_on();
    let mut slot_ns = vec![0u64; platform.assignments().len()];
    let mut m = tracer.time("session.create", request, || {
        platform.session_machine(sample, seed, options)
    });
    while let Some(step) = m.next_step(platform) {
        let t0 = timed.then(Instant::now);
        if step.kind == StepKind::Sample {
            let req = tracer
                .time("session.Sample", request, || m.begin_sample(platform))
                .ok_or("Sample step without a request")?;
            let chrono =
                platform.assignments()[req.slot()].technique() == Technique::Chronoamperometry;
            let name = if chrono {
                "acquire.chrono"
            } else {
                "acquire.cv"
            };
            let result = tracer
                .time(name, request, || {
                    platform.run_samples(std::slice::from_ref(&req), ExecPolicy::Sequential)
                })
                .pop()
                .ok_or("run_samples returned nothing")?;
            tally.acquisitions += 1;
            if matches!(&result, Ok((_, v)) if v.class != QcClass::Fail) {
                tally.useful += 1;
            }
            tracer
                .time("session.Sample", request, || {
                    m.complete_sample(platform, &req, result)
                })
                .map_err(|e| e.to_string())?;
        } else {
            let event = tracer
                .time(STEPS[step_index(step.kind)].1, request, || m.step(platform))
                .map_err(|e| e.to_string())?;
            if matches!(event, StepEvent::BackedOff { .. }) {
                tally.retries += 1;
            }
        }
        tally.steps += 1;
        tally.steps_by_kind[step_index(step.kind)] += 1;
        if let Some(t0) = t0 {
            slot_ns[step.slot] += t0.elapsed().as_nanos() as u64;
        }
    }
    let report = tracer
        .time("session.finish", request, || m.finish(platform))
        .map_err(|e| e.to_string())?;
    tally.sessions += 1;
    if timed {
        tally
            .critical_path_ns
            .push(slot_ns.iter().copied().max().unwrap_or(0));
    }
    Ok(report)
}

/// How one acquisition shape's time divides between the instrument, AFE
/// and biochem layers, from a cost-equivalent replay (nanoseconds).
#[derive(Debug, Default, Clone, Copy)]
pub struct ShapeSplit {
    /// The whole instrument call (`run_chrono_with_interferents` or
    /// `run_cv`) plus the QC check the platform runs after it.
    pub total_ns: f64,
    pub afe_ns: f64,
    pub biochem_ns: f64,
}

/// Layer self times (ns) of a traced run.
#[derive(Debug, Default, Clone, Copy)]
pub struct LayerTimes {
    pub server: f64,
    pub session: f64,
    pub acquire: f64,
    pub instrument: f64,
    pub afe: f64,
    pub biochem: f64,
    pub kernel: f64,
    pub explore: f64,
    pub evaluate: f64,
}

impl LayerTimes {
    pub fn sum(&self) -> f64 {
        self.server
            + self.session
            + self.acquire
            + self.instrument
            + self.afe
            + self.biochem
            + self.kernel
            + self.explore
            + self.evaluate
    }

    /// Splits one acquisition span of `ns` by its shape's replay: the
    /// platform keeps what the replay does not account for; when the span
    /// is shorter than the replay every part shrinks in proportion.
    fn add_acquisition(&mut self, ns: f64, shape: ShapeSplit) {
        let scale = if shape.total_ns > ns && shape.total_ns > 0.0 {
            ns / shape.total_ns
        } else {
            1.0
        };
        let afe = shape.afe_ns * scale;
        let biochem = shape.biochem_ns * scale;
        let instrument = (shape.total_ns - shape.afe_ns - shape.biochem_ns).max(0.0) * scale;
        self.afe += afe;
        self.biochem += biochem;
        self.instrument += instrument;
        self.acquire += (ns - afe - biochem - instrument).max(0.0);
    }

    /// Sums span self times into layers; acquisition spans are split with
    /// the chrono and CV replays. Spans of unknown layers (the request
    /// roots) stay unattributed.
    pub fn from_spans(spans: &[Span], chrono: ShapeSplit, cv: ShapeSplit) -> Self {
        let mut out = Self::default();
        for (s, t) in spans.iter().zip(self_times(spans)) {
            let t = t as f64;
            match s.name {
                "acquire.chrono" => out.add_acquisition(t, chrono),
                "acquire.cv" => out.add_acquisition(t, cv),
                name => match layer_of(name) {
                    "server" => out.server += t,
                    "session" => out.session += t,
                    "acquire" => out.acquire += t,
                    "kernel" => out.kernel += t,
                    "explore" => out.explore += t,
                    "evaluate" => out.evaluate += t,
                    _ => {}
                },
            }
        }
        out
    }

    /// Writes `share.<layer>` and `share.unattributed` against `wall_ns`.
    pub fn write_shares(&self, wall_ns: f64, layers: &mut crate::report::Layers) {
        let share = |v: f64| if wall_ns > 0.0 { v / wall_ns } else { 0.0 };
        layers.set("share.server", share(self.server));
        layers.set("share.session", share(self.session));
        layers.set("share.acquire", share(self.acquire));
        layers.set("share.instrument", share(self.instrument));
        layers.set("share.afe", share(self.afe));
        layers.set("share.biochem", share(self.biochem));
        layers.set("share.kernel", share(self.kernel));
        layers.set("share.explore", share(self.explore));
        layers.set("share.evaluate", share(self.evaluate));
        layers.set("share.unattributed", share(wall_ns - self.sum()));
    }
}

/// Writes the session and acquisition metrics of a traced session run.
pub fn write_session_metrics(
    spans: &[Span],
    tally: &SessionTally,
    layers: &mut crate::report::Layers,
) {
    let by_name = crate::trace::self_by_name(spans);
    let sessions = tally.sessions.max(1) as f64;
    layers.set("session.steps", tally.steps as f64 / sessions);
    layers.set("session.retries", tally.retries as f64 / sessions);
    for ((_, span, metric), &count) in STEPS.iter().zip(&tally.steps_by_kind) {
        if let Some(&(ns, _)) = by_name.get(span) {
            if count > 0 {
                layers.set(metric, ns as f64 / count as f64 / 1e3);
            }
        }
    }
    let mean_us = |name: &str| {
        by_name
            .get(name)
            .filter(|(_, n)| *n > 0)
            .map(|&(ns, n)| ns as f64 / n as f64 / 1e3)
    };
    if let Some(v) = mean_us("acquire.chrono") {
        layers.set("acquire.chrono_us", v);
    }
    if let Some(v) = mean_us("acquire.cv") {
        layers.set("acquire.cv_us", v);
    }
    if tally.acquisitions > 0 {
        layers.set(
            "acquire.useful_ratio",
            tally.useful as f64 / tally.acquisitions as f64,
        );
    }
    if !tally.critical_path_ns.is_empty() {
        let cp: Vec<f64> = tally
            .critical_path_ns
            .iter()
            .map(|&ns| ns as f64 / 1e3)
            .collect();
        layers.set("acquire.critical_path_us", crate::stats::mean(&cp));
    }
}
