//! `explore_sweep`: a designer exploring the platform's design space. A
//! cold sweep of the seven standard panels (168,960 points each), then
//! seeded edit-and-re-sweep steps. Every edit is new within the run, so
//! sweeps are cold by content; only edits replay shards of earlier
//! sweeps. No acquisition runs here.

use crate::drive::LayerTimes;
use crate::report::Layers;
use crate::stats::Rng;
use crate::trace::{self_times, Tracer};
use crate::{Cli, Measured};
use bios_biochem::Analyte;
use bios_explore::{explore, ExploreOutcome, ExploreSpec};
use bios_platform::{ExecPolicy, PanelSpec, TargetSpec};
use bios_units::Molar;
use std::collections::HashSet;
use std::time::Instant;

/// Cold sweeps and the first edits whose digests are re-checked.
const CHECKED_EDITS: usize = 4;

pub fn panels() -> Vec<(&'static str, PanelSpec)> {
    let of = |analytes: &[Analyte]| {
        analytes
            .iter()
            .map(|&a| TargetSpec::typical(a))
            .collect::<PanelSpec>()
    };
    let mut tight = PanelSpec::paper_fig4();
    tight.push(TargetSpec::typical(Analyte::Glucose).with_lod(Molar::from_micromolar(290.0)));
    vec![
        ("fig4-biointerface", PanelSpec::paper_fig4()),
        (
            "metabolic-trio",
            of(&[Analyte::Glucose, Analyte::Lactate, Analyte::Cholesterol]),
        ),
        ("neuro-pair", of(&[Analyte::Glutamate, Analyte::Lactate])),
        (
            "p450-pair",
            of(&[Analyte::Benzphetamine, Analyte::Aminopyrine]),
        ),
        ("tight-lod-fig4", tight),
        ("glucose-only", of(&[Analyte::Glucose])),
        (
            "oxidase-quartet",
            of(&[
                Analyte::Glucose,
                Analyte::Lactate,
                Analyte::Glutamate,
                Analyte::Cholesterol,
            ]),
        ),
    ]
}

/// One edit: which panel, which axis, which values dropped (bit mask
/// over the axis's standard values; one to three bits set).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Edit {
    panel: usize,
    axis: u8,
    mask: u32,
}

/// Seeded edits, each new within the run, cycling over the panels.
pub struct Edits {
    rng: Rng,
    seen: HashSet<Edit>,
    next_panel: usize,
    panels: usize,
}

impl Edits {
    pub fn new(seed: u64, panels: usize) -> Self {
        Self {
            rng: Rng::new(seed ^ 0xed17),
            seen: HashSet::new(),
            next_panel: 0,
            panels,
        }
    }

    pub fn next_edit(&mut self) -> Edit {
        let panel = self.next_panel;
        self.next_panel = (self.next_panel + 1) % self.panels;
        loop {
            let axis = self.rng.below(3) as u8;
            let len = axis_len(axis);
            let mask = (0..3).fold(0u32, |m, _| m | 1 << self.rng.below(len));
            let edit = Edit { panel, axis, mask };
            if self.seen.insert(edit) {
                return edit;
            }
        }
    }
}

fn axis_len(axis: u8) -> u64 {
    let space = bios_explore::ExploreSpace::standard_box();
    match axis {
        0 => space.area_pct.len() as u64,
        1 => space.oversampling.len() as u64,
        _ => space.adc_bits.len() as u64,
    }
}

fn keep<T: Copy>(values: &[T], mask: u32) -> Vec<T> {
    values
        .iter()
        .enumerate()
        .filter(|(i, _)| mask & (1 << i) == 0)
        .map(|(_, v)| *v)
        .collect()
}

pub fn spec_for(
    panels: &[(&'static str, PanelSpec)],
    edit: Option<Edit>,
    panel: usize,
) -> ExploreSpec {
    let mut spec = ExploreSpec::standard(panels[panel].1.clone());
    if let Some(e) = edit {
        let s = &mut spec.space;
        match e.axis {
            0 => s.area_pct = keep(&s.area_pct, e.mask),
            1 => s.oversampling = keep(&s.oversampling, e.mask),
            _ => s.adc_bits = keep(&s.adc_bits, e.mask),
        }
    }
    spec
}

pub struct State {
    panels: Vec<(&'static str, PanelSpec)>,
    edits: Edits,
}

pub fn setup(cli: &Cli) -> State {
    let panels = panels();
    // Warm-up on panels outside the seven, so no measured sweep can
    // replay their shards.
    for warm in [
        [Analyte::Lactate, Analyte::Aminopyrine],
        [Analyte::Glucose, Analyte::Glutamate],
        [Analyte::Glucose, Analyte::Benzphetamine],
        [Analyte::Cholesterol, Analyte::Aminopyrine],
    ] {
        let panel = warm.iter().map(|&a| TargetSpec::typical(a)).collect();
        explore(&ExploreSpec::standard(panel), ExecPolicy::Auto).expect("warm-up sweep");
    }
    let edits = Edits::new(cli.seed, panels.len());
    State { panels, edits }
}

fn sweep(spec: &ExploreSpec, policy: ExecPolicy) -> ExploreOutcome {
    explore(spec, policy).expect("sweep")
}

pub fn run(state: &mut State, cli: &Cli) -> Measured {
    let mut m = Measured::default();
    let limit_ms = cli.latency_limit_ms;
    let mut checked: Vec<(ExploreSpec, u64)> = Vec::new();
    let start = Instant::now();
    let mut k = 0usize;
    while k < state.panels.len() || start.elapsed().as_secs_f64() < cli.seconds {
        let (edit, panel) = if k < state.panels.len() {
            (None, k)
        } else {
            let e = state.edits.next_edit();
            (Some(e), e.panel)
        };
        let spec = spec_for(&state.panels, edit, panel);
        let t0 = Instant::now();
        let outcome = sweep(&spec, ExecPolicy::Auto);
        let t1 = Instant::now();
        let ms = (t1 - t0).as_secs_f64() * 1e3;
        m.finish(
            (t1 - start).as_secs_f64(),
            outcome.total_points as f64,
            ms / 1e3,
        );
        m.attempted += 1;
        m.latencies_ms.push(ms);
        if ms > limit_ms {
            m.failed += 1;
        }
        if k < state.panels.len() + CHECKED_EDITS {
            checked.push((spec, outcome.frontier_digest));
        }
        k += 1;
    }
    m.wall_s = start.elapsed().as_secs_f64();
    // A replay of the same spec must give the same frontier.
    for (spec, digest) in &checked {
        let again = sweep(spec, ExecPolicy::Auto);
        if again.frontier_digest != *digest {
            m.mismatch(format!(
                "replayed sweep digest {:016x} differs from cold {digest:016x}",
                again.frontier_digest
            ));
        }
    }
    m.info.push(("requests", "\"panel sweeps\"".into()));
    m.info.push(("work_units", "\"design points\"".into()));
    m.info.push(("load", "\"closed loop, 1 client\"".into()));
    m.info.push(("checked_replays", checked.len().to_string()));
    m
}

pub fn traced(state: &mut State, cli: &Cli, layers: &mut Layers) -> Measured {
    let mut m = Measured::default();
    for panel in 0..state.panels.len() {
        sweep(&spec_for(&state.panels, None, panel), ExecPolicy::Auto);
    }
    let evaluate_us = crate::probe::evaluate_us();
    layers.set("explore.evaluate_us", evaluate_us);
    let mut tracer = Tracer::new(true);
    let mut untraced_s = Vec::new();
    let mut traced_s = Vec::new();
    let mut evaluated = Vec::new();
    let mut outcomes: Vec<ExploreOutcome> = Vec::new();
    let mut checked: Vec<(ExploreSpec, u64)> = Vec::new();
    let mut gaps_ms = Vec::new();
    let mut last_end: Option<Instant> = None;
    let start = Instant::now();
    let mut k = 0u32;
    while start.elapsed().as_secs_f64() < 0.7 * cli.seconds || traced_s.is_empty() {
        let e = state.edits.next_edit();
        let spec = spec_for(&state.panels, Some(e), e.panel);
        let t0 = Instant::now();
        if let Some(prev) = last_end {
            gaps_ms.push((t0 - prev).as_secs_f64() * 1e3);
        }
        if k.is_multiple_of(2) {
            sweep(&spec, ExecPolicy::Auto);
            untraced_s.push(t0.elapsed().as_secs_f64());
        } else {
            tracer.begin("request", k);
            let outcome = tracer.time("explore.sweep", k, || sweep(&spec, ExecPolicy::Auto));
            tracer.end();
            traced_s.push(t0.elapsed().as_secs_f64());
            // Band points scored this sweep (not replayed from a shard).
            let fresh = if outcome.shard_count == 0 {
                0.0
            } else {
                outcome.band.len() as f64 * (outcome.shard_count - outcome.replayed_shards) as f64
                    / outcome.shard_count as f64
            };
            evaluated.push(fresh);
            if checked.len() < CHECKED_EDITS {
                checked.push((spec, outcome.frontier_digest));
            }
            outcomes.push(outcome);
        }
        last_end = Some(Instant::now());
        m.attempted += 1;
        k += 1;
    }
    let spans = tracer.spans();
    let mut times = LayerTimes::default();
    let mut sweep_ns = 0.0;
    for ((s, st), fresh) in spans
        .iter()
        .zip(self_times(spans))
        .filter(|(s, _)| s.name == "explore.sweep")
        .zip(&evaluated)
    {
        let span_ns = (s.end_ns - s.start_ns) as f64;
        let eval_ns = (fresh * evaluate_us * 1e3).min(st as f64);
        times.evaluate += eval_ns;
        times.explore += st as f64 - eval_ns;
        sweep_ns += span_ns;
    }
    let wall_ns: f64 = traced_s.iter().sum::<f64>() * 1e9;
    times.write_shares(wall_ns, layers);
    layers.set("trace.wall_ms", wall_ns / 1e6);
    layers.set(
        "trace.overhead_ratio",
        crate::stats::mean(&traced_s) / crate::stats::mean(&untraced_s) - 1.0,
    );
    layers.set("explore.static_share", times.explore / sweep_ns);
    let n = outcomes.len() as f64;
    let total: u64 = outcomes.iter().map(|o| o.total_points).sum();
    let rejected: u64 = outcomes.iter().map(|o| o.statically_rejected).sum();
    layers.set("explore.reject_ratio", rejected as f64 / total as f64);
    layers.set("explore.points_base", total as f64 / n);
    for (name, metric) in [
        ("lod-feasibility", "explore.points_out.lod-feasibility"),
        ("afe-range", "explore.points_out.afe-range"),
        ("session-schedule", "explore.points_out.session-schedule"),
        ("dominance", "explore.points_out.dominance"),
    ] {
        let out: u64 = outcomes
            .iter()
            .flat_map(|o| o.reports.iter())
            .filter(|r| r.pass == name)
            .map(|r| r.points_out)
            .sum();
        layers.set(metric, out as f64 / n);
    }
    layers.set(
        "explore.replayed_shards",
        outcomes.iter().map(|o| o.replayed_shards).sum::<u64>() as f64 / n,
    );
    layers.set(
        "loadgen.lag_tail_ms",
        crate::stats::tail(&crate::stats::sorted(&gaps_ms)).value,
    );
    // Correctness: replaying a traced spec reproduces its frontier.
    for (spec, digest) in &checked {
        if sweep(spec, ExecPolicy::Auto).frontier_digest != *digest {
            m.mismatch("replayed traced sweep differs from its first run".into());
        }
    }
    m.spans.push(("explore_sweep", tracer));
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edits_are_seeded_and_never_repeat() {
        let mut a = Edits::new(5, 7);
        let mut b = Edits::new(5, 7);
        let ea: Vec<Edit> = (0..300).map(|_| a.next_edit()).collect();
        let eb: Vec<Edit> = (0..300).map(|_| b.next_edit()).collect();
        assert_eq!(ea, eb, "same seed, same edits");
        let unique: HashSet<Edit> = ea.iter().copied().collect();
        assert_eq!(unique.len(), ea.len(), "no edit repeats within a run");
        assert!(ea.iter().enumerate().all(|(i, e)| e.panel == i % 7));
    }

    #[test]
    fn edited_specs_validate_and_shrink_the_space() {
        let panels = panels();
        let mut edits = Edits::new(1, panels.len());
        for _ in 0..20 {
            let e = edits.next_edit();
            let spec = spec_for(&panels, Some(e), e.panel);
            spec.validate().expect("edited spec validates");
            assert!(spec.space.len() < ExploreSpec::standard(PanelSpec::paper_fig4()).space.len());
        }
    }
}
