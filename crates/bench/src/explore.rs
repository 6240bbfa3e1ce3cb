//! Design-space exploration at methodology scale — the BENCH_10 workload.
//!
//! Seven clinically-motivated panels, each explored over the standard
//! 168 960-point box ([`bios_explore::ExploreSpace::standard_box`]):
//! 1 182 720 candidate designs in total, pruned to their exact Pareto
//! bands by the static pass pipeline with only the surviving bands
//! simulated. Four kinds of evidence are collected:
//!
//! 1. **Static leverage** — per panel and overall, the fraction of the
//!    space refuted by closed-form analysis (the static evaluation
//!    applied class-wise, never per point). The binary gates this at
//!    [`REJECTION_FLOOR`].
//! 2. **Bit-identical reruns** — every panel is explored twice; the
//!    rerun must reproduce the frontier digest bit for bit.
//! 3. **Incremental re-exploration** — the fig4 space is *edited* (one
//!    electrode area dropped) and explored right after the sweeps; the
//!    digest must equal a second run of the same edited spec, so the
//!    answer cannot depend on what ran before it.
//! 4. **Ground truth** — on every panel, over all 1 182 720 points, the
//!    pipeline's band is checked rank-for-rank, bit-for-bit against the
//!    per-point oracle ([`brute_force_band`]). This is a check of the
//!    whole shipped space, not of a sample.
//!
//! [`brute_force_band`]: bios_explore::brute_force_band

use bios_explore::{brute_force_band, explore, ExploreSpec, ScoredDesign};
use bios_platform::{ExecPolicy, PanelSpec};

pub use bios_explore::standard_panels as panels;

/// Minimum fraction of the space that must be statically rejected for
/// the run to count as "compiler-style": simulating more than 1% of a
/// million-point space is no longer static pruning.
pub const REJECTION_FLOOR: f64 = 0.99;

/// One panel's run-then-rerun exploration evidence.
#[derive(Debug, Clone)]
pub struct PanelRun {
    /// Panel label.
    pub name: &'static str,
    /// Targets in the panel.
    pub targets: usize,
    /// Points in the explored space.
    pub points: u64,
    /// Points refuted by the static passes (first run).
    pub statically_rejected: u64,
    /// `statically_rejected / points`.
    pub rejection_ratio: f64,
    /// Surviving Pareto band size.
    pub band: usize,
    /// Shards the band partitioned into.
    pub shards: u64,
    /// Frontier digest of the first run.
    pub digest: u64,
    /// Frontier digest of the rerun (must equal `digest`).
    pub warm_digest: u64,
}

impl PanelRun {
    /// True when the rerun reproduced the first run bit for bit.
    pub fn rerun_identical(&self) -> bool {
        self.digest == self.warm_digest
    }
}

/// The incremental re-exploration evidence: an *edited* space explored
/// right after the sweeps vs the same edit explored again.
#[derive(Debug, Clone)]
pub struct IncrementalRun {
    /// Points in the edited space.
    pub points: u64,
    /// Shards of the edited space's band.
    pub shards: u64,
    /// Frontier digest of the run right after the sweeps.
    pub incremental_digest: u64,
    /// Frontier digest of the second run of the same edited spec.
    pub cold_digest: u64,
}

impl IncrementalRun {
    /// True when incremental and cold agree on every bit.
    pub fn digests_match(&self) -> bool {
        self.incremental_digest == self.cold_digest
    }
}

/// The BENCH_10 report.
#[derive(Debug, Clone)]
pub struct ExploreBenchReport {
    /// The [`ExecPolicy`] the sweep ran under, rendered.
    pub exec_policy: String,
    /// Per-panel evidence.
    pub panels: Vec<PanelRun>,
    /// Candidate designs across all panels.
    pub total_points: u64,
    /// Statically rejected designs across all panels.
    pub total_rejected: u64,
    /// `total_rejected / total_points`.
    pub overall_rejection_ratio: f64,
    /// Wall-clock seconds for the first sweep over every panel.
    pub cold_sweep_s: f64,
    /// Wall-clock seconds for the rerun over every panel.
    pub warm_sweep_s: f64,
    /// Incremental re-exploration evidence.
    pub incremental: IncrementalRun,
    /// Points the per-point oracle checked: every point of every panel.
    pub brute_points: u64,
    /// Band size across all panels, as the oracle computed it.
    pub brute_band: usize,
    /// True when the pipeline matched the oracle bit for bit on every
    /// panel.
    pub brute_matches: bool,
}

impl ExploreBenchReport {
    /// True when every panel's rerun was bit-identical.
    pub fn all_reruns_identical(&self) -> bool {
        self.panels.iter().all(PanelRun::rerun_identical)
    }
}

/// The edited fig4 spec for the incrementality check: the standard box
/// with the largest electrode area dropped.
fn edited_fig4_spec() -> ExploreSpec {
    let mut spec = ExploreSpec::standard(PanelSpec::paper_fig4());
    spec.space.area_pct.retain(|&a| a != 400);
    spec
}

/// Whether a pipeline band equals the oracle's `(rank, cost, margin)`
/// rows, bit for bit.
fn band_matches(band: &[ScoredDesign], oracle: &[(u64, f64, f64)]) -> bool {
    band.len() == oracle.len()
        && band.iter().zip(oracle).all(|(d, &(rank, cost, margin))| {
            d.rank == rank
                && d.surrogate_cost.to_bits() == cost.to_bits()
                && d.surrogate_margin.to_bits() == margin.to_bits()
        })
}

/// Runs the whole BENCH_10 workload: sweep, rerun, incremental edit,
/// and the per-point oracle over every panel.
pub fn run(policy: ExecPolicy) -> Result<ExploreBenchReport, Box<dyn std::error::Error>> {
    let panel_set = panels();

    let cold_start = std::time::Instant::now();
    let mut runs: Vec<PanelRun> = Vec::with_capacity(panel_set.len());
    let mut bands: Vec<Vec<ScoredDesign>> = Vec::with_capacity(panel_set.len());
    for (name, panel) in &panel_set {
        let spec = ExploreSpec::standard(panel.clone());
        let outcome = explore(&spec, policy)?;
        runs.push(PanelRun {
            name,
            targets: panel.targets().len(),
            points: outcome.total_points,
            statically_rejected: outcome.statically_rejected,
            rejection_ratio: outcome.rejection_ratio,
            band: outcome.band.len(),
            shards: outcome.shard_count,
            digest: outcome.frontier_digest,
            warm_digest: 0,
        });
        bands.push(outcome.band);
    }
    let cold_sweep_s = cold_start.elapsed().as_secs_f64();

    let warm_start = std::time::Instant::now();
    for (run, (_, panel)) in runs.iter_mut().zip(&panel_set) {
        let spec = ExploreSpec::standard(panel.clone());
        let outcome = explore(&spec, policy)?;
        run.warm_digest = outcome.frontier_digest;
    }
    let warm_sweep_s = warm_start.elapsed().as_secs_f64();

    // Incremental: the edited space right after the sweeps, then the
    // same edit again. The answer must not depend on what ran before it.
    let edited = edited_fig4_spec();
    let incremental_outcome = explore(&edited, policy)?;
    let cold_edited = explore(&edited, policy)?;
    let incremental = IncrementalRun {
        points: incremental_outcome.total_points,
        shards: incremental_outcome.shard_count,
        incremental_digest: incremental_outcome.frontier_digest,
        cold_digest: cold_edited.frontier_digest,
    };

    // Ground truth, outside the timed sweeps: each panel's first-sweep
    // band vs the per-point oracle over the same space, bit for bit on
    // ranks, costs and margins.
    let mut brute_points = 0u64;
    let mut brute_band = 0usize;
    let mut brute_matches = true;
    for ((_, panel), band) in panel_set.iter().zip(&bands) {
        let spec = ExploreSpec::standard(panel.clone());
        let oracle = brute_force_band(&spec)?;
        brute_points += spec.space.len();
        brute_band += oracle.len();
        brute_matches &= band_matches(band, &oracle);
    }

    let total_points: u64 = runs.iter().map(|r| r.points).sum();
    let total_rejected: u64 = runs.iter().map(|r| r.statically_rejected).sum();
    Ok(ExploreBenchReport {
        exec_policy: format!("{policy:?}"),
        panels: runs,
        total_points,
        total_rejected,
        overall_rejection_ratio: if total_points == 0 {
            0.0
        } else {
            total_rejected as f64 / total_points as f64
        },
        cold_sweep_s,
        warm_sweep_s,
        incremental,
        brute_points,
        brute_band,
        brute_matches,
    })
}

/// Renders the report as pretty-printed JSON (hand-rolled, like
/// [`perf::to_json`](crate::perf::to_json), for stable committed
/// output).
pub fn to_json(report: &ExploreBenchReport) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!(
        "  \"exec_policy\": \"{}\",\n  \"total_points\": {},\n  \"total_rejected\": {},\n  \"overall_rejection_ratio\": {:.6},\n",
        report.exec_policy, report.total_points, report.total_rejected, report.overall_rejection_ratio
    ));
    out.push_str(&format!(
        "  \"rejection_floor\": {REJECTION_FLOOR:.2},\n  \"cold_sweep_s\": {:.3},\n  \"warm_sweep_s\": {:.3},\n",
        report.cold_sweep_s, report.warm_sweep_s
    ));
    out.push_str("  \"panels\": [\n");
    for (i, p) in report.panels.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"targets\": {}, \"points\": {}, \"statically_rejected\": {}, \"rejection_ratio\": {:.6}, \"band\": {}, \"shards\": {}, \"frontier_digest\": \"{:016x}\", \"warm_digest\": \"{:016x}\", \"rerun_identical\": {}}}{}\n",
            p.name,
            p.targets,
            p.points,
            p.statically_rejected,
            p.rejection_ratio,
            p.band,
            p.shards,
            p.digest,
            p.warm_digest,
            p.rerun_identical(),
            if i + 1 < report.panels.len() { "," } else { "" },
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"incremental\": {{\"points\": {}, \"shards\": {}, \"incremental_digest\": \"{:016x}\", \"cold_digest\": \"{:016x}\", \"digests_match\": {}}},\n",
        report.incremental.points,
        report.incremental.shards,
        report.incremental.incremental_digest,
        report.incremental.cold_digest,
        report.incremental.digests_match(),
    ));
    out.push_str(&format!(
        "  \"brute_force\": {{\"points\": {}, \"band\": {}, \"matches\": {}}},\n",
        report.brute_points, report.brute_band, report.brute_matches
    ));
    out.push_str(&format!(
        "  \"all_reruns_identical\": {}\n}}\n",
        report.all_reruns_identical()
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_benchmark_panel_builds() {
        for (name, panel) in panels() {
            assert!(panel.validate().is_ok(), "panel {name} does not validate");
        }
    }

    #[test]
    fn json_rendering_is_valid_shape() {
        let report = ExploreBenchReport {
            exec_policy: String::from("Auto"),
            panels: vec![PanelRun {
                name: "fig4-biointerface",
                targets: 6,
                points: 168_960,
                statically_rejected: 168_729,
                rejection_ratio: 0.998_632,
                band: 231,
                shards: 6,
                digest: 7,
                warm_digest: 7,
            }],
            total_points: 168_960,
            total_rejected: 168_729,
            overall_rejection_ratio: 0.998_632,
            cold_sweep_s: 1.5,
            warm_sweep_s: 0.5,
            incremental: IncrementalRun {
                points: 126_720,
                shards: 5,
                incremental_digest: 9,
                cold_digest: 9,
            },
            brute_points: 1_182_720,
            brute_band: 4_213,
            brute_matches: true,
        };
        assert!(report.all_reruns_identical());
        assert!(report.incremental.digests_match());
        let json = to_json(&report);
        assert!(json.contains("\"rerun_identical\": true"));
        assert!(json.contains("\"digests_match\": true"));
        assert!(json.contains("\"matches\": true"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }
}
