//! Design-space exploration at methodology scale — the BENCH_10 workload.
//!
//! Seven clinically-motivated panels, each explored over the standard
//! 168 960-point box ([`bios_explore::ExploreSpace::standard_box`]):
//! 1 182 720 candidate designs in total, pruned to their exact Pareto
//! bands by the static pass pipeline with only the surviving bands
//! simulated. Four kinds of evidence are collected:
//!
//! 1. **Static leverage** — per panel and overall, the fraction of the
//!    space refuted by closed-form analysis ([`evaluate_static`] applied
//!    class-wise, never per point). The binary gates this at
//!    [`REJECTION_FLOOR`].
//! 2. **Bit-identical reruns** — every panel is explored cold and then
//!    warm; the warm run must replay every shard from the content-hash
//!    cache and reproduce the frontier digest bit for bit.
//! 3. **Incremental re-exploration** — the fig4 space is *edited* (one
//!    nanostructure dropped) and re-explored against the warm cache;
//!    the digest must equal a cold run of the same edited spec, with the
//!    unaffected shards replayed rather than re-simulated.
//! 4. **Ground truth** — on a brute-force-sized subspace the pipeline's
//!    band is checked rank-for-rank, bit-for-bit against the O(n²)
//!    per-point oracle ([`brute_force_band`]).
//!
//! [`evaluate_static`]: bios_explore::evaluate_static
//! [`brute_force_band`]: bios_explore::brute_force_band

use bios_biochem::Analyte;
use bios_explore::{
    brute_force_band, clear_explore_cache, explore, explore_cache_stats, ExploreSpace, ExploreSpec,
};
use bios_platform::{ExecPolicy, PanelSpec, TargetSpec};

/// Minimum fraction of the space that must be statically rejected for
/// the run to count as "compiler-style": simulating more than 1% of a
/// million-point space is no longer static pruning.
pub const REJECTION_FLOOR: f64 = 0.99;

/// The seven benchmark panels. Together with the standard 168 960-point
/// box they span 1 182 720 candidate designs.
pub fn panels() -> Vec<(&'static str, PanelSpec)> {
    let of = |analytes: &[Analyte]| {
        analytes
            .iter()
            .map(|&a| TargetSpec::typical(a))
            .collect::<PanelSpec>()
    };
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
        ("tight-lod-fig4", {
            // The fig4 panel with the glucose LOD requirement tightened
            // to half its typical value: same analytes, harder
            // constraints, a different calibration fingerprint.
            let mut p = PanelSpec::paper_fig4();
            p.push(
                TargetSpec::typical(Analyte::Glucose)
                    .with_lod(bios_units::Molar::from_micromolar(290.0)),
            );
            p
        }),
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

/// One panel's cold-then-warm exploration evidence.
#[derive(Debug, Clone)]
pub struct PanelRun {
    /// Panel label.
    pub name: &'static str,
    /// Targets in the panel.
    pub targets: usize,
    /// Points in the explored space.
    pub points: u64,
    /// Points refuted by the static passes (cold run).
    pub statically_rejected: u64,
    /// `statically_rejected / points`.
    pub rejection_ratio: f64,
    /// Surviving Pareto band size.
    pub band: usize,
    /// Shards the band partitioned into.
    pub shards: u64,
    /// Frontier digest of the cold run.
    pub digest: u64,
    /// Frontier digest of the warm rerun (must equal `digest`).
    pub warm_digest: u64,
    /// Shards the warm rerun replayed from the cache (must equal
    /// `shards`).
    pub warm_replayed: u64,
}

impl PanelRun {
    /// True when the warm rerun reproduced the cold run bit for bit and
    /// replayed every shard.
    pub fn rerun_identical(&self) -> bool {
        self.digest == self.warm_digest && self.warm_replayed == self.shards
    }
}

/// The incremental re-exploration evidence: an *edited* space explored
/// against the warm cache vs the same edit explored cold.
#[derive(Debug, Clone)]
pub struct IncrementalRun {
    /// Points in the edited space.
    pub points: u64,
    /// Shards of the edited space's band.
    pub shards: u64,
    /// Shards the incremental (warm-cache) run replayed.
    pub replayed: u64,
    /// Frontier digest of the incremental run.
    pub incremental_digest: u64,
    /// Frontier digest of the cold run of the same edited spec.
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
    /// Wall-clock seconds for the cold sweep over every panel.
    pub cold_sweep_s: f64,
    /// Wall-clock seconds for the warm rerun over every panel.
    pub warm_sweep_s: f64,
    /// Shard-cache hits and misses after the whole workload.
    pub cache_hits: u64,
    /// See `cache_hits`.
    pub cache_misses: u64,
    /// Incremental re-exploration evidence.
    pub incremental: IncrementalRun,
    /// Points in the brute-force spot-check subspace.
    pub brute_points: u64,
    /// Band size of the spot check.
    pub brute_band: usize,
    /// True when the pipeline matched the O(n²) oracle bit for bit.
    pub brute_matches: bool,
}

impl ExploreBenchReport {
    /// True when every panel's warm rerun was bit-identical with full
    /// shard replay.
    pub fn all_reruns_identical(&self) -> bool {
        self.panels.iter().all(PanelRun::rerun_identical)
    }
}

/// The edited fig4 spec for the incrementality demo: the standard box
/// with the largest electrode area dropped. The edit invalidates the
/// shards whose surviving point sets it touches; the rest replay from
/// the content-hash cache (3 of 6, on the seed model).
fn edited_fig4_spec() -> ExploreSpec {
    let mut spec = ExploreSpec::standard(PanelSpec::paper_fig4());
    spec.space.area_pct.retain(|&a| a != 400);
    spec
}

/// A brute-force-sized subspace (3 456 points, well under
/// [`bios_explore::BRUTE_FORCE_CAP`]) for the ground-truth spot check.
fn spot_check_spec() -> ExploreSpec {
    let mut spec = ExploreSpec::standard(PanelSpec::paper_fig4());
    spec.space = ExploreSpace {
        adc_bits: vec![8, 12, 16],
        oversampling: vec![1, 16, 256],
        area_pct: vec![50, 100, 200, 400],
        ..ExploreSpace::standard_box()
    };
    spec
}

/// Runs the whole BENCH_10 workload: cold sweep, warm sweep,
/// incremental edit, brute-force spot check.
pub fn run(policy: ExecPolicy) -> Result<ExploreBenchReport, Box<dyn std::error::Error>> {
    clear_explore_cache();
    let panel_set = panels();

    let cold_start = std::time::Instant::now();
    let mut runs: Vec<PanelRun> = Vec::with_capacity(panel_set.len());
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
            warm_replayed: 0,
        });
    }
    let cold_sweep_s = cold_start.elapsed().as_secs_f64();

    let warm_start = std::time::Instant::now();
    for (run, (_, panel)) in runs.iter_mut().zip(&panel_set) {
        let spec = ExploreSpec::standard(panel.clone());
        let outcome = explore(&spec, policy)?;
        run.warm_digest = outcome.frontier_digest;
        run.warm_replayed = outcome.replayed_shards;
    }
    let warm_sweep_s = warm_start.elapsed().as_secs_f64();

    // Incremental: edited space against the warm cache, then the same
    // edit cold. Shards the edit did not touch must replay; the answer
    // must not depend on which path produced it.
    let edited = edited_fig4_spec();
    let incremental_outcome = explore(&edited, policy)?;
    let (cache_hits, cache_misses) = explore_cache_stats();
    clear_explore_cache();
    let cold_edited = explore(&edited, policy)?;
    let incremental = IncrementalRun {
        points: incremental_outcome.total_points,
        shards: incremental_outcome.shard_count,
        replayed: incremental_outcome.replayed_shards,
        incremental_digest: incremental_outcome.frontier_digest,
        cold_digest: cold_edited.frontier_digest,
    };

    // Ground truth: pipeline band vs the O(n²) per-point oracle, bit for
    // bit on ranks, costs and margins.
    let spot = spot_check_spec();
    let spot_outcome = explore(&spot, policy)?;
    let oracle = brute_force_band(&spot)?;
    let brute_matches = spot_outcome.band.len() == oracle.len()
        && spot_outcome
            .band
            .iter()
            .zip(oracle.iter())
            .all(|(d, &(rank, cost, margin))| {
                d.rank == rank
                    && d.surrogate_cost.to_bits() == cost.to_bits()
                    && d.surrogate_margin.to_bits() == margin.to_bits()
            });

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
        cache_hits,
        cache_misses,
        incremental,
        brute_points: spot.space.len(),
        brute_band: oracle.len(),
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
    out.push_str(&format!(
        "  \"cache\": {{\"hits\": {}, \"misses\": {}}},\n",
        report.cache_hits, report.cache_misses
    ));
    out.push_str("  \"panels\": [\n");
    for (i, p) in report.panels.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"targets\": {}, \"points\": {}, \"statically_rejected\": {}, \"rejection_ratio\": {:.6}, \"band\": {}, \"shards\": {}, \"frontier_digest\": \"{:016x}\", \"warm_digest\": \"{:016x}\", \"warm_replayed\": {}, \"rerun_identical\": {}}}{}\n",
            p.name,
            p.targets,
            p.points,
            p.statically_rejected,
            p.rejection_ratio,
            p.band,
            p.shards,
            p.digest,
            p.warm_digest,
            p.warm_replayed,
            p.rerun_identical(),
            if i + 1 < report.panels.len() { "," } else { "" },
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"incremental\": {{\"points\": {}, \"shards\": {}, \"replayed\": {}, \"incremental_digest\": \"{:016x}\", \"cold_digest\": \"{:016x}\", \"digests_match\": {}}},\n",
        report.incremental.points,
        report.incremental.shards,
        report.incremental.replayed,
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
    fn spot_check_space_is_under_the_oracle_cap() {
        assert!(spot_check_spec().space.len() <= bios_explore::BRUTE_FORCE_CAP);
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
                warm_replayed: 6,
            }],
            total_points: 168_960,
            total_rejected: 168_729,
            overall_rejection_ratio: 0.998_632,
            cold_sweep_s: 1.5,
            warm_sweep_s: 0.5,
            cache_hits: 6,
            cache_misses: 8,
            incremental: IncrementalRun {
                points: 126_720,
                shards: 5,
                replayed: 3,
                incremental_digest: 9,
                cold_digest: 9,
            },
            brute_points: 3_456,
            brute_band: 12,
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
