//! Pipeline driver, frontier digest and the brute-force oracle.

use bios_platform::ExecPolicy;

use crate::context::PanelContext;
use crate::error::ExploreError;
use crate::hash::Fnv;
use crate::model::evaluate_static;
use crate::passes::{BitSet, PassManager, PassReport, RunCtx, SpaceState};
use crate::shard::{partition, score_band, ScoredDesign};
use crate::space::ExploreSpec;

/// Everything one exploration run produced.
#[derive(Debug, Clone, PartialEq)]
pub struct ExploreOutcome {
    /// Points in the full space.
    pub total_points: u64,
    /// One report per pass, in run order, plus the scoring summary the
    /// caller derives from the fields below.
    pub reports: Vec<PassReport>,
    /// Points statically rejected before any simulation.
    pub statically_rejected: u64,
    /// `statically_rejected / total_points`.
    pub rejection_ratio: f64,
    /// Shards the surviving band partitioned into.
    pub shard_count: u64,
    /// Always 0: shards are scored afresh on every run. Kept so existing
    /// readers of the field still build.
    pub replayed_shards: u64,
    /// FNV-1a digest of the scored band — two runs that agree here agree
    /// on every rank, coordinate and metric bit.
    pub frontier_digest: u64,
    /// The surviving exact Pareto band, scored and fully simulated,
    /// rank-ascending.
    pub band: Vec<ScoredDesign>,
}

/// Digest of a scored band: every rank, coordinate and metric bit.
pub(crate) fn band_digest(band: &[ScoredDesign]) -> u64 {
    let mut h = Fnv::new();
    h.write_u64(band.len() as u64);
    for d in band {
        h.write_u64(d.rank);
        h.write_f64(d.point.base.nanostructure.roughness_factor());
        h.write_u8(crate::context::sharing_ordinal(d.point.base.sharing));
        h.write_bool(d.point.base.chopper);
        h.write_bool(d.point.base.cds);
        h.write_u8(d.point.base.adc_bits);
        h.write_u8(crate::context::pref_ordinal(d.point.base.preference));
        h.write_u64(u64::from(d.point.oversampling));
        h.write_u64(u64::from(d.point.area_pct));
        h.write_f64(d.surrogate_cost);
        h.write_f64(d.surrogate_margin);
        h.write_f64(d.session_s);
        h.write_bool(d.simulated.feasible);
        h.write_f64(d.simulated.worst_lod_margin);
        h.write_f64(d.simulated.cost.scalar());
    }
    h.finish()
}

/// Runs `manager`'s pipeline over `spec`: prune, partition, score.
pub fn explore_with_manager(
    spec: &ExploreSpec,
    manager: &PassManager,
    policy: ExecPolicy,
) -> Result<ExploreOutcome, ExploreError> {
    spec.validate()?;
    let cx = PanelContext::for_spec(spec)?;
    let sizes = spec.space.sizes();
    let total_points = sizes.total();
    let rcx = RunCtx::new(spec, &cx, sizes);
    let mut state = SpaceState {
        alive: BitSet::all_set(total_points),
    };
    let mut reports = Vec::new();
    for &pass in manager.order() {
        reports.push(rcx.run_pass(pass, &mut state)?);
    }
    let surviving = state.alive.count();
    let shards = partition(spec, &state.alive)?;
    let band = score_band(spec, &cx, &shards, policy)?;
    let statically_rejected = total_points - surviving;
    Ok(ExploreOutcome {
        total_points,
        reports,
        statically_rejected,
        rejection_ratio: if total_points == 0 {
            0.0
        } else {
            statically_rejected as f64 / total_points as f64
        },
        shard_count: shards.len() as u64,
        replayed_shards: 0,
        frontier_digest: band_digest(&band),
        band,
    })
}

/// The standard pipeline at the standard order.
pub fn explore(spec: &ExploreSpec, policy: ExecPolicy) -> Result<ExploreOutcome, ExploreError> {
    explore_with_manager(spec, &PassManager::standard(), policy)
}

/// Largest space the brute-force oracle accepts (it is O(n²)).
pub const BRUTE_FORCE_CAP: u64 = 65_536;

/// The reference semantics, computed the slow way: evaluate the full
/// static predicate at *every* point, then O(n²) Pareto filtering with
/// the same tie rules as [`bios_platform::pareto_front`]. Returns
/// `(rank, cost, margin)` of every survivor, rank-ascending. Exists so
/// proptests can pin the pipeline's class-factored answer to a
/// per-point ground truth; refuses spaces above [`BRUTE_FORCE_CAP`].
pub fn brute_force_band(spec: &ExploreSpec) -> Result<Vec<(u64, f64, f64)>, ExploreError> {
    spec.validate()?;
    if spec.space.len() > BRUTE_FORCE_CAP {
        return Err(ExploreError::invalid(
            "space",
            format!("brute-force oracle is capped at {BRUTE_FORCE_CAP} points"),
        ));
    }
    let cx = PanelContext::for_spec(spec)?;
    let budget_s = spec.session_budget.value();
    let mut feasible = Vec::new();
    for (rank, point) in spec.space.iter().enumerate() {
        let sk = cx.skeleton(point.base.preference, point.base.sharing, point.base.cds)?;
        let eval = evaluate_static(&spec.panel, &sk, budget_s, &point)?;
        if eval.reject.is_none() {
            feasible.push((rank as u64, eval.cost, eval.margin));
        }
    }
    let mut band = Vec::new();
    for (k, &(rank, cost, margin)) in feasible.iter().enumerate() {
        let dominated = feasible
            .iter()
            .enumerate()
            .any(|(j, &(_, c, m))| j != k && c <= cost && m >= margin && (c < cost || m > margin));
        if !dominated {
            band.push((rank, cost, margin));
        }
    }
    Ok(band)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::ExploreSpace;
    use bios_platform::PanelSpec;

    fn small_spec() -> ExploreSpec {
        let mut spec = ExploreSpec::standard(PanelSpec::paper_fig4());
        spec.space = ExploreSpace {
            nanostructures: vec![
                bios_electrochem::Nanostructure::CarbonNanotubes,
                bios_electrochem::Nanostructure::None,
            ],
            adc_bits: vec![10, 14, 16],
            oversampling: vec![1, 16],
            area_pct: vec![100, 400],
            ..ExploreSpace::standard_box()
        };
        spec
    }

    #[test]
    fn pipeline_matches_brute_force_on_a_small_space() {
        let spec = small_spec();
        let outcome = explore(&spec, ExecPolicy::Sequential).expect("pipeline");
        let oracle = brute_force_band(&spec).expect("oracle");
        let got: Vec<(u64, u64, u64)> = outcome
            .band
            .iter()
            .map(|d| {
                (
                    d.rank,
                    d.surrogate_cost.to_bits(),
                    d.surrogate_margin.to_bits(),
                )
            })
            .collect();
        let want: Vec<(u64, u64, u64)> = oracle
            .iter()
            .map(|&(r, c, m)| (r, c.to_bits(), m.to_bits()))
            .collect();
        assert_eq!(got, want);
        assert_eq!(
            outcome.statically_rejected,
            outcome.total_points - outcome.band.len() as u64
        );
    }

    #[test]
    fn rerun_is_bit_identical_and_replays_shards() {
        let spec = small_spec();
        let cold = explore(&spec, ExecPolicy::Sequential).expect("cold");
        let warm = explore(&spec, ExecPolicy::Sequential).expect("warm");
        assert_eq!(cold.frontier_digest, warm.frontier_digest);
        assert_eq!(cold.band, warm.band);
    }

    #[test]
    fn pass_order_does_not_change_the_band() {
        use crate::passes::PassId;
        let spec = small_spec();
        let standard = explore(&spec, ExecPolicy::Sequential).expect("standard");
        let reversed = explore_with_manager(
            &spec,
            &PassManager::with_order(&[
                PassId::Dominance,
                PassId::SessionSchedule,
                PassId::AfeRange,
                PassId::LodFeasibility,
            ])
            .expect("order"),
            ExecPolicy::Sequential,
        )
        .expect("reversed");
        assert_eq!(standard.frontier_digest, reversed.frontier_digest);
        assert_eq!(standard.band, reversed.band);
    }
}
