//! Pipeline driver, frontier digest and the brute-force oracle.

use bios_platform::ExecPolicy;

use crate::context::PanelContext;
use crate::error::ExploreError;
use crate::hash::Fnv;
use crate::model::evaluate_static;
use crate::passes::{
    mark_dominated, sort_rows, BitSet, PassManager, PassReport, RunCtx, SpaceState,
};
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

/// The reference semantics, computed the slow way: evaluate the full
/// static predicate at *every* point, then keep the feasible points no
/// other feasible point dominates on `(cost, margin)`. The dominance step
/// is the pipeline's own sweep (`mark_dominated` over rows sorted by
/// cost ascending, margin descending, rank ascending); only the
/// per-point evaluation differs from the class-factored passes. Returns
/// `(rank, cost, margin)` of every survivor, rank-ascending. Exists so
/// tests and the BENCH_10 gate can pin the pipeline's answer to a
/// per-point ground truth. It has no size cap: it visits each point once,
/// so the BENCH_10 gate runs it over all 1,182,720 points of the seven
/// standard panels.
pub fn brute_force_band(spec: &ExploreSpec) -> Result<Vec<(u64, f64, f64)>, ExploreError> {
    spec.validate()?;
    let cx = PanelContext::for_spec(spec)?;
    let budget_s = spec.session_budget.value();
    let mut rows = Vec::new();
    for (rank, point) in spec.space.iter().enumerate() {
        let sk = cx.skeleton(point.base.preference, point.base.sharing, point.base.cds)?;
        let eval = evaluate_static(&spec.panel, &sk, budget_s, &point)?;
        if eval.reject.is_none() {
            rows.push((eval.cost, eval.margin, rank as u64));
        }
    }
    sort_rows(&mut rows);
    let mut dominated = vec![false; rows.len()];
    mark_dominated(&rows, &mut dominated);
    let mut band: Vec<(u64, f64, f64)> = rows
        .iter()
        .zip(&dominated)
        .filter(|(_, dom)| !**dom)
        .map(|(&(cost, margin, rank), _)| (rank, cost, margin))
        .collect();
    band.sort_unstable_by_key(|&(rank, _, _)| rank);
    Ok(band)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::passes::PassId;
    use crate::space::{standard_panels, ExploreSpace};
    use bios_platform::{evaluate, PanelSpec, ReadoutSharing};

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

    /// `panel` over the paper's 96-point sub-box.
    fn paper_spec(panel: PanelSpec) -> ExploreSpec {
        ExploreSpec {
            space: ExploreSpace::paper_default(),
            ..ExploreSpec::standard(panel)
        }
    }

    /// The scored points the pipeline keeps after running only `passes`.
    fn survivors(spec: &ExploreSpec, passes: &[PassId]) -> Vec<ScoredDesign> {
        let manager = PassManager::with_order(passes).expect("order");
        explore_with_manager(spec, &manager, ExecPolicy::Sequential)
            .expect("pipeline")
            .band
    }

    const FEASIBILITY: [PassId; 3] = [
        PassId::LodFeasibility,
        PassId::AfeRange,
        PassId::SessionSchedule,
    ];

    #[test]
    fn paper_sub_box_has_a_front_and_shared_readout_is_cheapest() {
        let spec = paper_spec(PanelSpec::paper_fig4());
        assert!(!survivors(&spec, &PassId::STANDARD).is_empty());
        // The paper's central trade-off: a shared (muxed) readout is
        // cheaper than dedicated chains among feasible designs.
        let feasible = survivors(&spec, &FEASIBILITY);
        let cheapest = |sharing| {
            feasible
                .iter()
                .filter(|d| d.point.base.sharing == sharing)
                .map(|d| d.surrogate_cost)
                .fold(f64::INFINITY, f64::min)
        };
        let shared = cheapest(ReadoutSharing::Shared);
        let dedicated = cheapest(ReadoutSharing::Dedicated);
        assert!(dedicated.is_finite(), "no dedicated design is feasible");
        assert!(
            shared < dedicated,
            "shared {shared} vs dedicated {dedicated}"
        );
    }

    /// Static rejection checked against the simulated evaluator
    /// ([`bios_platform::evaluate`]) on the paper sub-box of every
    /// standard panel, reason by reason:
    ///
    /// * a point fails the LOD pass iff `evaluate` calls it infeasible;
    /// * on every LOD survivor, the surrogate cost and margin equal
    ///   `evaluate`'s bit for bit;
    /// * every point the dominance pass rejects is dominated, under
    ///   `evaluate`'s `(cost, margin)`, by a point the feasibility passes
    ///   keep.
    ///
    /// AFE-range and session-budget rejects are exempt, because `evaluate`
    /// models neither the AFE range nor the session budget. Their count
    /// per panel is pinned.
    #[test]
    fn static_rejection_agrees_with_evaluate_on_the_paper_sub_box() {
        let mut exempt = Vec::new();
        for (name, panel) in standard_panels() {
            let spec = paper_spec(panel);
            let lod_kept = survivors(&spec, &[PassId::LodFeasibility]);
            let feasible = survivors(&spec, &FEASIBILITY);
            let front = survivors(&spec, &PassId::STANDARD);
            for (rank, point) in (0u64..).zip(spec.space.iter()) {
                let simulated = evaluate(&spec.panel, &point.base).expect("evaluate");
                assert_eq!(
                    lod_kept.iter().any(|d| d.rank == rank),
                    simulated.feasible,
                    "{name} rank {rank}: LOD verdict vs evaluate"
                );
            }
            for d in &lod_kept {
                assert_eq!(
                    (d.surrogate_cost.to_bits(), d.surrogate_margin.to_bits()),
                    (
                        d.simulated.cost.scalar().to_bits(),
                        d.simulated.worst_lod_margin.to_bits()
                    ),
                    "{name} rank {}: surrogate vs evaluate",
                    d.rank
                );
            }
            let simulated =
                |d: &ScoredDesign| (d.simulated.cost.scalar(), d.simulated.worst_lod_margin);
            for d in feasible
                .iter()
                .filter(|d| !front.iter().any(|f| f.rank == d.rank))
            {
                let (cost, margin) = simulated(d);
                assert!(
                    feasible.iter().any(|o| {
                        let (c, m) = simulated(o);
                        c <= cost && m >= margin && (c < cost || m > margin)
                    }),
                    "{name} rank {}: dominated reject not dominated under evaluate",
                    d.rank
                );
            }
            exempt.push((name, lod_kept.len() - feasible.len()));
        }
        // The AFE-range pass rejects 16 points of two panels that
        // `evaluate` calls feasible (cholesterol's derived range needs
        // more ADC codes than those points have).
        assert_eq!(
            exempt,
            vec![
                ("fig4-biointerface", 0),
                ("metabolic-trio", 16),
                ("neuro-pair", 0),
                ("p450-pair", 0),
                ("tight-lod-fig4", 0),
                ("glucose-only", 0),
                ("oxidase-quartet", 16),
            ]
        );
    }
}
