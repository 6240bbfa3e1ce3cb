//! Partitioning and scoring of the surviving band.
//!
//! After the pruning passes, the alive set — the exact Pareto band — is
//! grouped into shards keyed by `(nanostructure, chopper, cds, adc_bits)`.
//! Shards go through [`bios_platform::try_par_map`] (the bit-identical
//! merge contract from the exec layer), so the scored band is identical
//! for any thread count.

use std::collections::BTreeMap;

use bios_electrochem::Nanostructure;
use bios_platform::{evaluate, try_par_map, EvaluatedDesign, ExecPolicy, PanelSpec};

use crate::context::PanelContext;
use crate::error::ExploreError;
use crate::model::{cost_scalar, session_time_s, worst_margin};
use crate::passes::BitSet;
use crate::space::{ExplorePoint, ExploreSpec};

/// One scored member of the surviving band.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ScoredDesign {
    /// Row-major rank in the space this outcome was computed over.
    pub rank: u64,
    /// The design coordinates.
    pub point: ExplorePoint,
    /// Closed-form scalar cost (the dominance axis).
    pub surrogate_cost: f64,
    /// Closed-form worst LOD margin (the dominance axis).
    pub surrogate_margin: f64,
    /// Closed-form session duration, seconds.
    pub session_s: f64,
    /// The full core evaluation of the architectural point — platform
    /// assembly plus analytic LOD prediction, reserved for the band.
    pub simulated: EvaluatedDesign,
}

/// A contiguous unit of band scoring work.
#[derive(Debug, Clone, PartialEq)]
pub struct Shard {
    /// Shard key: working-electrode nanostructuring.
    pub nanostructure: Nanostructure,
    /// Shard key: chopper stabilization.
    pub chopper: bool,
    /// Shard key: correlated double sampling.
    pub cds: bool,
    /// Shard key: ADC resolution.
    pub adc_bits: u8,
    /// Band members in this shard, rank-ascending.
    pub points: Vec<(u64, ExplorePoint)>,
}

/// A shard's key: `(nanostructure, chopper, cds, adc_bits)`.
type ShardKey = (Nanostructure, bool, bool, u8);

/// Groups the alive set into shards, keyed and ordered deterministically.
pub(crate) fn partition(spec: &ExploreSpec, alive: &BitSet) -> Result<Vec<Shard>, ExploreError> {
    let mut groups: BTreeMap<ShardKey, Vec<(u64, ExplorePoint)>> = BTreeMap::new();
    for rank in alive.iter_set() {
        let p = spec.space.point_at(rank).ok_or(ExploreError::Internal {
            what: "alive rank outside the space",
        })?;
        groups
            .entry((
                p.base.nanostructure,
                p.base.chopper,
                p.base.cds,
                p.base.adc_bits,
            ))
            .or_default()
            .push((rank, p));
    }
    Ok(groups
        .into_iter()
        .map(|((nanostructure, chopper, cds, adc_bits), points)| Shard {
            nanostructure,
            chopper,
            cds,
            adc_bits,
            points,
        })
        .collect())
}

/// Surrogate worst-margin per shard point — the scoring loop's hot kernel.
// advdiag::hot — shard scoring loop over the surviving Pareto band
fn score_shard_margins(
    panel: &PanelSpec,
    points: &[(u64, ExplorePoint)],
    margins: &mut [f64],
) -> Result<(), ExploreError> {
    let mut i = 0usize;
    while i < points.len() && i < margins.len() {
        margins[i] = worst_margin(panel, &points[i].1)?;
        i += 1;
    }
    Ok(())
}

/// Scores one shard: surrogate cost, margin and session time plus the full
/// core evaluation of every point.
// advdiag::cold(full platform simulation; runs once per surviving band shard,
// never per space point)
fn score_shard(
    spec: &ExploreSpec,
    cx: &PanelContext,
    shard: &Shard,
) -> Result<Vec<ScoredDesign>, ExploreError> {
    let mut margins = vec![0.0f64; shard.points.len()];
    score_shard_margins(&spec.panel, &shard.points, &mut margins)?;
    let mut out = Vec::with_capacity(shard.points.len());
    for ((rank, point), margin) in shard.points.iter().zip(margins.iter()) {
        let sk = cx.skeleton(point.base.preference, point.base.sharing, point.base.cds)?;
        let simulated = evaluate(&spec.panel, &point.base)?;
        out.push(ScoredDesign {
            rank: *rank,
            point: *point,
            surrogate_cost: cost_scalar(&sk, point),
            surrogate_margin: *margin,
            session_s: session_time_s(&sk, point.oversampling),
            simulated,
        });
    }
    Ok(out)
}

/// Scores every shard (parallel, bit-identical merge) and returns the band
/// rank-ascending.
pub(crate) fn score_band(
    spec: &ExploreSpec,
    cx: &PanelContext,
    shards: &[Shard],
    policy: ExecPolicy,
) -> Result<Vec<ScoredDesign>, ExploreError> {
    let scored = try_par_map(policy, shards, |_, shard| score_shard(spec, cx, shard))?;
    let mut band: Vec<ScoredDesign> = scored.into_iter().flatten().collect();
    band.sort_unstable_by_key(|d| d.rank);
    Ok(band)
}
