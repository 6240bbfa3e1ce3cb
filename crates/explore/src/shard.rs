//! Partitioning and shard-memoized scoring of the surviving band.
//!
//! After the pruning passes, the alive set — the exact Pareto band — is
//! grouped into shards keyed by `(nanostructure, chopper, cds, adc_bits)`.
//! Shards go through [`bios_platform::try_par_map`] (the bit-identical
//! merge contract from the exec layer), and each shard's scored result is
//! memoized under an FNV-1a **content hash** of everything the result
//! depends on: model version, panel requirements, the shard's exact point
//! list. Incremental re-exploration after a space edit therefore replays
//! untouched shards from cache and recomputes only invalidated ones —
//! the same contract as the core calibration/LOD memo layer.
//!
//! Ranks are *not* part of the hash or the cached value: they describe a
//! point's position in one particular space, not its identity, so a cached
//! shard stays valid when an unrelated axis edit renumbers the space.
//! Ranks are re-attached on retrieval.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

use bios_electrochem::Nanostructure;
use bios_platform::{evaluate, required_lod, try_par_map, EvaluatedDesign, ExecPolicy, PanelSpec};

use crate::context::{pref_ordinal, sharing_ordinal, PanelContext};
use crate::error::ExploreError;
use crate::hash::Fnv;
use crate::model::{cost_scalar, session_time_s, worst_margin, MODEL_VERSION};
use crate::passes::BitSet;
use crate::space::{ExplorePoint, ExploreSpec};

/// Entries before a wholesale clear; a band rarely exceeds a few dozen
/// shards, so the cap only guards pathological churn.
const EXPLORE_CACHE_CAP: usize = 1024;

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

fn encode_point(h: &mut Fnv, p: &ExplorePoint) {
    h.write_f64(p.base.nanostructure.roughness_factor());
    h.write_u8(sharing_ordinal(p.base.sharing));
    h.write_bool(p.base.chopper);
    h.write_bool(p.base.cds);
    h.write_u8(p.base.adc_bits);
    h.write_u8(pref_ordinal(p.base.preference));
    h.write_u64(u64::from(p.oversampling));
    h.write_u64(u64::from(p.area_pct));
}

fn panel_fingerprint(panel: &PanelSpec) -> Result<u64, ExploreError> {
    let mut h = Fnv::new();
    h.write_u64(panel.targets().len() as u64);
    for spec in panel.targets() {
        h.write_bytes(format!("{:?}", spec.analyte).as_bytes());
        h.write_f64(required_lod(spec)?.value());
    }
    Ok(h.finish())
}

/// The shard's content hash: model version, panel requirements and the
/// exact point list (values, not ranks).
pub(crate) fn shard_fingerprint(spec: &ExploreSpec, shard: &Shard) -> Result<u64, ExploreError> {
    let mut h = Fnv::new();
    h.write_u64(u64::from(MODEL_VERSION));
    h.write_u64(panel_fingerprint(&spec.panel)?);
    h.write_u64(shard.points.len() as u64);
    for (_, p) in &shard.points {
        encode_point(&mut h, p);
    }
    Ok(h.finish())
}

fn shard_cache() -> &'static Mutex<BTreeMap<u64, Vec<ScoredDesign>>> {
    static CACHE: OnceLock<Mutex<BTreeMap<u64, Vec<ScoredDesign>>>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(BTreeMap::new()))
}

static HITS: AtomicU64 = AtomicU64::new(0);
static MISSES: AtomicU64 = AtomicU64::new(0);

/// `(hits, misses)` of the shard score cache since process start.
pub fn explore_cache_stats() -> (u64, u64) {
    (HITS.load(Ordering::Relaxed), MISSES.load(Ordering::Relaxed))
}

/// Empties the shard score cache (for honest cold-run benchmarks).
pub fn clear_explore_cache() {
    if let Ok(mut cache) = shard_cache().lock() {
        cache.clear();
    }
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

/// Scores one shard, through the content-hash cache. Returns the scored
/// points (ranks re-attached) and whether the shard was replayed.
// advdiag::cold(per-shard cache admin plus full platform simulation; runs once
// per surviving band shard, never per space point)
fn score_shard_cached(
    spec: &ExploreSpec,
    cx: &PanelContext,
    shard: &Shard,
) -> Result<(Vec<ScoredDesign>, bool), ExploreError> {
    let key = shard_fingerprint(spec, shard)?;
    if let Ok(cache) = shard_cache().lock() {
        if let Some(hit) = cache.get(&key) {
            if hit.len() == shard.points.len() {
                HITS.fetch_add(1, Ordering::Relaxed);
                let mut out = hit.clone();
                for (d, (rank, _)) in out.iter_mut().zip(shard.points.iter()) {
                    d.rank = *rank;
                }
                return Ok((out, true));
            }
        }
    }
    MISSES.fetch_add(1, Ordering::Relaxed);

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
    if let Ok(mut cache) = shard_cache().lock() {
        if cache.len() >= EXPLORE_CACHE_CAP {
            cache.clear();
        }
        cache.insert(key, out.clone());
    }
    Ok((out, false))
}

/// Scores every shard (parallel, bit-identical merge) and returns the band
/// rank-ascending plus the number of shards replayed from cache.
pub(crate) fn score_band(
    spec: &ExploreSpec,
    cx: &PanelContext,
    shards: &[Shard],
    policy: ExecPolicy,
) -> Result<(Vec<ScoredDesign>, u64), ExploreError> {
    let scored = try_par_map(policy, shards, |_, shard| {
        score_shard_cached(spec, cx, shard)
    })?;
    let mut replayed = 0u64;
    let mut band = Vec::new();
    for (points, was_hit) in scored {
        if was_hit {
            replayed += 1;
        }
        band.extend(points);
    }
    band.sort_unstable_by_key(|d| d.rank);
    Ok((band, replayed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::ExploreSpace;

    fn tiny_spec() -> ExploreSpec {
        let mut spec = ExploreSpec::standard(PanelSpec::paper_fig4());
        spec.space = ExploreSpace {
            adc_bits: vec![15, 16],
            oversampling: vec![1, 4],
            area_pct: vec![100, 200],
            ..ExploreSpace::standard_box()
        };
        spec
    }

    #[test]
    fn fingerprint_ignores_ranks_but_not_values() {
        let spec = tiny_spec();
        let p0 = spec.space.point_at(0).expect("point");
        let p1 = spec.space.point_at(1).expect("point");
        let base = Shard {
            nanostructure: p0.base.nanostructure,
            chopper: p0.base.chopper,
            cds: p0.base.cds,
            adc_bits: p0.base.adc_bits,
            points: vec![(0, p0)],
        };
        let renumbered = Shard {
            points: vec![(17, p0)],
            ..base.clone()
        };
        let different = Shard {
            points: vec![(0, p1)],
            ..base.clone()
        };
        let f = |s: &Shard| shard_fingerprint(&spec, s).expect("fingerprint");
        assert_eq!(f(&base), f(&renumbered));
        assert_ne!(f(&base), f(&different));
    }

    #[test]
    fn replay_is_bit_identical_and_reattaches_ranks() {
        let spec = tiny_spec();
        let cx = PanelContext::for_spec(&spec).expect("context");
        let p = spec.space.point_at(3).expect("point");
        let shard = Shard {
            nanostructure: p.base.nanostructure,
            chopper: p.base.chopper,
            cds: p.base.cds,
            adc_bits: p.base.adc_bits,
            points: vec![(3, p)],
        };
        clear_explore_cache();
        let (cold, hit_cold) = score_shard_cached(&spec, &cx, &shard).expect("cold");
        assert!(!hit_cold);
        let renumbered = Shard {
            points: vec![(99, p)],
            ..shard.clone()
        };
        let (warm, hit_warm) = score_shard_cached(&spec, &cx, &renumbered).expect("warm");
        assert!(hit_warm);
        assert_eq!(warm[0].rank, 99);
        assert_eq!(
            warm[0].surrogate_cost.to_bits(),
            cold[0].surrogate_cost.to_bits()
        );
        assert_eq!(
            warm[0].surrogate_margin.to_bits(),
            cold[0].surrogate_margin.to_bits()
        );
        assert_eq!(warm[0].simulated, cold[0].simulated);
    }
}
