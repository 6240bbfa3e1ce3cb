//! The pruning pass pipeline.
//!
//! Structured like a compiler: a [`PassManager`] runs typed passes over the
//! rank space, each pass proving points *out* instead of evaluating points
//! in. Three design rules make the pipeline auditable and order-independent:
//!
//! 1. **Passes are pure space-level predicates.** A pass computes its
//!    verdicts from the [`ExploreSpec`] and the closed-form models only —
//!    never from which points earlier passes already killed. Marking a
//!    dead point dead again is a no-op, so the surviving set is the
//!    intersection of per-pass survivor sets and is invariant under any
//!    permutation of the pass order (a proptest pins this).
//! 2. **Verdicts are per class, not per point.** Each pass projects the
//!    space onto the axes its model actually reads, evaluates one
//!    representative per projected class, and extends the verdict over the
//!    class's whole fiber. That is why a ≥10⁶-point space needs ~10⁴–10⁵
//!    closed-form evaluations, not 10⁶ simulations. Inside a class table
//!    the expensive half of each model (the per-target noise terms, the
//!    electronics bill) is built once per class of the axes it reads, and
//!    only a cheap `(oversampling, area)` tail runs per cell. Each table is
//!    built once per run, on first use, and shared by every pass that
//!    reads it.
//! 3. **Every refutation carries a [`RejectReason`].** Reports bucket
//!    rejections by reason with class and point counts, so a run reads
//!    like a lint report: what was proven, about how much, from how few
//!    premises.

use std::cell::OnceCell;
use std::collections::BTreeMap;

use bios_biochem::Analyte;
use bios_platform::DesignPoint;

use crate::context::PanelContext;
use crate::error::ExploreError;
use crate::model::{
    afe_incompatibility, margin_tail, session_time_s, Electronics, RejectReason, TargetLod,
};
use crate::space::{area_scale, AxisSizes, ExploreSpec};

/// A fixed-size bitmap over ranks; bit set = point still alive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct BitSet {
    words: Vec<u64>,
    len: u64,
}

impl BitSet {
    pub(crate) fn all_set(len: u64) -> Self {
        let nwords = len.div_ceil(64) as usize;
        let mut words = vec![u64::MAX; nwords];
        if let Some(last) = words.last_mut() {
            let tail = (len % 64) as u32;
            if tail != 0 {
                *last = (1u64 << tail) - 1;
            }
        }
        Self { words, len }
    }

    #[inline]
    pub(crate) fn clear(&mut self, i: u64) {
        self.words[(i >> 6) as usize] &= !(1u64 << (i & 63));
    }

    #[inline]
    pub(crate) fn get(&self, i: u64) -> bool {
        (self.words[(i >> 6) as usize] >> (i & 63)) & 1 == 1
    }

    pub(crate) fn count(&self) -> u64 {
        let mut total = 0u64;
        for w in &self.words {
            total += u64::from(w.count_ones());
        }
        total
    }

    pub(crate) fn iter_set(&self) -> impl Iterator<Item = u64> + '_ {
        (0..self.len).filter(move |&i| self.get(i))
    }
}

/// The alive set threaded through the pipeline.
#[derive(Debug, Clone)]
pub(crate) struct SpaceState {
    pub(crate) alive: BitSet,
}

/// Which pass to run; the order is a caller choice and, by construction,
/// does not change the surviving set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum PassId {
    /// Closed-form LOD feasibility per `(nanostructure, chopper, cds,
    /// adc_bits, oversampling, area)` class.
    LodFeasibility,
    /// Derived-range realizability per `(nanostructure, adc_bits)` class.
    AfeRange,
    /// Session-duration budget per `(sharing, cds, preference,
    /// oversampling)` class.
    SessionSchedule,
    /// Exact Pareto dominance on `(cost, margin)` over the feasible set.
    Dominance,
}

impl PassId {
    /// The canonical order (cheapest proofs first).
    pub const STANDARD: [PassId; 4] = [
        PassId::LodFeasibility,
        PassId::AfeRange,
        PassId::SessionSchedule,
        PassId::Dominance,
    ];

    /// Stable name used in reports and bench JSON.
    pub fn name(self) -> &'static str {
        match self {
            PassId::LodFeasibility => "lod-feasibility",
            PassId::AfeRange => "afe-range",
            PassId::SessionSchedule => "session-schedule",
            PassId::Dominance => "dominance",
        }
    }
}

/// One reason-bucket in a pass report.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct RejectBucket {
    /// The machine-readable refutation.
    pub reason: RejectReason,
    /// Distinct projected classes this reason refuted.
    pub classes: u64,
    /// Points covered by those classes' fibers.
    pub points: u64,
}

/// What one pass did — points in/out and the proof categories.
///
/// `points_in`/`points_out` describe the alive set around *this run order*;
/// the reason buckets are order-independent because every pass judges the
/// full space (a point refutable by two passes appears in both passes'
/// buckets).
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct PassReport {
    /// Pass name (see [`PassId::name`]).
    pub pass: String,
    /// Alive points before the pass, in this run order.
    pub points_in: u64,
    /// Alive points after the pass, in this run order.
    pub points_out: u64,
    /// Entries of the class tables the pass's verdicts rest on. A table
    /// an earlier pass of the same run built is counted again, not rebuilt.
    pub classes_evaluated: u64,
    /// Refutations, bucketed by reason.
    pub rejects: Vec<RejectBucket>,
}

/// The LOD-feasibility table: worst margin and first failing target per
/// `(nanostructure, chopper, cds, adc_bits, oversampling, area)` class.
struct MarginTable {
    margins: Vec<f64>,
    culprits: Vec<Option<Analyte>>,
}

/// Everything a pass needs, borrowed once per run, plus the run's class
/// tables. Each table is built on first use and shared by every pass that
/// reads it; it lives only as long as the run.
pub(crate) struct RunCtx<'a> {
    spec: &'a ExploreSpec,
    cx: &'a PanelContext,
    sizes: AxisSizes,
    margins: OnceCell<MarginTable>,
    afe: OnceCell<Vec<Option<Analyte>>>,
    times: OnceCell<Vec<f64>>,
    costs: OnceCell<Vec<f64>>,
}

/// The table in `cell`, built by `build` on first use.
fn lazy<T>(
    cell: &OnceCell<T>,
    build: impl FnOnce() -> Result<T, ExploreError>,
) -> Result<&T, ExploreError> {
    if let Some(table) = cell.get() {
        return Ok(table);
    }
    let table = build()?;
    Ok(cell.get_or_init(|| table))
}

impl<'a> RunCtx<'a> {
    pub(crate) fn new(spec: &'a ExploreSpec, cx: &'a PanelContext, sizes: AxisSizes) -> Self {
        Self {
            spec,
            cx,
            sizes,
            margins: OnceCell::new(),
            afe: OnceCell::new(),
            times: OnceCell::new(),
            costs: OnceCell::new(),
        }
    }

    fn margins(&self) -> Result<&MarginTable, ExploreError> {
        lazy(&self.margins, || self.build_margins())
    }

    fn afe(&self) -> Result<&[Option<Analyte>], ExploreError> {
        lazy(&self.afe, || self.build_afe()).map(Vec::as_slice)
    }

    fn times(&self) -> Result<&[f64], ExploreError> {
        lazy(&self.times, || self.build_times()).map(Vec::as_slice)
    }

    fn costs(&self) -> Result<&[f64], ExploreError> {
        lazy(&self.costs, || self.build_costs()).map(Vec::as_slice)
    }

    /// Builds the margin table. The per-target noise terms read only
    /// `(nanostructure, chopper, cds, adc_bits)`, so they are built once per
    /// such class; only the `(oversampling, area)` tail runs per cell.
    /// Sharing and preference are fibered out: the first axis value stands
    /// in for all.
    fn build_margins(&self) -> Result<MarginTable, ExploreError> {
        let sz = self.sizes;
        let space = &self.spec.space;
        let panel = &self.spec.panel;
        let mut margins = vec![0.0f64; sz.margin_classes()];
        let mut culprits = vec![None; sz.margin_classes()];
        let mut targets = Vec::with_capacity(panel.targets().len());
        for n in 0..sz.n {
            for ch in 0..sz.ch {
                for cd in 0..sz.cd {
                    for ab in 0..sz.ab {
                        let base = DesignPoint {
                            nanostructure: space.nanostructures[n],
                            sharing: space.sharing[0],
                            chopper: space.chopper[ch],
                            cds: space.cds[cd],
                            adc_bits: space.adc_bits[ab],
                            preference: space.preferences[0],
                        };
                        targets.clear();
                        for spec in panel.targets() {
                            targets.push(TargetLod::new(spec, &base)?);
                        }
                        for os in 0..sz.os {
                            for ar in 0..sz.ar {
                                let mc = sz.margin_class(n, ch, cd, ab, os, ar);
                                let (margin, culprit) = margin_tail(
                                    &targets,
                                    space.oversampling[os],
                                    area_scale(space.area_pct[ar]),
                                )?;
                                margins[mc] = margin;
                                culprits[mc] = culprit;
                            }
                        }
                    }
                }
            }
        }
        Ok(MarginTable { margins, culprits })
    }

    /// Builds the AFE-compatibility table: first unrealizable target per
    /// `(nanostructure, adc_bits)` class.
    fn build_afe(&self) -> Result<Vec<Option<Analyte>>, ExploreError> {
        let sz = self.sizes;
        let space = &self.spec.space;
        let mut culprits = vec![None; sz.afe_classes()];
        for n in 0..sz.n {
            for ab in 0..sz.ab {
                culprits[sz.afe_class(n, ab)] = afe_incompatibility(
                    &self.spec.panel,
                    space.nanostructures[n],
                    space.adc_bits[ab],
                )?;
            }
        }
        Ok(culprits)
    }

    /// Builds the session-time table per `(sharing, cds, preference,
    /// oversampling)` class.
    fn build_times(&self) -> Result<Vec<f64>, ExploreError> {
        let sz = self.sizes;
        let space = &self.spec.space;
        let mut times = vec![0.0f64; sz.time_classes()];
        for s in 0..sz.s {
            for cd in 0..sz.cd {
                for pf in 0..sz.pf {
                    let sk =
                        self.cx
                            .skeleton(space.preferences[pf], space.sharing[s], space.cds[cd])?;
                    for os in 0..sz.os {
                        times[sz.time_class(s, cd, pf, os)] =
                            session_time_s(&sk, space.oversampling[os]);
                    }
                }
            }
        }
        Ok(times)
    }

    /// Builds the cost table per `(sharing, chopper, cds, adc_bits,
    /// preference, oversampling, area)` class. Nanostructure is the only
    /// fibered axis: the cost model never reads it. The electronics bill
    /// reads only `(sharing, chopper, cds, adc_bits)` and the skeleton, so
    /// it is built once per such class; only the area/session tail runs
    /// per cell.
    fn build_costs(&self) -> Result<Vec<f64>, ExploreError> {
        let sz = self.sizes;
        let space = &self.spec.space;
        let mut costs = vec![0.0f64; sz.cost_classes()];
        for s in 0..sz.s {
            for ch in 0..sz.ch {
                for cd in 0..sz.cd {
                    for ab in 0..sz.ab {
                        for pf in 0..sz.pf {
                            let sk = self.cx.skeleton(
                                space.preferences[pf],
                                space.sharing[s],
                                space.cds[cd],
                            )?;
                            let base = DesignPoint {
                                nanostructure: space.nanostructures[0],
                                sharing: space.sharing[s],
                                chopper: space.chopper[ch],
                                cds: space.cds[cd],
                                adc_bits: space.adc_bits[ab],
                                preference: space.preferences[pf],
                            };
                            let electronics = Electronics::new(&sk, &base);
                            for os in 0..sz.os {
                                for ar in 0..sz.ar {
                                    let cost = electronics.cost_scalar(
                                        &sk,
                                        space.oversampling[os],
                                        area_scale(space.area_pct[ar]),
                                    );
                                    if !cost.is_finite() {
                                        return Err(ExploreError::NonFinite {
                                            what: "surrogate cost",
                                        });
                                    }
                                    costs[sz.cost_class(s, ch, cd, ab, pf, os, ar)] = cost;
                                }
                            }
                        }
                    }
                }
            }
        }
        Ok(costs)
    }
}

/// Sweeps the full rank space once and clears every point some supplied
/// class table refutes. Shared by the three feasibility passes; each pass
/// supplies only its own table so its verdicts stay independent.
// advdiag::hot — full-space rank sweep: one visit per point, ≥10⁶ iterations
fn sweep_and_mark(
    sz: &AxisSizes,
    margins: Option<&[f64]>,
    afe: Option<&[Option<Analyte>]>,
    times: Option<&[f64]>,
    budget_s: f64,
    alive: &mut BitSet,
) {
    let mut rank: u64 = 0;
    for n in 0..sz.n {
        for s in 0..sz.s {
            for ch in 0..sz.ch {
                for cd in 0..sz.cd {
                    for ab in 0..sz.ab {
                        for pf in 0..sz.pf {
                            for os in 0..sz.os {
                                for ar in 0..sz.ar {
                                    let mut dead = false;
                                    if let Some(m) = margins {
                                        dead |= m[sz.margin_class(n, ch, cd, ab, os, ar)] < 1.0;
                                    }
                                    if let Some(a) = afe {
                                        dead |= a[sz.afe_class(n, ab)].is_some();
                                    }
                                    if let Some(t) = times {
                                        dead |= t[sz.time_class(s, cd, pf, os)] > budget_s;
                                    }
                                    if dead {
                                        alive.clear(rank);
                                    }
                                    rank += 1;
                                }
                            }
                        }
                    }
                }
            }
        }
    }
}

/// Counts points the full static predicate keeps (feasible on every
/// criterion) — the exact-size allocation for the dominance table.
// advdiag::hot — full-space rank sweep: one visit per point, ≥10⁶ iterations
fn count_feasible(
    sz: &AxisSizes,
    margins: &[f64],
    afe: &[Option<Analyte>],
    times: &[f64],
    budget_s: f64,
) -> usize {
    let mut count = 0usize;
    for n in 0..sz.n {
        for s in 0..sz.s {
            for ch in 0..sz.ch {
                for cd in 0..sz.cd {
                    for ab in 0..sz.ab {
                        for pf in 0..sz.pf {
                            for os in 0..sz.os {
                                for ar in 0..sz.ar {
                                    let ok = margins[sz.margin_class(n, ch, cd, ab, os, ar)] >= 1.0
                                        && afe[sz.afe_class(n, ab)].is_none()
                                        && times[sz.time_class(s, cd, pf, os)] <= budget_s;
                                    if ok {
                                        count += 1;
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    count
}

/// Fills `(cost, margin, rank)` rows for every feasible point, in rank
/// order, into a preallocated table. Returns the cursor, which must equal
/// the table length.
// advdiag::hot — full-space rank sweep: one visit per point, ≥10⁶ iterations
fn fill_feasible(
    sz: &AxisSizes,
    margins: &[f64],
    afe: &[Option<Analyte>],
    times: &[f64],
    costs: &[f64],
    budget_s: f64,
    out: &mut [(f64, f64, u64)],
) -> usize {
    let mut rank: u64 = 0;
    let mut cursor = 0usize;
    for n in 0..sz.n {
        for s in 0..sz.s {
            for ch in 0..sz.ch {
                for cd in 0..sz.cd {
                    for ab in 0..sz.ab {
                        for pf in 0..sz.pf {
                            for os in 0..sz.os {
                                for ar in 0..sz.ar {
                                    let ok = margins[sz.margin_class(n, ch, cd, ab, os, ar)] >= 1.0
                                        && afe[sz.afe_class(n, ab)].is_none()
                                        && times[sz.time_class(s, cd, pf, os)] <= budget_s;
                                    if ok && cursor < out.len() {
                                        out[cursor] = (
                                            costs[sz.cost_class(s, ch, cd, ab, pf, os, ar)],
                                            margins[sz.margin_class(n, ch, cd, ab, os, ar)],
                                            rank,
                                        );
                                        cursor += 1;
                                    }
                                    rank += 1;
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    cursor
}

/// Sorts `(cost, margin, rank)` rows by `(cost asc, margin desc, rank
/// asc)`, the order [`mark_dominated`] reads them in.
pub(crate) fn sort_rows(rows: &mut [(f64, f64, u64)]) {
    rows.sort_unstable_by(|a, b| {
        a.0.total_cmp(&b.0)
            .then(b.1.total_cmp(&a.1))
            .then(a.2.cmp(&b.2))
    });
}

/// Marks dominated rows in the sorted feasible table.
///
/// Input rows are sorted by `(cost asc, margin desc, rank asc)`. A row is
/// dominated iff a strictly cheaper row has margin ≥ its margin, or an
/// equal-cost row has strictly greater margin. Exact `(cost, margin)` ties
/// all survive. The dominance pass and the brute-force oracle both run
/// this one sweep; a unit test checks it against the O(n²) definition.
// advdiag::hot — single scan over the sorted feasible table
pub(crate) fn mark_dominated(rows: &[(f64, f64, u64)], dominated: &mut [bool]) {
    let mut best_prev = f64::NEG_INFINITY; // best margin among strictly cheaper rows
    let mut g = 0usize; // group start
    while g < rows.len() {
        let cost_bits = rows[g].0.to_bits();
        let mut end = g;
        while end < rows.len() && rows[end].0.to_bits() == cost_bits {
            end += 1;
        }
        // Sorted margin-desc within the group, so the group max is first.
        let group_max = rows[g].1;
        let mut k = g;
        while k < end {
            let margin = rows[k].1;
            dominated[k] = best_prev >= margin || margin < group_max;
            k += 1;
        }
        if group_max > best_prev {
            best_prev = group_max;
        }
        g = end;
    }
}

fn bucketize(map: BTreeMap<RejectReason, (u64, u64)>) -> Vec<RejectBucket> {
    map.into_iter()
        .map(|(reason, (classes, points))| RejectBucket {
            reason,
            classes,
            points,
        })
        .collect()
}

impl<'a> RunCtx<'a> {
    pub(crate) fn run_pass(
        &self,
        pass: PassId,
        state: &mut SpaceState,
    ) -> Result<PassReport, ExploreError> {
        let points_in = state.alive.count();
        let sz = self.sizes;
        let budget_s = self.spec.session_budget.value();
        let (classes_evaluated, rejects) = match pass {
            PassId::LodFeasibility => {
                let MarginTable { margins, culprits } = self.margins()?;
                sweep_and_mark(&sz, Some(margins), None, None, budget_s, &mut state.alive);
                let fiber = (sz.s * sz.pf) as u64;
                let mut buckets = BTreeMap::new();
                for (mc, m) in margins.iter().enumerate() {
                    if *m < 1.0 {
                        let analyte = culprits[mc].ok_or(ExploreError::Internal {
                            what: "infeasible margin class with no culprit",
                        })?;
                        let e = buckets
                            .entry(RejectReason::LodAboveRequirement { analyte })
                            .or_insert((0, 0));
                        e.0 += 1;
                        e.1 += fiber;
                    }
                }
                (sz.margin_classes() as u64, bucketize(buckets))
            }
            PassId::AfeRange => {
                let culprits = self.afe()?;
                sweep_and_mark(&sz, None, Some(culprits), None, budget_s, &mut state.alive);
                let fiber = (sz.s * sz.ch * sz.cd * sz.pf * sz.os * sz.ar) as u64;
                let mut buckets = BTreeMap::new();
                for c in culprits.iter().flatten() {
                    let e = buckets
                        .entry(RejectReason::AfeRangeNoiseIncompatible { analyte: *c })
                        .or_insert((0, 0));
                    e.0 += 1;
                    e.1 += fiber;
                }
                (sz.afe_classes() as u64, bucketize(buckets))
            }
            PassId::SessionSchedule => {
                let times = self.times()?;
                sweep_and_mark(&sz, None, None, Some(times), budget_s, &mut state.alive);
                let fiber = (sz.n * sz.ch * sz.ab * sz.ar) as u64;
                let mut buckets = BTreeMap::new();
                for s in 0..sz.s {
                    for cd in 0..sz.cd {
                        for pf in 0..sz.pf {
                            for os in 0..sz.os {
                                if times[sz.time_class(s, cd, pf, os)] > budget_s {
                                    let reason = match self.spec.space.sharing[s] {
                                        bios_platform::ReadoutSharing::Shared => {
                                            RejectReason::SharingConflict
                                        }
                                        bios_platform::ReadoutSharing::Dedicated => {
                                            RejectReason::SessionOverBudget
                                        }
                                    };
                                    let e = buckets.entry(reason).or_insert((0, 0));
                                    e.0 += 1;
                                    e.1 += fiber;
                                }
                            }
                        }
                    }
                }
                (sz.time_classes() as u64, bucketize(buckets))
            }
            PassId::Dominance => {
                // Dominance re-derives feasibility from the full tables,
                // not from the alive set, so its verdicts never depend on
                // which passes ran before it.
                let margins = &self.margins()?.margins;
                let afe = self.afe()?;
                let times = self.times()?;
                let costs = self.costs()?;

                let feasible = count_feasible(&sz, margins, afe, times, budget_s);
                let mut rows = vec![(0.0f64, 0.0f64, 0u64); feasible];
                let cursor = fill_feasible(&sz, margins, afe, times, costs, budget_s, &mut rows);
                if cursor != rows.len() {
                    return Err(ExploreError::Internal {
                        what: "feasible count and fill cursor disagree",
                    });
                }
                sort_rows(&mut rows);
                let mut dominated = vec![false; rows.len()];
                mark_dominated(&rows, &mut dominated);

                let mut points = 0u64;
                let mut classes = 0u64;
                let mut prev_pair = None;
                for (row, dom) in rows.iter().zip(dominated.iter()) {
                    if *dom {
                        state.alive.clear(row.2);
                        points += 1;
                        let pair = (row.0.to_bits(), row.1.to_bits());
                        if prev_pair != Some(pair) {
                            classes += 1;
                            prev_pair = Some(pair);
                        }
                    }
                }
                let evaluated = (sz.margin_classes()
                    + sz.afe_classes()
                    + sz.time_classes()
                    + sz.cost_classes()) as u64;
                let rejects = if points > 0 {
                    vec![RejectBucket {
                        reason: RejectReason::Dominated,
                        classes,
                        points,
                    }]
                } else {
                    Vec::new()
                };
                (evaluated, rejects)
            }
        };
        Ok(PassReport {
            pass: pass.name().to_string(),
            points_in,
            points_out: state.alive.count(),
            classes_evaluated,
            rejects,
        })
    }
}

/// The pipeline driver: holds a pass order and runs it over a spec.
#[derive(Debug, Clone, PartialEq)]
pub struct PassManager {
    order: Vec<PassId>,
}

impl PassManager {
    /// The canonical pipeline: cheapest proofs first, dominance last.
    pub fn standard() -> Self {
        Self {
            order: PassId::STANDARD.to_vec(),
        }
    }

    /// A custom order. Duplicates are rejected; any subset and any
    /// permutation is allowed (permutations provably converge to the same
    /// surviving set).
    pub fn with_order(order: &[PassId]) -> Result<Self, ExploreError> {
        if order.is_empty() {
            return Err(ExploreError::InvalidOrder {
                reason: "at least one pass is required".to_string(),
            });
        }
        for (i, p) in order.iter().enumerate() {
            if order[..i].contains(p) {
                return Err(ExploreError::InvalidOrder {
                    reason: format!("duplicate pass {}", p.name()),
                });
            }
        }
        Ok(Self {
            order: order.to_vec(),
        })
    }

    /// The configured order.
    pub(crate) fn order(&self) -> &[PassId] {
        &self.order
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitset_tail_and_clear() {
        let mut b = BitSet::all_set(70);
        assert_eq!(b.count(), 70);
        b.clear(0);
        b.clear(69);
        b.clear(69);
        assert_eq!(b.count(), 68);
        assert!(!b.get(0) && !b.get(69) && b.get(1));
        assert_eq!(b.iter_set().count(), 68);
    }

    #[test]
    fn mark_dominated_keeps_exact_ties_and_kills_strictly_worse() {
        // Sorted by (cost asc, margin desc): rows 0,1 tie exactly; row 2 is
        // equal-cost but lower margin; row 3 is costlier with lower margin;
        // row 4 is costlier but higher margin (survives).
        let rows: [(f64, f64, u64); 5] = [
            (1.0, 5.0, 0),
            (1.0, 5.0, 1),
            (1.0, 4.0, 2),
            (2.0, 4.5, 3),
            (2.0, 6.0, 4),
        ];
        // Re-sort per contract (margin desc within cost).
        let mut rows = rows;
        rows.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(b.1.total_cmp(&a.1)));
        let mut dom = [false; 5];
        mark_dominated(&rows, &mut dom);
        let surviving: Vec<u64> = rows
            .iter()
            .zip(dom.iter())
            .filter(|(_, d)| !**d)
            .map(|(r, _)| r.2)
            .collect();
        assert_eq!(surviving, vec![0, 1, 4]);
    }

    /// Dominance by definition, pair by pair: a row is dominated iff
    /// another row is no costlier, has no lower margin and is strictly
    /// better on one of the two.
    fn dominated_by_definition(rows: &[(f64, f64, u64)]) -> Vec<bool> {
        rows.iter()
            .map(|&(cost, margin, rank)| {
                rows.iter().any(|&(c, m, r)| {
                    r != rank && c <= cost && m >= margin && (c < cost || m > margin)
                })
            })
            .collect()
    }

    #[test]
    fn mark_dominated_matches_the_quadratic_definition_on_random_rows() {
        // A seeded LCG. Eight values per axis over up to 40 rows make exact
        // cost ties, margin ties and (cost, margin) ties common.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut draw = |k: u64| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) % k
        };
        let mut exact_ties = 0usize;
        for case in 0..500 {
            let n = 1 + draw(40) as usize;
            let mut rows: Vec<(f64, f64, u64)> = (0..n as u64)
                .map(|rank| (draw(8) as f64 * 0.5, draw(8) as f64 * 0.25, rank))
                .collect();
            sort_rows(&mut rows);
            exact_ties += rows
                .windows(2)
                .filter(|w| {
                    w[0].0.to_bits() == w[1].0.to_bits() && w[0].1.to_bits() == w[1].1.to_bits()
                })
                .count();
            let mut dominated = vec![false; n];
            mark_dominated(&rows, &mut dominated);
            assert_eq!(dominated, dominated_by_definition(&rows), "case {case}");
        }
        assert!(exact_ties > 0, "the rows must exercise exact ties");
    }

    #[test]
    fn with_order_rejects_duplicates_and_empty() {
        assert!(PassManager::with_order(&[]).is_err());
        assert!(PassManager::with_order(&[PassId::Dominance, PassId::Dominance]).is_err());
        let m =
            PassManager::with_order(&[PassId::Dominance, PassId::LodFeasibility]).expect("order");
        assert_eq!(m.order().len(), 2);
    }
}
