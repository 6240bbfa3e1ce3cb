//! Closed-form surrogate models — the facts the passes prove things with.
//!
//! Every function here is a *pure* function of calibration-table rows
//! ([`bios_biochem`]), the core noise decomposition
//! ([`bios_platform::noise_breakdown`]) and a [`Skeleton`]. Purity is the
//! whole game: a pass may evaluate a class once and extend the verdict over
//! every point in the class's fiber, which is only sound if nothing here
//! reads ambient state.
//!
//! # Bit-exactness contract
//!
//! At the reference coordinates (`oversampling = 1`, `area_pct = 100`)
//! [`surrogate_lod`] is **bit-identical** to
//! [`bios_platform::predict_lod`]: the scale factors degenerate to
//! `x / 1.0` and `√1.0`, which are exact in IEEE 754, and the remaining
//! expression is the same noise quadrature evaluated in the same order.
//! A proptest pins this so the surrogate can never drift from the
//! simulator's analytic model.
//!
//! # Surrogate axes
//!
//! * **Oversampling `M`** — averaging `M` repeats attenuates stochastic
//!   and quantization noise by `√M`; drift and amplifier flicker are
//!   correlated across repeats and do not average down. Session time
//!   multiplies by `M`.
//! * **Area scale `a`** — blank noise is a current *density*, so a larger
//!   electrode averages it spatially (`1/√a` on the electrochemical
//!   terms); the ADC step is an absolute current referred back to density
//!   (`1/a`), and quantization also averages down with `M`. `a = 1`
//!   (`area_pct = 100`) is the paper's reference working-electrode area,
//!   [`bios_platform::PAPER_WE_AREA_CM2`].

use bios_biochem::tables::performance_of;
use bios_biochem::Analyte;
use bios_platform::{
    effective_sensitivity, electronics_budget, noise_breakdown, required_lod, NoiseBreakdown,
    PanelSpec, PlatformCost,
};
use bios_units::{Seconds, SquareCentimeters};

use crate::context::Skeleton;
use crate::error::ExploreError;
use crate::space::ExplorePoint;

/// The builder's realizability floor: derived resolution is clamped so the
/// dynamic range never exceeds 15 bits (`derive_oxidase_range` in
/// `bios-platform`).
const DERIVED_DR_CAP: f64 = 32768.0;

/// Predicted LOD (mol/L) for one target at an exploration point.
///
/// Composes the core [`noise_breakdown`] with the oversampling and
/// area-scale attenuations documented on the module. Bit-identical to
/// [`bios_platform::predict_lod`] at `M = 1`, `a = 1`.
// advdiag::hot — per-class surrogate; runs ~10⁵ times per pass sweep
pub fn surrogate_lod(target: Analyte, point: &ExplorePoint) -> Result<f64, ExploreError> {
    let nb: NoiseBreakdown = noise_breakdown(target, &point.base)?;
    let s_eff = effective_sensitivity(target, point.base.nanostructure)?;
    let a = point.area_scale();
    let sqrt_a = a.sqrt();
    let sqrt_m = f64::from(point.oversampling).sqrt();
    let drift = nb.drift / sqrt_a;
    let stochastic = nb.stochastic / (sqrt_a * sqrt_m);
    let amp_flicker = nb.amp_flicker;
    let quantization = nb.quantization / (a * sqrt_m);
    let total =
        (drift.powi(2) + stochastic.powi(2) + amp_flicker.powi(2) + quantization.powi(2)).sqrt();
    Ok(3.0 * total / s_eff)
}

/// Worst-case LOD margin over the panel: `min(required / predicted)`.
/// `≥ 1` means every target's requirement is met.
// advdiag::hot — per-class surrogate; runs ~10⁴–10⁵ times per pass sweep
pub fn worst_margin(panel: &PanelSpec, point: &ExplorePoint) -> Result<f64, ExploreError> {
    let mut worst = f64::INFINITY;
    for spec in panel.targets() {
        let lod = surrogate_lod(spec.analyte, point)?;
        let required = required_lod(spec)?.value();
        worst = worst.min(required / lod);
    }
    if worst.is_nan() {
        return Err(ExploreError::NonFinite {
            what: "worst LOD margin",
        });
    }
    Ok(worst)
}

/// The dynamic range the builder-derived current range demands of a
/// target's readout chain: full scale covers `1.2 × Vmax` current,
/// resolution resolves a third of the blank noise, clamped at the
/// builder's own 15-bit realizability floor. Electrode area cancels;
/// only the roughness gain moves it.
pub(crate) fn derived_dynamic_range(
    target: Analyte,
    nanostructure: bios_electrochem::Nanostructure,
) -> Result<f64, ExploreError> {
    let row = performance_of(target).ok_or(ExploreError::Internal {
        what: "panel target missing from the calibration registry",
    })?;
    let s_eff = effective_sensitivity(target, nanostructure)?;
    let full_scale = 1.2 * s_eff * row.km_apparent().value();
    let resolution = row.blank_sd().value() / 3.0;
    if !(full_scale.is_finite() && resolution.is_finite()) || resolution <= 0.0 {
        return Err(ExploreError::NonFinite {
            what: "derived dynamic range",
        });
    }
    Ok((full_scale / resolution).min(DERIVED_DR_CAP))
}

/// The first panel target (in panel order) whose derived dynamic range the
/// point's ADC cannot span, if any — the "AFE range/noise incompatibility"
/// refutation: the chain cannot simultaneously pass the Vmax current and
/// resolve the calibration blank noise with that many bits.
pub(crate) fn afe_incompatibility(
    panel: &PanelSpec,
    nanostructure: bios_electrochem::Nanostructure,
    adc_bits: u8,
) -> Result<Option<Analyte>, ExploreError> {
    let codes = (1u64 << u32::from(adc_bits.min(63))) as f64;
    for spec in panel.targets() {
        if codes < derived_dynamic_range(spec.analyte, nanostructure)? {
            return Ok(Some(spec.analyte));
        }
    }
    Ok(None)
}

/// One full session's duration in seconds: the skeleton's base schedule
/// repeated `oversampling` times.
pub(crate) fn session_time_s(skeleton: &Skeleton, oversampling: u16) -> f64 {
    skeleton.schedule_s * f64::from(oversampling)
}

/// The scalar cost of a point, from its skeleton and surrogate axes: the
/// core electronics bill at the point's ADC/chopper/CDS settings plus
/// the area-scaled electrode estate and the oversampled session time,
/// collapsed through [`PlatformCost::scalar`].
pub(crate) fn cost_scalar(skeleton: &Skeleton, point: &ExplorePoint) -> f64 {
    let budget = electronics_budget(
        skeleton.n_we,
        point.base.sharing,
        point.base.adc_bits,
        point.base.chopper,
        point.base.cds,
    );
    let cost = PlatformCost::assemble(
        &budget,
        SquareCentimeters::new(skeleton.we_area_cm2 * point.area_scale()),
        skeleton.total_electrodes,
        skeleton.chambers,
        Seconds::new(session_time_s(skeleton, point.oversampling)),
    );
    cost.scalar()
}

/// Why a point is statically excluded from simulation.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, serde::Serialize, serde::Deserialize,
)]
pub enum RejectReason {
    /// Some target's surrogate LOD misses its panel requirement
    /// (worst margin < 1).
    LodAboveRequirement {
        /// The first target (panel order) whose requirement is missed.
        analyte: Analyte,
    },
    /// The derived current range and blank noise demand more dynamic
    /// range than the point's ADC provides.
    AfeRangeNoiseIncompatible {
        /// The first target (panel order) whose range is unrealizable.
        analyte: Analyte,
    },
    /// A shared (muxed) readout serializes the schedule past the session
    /// budget at this oversampling factor.
    SharingConflict,
    /// Even a dedicated-readout schedule exceeds the session budget.
    SessionOverBudget,
    /// Another feasible point is at least as good on every surrogate axis
    /// and strictly better on one.
    Dominated,
}

/// Per-point static verdict — the reference semantics the class-factored
/// passes must reproduce exactly. Used by the brute-force oracle and the
/// proptests; the pipeline never calls this per point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct StaticEval {
    /// The first refutation in canonical order (LOD, AFE, schedule), if any.
    pub reject: Option<RejectReason>,
    /// Scalar cost (lower is better).
    pub cost: f64,
    /// Worst LOD margin (higher is better).
    pub margin: f64,
    /// Session duration, seconds.
    pub session_s: f64,
}

/// Evaluates every static closed form at one point.
pub(crate) fn evaluate_static(
    panel: &PanelSpec,
    skeleton: &Skeleton,
    session_budget_s: f64,
    point: &ExplorePoint,
) -> Result<StaticEval, ExploreError> {
    let margin = worst_margin(panel, point)?;
    let cost = cost_scalar(skeleton, point);
    let session_s = session_time_s(skeleton, point.oversampling);
    if !cost.is_finite() || !session_s.is_finite() {
        return Err(ExploreError::NonFinite {
            what: "surrogate cost or session time",
        });
    }

    let mut reject = None;
    if margin < 1.0 {
        let mut culprit = None;
        for spec in panel.targets() {
            let lod = surrogate_lod(spec.analyte, point)?;
            if required_lod(spec)?.value() / lod < 1.0 {
                culprit = Some(spec.analyte);
                break;
            }
        }
        reject = culprit.map(|analyte| RejectReason::LodAboveRequirement { analyte });
    }
    if reject.is_none() {
        reject = afe_incompatibility(panel, point.base.nanostructure, point.base.adc_bits)?
            .map(|analyte| RejectReason::AfeRangeNoiseIncompatible { analyte });
    }
    if reject.is_none() && session_s > session_budget_s {
        reject = Some(match point.base.sharing {
            bios_platform::ReadoutSharing::Shared => RejectReason::SharingConflict,
            bios_platform::ReadoutSharing::Dedicated => RejectReason::SessionOverBudget,
        });
    }
    Ok(StaticEval {
        reject,
        cost,
        margin,
        session_s,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::PanelContext;
    use crate::space::ExploreSpec;
    use bios_platform::{predict_lod, ProbePreference, ReadoutSharing};

    fn reference_point() -> ExplorePoint {
        ExplorePoint {
            base: bios_platform::DesignPoint {
                nanostructure: bios_electrochem::Nanostructure::CarbonNanotubes,
                sharing: ReadoutSharing::Shared,
                chopper: true,
                cds: true,
                adc_bits: 16,
                preference: ProbePreference::MinimizeElectrodes,
            },
            oversampling: 1,
            area_pct: 100,
        }
    }

    #[test]
    fn surrogate_matches_core_bit_for_bit_at_reference_coords() {
        let p = reference_point();
        for spec in PanelSpec::paper_fig4().targets() {
            let core = predict_lod(spec.analyte, &p.base)
                .expect("core lod")
                .value();
            let here = surrogate_lod(spec.analyte, &p).expect("surrogate lod");
            assert_eq!(core.to_bits(), here.to_bits(), "{:?}", spec.analyte);
        }
    }

    #[test]
    fn oversampling_and_area_strictly_help_lod() {
        let p = reference_point();
        let base = surrogate_lod(Analyte::Glucose, &p).expect("lod");
        let more_avg = surrogate_lod(
            Analyte::Glucose,
            &ExplorePoint {
                oversampling: 64,
                ..p
            },
        )
        .expect("lod");
        let more_area =
            surrogate_lod(Analyte::Glucose, &ExplorePoint { area_pct: 400, ..p }).expect("lod");
        assert!(more_avg < base && more_area < base);
    }

    #[test]
    fn afe_rule_relaxes_with_lower_roughness_and_more_bits() {
        use bios_electrochem::Nanostructure;
        let panel = PanelSpec::paper_fig4();
        let dr_cnt =
            derived_dynamic_range(Analyte::Glucose, Nanostructure::CarbonNanotubes).expect("dr");
        let dr_bare = derived_dynamic_range(Analyte::Glucose, Nanostructure::None).expect("dr");
        assert!(dr_bare < dr_cnt);
        assert!(dr_cnt <= DERIVED_DR_CAP);
        // 16 bits always clears the 15-bit realizability cap.
        assert_eq!(
            afe_incompatibility(&panel, Nanostructure::CarbonNanotubes, 16).expect("afe"),
            None
        );
        // Few enough bits must eventually refute some target.
        assert!(
            afe_incompatibility(&panel, Nanostructure::CarbonNanotubes, 6)
                .expect("afe")
                .is_some()
        );
    }

    #[test]
    fn cost_grows_with_area_oversampling_and_bits() {
        let spec = ExploreSpec::standard(PanelSpec::paper_fig4());
        let cx = PanelContext::for_spec(&spec).expect("context");
        let p = reference_point();
        let sk = cx
            .skeleton(p.base.preference, p.base.sharing, p.base.cds)
            .expect("skeleton");
        let base = cost_scalar(&sk, &p);
        assert!(cost_scalar(&sk, &ExplorePoint { area_pct: 400, ..p }) > base);
        assert!(
            cost_scalar(
                &sk,
                &ExplorePoint {
                    oversampling: 8,
                    ..p
                }
            ) > base
        );
    }
}
