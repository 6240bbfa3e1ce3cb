//! Design-point evaluation — the paper's thesis (§I): "the proliferation
//! of electronic monitoring techniques would benefit from a systematic
//! design space exploration, in the search of the most cost-effective
//! solution (e.g., small, low energy consumption, low-cost) to a given
//! problem."
//!
//! This module predicts a design's per-target LOD analytically (fast — no
//! transient simulation), checks feasibility against the panel
//! requirements and computes the cost model, one [`DesignPoint`] at a
//! time. The exploration itself — enumerating a space, pruning it and
//! keeping the Pareto front — is `bios-explore`'s job.

use crate::builder::{PlatformBuilder, ProbePreference};
use crate::cost::{electronics_budget, PlatformCost, ReadoutSharing};
use crate::error::PlatformError;
use crate::requirements::PanelSpec;
use bios_afe::{CurrentRange, MatchingQuality, CHOPPER_SUPPRESSION};
use bios_biochem::{tables::performance_of, Analyte};
use bios_electrochem::Nanostructure;
use bios_units::Molar;

/// One coordinate of the design space.
///
/// All axes are discrete, so the point is `Eq + Ord + Hash` and can key
/// maps.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, serde::Serialize, serde::Deserialize,
)]
pub struct DesignPoint {
    /// Working-electrode nanostructuring.
    pub nanostructure: Nanostructure,
    /// Shared (muxed) vs dedicated readout.
    pub sharing: ReadoutSharing,
    /// Chopper stabilization.
    pub chopper: bool,
    /// Blank-electrode correlated double sampling.
    pub cds: bool,
    /// ADC resolution.
    pub adc_bits: u8,
    /// Probe preference for ambiguous targets.
    pub preference: ProbePreference,
}

/// An evaluated design.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct EvaluatedDesign {
    /// The design coordinates.
    pub point: DesignPoint,
    /// Predicted LOD per target.
    pub predicted_lods: Vec<(Analyte, Molar)>,
    /// Whether every target's predicted LOD meets its requirement.
    pub feasible: bool,
    /// Worst-case LOD margin: min over targets of `required / predicted`
    /// (>1 means all requirements met with headroom).
    pub worst_lod_margin: f64,
    /// The cost summary.
    pub cost: PlatformCost,
}

/// Fraction of the registry blank noise that is slow/drift-like (removable
/// by CDS); the remainder is stochastic.
const DRIFT_FRACTION: f64 = 0.7;

/// Amplifier flicker noise contribution, as a fraction of the sensor blank
/// noise in the un-chopped slow-sampling regime.
const AMP_FLICKER_FRACTION: f64 = 0.5;

/// Geometric area of the paper's working electrode (0.23 mm²), in cm² —
/// the reference area every current-density figure in the LOD model is
/// referred to.
pub(crate) const PAPER_WE_AREA_CM2: f64 = 0.0023;

/// The blank-noise current-density budget behind [`predict_lod`], term by
/// term (all in A/cm²), exposed as a pure closed form so downstream
/// analyses — the `bios-explore` pass pipeline in particular — can rescale
/// individual terms (spatial averaging, oversampling) without re-deriving
/// the model. [`NoiseBreakdown::total`] recombines the terms exactly as
/// [`predict_lod`] does.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoiseBreakdown {
    /// Slow/drift-like sensor noise after CDS (if enabled).
    pub drift: f64,
    /// Stochastic sensor noise (CDS doubles its variance).
    pub stochastic: f64,
    /// Amplifier flicker noise after chopper suppression (if enabled).
    pub amp_flicker: f64,
    /// ADC quantization noise referred to the paper WE's current density.
    pub quantization: f64,
}

impl NoiseBreakdown {
    /// Root-sum-square of the four terms — the `σ` in `LOD = 3σ/S`.
    pub fn total(&self) -> f64 {
        (self.drift.powi(2)
            + self.stochastic.powi(2)
            + self.amp_flicker.powi(2)
            + self.quantization.powi(2))
        .sqrt()
    }
}

/// Effective sensitivity (A/(M·cm²)) of a target's registry probe on the
/// given nanostructure: the Table III figure rescaled by roughness relative
/// to the CNT reference electrodes the registry was measured on. Pure in
/// its arguments.
///
/// # Errors
///
/// Returns [`PlatformError::NoProbeFor`] for unregistered targets.
pub fn effective_sensitivity(
    target: Analyte,
    nanostructure: Nanostructure,
) -> Result<f64, PlatformError> {
    let row = performance_of(target).ok_or(PlatformError::NoProbeFor(target))?;
    let gain = nanostructure.roughness_factor() / Nanostructure::CarbonNanotubes.roughness_factor();
    Ok(row.sensitivity_si() * gain)
}

/// Computes the blank-noise budget for a target under a design point's
/// conditioning choices (CDS, chopper, ADC bits — the nanostructure enters
/// through [`effective_sensitivity`], not here). Pure in its arguments;
/// this is the closed form the static feasibility passes evaluate once per
/// point *class*.
///
/// # Errors
///
/// Returns [`PlatformError::NoProbeFor`] for unregistered targets.
pub fn noise_breakdown(
    target: Analyte,
    point: &DesignPoint,
) -> Result<NoiseBreakdown, PlatformError> {
    let row = performance_of(target).ok_or(PlatformError::NoProbeFor(target))?;
    let sigma = row.blank_sd().value(); // A/cm²
    let drift = sigma * DRIFT_FRACTION;
    let stochastic = sigma * (1.0 - DRIFT_FRACTION);
    let (drift_eff, stochastic_eff) = if point.cds {
        let residual = 1.0 - MatchingQuality::Monolithic.rejection();
        (drift * residual, stochastic * core::f64::consts::SQRT_2)
    } else {
        (drift, stochastic)
    };
    let amp_flicker = sigma * AMP_FLICKER_FRACTION
        / if point.chopper {
            CHOPPER_SUPPRESSION
        } else {
            1.0
        };

    // Quantization, referred to current density on the paper's 0.23 mm² WE.
    let area = PAPER_WE_AREA_CM2;
    let range = match row.probe {
        bios_biochem::tables::ProbeRef::Oxidase(_) => CurrentRange::oxidase().scaled(area),
        bios_biochem::tables::ProbeRef::Cytochrome(_) => CurrentRange::cytochrome().scaled(area),
    };
    let lsb = 2.0 * range.full_scale().value() / (1u64 << point.adc_bits) as f64;
    let sigma_q = lsb / 12f64.sqrt() / area;

    Ok(NoiseBreakdown {
        drift: drift_eff,
        stochastic: stochastic_eff,
        amp_flicker,
        quantization: sigma_q,
    })
}

/// The LOD requirement for one panel target: the explicit spec if one was
/// set, otherwise 20% above the registry (Table III) LOD — i.e. the
/// design's electronics and electrode choices must not degrade what the
/// reference CNT sensor achieves. (Physiological ranges are not used here:
/// some of the paper's own sensors sit above them, which would make every
/// design trivially infeasible.)
///
/// # Errors
///
/// Returns [`PlatformError::NoProbeFor`] for unregistered targets.
pub fn required_lod(spec: &crate::requirements::TargetSpec) -> Result<Molar, PlatformError> {
    let row = performance_of(spec.analyte).ok_or(PlatformError::NoProbeFor(spec.analyte))?;
    let registry_lod = row.lod().unwrap_or(Molar::from_micromolar(3.0));
    Ok(spec
        .required_lod
        .unwrap_or(Molar::new(1.2 * registry_lod.value())))
}

/// Predicts a target's LOD under a design point, analytically.
///
/// Model (documented in DESIGN.md §4): the blank noise combines the sensor
/// term (drift-like + stochastic, CDS acts on the drift part), the
/// amplifier flicker term (chopper divides it by [`CHOPPER_SUPPRESSION`])
/// and the ADC quantization term; sensitivity scales with the
/// nanostructure's roughness relative to the registry's CNT reference.
///
/// A pure composition of [`noise_breakdown`] and
/// [`effective_sensitivity`], which lets `bios-explore` reproduce it
/// bit-for-bit at its reference coordinates.
pub fn predict_lod(target: Analyte, point: &DesignPoint) -> Result<Molar, PlatformError> {
    let breakdown = noise_breakdown(target, point)?;
    let s_eff = effective_sensitivity(target, point.nanostructure)?;
    Ok(Molar::new(3.0 * breakdown.total() / s_eff))
}

/// Evaluates one design point.
///
/// # Errors
///
/// Returns [`PlatformError`] if the platform cannot be assembled.
// advdiag::cold(whole design-point evaluation: assembles a platform and prices it
// with the analytic LOD and cost models, running no session; per-point cadence)
pub fn evaluate(panel: &PanelSpec, point: &DesignPoint) -> Result<EvaluatedDesign, PlatformError> {
    // Assemble the platform (probe selection, structure, schedule).
    let electrode =
        bios_electrochem::Electrode::paper_gold_we().with_nanostructure(point.nanostructure);
    let platform = PlatformBuilder::new(panel.clone())
        .with_electrode(electrode)
        .with_sharing(point.sharing)
        .with_chopper(point.chopper)
        .with_cds(point.cds)
        .with_preference(point.preference)
        .build()?;

    let mut predicted_lods = Vec::new();
    let mut feasible = true;
    let mut worst_margin = f64::INFINITY;
    for spec in panel.targets() {
        let lod = predict_lod(spec.analyte, point)?;
        // Requirement semantics documented on `required_lod`.
        let required = required_lod(spec)?.value();
        let margin = required / lod.value();
        if margin < 1.0 {
            feasible = false;
        }
        worst_margin = worst_margin.min(margin);
        predicted_lods.push((spec.analyte, lod));
    }

    // Cost via the platform's own model, but with the point's ADC bits.
    let n_we = platform.assignments().len();
    let budget = electronics_budget(
        n_we,
        point.sharing,
        point.adc_bits,
        point.chopper,
        point.cds,
    );
    let cost = PlatformCost::assemble(
        &budget,
        platform.assignments()[0].electrode().geometric_area(),
        platform.structure().total_electrodes(),
        platform.structure().chambers(),
        platform.schedule().total_duration(),
    );
    Ok(EvaluatedDesign {
        point: *point,
        predicted_lods,
        feasible,
        worst_lod_margin: worst_margin,
        cost,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::requirements::TargetSpec;

    fn point() -> DesignPoint {
        DesignPoint {
            nanostructure: Nanostructure::CarbonNanotubes,
            sharing: ReadoutSharing::Shared,
            chopper: false,
            cds: false,
            adc_bits: 12,
            preference: ProbePreference::MinimizeElectrodes,
        }
    }

    #[test]
    fn predicted_lod_close_to_registry_for_reference_point() {
        // CNT + no conditioning + 12 bits should predict an LOD near the
        // registry value (the blank σ dominates).
        let lod = predict_lod(Analyte::Glucose, &point()).expect("registered");
        let paper = 575.0;
        let ratio = lod.as_micromolar() / paper;
        assert!(
            (0.5..2.5).contains(&ratio),
            "predicted {} µM vs paper {paper} µM",
            lod.as_micromolar()
        );
    }

    #[test]
    fn bare_electrode_worsens_lod_12x() {
        let cnt = predict_lod(Analyte::Glucose, &point()).expect("registered");
        let bare = predict_lod(
            Analyte::Glucose,
            &DesignPoint {
                nanostructure: Nanostructure::None,
                ..point()
            },
        )
        .expect("registered");
        let ratio = bare.value() / cnt.value();
        assert!((ratio - 12.0).abs() < 2.0, "ratio {ratio}");
    }

    #[test]
    fn cds_improves_drift_dominated_lod() {
        let plain = predict_lod(Analyte::Glucose, &point()).expect("registered");
        let with_cds = predict_lod(
            Analyte::Glucose,
            &DesignPoint {
                cds: true,
                ..point()
            },
        )
        .expect("registered");
        assert!(
            with_cds.value() < plain.value() * 0.75,
            "cds {} vs plain {}",
            with_cds.value(),
            plain.value()
        );
    }

    #[test]
    fn infeasible_requirements_are_detected() {
        let mut panel = PanelSpec::new();
        panel.push(
            TargetSpec::typical(Analyte::Glucose).with_lod(Molar::from_nanomolar(1.0)), // absurd
        );
        let d = evaluate(&panel, &point()).expect("evaluate");
        assert!(!d.feasible);
        assert!(d.worst_lod_margin < 1.0);
    }
}
