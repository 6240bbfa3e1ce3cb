//! The extended, lazily-enumerated design space.
//!
//! The paper's six architectural axes span ~10² points
//! ([`ExploreSpace::paper_default`]). The real methodology question — §I
//! of the paper — is what happens when the space is *large*: this module
//! adds two readout axes (oversampling factor and working-electrode area
//! scale) and enumerates by **mixed-radix rank decoding**, so a
//! ≥10⁶-point space is a handful of `Vec`s of axis values plus
//! arithmetic. Passes walk ranks; nothing allocates per point.
//!
//! Rank layout is row-major with the axis order
//! `nanostructure → sharing → chopper → cds → adc_bits → preference →
//! oversampling → area_pct` (outermost first).

use bios_biochem::Analyte;
use bios_electrochem::Nanostructure;
use bios_platform::{DesignPoint, PanelSpec, ProbePreference, ReadoutSharing, TargetSpec};
use bios_units::{Molar, Seconds};

use crate::error::ExploreError;

/// One candidate design: the core architectural point plus the two
/// readout-tuning axes the closed-form surrogate understands.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ExplorePoint {
    /// The architectural coordinates shared with [`bios_platform::evaluate`].
    pub base: DesignPoint,
    /// Per-target acquisition repeats averaged together (`M ≥ 1`). Buys
    /// `√M` on stochastic and quantization noise, costs `M×` session time.
    pub oversampling: u16,
    /// Working-electrode geometric area as a percentage of the paper's
    /// 0.23 mm² reference (100 = paper geometry). Integer so points hash
    /// and compare exactly.
    pub area_pct: u32,
}

impl ExplorePoint {
    /// Area scale factor `a` relative to the paper's WE geometry.
    pub(crate) fn area_scale(&self) -> f64 {
        area_scale(self.area_pct)
    }
}

/// Area scale factor `a` of an `area_pct` axis value.
pub(crate) fn area_scale(area_pct: u32) -> f64 {
    f64::from(area_pct) / 100.0
}

/// Axis cardinalities and row-major strides, precomputed once per run so
/// rank encoding/decoding in the hot sweeps is pure integer arithmetic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct AxisSizes {
    pub n: usize,
    pub s: usize,
    pub ch: usize,
    pub cd: usize,
    pub ab: usize,
    pub pf: usize,
    pub os: usize,
    pub ar: usize,
}

impl AxisSizes {
    pub(crate) fn total(&self) -> u64 {
        self.n as u64
            * self.s as u64
            * self.ch as u64
            * self.cd as u64
            * self.ab as u64
            * self.pf as u64
            * self.os as u64
            * self.ar as u64
    }

    /// Row-major rank from per-axis indices (test oracle for the decoder;
    /// production sweeps keep a running rank instead).
    #[cfg(test)]
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn rank(
        &self,
        n: usize,
        s: usize,
        ch: usize,
        cd: usize,
        ab: usize,
        pf: usize,
        os: usize,
        ar: usize,
    ) -> u64 {
        let mut r = n as u64;
        r = r * self.s as u64 + s as u64;
        r = r * self.ch as u64 + ch as u64;
        r = r * self.cd as u64 + cd as u64;
        r = r * self.ab as u64 + ab as u64;
        r = r * self.pf as u64 + pf as u64;
        r = r * self.os as u64 + os as u64;
        r * self.ar as u64 + ar as u64
    }

    /// Margin-class index over the axes the LOD surrogate reads:
    /// `(n, ch, cd, ab, os, ar)` — sharing and preference are fibered out.
    pub(crate) fn margin_class(
        &self,
        n: usize,
        ch: usize,
        cd: usize,
        ab: usize,
        os: usize,
        ar: usize,
    ) -> usize {
        ((((n * self.ch + ch) * self.cd + cd) * self.ab + ab) * self.os + os) * self.ar + ar
    }

    pub(crate) fn margin_classes(&self) -> usize {
        self.n * self.ch * self.cd * self.ab * self.os * self.ar
    }

    /// Cost-class index over the axes the cost surrogate reads:
    /// `(s, ch, cd, ab, pf, os, ar)` — nanostructure is fibered out.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn cost_class(
        &self,
        s: usize,
        ch: usize,
        cd: usize,
        ab: usize,
        pf: usize,
        os: usize,
        ar: usize,
    ) -> usize {
        (((((s * self.ch + ch) * self.cd + cd) * self.ab + ab) * self.pf + pf) * self.os + os)
            * self.ar
            + ar
    }

    pub(crate) fn cost_classes(&self) -> usize {
        self.s * self.ch * self.cd * self.ab * self.pf * self.os * self.ar
    }

    /// Session-time-class index over `(s, cd, pf, os)`.
    pub(crate) fn time_class(&self, s: usize, cd: usize, pf: usize, os: usize) -> usize {
        ((s * self.cd + cd) * self.pf + pf) * self.os + os
    }

    pub(crate) fn time_classes(&self) -> usize {
        self.s * self.cd * self.pf * self.os
    }

    /// AFE range/noise compatibility class index over `(n, ab)`: the
    /// derived dynamic range scales with roughness gain but the electrode
    /// area cancels (full scale and resolution both grow linearly with it).
    pub(crate) fn afe_class(&self, n: usize, ab: usize) -> usize {
        n * self.ab + ab
    }

    pub(crate) fn afe_classes(&self) -> usize {
        self.n * self.ab
    }
}

/// The cartesian-product design space, held as axis value lists and never
/// materialized. Duplicate axis values are rejected by
/// [`ExploreSpace::validate`] so ranks and points stay in bijection.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ExploreSpace {
    /// Working-electrode nanostructuring options.
    pub nanostructures: Vec<Nanostructure>,
    /// Readout sharing options.
    pub sharing: Vec<ReadoutSharing>,
    /// Chopper stabilization options.
    pub chopper: Vec<bool>,
    /// Correlated-double-sampling options.
    pub cds: Vec<bool>,
    /// ADC resolution options.
    pub adc_bits: Vec<u8>,
    /// Probe-preference options.
    pub preferences: Vec<ProbePreference>,
    /// Oversampling factors (`M ≥ 1`).
    pub oversampling: Vec<u16>,
    /// WE area scales, percent of the paper geometry (`≥ 1`).
    pub area_pct: Vec<u32>,
}

impl ExploreSpace {
    /// The standard large box: every architectural option crossed with ten
    /// oversampling factors and sixteen electrode-area scales — 168 960
    /// points per panel, ≥10⁶ across a panel sweep.
    pub fn standard_box() -> Self {
        Self {
            nanostructures: vec![
                Nanostructure::None,
                Nanostructure::GoldNanoparticles,
                Nanostructure::CobaltOxide,
                Nanostructure::CarbonNanotubes,
            ],
            sharing: vec![ReadoutSharing::Shared, ReadoutSharing::Dedicated],
            chopper: vec![false, true],
            cds: vec![false, true],
            adc_bits: (6..=16).collect(),
            preferences: vec![
                ProbePreference::MinimizeElectrodes,
                ProbePreference::PreferOxidase,
                ProbePreference::PreferCytochrome,
            ],
            oversampling: vec![1, 2, 4, 8, 16, 32, 64, 128, 256, 512],
            area_pct: (1..=16).map(|k| k * 25).collect(),
        }
    }

    /// The paper's own six-axis space at the reference readout (no
    /// oversampling, paper electrode area): {bare, CNT} × {shared,
    /// dedicated} × {chopper off/on} × {CDS off/on} × {10, 12, 14 bits} ×
    /// {minimize electrodes, prefer oxidase} = 96 points. Every point sits
    /// at the coordinates where the surrogate is bit-identical to
    /// [`bios_platform::evaluate`].
    pub fn paper_default() -> Self {
        Self {
            nanostructures: vec![Nanostructure::None, Nanostructure::CarbonNanotubes],
            sharing: vec![ReadoutSharing::Shared, ReadoutSharing::Dedicated],
            chopper: vec![false, true],
            cds: vec![false, true],
            adc_bits: vec![10, 12, 14],
            preferences: vec![
                ProbePreference::MinimizeElectrodes,
                ProbePreference::PreferOxidase,
            ],
            oversampling: vec![1],
            area_pct: vec![100],
        }
    }

    /// Checks every axis is non-empty, duplicate-free and in-domain.
    pub fn validate(&self) -> Result<(), ExploreError> {
        fn unique<T: PartialEq>(axis: &[T]) -> bool {
            axis.iter().enumerate().all(|(i, v)| !axis[..i].contains(v))
        }
        if self.nanostructures.is_empty()
            || self.sharing.is_empty()
            || self.chopper.is_empty()
            || self.cds.is_empty()
            || self.adc_bits.is_empty()
            || self.preferences.is_empty()
            || self.oversampling.is_empty()
            || self.area_pct.is_empty()
        {
            return Err(ExploreError::invalid("axis", "every axis needs ≥1 value"));
        }
        if !(unique(&self.nanostructures)
            && unique(&self.sharing)
            && unique(&self.chopper)
            && unique(&self.cds)
            && unique(&self.adc_bits)
            && unique(&self.preferences)
            && unique(&self.oversampling)
            && unique(&self.area_pct))
        {
            return Err(ExploreError::invalid(
                "axis",
                "duplicate axis values break the rank↔point bijection",
            ));
        }
        if self.adc_bits.iter().any(|&b| b == 0 || b > 32) {
            return Err(ExploreError::invalid("adc_bits", "must be in 1..=32"));
        }
        if self.oversampling.contains(&0) {
            return Err(ExploreError::invalid("oversampling", "must be ≥ 1"));
        }
        if self.area_pct.contains(&0) {
            return Err(ExploreError::invalid("area_pct", "must be ≥ 1"));
        }
        Ok(())
    }

    pub(crate) fn sizes(&self) -> AxisSizes {
        AxisSizes {
            n: self.nanostructures.len(),
            s: self.sharing.len(),
            ch: self.chopper.len(),
            cd: self.cds.len(),
            ab: self.adc_bits.len(),
            pf: self.preferences.len(),
            os: self.oversampling.len(),
            ar: self.area_pct.len(),
        }
    }

    /// Number of points in the space.
    pub fn len(&self) -> u64 {
        self.sizes().total()
    }

    /// Whether the space is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Decodes a row-major rank into its point; `None` past the end.
    pub(crate) fn point_at(&self, rank: u64) -> Option<ExplorePoint> {
        let sz = self.sizes();
        if rank >= sz.total() {
            return None;
        }
        let mut r = rank;
        let ar = (r % sz.ar as u64) as usize;
        r /= sz.ar as u64;
        let os = (r % sz.os as u64) as usize;
        r /= sz.os as u64;
        let pf = (r % sz.pf as u64) as usize;
        r /= sz.pf as u64;
        let ab = (r % sz.ab as u64) as usize;
        r /= sz.ab as u64;
        let cd = (r % sz.cd as u64) as usize;
        r /= sz.cd as u64;
        let ch = (r % sz.ch as u64) as usize;
        r /= sz.ch as u64;
        let s = (r % sz.s as u64) as usize;
        r /= sz.s as u64;
        let n = r as usize;
        Some(ExplorePoint {
            base: DesignPoint {
                nanostructure: self.nanostructures[n],
                sharing: self.sharing[s],
                chopper: self.chopper[ch],
                cds: self.cds[cd],
                adc_bits: self.adc_bits[ab],
                preference: self.preferences[pf],
            },
            oversampling: self.oversampling[os],
            area_pct: self.area_pct[ar],
        })
    }

    /// Lazily iterates all points in rank order. O(1) memory.
    pub fn iter(&self) -> impl Iterator<Item = ExplorePoint> + '_ {
        (0..self.len()).filter_map(move |r| self.point_at(r))
    }
}

/// One exploration query: a panel, the space to sweep, and the wall-clock
/// budget a full measurement session may take (the sharing-conflict bound).
#[derive(Debug, Clone, PartialEq)]
pub struct ExploreSpec {
    /// What to sense.
    pub panel: PanelSpec,
    /// The candidate box.
    pub space: ExploreSpace,
    /// Maximum acceptable single-session duration.
    pub session_budget: Seconds,
}

impl ExploreSpec {
    /// A query over [`ExploreSpace::standard_box`] with a 30-minute
    /// point-of-care session budget.
    pub fn standard(panel: PanelSpec) -> Self {
        Self {
            panel,
            space: ExploreSpace::standard_box(),
            session_budget: Seconds::new(1800.0),
        }
    }

    /// Validates panel, space and budget together.
    pub fn validate(&self) -> Result<(), ExploreError> {
        self.panel.validate()?;
        self.space.validate()?;
        let b = self.session_budget.value();
        if !(b.is_finite() && b > 0.0) {
            return Err(ExploreError::invalid(
                "session_budget",
                "must be finite and positive",
            ));
        }
        Ok(())
    }
}

/// The seven standard panels the BENCH_10 sweep explores. Over
/// [`ExploreSpace::standard_box`] they span 1,182,720 candidate designs.
pub fn standard_panels() -> Vec<(&'static str, PanelSpec)> {
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
            p.push(TargetSpec::typical(Analyte::Glucose).with_lod(Molar::from_micromolar(290.0)));
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_box_is_large_and_valid() {
        let space = ExploreSpace::standard_box();
        space.validate().expect("valid");
        assert_eq!(space.len(), 4 * 2 * 2 * 2 * 11 * 3 * 10 * 16);
        assert!(space.len() >= 100_000);
    }

    #[test]
    fn rank_roundtrip_is_bijective_on_a_small_box() {
        let mut space = ExploreSpace::standard_box();
        space.adc_bits = vec![8, 12];
        space.oversampling = vec![1, 4];
        space.area_pct = vec![50, 100, 200];
        let sz = space.sizes();
        let mut seen = std::collections::BTreeSet::new();
        for r in 0..space.len() {
            let p = space.point_at(r).expect("in range");
            // Re-encode via axis positions and check we land on the same rank.
            let n = space
                .nanostructures
                .iter()
                .position(|&v| v == p.base.nanostructure)
                .expect("axis");
            let s = space
                .sharing
                .iter()
                .position(|&v| v == p.base.sharing)
                .expect("axis");
            let ch = space
                .chopper
                .iter()
                .position(|&v| v == p.base.chopper)
                .expect("axis");
            let cd = space
                .cds
                .iter()
                .position(|&v| v == p.base.cds)
                .expect("axis");
            let ab = space
                .adc_bits
                .iter()
                .position(|&v| v == p.base.adc_bits)
                .expect("axis");
            let pf = space
                .preferences
                .iter()
                .position(|&v| v == p.base.preference)
                .expect("axis");
            let os = space
                .oversampling
                .iter()
                .position(|&v| v == p.oversampling)
                .expect("axis");
            let ar = space
                .area_pct
                .iter()
                .position(|&v| v == p.area_pct)
                .expect("axis");
            assert_eq!(sz.rank(n, s, ch, cd, ab, pf, os, ar), r);
            seen.insert((p.base, p.oversampling, p.area_pct));
        }
        assert_eq!(seen.len() as u64, space.len());
        assert!(space.point_at(space.len()).is_none());
    }

    #[test]
    fn paper_default_is_a_96_point_row_major_sub_box() {
        let paper = ExploreSpace::paper_default();
        paper.validate().expect("valid");
        assert_eq!(paper.len(), 96);
        let all: Vec<ExplorePoint> = paper.iter().collect();
        assert_eq!(all.len(), 96);
        // Row-major: the outermost axis varies slowest, preference fastest.
        assert_eq!(all[0].base.nanostructure, Nanostructure::None);
        assert_eq!(all[95].base.nanostructure, Nanostructure::CarbonNanotubes);
        assert_eq!(all[1].base.preference, ProbePreference::PreferOxidase);
        assert_eq!(all[2].base.adc_bits, 12);
        // A sub-box of the standard box, at the reference readout.
        let standard = ExploreSpace::standard_box();
        for p in &all {
            assert!(standard.nanostructures.contains(&p.base.nanostructure));
            assert!(standard.adc_bits.contains(&p.base.adc_bits));
            assert!(standard.preferences.contains(&p.base.preference));
            assert_eq!((p.oversampling, p.area_pct), (1, 100));
        }
    }

    #[test]
    fn duplicate_axis_values_are_rejected() {
        let mut space = ExploreSpace::standard_box();
        space.oversampling = vec![1, 2, 2];
        assert!(space.validate().is_err());
    }

    #[test]
    fn area_scale_is_percent() {
        let p = ExplorePoint {
            base: ExploreSpace::standard_box()
                .point_at(0)
                .expect("point")
                .base,
            oversampling: 1,
            area_pct: 250,
        };
        assert!((p.area_scale() - 2.5).abs() < 1e-12);
    }
}
