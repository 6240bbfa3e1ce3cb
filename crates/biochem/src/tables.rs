//! The paper's Tables I–III as typed constant registries, plus the
//! calibration arithmetic that turns the reported figures into simulator
//! parameters.
//!
//! **Calibration policy.** The paper's numbers are empirical literature
//! values; our simulators are parameterized *from* them so that the
//! reproduction harness can re-derive each figure from simulated raw data:
//!
//! * *Applied potential* (Table I) and *reduction potential* (Table II)
//!   parameterize the redox couples directly.
//! * *Sensitivity* (Table III, µA/(mM·cm²)) sets the low-concentration slope
//!   of the sensor's current-density law.
//! * *Linear range* (Table III) sets the apparent Michaelis constant via
//!   `Km = C_max·(1 − tol)/tol` with a 10% nonlinearity tolerance
//!   (see [`MichaelisMenten::from_linear_limit`]).
//! * *LOD* (Table III) back-derives the blank noise the simulated sensor
//!   injects: `σ_blank = LOD·S/3` (paper eq. 5 with the ACS factor 3).
//!
//! [`MichaelisMenten::from_linear_limit`]: crate::MichaelisMenten::from_linear_limit

use crate::analyte::Analyte;
use crate::cytochrome::CypIsoform;
use crate::michaelis::MichaelisMenten;
use crate::oxidase::Oxidase;
use bios_units::{AmpsPerCm2, Molar, QRange, Volts};

/// Nonlinearity tolerance used to back-derive apparent `Km`s from the
/// paper's linear ranges.
pub(crate) const LINEARITY_TOLERANCE: f64 = 0.10;

/// One row of the paper's **Table I** (oxidase biosensors and their
/// chronoamperometric working potentials vs Ag/AgCl).
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub(crate) struct OxidaseRow {
    /// The enzyme.
    pub oxidase: Oxidase,
    /// Its target metabolite.
    pub target: Analyte,
    /// Applied potential for H₂O₂ detection.
    pub applied_potential: Volts,
}

/// The paper's Table I.
pub(crate) const TABLE_I: [OxidaseRow; 4] = [
    OxidaseRow {
        oxidase: Oxidase::Glucose,
        target: Analyte::Glucose,
        applied_potential: Volts::new(0.550),
    },
    OxidaseRow {
        oxidase: Oxidase::Lactate,
        target: Analyte::Lactate,
        applied_potential: Volts::new(0.650),
    },
    OxidaseRow {
        oxidase: Oxidase::Glutamate,
        target: Analyte::Glutamate,
        applied_potential: Volts::new(0.600),
    },
    OxidaseRow {
        oxidase: Oxidase::Cholesterol,
        target: Analyte::Cholesterol,
        applied_potential: Volts::new(0.700),
    },
];

/// One row of the paper's **Table II** (cytochrome P450 biosensors and the
/// reduction potentials of their target drugs vs Ag/AgCl).
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct CypRow {
    /// The cytochrome isoform.
    pub isoform: CypIsoform,
    /// The drug it detects.
    pub target: Analyte,
    /// Reduction potential at which the catalytic peak appears.
    pub reduction_potential: Volts,
}

/// The paper's Table II.
pub const TABLE_II: [CypRow; 11] = [
    CypRow {
        isoform: CypIsoform::Cyp1A2,
        target: Analyte::Clozapine,
        reduction_potential: Volts::new(-0.265),
    },
    CypRow {
        isoform: CypIsoform::Cyp3A4,
        target: Analyte::Erythromycin,
        reduction_potential: Volts::new(-0.625),
    },
    CypRow {
        isoform: CypIsoform::Cyp3A4,
        target: Analyte::Indinavir,
        reduction_potential: Volts::new(-0.750),
    },
    CypRow {
        isoform: CypIsoform::Cyp11A1,
        target: Analyte::Cholesterol,
        reduction_potential: Volts::new(-0.400),
    },
    CypRow {
        isoform: CypIsoform::Cyp2B4,
        target: Analyte::Benzphetamine,
        reduction_potential: Volts::new(-0.250),
    },
    CypRow {
        isoform: CypIsoform::Cyp2B4,
        target: Analyte::Aminopyrine,
        reduction_potential: Volts::new(-0.400),
    },
    CypRow {
        isoform: CypIsoform::Cyp2B6,
        target: Analyte::Bupropion,
        reduction_potential: Volts::new(-0.450),
    },
    CypRow {
        isoform: CypIsoform::Cyp2B6,
        target: Analyte::Lidocaine,
        reduction_potential: Volts::new(-0.450),
    },
    CypRow {
        isoform: CypIsoform::Cyp2C9,
        target: Analyte::Torsemide,
        reduction_potential: Volts::new(-0.019),
    },
    CypRow {
        isoform: CypIsoform::Cyp2C9,
        target: Analyte::Diclofenac,
        reduction_potential: Volts::new(-0.041),
    },
    CypRow {
        isoform: CypIsoform::Cyp2E1,
        target: Analyte::PNitrophenol,
        reduction_potential: Volts::new(-0.300),
    },
];

/// The probe used for a Table III row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum ProbeRef {
    /// An oxidase read out by chronoamperometry.
    Oxidase(Oxidase),
    /// A cytochrome P450 read out by cyclic voltammetry.
    Cytochrome(CypIsoform),
}

impl core::fmt::Display for ProbeRef {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ProbeRef::Oxidase(o) => write!(f, "{o}"),
            ProbeRef::Cytochrome(c) => write!(f, "{c}"),
        }
    }
}

/// One row of the paper's **Table III** (per-target biosensor performance).
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct PerformanceRow {
    /// Target molecule.
    pub target: Analyte,
    /// Sensing probe.
    pub probe: ProbeRef,
    /// Sensitivity in µA/(mM·cm²).
    pub sensitivity_ua_per_mm_cm2: f64,
    /// Limit of detection in µM (`None` where the paper reports "—").
    pub lod_um: Option<f64>,
    /// Lower bound of the linear range, mM.
    pub linear_lo_mm: f64,
    /// Upper bound of the linear range, mM.
    pub linear_hi_mm: f64,
}

/// The paper's Table III.
///
/// Glucose/lactate/glutamate values are for single CNT-nanostructured
/// working electrodes; benzphetamine/aminopyrine for rhodium–graphite
/// (ref. \[16\]); cholesterol for CNT electrodes (ref. \[15\]).
pub const TABLE_III: [PerformanceRow; 6] = [
    PerformanceRow {
        target: Analyte::Glucose,
        probe: ProbeRef::Oxidase(Oxidase::Glucose),
        sensitivity_ua_per_mm_cm2: 27.7,
        lod_um: Some(575.0),
        linear_lo_mm: 0.5,
        linear_hi_mm: 4.0,
    },
    PerformanceRow {
        target: Analyte::Lactate,
        probe: ProbeRef::Oxidase(Oxidase::Lactate),
        sensitivity_ua_per_mm_cm2: 40.1,
        lod_um: Some(366.0),
        linear_lo_mm: 0.5,
        linear_hi_mm: 2.5,
    },
    PerformanceRow {
        target: Analyte::Glutamate,
        probe: ProbeRef::Oxidase(Oxidase::Glutamate),
        sensitivity_ua_per_mm_cm2: 25.5,
        lod_um: Some(1574.0),
        linear_lo_mm: 0.5,
        linear_hi_mm: 2.0,
    },
    PerformanceRow {
        target: Analyte::Benzphetamine,
        probe: ProbeRef::Cytochrome(CypIsoform::Cyp2B4),
        sensitivity_ua_per_mm_cm2: 0.28,
        lod_um: Some(200.0),
        linear_lo_mm: 0.2,
        linear_hi_mm: 1.2,
    },
    PerformanceRow {
        target: Analyte::Aminopyrine,
        probe: ProbeRef::Cytochrome(CypIsoform::Cyp2B4),
        sensitivity_ua_per_mm_cm2: 2.8,
        lod_um: Some(400.0),
        linear_lo_mm: 0.8,
        linear_hi_mm: 8.0,
    },
    PerformanceRow {
        target: Analyte::Cholesterol,
        probe: ProbeRef::Cytochrome(CypIsoform::Cyp11A1),
        sensitivity_ua_per_mm_cm2: 112.0,
        lod_um: None,
        linear_lo_mm: 0.01,
        linear_hi_mm: 0.08,
    },
];

impl PerformanceRow {
    /// Sensitivity in SI-coherent A/(M·cm²).
    pub fn sensitivity_si(&self) -> f64 {
        self.sensitivity_ua_per_mm_cm2 * 1e-3
    }

    /// The linear range as a typed interval.
    pub fn linear_range(&self) -> QRange<Molar> {
        QRange::between(
            Molar::from_millimolar(self.linear_lo_mm),
            Molar::from_millimolar(self.linear_hi_mm),
        )
    }

    /// Reported LOD as a typed concentration, if present.
    pub fn lod(&self) -> Option<Molar> {
        self.lod_um.map(Molar::from_micromolar)
    }

    /// Apparent `Km` back-derived from the top of the linear range at the
    /// registry's `LINEARITY_TOLERANCE`.
    pub fn km_apparent(&self) -> Molar {
        MichaelisMenten::from_linear_limit(
            Molar::from_millimolar(self.linear_hi_mm),
            LINEARITY_TOLERANCE,
        )
        .km()
    }

    /// Blank current-density noise that reproduces the reported LOD through
    /// `LOD = 3σ/S` (paper eq. 5). Rows without a reported LOD get a default
    /// equivalent to a 3 µM LOD (documented substitution — the paper prints
    /// "—" for cholesterol).
    pub fn blank_sd(&self) -> AmpsPerCm2 {
        let lod_m = self.lod_um.unwrap_or(3.0) * 1e-6;
        AmpsPerCm2::new(lod_m * self.sensitivity_si() / 3.0)
    }

    /// The registry LOD as a closed-form floor (`3σ/S` with the blank noise
    /// of [`PerformanceRow::blank_sd`]): no design built on this probe can
    /// detect below it without changing the sensor chemistry. Rows without
    /// a reported LOD use the documented 3 µM substitution, making the
    /// bound total (never `None`), which is what a static pruning pass
    /// needs.
    pub fn lod_floor(&self) -> Molar {
        Molar::from_micromolar(self.lod_um.unwrap_or(3.0))
    }
}

/// Looks up the Table III row for a target analyte.
pub fn performance_of(target: Analyte) -> Option<&'static PerformanceRow> {
    TABLE_III.iter().find(|r| r.target == target)
}

/// Looks up the Table I row for an oxidase.
///
/// `TABLE_I` is laid out in `Oxidase` declaration order, so the lookup is a
/// direct index with no panic path; `table_i_matches_paper` pins the order.
pub(crate) fn oxidase_row(oxidase: Oxidase) -> &'static OxidaseRow {
    let idx = match oxidase {
        Oxidase::Glucose => 0,
        Oxidase::Lactate => 1,
        Oxidase::Glutamate => 2,
        Oxidase::Cholesterol => 3,
    };
    &TABLE_I[idx]
}

/// Looks up the Table II reduction potential for an (isoform, drug) pair.
#[cfg(test)]
pub(crate) fn cyp_reduction_potential(isoform: CypIsoform, target: Analyte) -> Option<Volts> {
    TABLE_II
        .iter()
        .find(|r| r.isoform == isoform && r.target == target)
        .map(|r| r.reduction_potential)
}

/// All Table II rows for one isoform (CYP2B4 and CYP3A4 have two drugs).
pub(crate) fn cyp_rows(isoform: CypIsoform) -> impl Iterator<Item = &'static CypRow> {
    TABLE_II.iter().filter(move |r| r.isoform == isoform)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_i_matches_paper() {
        assert_eq!(TABLE_I.len(), 4);
        assert_eq!(
            oxidase_row(Oxidase::Glucose).applied_potential,
            Volts::new(0.550)
        );
        assert_eq!(
            oxidase_row(Oxidase::Cholesterol).applied_potential,
            Volts::new(0.700)
        );
        // All oxidase potentials are anodic (positive).
        for row in &TABLE_I {
            assert!(row.applied_potential.value() > 0.5);
        }
        // `oxidase_row` indexes TABLE_I by declaration order; pin it.
        for (i, oxidase) in Oxidase::ALL.into_iter().enumerate() {
            assert_eq!(oxidase_row(oxidase).oxidase, oxidase);
            assert_eq!(TABLE_I[i].oxidase, oxidase);
        }
    }

    #[test]
    fn table_ii_matches_paper() {
        assert_eq!(TABLE_II.len(), 11);
        assert_eq!(
            cyp_reduction_potential(CypIsoform::Cyp3A4, Analyte::Indinavir),
            Some(Volts::new(-0.750))
        );
        assert_eq!(
            cyp_reduction_potential(CypIsoform::Cyp2C9, Analyte::Torsemide),
            Some(Volts::new(-0.019))
        );
        assert_eq!(
            cyp_reduction_potential(CypIsoform::Cyp1A2, Analyte::Glucose),
            None
        );
        // All CYP potentials are cathodic (negative).
        for row in &TABLE_II {
            assert!(row.reduction_potential.value() < 0.0);
        }
    }

    #[test]
    fn cyp2b4_has_two_substrates() {
        let rows: Vec<_> = cyp_rows(CypIsoform::Cyp2B4).collect();
        assert_eq!(rows.len(), 2);
        // Distinct potentials: the basis of two-peak discrimination on one WE.
        assert!(
            (rows[0].reduction_potential - rows[1].reduction_potential)
                .abs()
                .as_millivolts()
                > 100.0
        );
    }

    #[test]
    fn table_iii_matches_paper() {
        assert_eq!(TABLE_III.len(), 6);
        let glucose = performance_of(Analyte::Glucose).expect("present");
        assert_eq!(glucose.sensitivity_ua_per_mm_cm2, 27.7);
        assert_eq!(glucose.lod_um, Some(575.0));
        let chol = performance_of(Analyte::Cholesterol).expect("present");
        assert!(chol.lod_um.is_none());
        assert!(performance_of(Analyte::Dopamine).is_none());
    }

    #[test]
    fn km_back_derivation_is_physical() {
        // Glucose: 4 mM linear top at 10% tolerance → Km = 36 mM,
        // close to glucose oxidase's real ≈33 mM — the calibration is
        // physically consistent, not just curve-fit.
        let km = performance_of(Analyte::Glucose)
            .expect("present")
            .km_apparent();
        assert!((km.as_millimolar() - 36.0).abs() < 1e-9);
    }

    #[test]
    fn lod_floor_is_total_and_consistent() {
        for row in &TABLE_III {
            let floor = row.lod_floor();
            assert!(floor.value() > 0.0);
            match row.lod() {
                // Where the paper reports an LOD, the floor IS that LOD...
                Some(lod) => assert_eq!(floor.value(), lod.value()),
                // ...and the "—" rows get the documented 3 µM substitution,
                None => assert!((floor.as_micromolar() - 3.0).abs() < 1e-12),
            }
            // either way equal to the 3σ/S closed form behind blank_sd.
            let back = 3.0 * row.blank_sd().value() / row.sensitivity_si();
            assert!((back - floor.value()).abs() / floor.value() < 1e-12);
        }
    }

    #[test]
    fn blank_sd_reproduces_lod() {
        for row in &TABLE_III {
            if let Some(lod) = row.lod() {
                let sigma = row.blank_sd();
                let lod_back = 3.0 * sigma.value() / row.sensitivity_si();
                assert!((lod_back - lod.value()).abs() / lod.value() < 1e-12);
            } else {
                assert!(row.blank_sd().value() > 0.0);
            }
        }
    }

    #[test]
    fn sensitivity_ordering_matches_paper() {
        let s = |a: Analyte| {
            performance_of(a)
                .expect("present")
                .sensitivity_ua_per_mm_cm2
        };
        assert!(s(Analyte::Cholesterol) > s(Analyte::Lactate));
        assert!(s(Analyte::Lactate) > s(Analyte::Glucose));
        assert!(s(Analyte::Glucose) > s(Analyte::Aminopyrine));
        assert!(s(Analyte::Aminopyrine) > s(Analyte::Benzphetamine));
    }
}
