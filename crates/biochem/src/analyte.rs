//! The target molecules of the platform: endogenous metabolites and drugs.

use bios_units::{Molar, QRange};

/// Whether the molecule is produced by the body or administered to it —
/// the paper's two sensing families (oxidases vs cytochromes P450) split
/// along this line.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, serde::Serialize, serde::Deserialize,
)]
pub enum AnalyteKind {
    /// Endogenous metabolite (glucose, lactate, …) — §I-A.
    Endogenous,
    /// Exogenous compound, typically a drug under therapeutic monitoring.
    Drug,
}

/// A target molecule the platform can be asked to monitor.
///
/// Covers every compound named in the paper's Tables I–III plus the two
/// direct-oxidizing interferents called out in §II-C (dopamine, etoposide).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, serde::Serialize, serde::Deserialize,
)]
#[non_exhaustive]
pub enum Analyte {
    /// Blood sugar; diabetes marker.
    Glucose,
    /// Marker of cell suffering (lactic acidosis, Von Gierke's disease).
    Lactate,
    /// Excitatory neurotransmitter; brain-injury marker.
    Glutamate,
    /// Membrane lipid; atherosclerosis risk marker.
    Cholesterol,
    /// Anorectic drug (obesity treatment); CYP2B4 substrate.
    Benzphetamine,
    /// Analgesic/anti-inflammatory; CYP2B4 substrate.
    Aminopyrine,
    /// Antipsychotic (schizophrenia); CYP1A2 substrate.
    Clozapine,
    /// Broad-spectrum antibiotic; CYP3A4 substrate.
    Erythromycin,
    /// HIV protease inhibitor; CYP3A4 substrate.
    Indinavir,
    /// Antidepressant; CYP2B6 substrate.
    Bupropion,
    /// Anesthetic and antiarrhythmic; CYP2B6 substrate.
    Lidocaine,
    /// Diuretic; CYP2C9 substrate.
    Torsemide,
    /// Anti-inflammatory; CYP2C9 substrate.
    Diclofenac,
    /// Paracetamol synthesis intermediate; CYP2E1 substrate.
    PNitrophenol,
    /// Chemotherapy agent (§I-A); oxidizes directly on bare electrodes.
    Etoposide,
    /// Neurotransmitter; classic direct-oxidation interferent.
    Dopamine,
    /// Vitamin C; ubiquitous electrochemical interferent in blood.
    Ascorbate,
}

impl Analyte {
    /// Every analyte the workspace knows about.
    pub const ALL: [Analyte; 17] = [
        Analyte::Glucose,
        Analyte::Lactate,
        Analyte::Glutamate,
        Analyte::Cholesterol,
        Analyte::Benzphetamine,
        Analyte::Aminopyrine,
        Analyte::Clozapine,
        Analyte::Erythromycin,
        Analyte::Indinavir,
        Analyte::Bupropion,
        Analyte::Lidocaine,
        Analyte::Torsemide,
        Analyte::Diclofenac,
        Analyte::PNitrophenol,
        Analyte::Etoposide,
        Analyte::Dopamine,
        Analyte::Ascorbate,
    ];

    /// Endogenous metabolite or administered drug.
    pub fn kind(self) -> AnalyteKind {
        match self {
            Analyte::Glucose
            | Analyte::Lactate
            | Analyte::Glutamate
            | Analyte::Cholesterol
            | Analyte::Dopamine
            | Analyte::Ascorbate => AnalyteKind::Endogenous,
            _ => AnalyteKind::Drug,
        }
    }

    /// Typical physiological / therapeutic concentration window, used by the
    /// examples to generate realistic workloads.
    pub fn typical_range(self) -> QRange<Molar> {
        let (lo_mm, hi_mm) = match self {
            Analyte::Glucose => (3.9, 7.1),       // fasting plasma
            Analyte::Lactate => (0.5, 2.2),       // resting venous
            Analyte::Glutamate => (0.01, 0.25),   // extracellular brain
            Analyte::Cholesterol => (3.0, 6.2),   // total plasma
            Analyte::Benzphetamine => (0.2, 1.2), // paper's linear range
            Analyte::Aminopyrine => (0.8, 8.0),
            Analyte::Clozapine => (0.001, 0.002),
            Analyte::Erythromycin => (0.002, 0.01),
            Analyte::Indinavir => (0.005, 0.015),
            Analyte::Bupropion => (0.0004, 0.0015),
            Analyte::Lidocaine => (0.006, 0.021),
            Analyte::Torsemide => (0.002, 0.01),
            Analyte::Diclofenac => (0.003, 0.008),
            Analyte::PNitrophenol => (0.001, 0.1),
            Analyte::Etoposide => (0.005, 0.02),
            Analyte::Dopamine => (1e-6, 1e-4),
            Analyte::Ascorbate => (0.03, 0.09),
        };
        QRange::between(Molar::from_millimolar(lo_mm), Molar::from_millimolar(hi_mm))
    }
}

impl core::fmt::Display for Analyte {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let s = match self {
            Analyte::Glucose => "glucose",
            Analyte::Lactate => "lactate",
            Analyte::Glutamate => "glutamate",
            Analyte::Cholesterol => "cholesterol",
            Analyte::Benzphetamine => "benzphetamine",
            Analyte::Aminopyrine => "aminopyrine",
            Analyte::Clozapine => "clozapine",
            Analyte::Erythromycin => "erythromycin",
            Analyte::Indinavir => "indinavir",
            Analyte::Bupropion => "bupropion",
            Analyte::Lidocaine => "lidocaine",
            Analyte::Torsemide => "torsemide",
            Analyte::Diclofenac => "diclofenac",
            Analyte::PNitrophenol => "p-nitrophenol",
            Analyte::Etoposide => "etoposide",
            Analyte::Dopamine => "dopamine",
            Analyte::Ascorbate => "ascorbate",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_covers_every_variant_once() {
        let mut seen = std::collections::BTreeSet::new();
        for a in Analyte::ALL {
            assert!(seen.insert(a), "duplicate {a}");
        }
        assert_eq!(seen.len(), 17);
    }

    #[test]
    fn kinds_partition_correctly() {
        assert_eq!(Analyte::Glucose.kind(), AnalyteKind::Endogenous);
        assert_eq!(Analyte::Clozapine.kind(), AnalyteKind::Drug);
        assert_eq!(Analyte::Etoposide.kind(), AnalyteKind::Drug);
        let drugs = Analyte::ALL
            .iter()
            .filter(|a| a.kind() == AnalyteKind::Drug)
            .count();
        assert_eq!(drugs, 11);
    }

    #[test]
    fn ranges_are_positive_and_ordered() {
        for a in Analyte::ALL {
            let r = a.typical_range();
            assert!(r.lo().value() > 0.0, "{a}");
            assert!(r.hi().value() > r.lo().value(), "{a}");
        }
    }

    #[test]
    fn display_nonempty() {
        for a in Analyte::ALL {
            assert!(!a.to_string().is_empty());
        }
    }
}
