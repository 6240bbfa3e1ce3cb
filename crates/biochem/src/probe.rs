//! The unified probe abstraction the platform layer selects over.

use crate::analyte::Analyte;
use crate::cytochrome::CypIsoform;
use crate::oxidase::Oxidase;
use crate::tables::{cyp_rows, TABLE_I};

/// The electrochemical technique a probe is read out with (paper §I-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum Technique {
    /// Fixed potential, current vs time (oxidases → H₂O₂ oxidation).
    Chronoamperometry,
    /// Triangular sweep, current vs potential (CYPs → catalytic peaks).
    CyclicVoltammetry,
}

impl core::fmt::Display for Technique {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let s = match self {
            Technique::Chronoamperometry => "chronoamperometry",
            Technique::CyclicVoltammetry => "cyclic voltammetry",
        };
        f.write_str(s)
    }
}

/// A biological recognition element that can functionalize a working
/// electrode: an oxidase or a cytochrome P450 isoform.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum Probe {
    /// An oxidase (Table I), read by chronoamperometry.
    Oxidase(Oxidase),
    /// A cytochrome P450 isoform (Table II), read by cyclic voltammetry.
    Cytochrome(CypIsoform),
}

impl Probe {
    /// Every probe in the registry.
    pub fn all() -> Vec<Probe> {
        // advdiag::allow(H1, hot only because the name-grained call graph binds every `Iterator::all` call in hot code to this fn; it builds the fixed 11-entry registry)
        let mut v: Vec<Probe> = Oxidase::ALL.iter().copied().map(Probe::Oxidase).collect();
        v.extend(CypIsoform::ALL.iter().copied().map(Probe::Cytochrome));
        v
    }

    /// The analytes this probe can report.
    pub fn targets(self) -> Vec<Analyte> {
        match self {
            Probe::Oxidase(o) => vec![o.target()],
            Probe::Cytochrome(c) => c.substrates(),
        }
    }

    /// Whether the probe senses `analyte`.
    pub fn senses(self, analyte: Analyte) -> bool {
        self.targets().contains(&analyte)
    }

    /// The readout technique this probe requires.
    pub fn technique(self) -> Technique {
        match self {
            Probe::Oxidase(_) => Technique::Chronoamperometry,
            Probe::Cytochrome(_) => Technique::CyclicVoltammetry,
        }
    }

    /// All probes that can sense `analyte`, in registry order.
    ///
    /// Cholesterol is the interesting case: both cholesterol oxidase
    /// (Table I) and CYP11A1 (Table II) qualify — a real design choice the
    /// platform explorer gets to make.
    pub fn candidates_for(analyte: Analyte) -> Vec<Probe> {
        let mut out = Vec::new();
        for row in &TABLE_I {
            if row.target == analyte {
                out.push(Probe::Oxidase(row.oxidase));
            }
        }
        for iso in CypIsoform::ALL {
            if cyp_rows(iso).any(|r| r.target == analyte) {
                out.push(Probe::Cytochrome(iso));
            }
        }
        out
    }
}

impl core::fmt::Display for Probe {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Probe::Oxidase(o) => write!(f, "{o}"),
            Probe::Cytochrome(c) => write!(f, "{c}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_has_eleven_probes() {
        assert_eq!(Probe::all().len(), 4 + 7);
    }

    #[test]
    fn technique_follows_family() {
        assert_eq!(
            Probe::Oxidase(Oxidase::Glucose).technique(),
            Technique::Chronoamperometry
        );
        assert_eq!(
            Probe::Cytochrome(CypIsoform::Cyp2B4).technique(),
            Technique::CyclicVoltammetry
        );
    }

    #[test]
    fn cholesterol_has_two_candidate_probes() {
        let c = Probe::candidates_for(Analyte::Cholesterol);
        assert_eq!(c.len(), 2);
        assert!(c.contains(&Probe::Oxidase(Oxidase::Cholesterol)));
        assert!(c.contains(&Probe::Cytochrome(CypIsoform::Cyp11A1)));
    }

    #[test]
    fn glucose_has_single_candidate() {
        let c = Probe::candidates_for(Analyte::Glucose);
        assert_eq!(c, vec![Probe::Oxidase(Oxidase::Glucose)]);
    }

    #[test]
    fn interferents_have_no_probe() {
        assert!(Probe::candidates_for(Analyte::Dopamine).is_empty());
        assert!(Probe::candidates_for(Analyte::Ascorbate).is_empty());
    }

    #[test]
    fn senses_is_consistent_with_targets() {
        for p in Probe::all() {
            for t in p.targets() {
                assert!(p.senses(t));
            }
            assert!(!p.senses(Analyte::Dopamine));
        }
    }
}
