//! Panel specifications: what the platform is asked to measure and how
//! well (the input of the design process, §II-A).

use crate::error::PlatformError;
use bios_biochem::Analyte;
use bios_units::{Molar, QRange};

/// The requirement for one target analyte.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct TargetSpec {
    /// The analyte to monitor.
    pub analyte: Analyte,
    /// Required limit of detection; `None` accepts whatever the registry
    /// sensor achieves.
    pub required_lod: Option<Molar>,
    /// Concentration window the measurement must cover linearly.
    pub required_range: QRange<Molar>,
}

impl TargetSpec {
    /// A spec using the analyte's typical physiological/therapeutic range
    /// and no explicit LOD requirement.
    pub fn typical(analyte: Analyte) -> Self {
        Self {
            analyte,
            required_lod: None,
            required_range: analyte.typical_range(),
        }
    }

    /// Tightens the LOD requirement.
    pub fn with_lod(mut self, lod: Molar) -> Self {
        self.required_lod = Some(lod);
        self
    }
}

/// A multi-target sensing panel.
///
/// # Example
///
/// ```
/// use bios_biochem::Analyte;
/// use bios_platform::PanelSpec;
///
/// # fn main() -> Result<(), bios_platform::PlatformError> {
/// let panel = PanelSpec::paper_fig4();
/// assert_eq!(panel.targets().len(), 6);
/// panel.validate()?;
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct PanelSpec {
    targets: Vec<TargetSpec>,
}

impl PanelSpec {
    /// An empty panel to be filled with [`PanelSpec::push`].
    pub fn new() -> Self {
        Self {
            targets: Vec::new(),
        }
    }

    /// The paper's §III multi-panel: glucose, lactate, glutamate,
    /// benzphetamine, aminopyrine and cholesterol — the Fig. 4 biointerface
    /// workload.
    pub fn paper_fig4() -> Self {
        let mut p = Self::new();
        for a in [
            Analyte::Glucose,
            Analyte::Lactate,
            Analyte::Glutamate,
            Analyte::Benzphetamine,
            Analyte::Aminopyrine,
            Analyte::Cholesterol,
        ] {
            p.push(TargetSpec::typical(a));
        }
        p
    }

    /// Adds a target (replacing any existing spec for the same analyte).
    pub fn push(&mut self, spec: TargetSpec) -> &mut Self {
        self.targets.retain(|t| t.analyte != spec.analyte);
        self.targets.push(spec);
        self
    }

    /// The targets in insertion order.
    pub fn targets(&self) -> &[TargetSpec] {
        &self.targets
    }

    /// Looks up the spec for an analyte.
    pub fn spec_for(&self, analyte: Analyte) -> Option<&TargetSpec> {
        self.targets.iter().find(|t| t.analyte == analyte)
    }

    /// Checks the panel is non-empty and every target has at least one
    /// registered probe.
    ///
    /// # Errors
    ///
    /// Returns [`PlatformError::EmptyPanel`] or
    /// [`PlatformError::NoProbeFor`] accordingly.
    pub fn validate(&self) -> Result<(), PlatformError> {
        if self.targets.is_empty() {
            return Err(PlatformError::EmptyPanel);
        }
        for t in &self.targets {
            if bios_biochem::Probe::candidates_for(t.analyte).is_empty() {
                return Err(PlatformError::NoProbeFor(t.analyte));
            }
        }
        Ok(())
    }
}

impl Default for PanelSpec {
    fn default() -> Self {
        Self::new()
    }
}

impl FromIterator<TargetSpec> for PanelSpec {
    fn from_iter<T: IntoIterator<Item = TargetSpec>>(iter: T) -> Self {
        let mut p = Self::new();
        for t in iter {
            p.push(t);
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_panel_is_valid() {
        let p = PanelSpec::paper_fig4();
        assert!(p.validate().is_ok());
        assert!(p.spec_for(Analyte::Glucose).is_some());
        assert!(p.spec_for(Analyte::Dopamine).is_none());
    }

    #[test]
    fn empty_panel_rejected() {
        assert_eq!(PanelSpec::new().validate(), Err(PlatformError::EmptyPanel));
    }

    #[test]
    fn unsensable_target_rejected() {
        let mut p = PanelSpec::new();
        p.push(TargetSpec::typical(Analyte::Dopamine));
        assert_eq!(
            p.validate(),
            Err(PlatformError::NoProbeFor(Analyte::Dopamine))
        );
    }

    #[test]
    fn push_deduplicates_by_analyte() {
        let mut p = PanelSpec::new();
        p.push(TargetSpec::typical(Analyte::Glucose));
        p.push(TargetSpec::typical(Analyte::Glucose).with_lod(Molar::from_micromolar(100.0)));
        assert_eq!(p.targets().len(), 1);
        assert_eq!(
            p.spec_for(Analyte::Glucose).expect("present").required_lod,
            Some(Molar::from_micromolar(100.0))
        );
    }

    #[test]
    fn collects_from_iterator() {
        let p: PanelSpec = [Analyte::Glucose, Analyte::Lactate]
            .into_iter()
            .map(TargetSpec::typical)
            .collect();
        assert_eq!(p.targets().len(), 2);
    }
}
