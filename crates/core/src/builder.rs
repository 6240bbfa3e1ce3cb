//! The platform builder: from a panel specification to a concrete,
//! runnable multi-target biosensing platform — the paper's §II-A design
//! flow ("consider jointly: the choice of the probe; the choice of the
//! sensor structure; the choice of electronic readout circuitry").

use crate::chamber::needs_chambers;
use crate::cost::ReadoutSharing;
use crate::error::PlatformError;
use crate::platform::{Platform, SensorModel, WeAssignment};
use crate::requirements::PanelSpec;
use crate::structure::SensorStructure;
use bios_afe::{AnalogMux, ChainConfig, CorrelatedDoubleSampler, CurrentRange, ReadoutChain};
use bios_biochem::{Analyte, CypIsoform, CypSensor, Oxidase, OxidaseSensor, Probe};
use bios_electrochem::{Electrode, Nanostructure};
use bios_instrument::{ChronoProtocol, CvProtocol};
use bios_units::{Centimeters, Seconds};

/// How to resolve targets with more than one candidate probe (e.g.
/// cholesterol: cholesterol oxidase vs CYP11A1).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, serde::Serialize, serde::Deserialize,
)]
pub enum ProbePreference {
    /// Group targets onto shared CYP electrodes where possible; ties go to
    /// the cytochrome (this reproduces the paper's Fig. 4 instance).
    MinimizeElectrodes,
    /// Prefer oxidase probes when available.
    PreferOxidase,
    /// Prefer cytochrome probes when available.
    PreferCytochrome,
}

/// Builder for [`Platform`] (guideline C-BUILDER).
///
/// # Example
///
/// ```
/// use bios_platform::{PanelSpec, PlatformBuilder};
///
/// # fn main() -> Result<(), bios_platform::PlatformError> {
/// let platform = PlatformBuilder::new(PanelSpec::paper_fig4()).build()?;
/// // The paper's Fig. 4: five working electrodes, shared CE and RE.
/// assert_eq!(platform.structure().working_electrodes(), 5);
/// assert_eq!(platform.structure().total_electrodes(), 7);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct PlatformBuilder {
    panel: PanelSpec,
    we_template: Electrode,
    pitch: Centimeters,
    chrono_protocol: ChronoProtocol,
    cv_protocol: CvProtocol,
    sharing: ReadoutSharing,
    chopper: bool,
    cds: bool,
    preference: ProbePreference,
    crosstalk_tolerance: f64,
    redundancy: usize,
}

impl PlatformBuilder {
    /// Starts a builder for the given panel with the paper's defaults:
    /// 0.23 mm² CNT-nanostructured gold WEs at 1 mm pitch, shared muxed
    /// readout, 1% cross-talk tolerance.
    pub fn new(panel: PanelSpec) -> Self {
        Self {
            panel,
            we_template: Electrode::paper_gold_we()
                .with_nanostructure(Nanostructure::CarbonNanotubes),
            pitch: Centimeters::from_millimeters(1.0),
            chrono_protocol: ChronoProtocol::default(),
            cv_protocol: CvProtocol::default(),
            sharing: ReadoutSharing::Shared,
            chopper: false,
            cds: false,
            preference: ProbePreference::MinimizeElectrodes,
            crosstalk_tolerance: 0.01,
            redundancy: 1,
        }
    }

    /// Replicates every working electrode `n` times; session readings are
    /// averaged across replicates, cutting uncorrelated blank noise by
    /// √n — the paper's §II sensor *arrays* used for precision rather than
    /// for extra targets. Costs electrodes, mux channels and (with shared
    /// readout) session time.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero. Only the redundancy tests build replicated
    /// platforms.
    #[cfg(test)]
    pub(crate) fn with_redundancy(mut self, n: usize) -> Self {
        assert!(n >= 1, "redundancy must be at least 1");
        self.redundancy = n;
        self
    }

    /// Overrides the working-electrode template.
    pub(crate) fn with_electrode(mut self, electrode: Electrode) -> Self {
        self.we_template = electrode;
        self
    }

    /// Overrides the electrode pitch (cross-talk input).
    pub fn with_pitch(mut self, pitch: Centimeters) -> Self {
        self.pitch = pitch;
        self
    }

    /// Overrides the chronoamperometry timing.
    pub fn with_chrono_protocol(mut self, protocol: ChronoProtocol) -> Self {
        self.chrono_protocol = protocol;
        self
    }

    /// Chooses shared (muxed) or dedicated readout chains.
    pub fn with_sharing(mut self, sharing: ReadoutSharing) -> Self {
        self.sharing = sharing;
        self
    }

    /// Enables chopper stabilization in the readout chains.
    pub fn with_chopper(mut self, on: bool) -> Self {
        self.chopper = on;
        self
    }

    /// Enables blank-electrode correlated double sampling.
    pub fn with_cds(mut self, on: bool) -> Self {
        self.cds = on;
        self
    }

    /// Sets the probe preference for ambiguous targets.
    pub fn with_preference(mut self, preference: ProbePreference) -> Self {
        self.preference = preference;
        self
    }

    /// Resolves probes, lays out working electrodes, decides the structure
    /// and instantiates the readout chains.
    ///
    /// # Errors
    ///
    /// Returns [`PlatformError`] for invalid panels, targets without
    /// probes, or component construction failures.
    pub fn build(self) -> Result<Platform, PlatformError> {
        self.panel.validate()?;
        self.chrono_protocol.validate()?;
        self.cv_protocol.validate()?;

        // 1. Probe selection.
        let mut oxidase_targets: Vec<Oxidase> = Vec::new();
        let mut cyp_groups: Vec<(CypIsoform, Vec<Analyte>)> = Vec::new();
        for t in self.panel.targets() {
            let probe = self.pick_probe(t.analyte)?;
            match probe {
                Probe::Oxidase(o) => {
                    if !oxidase_targets.contains(&o) {
                        oxidase_targets.push(o);
                    }
                }
                Probe::Cytochrome(c) => {
                    if let Some((_, targets)) = cyp_groups.iter_mut().find(|(iso, _)| *iso == c) {
                        if !targets.contains(&t.analyte) {
                            targets.push(t.analyte);
                        }
                    } else {
                        cyp_groups.push((c, vec![t.analyte]));
                    }
                }
            }
        }

        // 2. Working-electrode assignments.
        let mut assignments = Vec::new();
        for o in &oxidase_targets {
            assignments.push(WeAssignment::new(
                assignments.len(),
                Probe::Oxidase(*o),
                vec![o.target()],
                self.we_template.clone(),
                SensorModel::Oxidase(OxidaseSensor::from_registry(*o)?),
            ));
        }
        for (iso, targets) in &cyp_groups {
            assignments.push(WeAssignment::new(
                assignments.len(),
                Probe::Cytochrome(*iso),
                targets.clone(),
                self.we_template.clone(),
                SensorModel::Cytochrome(CypSensor::from_registry(*iso)?),
            ));
        }
        // Replicate electrodes for redundancy averaging.
        if self.redundancy > 1 {
            let base = assignments.clone();
            for _ in 1..self.redundancy {
                for a in &base {
                    assignments.push(WeAssignment::new(
                        assignments.len(),
                        a.probe(),
                        a.targets().to_vec(),
                        a.electrode().clone(),
                        a.sensor().clone(),
                    ));
                }
            }
        }
        let n_we = assignments.len();

        // 3. Structure: shared chamber unless cross-talk forces separation.
        let chrono_dwell = Seconds::new(
            self.chrono_protocol.settle.value() + self.chrono_protocol.measure.value(),
        );
        let multiple_oxidases = oxidase_targets.len() > 1;
        let structure = if n_we == 1 {
            SensorStructure::Single
        } else if multiple_oxidases
            && needs_chambers(self.pitch, chrono_dwell, self.crosstalk_tolerance)
        {
            SensorStructure::MultiChamber { chambers: n_we }
        } else {
            SensorStructure::MultiElectrode { working: n_we }
        };
        structure.validate()?;

        // 4. Readout chains. The paper's §II-C range classes are specified
        //    for ≈1 cm² electrodes; here the ranges are *derived* from the
        //    assigned sensor models — full scale covers the largest Vmax
        //    current with 20% margin, resolution resolves a third of the
        //    smallest blank noise — which is exactly the "parameterized
        //    component" selection the platform methodology calls for.
        let area = self.we_template.geometric_area().value();
        let chrono_range = derive_oxidase_range(&assignments)
            .unwrap_or_else(|| CurrentRange::oxidase().scaled(area.min(1.0)));
        let cv_range = derive_cyp_range(&assignments)
            .unwrap_or_else(|| CurrentRange::cytochrome().scaled(area.min(1.0)));
        let mut chrono_cfg = ChainConfig::for_range(chrono_range)?;
        let mut cv_cfg = ChainConfig::for_range(cv_range)?;
        if self.chopper {
            chrono_cfg = chrono_cfg.with_chopper();
            cv_cfg = cv_cfg.with_chopper();
        }
        if self.cds {
            chrono_cfg = chrono_cfg.with_cds(CorrelatedDoubleSampler::default());
            cv_cfg = cv_cfg.with_cds(CorrelatedDoubleSampler::default());
        }
        let mux = AnalogMux::typical_cmos(n_we.max(1))?;

        Ok(Platform::from_parts(
            assignments,
            structure,
            mux,
            ReadoutChain::new(chrono_cfg),
            ReadoutChain::new(cv_cfg),
            self.chrono_protocol,
            self.cv_protocol,
            self.sharing,
            self.chopper,
            self.cds,
        ))
    }

    fn pick_probe(&self, analyte: Analyte) -> Result<Probe, PlatformError> {
        let candidates = Probe::candidates_for(analyte);
        if candidates.is_empty() {
            return Err(PlatformError::NoProbeFor(analyte));
        }
        if candidates.len() == 1 {
            return Ok(candidates[0]);
        }
        let pick = match self.preference {
            ProbePreference::PreferOxidase => candidates
                .iter()
                .find(|p| matches!(p, Probe::Oxidase(_)))
                .copied(),
            ProbePreference::PreferCytochrome => candidates
                .iter()
                .find(|p| matches!(p, Probe::Cytochrome(_)))
                .copied(),
            ProbePreference::MinimizeElectrodes => {
                // Prefer a cytochrome that also senses another panel target;
                // ties go to the cytochrome (multi-target CV reuse, as in
                // the paper's Fig. 4 instance).
                let grouping = candidates.iter().find(|p| {
                    matches!(p, Probe::Cytochrome(_))
                        && self
                            .panel
                            .targets()
                            .iter()
                            .any(|t| t.analyte != analyte && p.senses(t.analyte))
                });
                grouping
                    .or_else(|| {
                        candidates
                            .iter()
                            .find(|p| matches!(p, Probe::Cytochrome(_)))
                    })
                    .copied()
            }
        };
        Ok(pick.unwrap_or(candidates[0]))
    }
}

/// Derives the chronoamperometry current range from the oxidase sensors:
/// full scale covers the largest saturation (Vmax) current with 20% margin;
/// resolution resolves a third of the smallest blank noise (floored at a
/// 15-bit dynamic range so [`ChainConfig::for_range`] stays realizable).
fn derive_oxidase_range(assignments: &[WeAssignment]) -> Option<CurrentRange> {
    let mut full_scale: f64 = 0.0;
    let mut resolution = f64::INFINITY;
    for a in assignments {
        if let SensorModel::Oxidase(sensor) = a.sensor() {
            let area = a.electrode().geometric_area().value();
            let vmax = area * sensor.sensitivity_si() * sensor.kinetics().km().value();
            full_scale = full_scale.max(1.2 * vmax);
            resolution = resolution.min(sensor.blank_sd().value() * area / 3.0);
        }
    }
    if full_scale == 0.0 {
        return None;
    }
    let resolution = resolution.max(full_scale / 32768.0);
    Some(CurrentRange::new(
        bios_units::Amps::new(full_scale),
        bios_units::Amps::new(resolution),
    ))
}

/// Derives the voltammetry current range from the cytochrome sensors: full
/// scale covers the largest catalytic amplitude plus headroom for the heme
/// baseline wave; resolution resolves a third of the smallest blank noise.
fn derive_cyp_range(assignments: &[WeAssignment]) -> Option<CurrentRange> {
    let mut full_scale: f64 = 0.0;
    let mut resolution = f64::INFINITY;
    for a in assignments {
        if let SensorModel::Cytochrome(sensor) = a.sensor() {
            let area = a.electrode().geometric_area().value();
            for analyte in a.targets() {
                // A target the sensor does not register contributes nothing
                // to the range rather than aborting the whole derivation.
                let (Some(s), Some(kinetics), Some(blank_sd)) = (
                    sensor.sensitivity_si(*analyte),
                    sensor.kinetics(*analyte),
                    sensor.blank_sd(*analyte),
                ) else {
                    continue;
                };
                let km = kinetics.km().value();
                full_scale = full_scale.max(1.2 * (s * km * area + 5e-9));
                resolution = resolution.min(blank_sd.value() * area / 3.0);
            }
        }
    }
    if full_scale == 0.0 {
        return None;
    }
    let resolution = resolution.max(full_scale / 32768.0);
    Some(CurrentRange::new(
        bios_units::Amps::new(full_scale),
        bios_units::Amps::new(resolution),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::requirements::TargetSpec;
    use bios_biochem::Technique;

    #[test]
    fn paper_panel_builds_fig4_layout() {
        let p = PlatformBuilder::new(PanelSpec::paper_fig4())
            .build()
            .expect("build");
        // 3 oxidase WEs + CYP2B4 (two drugs) + CYP11A1 (cholesterol).
        assert_eq!(p.structure().working_electrodes(), 5);
        let cv_wes = p
            .assignments()
            .iter()
            .filter(|a| a.technique() == Technique::CyclicVoltammetry)
            .count();
        assert_eq!(cv_wes, 2);
        // CYP2B4 carries two targets on one electrode.
        let grouped = p
            .assignments()
            .iter()
            .find(|a| a.targets().len() == 2)
            .expect("CYP2B4 groups benzphetamine and aminopyrine");
        assert!(grouped.targets().contains(&Analyte::Benzphetamine));
        assert!(grouped.targets().contains(&Analyte::Aminopyrine));
    }

    #[test]
    fn prefer_oxidase_uses_cholesterol_oxidase() {
        let mut panel = PanelSpec::new();
        panel.push(TargetSpec::typical(Analyte::Cholesterol));
        let p = PlatformBuilder::new(panel)
            .with_preference(ProbePreference::PreferOxidase)
            .build()
            .expect("build");
        assert_eq!(p.structure().working_electrodes(), 1);
        assert!(matches!(
            p.assignments()[0].probe(),
            Probe::Oxidase(Oxidase::Cholesterol)
        ));
    }

    #[test]
    fn single_target_panel_is_a_single_sensor() {
        let mut panel = PanelSpec::new();
        panel.push(TargetSpec::typical(Analyte::Glucose));
        let p = PlatformBuilder::new(panel).build().expect("build");
        assert_eq!(p.structure(), SensorStructure::Single);
    }

    #[test]
    fn tight_pitch_forces_chambers() {
        let mut panel = PanelSpec::new();
        panel.push(TargetSpec::typical(Analyte::Glucose));
        panel.push(TargetSpec::typical(Analyte::Lactate));
        let long_dwell = ChronoProtocol {
            settle: Seconds::new(10.0),
            measure: Seconds::new(600.0),
            dt: Seconds::new(1.0),
        };
        let p = PlatformBuilder::new(panel)
            .with_pitch(Centimeters::from_millimeters(0.15))
            .with_chrono_protocol(long_dwell)
            .build()
            .expect("build");
        assert!(matches!(
            p.structure(),
            SensorStructure::MultiChamber { chambers: 2 }
        ));
    }

    #[test]
    fn empty_panel_fails() {
        assert!(matches!(
            PlatformBuilder::new(PanelSpec::new()).build(),
            Err(PlatformError::EmptyPanel)
        ));
    }

    #[test]
    fn duplicate_targets_share_a_we() {
        let mut panel = PanelSpec::new();
        panel.push(TargetSpec::typical(Analyte::Benzphetamine));
        panel.push(TargetSpec::typical(Analyte::Aminopyrine));
        let p = PlatformBuilder::new(panel).build().expect("build");
        assert_eq!(p.structure().working_electrodes(), 1);
        assert_eq!(p.assignments()[0].targets().len(), 2);
    }
}
