//! Assembled performance reports — the per-sensor rows of the paper's
//! Table III plus the §II-B timing properties.

use bios_units::Seconds;

/// A complete characterization of one functionalized electrode.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct PerformanceReport {
    /// Target analyte name.
    pub target: String,
    /// Probe name.
    pub probe: String,
    /// Readout technique name.
    pub technique: String,
    /// Sensitivity in µA/(mM·cm²) (Table III units).
    pub sensitivity_ua_per_mm_cm2: f64,
    /// Limit of detection in µM.
    pub lod_um: f64,
    /// Linear range in mM.
    pub linear_range_mm: (f64, f64),
    /// eq. 7 maximum nonlinearity over the linear range.
    pub nl_max: f64,
    /// Calibration R².
    pub r2: f64,
    /// Steady-state response time `t₉₀`, when measured.
    pub t90: Option<Seconds>,
    /// Sample throughput per hour, when timing was measured.
    pub throughput_per_hour: Option<f64>,
}

impl core::fmt::Display for PerformanceReport {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "{}: {} via {} — S = {:.2} µA/(mM·cm²), LOD = {:.0} µM, linear {:.2}-{:.2} mM",
            self.target,
            self.probe,
            self.technique,
            self.sensitivity_ua_per_mm_cm2,
            self.lod_um,
            self.linear_range_mm.0,
            self.linear_range_mm.1
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_shows_sensitivity_units() {
        let r = PerformanceReport {
            target: "glucose".into(),
            probe: "glucose oxidase".into(),
            technique: "chronoamperometry".into(),
            sensitivity_ua_per_mm_cm2: 27.7,
            lod_um: 575.0,
            linear_range_mm: (0.5, 4.0),
            nl_max: 0.1,
            r2: 0.999,
            t90: None,
            throughput_per_hour: None,
        };
        let shown = format!("{r}");
        assert!(shown.contains("µA/(mM·cm²)"));
    }
}
