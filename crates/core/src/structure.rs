//! Physical sensor structures (paper §II): single sensors, multi-WE
//! sensors sharing CE/RE, arrays, and chamber-separated arrays.

use crate::error::PlatformError;

/// The bio-electrical interface topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum SensorStructure {
    /// One 3-electrode sensor (WE + RE + CE), possibly multi-target via a
    /// CYP probe.
    Single,
    /// `n` working electrodes sharing one RE and one CE (`n + 2` electrodes
    /// total) in a single chamber — the paper's Fig. 4 biointerface.
    MultiElectrode {
        /// Number of working electrodes.
        working: usize,
    },
    /// A 1-D array of `k` independent 3-electrode sensors.
    Array1d {
        /// Number of sensors.
        sensors: usize,
    },
    /// A 2-D array of `k × j` independent 3-electrode sensors.
    Array2d {
        /// Rows.
        rows: usize,
        /// Columns.
        cols: usize,
    },
    /// Chamber-separated sensors, "when the electrochemical reactions must
    /// be kept separated" (§II).
    MultiChamber {
        /// Number of chambers, one 3-electrode sensor each.
        chambers: usize,
    },
}

impl SensorStructure {
    /// Validates the topology (no zero-sized structures).
    ///
    /// # Errors
    ///
    /// Returns [`PlatformError::InvalidParameter`] for empty structures.
    pub fn validate(&self) -> Result<(), PlatformError> {
        let ok = match self {
            SensorStructure::Single => true,
            SensorStructure::MultiElectrode { working } => *working >= 1,
            SensorStructure::Array1d { sensors } => *sensors >= 1,
            SensorStructure::Array2d { rows, cols } => *rows >= 1 && *cols >= 1,
            SensorStructure::MultiChamber { chambers } => *chambers >= 1,
        };
        if ok {
            Ok(())
        } else {
            Err(PlatformError::invalid(
                "structure",
                "must contain at least one sensor",
            ))
        }
    }

    /// Number of working electrodes (measurement sites).
    pub fn working_electrodes(&self) -> usize {
        match self {
            SensorStructure::Single => 1,
            SensorStructure::MultiElectrode { working } => *working,
            SensorStructure::Array1d { sensors } => *sensors,
            SensorStructure::Array2d { rows, cols } => rows * cols,
            SensorStructure::MultiChamber { chambers } => *chambers,
        }
    }

    /// Total electrode count, counting shared CE/RE once per chamber
    /// (the paper's `n + 2` arithmetic).
    pub fn total_electrodes(&self) -> usize {
        match self {
            SensorStructure::Single => 3,
            SensorStructure::MultiElectrode { working } => working + 2,
            SensorStructure::Array1d { sensors } => sensors * 3,
            SensorStructure::Array2d { rows, cols } => rows * cols * 3,
            SensorStructure::MultiChamber { chambers } => chambers * 3,
        }
    }

    /// Number of fluidic chambers required.
    pub fn chambers(&self) -> usize {
        match self {
            SensorStructure::MultiChamber { chambers } => *chambers,
            _ => 1,
        }
    }

    /// The paper's Fig. 4 structure: five WEs, one CE, one RE.
    pub fn paper_fig4() -> Self {
        SensorStructure::MultiElectrode { working: 5 }
    }
}

impl core::fmt::Display for SensorStructure {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SensorStructure::Single => write!(f, "single 3-electrode sensor"),
            SensorStructure::MultiElectrode { working } => {
                write!(
                    f,
                    "{working}-WE sensor (shared CE/RE, {} electrodes)",
                    working + 2
                )
            }
            SensorStructure::Array1d { sensors } => write!(f, "1-D array of {sensors} sensors"),
            SensorStructure::Array2d { rows, cols } => {
                write!(f, "2-D array of {rows}x{cols} sensors")
            }
            SensorStructure::MultiChamber { chambers } => {
                write!(f, "{chambers}-chamber separated sensors")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_fig4_arithmetic() {
        let s = SensorStructure::paper_fig4();
        assert_eq!(s.working_electrodes(), 5);
        // "five working electrodes, one counter and one reference" — 7.
        assert_eq!(s.total_electrodes(), 7);
        assert_eq!(s.chambers(), 1);
    }

    #[test]
    fn shared_ce_re_saves_electrodes() {
        let shared = SensorStructure::MultiElectrode { working: 5 };
        let discrete = SensorStructure::Array1d { sensors: 5 };
        assert!(shared.total_electrodes() < discrete.total_electrodes());
        assert_eq!(discrete.total_electrodes(), 15);
    }

    #[test]
    fn array2d_counts() {
        let a = SensorStructure::Array2d { rows: 3, cols: 4 };
        assert_eq!(a.working_electrodes(), 12);
        assert_eq!(a.total_electrodes(), 36);
    }

    #[test]
    fn chambers_isolate_reactions() {
        let m = SensorStructure::MultiChamber { chambers: 4 };
        assert_eq!(m.chambers(), 4);
    }

    #[test]
    fn validation_rejects_empty() {
        assert!(SensorStructure::MultiElectrode { working: 0 }
            .validate()
            .is_err());
        assert!(SensorStructure::Array2d { rows: 0, cols: 3 }
            .validate()
            .is_err());
        assert!(SensorStructure::Single.validate().is_ok());
    }

    #[test]
    fn display_readable() {
        assert!(SensorStructure::paper_fig4().to_string().contains("5-WE"));
    }
}
