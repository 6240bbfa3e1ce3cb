//! The three-electrode electrochemical cell.

use crate::electrode::Electrode;
use crate::error::ElectrochemError;
use bios_units::{Farads, Kelvin, Ohms, T_ROOM};

/// Uncompensated solution resistance `R_u` between the RE tip and the WE.
const UNCOMPENSATED_RESISTANCE: Ohms = Ohms::new(100.0);

/// A three-electrode cell: working electrode (WE), reference (RE), counter
/// (CE), plus the solution-side parasitics the potentiostat has to fight.
///
/// The RE and CE are assumed ideal here (the AFE crate models the control
/// loop); the cell contributes the WE geometry/kinetics, the double-layer
/// capacitance and the uncompensated solution resistance `R_u`.
///
/// # Example
///
/// ```
/// use bios_electrochem::{Cell, Electrode};
///
/// # fn main() -> Result<(), bios_electrochem::ElectrochemError> {
/// let cell = Cell::builder(Electrode::paper_gold_we()).build()?;
/// // R_u·C_dl: the interface charges within microseconds.
/// assert!(cell.time_constant().as_micros() < 10.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Cell {
    working: Electrode,
    temperature: Kelvin,
}

impl Cell {
    /// Starts building a cell around the given working electrode.
    pub fn builder(working: Electrode) -> CellBuilder {
        CellBuilder {
            working,
            temperature: T_ROOM,
        }
    }

    /// The working electrode.
    pub fn working(&self) -> &Electrode {
        &self.working
    }

    /// Solution temperature.
    pub fn temperature(&self) -> Kelvin {
        self.temperature
    }

    /// Double-layer capacitance, derived from the working electrode.
    pub(crate) fn double_layer_capacitance(&self) -> Farads {
        self.working.double_layer_capacitance()
    }

    /// Cell time constant `R_u·C_dl` — sets how fast the interface charges
    /// after a potential step.
    pub fn time_constant(&self) -> bios_units::Seconds {
        bios_units::Seconds::new(
            UNCOMPENSATED_RESISTANCE.value() * self.double_layer_capacitance().value(),
        )
    }
}

/// Builder for [`Cell`].
#[derive(Debug, Clone)]
pub struct CellBuilder {
    working: Electrode,
    temperature: Kelvin,
}

impl CellBuilder {
    /// Sets the solution temperature (default 25 °C).
    pub fn temperature(mut self, t: Kelvin) -> Self {
        self.temperature = t;
        self
    }

    /// Validates and builds the cell.
    ///
    /// # Errors
    ///
    /// Returns [`ElectrochemError::InvalidParameter`] for a non-physical
    /// temperature.
    pub fn build(self) -> Result<Cell, ElectrochemError> {
        if self.temperature.value() <= 0.0 || !self.temperature.value().is_finite() {
            return Err(ElectrochemError::invalid(
                "temperature",
                "must be positive kelvin",
            ));
        }
        Ok(Cell {
            working: self.working,
            temperature: self.temperature,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bios_units::T_BODY;

    #[test]
    fn defaults_are_sensible() {
        let cell = Cell::builder(Electrode::paper_gold_we())
            .build()
            .expect("valid");
        assert_eq!(cell.temperature(), T_ROOM);
        // 0.23 mm² gold at 20 µF/cm² = 46 nF.
        assert!((cell.double_layer_capacitance().as_nanofarads() - 46.0).abs() < 0.5);
        // τ = 100 Ω · 46 nF ≈ 4.6 µs.
        assert!((cell.time_constant().as_micros() - 4.6).abs() < 0.1);
    }

    #[test]
    fn body_temperature_cell() {
        let cell = Cell::builder(Electrode::paper_gold_we())
            .temperature(T_BODY)
            .build()
            .expect("valid");
        assert_eq!(cell.temperature(), T_BODY);
    }

    #[test]
    fn rejects_bad_parameters() {
        assert!(Cell::builder(Electrode::paper_gold_we())
            .temperature(Kelvin::new(0.0))
            .build()
            .is_err());
    }
}
