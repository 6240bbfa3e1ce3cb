//! Physical constants.

use crate::Kelvin;

/// Faraday constant, C/mol (exact, 2019 SI).
pub const FARADAY: f64 = 96_485.332_12;

/// Molar gas constant, J/(mol·K) (exact, 2019 SI).
pub const GAS_CONSTANT: f64 = 8.314_462_618;

/// Standard laboratory temperature, 25 °C.
pub const T_ROOM: Kelvin = Kelvin::new(298.15);

/// Human body temperature, 37 °C — implantable sensors operate here.
pub const T_BODY: Kelvin = Kelvin::new(310.15);

#[cfg(test)]
mod tests {
    use super::*;

    /// Elementary charge, C (exact, 2019 SI).
    const ELEMENTARY_CHARGE: f64 = 1.602_176_634e-19;

    /// Avogadro constant, 1/mol (exact, 2019 SI).
    const AVOGADRO: f64 = 6.022_140_76e23;

    #[test]
    fn faraday_is_charge_per_mole_of_electrons() {
        assert!((FARADAY - ELEMENTARY_CHARGE * AVOGADRO).abs() < 1e-4);
    }
}
