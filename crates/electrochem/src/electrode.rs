//! Electrode materials, nanostructuring and geometry.
//!
//! The paper's biointerface (§III, Fig. 4) uses thin-film gold working and
//! counter electrodes and a silver reference, with optional carbon-nanotube
//! nanostructuring to boost sensitivity and electron-transfer kinetics.

use crate::error::ElectrochemError;
use bios_units::{FaradsPerCm2, SquareCentimeters};

/// Electrode conductor material.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, serde::Serialize, serde::Deserialize,
)]
pub enum ElectrodeMaterial {
    /// Thin-film gold — the paper's working/counter electrode metal.
    Gold,
    /// Silver (chloridized in situ to Ag/AgCl) — the reference electrode.
    SilverSilverChloride,
    /// Platinum, common for H₂O₂ oxidation.
    Platinum,
    /// Screen-printed carbon.
    Carbon,
    /// Rhodium–graphite, used for CYP2B4 electrodes (paper ref. \[16\]).
    RhodiumGraphite,
    /// Glassy carbon.
    GlassyCarbon,
}

impl ElectrodeMaterial {
    /// Typical specific double-layer capacitance of the bare material.
    ///
    /// Double layers run 10–40 µF/cm²; carbons sit at the high end.
    pub(crate) fn double_layer_capacitance(self) -> FaradsPerCm2 {
        let uf = match self {
            ElectrodeMaterial::Gold => 20.0,
            ElectrodeMaterial::SilverSilverChloride => 25.0,
            ElectrodeMaterial::Platinum => 24.0,
            ElectrodeMaterial::Carbon => 30.0,
            ElectrodeMaterial::RhodiumGraphite => 32.0,
            ElectrodeMaterial::GlassyCarbon => 28.0,
        };
        FaradsPerCm2::from_microfarads_per_cm2(uf)
    }

    /// Multiplier on heterogeneous electron-transfer rate constants relative
    /// to gold (electrocatalytic activity for inner-sphere reactions such as
    /// H₂O₂ oxidation).
    pub(crate) fn kinetic_factor(self) -> f64 {
        match self {
            ElectrodeMaterial::Gold => 1.0,
            ElectrodeMaterial::SilverSilverChloride => 0.2,
            ElectrodeMaterial::Platinum => 8.0,
            ElectrodeMaterial::Carbon => 0.6,
            ElectrodeMaterial::RhodiumGraphite => 3.0,
            ElectrodeMaterial::GlassyCarbon => 0.8,
        }
    }
}

impl core::fmt::Display for ElectrodeMaterial {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let s = match self {
            ElectrodeMaterial::Gold => "Au",
            ElectrodeMaterial::SilverSilverChloride => "Ag/AgCl",
            ElectrodeMaterial::Platinum => "Pt",
            ElectrodeMaterial::Carbon => "C",
            ElectrodeMaterial::RhodiumGraphite => "Rh-graphite",
            ElectrodeMaterial::GlassyCarbon => "GC",
        };
        f.write_str(s)
    }
}

/// Nanostructuring applied on top of the conductor (§III: "Working electrodes
/// can be functionalized by nanostructures, to increase sensitivity").
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, serde::Serialize, serde::Deserialize,
)]
pub enum Nanostructure {
    /// Bare electrode.
    None,
    /// Multi-walled carbon nanotubes (paper refs. \[8\], \[15\]).
    CarbonNanotubes,
    /// Electrodeposited cobalt-oxide nanostructures (paper ref. \[11\]).
    CobaltOxide,
    /// Gold nanoparticles.
    GoldNanoparticles,
}

impl Nanostructure {
    /// Electrochemically active area divided by geometric area.
    ///
    /// CNT forests raise the roughness factor by an order of magnitude, which
    /// is the mechanism behind the "much larger signals" the paper notes for
    /// nanostructured electrodes (§III).
    pub fn roughness_factor(self) -> f64 {
        match self {
            Nanostructure::None => 1.0,
            Nanostructure::CarbonNanotubes => 12.0,
            Nanostructure::CobaltOxide => 6.0,
            Nanostructure::GoldNanoparticles => 4.0,
        }
    }

    /// Multiplier on electron-transfer kinetics (nanostructures also act as
    /// electrocatalysts and promote direct electron transfer to enzymes).
    pub(crate) fn kinetic_factor(self) -> f64 {
        match self {
            Nanostructure::None => 1.0,
            Nanostructure::CarbonNanotubes => 25.0,
            Nanostructure::CobaltOxide => 10.0,
            Nanostructure::GoldNanoparticles => 8.0,
        }
    }
}

impl core::fmt::Display for Nanostructure {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let s = match self {
            Nanostructure::None => "bare",
            Nanostructure::CarbonNanotubes => "CNT",
            Nanostructure::CobaltOxide => "CoOx",
            Nanostructure::GoldNanoparticles => "AuNP",
        };
        f.write_str(s)
    }
}

/// A working electrode: conductor + geometry + optional nanostructure.
///
/// # Example
///
/// ```
/// use bios_electrochem::{Electrode, ElectrodeMaterial, Nanostructure};
/// use bios_units::SquareCentimeters;
///
/// # fn main() -> Result<(), bios_electrochem::ElectrochemError> {
/// // The paper's biointerface WE: 0.23 mm² thin-film gold with CNTs.
/// let we = Electrode::new(
///     ElectrodeMaterial::Gold,
///     SquareCentimeters::from_square_millimeters(0.23),
/// )?
/// .with_nanostructure(Nanostructure::CarbonNanotubes);
/// assert!(we.active_area().value() > we.geometric_area().value());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Electrode {
    material: ElectrodeMaterial,
    geometric_area: SquareCentimeters,
    nanostructure: Nanostructure,
}

impl Electrode {
    /// Creates a bare electrode of the given material and geometric area.
    ///
    /// # Errors
    ///
    /// Returns [`ElectrochemError::InvalidParameter`] if the area is not
    /// strictly positive and finite.
    pub fn new(
        material: ElectrodeMaterial,
        geometric_area: SquareCentimeters,
    ) -> Result<Self, ElectrochemError> {
        if geometric_area.value() <= 0.0 || !geometric_area.value().is_finite() {
            return Err(ElectrochemError::invalid(
                "geometric_area",
                "must be positive and finite",
            ));
        }
        Ok(Self {
            material,
            geometric_area,
            nanostructure: Nanostructure::None,
        })
    }

    /// The paper's reference working electrode: 0.23 mm² thin-film gold.
    ///
    /// A literal, not `Self::new`, so this constant constructor cannot panic.
    pub fn paper_gold_we() -> Self {
        Self {
            material: ElectrodeMaterial::Gold,
            geometric_area: SquareCentimeters::from_square_millimeters(0.23),
            nanostructure: Nanostructure::None,
        }
    }

    /// Adds a nanostructure coating.
    pub fn with_nanostructure(mut self, nanostructure: Nanostructure) -> Self {
        self.nanostructure = nanostructure;
        self
    }

    /// Geometric (projected) area.
    pub fn geometric_area(&self) -> SquareCentimeters {
        self.geometric_area
    }

    /// Nanostructure coating.
    pub fn nanostructure(&self) -> Nanostructure {
        self.nanostructure
    }

    /// Electrochemically active area = geometric area × roughness factor.
    pub fn active_area(&self) -> SquareCentimeters {
        self.geometric_area * self.nanostructure.roughness_factor()
    }

    /// Double-layer capacitance of the whole electrode.
    ///
    /// Scales with *active* area — the microelectrode advantage the paper
    /// cites ("the background current is smaller" for scaled-down electrodes)
    /// falls directly out of this product.
    pub(crate) fn double_layer_capacitance(&self) -> bios_units::Farads {
        self.material.double_layer_capacitance() * self.active_area()
    }

    /// Combined electron-transfer kinetic enhancement over bare gold.
    pub(crate) fn kinetic_factor(&self) -> f64 {
        self.material.kinetic_factor() * self.nanostructure.kinetic_factor()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_nonpositive_area() {
        assert!(Electrode::new(ElectrodeMaterial::Gold, SquareCentimeters::new(0.0)).is_err());
        assert!(Electrode::new(ElectrodeMaterial::Gold, SquareCentimeters::new(-1.0)).is_err());
        assert!(Electrode::new(ElectrodeMaterial::Gold, SquareCentimeters::new(f64::NAN)).is_err());
    }

    #[test]
    fn paper_we_dimensions() {
        let we = Electrode::paper_gold_we();
        assert!((we.geometric_area().as_square_millimeters() - 0.23).abs() < 1e-12);
        assert_eq!(we.material, ElectrodeMaterial::Gold);
    }

    #[test]
    fn nanostructure_boosts_area_and_kinetics() {
        let bare = Electrode::paper_gold_we();
        let cnt = Electrode::paper_gold_we().with_nanostructure(Nanostructure::CarbonNanotubes);
        assert!(cnt.active_area().value() > 10.0 * bare.active_area().value());
        assert!(cnt.kinetic_factor() > 10.0 * bare.kinetic_factor());
        assert_eq!(bare.active_area(), bare.geometric_area());
    }

    #[test]
    fn double_layer_scales_with_area() {
        let small =
            Electrode::new(ElectrodeMaterial::Gold, SquareCentimeters::new(0.001)).expect("valid");
        let large =
            Electrode::new(ElectrodeMaterial::Gold, SquareCentimeters::new(0.01)).expect("valid");
        let ratio =
            large.double_layer_capacitance().value() / small.double_layer_capacitance().value();
        assert!((ratio - 10.0).abs() < 1e-9);
    }

    #[test]
    fn material_display() {
        assert_eq!(ElectrodeMaterial::Gold.to_string(), "Au");
        assert_eq!(
            ElectrodeMaterial::SilverSilverChloride.to_string(),
            "Ag/AgCl"
        );
        assert_eq!(Nanostructure::CarbonNanotubes.to_string(), "CNT");
    }

    #[test]
    fn platinum_catalyzes_h2o2() {
        assert!(
            ElectrodeMaterial::Platinum.kinetic_factor() > ElectrodeMaterial::Gold.kinetic_factor()
        );
    }
}
