//! The paper's §II-C current readout requirements as typed range classes:
//! "±10 µA with 10 nA resolution for oxidases, and ±100 µA with 100 nA
//! resolution for CYP".

use bios_units::Amps;

/// A programmable current readout range.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct CurrentRange {
    full_scale: Amps,
    resolution: Amps,
}

impl CurrentRange {
    /// The oxidase readout class: ±10 µA at 10 nA resolution.
    pub fn oxidase() -> Self {
        Self {
            full_scale: Amps::from_microamps(10.0),
            resolution: Amps::from_nanoamps(10.0),
        }
    }

    /// The cytochrome P450 readout class: ±100 µA at 100 nA resolution.
    pub fn cytochrome() -> Self {
        Self {
            full_scale: Amps::from_microamps(100.0),
            resolution: Amps::from_nanoamps(100.0),
        }
    }

    /// A custom range.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < resolution < full_scale`.
    pub fn new(full_scale: Amps, resolution: Amps) -> Self {
        assert!(
            resolution.value() > 0.0 && resolution.value() < full_scale.value(),
            "need 0 < resolution < full_scale"
        );
        Self {
            full_scale,
            resolution,
        }
    }

    /// Full-scale magnitude (± this value).
    pub fn full_scale(&self) -> Amps {
        self.full_scale
    }

    /// Smallest distinguishable current step.
    pub fn resolution(&self) -> Amps {
        self.resolution
    }

    /// Whether a current fits inside the range.
    pub fn fits(&self, i: Amps) -> bool {
        i.value().abs() <= self.full_scale.value()
    }

    /// Number of ADC bits needed to cover ±full-scale at this resolution:
    /// `ceil(log2(2·FS/res))`.
    pub fn required_bits(&self) -> u8 {
        let codes = 2.0 * self.full_scale.value() / self.resolution.value();
        codes.log2().ceil() as u8
    }

    /// Scales both full scale and resolution by `factor` — the paper's
    /// range classes are specified for ≈1 cm² screen-printed electrodes;
    /// a platform using the 0.23 mm² biointerface WEs scales them by the
    /// area ratio so the dynamic range (and bit count) is preserved while
    /// the absolute currents match the smaller electrode.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not strictly positive.
    pub fn scaled(&self, factor: f64) -> Self {
        assert!(factor > 0.0, "scale factor must be positive");
        Self {
            full_scale: self.full_scale * factor,
            resolution: self.resolution * factor,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_ranges() {
        let ox = CurrentRange::oxidase();
        assert_eq!(ox.full_scale(), Amps::from_microamps(10.0));
        assert_eq!(ox.resolution(), Amps::from_nanoamps(10.0));
        let cyp = CurrentRange::cytochrome();
        assert_eq!(cyp.full_scale(), Amps::from_microamps(100.0));
        assert_eq!(cyp.resolution(), Amps::from_nanoamps(100.0));
    }

    #[test]
    fn both_paper_ranges_need_11_bits() {
        // 2·10 µA/10 nA = 2000 codes → 11 bits; same for the CYP class.
        assert_eq!(CurrentRange::oxidase().required_bits(), 11);
        assert_eq!(CurrentRange::cytochrome().required_bits(), 11);
    }

    #[test]
    fn fits_checks_both_signs() {
        let ox = CurrentRange::oxidase();
        assert!(ox.fits(Amps::from_microamps(9.9)));
        assert!(ox.fits(Amps::from_microamps(-9.9)));
        assert!(!ox.fits(Amps::from_microamps(10.1)));
    }

    #[test]
    #[should_panic(expected = "resolution")]
    fn rejects_inverted_range() {
        let _ = CurrentRange::new(Amps::from_nanoamps(1.0), Amps::from_microamps(1.0));
    }
}
