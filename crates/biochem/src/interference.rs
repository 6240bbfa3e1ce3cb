//! Electroactive interferents: species that oxidize directly on a bare
//! working electrode at sensing potentials.
//!
//! These are the reason the paper's §II-C blank-electrode CDS scheme exists
//! — and the reason it fails for dopamine and etoposide, which show up on
//! the blank electrode too.

use crate::analyte::Analyte;
use bios_units::{AmpsPerCm2, Molar, Volts};

/// A direct-oxidation interferent model: a sigmoidal anodic wave that turns
/// on above an onset potential.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Interferent {
    analyte: Analyte,
    onset: Volts,
    /// Plateau sensitivity above the wave, A/(M·cm²).
    sensitivity_si: f64,
}

impl Interferent {
    /// The registry of common interferents with literature onset potentials
    /// vs Ag/AgCl and plateau sensitivities.
    pub(crate) fn registry() -> Vec<Interferent> {
        vec![
            Interferent {
                analyte: Analyte::Ascorbate,
                onset: Volts::new(0.20),
                sensitivity_si: 8.0e-3,
            },
            Interferent {
                analyte: Analyte::Dopamine,
                onset: Volts::new(0.15),
                sensitivity_si: 12.0e-3,
            },
            Interferent {
                analyte: Analyte::Etoposide,
                onset: Volts::new(0.25),
                sensitivity_si: 5.0e-3,
            },
        ]
    }

    /// Looks up an interferent model by analyte.
    pub fn of(analyte: Analyte) -> Option<Interferent> {
        Self::registry().into_iter().find(|i| i.analyte == analyte)
    }

    /// The interfering species.
    pub fn analyte(&self) -> Analyte {
        self.analyte
    }

    /// Onset potential of the direct-oxidation wave.
    pub fn onset(&self) -> Volts {
        self.onset
    }

    /// Anodic current density contributed at electrode potential `e` and
    /// interferent concentration `c` (zero below the onset, sigmoidal rise
    /// over ≈100 mV, concentration-linear plateau).
    pub fn current_density(&self, e: Volts, c: Molar) -> AmpsPerCm2 {
        if c.value() <= 0.0 {
            return AmpsPerCm2::ZERO;
        }
        let x = (e.value() - self.onset.value()) / 0.03; // 30 mV logistic scale
        let gate = 1.0 / (1.0 + (-x.clamp(-60.0, 60.0)).exp());
        AmpsPerCm2::new(self.sensitivity_si * c.value() * gate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_covers_the_papers_warnings() {
        let names: Vec<Analyte> = Interferent::registry()
            .iter()
            .map(|i| i.analyte())
            .collect();
        assert!(names.contains(&Analyte::Dopamine));
        assert!(names.contains(&Analyte::Etoposide));
        assert!(names.contains(&Analyte::Ascorbate));
        assert!(Interferent::of(Analyte::Glucose).is_none());
    }

    #[test]
    fn wave_is_off_below_onset_and_linear_above() {
        let asc = Interferent::of(Analyte::Ascorbate).expect("registry");
        let c = Molar::from_millimolar(0.05);
        let below = asc.current_density(Volts::new(-0.2), c);
        assert!(below.value() < 1e-9 * asc.sensitivity_si);
        let j1 = asc.current_density(Volts::new(0.65), c);
        let j2 = asc.current_density(Volts::new(0.65), c * 2.0);
        // At +650 mV (the oxidase readout) the wave is fully on.
        let plateau = asc.sensitivity_si * c.value();
        assert!((j1.value() / plateau - 1.0).abs() < 1e-3);
        assert!((j2.value() / j1.value() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn cathodic_cyp_window_avoids_anodic_interferents() {
        // At −400 mV (CYP11A1 cholesterol peak) the interferent waves are off.
        for i in Interferent::registry() {
            let j = i.current_density(Volts::new(-0.4), Molar::from_millimolar(0.1));
            assert!(j.value() < 1e-12, "{} leaks {j:?}", i.analyte());
        }
    }
}
