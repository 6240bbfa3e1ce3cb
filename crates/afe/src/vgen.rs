//! The voltage generator of §II-C: "generates a fixed or variable voltage to
//! feed the potentiostat circuit" — a DAC with quantization and slew limits.

use crate::error::AfeError;
use bios_electrochem::PotentialProgram;
use bios_units::{QRange, Seconds, Volts, VoltsPerSecond};

/// A DAC-based waveform generator.
///
/// # Example
///
/// ```
/// use bios_afe::VoltageGenerator;
/// use bios_electrochem::PotentialProgram;
/// use bios_units::{QRange, Seconds, Volts, VoltsPerSecond};
///
/// # fn main() -> Result<(), bios_afe::AfeError> {
/// let vgen = VoltageGenerator::new(
///     12,
///     QRange::new(Volts::new(-1.0), Volts::new(1.0)).expect("valid range"),
///     VoltsPerSecond::new(1.0),
/// )?;
/// let program = PotentialProgram::Hold {
///     potential: Volts::from_millivolts(650.0),
///     duration: Seconds::new(10.0),
/// };
/// vgen.check(&program)?;
/// let e = vgen.quantize(Volts::from_millivolts(650.0));
/// // Quantized to within one DAC LSB (≈0.49 mV here).
/// assert!((e.as_millivolts() - 650.0).abs() < 0.5);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct VoltageGenerator {
    bits: u8,
    range: QRange<Volts>,
    max_slew: VoltsPerSecond,
}

impl VoltageGenerator {
    /// Creates a generator with `bits` of DAC resolution over `range`,
    /// slew-limited to `max_slew`.
    ///
    /// # Errors
    ///
    /// Returns [`AfeError::InvalidParameter`] for out-of-range bits,
    /// a zero-width range or non-positive slew.
    pub fn new(bits: u8, range: QRange<Volts>, max_slew: VoltsPerSecond) -> Result<Self, AfeError> {
        if !(4..=20).contains(&bits) {
            return Err(AfeError::invalid("bits", "must be between 4 and 20"));
        }
        if range.width() <= 0.0 {
            return Err(AfeError::invalid("range", "must have positive width"));
        }
        if max_slew.value() <= 0.0 {
            return Err(AfeError::invalid("max_slew", "must be positive"));
        }
        Ok(Self {
            bits,
            range,
            max_slew,
        })
    }

    /// A generator covering both the paper's techniques: ±1 V around
    /// Ag/AgCl at 12 bits, 1 V/s slew.
    ///
    /// # Errors
    ///
    /// Never fails for these constants.
    pub fn paper_default() -> Result<Self, AfeError> {
        Self::new(
            12,
            QRange::between(Volts::new(-1.0), Volts::new(1.0)),
            VoltsPerSecond::new(1.0),
        )
    }

    /// DAC resolution in bits.
    pub fn bits(&self) -> u8 {
        self.bits
    }

    /// Output range.
    pub fn range(&self) -> QRange<Volts> {
        self.range
    }

    /// One DAC step.
    pub fn lsb(&self) -> Volts {
        Volts::new(self.range.width() / ((1u64 << self.bits) - 1) as f64)
    }

    /// Checks a program fits this generator (range and slew).
    ///
    /// # Errors
    ///
    /// Returns [`AfeError::RangeExceeded`] when the program leaves the DAC
    /// range or sweeps faster than the slew limit. Instantaneous steps are
    /// allowed: they realize at the slew rate (checked against the
    /// chronoamperometry settling budget by the caller).
    pub fn check(&self, program: &PotentialProgram) -> Result<(), AfeError> {
        let dur = program.duration();
        let n = 256;
        for k in 0..=n {
            let t = Seconds::new(dur.value() * k as f64 / n as f64);
            let e = program.potential_at(t);
            if !self.range.contains(e) {
                return Err(AfeError::RangeExceeded {
                    block: "voltage generator",
                    detail: format!("program reaches {e} outside the DAC range"),
                });
            }
        }
        let slew = program.max_slew();
        if slew.value().is_finite() && slew.value() > self.max_slew.value() {
            return Err(AfeError::RangeExceeded {
                block: "voltage generator",
                detail: format!("program sweeps at {slew}, above the slew limit"),
            });
        }
        Ok(())
    }

    /// The DAC-quantized potential the generator actually outputs at time
    /// `t` of the program.
    ///
    /// # Errors
    ///
    /// Returns [`AfeError::RangeExceeded`] if the ideal potential leaves
    /// the range.
    pub(crate) fn realize(
        &self,
        program: &PotentialProgram,
        t: Seconds,
    ) -> Result<Volts, AfeError> {
        let ideal = program.potential_at(t);
        if !self.range.contains(ideal) {
            return Err(out_of_range(ideal));
        }
        Ok(self.quantize(ideal))
    }

    /// Quantizes a potential to the nearest DAC level (clamped to range).
    pub fn quantize(&self, v: Volts) -> Volts {
        let clamped = self.range.clamp(v);
        let lsb = self.lsb().value();
        let steps = ((clamped.value() - self.range.lo().value()) / lsb).round();
        Volts::new(self.range.lo().value() + steps * lsb)
    }
}

#[cold]
// advdiag::cold(error path of the per-sample `realize`: formats its message once,
// as the acquisition aborts)
fn out_of_range(ideal: Volts) -> AfeError {
    AfeError::RangeExceeded {
        block: "voltage generator",
        detail: format!("requested {ideal} outside the DAC range"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vgen() -> VoltageGenerator {
        VoltageGenerator::paper_default().expect("valid")
    }

    #[test]
    fn construction_validates() {
        let r = QRange::new(Volts::new(-1.0), Volts::new(1.0)).expect("range");
        assert!(VoltageGenerator::new(2, r, VoltsPerSecond::new(1.0)).is_err());
        assert!(VoltageGenerator::new(12, r, VoltsPerSecond::ZERO).is_err());
        let degenerate = QRange::new(Volts::ZERO, Volts::ZERO).expect("range");
        assert!(VoltageGenerator::new(12, degenerate, VoltsPerSecond::new(1.0)).is_err());
    }

    #[test]
    fn quantization_error_bounded_by_half_lsb() {
        let g = vgen();
        for mv in [-999.0, -650.0, -41.0, -19.0, 0.0, 550.0, 650.0, 700.0] {
            let v = Volts::from_millivolts(mv);
            let q = g.quantize(v);
            assert!(
                (q.value() - v.value()).abs() <= g.lsb().value() / 2.0 + 1e-12,
                "{mv} mV"
            );
        }
    }

    #[test]
    fn rejects_out_of_range_programs() {
        let g = vgen();
        let bad = PotentialProgram::Hold {
            potential: Volts::new(1.5),
            duration: Seconds::new(1.0),
        };
        assert!(g.check(&bad).is_err());
        assert!(g.realize(&bad, Seconds::ZERO).is_err());
    }

    #[test]
    fn rejects_excess_slew() {
        let g = vgen();
        let too_fast = PotentialProgram::LinearSweep {
            from: Volts::new(-0.8),
            to: Volts::new(0.8),
            rate: VoltsPerSecond::new(5.0),
        };
        assert!(g.check(&too_fast).is_err());
        // 20 mV/s CV is fine.
        let cv = PotentialProgram::cyclic_single(
            Volts::new(0.1),
            Volts::new(-0.8),
            VoltsPerSecond::from_millivolts_per_second(20.0),
        );
        assert!(g.check(&cv).is_ok());
    }

    #[test]
    fn staircase_effect_of_dac_on_sweep() {
        // A DAC-realized sweep is a staircase: consecutive realizations
        // differ by integer LSBs.
        let g = vgen();
        let cv = PotentialProgram::cyclic_single(
            Volts::new(0.0),
            Volts::new(-0.5),
            VoltsPerSecond::from_millivolts_per_second(20.0),
        );
        let lsb = g.lsb().value();
        let mut prev = g.realize(&cv, Seconds::ZERO).expect("in range");
        for k in 1..100 {
            let e = g
                .realize(&cv, Seconds::new(k as f64 * 0.01))
                .expect("in range");
            let steps = (e.value() - prev.value()) / lsb;
            assert!((steps - steps.round()).abs() < 1e-6, "non-integer LSB step");
            prev = e;
        }
    }

    #[test]
    fn twelve_bit_lsb_below_one_mv() {
        // 2 V span / 4095 ≈ 0.49 mV: fine-grained enough that the paper's
        // 19 mV-apart CYP2C9 peaks stay distinguishable after quantization.
        assert!(vgen().lsb().as_millivolts() < 1.0);
    }
}
