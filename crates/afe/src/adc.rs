//! Analog-to-digital converter model: quantization, saturation, ENOB.

use crate::error::AfeError;
use bios_units::{Hertz, Volts};

/// A bipolar SAR-style ADC with full scale `±vref`.
///
/// # Example
///
/// ```
/// use bios_afe::Adc;
/// use bios_units::{Hertz, Volts};
///
/// # fn main() -> Result<(), bios_afe::AfeError> {
/// let adc = Adc::new(12, Volts::new(1.65), Hertz::new(100.0))?;
/// let code = adc.quantize(Volts::from_millivolts(100.0));
/// let back = adc.to_volts(code);
/// assert!((back.as_millivolts() - 100.0).abs() < adc.lsb().as_millivolts());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Adc {
    bits: u8,
    vref: Volts,
    sample_rate: Hertz,
}

impl Adc {
    /// Creates an ADC with `bits` of resolution over `±vref`.
    ///
    /// # Errors
    ///
    /// Returns [`AfeError::InvalidParameter`] for `bits` outside 4–24 or
    /// non-positive `vref`/`sample_rate`.
    pub fn new(bits: u8, vref: Volts, sample_rate: Hertz) -> Result<Self, AfeError> {
        if !(4..=24).contains(&bits) {
            return Err(AfeError::invalid("bits", "must be between 4 and 24"));
        }
        if vref.value() <= 0.0 {
            return Err(AfeError::invalid("vref", "must be positive"));
        }
        if sample_rate.value() <= 0.0 {
            return Err(AfeError::invalid("sample_rate", "must be positive"));
        }
        Ok(Self {
            bits,
            vref,
            sample_rate,
        })
    }

    /// Resolution in bits.
    pub fn bits(&self) -> u8 {
        self.bits
    }

    /// One least-significant bit in volts: `2·vref/2^bits`.
    pub fn lsb(&self) -> Volts {
        Volts::new(2.0 * self.vref.value() / (1u64 << self.bits) as f64)
    }

    /// Quantizes a voltage to a signed code, clamped to the code range.
    pub fn quantize(&self, v: Volts) -> i32 {
        let half = (1i64 << (self.bits - 1)) as f64;
        let code = (v.value() / self.vref.value() * half).round();
        code.clamp(-half, half - 1.0) as i32
    }

    /// Converts a code back to its nominal voltage.
    pub fn to_volts(&self, code: i32) -> Volts {
        let half = (1i64 << (self.bits - 1)) as f64;
        Volts::new(code as f64 / half * self.vref.value())
    }

    /// Whether a voltage would clip.
    pub fn saturates(&self, v: Volts) -> bool {
        v.value().abs() >= self.vref.value()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn adc() -> Adc {
        Adc::new(12, Volts::new(1.65), Hertz::new(100.0)).expect("valid")
    }

    #[test]
    fn construction_validates() {
        assert!(Adc::new(2, Volts::new(1.0), Hertz::new(1.0)).is_err());
        assert!(Adc::new(32, Volts::new(1.0), Hertz::new(1.0)).is_err());
        assert!(Adc::new(12, Volts::ZERO, Hertz::new(1.0)).is_err());
        assert!(Adc::new(12, Volts::new(1.0), Hertz::ZERO).is_err());
    }

    #[test]
    fn lsb_halves_per_bit() {
        let a12 = adc();
        let a13 = Adc::new(13, Volts::new(1.65), Hertz::new(100.0)).expect("valid");
        assert!((a12.lsb().value() / a13.lsb().value() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn quantize_round_trips_within_one_lsb() {
        let a = adc();
        for mv in [-1600.0, -3.3, 0.0, 0.4, 123.4, 1500.0] {
            let v = Volts::from_millivolts(mv);
            let back = a.to_volts(a.quantize(v));
            assert!(
                (back.value() - v.value()).abs() <= a.lsb().value(),
                "{mv} mV"
            );
        }
    }

    #[test]
    fn saturation_clamps_codes() {
        let a = adc();
        let top = a.quantize(Volts::new(10.0));
        let bottom = a.quantize(Volts::new(-10.0));
        assert_eq!(top, 2047);
        assert_eq!(bottom, -2048);
        assert!(a.saturates(Volts::new(1.7)));
        assert!(!a.saturates(Volts::new(1.0)));
    }

    #[test]
    fn zero_maps_to_zero() {
        let a = adc();
        assert_eq!(a.quantize(Volts::ZERO), 0);
        assert_eq!(a.to_volts(0), Volts::ZERO);
    }
}
