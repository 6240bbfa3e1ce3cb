//! Transimpedance amplifier: the current-to-voltage converter of Fig. 1.

use crate::error::AfeError;
use bios_units::{Amps, Hertz, Ohms, Seconds, Volts};

/// A single-pole transimpedance amplifier with output saturation.
///
/// `v = −(i + i_offset)·R_f` filtered through a one-pole response at the
/// configured bandwidth and clipped at the rails. The inverting sign is the
/// standard feedback-TIA convention (Fig. 1): anodic current into the
/// virtual ground gives a negative output. Call [`Tia::inverted`] if you
/// want the follow-up inverter stage folded in.
///
/// # Example
///
/// ```
/// use bios_afe::Tia;
/// use bios_units::{Amps, Hertz, Ohms, Volts};
///
/// # fn main() -> Result<(), bios_afe::AfeError> {
/// let tia = Tia::new(Ohms::from_megaohms(1.0), Hertz::from_kilohertz(10.0), Volts::new(1.65))?;
/// // 100 nA × 1 MΩ = 100 mV (static, inverting).
/// let v = tia.convert_static(Amps::from_nanoamps(100.0));
/// assert!((v.as_millivolts() + 100.0).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Tia {
    feedback: Ohms,
    bandwidth: Hertz,
    rail: Volts,
    input_offset: Amps,
    inverted: bool,
}

impl Tia {
    /// Creates a TIA with feedback resistance, bandwidth and symmetric
    /// output rails `±rail`.
    ///
    /// # Errors
    ///
    /// Returns [`AfeError::InvalidParameter`] for non-positive feedback,
    /// bandwidth or rail.
    pub fn new(feedback: Ohms, bandwidth: Hertz, rail: Volts) -> Result<Self, AfeError> {
        if feedback.value() <= 0.0 || !feedback.value().is_finite() {
            return Err(AfeError::invalid("feedback", "must be positive and finite"));
        }
        if bandwidth.value() <= 0.0 || !bandwidth.value().is_finite() {
            return Err(AfeError::invalid(
                "bandwidth",
                "must be positive and finite",
            ));
        }
        if rail.value() <= 0.0 || !rail.value().is_finite() {
            return Err(AfeError::invalid("rail", "must be positive and finite"));
        }
        Ok(Self {
            feedback,
            bandwidth,
            rail,
            input_offset: Amps::ZERO,
            inverted: false,
        })
    }

    /// Adds an input offset (bias) current.
    pub fn with_input_offset(mut self, offset: Amps) -> Self {
        self.input_offset = offset;
        self
    }

    /// Folds in the follow-up inverting stage so anodic currents map to
    /// positive voltages (convenient for readability of recorded data).
    pub fn inverted(mut self) -> Self {
        self.inverted = true;
        self
    }

    /// Feedback resistance.
    pub fn feedback(&self) -> Ohms {
        self.feedback
    }

    /// −3 dB bandwidth.
    pub fn bandwidth(&self) -> Hertz {
        self.bandwidth
    }

    /// Output rail magnitude.
    pub fn rail(&self) -> Volts {
        self.rail
    }

    /// The output voltage per ampere of input, including sign.
    pub fn gain(&self) -> f64 {
        let sign = if self.inverted { 1.0 } else { -1.0 };
        sign * self.feedback.value()
    }

    /// Static (DC) conversion with saturation, no dynamics.
    pub fn convert_static(&self, i: Amps) -> Volts {
        let v = (i + self.input_offset).value() * self.gain();
        Volts::new(v.clamp(-self.rail.value(), self.rail.value()))
    }

    /// Whether a current would clip the output.
    pub fn saturates(&self, i: Amps) -> bool {
        ((i + self.input_offset).value() * self.gain()).abs() > self.rail.value()
    }

    /// Largest input current magnitude that stays inside the rails.
    pub fn full_scale_input(&self) -> Amps {
        Amps::new(self.rail.value() / self.feedback.value())
    }

    /// Creates a streaming state for dynamic (one-pole) conversion of
    /// samples of duration `dt`. The signed gain and the per-sample pole
    /// factor are fixed here, once per stream.
    ///
    /// # Errors
    ///
    /// Returns [`AfeError::InvalidParameter`] unless `dt` is positive and
    /// finite.
    pub fn streamer(&self, dt: Seconds) -> Result<TiaStream, AfeError> {
        let dt = AfeError::check_dt(dt)?;
        let tau = 1.0 / (2.0 * core::f64::consts::PI * self.bandwidth.value());
        Ok(TiaStream {
            input_offset: self.input_offset,
            gain: self.gain(),
            rail: self.rail.value(),
            alpha: 1.0 - (-dt / tau).exp(),
            state: 0.0,
        })
    }
}

/// Streaming one-pole TIA state for sample-by-sample processing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TiaStream {
    input_offset: Amps,
    /// [`Tia::gain`], sign included.
    gain: f64,
    rail: f64,
    /// `1 − exp(−dt/τ)` for the bound sample duration.
    alpha: f64,
    state: f64,
}

impl TiaStream {
    /// Processes one input sample, returning the filtered, clipped output
    /// voltage.
    pub fn process(&mut self, i: Amps) -> Volts {
        let target = (i + self.input_offset).value() * self.gain;
        self.state += self.alpha * (target - self.state);
        Volts::new(self.state.clamp(-self.rail, self.rail))
    }

    /// The present (unclipped) internal state.
    pub fn state(&self) -> Volts {
        Volts::new(self.state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tia() -> Tia {
        Tia::new(
            Ohms::from_megaohms(1.0),
            Hertz::from_kilohertz(10.0),
            Volts::new(1.65),
        )
        .expect("valid")
    }

    #[test]
    fn construction_validates() {
        assert!(Tia::new(Ohms::ZERO, Hertz::new(1.0), Volts::new(1.0)).is_err());
        assert!(Tia::new(Ohms::new(1e6), Hertz::ZERO, Volts::new(1.0)).is_err());
        assert!(Tia::new(Ohms::new(1e6), Hertz::new(1.0), Volts::ZERO).is_err());
    }

    #[test]
    fn static_gain_and_sign() {
        let t = tia();
        let v = t.convert_static(Amps::from_nanoamps(100.0));
        assert!((v.as_millivolts() + 100.0).abs() < 1e-9);
        let vi = t.inverted().convert_static(Amps::from_nanoamps(100.0));
        assert!((vi.as_millivolts() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn saturation_clips_at_rails() {
        let t = tia();
        let v = t.convert_static(Amps::from_microamps(10.0)); // would be 10 V
        assert_eq!(v.value(), -1.65);
        assert!(t.saturates(Amps::from_microamps(10.0)));
        assert!(!t.saturates(Amps::from_nanoamps(100.0)));
        assert!((t.full_scale_input().as_microamps() - 1.65).abs() < 1e-9);
    }

    #[test]
    fn offset_current_shifts_output() {
        let t = tia().with_input_offset(Amps::from_nanoamps(10.0));
        let v = t.convert_static(Amps::ZERO);
        assert!((v.as_millivolts() + 10.0).abs() < 1e-9);
    }

    #[test]
    fn stream_settles_to_static_value() {
        let t = tia();
        let mut s = t.streamer(Seconds::from_micros(10.0)).expect("dt");
        let i = Amps::from_nanoamps(100.0);
        let mut v = Volts::ZERO;
        for _ in 0..200 {
            v = s.process(i);
        }
        let expected = t.convert_static(i);
        assert!((v.value() - expected.value()).abs() < 1e-6);
    }

    #[test]
    fn stream_bandwidth_sets_rise_time() {
        // One-pole: after one time constant the response reaches 63%.
        let t = tia();
        let i = Amps::from_nanoamps(100.0);
        let tau = 1.0 / (2.0 * core::f64::consts::PI * t.bandwidth().value());
        // Step in small increments up to exactly tau.
        let n = 1000;
        let mut s = t.streamer(Seconds::new(tau / n as f64)).expect("dt");
        let mut v = Volts::ZERO;
        for _ in 0..n {
            v = s.process(i);
        }
        let frac = v.value() / t.convert_static(i).value();
        assert!((frac - 0.632).abs() < 0.01, "frac {frac}");
    }

    #[test]
    fn paper_oxidase_range_fits_1meg_tia() {
        // §II-C: ±10 µA range with 10 nA resolution for oxidases. A 150 kΩ
        // feedback with ±1.65 V rails covers ±11 µA.
        let t = Tia::new(
            Ohms::from_kiloohms(150.0),
            Hertz::from_kilohertz(1.0),
            Volts::new(1.65),
        )
        .expect("valid");
        assert!(t.full_scale_input().as_microamps() > 10.0);
        // 10 nA resolves to 1.5 mV — comfortably above a 12-bit LSB.
        let v_res = t.convert_static(Amps::from_nanoamps(10.0)).abs();
        assert!(v_res.as_millivolts() > 1.0);
    }

    #[test]
    fn stream_rejects_bad_intervals() {
        for dt in [0.0, -1e-3, f64::NAN, f64::INFINITY] {
            assert!(tia().streamer(Seconds::new(dt)).is_err());
        }
    }
}
