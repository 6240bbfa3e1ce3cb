//! The potentiostat control loop of Fig. 1: keeps the RE–WE potential at
//! the programmed value while the CE supplies the cell current.

use crate::error::AfeError;
use bios_units::{Hertz, Seconds, Volts};

/// A behavioral potentiostat: finite-gain control amplifier with a
/// gain–bandwidth product.
///
/// # Example
///
/// ```
/// use bios_afe::Potentiostat;
/// use bios_units::{Amps, Volts};
///
/// # fn main() -> Result<(), bios_afe::AfeError> {
/// let pstat = Potentiostat::typical_cmos()?;
/// // Static control error at 650 mV setpoint is sub-µV for 10⁵ gain.
/// let err = pstat.static_error(Volts::from_millivolts(650.0));
/// assert!(err.as_microvolts().abs() < 10.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Potentiostat {
    open_loop_gain: f64,
    gain_bandwidth: Hertz,
}

impl Potentiostat {
    /// Creates a potentiostat from its amplifier characteristics.
    ///
    /// # Errors
    ///
    /// Returns [`AfeError::InvalidParameter`] for a gain not above 1 or a
    /// non-positive gain–bandwidth.
    pub fn new(open_loop_gain: f64, gain_bandwidth: Hertz) -> Result<Self, AfeError> {
        if open_loop_gain <= 1.0 || !open_loop_gain.is_finite() {
            return Err(AfeError::invalid("open_loop_gain", "must exceed 1"));
        }
        if gain_bandwidth.value() <= 0.0 {
            return Err(AfeError::invalid("gain_bandwidth", "must be positive"));
        }
        Ok(Self {
            open_loop_gain,
            gain_bandwidth,
        })
    }

    /// A typical integrated CMOS control amplifier: 100 dB gain, 1 MHz GBW.
    ///
    /// # Errors
    ///
    /// Never fails for these constants; the `Result` keeps the constructor
    /// signature uniform.
    pub fn typical_cmos() -> Result<Self, AfeError> {
        Self::new(1e5, Hertz::from_megahertz(1.0))
    }

    /// The actually-applied RE–WE potential for a setpoint, from the finite
    /// loop gain: `E = E_set·A/(1+A)`.
    pub fn applied(&self, setpoint: Volts) -> Volts {
        setpoint * (self.open_loop_gain / (1.0 + self.open_loop_gain))
    }

    /// Static control error `E_set − E` (positive means under-drive).
    pub fn static_error(&self, setpoint: Volts) -> Volts {
        setpoint - self.applied(setpoint)
    }

    /// Closed-loop small-signal settling time constant (unity feedback):
    /// `τ = 1/(2π·GBW)`.
    pub(crate) fn settling_tau(&self) -> Seconds {
        Seconds::new(1.0 / (2.0 * core::f64::consts::PI * self.gain_bandwidth.value()))
    }

    /// Creates a streaming state that tracks the setpoint with the loop's
    /// dynamics, stepping every `dt`. The loop gain ratio and the per-step
    /// pole factor are fixed here, once per stream.
    ///
    /// # Errors
    ///
    /// Returns [`AfeError::InvalidParameter`] unless `dt` is positive and
    /// finite.
    pub fn streamer(&self, initial: Volts, dt: Seconds) -> Result<PotentiostatStream, AfeError> {
        let dt = AfeError::check_dt(dt)?;
        let tau = self.settling_tau().value();
        Ok(PotentiostatStream {
            loop_ratio: self.open_loop_gain / (1.0 + self.open_loop_gain),
            alpha: 1.0 - (-dt / tau).exp(),
            state: initial.value(),
        })
    }
}

/// Streaming potentiostat state: the applied potential follows the setpoint
/// through the closed-loop pole.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PotentiostatStream {
    /// `A/(1+A)`, as in [`Potentiostat::applied`].
    loop_ratio: f64,
    /// `1 − exp(−dt/τ)` for the bound step.
    alpha: f64,
    state: f64,
}

impl PotentiostatStream {
    /// Advances one step toward `setpoint`, returning the applied RE–WE
    /// potential.
    pub fn step(&mut self, setpoint: Volts) -> Volts {
        let target = (setpoint * self.loop_ratio).value();
        self.state += self.alpha * (target - self.state);
        Volts::new(self.state)
    }

    /// The presently applied potential.
    pub fn applied(&self) -> Volts {
        Volts::new(self.state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_validates() {
        assert!(Potentiostat::new(0.5, Hertz::new(1e6)).is_err());
        assert!(Potentiostat::new(f64::INFINITY, Hertz::new(1e6)).is_err());
        assert!(Potentiostat::new(1e5, Hertz::ZERO).is_err());
    }

    #[test]
    fn static_error_scales_inversely_with_gain() {
        let lo = Potentiostat::new(1e3, Hertz::new(1e6)).expect("valid");
        let hi = Potentiostat::new(1e6, Hertz::new(1e6)).expect("valid");
        let set = Volts::from_millivolts(650.0);
        let r = lo.static_error(set).value() / hi.static_error(set).value();
        assert!((r - 1000.0).abs() / 1000.0 < 0.01, "r = {r}");
    }

    #[test]
    fn stream_settles_within_five_tau() {
        let p = Potentiostat::typical_cmos().expect("valid");
        let tau = p.settling_tau().value();
        let mut s = p
            .streamer(Volts::ZERO, Seconds::new(tau / 20.0))
            .expect("dt");
        let set = Volts::from_millivolts(650.0);
        let steps = 100; // 5 tau
        let mut v = Volts::ZERO;
        for _ in 0..steps {
            v = s.step(set);
        }
        assert!((v.value() - p.applied(set).value()).abs() < 0.01 * set.value());
    }

    #[test]
    fn settling_is_microseconds_for_mhz_gbw() {
        let p = Potentiostat::typical_cmos().expect("valid");
        // τ = 1/(2π·1 MHz) ≈ 0.16 µs — negligible next to 30 s biology,
        // confirming the paper's note that readout does not limit response.
        assert!(p.settling_tau().as_micros() < 1.0);
    }

    #[test]
    fn stream_rejects_bad_intervals() {
        let p = Potentiostat::typical_cmos().expect("valid");
        for dt in [0.0, -1e-3, f64::NAN, f64::INFINITY] {
            assert!(p.streamer(Volts::ZERO, Seconds::new(dt)).is_err());
        }
    }
}
