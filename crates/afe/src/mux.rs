//! Analog multiplexer: shares one readout chain across several working
//! electrodes (paper §II-C and §III — "a multiplexer, which switches
//! sequentially among the different working electrodes").

use crate::error::AfeError;
use bios_units::{Coulombs, Seconds};

/// An analog mux with switching time, settling and charge injection.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct AnalogMux {
    channels: usize,
    switch_time: Seconds,
    settle_tau: Seconds,
    charge_injection: Coulombs,
}

impl AnalogMux {
    /// Creates a mux with `channels` inputs.
    ///
    /// # Errors
    ///
    /// Returns [`AfeError::InvalidParameter`] for zero channels or negative
    /// timing/charge parameters.
    pub fn new(
        channels: usize,
        switch_time: Seconds,
        settle_tau: Seconds,
        charge_injection: Coulombs,
    ) -> Result<Self, AfeError> {
        if channels == 0 {
            return Err(AfeError::invalid("channels", "must be at least 1"));
        }
        if switch_time.value() < 0.0 || settle_tau.value() < 0.0 {
            return Err(AfeError::invalid("timing", "must be non-negative"));
        }
        if charge_injection.value() < 0.0 {
            return Err(AfeError::invalid(
                "charge_injection",
                "must be non-negative",
            ));
        }
        Ok(Self {
            channels,
            switch_time,
            settle_tau,
            charge_injection,
        })
    }

    /// A typical integrated CMOS mux: 1 µs switch, 10 µs settle,
    /// 1 pC injection.
    ///
    /// # Errors
    ///
    /// Returns [`AfeError::InvalidParameter`] only for `channels == 0`.
    pub fn typical_cmos(channels: usize) -> Result<Self, AfeError> {
        Self::new(
            channels,
            Seconds::from_micros(1.0),
            Seconds::from_micros(10.0),
            Coulombs::new(1e-12),
        )
    }

    /// Number of channels.
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// Time to open one switch and close another.
    pub fn switch_time(&self) -> Seconds {
        self.switch_time
    }

    /// Dead time before a channel's signal is trustworthy after switching:
    /// switch time + 5 settling constants.
    pub fn acquisition_delay(&self) -> Seconds {
        Seconds::new(self.switch_time.value() + 5.0 * self.settle_tau.value())
    }

    /// Round-robin schedule: which channel is selected at time `t` when
    /// each channel is observed for `dwell` (plus switch time).
    ///
    /// # Panics
    ///
    /// Panics if `dwell` is not strictly positive.
    pub fn channel_at(&self, t: Seconds, dwell: Seconds) -> usize {
        assert!(dwell.value() > 0.0, "dwell must be positive");
        let slot = dwell.value() + self.switch_time.value();
        let idx = (t.value().max(0.0) / slot) as usize;
        idx % self.channels
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mux() -> AnalogMux {
        AnalogMux::typical_cmos(5).expect("valid")
    }

    #[test]
    fn construction_validates() {
        assert!(AnalogMux::typical_cmos(0).is_err());
        assert!(AnalogMux::new(1, Seconds::new(-1.0), Seconds::ZERO, Coulombs::ZERO).is_err());
    }

    #[test]
    fn round_robin_covers_all_channels() {
        let m = mux();
        let dwell = Seconds::new(60.0);
        let mut seen = std::collections::BTreeSet::new();
        for k in 0..5 {
            let t = Seconds::new(k as f64 * (60.0 + 1e-6) + 1.0);
            seen.insert(m.channel_at(t, dwell));
        }
        assert_eq!(seen.len(), 5);
        // Wraps around.
        assert_eq!(
            m.channel_at(Seconds::new(5.0 * (60.0 + 1e-6) + 1.0), dwell),
            0
        );
    }

    #[test]
    fn acquisition_delay_is_microseconds() {
        // Mux overhead is negligible against 30 s measurements — the reason
        // sharing one readout across 5 WEs costs almost nothing in time.
        assert!(mux().acquisition_delay().value() < 1e-4);
    }
}
