//! Working-electrode functionalization: nanostructures for sensitivity,
//! polymers for stability, enzyme spotting for selectivity (paper §III).

use bios_electrochem::Nanostructure;
use bios_units::Seconds;

/// A working electrode's functionalization stack.
///
/// The paper (§III): electrodes "can be functionalized by nanostructures, to
/// increase sensitivity; by polymers, to provide long-term stability; and by
/// the enzyme probe to enhance selectivity".
///
/// # Example
///
/// ```
/// use bios_biochem::Functionalization;
/// use bios_electrochem::Nanostructure;
///
/// let stack = Functionalization::new(Nanostructure::CarbonNanotubes, true);
/// // Polymer entrapment keeps 90 % of the enzyme activity for days.
/// assert!(stack.usable_life(0.9).as_hours() > 48.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Functionalization {
    nanostructure: Nanostructure,
    polymer_stabilized: bool,
}

impl Functionalization {
    /// Creates a functionalization stack.
    pub fn new(nanostructure: Nanostructure, polymer_stabilized: bool) -> Self {
        Self {
            nanostructure,
            polymer_stabilized,
        }
    }

    /// The paper's reference stack: CNT nanostructure with polymer
    /// stabilization (what Table III's metabolite rows were measured on).
    pub fn paper_reference() -> Self {
        Self::new(Nanostructure::CarbonNanotubes, true)
    }

    /// A bare, unstabilized electrode (the ablation baseline).
    pub fn bare() -> Self {
        Self::new(Nanostructure::None, false)
    }

    /// The nanostructure coating.
    pub fn nanostructure(&self) -> Nanostructure {
        self.nanostructure
    }

    /// Operational lifetime constant: enzyme activity decays as
    /// `exp(−t/τ)`. Polymer entrapment extends τ from days to a month.
    pub(crate) fn lifetime_tau(&self) -> Seconds {
        let days = if self.polymer_stabilized { 30.0 } else { 3.0 };
        Seconds::from_hours(24.0 * days)
    }

    /// Remaining enzyme activity after operating for `t`.
    pub fn activity_after(&self, t: Seconds) -> f64 {
        if t.value() <= 0.0 {
            return 1.0;
        }
        (-t.value() / self.lifetime_tau().value()).exp()
    }

    /// Operating time until activity falls to `fraction` of the initial
    /// value (e.g. 0.9 for the usable-life criterion).
    ///
    /// # Panics
    ///
    /// Panics unless `0 < fraction < 1`.
    pub fn usable_life(&self, fraction: f64) -> Seconds {
        assert!(
            fraction > 0.0 && fraction < 1.0,
            "fraction must be in (0, 1)"
        );
        Seconds::new(self.lifetime_tau().value() * (1.0 / fraction).ln())
    }
}

impl Default for Functionalization {
    fn default() -> Self {
        Self::paper_reference()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn polymer_extends_lifetime_tenfold() {
        let stabilized = Functionalization::new(Nanostructure::CarbonNanotubes, true);
        let fragile = Functionalization::new(Nanostructure::CarbonNanotubes, false);
        let ratio = stabilized.lifetime_tau().value() / fragile.lifetime_tau().value();
        assert!((ratio - 10.0).abs() < 1e-9);
    }

    #[test]
    fn activity_decays_monotonically() {
        let f = Functionalization::paper_reference();
        assert_eq!(f.activity_after(Seconds::ZERO), 1.0);
        let day = Seconds::from_hours(24.0);
        let week = Seconds::from_hours(24.0 * 7.0);
        assert!(f.activity_after(day) > f.activity_after(week));
        assert!(f.activity_after(week) > 0.0);
    }

    #[test]
    fn glucomen_day_100_hours_is_within_usable_life() {
        // The paper cites the GlucoMen®Day's 100-hour wear period; a
        // polymer-stabilized sensor keeps >87% activity over it.
        let f = Functionalization::paper_reference();
        let wear = Seconds::from_hours(100.0);
        assert!(f.activity_after(wear) > 0.85, "{}", f.activity_after(wear));
        assert!(f.usable_life(0.85).value() > wear.value());
    }

    #[test]
    fn usable_life_is_consistent() {
        let f = Functionalization::bare();
        let t = f.usable_life(0.9);
        assert!((f.activity_after(t) - 0.9).abs() < 1e-9);
    }
}
