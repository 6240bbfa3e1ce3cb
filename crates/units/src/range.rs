//! Closed intervals over typed quantities.

use crate::error::RangeError;
use crate::quantity::Quantity;

/// A closed interval `[lo, hi]` over a quantity type.
///
/// Used for potential windows in cyclic voltammetry, linear concentration
/// ranges of calibrated sensors, and acceptance bands in the reproduction
/// harness.
///
/// # Example
///
/// ```
/// use bios_units::{Molar, QRange};
///
/// # fn main() -> Result<(), bios_units::RangeError> {
/// // Paper Table III: glucose linear range 0.5–4 mM.
/// let linear = QRange::new(Molar::from_millimolar(0.5), Molar::from_millimolar(4.0))?;
/// assert!(linear.contains(Molar::from_millimolar(1.2)));
/// assert!(!linear.contains(Molar::from_millimolar(5.0)));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct QRange<Q> {
    lo: Q,
    hi: Q,
}

impl<Q: Quantity> QRange<Q> {
    /// Creates the interval `[lo, hi]`.
    ///
    /// # Errors
    ///
    /// Returns [`RangeError::Inverted`] if `lo > hi` and
    /// [`RangeError::NotFinite`] if either bound is NaN or infinite.
    pub fn new(lo: Q, hi: Q) -> Result<Self, RangeError> {
        if !lo.value().is_finite() || !hi.value().is_finite() {
            return Err(RangeError::NotFinite);
        }
        if lo.value() > hi.value() {
            return Err(RangeError::Inverted);
        }
        Ok(Self { lo, hi })
    }

    /// Creates the interval spanning `a` and `b` in whichever order they
    /// come. Unlike [`QRange::new`] this is *total*: endpoints are swapped
    /// if inverted and non-finite endpoints collapse to zero. It exists so
    /// constant constructors (registry tables, paper constants) have no
    /// panic path; validate measured data with [`QRange::new`] instead.
    pub fn between(a: Q, b: Q) -> Self {
        let av = if a.value().is_finite() {
            a.value()
        } else {
            0.0
        };
        let bv = if b.value().is_finite() {
            b.value()
        } else {
            0.0
        };
        let (lo, hi) = if av <= bv { (av, bv) } else { (bv, av) };
        Self {
            lo: Q::from_value(lo),
            hi: Q::from_value(hi),
        }
    }

    /// The lower bound.
    pub fn lo(&self) -> Q {
        self.lo
    }

    /// The upper bound.
    pub fn hi(&self) -> Q {
        self.hi
    }

    /// The width `hi - lo` as a raw value in the base unit.
    pub fn width(&self) -> f64 {
        self.hi.value() - self.lo.value()
    }

    /// The midpoint of the interval.
    pub fn midpoint(&self) -> Q {
        Q::from_value(0.5 * (self.lo.value() + self.hi.value()))
    }

    /// Returns `true` if `q` lies inside the closed interval.
    pub fn contains(&self, q: Q) -> bool {
        q.value() >= self.lo.value() && q.value() <= self.hi.value()
    }

    /// Returns `true` if `other` lies entirely inside this interval.
    pub fn contains_range(&self, other: &Self) -> bool {
        self.contains(other.lo) && self.contains(other.hi)
    }

    /// Clamps `q` into the interval.
    pub fn clamp(&self, q: Q) -> Q {
        Q::from_value(q.value().clamp(self.lo.value(), self.hi.value()))
    }

    /// The intersection with `other`, or `None` if they do not overlap.
    pub fn intersect(&self, other: &Self) -> Option<Self> {
        let lo = if self.lo.value() > other.lo.value() {
            self.lo
        } else {
            other.lo
        };
        let hi = if self.hi.value() < other.hi.value() {
            self.hi
        } else {
            other.hi
        };
        (lo.value() <= hi.value()).then_some(Self { lo, hi })
    }

    /// `n` evenly spaced points from `lo` to `hi` inclusive.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    pub fn linspace(&self, n: usize) -> Vec<Q> {
        assert!(n >= 2, "linspace needs at least two points");
        let step = self.width() / (n - 1) as f64;
        (0..n)
            .map(|i| {
                if i == n - 1 {
                    self.hi // avoid accumulating rounding error at the top
                } else {
                    Q::from_value(self.lo.value() + step * i as f64)
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Volts;

    fn vr(lo: f64, hi: f64) -> QRange<Volts> {
        QRange::new(Volts::new(lo), Volts::new(hi)).expect("valid range")
    }

    #[test]
    fn construction_validates() {
        assert!(QRange::new(Volts::new(1.0), Volts::new(0.0)).is_err());
        assert!(QRange::new(Volts::new(f64::NAN), Volts::new(0.0)).is_err());
        assert!(QRange::new(Volts::new(0.0), Volts::new(f64::INFINITY)).is_err());
        assert!(QRange::new(Volts::new(0.5), Volts::new(0.5)).is_ok());
    }

    #[test]
    fn contains_and_clamp() {
        let r = vr(-0.8, 0.0);
        assert!(r.contains(Volts::new(-0.625)));
        assert!(!r.contains(Volts::new(0.1)));
        assert_eq!(r.clamp(Volts::new(0.5)), Volts::new(0.0));
        assert_eq!(r.clamp(Volts::new(-1.0)), Volts::new(-0.8));
    }

    #[test]
    fn intersection() {
        let a = vr(0.0, 1.0);
        let b = vr(0.5, 2.0);
        let i = a.intersect(&b).expect("overlap");
        assert_eq!(i.lo(), Volts::new(0.5));
        assert_eq!(i.hi(), Volts::new(1.0));
        let c = vr(3.0, 4.0);
        assert!(a.intersect(&c).is_none());
    }

    #[test]
    fn linspace_endpoints_exact() {
        let r = vr(-0.8, 0.0);
        let pts = r.linspace(9);
        assert_eq!(pts.len(), 9);
        assert_eq!(pts[0], Volts::new(-0.8));
        assert_eq!(pts[8], Volts::new(0.0));
        assert!((pts[4].value() + 0.4).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least two points")]
    fn linspace_rejects_single_point() {
        let _ = vr(0.0, 1.0).linspace(1);
    }

    #[test]
    fn contains_range_nesting() {
        let outer = vr(0.0, 4.0);
        let inner = vr(0.5, 2.0);
        assert!(outer.contains_range(&inner));
        assert!(!inner.contains_range(&outer));
    }
}
