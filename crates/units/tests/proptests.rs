//! Property-based tests for quantity algebra, SI formatting and ranges.

use bios_units::{format_si, Amps, Molar, Ohms, Prefix, QRange, Seconds, Volts};
use proptest::prelude::*;

fn finite() -> impl Strategy<Value = f64> {
    prop::num::f64::NORMAL.prop_filter("bounded", |v| v.abs() < 1e12 && v.abs() > 1e-12)
}

proptest! {
    #[test]
    fn addition_commutes(a in finite(), b in finite()) {
        let x = Volts::new(a) + Volts::new(b);
        let y = Volts::new(b) + Volts::new(a);
        prop_assert_eq!(x, y);
    }

    #[test]
    fn subtraction_inverts_addition(a in finite(), b in finite()) {
        let sum = Volts::new(a) + Volts::new(b);
        let back = sum - Volts::new(b);
        // Floating point: relative tolerance.
        let scale = a.abs().max(b.abs()).max(1.0);
        prop_assert!((back.value() - a).abs() <= 1e-9 * scale);
    }

    #[test]
    fn scalar_distributes(a in finite(), b in finite(), k in -1e3f64..1e3) {
        let lhs = (Volts::new(a) + Volts::new(b)) * k;
        let rhs = Volts::new(a) * k + Volts::new(b) * k;
        let scale = (a.abs() + b.abs()) * k.abs() + 1.0;
        prop_assert!((lhs.value() - rhs.value()).abs() <= 1e-9 * scale);
    }

    #[test]
    fn ohms_law_round_trips(i in 1e-12f64..1e-3, r in 1.0f64..1e9) {
        let v = Amps::new(i) * Ohms::new(r);
        let i_back = v / Ohms::new(r);
        prop_assert!((i_back.value() - i).abs() <= 1e-9 * i);
        let r_back = v / Amps::new(i);
        prop_assert!((r_back.value() - r).abs() <= 1e-9 * r);
    }

    #[test]
    fn display_parse_round_trip_volts(v in -1e6f64..1e6) {
        // Display rounds to 4 significant digits, so the round trip must be
        // accurate to ~0.05% of the magnitude.
        let q = Volts::new(v);
        let shown = format!("{q}");
        let parsed: Volts = shown.parse().expect("display output must re-parse");
        let tol = v.abs().max(1e-30) * 5e-4 + 1e-30;
        prop_assert!((parsed.value() - v).abs() <= tol, "{} -> {} -> {}", v, shown, parsed.value());
    }

    #[test]
    fn prefix_pick_keeps_mantissa_in_band(v in finite()) {
        let p = Prefix::pick(v);
        let mantissa = v.abs() / p.factor();
        // Within the table's coverage the mantissa is in [1, 1000).
        if (1e-15..1e12).contains(&v.abs()) {
            prop_assert!((1.0..1000.0).contains(&mantissa), "v={v} p={p:?} m={mantissa}");
        }
    }

    #[test]
    fn format_si_never_panics(v in prop::num::f64::ANY, pick in 0usize..3) {
        let unit = ["V", "A", "mol/L"][pick];
        let _ = format_si(v, unit);
    }

    #[test]
    fn range_linspace_is_sorted_and_bounded(lo in -1e6f64..1e6, w in 1e-6f64..1e6, n in 2usize..200) {
        let r = QRange::new(Volts::new(lo), Volts::new(lo + w)).expect("valid range");
        let pts = r.linspace(n);
        prop_assert_eq!(pts.len(), n);
        for pair in pts.windows(2) {
            prop_assert!(pair[0] <= pair[1]);
        }
        prop_assert_eq!(pts[0], r.lo());
        prop_assert_eq!(pts[n - 1], r.hi());
        for p in &pts {
            prop_assert!(r.contains(*p));
        }
    }

    #[test]
    fn range_intersection_is_contained_in_both(
        a_lo in -1e3f64..1e3, a_w in 0.0f64..1e3,
        b_lo in -1e3f64..1e3, b_w in 0.0f64..1e3,
    ) {
        let a = QRange::new(Molar::new(a_lo), Molar::new(a_lo + a_w)).expect("valid");
        let b = QRange::new(Molar::new(b_lo), Molar::new(b_lo + b_w)).expect("valid");
        if let Some(i) = a.intersect(&b) {
            prop_assert!(a.contains_range(&i));
            prop_assert!(b.contains_range(&i));
        }
    }

    #[test]
    fn charge_is_current_times_time(i in 1e-9f64..1e-3, t in 1e-3f64..1e3) {
        let q = Amps::new(i) * Seconds::new(t);
        prop_assert!((q.value() - i * t).abs() <= 1e-12 * (i * t));
    }
}
