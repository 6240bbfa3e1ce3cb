//! W0 fixture — nothing here may fire. The one suppression is
//! consumed by a real F1 finding, and prose that merely *describes*
//! the `advdiag::allow(rule, reason)` syntax is not an allow site.

pub fn is_hold(span: f64) -> bool {
    // advdiag::allow(F1, fixture exercises a consumed suppression)
    span == 0.0
}
