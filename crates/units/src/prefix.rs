//! SI prefix handling: pretty-printing and parsing of prefixed quantities.

use crate::error::ParseQuantityError;

/// An SI prefix from femto (10⁻¹⁵) to giga (10⁹).
///
/// # Example
///
/// ```
/// use bios_units::Prefix;
/// assert_eq!(Prefix::Micro.factor(), 1e-6);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize, Default,
)]
pub enum Prefix {
    /// 10⁻¹⁵
    Femto,
    /// 10⁻¹²
    Pico,
    /// 10⁻⁹
    Nano,
    /// 10⁻⁶
    Micro,
    /// 10⁻³
    Milli,
    /// 10⁰ (no prefix)
    #[default]
    None,
    /// 10³
    Kilo,
    /// 10⁶
    Mega,
    /// 10⁹
    Giga,
}

impl Prefix {
    /// All prefixes from smallest to largest factor.
    pub const ALL: [Prefix; 9] = [
        Prefix::Femto,
        Prefix::Pico,
        Prefix::Nano,
        Prefix::Micro,
        Prefix::Milli,
        Prefix::None,
        Prefix::Kilo,
        Prefix::Mega,
        Prefix::Giga,
    ];

    /// The multiplicative factor of the prefix.
    pub fn factor(self) -> f64 {
        match self {
            Prefix::Femto => 1e-15,
            Prefix::Pico => 1e-12,
            Prefix::Nano => 1e-9,
            Prefix::Micro => 1e-6,
            Prefix::Milli => 1e-3,
            Prefix::None => 1.0,
            Prefix::Kilo => 1e3,
            Prefix::Mega => 1e6,
            Prefix::Giga => 1e9,
        }
    }

    /// The prefix symbol (`"µ"` for micro, `""` for none).
    pub(crate) fn symbol(self) -> &'static str {
        match self {
            Prefix::Femto => "f",
            Prefix::Pico => "p",
            Prefix::Nano => "n",
            Prefix::Micro => "µ",
            Prefix::Milli => "m",
            Prefix::None => "",
            Prefix::Kilo => "k",
            Prefix::Mega => "M",
            Prefix::Giga => "G",
        }
    }

    /// Picks the prefix that renders `value` with a mantissa in `[1, 1000)`.
    ///
    /// Zero, infinities and NaN map to [`Prefix::None`].
    pub fn pick(value: f64) -> Prefix {
        // advdiag::allow(F1, exact sentinel: zero has no magnitude so no prefix applies)
        if value == 0.0 || !value.is_finite() {
            return Prefix::None;
        }
        let mag = value.abs();
        for p in Self::ALL {
            let mantissa = mag / p.factor();
            if (1.0..1000.0).contains(&mantissa) {
                return p;
            }
        }
        if mag < Prefix::Femto.factor() {
            Prefix::Femto
        } else {
            Prefix::Giga
        }
    }
}

impl core::fmt::Display for Prefix {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.symbol())
    }
}

/// Formats a raw base-unit value with an automatically chosen SI prefix.
///
/// Mantissas are rounded to at most four significant digits and trailing
/// zeros are trimmed, which keeps table output compact (`"27.7 µA"`,
/// `"-625 mV"`).
///
/// # Example
///
/// ```
/// use bios_units::format_si;
/// assert_eq!(format_si(2.5e-7, "A"), "250 nA");
/// assert_eq!(format_si(0.0, "V"), "0 V");
/// ```
pub fn format_si(value: f64, symbol: &str) -> String {
    if !value.is_finite() {
        return format!("{value} {symbol}");
    }
    let prefix = Prefix::pick(value);
    let mantissa = value / prefix.factor();
    let rendered = format_mantissa(mantissa);
    format!("{rendered} {}{symbol}", prefix.symbol())
}

fn format_mantissa(m: f64) -> String {
    // Up to 4 significant digits, trailing zeros trimmed.
    // advdiag::allow(F1, exact sentinel: log10 of exact zero is undefined)
    let digits = if m == 0.0 {
        0
    } else {
        let int_digits = (m.abs().log10().floor() as i32 + 1).max(1);
        (4 - int_digits).max(0) as usize
    };
    let mut s = format!("{m:.digits$}");
    if s.contains('.') {
        while s.ends_with('0') {
            s.pop();
        }
        if s.ends_with('.') {
            s.pop();
        }
    }
    if s == "-0" {
        s = "0".to_string();
    }
    s
}

/// Parses a quantity string such as `"-625 mV"` or `"1.5MΩ"` into its raw
/// base-unit value, requiring the exact `symbol` suffix.
///
/// Used by the `FromStr` impls of every quantity type.
///
/// # Errors
///
/// Returns [`ParseQuantityError`] if the number is malformed, the unit suffix
/// does not match `symbol`, or the prefix is unknown.
pub(crate) fn parse_quantity(s: &str, symbol: &str) -> Result<f64, ParseQuantityError> {
    let s = s.trim();
    // Split numeric head from the rest.
    let split = s
        .char_indices()
        .find(|(_, c)| !matches!(c, '0'..='9' | '+' | '-' | '.' | 'e' | 'E'))
        .map(|(i, _)| i)
        .unwrap_or(s.len());
    // Guard against consuming the exponent sign of "1e-3" as a unit boundary:
    // `find` above already includes 'e'/'E' in the numeric class, so `split`
    // lands on the first character that can't be part of a float literal.
    let (num_str, rest) = s.split_at(split);
    let value: f64 = num_str
        .trim()
        .parse()
        .map_err(|_| ParseQuantityError::bad_number(s))?;
    let unit = rest.trim();
    if unit == symbol {
        return Ok(value);
    }
    for p in Prefix::ALL {
        if p == Prefix::None {
            continue;
        }
        if let Some(stripped) = unit.strip_prefix(p.symbol()) {
            if stripped == symbol {
                return Ok(value * p.factor());
            }
        }
        // Accept ASCII "u" for micro.
        if p == Prefix::Micro {
            if let Some(stripped) = unit.strip_prefix('u') {
                if stripped == symbol {
                    return Ok(value * p.factor());
                }
            }
        }
    }
    Err(ParseQuantityError::bad_unit(s, symbol))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn picks_expected_prefixes() {
        assert_eq!(Prefix::pick(2.5e-7), Prefix::Nano);
        assert_eq!(Prefix::pick(-0.65), Prefix::Milli);
        assert_eq!(Prefix::pick(1.0), Prefix::None);
        assert_eq!(Prefix::pick(0.0), Prefix::None);
        assert_eq!(Prefix::pick(1.5e4), Prefix::Kilo);
        assert_eq!(Prefix::pick(1e-20), Prefix::Femto);
        assert_eq!(Prefix::pick(1e12), Prefix::Giga);
        assert_eq!(Prefix::pick(f64::NAN), Prefix::None);
    }

    #[test]
    fn mantissa_boundaries() {
        // Exactly 1000 of a unit should roll to the next prefix.
        assert_eq!(format_si(1000.0, "Hz"), "1 kHz");
        assert_eq!(format_si(999.9, "Hz"), "999.9 Hz");
        assert_eq!(format_si(1.0, "Hz"), "1 Hz");
    }

    #[test]
    fn formats_readably() {
        assert_eq!(format_si(2.77e-5, "A"), "27.7 µA");
        assert_eq!(format_si(-0.625, "V"), "-625 mV");
        assert_eq!(format_si(0.0, "V"), "0 V");
        assert_eq!(format_si(1.7e-5, "cm²/s"), "17 µcm²/s");
    }

    #[test]
    fn parses_all_prefix_forms() {
        assert_eq!(parse_quantity("5 V", "V").unwrap(), 5.0);
        assert!((parse_quantity("650mV", "V").unwrap() - 0.65).abs() < 1e-12);
        assert!((parse_quantity("10 uA", "A").unwrap() - 1e-5).abs() < 1e-18);
        assert!((parse_quantity("10 µA", "A").unwrap() - 1e-5).abs() < 1e-18);
        assert!((parse_quantity("2 kΩ", "Ω").unwrap() - 2000.0).abs() < 1e-9);
        assert!((parse_quantity("1e-3 A", "A").unwrap() - 1e-3).abs() < 1e-15);
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse_quantity("abc", "V").is_err());
        assert!(parse_quantity("5 W", "V").is_err());
        assert!(parse_quantity("5", "V").is_err());
        assert!(parse_quantity("5 xV", "V").is_err());
    }

    #[test]
    fn error_messages_name_the_input() {
        let err = parse_quantity("5 W", "V").unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains('V'),
            "message should name the expected unit: {msg}"
        );
    }
}
