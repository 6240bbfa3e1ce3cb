//! Error types for quantity parsing and range construction, plus the
//! workspace-wide [`ErrorSeverity`] taxonomy.

/// How badly an error compromises a measurement campaign.
///
/// Every layer's error type (`AfeError`, `InstrumentError`,
/// `PlatformError`) maps its variants onto this shared scale so the
/// platform scheduler can decide uniformly whether to retry a slot,
/// quarantine an electrode, or abort the session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ErrorSeverity {
    /// A transient condition; retrying the same operation (possibly with
    /// a fresh noise seed) is expected to succeed.
    Transient,
    /// The operation produced partial or degraded output; results may be
    /// usable with reduced confidence, and retrying may help.
    Degraded,
    /// A configuration or structural defect; retrying without operator
    /// intervention cannot succeed.
    Fatal,
}

impl ErrorSeverity {
    /// Whether an automatic retry is worthwhile for this severity.
    pub fn is_recoverable(self) -> bool {
        !matches!(self, ErrorSeverity::Fatal)
    }
}

impl core::fmt::Display for ErrorSeverity {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ErrorSeverity::Transient => write!(f, "transient"),
            ErrorSeverity::Degraded => write!(f, "degraded"),
            ErrorSeverity::Fatal => write!(f, "fatal"),
        }
    }
}

/// Error returned when parsing a quantity string fails.
///
/// # Example
///
/// ```
/// use bios_units::Volts;
/// let err = "5 W".parse::<Volts>().unwrap_err();
/// assert!(err.to_string().contains("expected unit"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseQuantityError {
    input: String,
    kind: ParseErrorKind,
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum ParseErrorKind {
    BadNumber,
    BadUnit { expected: String },
}

impl ParseQuantityError {
    pub(crate) fn bad_number(input: &str) -> Self {
        Self {
            input: input.to_string(),
            kind: ParseErrorKind::BadNumber,
        }
    }

    pub(crate) fn bad_unit(input: &str, expected: &str) -> Self {
        Self {
            input: input.to_string(),
            kind: ParseErrorKind::BadUnit {
                expected: expected.to_string(),
            },
        }
    }
}

impl core::fmt::Display for ParseQuantityError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match &self.kind {
            ParseErrorKind::BadNumber => {
                write!(f, "invalid numeric value in quantity {:?}", self.input)
            }
            ParseErrorKind::BadUnit { expected } => write!(
                f,
                "invalid unit suffix in quantity {:?}, expected unit {expected:?} with an optional SI prefix",
                self.input
            ),
        }
    }
}

impl std::error::Error for ParseQuantityError {}

/// Error returned when constructing an invalid [`QRange`](crate::QRange).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RangeError {
    /// The lower bound exceeded the upper bound.
    Inverted,
    /// A bound was NaN or infinite.
    NotFinite,
}

impl core::fmt::Display for RangeError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            RangeError::Inverted => write!(f, "range lower bound exceeds upper bound"),
            RangeError::NotFinite => write!(f, "range bound is not finite"),
        }
    }
}

impl std::error::Error for RangeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_error_display_is_lowercase_and_specific() {
        let e = ParseQuantityError::bad_number("oops");
        assert_eq!(e.input, "oops");
        let msg = e.to_string();
        assert!(msg.starts_with("invalid"));
        assert!(!msg.ends_with('.'));
    }

    #[test]
    fn range_error_display() {
        assert_eq!(
            RangeError::Inverted.to_string(),
            "range lower bound exceeds upper bound"
        );
        assert_eq!(
            RangeError::NotFinite.to_string(),
            "range bound is not finite"
        );
    }

    #[test]
    fn errors_are_send_sync() {
        fn assert_traits<T: Send + Sync + std::error::Error>() {}
        assert_traits::<ParseQuantityError>();
        assert_traits::<RangeError>();
    }
}
