//! Error type for the analog front-end models.

use bios_units::ErrorSeverity;

/// Errors produced while configuring or running AFE blocks.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum AfeError {
    /// A circuit parameter was out of its valid domain.
    InvalidParameter {
        /// Which parameter was rejected.
        name: &'static str,
        /// Why it was rejected.
        reason: String,
    },
    /// The requested signal exceeded a block's compliance or full-scale
    /// range.
    RangeExceeded {
        /// Which block clipped.
        block: &'static str,
        /// Human-readable detail.
        detail: String,
    },
    /// A mux channel index was out of bounds.
    BadChannel {
        /// Requested channel.
        requested: usize,
        /// Number of channels available.
        available: usize,
    },
    /// An acquisition plan was run on a chain or interval it was not
    /// computed for.
    PlanMismatch {
        /// What differs: the voltage generator, the potentiostat or `dt`.
        what: &'static str,
    },
}

impl AfeError {
    pub(crate) fn invalid(name: &'static str, reason: impl Into<String>) -> Self {
        Self::InvalidParameter {
            name,
            reason: reason.into(),
        }
    }

    /// Checks a sample interval once, where a stream or noise source binds
    /// it, so the per-sample paths need no check. Returns it in seconds.
    pub(crate) fn check_dt(dt: bios_units::Seconds) -> Result<f64, Self> {
        let dt = dt.value();
        if dt > 0.0 && dt.is_finite() {
            Ok(dt)
        } else {
            Err(Self::invalid("dt", "must be positive and finite"))
        }
    }

    /// How badly this error compromises the acquisition.
    ///
    /// Configuration defects are [`ErrorSeverity::Fatal`] (retrying the
    /// same parameters cannot help); signal-range violations are
    /// [`ErrorSeverity::Degraded`] because a lower gain or a retry under
    /// different conditions can succeed.
    pub fn severity(&self) -> ErrorSeverity {
        match self {
            Self::InvalidParameter { .. } | Self::BadChannel { .. } | Self::PlanMismatch { .. } => {
                ErrorSeverity::Fatal
            }
            Self::RangeExceeded { .. } => ErrorSeverity::Degraded,
        }
    }

    /// Whether an automatic retry is worthwhile.
    pub fn is_recoverable(&self) -> bool {
        self.severity().is_recoverable()
    }
}

impl core::fmt::Display for AfeError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::InvalidParameter { name, reason } => {
                write!(f, "invalid parameter {name}: {reason}")
            }
            Self::RangeExceeded { block, detail } => {
                write!(f, "{block} range exceeded: {detail}")
            }
            Self::BadChannel {
                requested,
                available,
            } => write!(f, "mux channel {requested} out of range (have {available})"),
            Self::PlanMismatch { what } => {
                write!(f, "acquisition plan was computed for another {what}")
            }
        }
    }
}

impl std::error::Error for AfeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert_eq!(
            AfeError::invalid("bits", "too many").to_string(),
            "invalid parameter bits: too many"
        );
        let b = AfeError::BadChannel {
            requested: 7,
            available: 5,
        };
        assert!(b.to_string().contains('7'));
        assert!(b.to_string().contains('5'));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_traits<T: Send + Sync + std::error::Error>() {}
        assert_traits::<AfeError>();
    }

    #[test]
    fn severity_taxonomy() {
        assert_eq!(
            AfeError::invalid("bits", "too many").severity(),
            ErrorSeverity::Fatal
        );
        assert!(!AfeError::invalid("bits", "too many").is_recoverable());
        let clipped = AfeError::RangeExceeded {
            block: "tia",
            detail: "rail".to_string(),
        };
        assert_eq!(clipped.severity(), ErrorSeverity::Degraded);
        assert!(clipped.is_recoverable());
    }
}
