//! Graceful-degradation policy for full sessions: fault injection,
//! per-measurement QC gating, bounded retries and electrode quarantine.
//!
//! The contract is the one a clinical instrument needs: a session returns
//! *partial results with provenance* — every reading carries its QC class
//! and retry history, rejected acquisitions never contribute to estimates,
//! and the [`DegradationSummary`] states exactly what was lost. Silent
//! corruption (a faulted value presented as trustworthy) is the failure
//! mode this module exists to prevent.

use crate::exec::ExecPolicy;
use bios_afe::FaultPlan;
use bios_biochem::Analyte;
use bios_instrument::{QcClass, QcGate, QcReason};

/// Bounded-retry and quarantine policy applied by
/// [`Platform::run_session_with`](crate::Platform::run_session_with).
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct RetryPolicy {
    /// Retries allowed per working electrode after a failed acquisition
    /// (total attempts = `max_retries + 1`).
    pub max_retries: usize,
    /// Consecutive failed attempts after which the electrode is
    /// quarantined and reported in the degradation summary.
    pub quarantine_after: usize,
    /// Seed stride between attempts: attempt `k` measures with
    /// `we_seed + k * reseed_stride`, so every retry sees fresh noise
    /// while the whole session stays bit-reproducible under one seed.
    pub reseed_stride: u64,
    /// Scheduler ticks a session waits before its first retry; each
    /// further retry doubles the wait (exponential backoff). Zero means
    /// retries are immediately runnable.
    pub backoff_base_ticks: u64,
    /// Upper bound on any single backoff wait, in ticks.
    pub backoff_cap_ticks: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_retries: 2,
            quarantine_after: 3,
            reseed_stride: 0x9e37_79b9,
            backoff_base_ticks: 1,
            backoff_cap_ticks: 64,
        }
    }
}

impl RetryPolicy {
    /// The seed attempt `attempt` (0-based) measures with, derived from
    /// the electrode's base seed. Pure arithmetic: the whole retry
    /// schedule is a function of `(we_seed, policy)` alone, which is what
    /// lets suspended sessions replay bit-identically.
    pub fn attempt_seed(&self, we_seed: u64, attempt: usize) -> u64 {
        we_seed.wrapping_add((attempt as u64).wrapping_mul(self.reseed_stride))
    }

    /// Scheduler ticks to wait before re-sampling after failed attempt
    /// `attempt` (0-based): `base · 2^attempt`, saturating, capped at
    /// [`backoff_cap_ticks`](Self::backoff_cap_ticks). Deterministic and
    /// monotone non-decreasing in `attempt`.
    pub fn backoff_ticks(&self, attempt: usize) -> u64 {
        if self.backoff_base_ticks == 0 {
            return 0;
        }
        // `checked_shl` only rejects shifts >= 64; a shift that spills the
        // base's high bits out (e.g. `2 << 63`) wraps silently and would
        // break monotonicity at large attempts. Compute `base * 2^attempt`
        // with overflow-checked arithmetic instead, saturating to the cap.
        let doubled = u32::try_from(attempt)
            .ok()
            .and_then(|shift| 2u64.checked_pow(shift))
            .and_then(|mult| self.backoff_base_ticks.checked_mul(mult));
        doubled
            .unwrap_or(self.backoff_cap_ticks)
            .min(self.backoff_cap_ticks)
    }

    /// The cumulative backoff schedule for every retry this policy can
    /// spend: element `k` is the total ticks of backoff delay before
    /// attempt `k + 1` becomes runnable. Strictly increasing whenever
    /// `backoff_base_ticks > 0`, so no two retries ever share a wake
    /// slot — retries never collapse into a thundering herd.
    pub fn backoff_schedule(&self) -> Vec<u64> {
        let mut total = 0u64;
        (0..self.max_retries)
            .map(|k| {
                // A strictly positive floor keeps the schedule strictly
                // monotone even once the per-attempt delay hits the cap.
                total = total.saturating_add(self.backoff_ticks(k).max(1));
                total
            })
            .collect()
    }

    /// Total attempts this policy may spend (the retry budget plus the
    /// first try).
    pub fn attempt_budget(&self) -> usize {
        self.max_retries + 1
    }
}

/// Knobs for a robustness-aware session run.
///
/// `Default` reproduces the plain [`run_session`](crate::Platform::run_session)
/// contract: no injected faults, and a QC gate with the response-magnitude
/// check disabled — a sample legitimately lacking an analyte must read as
/// "not identified", not as a hardware failure. Enable the full gate (via
/// [`with_qc`](Self::with_qc) and [`QcGate::default`]) when every scheduled
/// target is known to be present, e.g. in fault-matrix characterization.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionOptions {
    /// Seeded faults to inject into the per-electrode readout chains.
    pub fault_plan: Option<FaultPlan>,
    /// The QC gate screening every acquisition.
    pub qc: QcGate,
    /// Retry and quarantine policy.
    pub retry: RetryPolicy,
    /// How the per-electrode work fans out (the output is bit-identical
    /// for every policy; see [`crate::par_map`]).
    pub exec: ExecPolicy,
}

impl Default for SessionOptions {
    fn default() -> Self {
        Self {
            fault_plan: None,
            qc: QcGate::default().without_min_delta(),
            retry: RetryPolicy::default(),
            exec: ExecPolicy::Auto,
        }
    }
}

impl SessionOptions {
    /// Injects a fault plan into the session's readout chains.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Replaces the QC gate.
    pub fn with_qc(mut self, qc: QcGate) -> Self {
        self.qc = qc;
        self
    }

    /// Replaces the execution policy.
    pub fn with_exec(mut self, exec: ExecPolicy) -> Self {
        self.exec = exec;
        self
    }
}

/// Per-target measurement provenance: how one raw reading earned (or
/// lost) its place in the session report.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct TargetQuality {
    /// The analyte this quality record describes.
    pub analyte: Analyte,
    /// The working electrode that produced the reading.
    pub we: usize,
    /// Final QC class after all retries.
    pub class: QcClass,
    /// Acquisition attempts spent on this electrode (1 = clean first try).
    pub attempts: usize,
    /// Machine-readable reasons from the final attempt's QC verdict.
    pub reasons: Vec<QcReason>,
    /// Whether the electrode was quarantined after this measurement.
    pub quarantined: bool,
}

impl TargetQuality {
    /// Whether the reading behind this record may be used.
    pub fn is_usable(&self) -> bool {
        self.class != QcClass::Fail
    }
}

/// What a session lost to faults: the aggregate side of "partial results
/// with provenance".
#[derive(Debug, Clone, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct DegradationSummary {
    /// Total retry slots appended to the schedule.
    pub retries: usize,
    /// Working electrodes quarantined after consecutive failures.
    pub quarantined: Vec<usize>,
    /// Analytes left without a single usable reading.
    pub failed_targets: Vec<Analyte>,
    /// Deadlines missed while the session was being served: the session
    /// was cut short by its latency budget and holds partial results.
    pub deadline_misses: usize,
    /// Work units shed by an overloaded server before they ran. A shed
    /// session produced nothing — it is degradation by definition.
    pub shed: usize,
}

impl DegradationSummary {
    /// True when the session ran without any retry, quarantine, loss,
    /// deadline miss or load shedding. A degraded-but-served session —
    /// including one cut short by its deadline or shed under overload —
    /// must never report as clean.
    pub fn is_clean(&self) -> bool {
        self.retries == 0
            && self.quarantined.is_empty()
            && self.failed_targets.is_empty()
            && self.deadline_misses == 0
            && self.shed == 0
    }
}

impl core::fmt::Display for DegradationSummary {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        if self.is_clean() {
            return write!(f, "clean");
        }
        write!(
            f,
            "{} retries, {} quarantined WE(s), {} failed target(s)",
            self.retries,
            self.quarantined.len(),
            self.failed_targets.len()
        )?;
        if self.deadline_misses > 0 {
            write!(f, ", {} deadline miss(es)", self.deadline_misses)?;
        }
        if self.shed > 0 {
            write!(f, ", {} shed", self.shed)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_options_mirror_the_plain_session_contract() {
        let opts = SessionOptions::default();
        assert!(opts.fault_plan.is_none());
        assert_eq!(opts.qc.min_delta, bios_units::Amps::ZERO);
        assert_eq!(opts.retry.max_retries, 2);
    }

    #[test]
    fn degradation_summary_reports_cleanliness() {
        let mut d = DegradationSummary::default();
        assert!(d.is_clean());
        assert_eq!(d.to_string(), "clean");
        d.retries = 1;
        d.quarantined.push(2);
        assert!(!d.is_clean());
        assert!(d.to_string().contains("1 retries"));
    }

    #[test]
    fn backoff_schedule_is_monotone_and_capped() {
        let policy = RetryPolicy {
            max_retries: 8,
            backoff_base_ticks: 2,
            backoff_cap_ticks: 16,
            ..RetryPolicy::default()
        };
        let schedule = policy.backoff_schedule();
        assert_eq!(schedule.len(), 8);
        for w in schedule.windows(2) {
            assert!(
                w[0] < w[1],
                "cumulative schedule must be strictly increasing"
            );
        }
        for k in 0..8 {
            assert!(policy.backoff_ticks(k) <= 16);
        }
        assert_eq!(policy.backoff_ticks(0), 2);
        assert_eq!(policy.backoff_ticks(1), 4);
        assert_eq!(
            policy.backoff_ticks(200),
            16,
            "huge attempts saturate at the cap"
        );
        // Zero base means retries are immediately runnable.
        let eager = RetryPolicy {
            backoff_base_ticks: 0,
            ..RetryPolicy::default()
        };
        assert_eq!(eager.backoff_ticks(5), 0);
    }

    #[test]
    fn backoff_never_wraps_at_shift_spill_out() {
        // Regression: `checked_shl` only rejects shifts >= 64, so
        // `2 << 63` used to wrap to 0 — a huge attempt got an *immediate*
        // retry instead of a capped wait, breaking monotonicity exactly
        // where a runaway retry loop needs the brake most.
        let policy = RetryPolicy {
            backoff_base_ticks: 2,
            backoff_cap_ticks: 64,
            ..RetryPolicy::default()
        };
        assert_eq!(policy.backoff_ticks(63), 64, "spill-out saturates at cap");
        assert_eq!(policy.backoff_ticks(64), 64);
        assert_eq!(policy.backoff_ticks(usize::MAX), 64);
        let wide = RetryPolicy {
            backoff_base_ticks: u64::MAX,
            backoff_cap_ticks: u64::MAX,
            ..RetryPolicy::default()
        };
        assert_eq!(wide.backoff_ticks(1), u64::MAX, "mul overflow saturates");
    }

    #[test]
    fn attempt_seeds_follow_the_stride() {
        let policy = RetryPolicy::default();
        let s = policy.attempt_seed(1000, 0);
        assert_eq!(s, 1000);
        assert_eq!(
            policy.attempt_seed(1000, 3),
            1000 + 3 * policy.reseed_stride
        );
    }

    #[test]
    fn deadline_miss_and_shed_are_never_clean() {
        let mut d = DegradationSummary::default();
        assert!(d.is_clean());
        d.deadline_misses = 1;
        assert!(!d.is_clean());
        assert!(d.to_string().contains("deadline miss"));
        let shed = DegradationSummary {
            shed: 2,
            ..DegradationSummary::default()
        };
        assert!(!shed.is_clean());
        assert!(shed.to_string().contains("2 shed"));
    }

    #[test]
    fn quality_usability_follows_class() {
        let q = TargetQuality {
            analyte: Analyte::Glucose,
            we: 0,
            class: QcClass::Suspect,
            attempts: 2,
            reasons: Vec::new(),
            quarantined: false,
        };
        assert!(q.is_usable());
        let f = TargetQuality {
            class: QcClass::Fail,
            ..q
        };
        assert!(!f.is_usable());
    }
}
