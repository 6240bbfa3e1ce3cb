//! Server-level chaos injection, composable with the AFE fault model.
//!
//! The PR 1 fault injector corrupts *signals*; a serving fleet also fails
//! at the *session* level: devices stall mid-protocol, uplinks abort
//! sessions half-way, and bursty clients storm the admission queue. A
//! [`ChaosPlan`] schedules the first two per device and composes an
//! optional AFE [`FaultPlan`] overlay on top, all derived from one seed
//! through the same counter-hash discipline as the AFE injector — so a
//! chaos run replays bit-identically. Queue-full storms are admission
//! behavior, not device behavior: the submitting harness drives them by
//! bursting [`submit`](crate::DiagnosticsServer::submit) calls and
//! asserting typed [`Overloaded`](crate::ServerError::Overloaded)
//! rejections.

use bios_afe::FaultPlan;

/// The server-level failure modes the chaos harness injects or drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum ServerFaultKind {
    /// The device goes quiet for a stretch of ticks after admission; its
    /// session burns deadline budget without making progress.
    DeviceStall,
    /// The session is torn down after a hash-derived number of steps and
    /// served as a flagged partial result.
    MidSessionAbort,
    /// A submission burst past the queue bound (driven by the harness;
    /// surfaces as typed `Overloaded` rejections).
    QueueStorm,
}

impl ServerFaultKind {
    /// A short stable name for chaos-matrix reports.
    pub fn name(self) -> &'static str {
        match self {
            ServerFaultKind::DeviceStall => "device-stall",
            ServerFaultKind::MidSessionAbort => "mid-session-abort",
            ServerFaultKind::QueueStorm => "queue-storm",
        }
    }
}

impl core::fmt::Display for ServerFaultKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// A seeded schedule of server-level faults across a device fleet.
///
/// Rates are probabilities in `[0, 1]` evaluated per device through a
/// counter hash of `(seed, device)` — the same `(plan, device)` always
/// stalls, aborts and faults identically, independent of scheduling.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ChaosPlan {
    seed: u64,
    stall_rate: f64,
    stall_ticks: u64,
    abort_rate: f64,
    afe_rate: f64,
}

impl ChaosPlan {
    /// An empty plan (no faults) deriving all randomness from `seed`.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            stall_rate: 0.0,
            stall_ticks: 0,
            abort_rate: 0.0,
            afe_rate: 0.0,
        }
    }

    /// Stalls each device with probability `rate` for `ticks` ticks after
    /// admission. Rates clamp to `[0, 1]`.
    #[must_use]
    pub fn with_stalls(mut self, rate: f64, ticks: u64) -> Self {
        self.stall_rate = clamp_rate(rate);
        self.stall_ticks = ticks;
        self
    }

    /// Aborts each device's session mid-flight with probability `rate`.
    #[must_use]
    pub fn with_aborts(mut self, rate: f64) -> Self {
        self.abort_rate = clamp_rate(rate);
        self
    }

    /// Lays a randomized AFE [`FaultPlan`] over each device's session
    /// with probability `rate`, composing with any base plan the session
    /// options already carry (see [`FaultPlan::compose`]).
    #[must_use]
    pub fn with_afe_faults(mut self, rate: f64) -> Self {
        self.afe_rate = clamp_rate(rate);
        self
    }

    /// Ticks this device stalls for after admission, if it is scheduled
    /// to stall at all.
    pub(crate) fn stall_for(&self, device: u64) -> Option<u64> {
        (unit_f64(mix(self.seed, device, 0x57a1)) < self.stall_rate).then_some(self.stall_ticks)
    }

    /// The step count after which this device's session aborts, if it is
    /// scheduled to abort. Early (1–8 steps), so aborts land mid-session.
    pub(crate) fn abort_after_for(&self, device: u64) -> Option<u64> {
        let h = mix(self.seed, device, 0xab07);
        (unit_f64(h) < self.abort_rate).then(|| 1 + (h >> 32) % 8)
    }

    /// The AFE fault overlay for this device's sessions, if one is
    /// scheduled: a randomized per-electrode plan seeded from
    /// `(seed, device)`.
    pub fn fault_plan_for(&self, device: u64, working_electrodes: usize) -> Option<FaultPlan> {
        let h = mix(self.seed, device, 0xafe0);
        (unit_f64(h) < self.afe_rate)
            .then(|| FaultPlan::randomized(mix(self.seed, device, 0xafe1), working_electrodes))
    }

    /// Every server-level fault scheduled on this device (for
    /// chaos-matrix accounting; `QueueStorm` is harness-driven and never
    /// appears here).
    pub fn faults_for(&self, device: u64) -> Vec<ServerFaultKind> {
        let mut kinds = Vec::new();
        if self.stall_for(device).is_some() {
            kinds.push(ServerFaultKind::DeviceStall);
        }
        if self.abort_after_for(device).is_some() {
            kinds.push(ServerFaultKind::MidSessionAbort);
        }
        kinds
    }
}

fn clamp_rate(rate: f64) -> f64 {
    if rate.is_finite() {
        rate.clamp(0.0, 1.0)
    } else {
        0.0
    }
}

/// SplitMix64-style counter hash, mirroring the AFE injector's: chaos
/// randomness is a pure function of `(seed, device, site)`.
fn mix(seed: u64, a: u64, b: u64) -> u64 {
    let mut z = seed
        .wrapping_add(a.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(b.wrapping_mul(0xbf58_476d_1ce4_e5b9));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Uniform `[0, 1)` from a hash word.
fn unit_f64(h: u64) -> f64 {
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_deterministic_per_device() {
        let plan = ChaosPlan::new(9)
            .with_stalls(0.5, 20)
            .with_aborts(0.5)
            .with_afe_faults(0.5);
        for device in 0..64 {
            assert_eq!(plan.stall_for(device), plan.stall_for(device));
            assert_eq!(plan.abort_after_for(device), plan.abort_after_for(device));
            assert_eq!(
                plan.fault_plan_for(device, 5),
                plan.fault_plan_for(device, 5)
            );
        }
    }

    #[test]
    fn rates_hit_roughly_the_requested_fraction() {
        let plan = ChaosPlan::new(4).with_stalls(0.3, 10).with_aborts(0.3);
        let n = 2000u64;
        let stalled = (0..n).filter(|&d| plan.stall_for(d).is_some()).count();
        let aborted = (0..n)
            .filter(|&d| plan.abort_after_for(d).is_some())
            .count();
        let frac_s = stalled as f64 / n as f64;
        let frac_a = aborted as f64 / n as f64;
        assert!((frac_s - 0.3).abs() < 0.05, "stall fraction {frac_s}");
        assert!((frac_a - 0.3).abs() < 0.05, "abort fraction {frac_a}");
    }

    #[test]
    fn zero_rate_schedules_nothing_and_one_everything() {
        let quiet = ChaosPlan::new(1);
        let storm = ChaosPlan::new(1)
            .with_stalls(1.0, 5)
            .with_aborts(1.0)
            .with_afe_faults(1.0);
        for device in 0..32 {
            assert!(quiet.stall_for(device).is_none());
            assert!(quiet.faults_for(device).is_empty());
            assert_eq!(quiet.abort_after_for(device), None);
            assert_eq!(storm.stall_for(device), Some(5));
            let abort = storm.abort_after_for(device).expect("scheduled");
            assert!((1..=8).contains(&abort));
            assert!(storm.fault_plan_for(device, 5).is_some());
            assert_eq!(storm.faults_for(device).len(), 2);
        }
    }

    #[test]
    fn fault_kind_names_are_stable() {
        assert_eq!(ServerFaultKind::DeviceStall.name(), "device-stall");
        assert_eq!(
            ServerFaultKind::MidSessionAbort.to_string(),
            "mid-session-abort"
        );
        assert_eq!(ServerFaultKind::QueueStorm.name(), "queue-storm");
    }
}
