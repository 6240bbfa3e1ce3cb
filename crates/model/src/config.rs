//! Model configurations: the bounded universes the checker explores.
//!
//! A configuration pins everything *deterministic* about a run — the
//! electrode count of the small real [`Platform`] the sessions run on,
//! the real [`RetryPolicy`], the real [`ServerConfig`] — and enumerates
//! everything *nondeterministic* as finite choice sets: the QC verdict
//! alphabet each acquisition may draw, the chaos stall/abort menus each
//! admitted device may draw, and (at the server level) which shard ticks
//! next. The checker then explores every combination against the
//! shipped `SessionMachine` and `DiagnosticsServer`.

use crate::error::ModelError;
use bios_biochem::Analyte;
use bios_platform::{
    ExecPolicy, PanelSpec, Platform, PlatformBuilder, RetryPolicy, SessionOptions, TargetSpec,
};
use bios_server::{ServerConfig, ServiceTier};
use bios_units::Molar;

/// The analytes of the model platform's working electrodes, in slot
/// order: one oxidase target per electrode.
const MODEL_ANALYTES: [Analyte; 2] = [Analyte::Glucose, Analyte::Lactate];

/// The abstract outcome of one acquisition attempt: what the real
/// `Qc` transition branches on. `Pass` stands for any accepting class,
/// `Fail` for a failing measured verdict, and `Err` for a recoverable
/// acquisition error. Each is fed to the real machine as a synthetic
/// `SampleResult`.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, serde::Serialize, serde::Deserialize,
)]
pub enum MVerdict {
    /// The acquisition measured and QC accepts.
    Pass,
    /// The acquisition measured and QC fails (retry or reject).
    Fail,
    /// The acquisition died with a recoverable error.
    Err,
}

impl MVerdict {
    /// Short label for trace rendering.
    pub fn label(self) -> &'static str {
        match self {
            MVerdict::Pass => "pass",
            MVerdict::Fail => "fail",
            MVerdict::Err => "err",
        }
    }
}

/// A deliberate corruption of the real state, used by the self-test to
/// prove the checker *would* catch a real bug: each one breaks a single
/// transition's effect, and a specific invariant must flag it with a
/// replayable counterexample. Both live entirely in the model: the
/// production crates carry no hook for them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum Mutation {
    /// No corruption.
    None,
    /// Session model: after a `BackedOff` step the old `attempt` is written back into
    /// the session checkpoint and the machine resumed from it: a retry
    /// slot is spent without advancing the attempt counter. Violates
    /// the `retry_slots == attempt` budget invariant on the first
    /// backoff.
    SkipAttemptIncrement,
    /// Server model: a drained `Shed` record is dropped before it reaches the
    /// client's ledger — silent work loss. Violates conservation
    /// (submitted = drained + queued + in-flight) on the first shed.
    SilentShed,
}

/// Bounded universe for session-level exploration: one session in
/// isolation, every QC/fault outcome enumerated.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SessionModelConfig {
    /// Working electrodes of the model platform (1 or 2).
    pub electrodes: u8,
    /// The retry policy the real sessions run under.
    pub retry: RetryPolicy,
    /// Verdicts each acquisition attempt may draw (the nondeterminism).
    pub alphabet: Vec<MVerdict>,
    /// Optional seeded corruption for the checker self-test.
    pub mutation: Mutation,
}

impl SessionModelConfig {
    /// A config over the full verdict alphabet, without corruption.
    pub fn new(electrodes: u8, retry: RetryPolicy) -> Self {
        Self {
            electrodes,
            retry,
            alphabet: vec![MVerdict::Pass, MVerdict::Fail, MVerdict::Err],
            mutation: Mutation::None,
        }
    }

    /// Replaces the verdict alphabet.
    #[must_use]
    pub fn with_alphabet(mut self, alphabet: Vec<MVerdict>) -> Self {
        self.alphabet = alphabet;
        self
    }

    /// Installs a seeded corruption.
    #[must_use]
    pub fn with_mutation(mut self, mutation: Mutation) -> Self {
        self.mutation = mutation;
        self
    }

    /// The sample every model session measures: each electrode's analyte
    /// at 2 mM.
    pub(crate) fn sample(&self) -> Vec<(Analyte, Molar)> {
        let electrodes = usize::from(self.electrodes).min(MODEL_ANALYTES.len());
        let analytes = MODEL_ANALYTES[..electrodes].iter();
        analytes
            .map(|a| (*a, Molar::from_millimolar(2.0)))
            .collect()
    }

    /// Session options carrying the configured retry policy.
    pub(crate) fn options(&self) -> SessionOptions {
        SessionOptions {
            retry: self.retry,
            ..SessionOptions::default()
        }
    }

    /// Builds the small real platform the sessions run on: one oxidase
    /// target per working electrode.
    ///
    /// # Errors
    ///
    /// [`ModelError::Config`] when the config is invalid or the platform
    /// does not build.
    pub fn platform(&self) -> Result<Platform, ModelError> {
        self.validate()?;
        let mut panel = PanelSpec::new();
        for (analyte, _) in self.sample() {
            panel.push(TargetSpec::typical(analyte));
        }
        PlatformBuilder::new(panel)
            .build()
            .map_err(|e| ModelError::config(format!("model platform does not build: {e}")))
    }

    /// Checks the static well-formedness the explorer relies on,
    /// including backoff-schedule termination: every per-attempt delay
    /// the policy can produce is bounded by its cap, and the cumulative
    /// schedule is strictly increasing (no retry ever shares a wake
    /// slot, so the schedule cannot stall).
    pub fn validate(&self) -> Result<(), ModelError> {
        if !(1..=MODEL_ANALYTES.len()).contains(&usize::from(self.electrodes)) {
            return Err(ModelError::config(
                "session model runs on 1 or 2 working electrodes",
            ));
        }
        if self.alphabet.is_empty() {
            return Err(ModelError::config("verdict alphabet is empty"));
        }
        for attempt in 0..self.retry.attempt_budget() {
            let delay = self.retry.backoff_ticks(attempt);
            if self.retry.backoff_base_ticks > 0 && delay > self.retry.backoff_cap_ticks {
                return Err(ModelError::config(
                    "backoff delay exceeds its cap: the schedule does not saturate",
                ));
            }
        }
        let schedule = self.retry.backoff_schedule();
        for pair in schedule.windows(2) {
            if pair[0] >= pair[1] {
                return Err(ModelError::config(
                    "cumulative backoff schedule is not strictly increasing",
                ));
            }
        }
        Ok(())
    }
}

/// One pre-loaded request in the server model: the scheduling-relevant
/// part of a [`SessionRequest`](bios_server::SessionRequest).
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct MRequest {
    /// Routes to shard `device % shards`.
    pub device: u64,
    /// The request's tier (the shed scan orders by it).
    pub tier: ServiceTier,
}

/// Which shard-interleaving set the server model explores.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum Interleave {
    /// Every order of shard ticks within every round — the ground truth
    /// the single-digest theorem quantifies over.
    Full,
    /// One canonical order per round (lowest unticked shard first),
    /// justified by DPOR-style independence: shards share no mutable
    /// state and their oracle draws are key-disjoint, so their ticks
    /// commute. With `check_commutation` the justification is verified
    /// empirically at every scheduling point instead of assumed.
    Pruned,
}

/// Bounded universe for server-level exploration: a fixed request batch
/// over a real server, every chaos draw, QC verdict and (full mode)
/// shard interleaving enumerated.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ServerModelConfig {
    /// The real server configuration the model runs.
    pub server: ServerConfig,
    /// The request batch submitted before exploration starts.
    pub requests: Vec<MRequest>,
    /// The per-session universe (electrodes, retry policy, verdicts,
    /// mutation — `SilentShed` is read here too).
    pub session: SessionModelConfig,
    /// Admission-time chaos: stall ticks each device may draw.
    pub stall_choices: Vec<u64>,
    /// Admission-time chaos: step limits after which the session aborts.
    pub abort_choices: Vec<Option<u64>>,
    /// Interleaving set to explore.
    pub interleave: Interleave,
    /// In pruned mode, verify at every scheduling point with >= 2
    /// enabled shards that their ticks commute (both orders reach the
    /// same state) instead of trusting the independence argument.
    pub check_commutation: bool,
}

impl ServerModelConfig {
    /// A server universe over `requests` whose serving knobs are sized
    /// for exhaustive exploration (tight deadline, small step budget).
    /// Adjust them through the public [`server`](Self::server) field.
    pub fn new(shards: usize, requests: Vec<MRequest>, session: SessionModelConfig) -> Self {
        Self {
            server: ServerConfig::default()
                .with_shards(shards)
                .with_queue_capacity(8)
                .with_shed_watermark(8)
                .with_max_active(2)
                .with_steps_per_tick(4)
                .with_deadline_ticks(64)
                .with_quarantine_threshold(2)
                .with_exec(ExecPolicy::Sequential),
            requests,
            session,
            stall_choices: vec![0],
            abort_choices: vec![None],
            interleave: Interleave::Pruned,
            check_commutation: true,
        }
    }

    /// Replaces the chaos stall menu.
    #[must_use]
    pub fn with_stall_choices(mut self, stalls: Vec<u64>) -> Self {
        self.stall_choices = stalls;
        self
    }

    /// Replaces the chaos abort menu.
    #[must_use]
    pub fn with_abort_choices(mut self, aborts: Vec<Option<u64>>) -> Self {
        self.abort_choices = aborts;
        self
    }

    /// Replaces the interleaving mode.
    #[must_use]
    pub fn with_interleave(mut self, interleave: Interleave) -> Self {
        self.interleave = interleave;
        self
    }

    /// Checks what the model adds to the real server config: a shard
    /// count its `u8` shard choices can name, the session universe
    /// (verdict alphabet included), the chaos menus, and
    /// a request batch that names each device once (oracle keys are
    /// per-device). Whether the server admits the batch is the server's
    /// call: the model submits it for real when it is built. The
    /// interleave mode is a closed enum.
    pub fn validate(&self) -> Result<(), ModelError> {
        self.session.validate()?;
        if !(1..=usize::from(u8::MAX)).contains(&self.server.shards) {
            return Err(ModelError::config("shard choices address 1 to 255 shards"));
        }
        if self.stall_choices.is_empty() || self.abort_choices.is_empty() {
            return Err(ModelError::config("chaos choice menus must be non-empty"));
        }
        let mut devices: Vec<u64> = self.requests.iter().map(|r| r.device).collect();
        devices.sort_unstable();
        devices.dedup();
        if devices.len() != self.requests.len() {
            return Err(ModelError::config(
                "duplicate devices in the request batch: oracle keys would collide",
            ));
        }
        Ok(())
    }
}
