//! Model configurations: the bounded universes the checker explores.
//!
//! A configuration pins everything *deterministic* about a run — electrode
//! count, the real [`RetryPolicy`] driving backoff arithmetic, server
//! shape — and enumerates everything *nondeterministic* as finite choice
//! sets: the QC verdict alphabet each acquisition may draw, the chaos
//! stall/abort menus each admitted device may draw, and (at the server
//! level) which shard ticks next. The checker then explores every
//! combination; soundness of the abstraction is pinned separately by the
//! conformance tests, which replay model traces against the real
//! `SessionMachine` and `DiagnosticsServer`.

use crate::error::ModelError;
use bios_platform::RetryPolicy;
use bios_server::ServiceTier;

/// The abstract outcome of one acquisition attempt, after the BIST merge:
/// what `bios_instrument::QcVerdict::decision` sees. `Pass` stands for any accepting
/// class (`Pass`/`Suspect`), `Fail` for a failing measured verdict, and
/// `Err` for a recoverable acquisition error — the three inputs that
/// reach distinct branches of the real `Qc` transition.
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

/// A deliberate single-transition corruption, used by the self-test to
/// prove the checker *would* catch a real bug: each mutation breaks
/// exactly one transition, and a specific invariant must flag it with a
/// replayable counterexample.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum Mutation {
    /// No corruption: the faithful model.
    None,
    /// `Backoff` spends a retry slot without advancing the attempt
    /// counter — the retry budget never exhausts. Violates the
    /// `retry_slots == attempt` budget invariant on the first backoff.
    SkipAttemptIncrement,
    /// `shed_excess` drops a queued unit without recording a `Shed`
    /// outcome — silent work loss. Violates conservation
    /// (admitted = served + shed + in-flight) on the first shed.
    SilentShed,
}

/// Bounded universe for session-level exploration: one session in
/// isolation, every QC/fault outcome enumerated.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SessionModelConfig {
    /// Working electrodes in the session (assignment slots).
    pub electrodes: u8,
    /// The *real* retry policy: backoff delays and budget arithmetic are
    /// computed by `bios_platform::RetryPolicy`, not re-implemented.
    pub retry: RetryPolicy,
    /// Verdicts each acquisition attempt may draw (the nondeterminism).
    pub alphabet: Vec<MVerdict>,
    /// Optional seeded corruption for the checker self-test.
    pub mutation: Mutation,
}

impl SessionModelConfig {
    /// A faithful config over the full verdict alphabet.
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

    /// The default verdict used when a closure/commutation probe needs to
    /// resolve an undrawn acquisition deterministically.
    pub fn default_verdict(&self) -> Result<MVerdict, ModelError> {
        self.alphabet
            .first()
            .copied()
            .ok_or_else(|| ModelError::config("verdict alphabet is empty"))
    }

    /// Checks the static well-formedness the explorer relies on,
    /// including backoff-schedule termination: every per-attempt delay
    /// the policy can produce is bounded by its cap, and the cumulative
    /// schedule is strictly increasing (no retry ever shares a wake
    /// slot, so the schedule cannot stall).
    pub fn validate(&self) -> Result<(), ModelError> {
        if self.electrodes == 0 {
            return Err(ModelError::config("session model needs >= 1 electrode"));
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

/// One pre-loaded request in the server model (the bounded analogue of
/// [`SessionRequest`](bios_server::SessionRequest)).
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct MRequest {
    /// Routes to shard `device % shards`, like the real server.
    pub device: u64,
    /// Real [`ServiceTier`]: the shed scan uses its real `Ord`.
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
/// over a sharded server, every chaos draw, QC verdict and (full mode)
/// shard interleaving enumerated.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ServerModelConfig {
    /// Shard count (devices route by `device % shards`).
    pub shards: u8,
    /// Per-shard admission queue bound.
    pub queue_capacity: usize,
    /// In-flight sessions a shard drives concurrently.
    pub max_active_per_shard: usize,
    /// State-machine steps each in-flight session may take per tick.
    pub steps_per_tick: usize,
    /// Ticks before an in-flight session is cut as a deadline miss.
    pub deadline_ticks: u64,
    /// Queue occupancy above which lowest-tier queued work is shed.
    pub shed_watermark: usize,
    /// Consecutive failed sessions after which a device is quarantined.
    pub quarantine_threshold: u32,
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
    /// A server universe with serving knobs sized for exhaustive
    /// exploration (tight deadline, small step budget) over `requests`.
    pub fn new(shards: u8, requests: Vec<MRequest>, session: SessionModelConfig) -> Self {
        Self {
            shards,
            queue_capacity: 8,
            max_active_per_shard: 2,
            steps_per_tick: 4,
            deadline_ticks: 64,
            shed_watermark: 8,
            quarantine_threshold: 2,
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

    /// Replaces the shed watermark.
    #[must_use]
    pub fn with_shed_watermark(mut self, watermark: usize) -> Self {
        self.shed_watermark = watermark;
        self
    }

    /// Replaces the per-session step budget per tick.
    #[must_use]
    pub fn with_steps_per_tick(mut self, steps: usize) -> Self {
        self.steps_per_tick = steps.max(1);
        self
    }

    /// Replaces the deadline.
    #[must_use]
    pub fn with_deadline_ticks(mut self, ticks: u64) -> Self {
        self.deadline_ticks = ticks;
        self
    }

    /// Replaces the in-flight bound per shard.
    #[must_use]
    pub fn with_max_active(mut self, max_active: usize) -> Self {
        self.max_active_per_shard = max_active.max(1);
        self
    }

    /// Checks static well-formedness, including that the request batch
    /// fits the queues (the model pre-loads every request; a config that
    /// would overflow a queue is a config error, not an exploration).
    pub fn validate(&self) -> Result<(), ModelError> {
        self.session.validate()?;
        if self.shards == 0 {
            return Err(ModelError::config("server model needs >= 1 shard"));
        }
        if self.stall_choices.is_empty() || self.abort_choices.is_empty() {
            return Err(ModelError::config("chaos choice menus must be non-empty"));
        }
        let shards = self.shards as u64;
        for s in 0..shards {
            let load = self
                .requests
                .iter()
                .filter(|r| r.device % shards == s)
                .count();
            if load > self.queue_capacity {
                return Err(ModelError::config(
                    "request batch overflows a shard queue: shrink the batch or raise capacity",
                ));
            }
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

    /// The default chaos draw used when a commutation probe needs to
    /// resolve an undrawn admission deterministically.
    pub fn default_chaos(&self) -> Result<(u64, Option<u64>), ModelError> {
        let stall = self
            .stall_choices
            .first()
            .copied()
            .ok_or_else(|| ModelError::config("stall menu is empty"))?;
        let abort = self
            .abort_choices
            .first()
            .copied()
            .ok_or_else(|| ModelError::config("abort menu is empty"))?;
        Ok((stall, abort))
    }
}
