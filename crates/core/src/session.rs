//! The resumable session state machine: [`Platform::run_session_with`]'s
//! per-electrode pipeline made explicit, steppable and serializable.
//!
//! PR 1 hardened one *blocking* session call; serving thousands of
//! concurrently degrading devices needs the same pipeline sliced into
//! explicit, pure transitions so a scheduler can suspend a session after
//! any step, interleave it with thousands of others, and replay it
//! bit-identically. Each working electrode advances through
//!
//! ```text
//! ApplyPotential → Settle → Sample → Qc ─┬─→ Done
//!        ▲                              ├─→ Quarantine → Done
//!        └───────────── Backoff ←───────┘   (retry budget)
//! ```
//!
//! * **ApplyPotential** — program the (possibly faulted) readout chain
//!   and run the built-in self-test against the commissioning record;
//! * **Settle** — recall the stored baseline-noise reference the QC gate
//!   screens against;
//! * **Sample** — one full acquisition with the attempt's derived seed
//!   (`RetryPolicy::attempt_seed`), the only expensive step;
//! * **Qc** — fold the BIST verdict into the acquisition's and decide:
//!   accept, spend a retry ([`StepEvent::BackedOff`] with a deterministic
//!   [`RetryPolicy::backoff_ticks`] delay), or give up;
//! * **Quarantine** — flag a chronically failing electrode;
//! * **Done** — the electrode's [`WeOutcome`] is sealed.
//!
//! Every piece of machine state is plain serializable data — no readout
//! chains, no platform references. A [`SessionCheckpoint`] captures the
//! full progress of a session; [`Platform::resume_session`] rebuilds a
//! machine from the checkpoint plus the original `(sample, seed,
//! options)`, and the resumed run is bit-identical to the uninterrupted
//! one because every transition is a pure function of that tuple and the
//! checkpointed state.

use crate::error::PlatformError;
use crate::platform::{Platform, TargetReading};
use crate::robustness::{SessionOptions, TargetQuality};
use bios_biochem::{Analyte, Interferent};
use bios_instrument::{QcClass, QcDecision, QcReason, QcVerdict};
use bios_units::{Amps, Molar};

/// The kind of transition a [`SessionStep`] performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum StepKind {
    /// Program the chain and run the built-in self-test.
    ApplyPotential,
    /// Recall the baseline-noise reference for QC.
    Settle,
    /// One seeded acquisition (the expensive step).
    Sample,
    /// Screen the acquisition and decide accept / retry / reject.
    Qc,
    /// Spend one retry slot; the next sample waits out the backoff delay.
    Backoff,
    /// Flag the electrode as chronically failing.
    Quarantine,
    /// Terminal: the electrode's outcome is sealed.
    Done,
}

/// One pending transition of a session: which electrode, which attempt,
/// what happens next.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct SessionStep {
    /// Assignment slot (index into [`Platform::assignments`]).
    pub slot: usize,
    /// Working-electrode index of that slot.
    pub we: usize,
    /// 0-based acquisition attempt the step belongs to.
    pub attempt: usize,
    /// The transition kind.
    pub kind: StepKind,
}

/// What a single [`SessionMachine::step`] call did.
#[derive(Debug, Clone, PartialEq)]
pub enum StepEvent {
    /// An intermediate transition ran (nothing schedulable happened).
    Progressed(SessionStep),
    /// A retry slot was spent; the session should not re-sample before
    /// `delay_ticks` scheduler ticks have passed.
    BackedOff {
        /// The step that ran.
        step: SessionStep,
        /// Deterministic backoff delay from [`crate::RetryPolicy`].
        delay_ticks: u64,
    },
    /// An electrode was quarantined.
    Quarantined(SessionStep),
    /// An electrode finished (its outcome is sealed).
    WeDone(SessionStep),
    /// [`SessionMachine::step`] was called on an already-finished
    /// session; the report can be merged.
    SessionDone,
}

/// The result of one acquisition attempt, parked between `Sample` and
/// `Qc` (QC verdicts are step *inputs*, not side effects).
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
enum SampleOutcome {
    /// The acquisition produced data and a raw QC verdict.
    Measured {
        readings: Vec<TargetReading>,
        verdict: QcVerdict,
    },
    /// The acquisition died with a recoverable typed error.
    Errored { detail: String },
}

/// Everything one electrode contributes to a session once its machine
/// reaches `Done`; the merge phase folds these back in assignment order.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub(crate) struct WeOutcome {
    pub(crate) readings: Vec<(TargetReading, QcClass)>,
    pub(crate) qualities: Vec<TargetQuality>,
    pub(crate) retry_slots: usize,
    pub(crate) quarantined: bool,
}

/// One working electrode's state machine. All fields are serializable
/// progress data; the immutable context (platform, sample, seed, options)
/// is passed into every transition instead of being captured.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub(crate) struct WeMachine {
    /// Assignment slot this machine drives.
    slot: usize,
    /// Current phase.
    phase: StepKind,
    /// 0-based attempt the next `Sample` will run.
    attempt: usize,
    /// Retry slots spent so far (schedule extensions).
    retry_slots: usize,
    /// BIST verdict computed by `ApplyPotential`.
    bist: Option<QcVerdict>,
    /// Baseline-noise reference recalled by `Settle` (`None` for CV
    /// electrodes, which have no chrono baseline).
    reference_noise: Option<Amps>,
    /// Acquisition outcome parked between `Sample` and `Qc`.
    pending: Option<SampleOutcome>,
    /// Most recent recoverable acquisition error.
    last_error: Option<String>,
    /// Sealed outcome once `Done`.
    outcome: Option<WeOutcome>,
}

impl WeMachine {
    pub(crate) fn new_for_slot(slot: usize) -> Self {
        Self {
            slot,
            phase: StepKind::ApplyPotential,
            attempt: 0,
            retry_slots: 0,
            bist: None,
            reference_noise: None,
            pending: None,
            last_error: None,
            outcome: None,
        }
    }

    fn is_done(&self) -> bool {
        self.phase == StepKind::Done
    }

    /// The per-electrode protocol invariants; see
    /// [`SessionMachine::check_invariants`].
    // advdiag::cold(invariant audit: runs when a checker inspects a state,
    // never from the stepping path)
    fn check_invariants(&self, retry: &crate::RetryPolicy) -> Result<(), String> {
        let sealed_phase = matches!(self.phase, StepKind::Quarantine | StepKind::Done);
        let outcome_agrees = self.outcome.as_ref().is_none_or(|o| {
            o.retry_slots == self.retry_slots
                && o.qualities.iter().all(|q| q.attempts == self.attempt + 1)
                && !(o.quarantined && o.readings.iter().any(|(_, c)| *c != QcClass::Fail))
        });
        let broken = if self.retry_slots != self.attempt {
            "budget invariant broken: retry_slots != attempt (a retry slot was spent \
             without advancing the attempt budget)"
        } else if self.attempt > retry.max_retries {
            "attempt budget exceeded: attempt > max_retries"
        } else if self.pending.is_some() != (self.phase == StepKind::Qc) {
            "parked sample out of phase: a sample waits exactly in Qc"
        } else if self.outcome.is_some() != sealed_phase {
            "sealed outcome out of phase (a Done machine without an outcome is a silent loss)"
        } else if !outcome_agrees {
            "sealed outcome disagrees with the machine's budget, or a quarantined \
             electrode reports success"
        } else {
            return Ok(());
        };
        Err(format!(
            "{broken}: slot {} in {:?}, retry_slots={}, attempt={}, max_retries={}",
            self.slot, self.phase, self.retry_slots, self.attempt, retry.max_retries
        ))
    }

    fn step_descriptor(&self, platform: &Platform) -> SessionStep {
        SessionStep {
            slot: self.slot,
            we: platform.assignments()[self.slot].index(),
            attempt: self.attempt,
            kind: self.phase,
        }
    }

    /// Executes the machine's current phase. Pure in the replay sense:
    /// the successor state is a function of `(platform, sample, seed,
    /// options)` and the current state only.
    fn advance(
        &mut self,
        platform: &Platform,
        sample: &[(Analyte, Molar)],
        interferents: &[(Interferent, Molar)],
        seed: u64,
        options: &SessionOptions,
    ) -> Result<StepEvent, PlatformError> {
        let assignment = &platform.assignments()[self.slot];
        let descriptor = self.step_descriptor(platform);
        match self.phase {
            StepKind::ApplyPotential => {
                self.bist = Some(platform.bist_verdict(assignment, options));
                self.phase = StepKind::Settle;
                Ok(StepEvent::Progressed(descriptor))
            }
            StepKind::Settle => {
                self.reference_noise = platform.reference_noise_for(assignment);
                self.phase = StepKind::Sample;
                Ok(StepEvent::Progressed(descriptor))
            }
            StepKind::Sample => {
                let we_seed = Platform::we_seed(seed, assignment.index());
                let attempt_seed = options.retry.attempt_seed(we_seed, self.attempt);
                let chain = platform.assignment_chain(assignment, options);
                let outcome = platform.measure_assignment(
                    self.slot,
                    sample,
                    interferents,
                    &chain,
                    options,
                    self.reference_noise,
                    attempt_seed,
                );
                self.absorb_sample(outcome)?;
                Ok(StepEvent::Progressed(descriptor))
            }
            StepKind::Qc => {
                // The QC transition consumes the parked acquisition
                // outcome as its input. Attempts spent = attempt + 1;
                // the budget is exhausted once the retry allowance is
                // gone (mirrors the PR 1 blocking loop bit for bit).
                let exhausted = self.attempt >= options.retry.max_retries;
                let pending = self.pending.take().ok_or_else(|| {
                    PlatformError::invalid("session_step", "Qc step without a parked sample")
                })?;
                match pending {
                    SampleOutcome::Measured {
                        readings,
                        mut verdict,
                    } => {
                        if let Some(bist) = &self.bist {
                            // advdiag::allow(H1, merging the cached commissioning BIST verdict happens once per acquisition result, not per step)
                            verdict.merge(bist.clone());
                        }
                        match verdict.decision(exhausted) {
                            QcDecision::Accept | QcDecision::Reject => {
                                self.finalize(assignment, Some((readings, verdict)), options)
                            }
                            QcDecision::Retry => {
                                self.phase = StepKind::Backoff;
                                Ok(StepEvent::Progressed(descriptor))
                            }
                        }
                    }
                    SampleOutcome::Errored { detail } => {
                        self.last_error = Some(detail);
                        if exhausted {
                            self.finalize(assignment, None, options)
                        } else {
                            self.phase = StepKind::Backoff;
                            Ok(StepEvent::Progressed(descriptor))
                        }
                    }
                }
            }
            StepKind::Backoff => {
                let delay_ticks = options.retry.backoff_ticks(self.attempt);
                self.retry_slots += 1;
                self.attempt += 1;
                self.phase = StepKind::Sample;
                Ok(StepEvent::BackedOff {
                    step: descriptor,
                    delay_ticks,
                })
            }
            StepKind::Quarantine => {
                self.phase = StepKind::Done;
                Ok(StepEvent::Quarantined(descriptor))
            }
            StepKind::Done => Ok(StepEvent::WeDone(descriptor)),
        }
    }

    /// Absorbs an acquisition outcome as this machine's `Sample`
    /// transition — the one state change shared by the inline
    /// [`Self::advance`] path and the batched
    /// [`SessionMachine::complete_sample`] path, so the two drivings
    /// cannot diverge.
    // advdiag::cold(per-result absorption: grades QC and merges one finished
    // acquisition; per-acquisition cadence by contract)
    fn absorb_sample(
        &mut self,
        outcome: Result<(Vec<TargetReading>, QcVerdict), PlatformError>,
    ) -> Result<(), PlatformError> {
        match outcome {
            Ok((readings, verdict)) => {
                self.pending = Some(SampleOutcome::Measured { readings, verdict });
            }
            Err(e) => {
                if !e.severity().is_recoverable() {
                    return Err(e);
                }
                self.pending = Some(SampleOutcome::Errored {
                    detail: e.to_string(),
                });
            }
        }
        self.phase = StepKind::Qc;
        Ok(())
    }

    /// Seals the electrode's outcome from the final attempt's readings
    /// (or placeholders when every attempt errored out).
    // advdiag::cold(terminal per-electrode outcome construction: runs once per
    // electrode, when its acquisition budget resolves)
    fn finalize(
        &mut self,
        assignment: &crate::platform::WeAssignment,
        outcome: Option<(Vec<TargetReading>, QcVerdict)>,
        options: &SessionOptions,
    ) -> Result<StepEvent, PlatformError> {
        let we = assignment.index();
        let attempts = self.attempt + 1;
        let (mut readings, verdict) = match outcome {
            Some(o) => o,
            None => {
                // Every attempt errored out: emit flagged placeholder
                // readings so the panel stays complete.
                let placeholders = assignment
                    .targets()
                    .iter()
                    .map(|a| TargetReading {
                        analyte: *a,
                        we,
                        response: Amps::ZERO,
                        estimated: None,
                        identified: false,
                    })
                    .collect();
                let verdict = QcVerdict {
                    class: QcClass::Fail,
                    reasons: vec![QcReason::Aborted {
                        detail: self.last_error.clone().unwrap_or_default(),
                    }],
                };
                (placeholders, verdict)
            }
        };
        let failed = verdict.class == QcClass::Fail;
        let quarantine_now = failed && attempts >= options.retry.quarantine_after;
        if failed {
            // Never let a rejected acquisition masquerade as data.
            for r in &mut readings {
                r.estimated = None;
                r.identified = false;
            }
        }
        let qualities = readings
            .iter()
            .map(|r| TargetQuality {
                analyte: r.analyte,
                we,
                class: verdict.class,
                attempts,
                reasons: verdict.reasons.clone(),
                quarantined: quarantine_now,
            })
            .collect();
        self.outcome = Some(WeOutcome {
            readings: readings.into_iter().map(|r| (r, verdict.class)).collect(),
            qualities,
            retry_slots: self.retry_slots,
            quarantined: quarantine_now,
        });
        let descriptor = SessionStep {
            slot: self.slot,
            we,
            attempt: self.attempt,
            kind: self.phase,
        };
        if quarantine_now {
            self.phase = StepKind::Quarantine;
            Ok(StepEvent::Progressed(descriptor))
        } else {
            self.phase = StepKind::Done;
            Ok(StepEvent::WeDone(descriptor))
        }
    }
}

/// The outcome of one acquisition: readings plus the raw QC verdict, or a
/// typed platform error.
pub type SampleResult = Result<(Vec<TargetReading>, QcVerdict), PlatformError>;

/// A `Sample` transition lifted out of its session so it can execute in a
/// batch — the unit of work [`Platform::run_samples`] fans out over the
/// execution engine, possibly alongside requests from *other* sessions.
///
/// The request is self-contained: it carries clones of everything the
/// acquisition reads (sample, interferents, options) plus the machine
/// state it consumes (attempt seed, settled reference noise), so executing
/// it never borrows the session it came from. Because the acquisition is a
/// pure function of these fields, running it batched, reordered, or on
/// another thread produces the byte-for-byte result of the inline
/// transition.
#[derive(Debug, Clone)]
pub struct SampleRequest {
    pub(crate) slot: usize,
    pub(crate) attempt: usize,
    pub(crate) reference_noise: Option<Amps>,
    pub(crate) attempt_seed: u64,
    pub(crate) sample: Vec<(Analyte, Molar)>,
    pub(crate) interferents: Vec<(Interferent, Molar)>,
    pub(crate) options: SessionOptions,
}

impl SampleRequest {
    /// Assignment slot the acquisition belongs to.
    pub fn slot(&self) -> usize {
        self.slot
    }

    /// 0-based acquisition attempt.
    pub fn attempt(&self) -> usize {
        self.attempt
    }
}

/// Serializable progress snapshot of a whole session: everything needed
/// to resume it given the original `(platform, sample, seed, options)`.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SessionCheckpoint {
    machines: Vec<WeMachine>,
    cursor: usize,
    steps_taken: u64,
}

/// A whole session as an interleavable state machine: one per-electrode
/// machine per assignment, stepped round-robin so a scheduler can
/// multiplex thousands of sessions at step granularity.
///
/// Driving every machine to `Done` and merging yields a [`SessionReport`]
/// bit-identical to [`Platform::run_session_with`] for the same
/// `(sample, seed, options)` — regardless of how the steps were
/// interleaved or how often the session was suspended and resumed.
///
/// [`SessionReport`]: crate::SessionReport
#[derive(Debug, Clone)]
pub struct SessionMachine {
    sample: Vec<(Analyte, Molar)>,
    interferents: Vec<(Interferent, Molar)>,
    seed: u64,
    options: SessionOptions,
    machines: Vec<WeMachine>,
    cursor: usize,
    steps_taken: u64,
}

impl SessionMachine {
    pub(crate) fn new(
        platform: &Platform,
        sample: &[(Analyte, Molar)],
        seed: u64,
        options: &SessionOptions,
    ) -> Self {
        Self {
            sample: sample.to_vec(),
            interferents: Platform::interferents_of(sample),
            seed,
            options: options.clone(),
            machines: (0..platform.assignments().len())
                .map(WeMachine::new_for_slot)
                .collect(),
            cursor: 0,
            steps_taken: 0,
        }
    }

    pub(crate) fn from_checkpoint(
        sample: &[(Analyte, Molar)],
        seed: u64,
        options: &SessionOptions,
        checkpoint: SessionCheckpoint,
    ) -> Self {
        Self {
            sample: sample.to_vec(),
            interferents: Platform::interferents_of(sample),
            seed,
            options: options.clone(),
            machines: checkpoint.machines,
            cursor: checkpoint.cursor,
            steps_taken: checkpoint.steps_taken,
        }
    }

    /// The session seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Steps executed so far (including on a resumed machine).
    pub fn steps_taken(&self) -> u64 {
        self.steps_taken
    }

    /// True once every electrode's machine is `Done`.
    pub fn is_done(&self) -> bool {
        self.machines.iter().all(WeMachine::is_done)
    }

    /// The next transition the round-robin scheduler would execute, or
    /// `None` when the session is done.
    pub fn next_step(&self, platform: &Platform) -> Option<SessionStep> {
        self.next_slot()
            .map(|slot| self.machines[slot].step_descriptor(platform))
    }

    fn next_slot(&self) -> Option<usize> {
        let n = self.machines.len();
        (0..n)
            .map(|k| (self.cursor + k) % n)
            .find(|&slot| !self.machines[slot].is_done())
    }

    /// Executes exactly one step of one electrode (round-robin across
    /// non-done electrodes), returning what happened.
    ///
    /// # Errors
    ///
    /// Returns [`PlatformError`] only for non-recoverable (configuration)
    /// failures — the same contract as
    /// [`Platform::run_session_with`].
    pub fn step(&mut self, platform: &Platform) -> Result<StepEvent, PlatformError> {
        let Some(slot) = self.next_slot() else {
            return Ok(StepEvent::SessionDone);
        };
        let event = self.machines[slot].advance(
            platform,
            &self.sample,
            &self.interferents,
            self.seed,
            &self.options,
        )?;
        self.steps_taken += 1;
        // Interleave: move past the stepped electrode so siblings make
        // progress before it runs again.
        self.cursor = (slot + 1) % self.machines.len();
        Ok(event)
    }

    /// True when the next round-robin transition is the expensive
    /// `Sample` phase — the point where a scheduler should lift the
    /// acquisition out with [`Self::begin_sample`] and batch it.
    pub fn next_is_sample(&self) -> bool {
        self.next_slot()
            .is_some_and(|slot| self.machines[slot].phase == StepKind::Sample)
    }

    /// When the next transition is a `Sample`, lifts it out as a
    /// self-contained [`SampleRequest`] without mutating the session.
    /// Execute it (batched or alone) with [`Platform::run_samples`], then
    /// apply the result with [`Self::complete_sample`].
    pub fn begin_sample(&self, platform: &Platform) -> Option<SampleRequest> {
        let slot = self.next_slot()?;
        if self.machines[slot].phase != StepKind::Sample {
            return None;
        }
        Some(self.sample_request_for(platform, slot))
    }

    // advdiag::cold(per-acquisition request construction: clones the session inputs
    // once per parked acquisition, not per step)
    fn sample_request_for(&self, platform: &Platform, slot: usize) -> SampleRequest {
        let m = &self.machines[slot];
        let assignment = &platform.assignments()[slot];
        let we_seed = Platform::we_seed(self.seed, assignment.index());
        let attempt_seed = self.options.retry.attempt_seed(we_seed, m.attempt);
        SampleRequest {
            slot,
            attempt: m.attempt,
            reference_noise: m.reference_noise,
            attempt_seed,
            sample: self.sample.clone(),
            interferents: self.interferents.clone(),
            options: self.options.clone(),
        }
    }

    /// Applies the result of a lifted acquisition as this session's next
    /// step — the exact state transition [`Self::step`] would have
    /// performed had it run the acquisition inline, so batched and inline
    /// drivings of the same session are bit-identical.
    ///
    /// # Errors
    ///
    /// Returns a configuration [`PlatformError`] if `request` does not
    /// match the session's next transition (wrong slot, phase, or
    /// attempt), or the acquisition's own error when it is
    /// non-recoverable — the same contract as [`Self::step`].
    pub fn complete_sample(
        &mut self,
        platform: &Platform,
        request: &SampleRequest,
        result: SampleResult,
    ) -> Result<StepEvent, PlatformError> {
        let slot = self
            .next_slot()
            .ok_or_else(|| PlatformError::invalid("sample_request", "session is already done"))?;
        if slot != request.slot
            || self.machines[slot].phase != StepKind::Sample
            || self.machines[slot].attempt != request.attempt
        {
            return Err(PlatformError::invalid(
                "sample_request",
                "request does not match the session's next transition",
            ));
        }
        let descriptor = self.machines[slot].step_descriptor(platform);
        self.machines[slot].absorb_sample(result)?;
        self.steps_taken += 1;
        self.cursor = (slot + 1) % self.machines.len();
        Ok(StepEvent::Progressed(descriptor))
    }

    /// Advances the whole session one *wave*: every electrode's machine
    /// runs its cheap transitions until it parks at its next `Sample` (or
    /// finishes), then all parked acquisitions execute as one batched
    /// [`Platform::run_samples`] dispatch under `policy` and the results
    /// are applied in slot order. Driving waves until
    /// [`Self::is_done`] performs one kernel dispatch per acquisition
    /// round instead of one per electrode.
    ///
    /// Backoff delays are treated as elapsed (the blocking-path
    /// convention); schedulers that honor delays should drive
    /// [`Self::step`]/[`Self::complete_sample`] themselves. Every applied
    /// transition counts toward [`Self::steps_taken`], and because each
    /// acquisition is a pure function of its [`SampleRequest`], the final
    /// report is bit-identical to any other driving of the same session.
    ///
    /// Returns the number of transitions executed this wave (at least 1
    /// unless the session was already done).
    ///
    /// # Errors
    ///
    /// Returns the first (lowest-slot) non-recoverable [`PlatformError`]
    /// of the wave — the same contract as [`Platform::run_session_with`].
    pub fn step_wave(
        &mut self,
        platform: &Platform,
        policy: crate::ExecPolicy,
    ) -> Result<u64, PlatformError> {
        let before = self.steps_taken;
        // Cheap transitions: park every live machine at its next Sample.
        for slot in 0..self.machines.len() {
            loop {
                let m = &self.machines[slot];
                if m.is_done() || m.phase == StepKind::Sample {
                    break;
                }
                self.machines[slot].advance(
                    platform,
                    &self.sample,
                    &self.interferents,
                    self.seed,
                    &self.options,
                )?;
                self.steps_taken += 1;
            }
        }
        // One batched dispatch for every parked acquisition.
        let requests: Vec<SampleRequest> = (0..self.machines.len())
            .filter(|&slot| self.machines[slot].phase == StepKind::Sample)
            .map(|slot| self.sample_request_for(platform, slot))
            // advdiag::allow(H1, one request per parked WE, at most the panel's electrode count, built once per acquisition wave rather than per sample)
            .collect();
        if requests.is_empty() {
            self.cursor = 0;
            return Ok(self.steps_taken - before);
        }
        let results = platform.run_samples(&requests, policy);
        // Apply in slot order; surface the lowest-slot fatal error but
        // still absorb the rest so the surviving machines stay coherent.
        let mut first_err = None;
        for (req, res) in requests.iter().zip(results) {
            match self.machines[req.slot].absorb_sample(res) {
                Ok(()) => self.steps_taken += 1,
                Err(e) => {
                    if first_err.is_none() {
                        first_err = Some(e);
                    }
                }
            }
        }
        self.cursor = 0;
        match first_err {
            Some(e) => Err(e),
            None => Ok(self.steps_taken - before),
        }
    }

    /// Checks the protocol invariants every reachable state keeps, on
    /// each electrode's machine: `retry_slots == attempt <= max_retries`,
    /// a parked sample only in `Qc`, and a sealed outcome exactly in
    /// `Quarantine`/`Done` that agrees with the machine's budget (a
    /// quarantined electrode always reports failure).
    ///
    /// # Errors
    ///
    /// A description of the first violated invariant.
    pub fn check_invariants(&self) -> Result<(), String> {
        self.machines
            .iter()
            .try_for_each(|m| m.check_invariants(&self.options.retry))
    }

    /// Serializes the session's progress. Together with the original
    /// `(sample, seed, options)` this is sufficient to resume the
    /// session bit-identically (see [`Platform::resume_session`]).
    pub fn checkpoint(&self) -> SessionCheckpoint {
        SessionCheckpoint {
            machines: self.machines.clone(),
            cursor: self.cursor,
            steps_taken: self.steps_taken,
        }
    }

    /// Merges the finished electrodes into the session report. Requires
    /// [`is_done`](Self::is_done).
    ///
    /// # Errors
    ///
    /// Returns a configuration [`PlatformError`] if any electrode is
    /// still in flight (use [`finish_partial`](Self::finish_partial) to
    /// harvest an interrupted session).
    // advdiag::cold(terminal report construction: runs once per completed session)
    pub fn finish(&self, platform: &Platform) -> Result<crate::SessionReport, PlatformError> {
        if !self.is_done() {
            return Err(PlatformError::invalid(
                "session_machine",
                "session not done: electrodes still in flight (use finish_partial)",
            ));
        }
        let outcomes: Vec<WeOutcome> = self
            .machines
            .iter()
            .map(|m| {
                m.outcome.clone().ok_or_else(|| {
                    PlatformError::invalid("session_machine", "done machine without sealed outcome")
                })
            })
            .collect::<Result<_, _>>()?;
        Ok(platform.merge_outcomes(outcomes))
    }

    /// Merges whatever finished, degrading every in-flight electrode to
    /// flagged placeholder readings (deadline-cut sessions serve partial
    /// results with provenance, never silence). The caller records the
    /// cut in [`DegradationSummary::deadline_misses`].
    ///
    /// [`DegradationSummary::deadline_misses`]: crate::DegradationSummary
    // advdiag::cold(terminal report construction: runs once per abandoned session)
    pub fn finish_partial(&self, platform: &Platform) -> crate::SessionReport {
        let outcomes: Vec<WeOutcome> = self
            .machines
            .iter()
            .map(|m| match &m.outcome {
                Some(outcome) => outcome.clone(),
                None => {
                    let assignment = &platform.assignments()[m.slot];
                    let we = assignment.index();
                    let verdict = QcVerdict {
                        class: QcClass::Fail,
                        reasons: vec![QcReason::Aborted {
                            detail: "session cut before this electrode finished".into(),
                        }],
                    };
                    let readings: Vec<TargetReading> = assignment
                        .targets()
                        .iter()
                        .map(|a| TargetReading {
                            analyte: *a,
                            we,
                            response: Amps::ZERO,
                            estimated: None,
                            identified: false,
                        })
                        .collect();
                    WeOutcome {
                        qualities: readings
                            .iter()
                            .map(|r| TargetQuality {
                                analyte: r.analyte,
                                we,
                                class: QcClass::Fail,
                                attempts: m.attempt + 1,
                                reasons: verdict.reasons.clone(),
                                quarantined: false,
                            })
                            .collect(),
                        readings: readings.into_iter().map(|r| (r, QcClass::Fail)).collect(),
                        retry_slots: m.retry_slots,
                        quarantined: false,
                    }
                }
            })
            .collect();
        platform.merge_outcomes(outcomes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::PlatformBuilder;
    use crate::requirements::PanelSpec;
    use bios_afe::FaultPlan;
    use bios_instrument::QcGate;

    fn fig4() -> Platform {
        PlatformBuilder::new(PanelSpec::paper_fig4())
            .build()
            .expect("build")
    }

    fn fig4_sample() -> Vec<(Analyte, Molar)> {
        vec![
            (Analyte::Glucose, Molar::from_millimolar(3.0)),
            (Analyte::Lactate, Molar::from_millimolar(1.5)),
            (Analyte::Glutamate, Molar::from_millimolar(3.0)),
            (Analyte::Benzphetamine, Molar::from_millimolar(0.8)),
            (Analyte::Aminopyrine, Molar::from_millimolar(4.0)),
            (Analyte::Cholesterol, Molar::from_micromolar(50.0)),
        ]
    }

    #[test]
    fn stepped_session_matches_the_blocking_call() {
        let p = fig4();
        let sample = fig4_sample();
        let options = SessionOptions::default()
            .with_fault_plan(FaultPlan::randomized(901, 5))
            .with_qc(QcGate::default());
        let blocking = p
            .run_session_with(&sample, 42, &options)
            .expect("blocking run");
        let mut machine = p.session_machine(&sample, 42, &options);
        let mut steps = 0u64;
        while !machine.is_done() {
            machine.step(&p).expect("step");
            steps += 1;
            assert!(steps < 10_000, "machine must terminate");
        }
        assert_eq!(machine.steps_taken(), steps);
        let report = machine.finish(&p).expect("done");
        assert_eq!(report, blocking, "interleaved = blocking, bit for bit");
    }

    #[test]
    fn checkpoint_resume_is_bit_identical() {
        let p = fig4();
        let sample = fig4_sample();
        let options = SessionOptions::default()
            .with_fault_plan(FaultPlan::randomized(77, 6))
            .with_qc(QcGate::default());
        let blocking = p
            .run_session_with(&sample, 7, &options)
            .expect("blocking run");

        // Suspend after every prefix length; the resumed run must always
        // converge to the same report.
        for cut in [1u64, 3, 9, 17] {
            let mut machine = p.session_machine(&sample, 7, &options);
            for _ in 0..cut {
                if machine.is_done() {
                    break;
                }
                machine.step(&p).expect("step");
            }
            let snapshot = machine.checkpoint();
            let json = serde_json::to_string(&snapshot).expect("serialize");
            let restored: SessionCheckpoint = serde_json::from_str(&json).expect("deserialize");
            // Acquisition plans are derived state, not part of the
            // checkpoint: resuming on a platform that has not planned yet
            // gives the same report as on the one that took the snapshot.
            for platform in [&p, &fig4()] {
                let mut resumed = platform.resume_session(&sample, 7, &options, restored.clone());
                while !resumed.is_done() {
                    resumed.step(platform).expect("step");
                }
                let report = resumed.finish(platform).expect("done");
                assert_eq!(report, blocking, "cut at {cut} steps");
            }
        }
    }

    #[test]
    fn backoff_events_surface_the_retry_schedule() {
        use bios_afe::{Fault, FaultKind};
        let p = fig4();
        let plan = FaultPlan::new(77).with_fault(
            0,
            Fault::immediate(FaultKind::ElectrodeOpen, 1.0).expect("valid"),
        );
        let options = SessionOptions::default()
            .with_fault_plan(plan)
            .with_qc(QcGate::default());
        let mut machine = p.session_machine(&fig4_sample(), 42, &options);
        let mut backoffs = Vec::new();
        let mut quarantines = 0usize;
        while !machine.is_done() {
            match machine.step(&p).expect("step") {
                StepEvent::BackedOff { step, delay_ticks } => {
                    backoffs.push((step.attempt, delay_ticks));
                }
                StepEvent::Quarantined(_) => quarantines += 1,
                _ => {}
            }
        }
        // Default policy: 2 retries, exponential delays 1, 2.
        assert_eq!(backoffs, vec![(0, 1), (1, 2)]);
        assert_eq!(quarantines, 1, "dead electrode quarantined exactly once");
    }

    #[test]
    fn finish_partial_degrades_inflight_electrodes() {
        let p = fig4();
        let sample = fig4_sample();
        let options = SessionOptions::default();
        let mut machine = p.session_machine(&sample, 42, &options);
        // Let only a couple of steps run, then cut the session.
        machine.step(&p).expect("step");
        machine.step(&p).expect("step");
        assert!(machine.finish(&p).is_err(), "finish requires completion");
        let report = machine.finish_partial(&p);
        assert_eq!(report.readings().len(), 6, "panel stays complete");
        assert!(
            report
                .qualities()
                .iter()
                .any(|q| q.class == QcClass::Fail && !q.is_usable()),
            "cut electrodes carry failed provenance"
        );
    }

    /// Drives a one-electrode (glucose) session to completion, answering
    /// its `k`-th acquisition with `result(k)` instead of running physics;
    /// returns the backoffs seen and the report.
    fn drive_glucose(
        retry: crate::RetryPolicy,
        result: impl Fn(usize) -> SampleResult,
    ) -> (usize, crate::SessionReport) {
        let mut panel = PanelSpec::new();
        panel.push(crate::TargetSpec::typical(Analyte::Glucose));
        let p = PlatformBuilder::new(panel).build().expect("build");
        let options = SessionOptions {
            retry,
            ..SessionOptions::default()
        };
        let sample = [(Analyte::Glucose, Molar::from_millimolar(3.0))];
        let mut machine = p.session_machine(&sample, 5, &options);
        let (mut acquisitions, mut backoffs) = (0, 0);
        while !machine.is_done() {
            let event = match machine.begin_sample(&p) {
                Some(request) => {
                    acquisitions += 1;
                    machine.complete_sample(&p, &request, result(acquisitions - 1))
                }
                None => machine.step(&p),
            };
            let event = event.expect("recoverable driving never errs");
            backoffs += usize::from(matches!(event, StepEvent::BackedOff { .. }));
            machine.check_invariants().expect("invariants hold");
        }
        (backoffs, machine.finish(&p).expect("done"))
    }

    fn measured(class: QcClass) -> SampleResult {
        let reading = TargetReading {
            analyte: Analyte::Glucose,
            we: 0,
            response: Amps::ZERO,
            estimated: None,
            identified: false,
        };
        let reasons = Vec::new();
        Ok((vec![reading], QcVerdict { class, reasons }))
    }

    #[test]
    fn recoverable_errors_on_every_attempt_end_flagged_and_quarantined() {
        let clip = || -> SampleResult {
            Err(PlatformError::Afe(bios_afe::AfeError::RangeExceeded {
                block: "tia",
                detail: "synthetic clip".into(),
            }))
        };
        for quarantine_after in [1, 3, 4] {
            let retry = crate::RetryPolicy {
                quarantine_after,
                ..crate::RetryPolicy::default()
            };
            let (_, report) = drive_glucose(retry, |_| clip());
            let (quality, reading) = (&report.qualities()[0], &report.readings()[0]);
            assert_eq!((quality.class, quality.attempts), (QcClass::Fail, 3));
            assert!(
                matches!(&quality.reasons[..], [QcReason::Aborted { detail }] if detail.contains("synthetic clip")),
                "{:?}",
                quality.reasons
            );
            assert_eq!(reading.response, Amps::ZERO, "placeholder reading");
            assert!(reading.estimated.is_none() && !reading.identified);
            assert_eq!(quality.quarantined, 3 >= quarantine_after);
        }
    }

    #[test]
    fn non_recoverable_error_is_returned_and_leaves_the_checkpoint_unchanged() {
        let p = fig4();
        let mut machine = p.session_machine(&fig4_sample(), 5, &SessionOptions::default());
        let request = loop {
            match machine.begin_sample(&p) {
                Some(request) => break request,
                None => machine.step(&p).expect("step"),
            };
        };
        let before = machine.checkpoint();
        let fatal = PlatformError::invalid("synthetic", "not recoverable");
        let err = machine.complete_sample(&p, &request, Err(fatal.clone()));
        assert_eq!(err, Err(fatal));
        assert_eq!(machine.checkpoint(), before, "no transition was taken");
    }

    #[test]
    fn fail_then_pass_spends_exactly_one_retry_slot() {
        let (backoffs, report) = drive_glucose(crate::RetryPolicy::default(), |k| {
            measured(if k == 0 { QcClass::Fail } else { QcClass::Pass })
        });
        let quality = &report.qualities()[0];
        assert_eq!((backoffs, report.degradation().retries), (1, 1));
        assert_eq!((quality.class, quality.attempts), (QcClass::Pass, 2));
        assert!(!quality.quarantined);
    }

    #[test]
    fn next_step_previews_the_round_robin_order() {
        let p = fig4();
        let options = SessionOptions::default();
        let machine = p.session_machine(&fig4_sample(), 1, &options);
        let first = machine.next_step(&p).expect("not done");
        assert_eq!(first.slot, 0);
        assert_eq!(first.kind, StepKind::ApplyPotential);
        assert_eq!(first.attempt, 0);
    }
}
