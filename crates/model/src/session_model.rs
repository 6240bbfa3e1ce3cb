//! Session-level model: every reachable state of the shipped
//! [`SessionMachine`] for one session on a small real [`Platform`].
//!
//! The machine runs unmodified; exactly one input is abstracted: each
//! acquisition's outcome is an [`MVerdict`] draw, fed to the machine as
//! a synthetic [`SampleResult`] through the same
//! [`begin_sample`](SessionMachine::begin_sample) /
//! [`complete_sample`](SessionMachine::complete_sample) pair the server
//! uses for coalesced batches. Every other transition is the real
//! [`SessionMachine::step`]. A state's identity is the FNV hash of its
//! serialized [`SessionCheckpoint`].

use crate::canon::{canon_hash, CanonEncode};
use crate::config::{MVerdict, Mutation, SessionModelConfig};
use crate::error::ModelError;
use crate::explore::{Choice, Model};
use bios_afe::AfeError;
use bios_instrument::{QcClass, QcReason, QcVerdict};
use bios_platform::{
    Platform, PlatformError, SampleRequest, SampleResult, SessionCheckpoint, SessionMachine,
    SessionOptions, StepEvent, StepKind, TargetReading,
};
use bios_units::Amps;
use serde::{Deserialize, Serialize, Value};

/// The seed every model session runs under. No acquisition physics
/// runs, so it only keys the session's derived seeds.
pub(crate) const MODEL_SEED: u64 = 0;

/// Appends the canonical bytes of a serializable value: its JSON text
/// (fields in declaration order, floats in shortest round-trip form).
pub(crate) fn encode_json<T: Serialize + ?Sized>(value: &T, out: &mut Vec<u8>) {
    match serde_json::to_string(value) {
        Ok(json) => out.extend_from_slice(json.as_bytes()),
        Err(e) => out.extend_from_slice(e.to_string().as_bytes()),
    }
}

/// The replay-integrity contract: a choice applies only where the model
/// enumerates it, so a trace from another config cannot drive a state.
pub(crate) fn check_enabled<M: Model>(
    model: &M,
    state: &M::State,
    choice: &Choice,
) -> Result<(), ModelError> {
    let mut enabled = Vec::new();
    model.choices(state, &mut enabled);
    if enabled.contains(choice) {
        Ok(())
    } else {
        Err(ModelError::invalid_choice(format!(
            "`{choice}` is not enabled in this state"
        )))
    }
}

impl CanonEncode for SessionMachine {
    fn encode(&self, out: &mut Vec<u8>) {
        encode_json(&self.checkpoint(), out);
    }
}

/// The acquisition outcome a drawn verdict stands for: placeholder
/// readings (zero response, no estimate) for the request's electrode
/// under a passing or failing verdict, or a recoverable AFE error.
// advdiag::cold(model-checker oracle: builds one drawn acquisition result;
// served ticks run the physics instead)
pub(crate) fn synthetic_result(
    platform: &Platform,
    request: &SampleRequest,
    verdict: MVerdict,
) -> SampleResult {
    let (class, reasons) = match verdict {
        MVerdict::Pass => (QcClass::Pass, Vec::new()),
        MVerdict::Fail => (QcClass::Fail, vec![QcReason::LowResponse { delta: 0.0 }]),
        MVerdict::Err => {
            return Err(PlatformError::Afe(AfeError::RangeExceeded {
                block: "tia",
                detail: "drawn acquisition error".to_string(),
            }))
        }
    };
    let assignment = platform.assignments().get(request.slot());
    let readings = (assignment.iter())
        .flat_map(|a| a.targets().iter().map(|t| (*t, a.index())))
        .map(|(analyte, we)| TargetReading {
            analyte,
            we,
            response: Amps::ZERO,
            estimated: None,
            identified: false,
        })
        .collect();
    Ok((readings, QcVerdict { class, reasons }))
}

/// The session-level model: BFS over every reachable state of the real
/// [`SessionMachine`] for the configured bounded universe.
#[derive(Debug, Clone)]
pub struct SessionModel {
    cfg: SessionModelConfig,
    platform: Platform,
    options: SessionOptions,
}

impl SessionModel {
    /// Builds the model and its platform, validating the config.
    pub fn new(cfg: SessionModelConfig) -> Result<Self, ModelError> {
        let platform = cfg.platform()?;
        let options = cfg.options();
        Ok(Self {
            cfg,
            platform,
            options,
        })
    }

    fn resume(&self, checkpoint: SessionCheckpoint) -> SessionMachine {
        let sample = self.cfg.sample();
        (self.platform).resume_session(&sample, MODEL_SEED, &self.options, checkpoint)
    }

    /// The `SkipAttemptIncrement` corruption: writes `attempt` back into
    /// `machines[slot]` of the checkpoint and resumes from it.
    fn rewind_attempt(
        &self,
        machine: &SessionMachine,
        slot: usize,
        attempt: usize,
    ) -> Result<SessionMachine, ModelError> {
        let mut value = machine.checkpoint().to_value();
        let field = (checkpoint_field(&mut value, slot, "attempt"))
            .ok_or_else(|| ModelError::internal("checkpoint has no machines[slot].attempt"))?;
        *field = Value::Num(attempt as f64);
        let checkpoint = SessionCheckpoint::from_value(&value)
            .map_err(|e| ModelError::internal(format!("rewritten checkpoint: {e}")))?;
        Ok(self.resume(checkpoint))
    }

    /// Runs a session to completion, resolving every remaining draw with
    /// the first verdict of the alphabet — the "closure" of a checkpoint.
    fn close(&self, mut machine: SessionMachine) -> Result<SessionMachine, String> {
        // Generous termination guard: a session finishes in
        // O(electrodes * attempts * phases) steps; a corrupted budget
        // (a never-exhausting retry counter) trips this instead of
        // hanging the checker.
        let attempts = self.cfg.retry.attempt_budget() as u64;
        let budget = 64 * (u64::from(self.cfg.electrodes) + 1) * (attempts + 1);
        let mut choices = Vec::new();
        for _ in 0..=budget {
            choices.clear();
            self.choices(&machine, &mut choices);
            let Some(choice) = choices.first() else {
                return Ok(machine);
            };
            machine = self.apply(&machine, choice).map_err(|e| e.to_string())?;
        }
        Err(format!(
            "backoff-schedule termination broken: session still live after {budget} steps"
        ))
    }

    /// The checkpoint-closure invariant, generalized from the real
    /// single-path test: serialize the state's checkpoint, resume it
    /// through [`Platform::resume_session`], close both to completion,
    /// and require identical terminals. Runs on *every* reachable state,
    /// so every reachable checkpoint is proven to re-converge.
    fn check_closure(&self, state: &SessionMachine) -> Result<(), String> {
        let direct = self.close(state.clone())?;
        let json = serde_json::to_string(&state.checkpoint())
            .map_err(|e| format!("checkpoint failed to serialize: {e}"))?;
        let restored: SessionCheckpoint = serde_json::from_str(&json)
            .map_err(|e| format!("checkpoint failed to restore: {e}"))?;
        let resumed = self.close(self.resume(restored))?;
        if canon_hash(&direct) != canon_hash(&resumed) {
            return Err("checkpoint closure broken: resuming from the serialized \
                        checkpoint diverged from the uninterrupted run"
                .to_string());
        }
        Ok(())
    }
}

/// The `name` field of `machines[slot]` in a serialized checkpoint.
fn checkpoint_field<'v>(value: &'v mut Value, slot: usize, name: &str) -> Option<&'v mut Value> {
    let Value::Map(entries) = value else {
        return None;
    };
    let (_, machines) = entries.iter_mut().find(|(k, _)| k == "machines")?;
    let Value::Seq(machines) = machines else {
        return None;
    };
    let Value::Map(fields) = machines.get_mut(slot)? else {
        return None;
    };
    fields.iter_mut().find(|(k, _)| k == name).map(|(_, v)| v)
}

impl Model for SessionModel {
    type State = SessionMachine;

    fn initial(&self) -> Result<SessionMachine, ModelError> {
        let sample = self.cfg.sample();
        Ok((self.platform).session_machine(&sample, MODEL_SEED, &self.options))
    }

    fn choices(&self, state: &SessionMachine, out: &mut Vec<Choice>) {
        match state.next_step(&self.platform) {
            None => {}
            Some(step) if step.kind == StepKind::Sample => {
                out.extend(self.cfg.alphabet.iter().map(|&verdict| Choice::Verdict {
                    device: 0,
                    we: step.slot as u8,
                    attempt: step.attempt as u32,
                    verdict,
                }));
            }
            Some(_) => out.push(Choice::Step),
        }
    }

    fn apply(&self, state: &SessionMachine, choice: &Choice) -> Result<SessionMachine, ModelError> {
        check_enabled(self, state, choice)?;
        let mut next = state.clone();
        let platform = &self.platform;
        let real = |e: PlatformError| ModelError::internal(format!("real transition failed: {e}"));
        if let Choice::Verdict { verdict, .. } = choice {
            let request = (next.begin_sample(platform))
                .ok_or_else(|| ModelError::internal("verdict enabled without a parked sample"))?;
            let result = synthetic_result(platform, &request, *verdict);
            next.complete_sample(platform, &request, result)
                .map_err(real)?;
        } else if let StepEvent::BackedOff { step, .. } = next.step(platform).map_err(real)? {
            if self.cfg.mutation == Mutation::SkipAttemptIncrement {
                next = self.rewind_attempt(&next, step.slot, step.attempt)?;
            }
        }
        Ok(next)
    }

    fn is_terminal(&self, state: &SessionMachine) -> bool {
        state.is_done()
    }

    fn check(&self, state: &SessionMachine) -> Result<(), String> {
        state.check_invariants()?;
        self.check_closure(state)
    }

    fn terminal_label(&self, state: &SessionMachine) -> Option<&'static str> {
        let report = state.finish(&self.platform).ok()?;
        let d = report.degradation();
        Some(if !d.quarantined.is_empty() {
            "quarantined"
        } else if d.retries > 0 || !d.failed_targets.is_empty() {
            "degraded"
        } else {
            "completed"
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::{explore, ExploreLimits};
    use bios_platform::RetryPolicy;

    #[test]
    fn exploration_is_clean_and_deterministic_and_the_mutation_is_caught() {
        let cfg = SessionModelConfig::new(2, RetryPolicy::default());
        let model = SessionModel::new(cfg.clone()).expect("valid");
        let a = explore(&model, &ExploreLimits::default());
        assert!(a.violation.is_none(), "{:?}", a.violation);
        assert!(!a.truncated);
        assert!(a.stats.states > 100, "nontrivial space: {}", a.stats.states);
        assert!(a.stats.dedup_hits > 0, "draw orders that meet must merge");
        assert_eq!(a.stats, explore(&model, &ExploreLimits::default()).stats);

        let mutated = SessionModel::new(cfg.with_mutation(Mutation::SkipAttemptIncrement));
        let out = explore(&mutated.expect("valid"), &ExploreLimits::default());
        let cx = out.violation.expect("mutation must be caught");
        assert!(cx.violation.contains("retry_slots"), "{}", cx.violation);
        assert!(!cx.trace.is_empty());
    }
}
