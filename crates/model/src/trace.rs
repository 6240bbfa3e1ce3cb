//! Counterexample trace artifacts: the serialized
//! configuration-plus-schedule a violation is shipped as, and the
//! deterministic replay that turns the artifact back into the exact
//! violating run.
//!
//! An artifact is self-contained: it embeds the full model
//! configuration, so replaying needs nothing but the JSON file — no
//! flags to reconstruct, no environment to match. Replay rebuilds the
//! model from the embedded config, applies the choice trace from the
//! initial state, and re-checks every invariant along the way; the
//! replayed run must terminate at the recorded state hash with the
//! recorded violation, which `repro_model` asserts in its self-test.

use crate::config::{ServerModelConfig, SessionModelConfig};
use crate::error::ModelError;
use crate::explore::{replay, Counterexample, ReplayOutcome};
use crate::server_model::ServerModel;
use crate::session_model::SessionModel;

/// A violation packaged with everything needed to replay it.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum TraceArtifact {
    /// A session-level counterexample.
    Session {
        /// The bounded universe the violation was found in.
        config: SessionModelConfig,
        /// The minimal trace and violation text.
        counterexample: Counterexample,
    },
    /// A server-level counterexample.
    Server {
        /// The bounded universe the violation was found in.
        config: ServerModelConfig,
        /// The minimal trace and violation text.
        counterexample: Counterexample,
    },
}

impl TraceArtifact {
    /// The embedded counterexample.
    pub fn counterexample(&self) -> &Counterexample {
        match self {
            TraceArtifact::Session { counterexample, .. }
            | TraceArtifact::Server { counterexample, .. } => counterexample,
        }
    }

    /// A one-line human summary.
    pub fn describe(&self) -> String {
        let (level, cx) = match self {
            TraceArtifact::Session { counterexample, .. } => ("session", counterexample),
            TraceArtifact::Server { counterexample, .. } => ("server", counterexample),
        };
        format!(
            "{level}-level violation at depth {} ({} choices): {}",
            cx.depth,
            cx.trace.len(),
            cx.violation
        )
    }

    /// Serializes the artifact to pretty JSON.
    ///
    /// # Errors
    ///
    /// [`ModelError::Artifact`] when serialization fails.
    pub fn to_json(&self) -> Result<String, ModelError> {
        serde_json::to_string(self)
            .map_err(|e| ModelError::artifact(format!("artifact failed to serialize: {e}")))
    }

    /// Restores an artifact from JSON.
    ///
    /// # Errors
    ///
    /// [`ModelError::Artifact`] when the JSON is not a valid artifact.
    pub fn from_json(json: &str) -> Result<Self, ModelError> {
        serde_json::from_str(json)
            .map_err(|e| ModelError::artifact(format!("artifact failed to parse: {e}")))
    }

    /// Replays the embedded trace against a model rebuilt from the
    /// embedded config, re-checking invariants at every prefix.
    ///
    /// # Errors
    ///
    /// [`ModelError`] when the embedded config is invalid or the trace
    /// does not fit it (a corrupted or mismatched artifact).
    pub fn replay(&self) -> Result<ReplayOutcome, ModelError> {
        match self {
            TraceArtifact::Session {
                config,
                counterexample,
            } => {
                let model = SessionModel::new(config.clone())?;
                replay(&model, &counterexample.trace)
            }
            TraceArtifact::Server {
                config,
                counterexample,
            } => {
                let platform = config.session.platform()?;
                let model = ServerModel::new(&platform, config.clone())?;
                replay(&model, &counterexample.trace)
            }
        }
    }

    /// Replays and verifies the artifact against its own record: the
    /// replay must land on the recorded state hash and re-observe the
    /// recorded violation.
    ///
    /// # Errors
    ///
    /// [`ModelError::Artifact`] when the replay diverges from the
    /// record — the artifact does not reproduce its own violation.
    pub fn verify(&self) -> Result<ReplayOutcome, ModelError> {
        let cx = self.counterexample();
        let outcome = self.replay()?;
        match &outcome.violation {
            None => Err(ModelError::artifact(
                "replay reached the end of the trace without re-observing the violation",
            )),
            Some(v) if *v != cx.violation => Err(ModelError::artifact(format!(
                "replay observed a different violation: recorded `{}`, replayed `{v}`",
                cx.violation
            ))),
            Some(_) => {
                if outcome.final_hash != cx.state_hash {
                    return Err(ModelError::artifact(format!(
                        "replay landed on state {} instead of the recorded {}",
                        outcome.final_hash, cx.state_hash
                    )));
                }
                Ok(outcome)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Mutation;
    use crate::explore::{explore, ExploreLimits};
    use bios_platform::RetryPolicy;

    #[test]
    fn session_artifact_roundtrips_and_verifies() {
        let cfg = SessionModelConfig::new(1, RetryPolicy::default())
            .with_mutation(Mutation::SkipAttemptIncrement);
        let model = SessionModel::new(cfg.clone()).expect("valid");
        let report = explore(&model, &ExploreLimits::default());
        let cx = report.violation.expect("mutation caught");
        let artifact = TraceArtifact::Session {
            config: cfg,
            counterexample: cx,
        };
        let json = artifact.to_json().expect("serialize");
        let restored = TraceArtifact::from_json(&json).expect("parse");
        assert_eq!(restored, artifact);
        let outcome = restored.verify().expect("replay reproduces the violation");
        assert!(outcome.violation.is_some());
    }

    #[test]
    fn tampered_artifact_is_rejected() {
        let cfg = SessionModelConfig::new(1, RetryPolicy::default())
            .with_mutation(Mutation::SkipAttemptIncrement);
        let model = SessionModel::new(cfg.clone()).expect("valid");
        let report = explore(&model, &ExploreLimits::default());
        let mut cx = report.violation.expect("mutation caught");
        // Cut the last choice: the trace no longer reaches the violation.
        cx.trace.pop();
        let artifact = TraceArtifact::Session {
            config: cfg,
            counterexample: cx,
        };
        assert!(artifact.verify().is_err());
    }
}
