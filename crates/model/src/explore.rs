//! The bounded-exhaustive exploration engine: deterministic BFS over a
//! [`Model`]'s reachable state space with canonical-hash dedup.
//!
//! The engine is deliberately model-agnostic: a model exposes its
//! initial state, enumerates the [`Choice`]s available in a state,
//! applies one choice to produce a successor, and checks invariants.
//! Everything else — frontier management, dedup, counterexample
//! reconstruction, terminal classification — lives here, so the session
//! and server models cannot diverge in how they are searched.
//!
//! Determinism is load-bearing: frontier order is FIFO, visited sets are
//! `BTree`-ordered, and models must enumerate choices in a fixed order.
//! Rerunning an exploration therefore reproduces the exact same state,
//! edge and dedup counts — the reproducibility gate `repro_model`
//! enforces — and BFS order makes every counterexample trace minimal
//! (no shorter trace reaches the violating state).

use crate::canon::{canon_hash, CanonEncode};
use crate::config::MVerdict;
use crate::error::ModelError;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// One resolved unit of nondeterminism: an edge label in the state
/// graph, and the replay currency of counterexample traces.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum Choice {
    /// Execute the single enabled deterministic transition.
    Step,
    /// Resolve one acquisition's QC verdict draw.
    Verdict {
        /// Device whose session drew (0 for the bare session model).
        device: u64,
        /// Electrode slot within the session.
        we: u8,
        /// 0-based attempt the draw is for.
        attempt: u32,
        /// The drawn verdict.
        verdict: MVerdict,
    },
    /// Resolve one device's admission-time chaos draw.
    Chaos {
        /// Device being admitted.
        device: u64,
        /// Stall ticks before the session first wakes.
        stall: u64,
        /// Abort the session after this many steps, if set.
        abort: Option<u64>,
    },
    /// Tick one shard within the current round.
    Shard {
        /// The shard index.
        shard: u8,
    },
}

impl core::fmt::Display for Choice {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Choice::Step => write!(f, "step"),
            Choice::Verdict {
                device,
                we,
                attempt,
                verdict,
            } => write!(
                f,
                "verdict(dev={device},we={we},attempt={attempt})={}",
                verdict.label()
            ),
            Choice::Chaos {
                device,
                stall,
                abort,
            } => match abort {
                Some(limit) => write!(f, "chaos(dev={device},stall={stall},abort@{limit})"),
                None => write!(f, "chaos(dev={device},stall={stall})"),
            },
            Choice::Shard { shard } => write!(f, "shard({shard})"),
        }
    }
}

/// A model the engine can explore exhaustively.
pub trait Model {
    /// The state type; canonical encoding drives dedup and classes.
    type State: Clone + CanonEncode;

    /// The unique initial state.
    ///
    /// # Errors
    ///
    /// [`ModelError::Config`] when the configuration cannot seed a state.
    fn initial(&self) -> Result<Self::State, ModelError>;

    /// Appends every choice enabled in `state`, in a fixed order.
    /// Must append nothing for terminal states; appending nothing for a
    /// non-terminal state is reported as a stuck-state violation.
    fn choices(&self, state: &Self::State, out: &mut Vec<Choice>);

    /// Applies one choice, producing the successor state.
    ///
    /// # Errors
    ///
    /// [`ModelError::InvalidChoice`] when the choice is not enabled in
    /// `state` — the replay-integrity contract that keeps traces honest.
    fn apply(&self, state: &Self::State, choice: &Choice) -> Result<Self::State, ModelError>;

    /// True when `state` has no successors by construction.
    fn is_terminal(&self, state: &Self::State) -> bool;

    /// Checks every safety invariant; the message becomes the
    /// counterexample's violation text.
    ///
    /// # Errors
    ///
    /// A human-readable invariant-violation description.
    fn check(&self, state: &Self::State) -> Result<(), String>;

    /// The equivalence class a terminal state must be the unique
    /// representative of. For the server model this is the hash of the
    /// oracle (the resolved nondeterminism): all interleavings under one
    /// oracle must reach one final state — the single-digest theorem.
    /// A second distinct terminal in a class is reported as a violation.
    fn terminal_class(&self, state: &Self::State) -> Option<u128> {
        let _ = state;
        None
    }
}

/// Exploration bounds. Hitting one sets `truncated` on the report
/// instead of failing, so a too-small bound is visible, never silent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExploreLimits {
    /// Maximum distinct canonical states to expand.
    pub max_states: usize,
    /// Maximum BFS depth (trace length) to expand.
    pub max_depth: usize,
}

impl Default for ExploreLimits {
    fn default() -> Self {
        Self {
            max_states: 5_000_000,
            max_depth: 100_000,
        }
    }
}

/// Counters describing one exploration. Equality of two runs' stats is
/// the reproducibility gate.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct ExploreStats {
    /// Distinct canonical states visited.
    pub states: u64,
    /// Transitions applied (graph edges, including duplicates' edges).
    pub edges: u64,
    /// Successors that hashed to an already-visited state.
    pub dedup_hits: u64,
    /// Terminal states among the visited.
    pub terminal_states: u64,
    /// Distinct terminal classes observed (oracle assignments at the
    /// server level).
    pub terminal_classes: u64,
    /// Deepest BFS layer expanded.
    pub max_depth_seen: u64,
    /// Largest frontier size observed.
    pub frontier_peak: u64,
}

/// A minimal (BFS-shortest) witness that an invariant is violated.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Counterexample {
    /// The invariant-violation text from [`Model::check`].
    pub violation: String,
    /// Canonical hash (hex) of the violating state.
    pub state_hash: String,
    /// BFS depth of the violating state.
    pub depth: u64,
    /// The choice sequence that reaches it from the initial state.
    pub trace: Vec<Choice>,
}

/// What one exploration produced.
#[derive(Debug, Clone)]
pub struct ExploreReport {
    /// Search counters (the reproducibility surface).
    pub stats: ExploreStats,
    /// The first violation found, as a minimal replayable trace.
    pub violation: Option<Counterexample>,
    /// True when a limit stopped the search before the space was
    /// exhausted — the run proves nothing past the bound.
    pub truncated: bool,
}

/// Reconstructs the minimal trace to `hash` from the BFS parent map.
fn trace_to(parents: &BTreeMap<u128, (u128, Choice)>, initial: u128, hash: u128) -> Vec<Choice> {
    let mut trace = Vec::new();
    let mut cursor = hash;
    while cursor != initial {
        let Some((parent, choice)) = parents.get(&cursor) else {
            break;
        };
        trace.push(choice.clone());
        cursor = *parent;
    }
    trace.reverse();
    trace
}

fn hex128(h: u128) -> String {
    format!("{h:032x}")
}

/// Explores every reachable state of `model` breadth-first, checking
/// invariants at each, and returns the counters plus the first
/// counterexample (if any). Deterministic: two runs over the same model
/// and limits produce identical reports.
pub fn explore<M: Model>(model: &M, limits: &ExploreLimits) -> ExploreReport {
    let mut stats = ExploreStats::default();
    let mut truncated = false;

    let initial = match model.initial() {
        Ok(s) => s,
        Err(e) => {
            return ExploreReport {
                stats,
                violation: Some(Counterexample {
                    violation: format!("model failed to seed an initial state: {e}"),
                    state_hash: hex128(0),
                    depth: 0,
                    trace: Vec::new(),
                }),
                truncated,
            };
        }
    };
    let initial_hash = canon_hash(&initial);

    let mut visited: BTreeSet<u128> = BTreeSet::new();
    let mut parents: BTreeMap<u128, (u128, Choice)> = BTreeMap::new();
    let mut classes: BTreeMap<u128, u128> = BTreeMap::new();
    let mut frontier: VecDeque<(M::State, u128, u64)> = VecDeque::new();
    let mut choices: Vec<Choice> = Vec::new();

    visited.insert(initial_hash);
    stats.states = 1;
    frontier.push_back((initial, initial_hash, 0));

    let fail = |stats: ExploreStats,
                truncated: bool,
                parents: &BTreeMap<u128, (u128, Choice)>,
                hash: u128,
                depth: u64,
                violation: String,
                extra: Option<Choice>| {
        let mut trace = trace_to(parents, initial_hash, hash);
        if let Some(c) = extra {
            trace.push(c);
        }
        ExploreReport {
            stats,
            violation: Some(Counterexample {
                violation,
                state_hash: hex128(hash),
                depth,
                trace,
            }),
            truncated,
        }
    };

    while let Some((state, hash, depth)) = frontier.pop_front() {
        stats.max_depth_seen = stats.max_depth_seen.max(depth);

        if let Err(msg) = model.check(&state) {
            return fail(stats, truncated, &parents, hash, depth, msg, None);
        }

        if model.is_terminal(&state) {
            stats.terminal_states += 1;
            if let Some(class) = model.terminal_class(&state) {
                match classes.get(&class) {
                    None => {
                        classes.insert(class, hash);
                        stats.terminal_classes = classes.len() as u64;
                    }
                    Some(&prior) if prior != hash => {
                        return fail(
                            stats,
                            truncated,
                            &parents,
                            hash,
                            depth,
                            format!(
                                "single-digest theorem broken: two interleavings of the same \
                                 resolved nondeterminism reached distinct terminal states \
                                 ({} vs {})",
                                hex128(prior),
                                hex128(hash)
                            ),
                            None,
                        );
                    }
                    Some(_) => {}
                }
            }
            continue;
        }

        choices.clear();
        model.choices(&state, &mut choices);
        if choices.is_empty() {
            return fail(
                stats,
                truncated,
                &parents,
                hash,
                depth,
                "stuck state: non-terminal but no enabled choices".to_string(),
                None,
            );
        }

        for choice in &choices {
            let next = match model.apply(&state, choice) {
                Ok(s) => s,
                Err(e) => {
                    return fail(
                        stats,
                        truncated,
                        &parents,
                        hash,
                        depth + 1,
                        format!("model rejected its own enabled choice `{choice}`: {e}"),
                        Some(choice.clone()),
                    );
                }
            };
            stats.edges += 1;
            let next_hash = canon_hash(&next);
            if visited.contains(&next_hash) {
                stats.dedup_hits += 1;
                continue;
            }
            if visited.len() >= limits.max_states || depth + 1 > limits.max_depth as u64 {
                truncated = true;
                continue;
            }
            visited.insert(next_hash);
            stats.states = visited.len() as u64;
            parents.insert(next_hash, (hash, choice.clone()));
            frontier.push_back((next, next_hash, depth + 1));
            stats.frontier_peak = stats.frontier_peak.max(frontier.len() as u64);
        }
    }

    ExploreReport {
        stats,
        violation: None,
        truncated,
    }
}

/// What replaying a trace observed.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ReplayOutcome {
    /// Choices applied before stopping.
    pub steps_applied: usize,
    /// The first invariant violation hit along the trace, if any.
    pub violation: Option<String>,
    /// Canonical hash (hex) of the last state reached.
    pub final_hash: String,
    /// Whether the last state is terminal.
    pub terminal: bool,
}

/// Replays a choice trace against a model deterministically, checking
/// invariants at every prefix. Stops at the first violation (that is
/// the state the counterexample witnessed).
///
/// # Errors
///
/// [`ModelError::InvalidChoice`] when the trace does not fit the model —
/// the artifact belongs to a different configuration.
pub fn replay<M: Model>(model: &M, trace: &[Choice]) -> Result<ReplayOutcome, ModelError> {
    let mut state = model.initial()?;
    let mut applied = 0usize;
    let mut violation = model.check(&state).err();
    if violation.is_none() {
        for choice in trace {
            state = model.apply(&state, choice)?;
            applied += 1;
            if let Err(msg) = model.check(&state) {
                violation = Some(msg);
                break;
            }
        }
    }
    Ok(ReplayOutcome {
        steps_applied: applied,
        violation,
        final_hash: hex128(canon_hash(&state)),
        terminal: model.is_terminal(&state),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny counter model: states 0..=n, choice Step increments; even
    /// states beyond a threshold violate when `bug` is set.
    struct Counter {
        n: u64,
        bug: bool,
    }

    #[derive(Clone)]
    struct CounterState(u64);

    impl CanonEncode for CounterState {
        fn encode(&self, out: &mut Vec<u8>) {
            self.0.encode(out);
        }
    }

    impl Model for Counter {
        type State = CounterState;
        fn initial(&self) -> Result<CounterState, ModelError> {
            Ok(CounterState(0))
        }
        fn choices(&self, state: &CounterState, out: &mut Vec<Choice>) {
            if state.0 < self.n {
                out.push(Choice::Step);
            }
        }
        fn apply(&self, state: &CounterState, choice: &Choice) -> Result<CounterState, ModelError> {
            match choice {
                Choice::Step => Ok(CounterState(state.0 + 1)),
                _ => Err(ModelError::invalid_choice("counter only steps")),
            }
        }
        fn is_terminal(&self, state: &CounterState) -> bool {
            state.0 >= self.n
        }
        fn check(&self, state: &CounterState) -> Result<(), String> {
            if self.bug && state.0 == 3 {
                Err("counter reached the forbidden value 3".to_string())
            } else {
                Ok(())
            }
        }
    }

    #[test]
    fn clean_chain_explores_every_state_once() {
        let report = explore(&Counter { n: 5, bug: false }, &ExploreLimits::default());
        assert!(report.violation.is_none());
        assert_eq!(report.stats.states, 6);
        assert_eq!(report.stats.edges, 5);
        assert_eq!(report.stats.terminal_states, 1);
        assert!(!report.truncated);
    }

    #[test]
    fn violation_comes_with_a_minimal_replayable_trace() {
        let model = Counter { n: 5, bug: true };
        let report = explore(&model, &ExploreLimits::default());
        let cx = report.violation.expect("bug must be found");
        assert_eq!(cx.trace.len(), 3, "BFS trace is minimal");
        let replayed = replay(&model, &cx.trace).expect("trace fits the model");
        assert_eq!(
            replayed.violation.as_deref(),
            Some("counter reached the forbidden value 3")
        );
        assert_eq!(replayed.final_hash, cx.state_hash);
    }

    #[test]
    fn truncation_is_reported_not_silent() {
        let limits = ExploreLimits {
            max_states: 3,
            ..ExploreLimits::default()
        };
        let report = explore(&Counter { n: 10, bug: false }, &limits);
        assert!(report.truncated);
        assert!(report.violation.is_none());
        assert_eq!(report.stats.states, 3);
    }
}
