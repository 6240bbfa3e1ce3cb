//! Server-level model: exhaustive interleaving exploration of the
//! shipped [`DiagnosticsServer`].
//!
//! A shard tick is [`DiagnosticsServer::tick_shard`] — the per-shard
//! tick `tick()` fans out — with an *oracle* as its [`TickInputs`]: each
//! admitted device's chaos draw and each acquisition's QC verdict come
//! from the resolved draws kept in the state. A terminal state's identity
//! therefore includes exactly which nondeterminism produced it, which
//! makes the single-digest theorem expressible: all interleavings under
//! one oracle must reach one terminal state.
//!
//! Shard ticks stay atomic through *park-and-rerun*: a tick runs over a
//! clone of the server, and the oracle records the first draw it is asked
//! for that is not resolved yet. The clone is discarded and the state
//! parks on that draw; the explorer branches on its menu, extends the
//! oracle, and reruns the tick — which, being deterministic, repeats
//! itself exactly up to the park point. No half-ticked shard is ever a
//! state, so interleaving granularity is whole shard ticks.
//!
//! Conservation is checked from the client's side: every drained
//! [`CompletedSession`] moves into a ledger that, with the server's
//! `queued()` and `in_flight()`, must account for every submitted request.

use crate::canon::{canon_hash, fnv128, CanonEncode};
use crate::config::{Interleave, MVerdict, Mutation, ServerModelConfig};
use crate::error::ModelError;
use crate::explore::{Choice, Model};
use crate::session_model::{check_enabled, encode_json, synthetic_result, MODEL_SEED};
use bios_platform::{Platform, SampleRequest, SampleResult};
use bios_server::{
    CompletedSession, DiagnosticsServer, NullClock, SessionOutcome, SessionRequest, TickInputs,
};
use std::collections::{BTreeMap, BTreeSet};

/// One unit of nondeterminism: the key its resolving [`Choice`] is
/// stored under in the oracle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, serde::Serialize)]
enum Draw {
    /// The QC verdict of one acquisition attempt.
    Verdict { device: u64, we: u8, attempt: u32 },
    /// One device's admission-time chaos draw.
    Chaos { device: u64 },
}

/// The model's [`TickInputs`]: answers from the resolved draws, noting
/// the first draw it had to invent (the tick is then discarded).
struct Oracle<'a> {
    draws: &'a BTreeMap<Draw, Choice>,
    missing: Option<Draw>,
}

impl Oracle<'_> {
    fn resolve(&mut self, draw: Draw) -> Option<&Choice> {
        let found = self.draws.get(&draw);
        if found.is_none() {
            self.missing.get_or_insert(draw);
        }
        found
    }
}

impl TickInputs for Oracle<'_> {
    fn admission(&mut self, device: u64) -> (u64, Option<u64>) {
        match self.resolve(Draw::Chaos { device }) {
            Some(Choice::Chaos { stall, abort, .. }) => (*stall, *abort),
            _ => (0, None),
        }
    }

    fn acquire_batch(
        &mut self,
        platform: &Platform,
        devices: &[u64],
        requests: &[SampleRequest],
    ) -> Vec<SampleResult> {
        devices
            .iter()
            .zip(requests)
            .map(|(&device, request)| {
                let draw = Draw::Verdict {
                    device,
                    we: request.slot() as u8,
                    attempt: request.attempt() as u32,
                };
                let verdict = match self.resolve(draw) {
                    Some(Choice::Verdict { verdict, .. }) => *verdict,
                    _ => MVerdict::Pass,
                };
                synthetic_result(platform, request, verdict)
            })
            // advdiag::allow(H1, the acquisition seam returns an owned result per request, and this model-checker double serves no live traffic)
            .collect()
    }
}

/// Where the scheduler is between choices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize)]
enum Phase {
    /// Mid-round: unticked shards are enabled.
    Running,
    /// A shard's tick parked on an unresolved draw; the only enabled
    /// choices resolve it.
    Parked { shard: u8, draw: Draw },
    /// The server is idle: every queue and active set drained.
    Done,
}

/// One server-model state: the real server, the round's ticked shards,
/// the resolved draws, and the client's ledger of drained units.
#[derive(Debug, Clone)]
pub struct ServerState<'p> {
    server: DiagnosticsServer<'p>,
    ticked: BTreeSet<u8>,
    oracle: BTreeMap<Draw, Choice>,
    /// Drained units by device (each device submits once).
    ledger: BTreeMap<u64, CompletedSession>,
    /// Units the client received, counting any repeat.
    drained: usize,
    phase: Phase,
}

impl CanonEncode for ServerState<'_> {
    fn encode(&self, out: &mut Vec<u8>) {
        let server = &self.server;
        let head = (server.now(), server.stats(), self.phase, self.drained);
        encode_json(&head, out);
        out.extend_from_slice(&oracle_bytes(&self.oracle));
        self.ticked.encode(out);
        for shard in server.shards() {
            let lanes: Vec<_> = (shard.in_flight().iter())
                .map(|l| {
                    let timing = (l.admitted_tick, l.wake_tick, l.abort_after);
                    (l.device, l.tier, timing, l.machine.checkpoint())
                })
                .collect();
            encode_json(&(shard.queued().collect::<Vec<_>>(), lanes), out);
            shard.strikes().encode(out);
            shard.quarantined().encode(out);
        }
        let ledger: Vec<_> = (self.ledger.values())
            .map(|unit| {
                let report =
                    (unit.outcome.report()).map(|r| (r.readings(), r.qualities(), r.degradation()));
                (unit.device, unit.tier, unit.outcome.label(), report)
            })
            .collect();
        encode_json(&ledger, out);
    }
}

/// The server-level model over a real [`DiagnosticsServer`].
#[derive(Debug, Clone)]
pub struct ServerModel<'p> {
    cfg: ServerModelConfig,
    platform: &'p Platform,
    /// Upper bound on the clock before quiescence must have happened.
    quiesce_bound: u64,
}

impl<'p> ServerModel<'p> {
    /// Builds the model over `platform`, which must be the config's
    /// session platform ([`SessionModelConfig::platform`]), and submits
    /// the request batch once to check the server admits it.
    ///
    /// [`SessionModelConfig::platform`]: crate::SessionModelConfig::platform
    pub fn new(platform: &'p Platform, cfg: ServerModelConfig) -> Result<Self, ModelError> {
        cfg.validate()?;
        if platform.assignments().len() != usize::from(cfg.session.electrodes) {
            return Err(ModelError::config(
                "platform electrode count differs from the session universe",
            ));
        }
        let max_stall = cfg.stall_choices.iter().copied().max().unwrap_or(0);
        let quiesce_bound =
            (cfg.requests.len() as u64 + 1) * (cfg.server.deadline_ticks + max_stall + 2) + 8;
        let model = Self {
            cfg,
            platform,
            quiesce_bound,
        };
        model.initial()?;
        Ok(model)
    }

    /// Shards not yet ticked this round, lowest first.
    fn unticked(&self, state: &ServerState<'p>) -> Vec<u8> {
        (0..self.cfg.server.shards as u8)
            .filter(|s| !state.ticked.contains(s))
            .collect()
    }

    /// Runs one whole tick of `shard` over a clone of the server. Parks
    /// on the first unresolved draw; otherwise commits the tick: drains
    /// served units into the ledger, marks the shard ticked, and closes
    /// the round once every shard has ticked.
    fn tick_shard(&self, state: &mut ServerState<'p>, shard: u8) -> Result<(), ModelError> {
        let mut server = state.server.clone();
        let mut oracle = Oracle {
            draws: &state.oracle,
            missing: None,
        };
        server
            .tick_shard(usize::from(shard), &NullClock, &mut oracle)
            .ok_or_else(|| ModelError::internal("shard index out of range"))?;
        if let Some(draw) = oracle.missing {
            state.phase = Phase::Parked { shard, draw };
            return Ok(());
        }
        for unit in server.drain_completed() {
            let shed = matches!(unit.outcome, SessionOutcome::Shed);
            if shed && self.cfg.session.mutation == Mutation::SilentShed {
                continue;
            }
            state.drained += 1;
            state.ledger.insert(unit.device, unit);
        }
        server.drain_latencies();
        state.server = server;
        state.ticked.insert(shard);
        state.phase = Phase::Running;
        if state.ticked.len() == self.cfg.server.shards {
            // Round boundary: the only place the clock moves and the
            // only place termination is detected, so every interleaving
            // of a round converges before `Done` can be declared.
            state.server.end_tick();
            state.ticked.clear();
            if state.server.is_idle() {
                state.phase = Phase::Done;
            }
        }
        Ok(())
    }

    /// The DPOR justification, checked rather than assumed: at a state
    /// where shards `i` and `j` are both enabled, ticking `i` then `j`
    /// must reach exactly the state of ticking `j` then `i`, every park
    /// resolved by the first (default) entry of its menu on both sides.
    fn check_commutation(&self, state: &ServerState<'p>, i: u8, j: u8) -> Result<(), String> {
        let probe = |order: [u8; 2]| -> Result<u128, ModelError> {
            let mut s = state.clone();
            for shard in order {
                self.tick_shard(&mut s, shard)?;
                while let Phase::Parked { draw, .. } = s.phase {
                    let mut menu = Vec::new();
                    self.choices(&s, &mut menu);
                    let default = (menu.into_iter().next())
                        .ok_or_else(|| ModelError::config("empty draw menu"))?;
                    s.oracle.insert(draw, default);
                    self.tick_shard(&mut s, shard)?;
                }
            }
            Ok(canon_hash(&s))
        };
        let (ij, ji) = match (probe([i, j]), probe([j, i])) {
            (Ok(ij), Ok(ji)) => (ij, ji),
            (Err(e), _) | (_, Err(e)) => return Err(format!("commutation probe failed: {e}")),
        };
        if ij != ji {
            return Err(format!(
                "interleaving pruning unsound: shard {i} and shard {j} ticks do not \
                 commute at this state ({ij:032x} vs {ji:032x})"
            ));
        }
        Ok(())
    }
}

impl<'p> Model for ServerModel<'p> {
    type State = ServerState<'p>;

    fn initial(&self) -> Result<ServerState<'p>, ModelError> {
        let session = &self.cfg.session;
        let mut server = DiagnosticsServer::with_options(
            self.platform,
            self.cfg.server.clone(),
            session.options(),
        );
        for r in &self.cfg.requests {
            let request = SessionRequest {
                device: r.device,
                tier: r.tier,
                sample: session.sample(),
                seed: MODEL_SEED,
            };
            (server.submit(request))
                .map_err(|e| ModelError::config(format!("request refused: {e}")))?;
        }
        Ok(ServerState {
            server,
            ticked: BTreeSet::new(),
            oracle: BTreeMap::new(),
            ledger: BTreeMap::new(),
            drained: 0,
            phase: Phase::Running,
        })
    }

    fn choices(&self, state: &ServerState<'p>, out: &mut Vec<Choice>) {
        match state.phase {
            Phase::Done => {}
            Phase::Parked {
                draw:
                    Draw::Verdict {
                        device,
                        we,
                        attempt,
                    },
                ..
            } => out.extend(
                self.cfg
                    .session
                    .alphabet
                    .iter()
                    .map(|&verdict| Choice::Verdict {
                        device,
                        we,
                        attempt,
                        verdict,
                    }),
            ),
            Phase::Parked {
                draw: Draw::Chaos { device },
                ..
            } => {
                for &stall in &self.cfg.stall_choices {
                    for &abort in &self.cfg.abort_choices {
                        out.push(Choice::Chaos {
                            device,
                            stall,
                            abort,
                        });
                    }
                }
            }
            Phase::Running => {
                let take = match self.cfg.interleave {
                    Interleave::Full => usize::MAX,
                    Interleave::Pruned => 1,
                };
                let unticked = self.unticked(state).into_iter().take(take);
                out.extend(unticked.map(|shard| Choice::Shard { shard }));
            }
        }
    }

    fn apply(
        &self,
        state: &ServerState<'p>,
        choice: &Choice,
    ) -> Result<ServerState<'p>, ModelError> {
        check_enabled(self, state, choice)?;
        let mut next = state.clone();
        match (state.phase, choice) {
            (Phase::Parked { shard, draw }, _) => {
                next.oracle.insert(draw, choice.clone());
                self.tick_shard(&mut next, shard)?;
            }
            (_, Choice::Shard { shard }) => self.tick_shard(&mut next, *shard)?,
            _ => return Err(ModelError::internal("enabled choice without a transition")),
        }
        Ok(next)
    }

    fn is_terminal(&self, state: &ServerState<'p>) -> bool {
        state.phase == Phase::Done
    }

    fn check(&self, state: &ServerState<'p>) -> Result<(), String> {
        let (server, cfg) = (&state.server, &self.cfg.server);
        let now = server.now();
        for shard in server.shards() {
            for lane in shard.in_flight() {
                lane.machine.check_invariants()?;
                let age = now.saturating_sub(lane.admitted_tick);
                if age > cfg.deadline_ticks {
                    return Err(format!(
                        "deadline enforcement broken: device {} in flight {age} ticks, \
                         deadline is {}",
                        lane.device, cfg.deadline_ticks
                    ));
                }
            }
            let (queued, active) = (shard.queued().count(), shard.in_flight().len());
            if queued > cfg.queue_capacity || active > cfg.max_active_per_shard {
                return Err(format!(
                    "shard bounds broken: {queued} queued (capacity {}), {active} in flight \
                     (bound {})",
                    cfg.queue_capacity, cfg.max_active_per_shard
                ));
            }
            for (device, strikes) in shard.strikes() {
                if *strikes >= cfg.quarantine_threshold && !shard.quarantined().contains(device) {
                    return Err(format!(
                        "quarantine enforcement broken: device {device} has {strikes} \
                         strikes (threshold {}) but is not quarantined",
                        cfg.quarantine_threshold
                    ));
                }
            }
        }
        // Conservation, from the client's side: every submitted unit is
        // queued, in flight, or drained — nothing vanishes, every shed
        // unit is reported, and no unit is reported twice.
        let submitted = self.cfg.requests.len();
        let accounted = state.drained + server.queued() + server.in_flight();
        if accounted != submitted || state.ledger.len() != state.drained {
            return Err(format!(
                "conservation broken: {submitted} units submitted, {accounted} accounted \
                 for (drained + queued + in-flight), {} drained for {} devices",
                state.drained,
                state.ledger.len()
            ));
        }
        // Stats agree with the drained outcomes unit for unit.
        let stats = server.stats();
        let count = |label: &str| {
            let units = state.ledger.values();
            units.filter(|u| u.outcome.label() == label).count() as u64
        };
        let outcomes = (
            state.ledger.len() as u64 - count("shed"),
            count("shed"),
            count("deadline-miss"),
            count("aborted"),
        );
        let counters = (
            stats.completed,
            stats.shed,
            stats.deadline_misses,
            stats.aborted,
        );
        if outcomes != counters {
            return Err(format!(
                "stats drift from drained outcomes: counters (served, shed, misses, aborted) \
                 = {counters:?}, outcomes = {outcomes:?}"
            ));
        }
        // Liveness bound: the scheduler must quiesce within the budget a
        // well-formed config implies.
        if now > self.quiesce_bound {
            return Err(format!(
                "quiescence broken: tick {now} exceeds the bound {} implied by the \
                 deadline and stall menus",
                self.quiesce_bound
            ));
        }
        if state.phase == Phase::Done && !server.is_idle() {
            return Err("phase is Done but work remains queued or in flight".to_string());
        }
        // The pruning justification, verified at every real branch point.
        if self.cfg.interleave == Interleave::Pruned
            && self.cfg.check_commutation
            && state.phase == Phase::Running
        {
            let enabled = self.unticked(state);
            for (a, &i) in enabled.iter().enumerate() {
                for &j in &enabled[a + 1..] {
                    self.check_commutation(state, i, j)?;
                }
            }
        }
        Ok(())
    }

    fn terminal_class(&self, state: &ServerState<'p>) -> Option<u128> {
        (state.phase == Phase::Done).then(|| fnv128(&oracle_bytes(&state.oracle)))
    }
}

/// The canonical bytes of the resolved draws: each resolving choice's
/// rendering (which names its draw), in draw order.
fn oracle_bytes(oracle: &BTreeMap<Draw, Choice>) -> Vec<u8> {
    let mut out = Vec::new();
    for choice in oracle.values() {
        out.extend_from_slice(choice.to_string().as_bytes());
        out.push(b';');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{MRequest, SessionModelConfig};
    use crate::explore::{explore, ExploreLimits, ExploreReport};
    use bios_platform::RetryPolicy;
    use bios_server::ServiceTier;

    /// Explores two shards serving `devices` (routine tier) under a
    /// one-retry policy, after `tweak` adjusts the universe.
    fn run(
        devices: &[u64],
        tweak: impl FnOnce(ServerModelConfig) -> ServerModelConfig,
    ) -> ExploreReport {
        let retry = RetryPolicy {
            max_retries: 1,
            quarantine_after: 2,
            ..RetryPolicy::default()
        };
        let requests = (devices.iter())
            .map(|&device| MRequest {
                device,
                tier: ServiceTier::Routine,
            })
            .collect();
        let session = SessionModelConfig::new(1, retry);
        let cfg = tweak(ServerModelConfig::new(2, requests, session));
        let platform = cfg.session.platform().expect("platform");
        let model = ServerModel::new(&platform, cfg).expect("valid");
        explore(&model, &ExploreLimits::default())
    }

    #[test]
    fn both_interleavings_are_clean_reproducible_and_one_digest_per_class() {
        for interleave in [Interleave::Pruned, Interleave::Full] {
            let a = run(&[0, 1], |c| c.with_interleave(interleave));
            assert!(a.violation.is_none(), "{:?}", a.violation);
            assert!(!a.truncated);
            assert_eq!(
                a.stats,
                run(&[0, 1], |c| c.with_interleave(interleave)).stats
            );
            assert_eq!(a.stats.terminal_states, a.stats.terminal_classes);
        }
    }

    #[test]
    fn chaos_menus_reach_aborts_and_deadline_misses() {
        let report = run(&[0, 1], |mut c| {
            c.server = c.server.with_deadline_ticks(4);
            c.with_stall_choices(vec![0, 3])
                .with_abort_choices(vec![None, Some(2)])
        });
        assert!(report.violation.is_none(), "{:?}", report.violation);
        assert!(report.stats.terminal_classes > 2);
    }

    #[test]
    fn silent_shed_mutation_breaks_conservation_with_a_trace() {
        // All three route to shard 0, whose watermark sheds two of them.
        let cx = run(&[0, 2, 4], |mut c| {
            c.session = c.session.with_mutation(Mutation::SilentShed);
            c.server = c.server.with_shed_watermark(1);
            c
        })
        .violation
        .expect("silent shed must be caught");
        assert!(cx.violation.contains("conservation"), "{}", cx.violation);
        assert!(!cx.trace.is_empty());
    }
}
