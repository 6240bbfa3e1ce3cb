//! The sharded serving scheduler.
//!
//! One [`DiagnosticsServer`] owns a fixed set of shards; each shard owns
//! a bounded admission queue and a set of in-flight
//! [`SessionMachine`](bios_platform::SessionMachine)s, stepped
//! round-robin a few steps per virtual tick. Devices hash to shards by
//! index, shards never share mutable state, and a tick advances every
//! busy shard through [`par_map_mut`] (an idle shard's tick is a no-op
//! and is skipped) — so the whole fleet schedule is bit-reproducible
//! under any [`ExecPolicy`], which is what lets the chaos harness compare
//! faulted runs against clean references.
//!
//! Within a shard, `Sample`-phase acquisitions from *different* in-flight
//! sessions are coalesced: each tick the shard parks every awake session
//! at its next acquisition ([`SessionMachine::begin_sample`]) and serves
//! the whole batch through one [`TickInputs::acquire_batch`] call — in
//! production one [`run_samples`](Platform::run_samples) dispatch —
//! before absorbing the results ([`SessionMachine::complete_sample`]).
//! Acquisitions are pure functions of their requests, so coalescing
//! changes dispatch count — not one bit of any report.
//!
//! When a tick leaves threads idle (fewer busy shards than workers), each
//! busy shard gets the spare ones: its batch fans out over them, and a
//! parking session also lifts the acquisitions of its other electrodes
//! already waiting in `Sample`
//! ([`SessionMachine::begin_samples_ahead`]). Those results are held on
//! the in-flight session and applied, one step and one budget unit each,
//! when the round-robin reaches their electrode — so a lone session's
//! electrodes are read in parallel, and its schedule, reports and tick
//! summaries are those of the sequential tick.
//!
//! The request/response interface is deliberately narrow and batched —
//! [`submit`](DiagnosticsServer::submit) in,
//! [`drain_completed`](DiagnosticsServer::drain_completed) out, plain
//! serializable data both ways — so an in-process caller and a future
//! remote transport stay interchangeable (the simif lesson: keep the
//! hardware/host boundary a thin message queue).

use crate::chaos::ChaosPlan;
use crate::clock::Clock;
use crate::error::ServerError;
use bios_biochem::Analyte;
use bios_platform::{
    par_map_mut, ExecPolicy, Platform, SampleRequest, SampleResult, SessionMachine, SessionOptions,
    SessionReport, StepKind,
};
use bios_units::Molar;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Clinical priority of a session request. Ordered: under overload the
/// server sheds the *lowest* tier first.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, serde::Serialize, serde::Deserialize,
)]
pub enum ServiceTier {
    /// Opportunistic work (trend logging, re-checks); first to shed.
    BestEffort,
    /// Scheduled routine diagnostics.
    Routine,
    /// Urgent clinical work; shed only when nothing lower remains.
    Stat,
}

impl ServiceTier {
    /// A short stable name for reports.
    pub fn name(self) -> &'static str {
        match self {
            ServiceTier::BestEffort => "best-effort",
            ServiceTier::Routine => "routine",
            ServiceTier::Stat => "stat",
        }
    }
}

impl core::fmt::Display for ServiceTier {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// One diagnostics request: a device asks for one full session.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SessionRequest {
    /// The requesting device (routes to shard `device % shards`).
    pub device: u64,
    /// Clinical priority.
    pub tier: ServiceTier,
    /// True analyte concentrations the simulated device measures.
    pub sample: Vec<(Analyte, Molar)>,
    /// The session seed (bit-reproducibility handle).
    pub seed: u64,
}

/// Server shape and policy knobs.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ServerConfig {
    /// Shard count; devices route by `device % shards`. The server
    /// builds at least one shard, so 0 acts as 1.
    pub shards: usize,
    /// Per-shard admission queue bound. Submissions past it are refused
    /// with [`ServerError::Overloaded`]; the bound is never exceeded.
    pub queue_capacity: usize,
    /// In-flight sessions a shard drives concurrently.
    pub max_active_per_shard: usize,
    /// State-machine steps each in-flight session may take per tick.
    pub steps_per_tick: usize,
    /// Ticks a session may stay in flight before it is cut and served as
    /// a [`SessionOutcome::DeadlineMiss`].
    pub deadline_ticks: u64,
    /// Queue occupancy above which lowest-tier queued work is shed.
    pub shed_watermark: usize,
    /// Consecutive failed sessions after which a device is
    /// fleet-quarantined.
    pub quarantine_threshold: u32,
    /// How shards fan out per tick (the schedule is bit-identical for
    /// every policy).
    pub exec: ExecPolicy,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            shards: 4,
            queue_capacity: 1024,
            max_active_per_shard: 64,
            steps_per_tick: 4,
            deadline_ticks: 1000,
            shed_watermark: 768,
            quarantine_threshold: 3,
            exec: ExecPolicy::Auto,
        }
    }
}

impl ServerConfig {
    /// Replaces the shard count (clamped to ≥ 1).
    #[must_use]
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }

    /// Replaces the per-shard queue bound (clamped to ≥ 1) and pins the
    /// shed watermark to ¾ of it.
    #[must_use]
    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity.max(1);
        self.shed_watermark = (self.queue_capacity * 3) / 4;
        self
    }

    /// Replaces the shed watermark.
    #[must_use]
    pub fn with_shed_watermark(mut self, watermark: usize) -> Self {
        self.shed_watermark = watermark;
        self
    }

    /// Replaces the in-flight session bound per shard (clamped to ≥ 1).
    #[must_use]
    pub fn with_max_active(mut self, max_active: usize) -> Self {
        self.max_active_per_shard = max_active.max(1);
        self
    }

    /// Replaces the per-session step budget per tick (clamped to ≥ 1).
    #[must_use]
    pub fn with_steps_per_tick(mut self, steps: usize) -> Self {
        self.steps_per_tick = steps.max(1);
        self
    }

    /// Replaces the session deadline in ticks.
    #[must_use]
    pub fn with_deadline_ticks(mut self, ticks: u64) -> Self {
        self.deadline_ticks = ticks;
        self
    }

    /// Replaces the quarantine strike threshold (clamped to ≥ 1).
    #[must_use]
    pub fn with_quarantine_threshold(mut self, threshold: u32) -> Self {
        self.quarantine_threshold = threshold.max(1);
        self
    }

    /// Replaces the execution policy.
    #[must_use]
    pub fn with_exec(mut self, exec: ExecPolicy) -> Self {
        self.exec = exec;
        self
    }
}

/// How one admitted session left the server.
#[derive(Debug, Clone, PartialEq)]
pub enum SessionOutcome {
    /// The session ran to completion; the report may still carry QC
    /// degradation (retries, quarantined electrodes, failed targets).
    Completed(SessionReport),
    /// The session overstayed its deadline and was cut; the report holds
    /// partial results with `deadline_misses ≥ 1`.
    DeadlineMiss(SessionReport),
    /// A chaos-injected mid-session abort tore the session down; the
    /// report holds flagged partial results.
    Aborted(SessionReport),
    /// The session was shed from the queue under overload and never ran.
    Shed,
    /// A non-recoverable configuration error surfaced while stepping.
    Failed {
        /// The typed platform error, rendered.
        error: String,
    },
}

impl SessionOutcome {
    /// The served report, when one exists (everything but `Shed` and
    /// `Failed`).
    pub fn report(&self) -> Option<&SessionReport> {
        match self {
            SessionOutcome::Completed(r)
            | SessionOutcome::DeadlineMiss(r)
            | SessionOutcome::Aborted(r) => Some(r),
            SessionOutcome::Shed | SessionOutcome::Failed { .. } => None,
        }
    }

    /// True only for a completed session whose report is fully clean —
    /// a shed, cut, aborted or failed session is degradation by
    /// definition.
    pub fn is_clean(&self) -> bool {
        matches!(self, SessionOutcome::Completed(r) if !r.is_degraded())
    }

    /// A short stable label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            SessionOutcome::Completed(_) => "completed",
            SessionOutcome::DeadlineMiss(_) => "deadline-miss",
            SessionOutcome::Aborted(_) => "aborted",
            SessionOutcome::Shed => "shed",
            SessionOutcome::Failed { .. } => "failed",
        }
    }
}

/// One served session: the response side of the batched interface.
#[derive(Debug, Clone, PartialEq)]
pub struct CompletedSession {
    /// The requesting device.
    pub device: u64,
    /// The request's tier.
    pub tier: ServiceTier,
    /// The request's seed.
    pub seed: u64,
    /// How the session left the server.
    pub outcome: SessionOutcome,
}

/// What one [`DiagnosticsServer::tick`] did, fleet-wide.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TickSummary {
    /// State-machine steps executed.
    pub steps: u64,
    /// Sessions that reached a terminal outcome this tick.
    pub completed: usize,
    /// Queued sessions shed under overload this tick.
    pub shed: usize,
    /// Sessions cut by their deadline this tick.
    pub deadline_misses: usize,
}

/// Cumulative serving counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct ServerStats {
    /// Requests admitted to a queue.
    pub submitted: u64,
    /// Requests refused with [`ServerError::Overloaded`].
    pub rejected_overloaded: u64,
    /// Requests refused with [`ServerError::Quarantined`].
    pub rejected_quarantined: u64,
    /// Sessions served to a terminal outcome (any label).
    pub completed: u64,
    /// Sessions shed from queues under overload.
    pub shed: u64,
    /// Sessions cut by their deadline.
    pub deadline_misses: u64,
    /// Sessions torn down by chaos aborts.
    pub aborted: u64,
    /// Total state-machine steps executed.
    pub steps: u64,
    /// Devices currently fleet-quarantined.
    pub quarantined_devices: u64,
}

/// What a shard tick draws from outside the scheduler: each admitted
/// device's chaos schedule, and the results of each coalesced
/// acquisition batch.
///
/// [`DiagnosticsServer::tick`] supplies the production inputs — the
/// installed [`ChaosPlan`] and the physics of [`Platform::run_samples`].
/// A model checker supplies its own (drawn verdicts, drawn chaos) and
/// drives single shards through [`DiagnosticsServer::tick_shard`], so it
/// explores the shipped scheduler rather than a copy of it.
pub trait TickInputs {
    /// `(stall_ticks, abort_after_steps)` for `device`, admitted now.
    fn admission(&mut self, device: u64) -> (u64, Option<u64>);

    /// Serves one coalesced batch: result `i` answers `requests[i]`,
    /// which `devices[i]`'s session issued.
    fn acquire_batch(
        &mut self,
        platform: &Platform,
        devices: &[u64],
        requests: &[SampleRequest],
    ) -> Vec<SampleResult>;
}

/// The production [`TickInputs`]: chaos from the installed plan (none
/// without one), acquisitions from the simulated physics, fanned out over
/// the threads the tick left to this shard.
struct Physics<'c> {
    chaos: Option<&'c ChaosPlan>,
    spare: usize,
}

impl TickInputs for Physics<'_> {
    fn admission(&mut self, device: u64) -> (u64, Option<u64>) {
        match self.chaos {
            Some(c) => (c.stall_for(device).unwrap_or(0), c.abort_after_for(device)),
            None => (0, None),
        }
    }

    fn acquire_batch(
        &mut self,
        platform: &Platform,
        _devices: &[u64],
        requests: &[SampleRequest],
    ) -> Vec<SampleResult> {
        platform.run_samples(requests, ExecPolicy::Threads(self.spare))
    }
}

/// A queued, not-yet-admitted request.
#[derive(Debug, Clone)]
struct Pending {
    device: u64,
    tier: ServiceTier,
    sample: Vec<(Analyte, Molar)>,
    seed: u64,
    options: SessionOptions,
}

/// One in-flight session, readable through [`Shard::in_flight`].
#[derive(Debug, Clone)]
pub struct InFlight {
    /// The requesting device.
    pub device: u64,
    /// The request's tier.
    pub tier: ServiceTier,
    /// The request's seed.
    pub seed: u64,
    /// The session's state machine.
    pub machine: SessionMachine,
    /// Tick the session was admitted.
    pub admitted_tick: u64,
    /// The session is not stepped before this tick (backoff or stall).
    pub wake_tick: u64,
    /// Chaos: tear the session down once it has taken this many steps.
    pub abort_after: Option<u64>,
    /// Lookahead results not yet applied, at most one per electrode.
    held: Vec<Held>,
}

/// A lookahead acquisition, computed before the round-robin reached its
/// electrode. Its request is keyed by `(slot, attempt)`, which fixes it
/// within the session: nothing it reads changes while the electrode
/// waits in `Sample`.
#[derive(Debug, Clone)]
struct Held {
    request: SampleRequest,
    result: SampleResult,
    /// This acquisition's share of its dispatch's elapsed time.
    latency_nanos: u64,
}

impl InFlight {
    // advdiag::cold(per-admission construction: one session's state, built once when
    // it leaves the queue)
    fn admitted(
        pending: &Pending,
        machine: SessionMachine,
        now: u64,
        stall: u64,
        abort_after: Option<u64>,
    ) -> Self {
        Self {
            device: pending.device,
            tier: pending.tier,
            seed: pending.seed,
            machine,
            admitted_tick: now,
            wake_tick: now + stall,
            abort_after,
            held: Vec::new(),
        }
    }

    /// The position of the held result that answers this session's next
    /// transition, when that transition is a `Sample` looked ahead.
    fn held_next(&self, platform: &Platform) -> Option<usize> {
        if self.held.is_empty() {
            return None;
        }
        let step = self.machine.next_step(platform)?;
        if step.kind != StepKind::Sample {
            return None;
        }
        self.held
            .iter()
            .position(|h| (h.request.slot(), h.request.attempt()) == (step.slot, step.attempt))
    }
}

/// What one shard did during one tick.
#[derive(Debug, Default, PartialEq, Eq)]
struct ShardTick {
    steps: u64,
    completed: usize,
    shed: usize,
    deadline_misses: usize,
    aborted: usize,
}

/// Per-tick working buffers reused across [`Shard::step_active`] calls so
/// the stepping loop performs no per-tick allocation (lint rule H1): each
/// vector is cleared and refilled in place, growing once to the shard's
/// high-water lane count and staying there.
#[derive(Debug, Default, Clone)]
struct StepScratch {
    budgets: Vec<usize>,
    outcomes: Vec<Option<SessionOutcome>>,
    stopped: Vec<bool>,
    sleeping: Vec<bool>,
    expired: Vec<bool>,
    lanes: Vec<usize>,
    devices: Vec<u64>,
    requests: Vec<SampleRequest>,
    /// Per batch entry: a lookahead request, held rather than applied.
    ahead: Vec<bool>,
    finished: Vec<(usize, SessionOutcome)>,
}

/// One independent slice of the fleet: queue + in-flight sessions +
/// per-device health, never shared with other shards. Read-only outside
/// the server (see [`DiagnosticsServer::shards`]).
#[derive(Debug, Clone)]
pub struct Shard {
    queue: VecDeque<Pending>,
    active: Vec<InFlight>,
    strikes: BTreeMap<u64, u32>,
    quarantined: BTreeSet<u64>,
    completed: Vec<CompletedSession>,
    latencies_nanos: Vec<u64>,
    peak_queue: usize,
    scratch: StepScratch,
}

impl Shard {
    fn new() -> Self {
        Self {
            queue: VecDeque::new(),
            active: Vec::new(),
            strikes: BTreeMap::new(),
            quarantined: BTreeSet::new(),
            completed: Vec::new(),
            latencies_nanos: Vec::new(),
            peak_queue: 0,
            scratch: StepScratch::default(),
        }
    }

    /// Queued requests, front first, as `(device, tier)`.
    pub fn queued(&self) -> impl Iterator<Item = (u64, ServiceTier)> + '_ {
        self.queue.iter().map(|p| (p.device, p.tier))
    }

    /// In-flight sessions, admission order.
    pub fn in_flight(&self) -> &[InFlight] {
        &self.active
    }

    /// Consecutive-failure strikes per device.
    pub fn strikes(&self) -> &BTreeMap<u64, u32> {
        &self.strikes
    }

    /// Devices this shard has fleet-quarantined.
    pub fn quarantined(&self) -> &BTreeSet<u64> {
        &self.quarantined
    }

    /// True when work is queued or in flight. A shard without work ticks
    /// as a no-op: nothing to shed or admit, no lanes to step, nothing to
    /// harvest.
    fn has_work(&self) -> bool {
        !self.queue.is_empty() || !self.active.is_empty()
    }

    /// Sheds lowest-tier queued work down to the watermark, recording
    /// every shed unit as a typed outcome.
    fn shed_excess(&mut self, watermark: usize, tick: &mut ShardTick) {
        while self.queue.len() > watermark {
            // Lowest tier first; among equals, the most recently queued
            // (freshest work is cheapest to abandon). `<=` keeps the last
            // occurrence during the scan.
            let mut worst_idx = 0usize;
            let mut worst_tier = ServiceTier::Stat;
            for (i, p) in self.queue.iter().enumerate() {
                if p.tier <= worst_tier {
                    worst_tier = p.tier;
                    worst_idx = i;
                }
            }
            let Some(victim) = self.queue.remove(worst_idx) else {
                break;
            };
            self.completed.push(CompletedSession {
                device: victim.device,
                tier: victim.tier,
                seed: victim.seed,
                outcome: SessionOutcome::Shed,
            });
            tick.shed += 1;
        }
    }

    /// Admits queued work into the active set up to the concurrency
    /// bound, instantiating state machines and scheduling chaos.
    fn admit(
        &mut self,
        platform: &Platform,
        config: &ServerConfig,
        inputs: &mut dyn TickInputs,
        now: u64,
    ) {
        while self.active.len() < config.max_active_per_shard {
            let Some(pending) = self.queue.pop_front() else {
                break;
            };
            let machine = platform.session_machine(&pending.sample, pending.seed, &pending.options);
            let (stall, abort_after) = inputs.admission(pending.device);
            self.active.push(InFlight::admitted(
                &pending,
                machine,
                now,
                stall,
                abort_after,
            ));
        }
    }

    /// Advances every awake in-flight session by up to `steps_per_tick`
    /// steps, coalescing `Sample`-phase acquisitions across interleaved
    /// sessions into batches served by [`TickInputs::acquire_batch`], then
    /// harvests terminal sessions (done, aborted, past deadline).
    ///
    /// Batching is invisible in the results: each acquisition is a pure
    /// function of its [`SampleRequest`], so every per-session transition
    /// sequence — and every served report — is bit-identical to stepping
    /// the machines one by one.
    ///
    /// `spare` is the thread count the tick left to this shard. Above 1, a
    /// parking session also lifts its other `Sample`-phase electrodes'
    /// requests into the batch (lookahead), which the inputs fan out over
    /// `spare` threads; their results wait on the session until the
    /// round-robin reaches each electrode, then apply as one step and one
    /// budget unit with no new dispatch. Shards never share a thread:
    /// `spare` is the shard's own share of the workers.
    #[expect(
        clippy::too_many_arguments,
        reason = "the tick context (platform, config, inputs, clock, now, spare) plus the summary it fills"
    )]
    fn step_active(
        &mut self,
        platform: &Platform,
        config: &ServerConfig,
        inputs: &mut dyn TickInputs,
        clock: &dyn Clock,
        now: u64,
        spare: usize,
        tick: &mut ShardTick,
    ) {
        let lane_count = self.active.len();
        // Reuse the shard's persistent scratch: clear + refill in place,
        // no per-tick allocation once the buffers reach high water.
        let scratch = &mut self.scratch;
        scratch.budgets.clear();
        scratch.budgets.resize(lane_count, config.steps_per_tick);
        scratch.outcomes.clear();
        scratch.outcomes.resize_with(lane_count, || None);
        scratch.stopped.clear();
        scratch.stopped.resize(lane_count, false);
        scratch.sleeping.clear();
        scratch.sleeping.resize(lane_count, false);
        scratch.expired.clear();
        scratch.expired.resize(lane_count, false);
        let budgets = &mut scratch.budgets;
        let outcomes = &mut scratch.outcomes;
        let stopped = &mut scratch.stopped;
        let sleeping = &mut scratch.sleeping;
        let expired_flags = &mut scratch.expired;
        for (idx, session) in self.active.iter_mut().enumerate() {
            let expired = now.saturating_sub(session.admitted_tick) >= config.deadline_ticks;
            expired_flags[idx] = expired;
            if session.wake_tick > now {
                // A sleeping session (backoff or chaos stall) still burns
                // deadline budget; cut it the moment the deadline passes
                // rather than when it would have woken.
                sleeping[idx] = true;
                stopped[idx] = true;
                if expired {
                    outcomes[idx] = Some(SessionOutcome::DeadlineMiss(
                        session
                            .machine
                            .finish_partial(platform)
                            .with_deadline_misses(1),
                    ));
                }
            }
        }
        // Rounds: (A) run each live session's cheap transitions until it
        // parks at its next Sample, stalls, errors or exhausts its budget;
        // (B) serve every parked acquisition in one coalesced dispatch;
        // (C) absorb the results and loop until nothing parks.
        loop {
            let lanes = &mut scratch.lanes;
            let devices = &mut scratch.devices;
            let requests = &mut scratch.requests;
            let ahead = &mut scratch.ahead;
            lanes.clear();
            devices.clear();
            requests.clear();
            ahead.clear();
            for idx in 0..lane_count {
                if stopped[idx] {
                    continue;
                }
                let session = &mut self.active[idx];
                loop {
                    if budgets[idx] == 0 {
                        stopped[idx] = true;
                        break;
                    }
                    if session.machine.is_done() {
                        stopped[idx] = true;
                        break;
                    }
                    if let Some(limit) = session.abort_after {
                        if session.machine.steps_taken() >= limit {
                            outcomes[idx] = Some(SessionOutcome::Aborted(
                                session.machine.finish_partial(platform),
                            ));
                            stopped[idx] = true;
                            break;
                        }
                    }
                    if let Some(pos) = session.held_next(platform) {
                        // A lookahead result: apply it as this step, with
                        // no dispatch, exactly as a batched result.
                        let held = session.held.swap_remove(pos);
                        debug_assert_eq!(
                            session.machine.begin_sample(platform).as_ref(),
                            Some(&held.request),
                            "a held request changed while its electrode waited"
                        );
                        self.latencies_nanos.push(held.latency_nanos);
                        tick.steps += 1;
                        budgets[idx] -= 1;
                        if let Err(e) =
                            session
                                .machine
                                .complete_sample(platform, &held.request, held.result)
                        {
                            outcomes[idx] = Some(SessionOutcome::Failed {
                                error: e.to_string(),
                            });
                            stopped[idx] = true;
                            break;
                        }
                        continue;
                    }
                    if let Some(request) = session.machine.begin_sample(platform) {
                        lanes.push(idx);
                        devices.push(session.device);
                        requests.push(request);
                        ahead.push(false);
                        if spare > 1 {
                            // Nothing is held here: a held electrode waits in
                            // `Sample`, so the round-robin applies it before
                            // any electrode that entered `Sample` after the
                            // lookahead can park.
                            debug_assert!(session.held.is_empty(), "parked while holding");
                            let before = requests.len();
                            requests.extend(session.machine.begin_samples_ahead(platform));
                            let lifted = requests.len() - before;
                            lanes.resize(lanes.len() + lifted, idx);
                            devices.resize(devices.len() + lifted, session.device);
                            ahead.resize(ahead.len() + lifted, true);
                        }
                        break;
                    }
                    let t0 = clock.now_nanos();
                    let event = session.machine.step(platform);
                    self.latencies_nanos
                        .push(clock.now_nanos().saturating_sub(t0));
                    tick.steps += 1;
                    budgets[idx] -= 1;
                    match event {
                        Ok(bios_platform::StepEvent::BackedOff { delay_ticks, .. }) => {
                            session.wake_tick = now + delay_ticks.max(1);
                            stopped[idx] = true;
                            break;
                        }
                        Ok(_) => {}
                        Err(e) => {
                            outcomes[idx] = Some(SessionOutcome::Failed {
                                error: e.to_string(),
                            });
                            stopped[idx] = true;
                            break;
                        }
                    }
                }
            }
            if requests.is_empty() {
                break;
            }
            // One dispatch serves every parked session's acquisition and
            // every lookahead; latency is attributed evenly across them.
            let t0 = clock.now_nanos();
            let results = inputs.acquire_batch(platform, devices, requests);
            let elapsed = clock.now_nanos().saturating_sub(t0);
            let per_sample = elapsed / requests.len() as u64;
            let batch = lanes.iter().zip(ahead.iter()).zip(requests.drain(..));
            for (((&idx, &ahead), request), result) in batch.zip(results) {
                let session = &mut self.active[idx];
                if ahead {
                    session.held.push(Held {
                        request,
                        result,
                        latency_nanos: per_sample,
                    });
                    continue;
                }
                self.latencies_nanos.push(per_sample);
                tick.steps += 1;
                budgets[idx] -= 1;
                if let Err(e) = session.machine.complete_sample(platform, &request, result) {
                    outcomes[idx] = Some(SessionOutcome::Failed {
                        error: e.to_string(),
                    });
                    stopped[idx] = true;
                }
            }
        }
        // Terminal harvest, identical to the unbatched scheduler: abort,
        // failure and sleeping cuts were recorded above; the rest finish
        // when done or get cut on an expired deadline.
        scratch.finished.clear();
        let finished = &mut scratch.finished;
        for idx in 0..lane_count {
            if let Some(outcome) = outcomes[idx].take() {
                finished.push((idx, outcome));
                continue;
            }
            if sleeping[idx] {
                continue;
            }
            let session = &mut self.active[idx];
            if session.machine.is_done() {
                let outcome = match session.machine.finish(platform) {
                    Ok(report) => SessionOutcome::Completed(report),
                    Err(e) => SessionOutcome::Failed {
                        error: e.to_string(),
                    },
                };
                finished.push((idx, outcome));
            } else if expired_flags[idx] {
                finished.push((
                    idx,
                    SessionOutcome::DeadlineMiss(
                        session
                            .machine
                            .finish_partial(platform)
                            .with_deadline_misses(1),
                    ),
                ));
            }
        }
        // Harvest back-to-front so indices stay valid. The buffer is
        // lifted out of the scratch while `record_health` needs `&mut
        // self`, then returned with its capacity intact.
        let mut finished = std::mem::take(&mut self.scratch.finished);
        for (idx, outcome) in finished.drain(..).rev() {
            let session = self.active.remove(idx);
            match &outcome {
                SessionOutcome::DeadlineMiss(_) => tick.deadline_misses += 1,
                SessionOutcome::Aborted(_) => tick.aborted += 1,
                SessionOutcome::Completed(_)
                | SessionOutcome::Shed
                | SessionOutcome::Failed { .. } => {}
            }
            self.record_health(session.device, &outcome, config.quarantine_threshold);
            tick.completed += 1;
            self.completed.push(CompletedSession {
                device: session.device,
                tier: session.tier,
                seed: session.seed,
                outcome,
            });
        }
        self.scratch.finished = finished;
        // Keep completion order deterministic: sessions were harvested in
        // reverse index order above, restore admission order.
        let n = tick.completed;
        let len = self.completed.len();
        self.completed[len - n..].reverse();
    }

    /// Fleet-side health accounting: chronic failures quarantine the
    /// device, a clean session clears its strikes.
    fn record_health(&mut self, device: u64, outcome: &SessionOutcome, threshold: u32) {
        let failed = match outcome {
            SessionOutcome::Completed(r) => {
                let d = r.degradation();
                !d.quarantined.is_empty() || !d.failed_targets.is_empty()
            }
            SessionOutcome::DeadlineMiss(_)
            | SessionOutcome::Aborted(_)
            | SessionOutcome::Failed { .. } => true,
            SessionOutcome::Shed => false,
        };
        if failed {
            let strikes = self.strikes.entry(device).or_insert(0);
            *strikes += 1;
            if *strikes >= threshold {
                self.quarantined.insert(device);
            }
        } else {
            self.strikes.remove(&device);
        }
    }

    /// One full shard tick: shed, admit, step, harvest. `spare` is the
    /// thread count left to this shard (see [`Self::step_active`]).
    fn tick(
        &mut self,
        platform: &Platform,
        config: &ServerConfig,
        inputs: &mut dyn TickInputs,
        clock: &dyn Clock,
        now: u64,
        spare: usize,
    ) -> ShardTick {
        let mut summary = ShardTick::default();
        self.shed_excess(config.shed_watermark, &mut summary);
        self.admit(platform, config, inputs, now);
        self.step_active(platform, config, inputs, clock, now, spare, &mut summary);
        summary
    }
}

/// The diagnostics service: a fleet-facing, deterministic session
/// scheduler over one [`Platform`]. See the crate docs for the serving
/// contract and an example.
#[derive(Debug, Clone)]
pub struct DiagnosticsServer<'p> {
    platform: &'p Platform,
    config: ServerConfig,
    options: SessionOptions,
    chaos: Option<ChaosPlan>,
    shards: Vec<Shard>,
    now: u64,
    stats: ServerStats,
}

impl<'p> DiagnosticsServer<'p> {
    /// A server over `platform` with default session options (no faults,
    /// standard QC and retry policy).
    pub fn new(platform: &'p Platform, config: ServerConfig) -> Self {
        Self::with_options(platform, config, SessionOptions::default())
    }

    /// A server whose sessions all run under `options` (QC gate, retry
    /// policy, optional base fault plan). The server forces the
    /// per-session exec policy to sequential: a session machine is stepped
    /// by exactly one worker, and the tick alone decides how acquisitions
    /// fan out — over busy shards, then over the threads each busy shard
    /// is left.
    pub fn with_options(
        platform: &'p Platform,
        config: ServerConfig,
        options: SessionOptions,
    ) -> Self {
        let shards = (0..config.shards.max(1)).map(|_| Shard::new()).collect();
        Self {
            platform,
            config,
            options: options.with_exec(ExecPolicy::Sequential),
            chaos: None,
            shards,
            now: 0,
            stats: ServerStats::default(),
        }
    }

    /// Installs a chaos plan; subsequent admissions draw stalls, aborts
    /// and AFE fault overlays from it.
    #[must_use]
    pub fn with_chaos(mut self, chaos: ChaosPlan) -> Self {
        self.chaos = Some(chaos);
        self
    }

    /// The server configuration.
    pub fn config(&self) -> &ServerConfig {
        &self.config
    }

    /// The current virtual tick.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Cumulative serving counters.
    pub fn stats(&self) -> ServerStats {
        let mut stats = self.stats;
        stats.quarantined_devices = self.shards.iter().map(|s| s.quarantined.len() as u64).sum();
        stats
    }

    /// Submits one session request.
    ///
    /// # Errors
    ///
    /// [`ServerError::Quarantined`] for a fleet-quarantined device;
    /// [`ServerError::Overloaded`] when the target shard's queue is at
    /// capacity. The queue bound is never exceeded.
    pub fn submit(&mut self, request: SessionRequest) -> Result<(), ServerError> {
        let shard_idx = (request.device % self.shards.len() as u64) as usize;
        let capacity = self.config.queue_capacity;
        let chaos = &self.chaos;
        let options = &self.options;
        let platform = self.platform;
        // In range: `with_options` builds at least one shard.
        let shard = &mut self.shards[shard_idx];
        if shard.quarantined.contains(&request.device) {
            self.stats.rejected_quarantined += 1;
            return Err(ServerError::Quarantined {
                device: request.device,
            });
        }
        if shard.queue.len() >= capacity {
            self.stats.rejected_overloaded += 1;
            return Err(ServerError::Overloaded {
                shard: shard_idx,
                queue_len: shard.queue.len(),
                capacity,
            });
        }
        // Compose the chaos AFE overlay into the session's fault plan at
        // admission time, so the whole session (including retries) sees
        // one consistent faulted device.
        let mut options = options.clone();
        if let Some(overlay) = chaos
            .as_ref()
            .and_then(|c| c.fault_plan_for(request.device, platform.assignments().len()))
        {
            options.fault_plan = Some(match options.fault_plan.take() {
                Some(base) => base.compose(overlay),
                None => overlay,
            });
        }
        shard.queue.push_back(Pending {
            device: request.device,
            tier: request.tier,
            sample: request.sample,
            seed: request.seed,
            options,
        });
        shard.peak_queue = shard.peak_queue.max(shard.queue.len());
        self.stats.submitted += 1;
        Ok(())
    }

    /// Advances the whole fleet by one virtual tick: every shard sheds
    /// excess queue, admits work, and steps its in-flight sessions.
    /// Busy shards (queued or in-flight work) fan out across the execution
    /// engine, so a lone busy shard ticks inline with no spawn; an idle
    /// shard's tick would do nothing, so it is skipped. Each busy shard is
    /// left `max(1, threads / busy shards)` threads for its acquisitions
    /// and their lookahead, so nothing is oversubscribed. The outcome is
    /// bit-identical for any [`ExecPolicy`].
    pub fn tick(&mut self, clock: &dyn Clock) -> TickSummary {
        let platform = self.platform;
        let config = &self.config;
        let chaos = self.chaos.as_ref();
        let now = self.now;
        // advdiag::allow(H1, at most one borrow per shard per tick; a stored scratch vector cannot hold borrows of the shards it sits beside)
        let mut busy: Vec<&mut Shard> = self.shards.iter_mut().filter(|s| s.has_work()).collect();
        let spare = (config.exec.threads_for(usize::MAX) / busy.len().max(1)).max(1);
        let ticks = par_map_mut(config.exec, &mut busy, |_, shard| {
            shard.tick(
                platform,
                config,
                &mut Physics { chaos, spare },
                clock,
                now,
                spare,
            )
        });
        let mut summary = TickSummary::default();
        for t in ticks {
            self.record(t, &mut summary);
        }
        self.end_tick();
        summary
    }

    /// Ticks shard `shard` alone at the current virtual tick, drawing
    /// chaos and acquisition results from `inputs` — the per-shard tick
    /// [`tick`](Self::tick) fans out, with no spare threads: it never
    /// looks ahead, so `inputs` sees exactly the request sequence of a
    /// sequential tick. The clock does not move: call
    /// [`end_tick`](Self::end_tick) once every shard has ticked. `None`
    /// when `shard` is out of range.
    pub fn tick_shard(
        &mut self,
        shard: usize,
        clock: &dyn Clock,
        inputs: &mut dyn TickInputs,
    ) -> Option<TickSummary> {
        let t = self.shards.get_mut(shard)?.tick(
            self.platform,
            &self.config,
            inputs,
            clock,
            self.now,
            1,
        );
        let mut summary = TickSummary::default();
        self.record(t, &mut summary);
        Some(summary)
    }

    /// Closes the current virtual tick: the clock advances by one.
    pub fn end_tick(&mut self) {
        self.now += 1;
    }

    /// Folds one shard's tick into the fleet summary and counters.
    fn record(&mut self, t: ShardTick, summary: &mut TickSummary) {
        summary.steps += t.steps;
        summary.completed += t.completed;
        summary.shed += t.shed;
        summary.deadline_misses += t.deadline_misses;
        self.stats.steps += t.steps;
        self.stats.completed += t.completed as u64;
        self.stats.shed += t.shed as u64;
        self.stats.deadline_misses += t.deadline_misses as u64;
        self.stats.aborted += t.aborted as u64;
    }

    /// Every shard's scheduling state, shard order (read-only).
    pub fn shards(&self) -> &[Shard] {
        &self.shards
    }

    /// True when no work is queued or in flight anywhere.
    pub fn is_idle(&self) -> bool {
        !self.shards.iter().any(Shard::has_work)
    }

    /// Sessions currently in flight fleet-wide.
    pub fn in_flight(&self) -> usize {
        self.shards.iter().map(|s| s.active.len()).sum()
    }

    /// Sessions currently queued fleet-wide.
    pub fn queued(&self) -> usize {
        self.shards.iter().map(|s| s.queue.len()).sum()
    }

    /// The highest queue occupancy any shard ever reached — evidence the
    /// configured bound was respected.
    pub fn peak_queue_len(&self) -> usize {
        self.shards.iter().map(|s| s.peak_queue).max().unwrap_or(0)
    }

    /// Drains every served session, in shard order then service order
    /// within the shard — a deterministic batch response.
    pub fn drain_completed(&mut self) -> Vec<CompletedSession> {
        let mut out = Vec::new();
        for shard in &mut self.shards {
            out.append(&mut shard.completed);
        }
        out
    }

    /// Drains the per-step latency samples (nanoseconds, shard order)
    /// collected through the injected [`Clock`]. All zeros under
    /// [`NullClock`](crate::NullClock).
    pub fn drain_latencies(&mut self) -> Vec<u64> {
        let mut out = Vec::new();
        for shard in &mut self.shards {
            out.append(&mut shard.latencies_nanos);
        }
        out
    }

    /// Devices currently fleet-quarantined, ascending.
    pub fn quarantined_devices(&self) -> Vec<u64> {
        let mut out: Vec<u64> = self
            .shards
            .iter()
            .flat_map(|s| s.quarantined.iter().copied())
            .collect();
        out.sort_unstable();
        out
    }

    /// Releases a device from fleet quarantine (e.g. after service),
    /// clearing its strikes. Returns whether it was quarantined.
    pub fn release_device(&mut self, device: u64) -> bool {
        let shard_idx = (device % self.shards.len() as u64) as usize;
        let shard = &mut self.shards[shard_idx];
        shard.strikes.remove(&device);
        shard.quarantined.remove(&device)
    }

    /// Runs ticks until idle or `max_ticks` elapse, returning the ticks
    /// spent.
    pub fn run_until_idle(&mut self, clock: &dyn Clock, max_ticks: u64) -> u64 {
        let mut spent = 0;
        while !self.is_idle() && spent < max_ticks {
            self.tick(clock);
            spent += 1;
        }
        spent
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::NullClock;
    use bios_platform::{PanelSpec, PlatformBuilder};

    fn platform() -> Platform {
        PlatformBuilder::new(PanelSpec::paper_fig4())
            .build()
            .expect("build")
    }

    fn request(device: u64, tier: ServiceTier, seed: u64) -> SessionRequest {
        SessionRequest {
            device,
            tier,
            sample: vec![(Analyte::Glucose, Molar::from_millimolar(3.0))],
            seed,
        }
    }

    #[test]
    fn serves_a_session_to_completion() {
        let p = platform();
        let mut server = DiagnosticsServer::new(&p, ServerConfig::default());
        server
            .submit(request(1, ServiceTier::Stat, 42))
            .expect("admitted");
        let spent = server.run_until_idle(&NullClock, 10_000);
        assert!(spent > 0);
        let served = server.drain_completed();
        assert_eq!(served.len(), 1);
        let report = served[0].outcome.report().expect("served");
        // Same session through the blocking path: must be bit-identical
        // (the server pins per-session exec to sequential).
        let blocking = p
            .run_session_with(
                &[(Analyte::Glucose, Molar::from_millimolar(3.0))],
                42,
                &SessionOptions::default().with_exec(ExecPolicy::Sequential),
            )
            .expect("session");
        assert_eq!(*report, blocking);
        assert!(served[0].outcome.is_clean());
    }

    #[test]
    fn coalesced_interleaved_sessions_match_the_blocking_path() {
        let p = platform();
        // Many sessions interleave inside one shard with a healthy step
        // budget, so every tick batches several sessions' acquisitions
        // into one `run_samples` dispatch. Each served report must still
        // be bit-identical to running its session alone.
        let config = ServerConfig::default()
            .with_shards(1)
            .with_max_active(8)
            .with_steps_per_tick(6);
        let mut server = DiagnosticsServer::new(&p, config);
        for k in 0..8u64 {
            server
                .submit(request(k, ServiceTier::Routine, 900 + k))
                .expect("admitted");
        }
        server.run_until_idle(&NullClock, 10_000);
        let served = server.drain_completed();
        assert_eq!(served.len(), 8);
        for c in &served {
            let report = c.outcome.report().expect("served");
            let blocking = p
                .run_session_with(
                    &[(Analyte::Glucose, Molar::from_millimolar(3.0))],
                    c.seed,
                    &SessionOptions::default().with_exec(ExecPolicy::Sequential),
                )
                .expect("session");
            assert_eq!(*report, blocking, "device {} diverged", c.device);
        }
    }

    #[test]
    fn overload_returns_typed_error_and_bound_is_never_exceeded() {
        let p = platform();
        let config = ServerConfig::default()
            .with_shards(1)
            .with_queue_capacity(8)
            .with_shed_watermark(8);
        let mut server = DiagnosticsServer::new(&p, config);
        let mut rejected = 0;
        for k in 0..20 {
            match server.submit(request(k, ServiceTier::Routine, k)) {
                Ok(()) => {}
                Err(ServerError::Overloaded {
                    shard,
                    queue_len,
                    capacity,
                }) => {
                    rejected += 1;
                    assert_eq!(shard, 0);
                    assert_eq!(queue_len, 8);
                    assert_eq!(capacity, 8);
                }
                Err(e) => panic!("unexpected error {e}"),
            }
        }
        assert_eq!(rejected, 12, "queue admits exactly its capacity");
        assert_eq!(server.peak_queue_len(), 8, "bound never exceeded");
        assert_eq!(server.stats().rejected_overloaded, 12);
    }

    #[test]
    fn shedding_drops_lowest_tier_first_and_reports_it() {
        let p = platform();
        let config = ServerConfig::default()
            .with_shards(1)
            .with_queue_capacity(6)
            .with_shed_watermark(2)
            .with_max_active(1)
            .with_steps_per_tick(1);
        let mut server = DiagnosticsServer::new(&p, config);
        server
            .submit(request(0, ServiceTier::Stat, 1))
            .expect("admitted");
        server
            .submit(request(1, ServiceTier::BestEffort, 2))
            .expect("admitted");
        server
            .submit(request(2, ServiceTier::Routine, 3))
            .expect("admitted");
        server
            .submit(request(3, ServiceTier::BestEffort, 4))
            .expect("admitted");
        let summary = server.tick(&NullClock);
        assert_eq!(summary.shed, 2, "queue of 4 sheds down to watermark 2");
        let served = server.drain_completed();
        let shed: Vec<(u64, ServiceTier)> = served
            .iter()
            .filter(|c| matches!(c.outcome, SessionOutcome::Shed))
            .map(|c| (c.device, c.tier))
            .collect();
        // Both best-effort requests go first (freshest first among
        // equals); stat and routine survive.
        assert_eq!(
            shed,
            vec![(3, ServiceTier::BestEffort), (1, ServiceTier::BestEffort)]
        );
        assert!(!served
            .iter()
            .any(|c| matches!(c.outcome, SessionOutcome::Shed) && c.tier == ServiceTier::Stat));
    }

    #[test]
    fn deadline_cuts_surface_as_typed_partial_results() {
        let p = platform();
        let config = ServerConfig::default()
            .with_shards(1)
            .with_steps_per_tick(1)
            .with_deadline_ticks(2);
        let mut server = DiagnosticsServer::new(&p, config);
        server
            .submit(request(5, ServiceTier::Routine, 11))
            .expect("admitted");
        server.run_until_idle(&NullClock, 100);
        let served = server.drain_completed();
        assert_eq!(served.len(), 1);
        match &served[0].outcome {
            SessionOutcome::DeadlineMiss(report) => {
                assert!(report.degradation().deadline_misses >= 1);
                assert!(report.is_degraded(), "cut session must not be clean");
            }
            other => panic!("expected deadline miss, got {}", other.label()),
        }
        assert_eq!(server.stats().deadline_misses, 1);
    }

    #[test]
    fn stalled_devices_burn_deadline_budget_and_get_cut() {
        let p = platform();
        let config = ServerConfig::default()
            .with_shards(1)
            .with_deadline_ticks(5);
        let mut server =
            DiagnosticsServer::new(&p, config).with_chaos(ChaosPlan::new(2).with_stalls(1.0, 1000));
        server
            .submit(request(3, ServiceTier::Routine, 7))
            .expect("admitted");
        let spent = server.run_until_idle(&NullClock, 100);
        assert!(spent <= 10, "cut at the deadline, not at wake tick {spent}");
        let served = server.drain_completed();
        assert_eq!(served.len(), 1);
        assert!(
            matches!(served[0].outcome, SessionOutcome::DeadlineMiss(_)),
            "a stall past the deadline must surface as a cut, got {}",
            served[0].outcome.label()
        );
    }

    #[test]
    fn chronic_failures_quarantine_the_device_fleet_side() {
        use bios_afe::{Fault, FaultKind, FaultPlan};
        use bios_instrument::QcGate;

        let p = platform();
        // Device whose electrode is dead: every session fails QC.
        let plan = FaultPlan::new(3).with_fault(
            0,
            Fault::immediate(FaultKind::ElectrodeOpen, 1.0).expect("valid"),
        );
        let options = SessionOptions::default()
            .with_fault_plan(plan)
            .with_qc(QcGate::default());
        let config = ServerConfig::default()
            .with_shards(1)
            .with_quarantine_threshold(2);
        let mut server = DiagnosticsServer::with_options(&p, config, options);
        for k in 0..2 {
            server
                .submit(request(9, ServiceTier::Routine, 100 + k))
                .expect("admitted");
            server.run_until_idle(&NullClock, 10_000);
        }
        assert_eq!(server.quarantined_devices(), vec![9]);
        let err = server
            .submit(request(9, ServiceTier::Routine, 200))
            .expect_err("quarantined");
        assert_eq!(err, ServerError::Quarantined { device: 9 });
        assert_eq!(server.stats().rejected_quarantined, 1);
        // Serviced device re-admits.
        assert!(server.release_device(9));
        server
            .submit(request(9, ServiceTier::Routine, 201))
            .expect("released device admits again");
    }

    #[test]
    fn zero_shard_config_routes_to_its_one_shard() {
        let p = platform();
        let config = ServerConfig {
            shards: 0,
            ..ServerConfig::default()
        };
        let mut server = DiagnosticsServer::new(&p, config);
        assert_eq!(server.shards().len(), 1);
        server
            .submit(request(7, ServiceTier::Stat, 42))
            .expect("admitted");
        assert!(server.run_until_idle(&NullClock, 10_000) > 0);
        assert_eq!(server.drain_completed().len(), 1);
        assert!(!server.release_device(7));
    }

    #[test]
    fn fleet_schedule_is_bit_identical_for_any_exec_policy() {
        let p = platform();
        let run = |exec: ExecPolicy| {
            let config = ServerConfig::default().with_shards(4).with_exec(exec);
            let mut server = DiagnosticsServer::new(&p, config)
                .with_chaos(ChaosPlan::new(5).with_stalls(0.3, 3).with_aborts(0.2));
            for k in 0..24u64 {
                server
                    .submit(request(k, ServiceTier::Routine, 1000 + k))
                    .expect("admitted");
            }
            server.run_until_idle(&NullClock, 100_000);
            server.drain_completed()
        };
        let seq = run(ExecPolicy::Sequential);
        let par = run(ExecPolicy::Threads(4));
        assert_eq!(seq.len(), 24);
        assert_eq!(seq, par, "shard fan-out must not change outcomes");
    }

    #[test]
    fn sparse_load_schedule_is_bit_identical_for_any_exec_policy() {
        let p = platform();
        // Waves of submissions, each after the fleet drains and two idle
        // ticks. A wave is groups submitted one tick apart; the first
        // three waves land on 1, 2 and 4 idle shards at once, the last is
        // staggered tick by tick.
        let waves: [&[&[u64]]; 4] = [
            &[&[0]],
            &[&[1, 2]],
            &[&[3, 4, 5, 6]],
            &[&[7], &[9], &[14], &[12, 16], &[21]],
        ];
        let run = |exec: ExecPolicy| {
            let config = ServerConfig::default().with_shards(4).with_exec(exec);
            let mut server = DiagnosticsServer::new(&p, config)
                .with_chaos(ChaosPlan::new(11).with_stalls(0.3, 3).with_aborts(0.2));
            let mut busy_counts = BTreeSet::new();
            let mut tick = |server: &mut DiagnosticsServer<'_>| {
                busy_counts.insert(server.shards.iter().filter(|s| s.has_work()).count());
                server.tick(&NullClock);
            };
            let mut submitted = 0;
            for wave in waves {
                tick(&mut server);
                tick(&mut server);
                for group in wave {
                    for &device in *group {
                        server
                            .submit(request(device, ServiceTier::Routine, 3000 + device))
                            .expect("admitted");
                        submitted += 1;
                    }
                    tick(&mut server);
                }
                // Bounded, so a scheduler that strands work fails the
                // count below instead of hanging.
                while !server.is_idle() && server.now() < 100_000 {
                    tick(&mut server);
                }
            }
            let served = server.drain_completed();
            assert_eq!(served.len(), submitted, "{exec:?}");
            assert!(
                [0, 1, 2, 4].iter().all(|n| busy_counts.contains(n)),
                "{exec:?}: busy-shard counts {busy_counts:?}"
            );
            (format!("{served:?}"), served, server.stats(), server.now())
        };
        let seq = run(ExecPolicy::Sequential);
        for threads in [2, 4] {
            let par = run(ExecPolicy::Threads(threads));
            assert_eq!(seq, par, "threads = {threads}");
        }
    }

    /// A clock an idle shard must never read.
    struct UnreadClock;

    impl Clock for UnreadClock {
        fn now_nanos(&self) -> u64 {
            panic!("an idle shard read the clock")
        }
    }

    /// Tick inputs an idle shard must never draw.
    struct UndrawnInputs;

    impl TickInputs for UndrawnInputs {
        fn admission(&mut self, _: u64) -> (u64, Option<u64>) {
            panic!("an idle shard admitted work")
        }

        fn acquire_batch(
            &mut self,
            _: &Platform,
            _: &[u64],
            _: &[SampleRequest],
        ) -> Vec<SampleResult> {
            panic!("an idle shard acquired")
        }
    }

    /// Everything a shard carries from tick to tick. The step scratch is
    /// left out: every tick clears each buffer before using it, so its
    /// contents between ticks never reach an outcome.
    fn carried_state(s: &Shard) -> String {
        format!(
            "{:?}",
            (
                &s.queue,
                &s.active,
                &s.strikes,
                &s.quarantined,
                &s.completed,
                &s.latencies_nanos,
                s.peak_queue,
            )
        )
    }

    #[test]
    fn an_idle_shard_ticks_as_a_no_op() {
        // The premise that lets `DiagnosticsServer::tick` skip idle
        // shards: ticking one reads no clock, draws no input, reports an
        // all-zero `ShardTick` and changes nothing it carries. Checked on
        // a fresh shard and on one that has served, failed and drained.
        let p = platform();
        let mut server = DiagnosticsServer::new(&p, ServerConfig::default().with_shards(1))
            .with_chaos(ChaosPlan::new(4).with_stalls(0.5, 2).with_aborts(0.5));
        for k in 0..6u64 {
            server
                .submit(request(k, ServiceTier::Routine, 700 + k))
                .expect("admitted");
        }
        server.run_until_idle(&NullClock, 10_000);
        let drained = server.shards[0].clone();
        assert!(!drained.completed.is_empty() && !drained.strikes.is_empty());
        for shard in [Shard::new(), drained] {
            assert!(!shard.has_work());
            let mut ticked = shard.clone();
            let t = ticked.tick(
                &p,
                server.config(),
                &mut UndrawnInputs,
                &UnreadClock,
                server.now(),
                4,
            );
            assert_eq!(t, ShardTick::default());
            assert_eq!(carried_state(&ticked), carried_state(&shard));
        }
    }

    /// Everything a served run shows from outside: every tick's summary,
    /// the served sessions, the counters, the clock and the number of
    /// latency samples.
    #[derive(Debug, PartialEq)]
    struct Served {
        ticks: Vec<TickSummary>,
        completed: Vec<CompletedSession>,
        stats: ServerStats,
        now: u64,
        latencies: usize,
    }

    /// Submits each wave once the server is idle and ticks it to idle,
    /// checking after every tick that held results stay within one per
    /// waiting electrode and leave with their session. Returns what was
    /// served and the largest held count seen.
    fn serve_waves(server: &mut DiagnosticsServer<'_>, waves: &[&[u64]]) -> (Served, usize) {
        let electrodes = server.platform.assignments().len();
        let mut ticks = Vec::new();
        let mut most_held = 0;
        for (w, wave) in waves.iter().enumerate() {
            for &device in *wave {
                server
                    .submit(request(
                        device,
                        ServiceTier::Routine,
                        4000 + 97 * w as u64 + device,
                    ))
                    .expect("admitted");
            }
            while !server.is_idle() && server.now() < 100_000 {
                ticks.push(server.tick(&NullClock));
                for lane in server.shards.iter().flat_map(|s| &s.active) {
                    assert!(lane.held.len() < electrodes, "{} held", lane.held.len());
                    most_held = most_held.max(lane.held.len());
                }
            }
            let held: usize = (server.shards.iter().flat_map(|s| &s.active))
                .map(|l| l.held.len())
                .sum();
            assert_eq!(held, 0, "an idle server holds nothing");
        }
        let stats = server.stats();
        let latencies = server.drain_latencies().len();
        let served = Served {
            ticks,
            completed: server.drain_completed(),
            stats,
            now: server.now(),
            latencies,
        };
        (served, most_held)
    }

    #[test]
    fn lookahead_is_invisible_in_every_served_outcome() {
        use bios_afe::{Fault, FaultKind, FaultPlan};

        let p = platform();
        let lone: &[&[u64]] = &[&[1], &[2], &[3]];
        let mixed: &[&[u64]] = &[&[0], &[1, 2], &[3, 4, 5, 6], &[7, 8, 9, 10, 11, 12, 13, 14]];
        // A dead WE0 fails QC on every attempt: retries, backoff sleeps,
        // quarantine.
        let dead_we0 = || {
            SessionOptions::default().with_fault_plan(FaultPlan::new(3).with_fault(
                0,
                Fault::immediate(FaultKind::ElectrodeOpen, 1.0).expect("valid"),
            ))
        };
        type Build<'a> = Box<dyn Fn(ExecPolicy) -> DiagnosticsServer<'a> + 'a>;
        let base = |exec: ExecPolicy| ServerConfig::default().with_shards(2).with_exec(exec);
        let scenarios: Vec<(&str, &[&[u64]], Build<'_>)> = vec![
            (
                "lone clean",
                lone,
                Box::new(|e| DiagnosticsServer::new(&p, base(e))),
            ),
            (
                "faulted retries",
                mixed,
                Box::new(|e| DiagnosticsServer::with_options(&p, base(e), dead_we0())),
            ),
            (
                "chaos afe faults",
                mixed,
                Box::new(|e| {
                    DiagnosticsServer::new(&p, base(e))
                        .with_chaos(ChaosPlan::new(21).with_afe_faults(0.6))
                }),
            ),
            (
                "chaos stalls and aborts",
                mixed,
                Box::new(|e| {
                    DiagnosticsServer::new(&p, base(e))
                        .with_chaos(ChaosPlan::new(5).with_stalls(0.4, 3).with_aborts(0.3))
                }),
            ),
            // Two steps a tick: the lookahead lands on tick 5, and the cut
            // on tick 6 drops a result still held.
            (
                "deadline cut while holding",
                lone,
                Box::new(|e| {
                    let config = base(e).with_steps_per_tick(2).with_deadline_ticks(6);
                    DiagnosticsServer::new(&p, config)
                }),
            ),
            (
                "deadline cut after holding",
                mixed,
                Box::new(|e| DiagnosticsServer::new(&p, base(e).with_deadline_ticks(3))),
            ),
        ];
        for (name, waves, build) in &scenarios {
            let (reference, held) = serve_waves(&mut build(ExecPolicy::Sequential), waves);
            assert_eq!(held, 0, "{name}: a sequential tick never looks ahead");
            assert_eq!(reference.latencies as u64, reference.stats.steps, "{name}");
            if name.starts_with("deadline") {
                assert!(reference.stats.deadline_misses > 0, "{name}");
            }
            for threads in [2, 4] {
                let (got, held) = serve_waves(&mut build(ExecPolicy::Threads(threads)), waves);
                assert!(held > 0, "{name}: threads = {threads} never looked ahead");
                assert_eq!(got, reference, "{name}: threads = {threads}");
            }
        }
    }

    /// Tick inputs that serve the physics sequentially and record every
    /// batch as `(device, slot, attempt)` triples.
    #[derive(Default)]
    struct Recording {
        batches: Vec<Vec<(u64, usize, usize)>>,
    }

    impl TickInputs for Recording {
        fn admission(&mut self, _: u64) -> (u64, Option<u64>) {
            (0, None)
        }

        fn acquire_batch(
            &mut self,
            platform: &Platform,
            devices: &[u64],
            requests: &[SampleRequest],
        ) -> Vec<SampleResult> {
            self.batches.push(
                devices
                    .iter()
                    .zip(requests)
                    .map(|(&d, r)| (d, r.slot(), r.attempt()))
                    .collect(),
            );
            platform.run_samples(requests, ExecPolicy::Sequential)
        }
    }

    #[test]
    fn tick_shard_never_looks_ahead() {
        let p = platform();
        let run = |exec: ExecPolicy| {
            let mut server = DiagnosticsServer::new(&p, ServerConfig::default().with_exec(exec));
            for k in [0, 1, 5] {
                server
                    .submit(request(k, ServiceTier::Routine, 60 + k))
                    .expect("admitted");
            }
            let mut inputs = Recording::default();
            let mut ticks = Vec::new();
            while !server.is_idle() && server.now() < 10_000 {
                for shard in 0..server.shards().len() {
                    ticks.push(server.tick_shard(shard, &NullClock, &mut inputs));
                }
                server.end_tick();
            }
            (
                inputs.batches,
                ticks,
                server.drain_completed(),
                server.stats(),
            )
        };
        let sequential = run(ExecPolicy::Sequential);
        let mut seen = 0;
        for batch in &sequential.0 {
            for (k, &(device, _, _)) in batch.iter().enumerate() {
                assert!(
                    !batch[k + 1..].iter().any(|&(d, _, _)| d == device),
                    "one session, one request per batch: {batch:?}"
                );
                seen += 1;
            }
        }
        assert_eq!(seen, 15, "every electrode of 3 clean sessions sampled once");
        assert_eq!(run(ExecPolicy::Threads(4)), sequential);
        // The same schedule `tick` serves under the sequential policy.
        let mut server = DiagnosticsServer::new(
            &p,
            ServerConfig::default().with_exec(ExecPolicy::Sequential),
        );
        for k in [0, 1, 5] {
            server
                .submit(request(k, ServiceTier::Routine, 60 + k))
                .expect("admitted");
        }
        server.run_until_idle(&NullClock, 10_000);
        assert_eq!(
            (server.drain_completed(), server.stats()),
            (sequential.2, sequential.3)
        );
    }

    #[test]
    fn chaos_aborts_surface_as_flagged_partials_never_clean() {
        let p = platform();
        let config = ServerConfig::default().with_shards(2);
        let mut server =
            DiagnosticsServer::new(&p, config).with_chaos(ChaosPlan::new(8).with_aborts(1.0));
        for k in 0..6u64 {
            server
                .submit(request(k, ServiceTier::Routine, 500 + k))
                .expect("admitted");
        }
        server.run_until_idle(&NullClock, 10_000);
        let served = server.drain_completed();
        assert_eq!(served.len(), 6);
        for c in &served {
            match &c.outcome {
                SessionOutcome::Aborted(report) => {
                    assert!(!c.outcome.is_clean());
                    // Every reading from an aborted session is flagged.
                    assert!(report
                        .qualities()
                        .iter()
                        .all(|q| !q.is_usable() || q.attempts > 0));
                }
                other => panic!("abort rate 1.0 must abort all, got {}", other.label()),
            }
        }
        assert_eq!(server.stats().aborted, 6);
    }
}
