//! The assembled platform: working electrodes, shared readout, scheduling
//! and full-session simulation — the running version of the paper's Fig. 4.

use crate::cost::{electronics_budget, PlatformCost, ReadoutSharing};
use crate::error::PlatformError;
use crate::exec::{par_map, ExecPolicy};
use crate::robustness::{DegradationSummary, SessionOptions, TargetQuality};
use crate::schedule::Schedule;
use crate::session::{SampleRequest, SampleResult, SessionCheckpoint, SessionMachine, WeOutcome};
use crate::structure::SensorStructure;
use bios_afe::{AnalogMux, Fault, ReadoutChain};
use bios_biochem::Interferent;
use bios_biochem::{Analyte, CypSensor, MichaelisMenten, OxidaseSensor, Probe, Technique};
use bios_electrochem::{Electrode, PotentialProgram};
use bios_instrument::{
    plan_chrono, plan_cv, ChronoPlan, ChronoProtocol, CvPlan, CvProtocol, InstrumentError, QcClass,
    QcVerdict,
};
use bios_units::{Amps, Molar, Seconds};
use std::sync::OnceLock;

/// Fixed seed of the commissioning dry run the QC gate's quiet-channel
/// check references — a stored calibration record, not per-session noise.
const NOISE_REFERENCE_SEED: u64 = 0xCA11_B45E;

/// Fixed seed, sample interval and window of the built-in self-test that
/// compares each chain's live gain against its commissioning gain.
const SELF_TEST_SEED: u64 = 0x1B15_7AA5;
const SELF_TEST_DT: Seconds = Seconds::new(0.1);
const SELF_TEST_WINDOW: Seconds = Seconds::new(2.0);
/// Window for the post-assay self-test: assay-length, so faults whose
/// magnitude grows with time (reference drift) are graded at the scale
/// they reached during the measurement, not at power-on scale.
const POST_SELF_TEST_WINDOW: Seconds = Seconds::new(64.0);

/// The sensing model behind one working electrode.
#[derive(Debug, Clone, PartialEq)]
pub enum SensorModel {
    /// Chronoamperometric oxidase sensor.
    Oxidase(OxidaseSensor),
    /// Voltammetric cytochrome P450 sensor.
    Cytochrome(CypSensor),
}

/// One working electrode with its probe and targets.
#[derive(Debug, Clone, PartialEq)]
pub struct WeAssignment {
    index: usize,
    probe: Probe,
    targets: Vec<Analyte>,
    electrode: Electrode,
    sensor: SensorModel,
}

impl WeAssignment {
    pub(crate) fn new(
        index: usize,
        probe: Probe,
        targets: Vec<Analyte>,
        electrode: Electrode,
        sensor: SensorModel,
    ) -> Self {
        Self {
            index,
            probe,
            targets,
            electrode,
            sensor,
        }
    }

    /// The working-electrode index.
    pub fn index(&self) -> usize {
        self.index
    }

    /// The biological probe on this electrode.
    pub fn probe(&self) -> Probe {
        self.probe
    }

    /// The analytes read from this electrode.
    pub fn targets(&self) -> &[Analyte] {
        &self.targets
    }

    /// The physical electrode.
    pub fn electrode(&self) -> &Electrode {
        &self.electrode
    }

    /// The readout technique this electrode uses.
    pub fn technique(&self) -> Technique {
        self.probe.technique()
    }

    /// The sensing model.
    pub fn sensor(&self) -> &SensorModel {
        &self.sensor
    }
}

/// One analyte reading out of a session.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct TargetReading {
    /// The analyte.
    pub analyte: Analyte,
    /// Which working electrode produced it.
    pub we: usize,
    /// The raw analytical response (ΔI for chrono, peak height for CV).
    pub response: Amps,
    /// Concentration estimate from the registry calibration; `None` when
    /// the sensor saturated or nothing was detected.
    pub estimated: Option<Molar>,
    /// Whether the signal cleared the 3σ detection threshold (and, for CV,
    /// the signature matched).
    pub identified: bool,
}

/// The outcome of one full measurement session.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionReport {
    readings: Vec<TargetReading>,
    schedule: Schedule,
    qualities: Vec<TargetQuality>,
    degradation: DegradationSummary,
}

impl SessionReport {
    /// All readings in measurement order.
    pub fn readings(&self) -> &[TargetReading] {
        &self.readings
    }

    /// The reading for one analyte, if it was on the panel.
    pub fn reading_for(&self, analyte: Analyte) -> Option<&TargetReading> {
        self.readings.iter().find(|r| r.analyte == analyte)
    }

    /// The executed schedule.
    pub fn schedule(&self) -> &Schedule {
        &self.schedule
    }

    /// Per-electrode, per-target QC provenance for every raw reading
    /// (one record per replicate, before merging).
    pub fn qualities(&self) -> &[TargetQuality] {
        &self.qualities
    }

    /// The best (lowest-class) quality record among an analyte's
    /// replicates — the trust level of the merged reading.
    pub fn quality_for(&self, analyte: Analyte) -> Option<&TargetQuality> {
        self.qualities
            .iter()
            .filter(|q| q.analyte == analyte)
            .min_by_key(|q| q.class)
    }

    /// What the session lost to faults: retries, quarantines and targets
    /// without a usable reading.
    pub fn degradation(&self) -> &DegradationSummary {
        &self.degradation
    }

    /// True when any retry, quarantine or target loss occurred.
    pub fn is_degraded(&self) -> bool {
        !self.degradation.is_clean()
    }

    /// Total session duration.
    pub fn total_duration(&self) -> Seconds {
        self.schedule.total_duration()
    }

    /// Marks this report as having been cut short by `n` serving
    /// deadlines. A deadline-cut session holds partial results and must
    /// never report as clean (see [`DegradationSummary::is_clean`]).
    #[must_use]
    pub fn with_deadline_misses(mut self, n: usize) -> Self {
        self.degradation.deadline_misses += n;
        self
    }

    /// Worst relative concentration error against a ground-truth sample
    /// (readings without an estimate count as 100% error; truths of zero
    /// are skipped).
    pub fn worst_relative_error(&self, truth: &[(Analyte, Molar)]) -> f64 {
        let mut worst: f64 = 0.0;
        for (analyte, c_true) in truth {
            if c_true.value() <= 0.0 {
                continue;
            }
            let err = match self.reading_for(*analyte).and_then(|r| r.estimated) {
                Some(est) => ((est.value() - c_true.value()) / c_true.value()).abs(),
                None => 1.0,
            };
            worst = worst.max(err);
        }
        worst
    }
}

/// The commissioning record of a platform's two fault-free base chains:
/// the fixed-seed traces the QC gate and the built-in self-test grade
/// live chains against, and each assignment's acquisition plan. Each
/// value is a pure function of the platform's chains, protocols and
/// assignments, so it is computed on first use and kept for the
/// platform's lifetime. Filling lazily keeps platforms that never run a
/// session (design-space evaluation builds one per point) free.
#[derive(Debug, Clone)]
struct Commissioning {
    /// Chrono chain baseline noise over the chrono settle window.
    noise_reference: OnceLock<Option<Amps>>,
    /// Self-test responses, indexed `[chain][window]`: chain 0 is the
    /// chrono chain and 1 the CV chain; window 0 is the power-on
    /// [`SELF_TEST_WINDOW`] and 1 the [`POST_SELF_TEST_WINDOW`].
    self_test: [[OnceLock<Option<Amps>>; 2]; 2],
    /// Acquisition plans, indexed by assignment slot.
    plans: Box<[AssignmentPlan]>,
}

impl Commissioning {
    /// An empty record for a platform with `slots` assignments.
    fn new(slots: usize) -> Self {
        Self {
            noise_reference: OnceLock::new(),
            self_test: Default::default(),
            plans: (0..slots).map(|_| AssignmentPlan::default()).collect(),
        }
    }
}

/// One assignment's acquisition plan on its technique's fault-free base
/// chain: the seed- and sample-independent half of every acquisition on
/// it. A faulted twin runs the same plan, because faults act after the
/// potentiostat. Only the cell of the assignment's technique is filled.
#[derive(Debug, Clone, Default)]
struct AssignmentPlan {
    chrono: OnceLock<Result<ChronoPlan, InstrumentError>>,
    cv: OnceLock<Result<CvPlan, InstrumentError>>,
}

/// A fully assembled multi-target biosensing platform.
///
/// Built by [`PlatformBuilder`](crate::PlatformBuilder); see there for an
/// example.
#[derive(Debug, Clone)]
pub struct Platform {
    assignments: Vec<WeAssignment>,
    structure: SensorStructure,
    mux: AnalogMux,
    chrono_chain: ReadoutChain,
    cv_chain: ReadoutChain,
    chrono_protocol: ChronoProtocol,
    cv_protocol: CvProtocol,
    sharing: ReadoutSharing,
    chopper: bool,
    cds: bool,
    commissioning: Commissioning,
}

impl Platform {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_parts(
        assignments: Vec<WeAssignment>,
        structure: SensorStructure,
        mux: AnalogMux,
        chrono_chain: ReadoutChain,
        cv_chain: ReadoutChain,
        chrono_protocol: ChronoProtocol,
        cv_protocol: CvProtocol,
        sharing: ReadoutSharing,
        chopper: bool,
        cds: bool,
    ) -> Self {
        Self {
            structure,
            mux,
            chrono_chain,
            cv_chain,
            chrono_protocol,
            cv_protocol,
            sharing,
            chopper,
            cds,
            commissioning: Commissioning::new(assignments.len()),
            assignments,
        }
    }

    /// The working-electrode assignments.
    pub fn assignments(&self) -> &[WeAssignment] {
        &self.assignments
    }

    /// The physical sensor structure.
    pub fn structure(&self) -> SensorStructure {
        self.structure
    }

    /// The readout-sharing strategy.
    pub fn sharing(&self) -> ReadoutSharing {
        self.sharing
    }

    /// The chronoamperometry protocol in force.
    pub fn chrono_protocol(&self) -> &ChronoProtocol {
        &self.chrono_protocol
    }

    /// The CV protocol in force.
    pub fn cv_protocol(&self) -> &CvProtocol {
        &self.cv_protocol
    }

    /// The duration of one measurement on an assignment.
    pub(crate) fn measurement_duration(&self, assignment: &WeAssignment) -> Seconds {
        match &assignment.sensor {
            SensorModel::Oxidase(_) => Seconds::new(
                self.chrono_protocol.settle.value() + self.chrono_protocol.measure.value(),
            ),
            SensorModel::Cytochrome(sensor) => {
                let (start, vertex) = sensor.recommended_window();
                PotentialProgram::cyclic_single(start, vertex, self.cv_protocol.scan_rate)
                    .duration()
            }
        }
    }

    /// The session schedule under the configured sharing strategy.
    pub fn schedule(&self) -> Schedule {
        let measurements: Vec<(usize, Technique, Seconds)> = self
            .assignments
            .iter()
            .map(|a| (a.index, a.technique(), self.measurement_duration(a)))
            .collect();
        match self.sharing {
            ReadoutSharing::Shared => Schedule::sequential(&measurements, &self.mux),
            ReadoutSharing::Dedicated => Schedule::parallel(&measurements),
        }
    }

    /// Runs one full measurement session against a sample.
    ///
    /// The sample is a list of true analyte concentrations; analytes not
    /// listed are absent (zero). Returns per-target readings with
    /// registry-calibration concentration estimates.
    ///
    /// # Errors
    ///
    /// Returns [`PlatformError`] if any underlying measurement fails.
    pub fn run_session(
        &self,
        sample: &[(Analyte, Molar)],
        seed: u64,
    ) -> Result<SessionReport, PlatformError> {
        self.run_session_with(sample, seed, &SessionOptions::default())
    }

    /// Runs one full measurement session under an explicit robustness
    /// policy: optional fault injection, per-acquisition QC gating,
    /// bounded retries with fresh seeds, and electrode quarantine.
    ///
    /// Every acquisition is screened by `options.qc`. A `Fail` verdict
    /// triggers a retry with a derived seed
    /// (`we_seed + attempt · reseed_stride`) and a retry slot appended to
    /// the schedule; after `max_retries` retries the reading is kept but
    /// stripped of its estimate and identification — flagged data never
    /// masquerades as results. Electrodes failing `quarantine_after`
    /// consecutive attempts are quarantined and reported in the
    /// [`DegradationSummary`]. Replicate merging uses usable readings
    /// only.
    ///
    /// Identical `(sample, seed, options)` produce an identical
    /// [`SessionReport`], bit for bit — including under any
    /// [`ExecPolicy`](crate::ExecPolicy): electrodes fan out across the
    /// execution engine and merge back in assignment order.
    ///
    /// # Errors
    ///
    /// Returns [`PlatformError`] only for non-recoverable (configuration)
    /// failures; recoverable measurement errors are degraded into flagged
    /// readings instead.
    pub fn run_session_with(
        &self,
        sample: &[(Analyte, Molar)],
        seed: u64,
        options: &SessionOptions,
    ) -> Result<SessionReport, PlatformError> {
        // Every electrode's work — chain selection, BIST, acquisition,
        // retries — is a [`WeMachine`](crate::session) whose transitions
        // depend only on `(assignment, sample, seed, options)`. The wave
        // driver advances all machines through their cheap transitions,
        // then executes every parked acquisition as one batched
        // [`Self::run_samples`] dispatch under `options.exec`; the merge
        // replays outcomes in assignment order, which makes the report
        // bit-identical to the sequential loop — and to any
        // step-interleaved [`SessionMachine`](crate::SessionMachine) run
        // of the same session.
        let mut machine = self.session_machine(sample, seed, options);
        while !machine.is_done() {
            machine.step_wave(self, options.exec)?;
        }
        machine.finish(self)
    }

    /// Executes a batch of lifted [`SampleRequest`]s — possibly gathered
    /// from *different* sessions — fanning out across the execution
    /// engine. Result `i` is exactly what the inline `Sample` transition
    /// of request `i`'s session would have produced: each acquisition is
    /// a pure function of its request, so batching (and the merge-by-index
    /// engine) cannot change any session's outcome.
    pub fn run_samples(&self, requests: &[SampleRequest], policy: ExecPolicy) -> Vec<SampleResult> {
        par_map(policy, requests, |_, req| {
            let chain = self.assignment_chain(&self.assignments[req.slot], &req.options);
            self.measure_assignment(
                req.slot,
                &req.sample,
                &req.interferents,
                &chain,
                &req.options,
                req.reference_noise,
                req.attempt_seed,
            )
        })
    }

    /// Electroactive species in the sample that interfere with the anodic
    /// (oxidase) readouts; the cathodic CYP window sits below their onset
    /// potentials.
    pub(crate) fn interferents_of(sample: &[(Analyte, Molar)]) -> Vec<(Interferent, Molar)> {
        sample
            .iter()
            .filter_map(|(a, c)| Interferent::of(*a).map(|i| (i, *c)))
            .collect()
    }

    /// Creates a resumable, step-interleavable state machine for one
    /// session — the serving-side entry point. Driving it to completion
    /// and calling [`SessionMachine::finish`] yields a report
    /// bit-identical to [`run_session_with`](Self::run_session_with).
    pub fn session_machine(
        &self,
        sample: &[(Analyte, Molar)],
        seed: u64,
        options: &SessionOptions,
    ) -> SessionMachine {
        SessionMachine::new(self, sample, seed, options)
    }

    /// Rebuilds a suspended session from its checkpoint plus the original
    /// `(sample, seed, options)`. The resumed machine replays the rest of
    /// the session bit-identically to an uninterrupted run.
    pub fn resume_session(
        &self,
        sample: &[(Analyte, Molar)],
        seed: u64,
        options: &SessionOptions,
        checkpoint: SessionCheckpoint,
    ) -> SessionMachine {
        SessionMachine::from_checkpoint(sample, seed, options, checkpoint)
    }

    /// Folds per-electrode outcomes (in assignment order) into the
    /// session report: replays retry slots onto the schedule, merges
    /// replicate readings, and totals the degradation summary.
    pub(crate) fn merge_outcomes(&self, outcomes: Vec<WeOutcome>) -> SessionReport {
        let mut schedule = self.schedule();
        let gap = self.mux.acquisition_delay();
        let mut raw: Vec<(TargetReading, QcClass)> = Vec::new();
        let mut qualities: Vec<TargetQuality> = Vec::new();
        let mut retries = 0usize;
        let mut quarantined: Vec<usize> = Vec::new();

        for (assignment, outcome) in self.assignments.iter().zip(outcomes) {
            let we = assignment.index;
            for _ in 0..outcome.retry_slots {
                schedule.append_retry(
                    we,
                    assignment.technique(),
                    self.measurement_duration(assignment),
                    gap,
                );
            }
            retries += outcome.retry_slots;
            if outcome.quarantined && !quarantined.contains(&we) {
                quarantined.push(we);
            }
            qualities.extend(outcome.qualities);
            raw.extend(outcome.readings);
        }

        // Merge replicate readings of the same analyte (redundant WEs):
        // responses average (uncorrelated noise shrinks by √n), a majority
        // of replicates must agree for identification, and the estimate is
        // re-derived from the averaged response. Only QC-usable readings
        // participate; an analyte with no usable replicate keeps a flagged
        // placeholder and is reported as failed.
        let mut merged: Vec<TargetReading> = Vec::new();
        let mut failed_targets: Vec<Analyte> = Vec::new();
        for (r, _) in &raw {
            if merged.iter().any(|m| m.analyte == r.analyte) {
                continue;
            }
            let group: Vec<&TargetReading> = raw
                .iter()
                .filter(|(x, c)| x.analyte == r.analyte && *c != QcClass::Fail)
                .map(|(x, _)| x)
                .collect();
            if group.is_empty() {
                failed_targets.push(r.analyte);
                merged.push(TargetReading {
                    estimated: None,
                    identified: false,
                    ..*r
                });
                continue;
            }
            if group.len() == 1 {
                merged.push(*group[0]);
                continue;
            }
            let mean_response = Amps::new(
                group.iter().map(|x| x.response.value()).sum::<f64>() / group.len() as f64,
            );
            let votes = group.iter().filter(|x| x.identified).count();
            let estimates: Vec<f64> = group
                .iter()
                .filter_map(|x| x.estimated.map(|c| c.value()))
                .collect();
            merged.push(TargetReading {
                analyte: r.analyte,
                we: r.we,
                response: mean_response,
                estimated: (!estimates.is_empty())
                    .then(|| Molar::new(estimates.iter().sum::<f64>() / estimates.len() as f64)),
                identified: 2 * votes > group.len(),
            });
        }
        SessionReport {
            readings: merged,
            schedule,
            qualities,
            degradation: DegradationSummary {
                retries,
                quarantined,
                failed_targets,
                ..DegradationSummary::default()
            },
        }
    }

    /// The per-electrode base seed every attempt seed derives from.
    pub(crate) fn we_seed(seed: u64, we: usize) -> u64 {
        seed.wrapping_add(17 * (we as u64 + 1))
    }

    /// The readout chain electrode `assignment` measures through: the
    /// technique's shared chain, turned into its faulted twin when the
    /// options' fault plan schedules faults on it. The fault realization
    /// is fixed across retries — a broken electrode stays broken, only
    /// the noise is fresh.
    // advdiag::cold(per-acquisition AFE chain assembly: runs once per acquisition
    // by contract, not once per step)
    pub(crate) fn assignment_chain(
        &self,
        assignment: &WeAssignment,
        options: &SessionOptions,
    ) -> ReadoutChain {
        let base = self.base_chain(assignment);
        match options.fault_plan.as_ref() {
            Some(plan) => {
                let faults = plan.faults_for(assignment.index);
                if faults.is_empty() {
                    base.clone()
                } else {
                    base.clone()
                        .with_faults(faults, plan.chain_seed(assignment.index))
                }
            }
            None => base.clone(),
        }
    }

    fn base_chain(&self, assignment: &WeAssignment) -> &ReadoutChain {
        match &assignment.sensor {
            SensorModel::Oxidase(_) => &self.chrono_chain,
            SensorModel::Cytochrome(_) => &self.cv_chain,
        }
    }

    /// The fault-free base chain's self-test response from the
    /// commissioning record: over [`POST_SELF_TEST_WINDOW`] when
    /// `post_assay`, else over [`SELF_TEST_WINDOW`].
    fn commissioned_self_test(&self, assignment: &WeAssignment, post_assay: bool) -> Option<Amps> {
        let chain = usize::from(matches!(assignment.sensor, SensorModel::Cytochrome(_)));
        let window = if post_assay {
            POST_SELF_TEST_WINDOW
        } else {
            SELF_TEST_WINDOW
        };
        *self.commissioning.self_test[chain][usize::from(post_assay)].get_or_init(|| {
            self.base_chain(assignment)
                .self_test_response(SELF_TEST_DT, window, SELF_TEST_SEED)
                .ok()
        })
    }

    /// Built-in self-test for the `ApplyPotential` step: a known
    /// half-scale test current through the live chain, graded against the
    /// fault-free chain's commissioning response. Gain faults that hide
    /// below one ADC code at quiescent input cannot hide under a test
    /// signal.
    // advdiag::cold(built-in self-test: whole-trace simulation, runs once per
    // electrode commissioning step)
    pub(crate) fn bist_verdict(
        &self,
        assignment: &WeAssignment,
        options: &SessionOptions,
    ) -> QcVerdict {
        let chain = self.assignment_chain(assignment, options);
        if chain.faults().is_empty() {
            return QcVerdict {
                class: QcClass::Pass,
                reasons: Vec::new(),
            };
        }
        let live = chain.self_test_response(SELF_TEST_DT, SELF_TEST_WINDOW, SELF_TEST_SEED);
        let mut verdict = match (live, self.commissioned_self_test(assignment, false)) {
            (Ok(m), Some(e)) => options.qc.check_self_test(m, e),
            _ => QcVerdict {
                class: QcClass::Pass,
                reasons: Vec::new(),
            },
        };
        // Post-assay self-test: a fault whose onset falls after the short
        // test window is invisible above — it activates mid-session,
        // settles, and the reading comes out plausibly scaled. Re-grade
        // the chain with every fault fully developed (onsets elapsed) over
        // an assay-length window, the way a bench instrument re-runs its
        // dummy-cell check after the assay: time-growing faults (drift)
        // only reach their material magnitude at assay scale.
        if chain.faults().iter().any(|f| f.onset.value() > 0.0) {
            let settled: Vec<Fault> = chain
                .faults()
                .iter()
                .filter_map(|f| Fault::immediate(f.kind, f.severity).ok())
                .collect();
            let fault_seed = options
                .fault_plan
                .as_ref()
                .map(|p| p.chain_seed(assignment.index()))
                .unwrap_or(0);
            let settled_chain = self
                .base_chain(assignment)
                .clone()
                .with_faults(settled, fault_seed);
            let post = settled_chain.self_test_response(
                SELF_TEST_DT,
                POST_SELF_TEST_WINDOW,
                SELF_TEST_SEED,
            );
            if let (Ok(m), Some(e)) = (post, self.commissioned_self_test(assignment, true)) {
                verdict.merge(options.qc.check_self_test(m, e));
            }
        }
        verdict
    }

    /// The `Settle` step's stored calibration record: the QC gate
    /// compares live baselines against the chain's commissioning
    /// self-noise — always taken from the fault-free base chain.
    // advdiag::cold(commissioning-time noise reference: the trace is simulated
    // once per platform and read from its commissioning record thereafter)
    pub(crate) fn reference_noise_for(&self, assignment: &WeAssignment) -> Option<Amps> {
        match &assignment.sensor {
            SensorModel::Oxidase(_) => *self.commissioning.noise_reference.get_or_init(|| {
                self.chrono_chain
                    .baseline_noise_reference(
                        self.chrono_protocol.dt,
                        self.chrono_protocol.settle,
                        NOISE_REFERENCE_SEED,
                    )
                    .ok()
            }),
            SensorModel::Cytochrome(_) => None,
        }
    }

    /// One acquisition on the assignment in `slot`: runs its planned
    /// protocol against the (possibly faulted) chain and screens the
    /// measurement through the session's QC gate. The plan is computed on
    /// the slot's first acquisition and read from the commissioning
    /// record thereafter.
    #[allow(clippy::too_many_arguments)]
    // advdiag::cold(whole-acquisition entry: one call simulates a full experiment;
    // everything below runs at per-acquisition cadence by contract)
    pub(crate) fn measure_assignment(
        &self,
        slot: usize,
        sample: &[(Analyte, Molar)],
        interferents: &[(Interferent, Molar)],
        chain: &ReadoutChain,
        options: &SessionOptions,
        reference_noise: Option<Amps>,
        seed: u64,
    ) -> Result<(Vec<TargetReading>, QcVerdict), PlatformError> {
        let assignment = &self.assignments[slot];
        let plan = &self.commissioning.plans[slot];
        let base = self.base_chain(assignment);
        let full_scale = chain.config().full_scale_current();
        match &assignment.sensor {
            SensorModel::Oxidase(sensor) => {
                let analyte = assignment.targets[0];
                let c = concentration_of(sample, analyte);
                let m = plan
                    .chrono
                    .get_or_init(|| {
                        plan_chrono(sensor, &assignment.electrode, base, &self.chrono_protocol)
                    })
                    .as_ref()
                    .map_err(Clone::clone)?
                    .run(chain, c, interferents, seed)?;
                let verdict = options
                    .qc
                    .check_chrono_referenced(&m, full_scale, reference_noise);
                let response = m.delta();
                let area = assignment.electrode.geometric_area().value();
                let threshold = 3.0 * sensor.blank_sd().value() * area;
                let estimated = invert_mm(
                    response.value(),
                    area,
                    sensor.sensitivity_si(),
                    sensor.kinetics(),
                );
                Ok((
                    vec![TargetReading {
                        analyte,
                        we: assignment.index,
                        response,
                        estimated,
                        identified: response.value() > threshold,
                    }],
                    verdict,
                ))
            }
            SensorModel::Cytochrome(sensor) => {
                let concs: Vec<(Analyte, Molar)> = assignment
                    .targets
                    .iter()
                    .map(|a| (*a, concentration_of(sample, *a)))
                    .collect();
                let m = plan
                    .cv
                    .get_or_init(|| plan_cv(sensor, &assignment.electrode, base, &self.cv_protocol))
                    .as_ref()
                    .map_err(Clone::clone)?
                    .run(chain, &concs, seed)?;
                let verdict = options.qc.check_cv(&m, full_scale);
                let area = assignment.electrode.geometric_area().value();
                let mut readings = Vec::with_capacity(assignment.targets.len());
                for analyte in &assignment.targets {
                    let height = m.peak_height(*analyte);
                    let response = height.unwrap_or(Amps::ZERO);
                    let blank_sd = sensor
                        .blank_sd(*analyte)
                        .ok_or(PlatformError::NoProbeFor(*analyte))?;
                    let threshold = 3.0 * blank_sd.value() * area;
                    let kinetics = sensor
                        .kinetics(*analyte)
                        .ok_or(PlatformError::NoProbeFor(*analyte))?;
                    let s_si = sensor
                        .sensitivity_si(*analyte)
                        .ok_or(PlatformError::NoProbeFor(*analyte))?;
                    let estimated = height.and_then(|h| invert_mm(h.value(), area, s_si, kinetics));
                    readings.push(TargetReading {
                        analyte: *analyte,
                        we: assignment.index,
                        response,
                        estimated,
                        identified: height.is_some() && response.value() > threshold,
                    });
                }
                Ok((readings, verdict))
            }
        }
    }

    /// The platform's cost summary.
    pub fn cost(&self) -> PlatformCost {
        let n_we = self.assignments.len();
        let adc_bits = self.chrono_chain.config().adc.bits();
        let budget = electronics_budget(n_we, self.sharing, adc_bits, self.chopper, self.cds);
        let we_area = self
            .assignments
            .first()
            .map(|a| a.electrode.geometric_area())
            .unwrap_or_else(|| Electrode::paper_gold_we().geometric_area());
        PlatformCost::assemble(
            &budget,
            we_area,
            self.structure.total_electrodes(),
            self.structure.chambers(),
            self.schedule().total_duration(),
        )
    }
}

/// Inverts the calibrated Michaelis–Menten response `r = A·S·Km·sat(C)` to
/// a concentration. Returns `None` when saturated (≥98% of Vmax) and
/// clamps negative responses to zero concentration.
fn invert_mm(response: f64, area_cm2: f64, s_si: f64, kinetics: &MichaelisMenten) -> Option<Molar> {
    let vmax = area_cm2 * s_si * kinetics.km().value();
    if vmax <= 0.0 {
        return None;
    }
    let x = response / vmax;
    if x <= 0.0 {
        return Some(Molar::ZERO);
    }
    if x >= 0.98 {
        return None;
    }
    Some(Molar::new(kinetics.km().value() * x / (1.0 - x)))
}

fn concentration_of(sample: &[(Analyte, Molar)], analyte: Analyte) -> Molar {
    sample
        .iter()
        .find(|(a, _)| *a == analyte)
        .map(|(_, c)| *c)
        .unwrap_or(Molar::ZERO)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::PlatformBuilder;
    use crate::requirements::{PanelSpec, TargetSpec};

    fn fig4() -> Platform {
        PlatformBuilder::new(PanelSpec::paper_fig4())
            .build()
            .expect("build")
    }

    fn fig4_sample() -> Vec<(Analyte, Molar)> {
        vec![
            (Analyte::Glucose, Molar::from_millimolar(3.0)),
            (Analyte::Lactate, Molar::from_millimolar(1.5)),
            // Above the glutamate sensor's 1.57 mM LOD (paper Table III).
            (Analyte::Glutamate, Molar::from_millimolar(3.0)),
            (Analyte::Benzphetamine, Molar::from_millimolar(0.8)),
            (Analyte::Aminopyrine, Molar::from_millimolar(4.0)),
            (Analyte::Cholesterol, Molar::from_micromolar(50.0)),
        ]
    }

    /// The first working electrode measured by chronoamperometry
    /// (`cv == false`) or by voltammetry (`cv == true`).
    fn we_of(p: &Platform, cv: bool) -> &WeAssignment {
        p.assignments()
            .iter()
            .find(|a| matches!(a.sensor, SensorModel::Cytochrome(_)) == cv)
            .expect("both techniques on the panel")
    }

    #[test]
    fn commissioning_record_equals_direct_chain_calls() {
        let p = fig4();
        for (cv, chain) in [(false, &p.chrono_chain), (true, &p.cv_chain)] {
            for (post_assay, window) in [(false, SELF_TEST_WINDOW), (true, POST_SELF_TEST_WINDOW)] {
                let direct = chain
                    .self_test_response(SELF_TEST_DT, window, SELF_TEST_SEED)
                    .expect("direct self-test");
                // The first read fills the record, the second reads it back.
                for _ in 0..2 {
                    let recorded = p
                        .commissioned_self_test(we_of(&p, cv), post_assay)
                        .expect("recorded self-test");
                    assert_eq!(recorded.value().to_bits(), direct.value().to_bits());
                }
            }
        }
        // Acquisition plans: none before the first session, one per slot
        // after it, equal to a direct plan on the slot's base chain, and
        // read back (not rebuilt) by the next session.
        let planned = |p: &Platform, slot: usize| {
            let cells = &p.commissioning.plans[slot];
            (
                cells
                    .chrono
                    .get()
                    .map(|r| r.as_ref().expect("chrono plan") as *const _),
                cells
                    .cv
                    .get()
                    .map(|r| r.as_ref().expect("cv plan") as *const _),
            )
        };
        let fresh = fig4();
        assert!((0..fresh.assignments.len()).all(|s| planned(&fresh, s) == (None, None)));
        fresh.run_session(&fig4_sample(), 1).expect("session");
        let first: Vec<_> = (0..fresh.assignments.len())
            .map(|s| planned(&fresh, s))
            .collect();
        for (slot, a) in fresh.assignments.iter().enumerate() {
            let cells = &fresh.commissioning.plans[slot];
            let base = fresh.base_chain(a);
            match &a.sensor {
                SensorModel::Oxidase(sensor) => {
                    let direct = plan_chrono(sensor, &a.electrode, base, &fresh.chrono_protocol);
                    assert_eq!(cells.chrono.get(), Some(&direct));
                    assert!(cells.cv.get().is_none());
                }
                SensorModel::Cytochrome(sensor) => {
                    let direct = plan_cv(sensor, &a.electrode, base, &fresh.cv_protocol);
                    assert_eq!(cells.cv.get(), Some(&direct));
                    assert!(cells.chrono.get().is_none());
                }
            }
        }
        fresh.run_session(&fig4_sample(), 2).expect("session");
        let second: Vec<_> = (0..fresh.assignments.len())
            .map(|s| planned(&fresh, s))
            .collect();
        assert_eq!(first, second, "the second session reads the same plans");

        // Each platform records the noise reference of its own protocol.
        // The paper chain's noise sits below one ADC code, so a loud chain
        // makes the two references differ.
        let loud = ReadoutChain::new(p.chrono_chain.config().with_noise(bios_afe::NoiseConfig {
            white_density: 5e-9,
            flicker_density_1hz: 5e-9,
            drift_per_sqrt_s: 5e-9,
        }));
        let platform_with = |settle: f64| Platform {
            chrono_chain: loud.clone(),
            chrono_protocol: ChronoProtocol {
                settle: Seconds::new(settle),
                ..ChronoProtocol::default()
            },
            commissioning: Commissioning::new(fig4().assignments.len()),
            ..fig4()
        };
        let mut references = Vec::new();
        for platform in [platform_with(10.0), platform_with(20.0)] {
            let direct = platform
                .chrono_chain
                .baseline_noise_reference(
                    platform.chrono_protocol.dt,
                    platform.chrono_protocol.settle,
                    NOISE_REFERENCE_SEED,
                )
                .expect("direct noise reference");
            let recorded = platform
                .reference_noise_for(we_of(&platform, false))
                .expect("recorded noise reference");
            assert_eq!(recorded.value().to_bits(), direct.value().to_bits());
            references.push(recorded.value());
        }
        assert!(references[0] > 0.0, "{references:?}");
        assert_ne!(references[0], references[1]);
    }

    #[test]
    fn session_reads_all_six_targets() {
        let p = fig4();
        let report = p.run_session(&fig4_sample(), 42).expect("session");
        assert_eq!(report.readings().len(), 6);
        for r in report.readings() {
            assert!(r.identified, "{} not identified", r.analyte);
        }
    }

    #[test]
    fn session_estimates_are_in_the_right_ballpark() {
        let p = fig4();
        let sample = fig4_sample();
        let report = p.run_session(&sample, 7).expect("session");
        // Glucose at 3 mM with σ_b-level noise: within ~35%.
        let glucose = report
            .reading_for(Analyte::Glucose)
            .expect("on panel")
            .estimated
            .expect("not saturated");
        assert!(
            (glucose.as_millimolar() - 3.0).abs() < 1.0,
            "glucose estimate {glucose}"
        );
        // Aminopyrine at 4 mM: generous band, CV peak readout is noisier.
        let amino = report
            .reading_for(Analyte::Aminopyrine)
            .expect("on panel")
            .estimated
            .expect("not saturated");
        assert!(
            (amino.as_millimolar() - 4.0).abs() < 2.0,
            "aminopyrine estimate {amino}"
        );
    }

    #[test]
    fn absent_analytes_are_not_identified() {
        let p = fig4();
        // Only glucose present.
        let sample = vec![(Analyte::Glucose, Molar::from_millimolar(3.0))];
        let report = p.run_session(&sample, 3).expect("session");
        let benz = report
            .reading_for(Analyte::Benzphetamine)
            .expect("on panel");
        assert!(!benz.identified, "absent drug flagged as identified");
        let glucose = report.reading_for(Analyte::Glucose).expect("on panel");
        assert!(glucose.identified);
    }

    #[test]
    fn shared_schedule_is_sum_of_measurements() {
        let p = fig4();
        let s = p.schedule();
        assert_eq!(s.slots().len(), 5);
        assert!(!s.has_overlap());
        // 3 chrono at 70 s + 2 CVs (window-dependent) — minutes total.
        assert!(s.total_duration().value() > 250.0, "{}", s.total_duration());
    }

    #[test]
    fn dedicated_sharing_shortens_session() {
        let shared = fig4();
        let dedicated = PlatformBuilder::new(PanelSpec::paper_fig4())
            .with_sharing(ReadoutSharing::Dedicated)
            .build()
            .expect("build");
        assert!(
            dedicated.schedule().total_duration().value()
                < shared.schedule().total_duration().value() / 2.0
        );
        // ... at a higher electronics cost.
        assert!(dedicated.cost().power.value() > 2.0 * shared.cost().power.value());
    }

    #[test]
    fn worst_relative_error_metric() {
        let p = fig4();
        let sample = fig4_sample();
        let report = p.run_session(&sample, 42).expect("session");
        let err = report.worst_relative_error(&sample);
        assert!(err < 1.0, "worst error {err}");
        // Perfect self-comparison: estimated vs estimated → mid errors.
        assert!(err >= 0.0);
    }

    #[test]
    fn redundancy_averages_down_the_noise() {
        use crate::builder::PlatformBuilder;
        let mut panel = PanelSpec::new();
        panel.push(TargetSpec::typical(Analyte::Glucose));
        let single = PlatformBuilder::new(panel.clone()).build().expect("build");
        let triple = PlatformBuilder::new(panel)
            .with_redundancy(3)
            .build()
            .expect("build");
        assert_eq!(single.structure().working_electrodes(), 1);
        assert_eq!(triple.structure().working_electrodes(), 3);

        // Replicate sessions: the tripled platform's response scatter must
        // shrink by roughly √3.
        let sample = [(Analyte::Glucose, Molar::from_millimolar(2.0))];
        let scatter = |p: &Platform, base: u64| {
            let vals: Vec<f64> = (0..32)
                .map(|k| {
                    p.run_session(&sample, base + k)
                        .expect("session")
                        .reading_for(Analyte::Glucose)
                        .expect("on panel")
                        .response
                        .value()
                })
                .collect();
            let mean = vals.iter().sum::<f64>() / vals.len() as f64;
            (vals.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / vals.len() as f64).sqrt()
        };
        let s1 = scatter(&single, 100);
        let s3 = scatter(&triple, 500);
        assert!(
            s3 < 0.8 * s1,
            "redundancy must reduce scatter: {s3} vs {s1}"
        );
        // And a session still reports exactly one merged glucose reading.
        let report = triple.run_session(&sample, 9).expect("session");
        assert_eq!(report.readings().len(), 1);
        assert!(report.readings()[0].identified);
    }

    #[test]
    fn sample_interferents_bias_oxidase_wes_and_cds_restores() {
        // Ascorbate in the sample leaks into every anodic reading unless
        // the platform was built with blank-electrode CDS — §II-C end to
        // end at the platform level.
        let mut panel = PanelSpec::new();
        panel.push(TargetSpec::typical(Analyte::Glucose));
        let sample_clean = vec![(Analyte::Glucose, Molar::from_millimolar(3.0))];
        let sample_dirty = vec![
            (Analyte::Glucose, Molar::from_millimolar(3.0)),
            (Analyte::Ascorbate, Molar::from_millimolar(1.0)),
        ];
        let plain = PlatformBuilder::new(panel.clone()).build().expect("build");
        let with_cds = PlatformBuilder::new(panel)
            .with_cds(true)
            .build()
            .expect("build");

        let read = |p: &Platform, s: &[(Analyte, Molar)]| {
            p.run_session(s, 8)
                .expect("session")
                .reading_for(Analyte::Glucose)
                .expect("on panel")
                .response
                .value()
        };
        let clean = read(&plain, &sample_clean);
        let dirty = read(&plain, &sample_dirty);
        // 1 mM ascorbate at 8 µA/(mM·cm²) on 0.0023 cm² ≈ 18 nA of bias.
        assert!(dirty - clean > 10e-9, "bias {}", dirty - clean);
        let corrected = read(&with_cds, &sample_dirty);
        let clean_cds = read(&with_cds, &sample_clean);
        assert!(
            (corrected - clean_cds).abs() < 5e-9,
            "cds residual {}",
            corrected - clean_cds
        );
    }

    #[test]
    fn open_electrode_is_flagged_quarantined_and_never_silently_reported() {
        use bios_afe::{Fault, FaultKind, FaultPlan};
        use bios_instrument::QcGate;

        let p = fig4();
        let glucose_we = p
            .assignments()
            .iter()
            .find(|a| a.targets().contains(&Analyte::Glucose))
            .expect("on panel")
            .index();
        let plan = FaultPlan::new(77).with_fault(
            glucose_we,
            Fault::immediate(FaultKind::ElectrodeOpen, 1.0).expect("valid"),
        );
        let options = SessionOptions::default()
            .with_fault_plan(plan)
            .with_qc(QcGate::default());
        let report = p
            .run_session_with(&fig4_sample(), 42, &options)
            .expect("session degrades, not errors");

        // Panel stays complete, but the dead electrode's reading is
        // stripped: no estimate, not identified.
        assert_eq!(report.readings().len(), 6);
        let glucose = report.reading_for(Analyte::Glucose).expect("on panel");
        assert!(!glucose.identified);
        assert!(glucose.estimated.is_none());

        // Provenance: final class Fail after all attempts, quarantined.
        let q = report.quality_for(Analyte::Glucose).expect("recorded");
        assert_eq!(q.class, QcClass::Fail);
        assert_eq!(q.attempts, 3, "default policy = 1 try + 2 retries");
        assert!(q.quarantined);
        assert!(!q.reasons.is_empty());

        let d = report.degradation();
        assert_eq!(d.retries, 2);
        assert_eq!(d.quarantined, vec![glucose_we]);
        assert_eq!(d.failed_targets, vec![Analyte::Glucose]);
        assert!(report.is_degraded());

        // Retry slots extend the schedule without overlap.
        assert_eq!(report.schedule().slots().len(), 7);
        assert!(!report.schedule().has_overlap());

        // The other five targets are untouched.
        for r in report.readings() {
            if r.analyte != Analyte::Glucose {
                assert!(r.identified, "{} should survive", r.analyte);
            }
        }
    }

    #[test]
    fn parallel_session_bit_identical_to_sequential() {
        use crate::exec::ExecPolicy;
        use bios_afe::FaultPlan;
        use bios_instrument::QcGate;

        let p = fig4();
        let sample = fig4_sample();
        // Once clean, once with faults and retries in play.
        let option_sets = [
            SessionOptions::default(),
            SessionOptions::default()
                .with_fault_plan(FaultPlan::randomized(901, 5))
                .with_qc(QcGate::default()),
        ];
        for options in option_sets {
            let seq = p
                .run_session_with(
                    &sample,
                    42,
                    &options.clone().with_exec(ExecPolicy::Sequential),
                )
                .expect("sequential");
            for threads in [2, 4] {
                let par = p
                    .run_session_with(
                        &sample,
                        42,
                        &options.clone().with_exec(ExecPolicy::Threads(threads)),
                    )
                    .expect("parallel");
                assert_eq!(par, seq, "threads = {threads}");
            }
        }
    }

    #[test]
    fn faulted_sessions_are_reproducible_under_one_seed() {
        use bios_afe::FaultPlan;
        use bios_instrument::QcGate;

        let p = fig4();
        let options = SessionOptions::default()
            .with_fault_plan(FaultPlan::randomized(901, 5))
            .with_qc(QcGate::default());
        let a = p
            .run_session_with(&fig4_sample(), 13, &options)
            .expect("session");
        let b = p
            .run_session_with(&fig4_sample(), 13, &options)
            .expect("session");
        assert_eq!(a, b, "same seed and options ⇒ identical report");
    }

    #[test]
    fn redundancy_rescues_a_faulted_replicate() {
        use bios_afe::{Fault, FaultKind, FaultPlan};
        use bios_instrument::QcGate;

        let mut panel = PanelSpec::new();
        panel.push(TargetSpec::typical(Analyte::Glucose));
        let triple = PlatformBuilder::new(panel)
            .with_redundancy(3)
            .build()
            .expect("build");
        let plan = FaultPlan::new(5).with_fault(
            0,
            Fault::immediate(FaultKind::ElectrodeOpen, 1.0).expect("valid"),
        );
        let options = SessionOptions::default()
            .with_fault_plan(plan)
            .with_qc(QcGate::default());
        let sample = [(Analyte::Glucose, Molar::from_millimolar(3.0))];
        let report = triple
            .run_session_with(&sample, 21, &options)
            .expect("session");

        // The two healthy replicates outvote the dead one.
        let glucose = report.reading_for(Analyte::Glucose).expect("on panel");
        assert!(glucose.identified, "healthy replicates carry the target");
        assert!(glucose.estimated.is_some());
        let d = report.degradation();
        assert_eq!(d.quarantined, vec![0]);
        assert!(
            d.failed_targets.is_empty(),
            "redundancy kept the target alive"
        );
        // Best replicate quality is a clean pass.
        assert_eq!(
            report
                .quality_for(Analyte::Glucose)
                .expect("recorded")
                .class,
            QcClass::Pass
        );
    }

    #[test]
    fn mm_inversion_round_trips() {
        let kinetics = MichaelisMenten::new(Molar::from_millimolar(36.0)).expect("valid");
        let area = 0.0023;
        let s = 27.7e-3;
        for c_mm in [0.5, 2.0, 4.0, 10.0] {
            let c = Molar::from_millimolar(c_mm);
            let r = area * s * kinetics.km().value() * kinetics.saturation(c);
            let back = invert_mm(r, area, s, &kinetics).expect("not saturated");
            assert!(
                (back.as_millimolar() - c_mm).abs() < 1e-9,
                "{c_mm} mM → {back}"
            );
        }
        // Saturation returns None; negatives clamp to zero.
        assert_eq!(invert_mm(-1e-9, area, s, &kinetics), Some(Molar::ZERO));
        assert_eq!(invert_mm(1.0, area, s, &kinetics), None);
    }
}
