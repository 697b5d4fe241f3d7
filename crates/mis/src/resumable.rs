//! A steppable, checkpointable run driver — the crash-safe core of the
//! resilient harness (`crates/harness`).
//!
//! [`crate::runner::run`] and [`crate::recovery::run_noisy`] execute a whole
//! run inside one function call, so a crash (or a supervisor-imposed budget)
//! loses everything. [`ResumableRun`] is the same execution *inverted into a
//! state machine*: one [`ResumableRun::tick`] per round boundary, with a
//! [`RunCheckpoint`] capturable between any two ticks that contains every
//! bit of mutable run state — simulator checkpoint (states, per-stream RNG
//! positions, churned topology, participation bitmap, channel window), the
//! fault-stream RNG, the event-application cursor and the accumulated
//! trace. Resuming from a checkpoint and running to completion is
//! bit-identical to never having stopped (pinned by tests here and by the
//! crash-injection proptests in `crates/harness`).
//!
//! The round-boundary semantics mirror [`crate::runner::run`] exactly: at
//! boundary `r`, scheduled faults are applied first (in schedule order),
//! then scheduled churn, then — for a moving deployment
//! ([`ResumableConfig::with_motion`]) — one mobility step reconciled into
//! the simulator as a batched edge diff; stabilization is then judged
//! (active-aware, on the live topology) and only counts once `r` has passed
//! the last scheduled event; the budget is a *total* round budget. Under
//! sustained motion the topology never quiesces, so "stabilized" means the
//! current configuration is a valid MIS *on the current graph* — the
//! instantaneous condition the MOB experiment measures. For a fault-only
//! plan on a static graph the outcome, trace and final levels equal
//! [`crate::runner::run`]'s field for field.

use beeping::byzantine::ByzantinePlan;
use beeping::channel::ChannelFault;
use beeping::churn::{ChurnAction, ChurnPlan};
use beeping::dynamic::{DynamicTopology, MotionSpec, MotionState};
use beeping::faults::FaultPlan;
use beeping::rng::aux_rng;
use beeping::trace::Trace;
use beeping::{
    ByzantineError, Checkpoint, ChurnError, EngineMode, FaultError, RestoreError, Simulator,
};
use graphs::Graph;
use rand_pcg::Pcg64Mcg;
use telemetry::{Event, Marker, MarkerKind, Telemetry};

use crate::detector::{Stability, StabilityTracker};
use crate::levels::Level;
use crate::recovery::{apply_churn, claimed_mis};
use crate::runner::{
    corrupt_targets, emit_round, initial_levels, InitialLevels, RunConfig, SelfStabilizingMis,
    FAULT_RNG_PURPOSE,
};

/// Why a run configuration is invalid for its graph. The constructors check
/// every plan up front so the tick loop applies events infallibly — the
/// typed counterpart of the panics documented on [`crate::runner::run`] and
/// [`crate::recovery::run_noisy`].
#[derive(Debug, Clone, PartialEq)]
pub enum PlanError {
    /// The fault schedule is invalid (see [`beeping::faults::FaultError`]).
    Fault(FaultError),
    /// The churn schedule is invalid (see [`beeping::churn::ChurnError`]).
    Churn(ChurnError),
    /// The Byzantine plan is invalid (see
    /// [`beeping::byzantine::ByzantineError`]).
    Byzantine(ByzantineError),
    /// The motion spec is invalid, or the supplied graph is not the spec's
    /// initial deployment (see [`beeping::dynamic::MotionSpec`]).
    Motion(String),
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::Fault(e) => write!(f, "invalid fault plan: {e}"),
            PlanError::Churn(e) => write!(f, "invalid churn plan: {e}"),
            PlanError::Byzantine(e) => write!(f, "invalid byzantine plan: {e}"),
            PlanError::Motion(msg) => write!(f, "invalid motion spec: {msg}"),
        }
    }
}

impl std::error::Error for PlanError {}

impl From<FaultError> for PlanError {
    fn from(e: FaultError) -> PlanError {
        PlanError::Fault(e)
    }
}

impl From<ChurnError> for PlanError {
    fn from(e: ChurnError) -> PlanError {
        PlanError::Churn(e)
    }
}

impl From<ByzantineError> for PlanError {
    fn from(e: ByzantineError) -> PlanError {
        PlanError::Byzantine(e)
    }
}

/// Why a [`RunCheckpoint`] could not be turned back into a live run.
#[derive(Debug, Clone, PartialEq)]
pub enum ResumeError {
    /// The configuration's plans are invalid for the checkpointed graph.
    Plan(PlanError),
    /// The simulator checkpoint is inconsistent (see
    /// [`beeping::RestoreError`]); typical for a snapshot deserialized from
    /// a corrupted file.
    Restore(RestoreError),
}

impl std::fmt::Display for ResumeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ResumeError::Plan(e) => write!(f, "cannot resume: {e}"),
            ResumeError::Restore(e) => write!(f, "cannot resume: {e}"),
        }
    }
}

impl std::error::Error for ResumeError {}

impl From<PlanError> for ResumeError {
    fn from(e: PlanError) -> ResumeError {
        ResumeError::Plan(e)
    }
}

impl From<RestoreError> for ResumeError {
    fn from(e: RestoreError) -> ResumeError {
        ResumeError::Restore(e)
    }
}

/// Configuration of a [`ResumableRun`]: the union of
/// [`crate::runner::RunConfig`] and [`crate::recovery::NoisyRunConfig`]
/// plus a Byzantine plan, so one driver covers all three existing run
/// entry points' fault axes.
#[derive(Debug, Clone)]
pub struct ResumableConfig {
    /// Master seed; every stream (node, init, fault, channel, Byzantine)
    /// derives from it.
    pub seed: u64,
    /// Total round budget; reaching it without stabilizing yields
    /// [`RunStatus::BudgetExhausted`].
    pub max_rounds: u64,
    /// Initial configuration.
    pub init: InitialLevels,
    /// Scheduled RAM corruptions.
    pub faults: FaultPlan,
    /// Scheduled topology changes.
    pub churn: ChurnPlan,
    /// The channel model, active for the whole run.
    pub channel: ChannelFault,
    /// Permanently deviating nodes. Configuration only — it is *not* part
    /// of a [`RunCheckpoint`]; resuming under a different plan is guarded by
    /// the harness snapshot's config fingerprint, not here.
    pub byzantine: ByzantinePlan<Level>,
    /// Optional moving deployment: when set, the topology is the spec's
    /// radius graph, reconciled against the simulator at every round
    /// boundary (after scheduled faults and churn) through the batched
    /// edge-diff path. The motion layer then *owns* the edge set — restrict
    /// churn plans to node leave/join (scheduled edge events are overwritten
    /// at the next reconciliation). Mid-flight positions and the motion-RNG
    /// position live in the [`RunCheckpoint`]; this field is configuration
    /// and is covered by the harness snapshot fingerprint.
    pub motion: Option<MotionSpec>,
    /// Delivery engine (bit-identical choices; see [`EngineMode`]).
    pub engine: EngineMode,
    /// Telemetry handle (disabled by default). Observational only: enabling
    /// it, or resuming with a fresh handle, never changes the execution.
    pub telemetry: Telemetry,
}

impl ResumableConfig {
    /// Defaults matching [`crate::runner::RunConfig::new`]: random initial
    /// levels, a 1,000,000-round budget, no faults, no churn, reliable
    /// channel, no Byzantine nodes.
    pub fn new(seed: u64) -> ResumableConfig {
        ResumableConfig {
            seed,
            max_rounds: 1_000_000,
            init: InitialLevels::Random,
            faults: FaultPlan::new(),
            churn: ChurnPlan::new(),
            channel: ChannelFault::reliable(),
            byzantine: ByzantinePlan::new(),
            motion: None,
            engine: EngineMode::default(),
            telemetry: Telemetry::disabled(),
        }
    }

    /// Sets the total round budget.
    pub fn with_max_rounds(mut self, max_rounds: u64) -> ResumableConfig {
        self.max_rounds = max_rounds;
        self
    }

    /// Sets the initial configuration.
    pub fn with_init(mut self, init: InitialLevels) -> ResumableConfig {
        self.init = init;
        self
    }

    /// Sets the fault schedule.
    pub fn with_faults(mut self, faults: FaultPlan) -> ResumableConfig {
        self.faults = faults;
        self
    }

    /// Sets the churn schedule.
    pub fn with_churn(mut self, churn: ChurnPlan) -> ResumableConfig {
        self.churn = churn;
        self
    }

    /// Sets the channel model.
    pub fn with_channel(mut self, channel: ChannelFault) -> ResumableConfig {
        self.channel = channel;
        self
    }

    /// Sets the Byzantine plan.
    pub fn with_byzantine(mut self, byzantine: ByzantinePlan<Level>) -> ResumableConfig {
        self.byzantine = byzantine;
        self
    }

    /// Attaches a moving deployment (see the `motion` field for the
    /// semantics; the run's graph must be `spec.initial_graph(n)`).
    pub fn with_motion(mut self, motion: MotionSpec) -> ResumableConfig {
        self.motion = Some(motion);
        self
    }

    /// Selects the simulator delivery engine.
    pub fn with_engine(mut self, engine: EngineMode) -> ResumableConfig {
        self.engine = engine;
        self
    }

    /// Attaches a telemetry handle.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> ResumableConfig {
        self.telemetry = telemetry;
        self
    }
}

/// Where a [`ResumableRun`] stands after a tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunStatus {
    /// More rounds to execute.
    Running,
    /// Stabilized (`S_t = V` on the live topology, past the last scheduled
    /// event).
    Stabilized,
    /// The total round budget ran out first.
    BudgetExhausted,
}

/// The final observables of a finished [`ResumableRun`].
#[derive(Debug, Clone)]
pub struct ResumableOutcome {
    /// `true` if the run stabilized within budget.
    pub stabilized: bool,
    /// Total rounds executed.
    pub rounds_run: u64,
    /// Fault-free rounds from the last scheduled event to stabilization
    /// (the paper's measure); `None` if the budget ran out.
    pub stabilization_round: Option<u64>,
    /// Final levels.
    pub levels: Vec<Level>,
    /// [`crate::recovery::claimed_mis`] of the final configuration
    /// (active-aware).
    pub mis: Vec<bool>,
    /// Final participation bitmap (after all churn).
    pub active: Vec<bool>,
    /// Per-round beep activity over the whole run.
    pub trace: Trace,
}

/// Everything mutable about a run, capturable between any two ticks. The
/// serialization target of the harness snapshot codec: configuration
/// (plans, channel model, engine) is deliberately *not* inside — it is
/// reconstructed from the caller's [`ResumableConfig`] and guarded by a
/// fingerprint at the file layer.
#[derive(Debug, Clone)]
pub struct RunCheckpoint {
    /// The complete simulator state: levels, per-node RNG positions, round
    /// counter, last-round signals, churned topology, participation bitmap,
    /// channel window and the channel/Byzantine stream positions.
    pub sim: Checkpoint<Level>,
    /// The fault-injection stream position (shared by corruptions and churn
    /// boot levels).
    pub fault_rng: Pcg64Mcg,
    /// The event-application cursor: the last round boundary whose
    /// scheduled events have fired. Without it, a checkpoint taken right
    /// after an event boundary would re-apply the events on resume.
    pub applied_through: Option<u64>,
    /// The accumulated per-round trace, so an interrupted-and-resumed run
    /// reports the same full trace as an uninterrupted one.
    pub trace: Trace,
    /// Mid-flight mobility state (positions, per-node model state, motion
    /// RNG position); `Some` exactly when the configuration carries a
    /// [`MotionSpec`].
    pub motion: Option<MotionState>,
}

/// A stabilization run inverted into a state machine; see the module docs.
pub struct ResumableRun<A: SelfStabilizingMis> {
    sim: Simulator<'static, A>,
    algo: A,
    config: ResumableConfig,
    fault_rng: Pcg64Mcg,
    motion: Option<DynamicTopology>,
    trace: Trace,
    /// Derived from the simulator, so never part of a checkpoint: a
    /// resumed run starts with a fresh tracker and rebuilds it.
    detector: StabilityTracker,
    /// The observation the last round event was built from, reused by the
    /// next stop check when no event touches the simulator in between.
    after_step: Option<Stability>,
    last_event_round: u64,
    applied_through: Option<u64>,
    status: RunStatus,
    /// Crash instrumentation for the harness test rig: panic immediately
    /// before executing this round. `None` in production use.
    crash_before_round: Option<u64>,
}

impl<A: SelfStabilizingMis> ResumableRun<A> {
    /// Starts a fresh run of `algo` on `graph` under `config`.
    ///
    /// # Errors
    ///
    /// Returns a [`PlanError`] if any schedule (faults, churn, Byzantine)
    /// is invalid for this graph, so the tick loop never panics on event
    /// application.
    pub fn new(
        graph: &Graph,
        algo: &A,
        config: ResumableConfig,
    ) -> Result<ResumableRun<A>, PlanError> {
        Self::validate_plans(&config, algo, graph.len())?;
        let motion = match &config.motion {
            Some(spec) => {
                let dt = DynamicTopology::new(graph.len(), spec, config.seed)
                    .map_err(|e| PlanError::Motion(e.to_string()))?;
                if dt.graph() != graph {
                    return Err(PlanError::Motion(
                        "graph is not the spec's initial deployment \
                         (use MotionSpec::initial_graph)"
                            .into(),
                    ));
                }
                Some(dt)
            }
            None => None,
        };
        let run_config = RunConfig::new(config.seed).with_init(config.init.clone());
        let levels = initial_levels(algo, &run_config);
        let sim = Self::build_sim(graph.clone(), algo, &config, levels);
        if config.telemetry.is_enabled() {
            config.telemetry.record(Event::RunStart {
                label: "resumable".into(),
                n: graph.len() as u64,
                seed: config.seed,
            });
        }
        Ok(ResumableRun {
            sim,
            algo: algo.clone(),
            fault_rng: aux_rng(config.seed, FAULT_RNG_PURPOSE),
            motion,
            trace: Trace::new(),
            detector: StabilityTracker::new(),
            after_step: None,
            last_event_round: Self::last_event_round(&config),
            applied_through: None,
            status: RunStatus::Running,
            crash_before_round: None,
            config,
        })
    }

    /// Rebuilds a run at the exact point `checkpoint` was captured. The
    /// caller supplies the same `algo` and `config` the original run used
    /// (the harness snapshot layer enforces this with a fingerprint);
    /// continuing is then bit-identical to never having stopped.
    ///
    /// # Errors
    ///
    /// [`ResumeError::Plan`] if the configuration is invalid for the
    /// checkpointed graph, [`ResumeError::Restore`] if the checkpoint's own
    /// vectors are inconsistent (a corrupted or hand-built snapshot).
    pub fn resume(
        algo: &A,
        config: ResumableConfig,
        checkpoint: &RunCheckpoint,
    ) -> Result<ResumableRun<A>, ResumeError> {
        let n = checkpoint.sim.graph().len();
        Self::validate_plans(&config, algo, n)?;
        let motion =
            match (&config.motion, &checkpoint.motion) {
                (Some(spec), Some(state)) => Some(
                    DynamicTopology::from_state(spec, state)
                        .map_err(|e| ResumeError::Plan(PlanError::Motion(e.to_string())))?,
                ),
                (None, None) => None,
                (Some(_), None) => return Err(ResumeError::Plan(PlanError::Motion(
                    "configuration carries a motion spec but the checkpoint has no motion state"
                        .into(),
                ))),
                (None, Some(_)) => {
                    return Err(ResumeError::Plan(PlanError::Motion(
                        "checkpoint carries motion state but the configuration has no motion spec"
                            .into(),
                    )))
                }
            };
        let levels = checkpoint.sim.states().to_vec();
        let mut sim = Self::build_sim(checkpoint.sim.graph().clone(), algo, &config, levels);
        sim.restore(&checkpoint.sim)?;
        Ok(ResumableRun {
            sim,
            algo: algo.clone(),
            fault_rng: checkpoint.fault_rng.clone(),
            motion,
            trace: checkpoint.trace.clone(),
            detector: StabilityTracker::new(),
            after_step: None,
            last_event_round: Self::last_event_round(&config),
            applied_through: checkpoint.applied_through,
            status: RunStatus::Running,
            crash_before_round: None,
            config,
        })
    }

    fn validate_plans(config: &ResumableConfig, algo: &A, n: usize) -> Result<(), PlanError> {
        config.faults.validate(n)?;
        config.churn.validate(n)?;
        config.byzantine.validate(n, algo.channels())?;
        Ok(())
    }

    fn build_sim(
        graph: Graph,
        algo: &A,
        config: &ResumableConfig,
        levels: Vec<Level>,
    ) -> Simulator<'static, A> {
        let mut sim = Simulator::new_owned(graph, algo.clone(), levels, config.seed)
            .with_channel(config.channel.clone())
            .with_engine(config.engine)
            .with_telemetry(config.telemetry.clone());
        if !config.byzantine.is_empty() {
            sim = sim.with_byzantine(config.byzantine.clone());
        }
        sim
    }

    fn last_event_round(config: &ResumableConfig) -> u64 {
        config
            .faults
            .last_fault_round()
            .unwrap_or(0)
            .max(config.churn.last_event_round().unwrap_or(0))
    }

    /// Executes one round boundary: applies any events scheduled at the
    /// current round (faults first, then churn — once, even across a
    /// checkpoint/resume), re-judges stabilization and the budget, and if
    /// the run is still live, steps the simulator one round.
    ///
    /// Returns the status *after* this tick; once it leaves
    /// [`RunStatus::Running`], further ticks are no-ops.
    pub fn tick(&mut self) -> RunStatus {
        if self.status != RunStatus::Running {
            return self.status;
        }
        let r = self.sim.round();
        let tele = self.config.telemetry.clone();
        let mut observed = self.after_step.take();
        if self.applied_through != Some(r) {
            if self.motion.is_some()
                || self.config.faults.events_after_round(r).next().is_some()
                || self.config.churn.events_after_round(r).next().is_some()
            {
                observed = None;
            }
            for fault in self.config.faults.events_after_round(r) {
                let corrupted =
                    corrupt_targets(&mut self.sim, &self.algo, &fault.target, &mut self.fault_rng);
                if tele.is_enabled() {
                    tele.record(Event::Marker(Marker {
                        round: r,
                        kind: MarkerKind::Fault,
                        detail: "corrupt".into(),
                        magnitude: corrupted as u64,
                    }));
                }
            }
            let churn_actions: Vec<ChurnAction> =
                self.config.churn.events_after_round(r).map(|e| e.action.clone()).collect();
            for action in churn_actions {
                apply_churn(&mut self.sim, &self.algo, &action, &mut self.fault_rng);
                if tele.is_enabled() {
                    tele.record(Event::Marker(Marker {
                        round: r,
                        kind: MarkerKind::Churn,
                        detail: "churn".into(),
                        magnitude: 1,
                    }));
                }
            }
            if let Some(dt) = &mut self.motion {
                let (added, removed) = dt.advance(&mut self.sim);
                if tele.is_enabled() && added + removed > 0 {
                    tele.record(Event::Marker(Marker {
                        round: r,
                        kind: MarkerKind::Motion,
                        detail: "reconcile".into(),
                        magnitude: (added + removed) as u64,
                    }));
                }
            }
            self.applied_through = Some(r);
        }
        if r >= self.last_event_round
            && observed
                .unwrap_or_else(|| self.detector.observe(&self.algo, &self.sim))
                .is_stabilized()
        {
            self.status = RunStatus::Stabilized;
            return self.finish(true);
        }
        if r >= self.config.max_rounds {
            self.status = RunStatus::BudgetExhausted;
            return self.finish(false);
        }
        if self.crash_before_round == Some(r + 1) {
            panic!("crash injection: killed before round {}", r + 1);
        }
        let report = self.sim.step();
        if tele.is_enabled() {
            let stability = self.detector.observe(&self.algo, &self.sim);
            emit_round(&tele, &self.sim, &report, stability);
            self.after_step = Some(stability);
        }
        self.trace.push(report);
        self.status
    }

    fn finish(&mut self, stabilized: bool) -> RunStatus {
        let tele = &self.config.telemetry;
        if tele.is_enabled() {
            let rounds = self.sim.round();
            tele.record(Event::RunEnd {
                rounds,
                stabilized,
                stabilization_round: stabilized
                    .then(|| rounds.saturating_sub(self.last_event_round)),
            });
            tele.finish();
        }
        self.status
    }

    /// Ticks until the run leaves [`RunStatus::Running`].
    pub fn run_to_completion(&mut self) -> RunStatus {
        while self.tick() == RunStatus::Running {}
        self.status
    }

    /// Captures the complete mutable run state; see [`RunCheckpoint`].
    pub fn checkpoint(&self) -> RunCheckpoint {
        RunCheckpoint {
            sim: self.sim.checkpoint(),
            fault_rng: self.fault_rng.clone(),
            applied_through: self.applied_through,
            trace: self.trace.clone(),
            motion: self.motion.as_ref().map(DynamicTopology::state),
        }
    }

    /// The final observables; `None` while still [`RunStatus::Running`].
    pub fn outcome(&self) -> Option<ResumableOutcome> {
        if self.status == RunStatus::Running {
            return None;
        }
        let stabilized = self.status == RunStatus::Stabilized;
        Some(ResumableOutcome {
            stabilized,
            rounds_run: self.sim.round(),
            stabilization_round: stabilized
                .then(|| self.sim.round().saturating_sub(self.last_event_round)),
            levels: self.sim.states().to_vec(),
            mis: claimed_mis(&self.algo, self.sim.graph(), self.sim.states(), self.sim.active()),
            active: self.sim.active().to_vec(),
            trace: self.trace.clone(),
        })
    }

    /// Current status without ticking.
    pub fn status(&self) -> RunStatus {
        self.status
    }

    /// The current round (number of rounds executed so far).
    pub fn round(&self) -> u64 {
        self.sim.round()
    }

    /// The trace accumulated so far.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Current per-node levels (including crashed/departed nodes' last
    /// state). Cheap borrow for per-round predicates — no checkpoint clone.
    pub fn levels(&self) -> &[Level] {
        self.sim.states()
    }

    /// The current topology (reflects churn and motion applied so far).
    pub fn graph(&self) -> &Graph {
        self.sim.graph()
    }

    /// The current participation bitmap.
    pub fn active(&self) -> &[bool] {
        self.sim.active()
    }

    /// The configuration this run executes under.
    pub fn config(&self) -> &ResumableConfig {
        &self.config
    }

    /// Arms (or disarms) the crash-injection trigger: the tick that would
    /// execute `round` panics instead, simulating a process kill at an
    /// exact, reproducible point. Test instrumentation for the harness
    /// supervisor's panic isolation; never set in production paths.
    pub fn set_crash_before_round(&mut self, round: Option<u64>) {
        self.crash_before_round = round;
    }
}

impl<A: SelfStabilizingMis> std::fmt::Debug for ResumableRun<A> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResumableRun")
            .field("round", &self.sim.round())
            .field("status", &self.status)
            .field("applied_through", &self.applied_through)
            .field("last_event_round", &self.last_event_round)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm1::Algorithm1;
    use crate::algorithm2::Algorithm2;
    use crate::policy::LmaxPolicy;
    use crate::runner::run;
    use beeping::byzantine::ByzantineBehavior;
    use beeping::faults::FaultTarget;
    use graphs::generators::{classic, random};

    #[test]
    fn matches_runner_field_for_field() {
        // Fault-only plan on a static graph: the resumable driver is the
        // runner's loop rotated into a state machine, so every observable
        // must coincide.
        let g = random::gnp(40, 0.1, 5);
        let algo = Algorithm1::new(&g, LmaxPolicy::global_delta(&g));
        let faults = FaultPlan::new().with_fault(30, FaultTarget::All);
        let reference =
            run(&g, &algo, RunConfig::new(5).with_faults(faults.clone())).expect("stabilizes");

        let mut resumable =
            ResumableRun::new(&g, &algo, ResumableConfig::new(5).with_faults(faults)).unwrap();
        assert_eq!(resumable.run_to_completion(), RunStatus::Stabilized);
        let outcome = resumable.outcome().unwrap();
        assert_eq!(outcome.rounds_run, reference.rounds_run);
        assert_eq!(outcome.stabilization_round, Some(reference.stabilization_round));
        assert_eq!(outcome.levels, reference.levels);
        assert_eq!(outcome.mis, reference.mis);
        assert_eq!(outcome.trace.reports(), reference.trace.reports());
    }

    #[test]
    fn checkpoint_resume_is_bit_identical() {
        // Compose all four fault axes, interrupt at an arbitrary point,
        // resume, and compare against the uninterrupted run.
        let g = random::gnp(30, 0.15, 9);
        let algo = Algorithm1::new(&g, LmaxPolicy::global_delta(&g));
        let config = || {
            ResumableConfig::new(9)
                .with_max_rounds(200_000)
                .with_channel(ChannelFault::reliable().with_drop(0.02))
                .with_faults(FaultPlan::new().with_fault(50, FaultTarget::RandomFraction(0.4)))
                .with_churn(
                    ChurnPlan::new()
                        .with_event(80, ChurnAction::NodeLeave(3))
                        .with_event(120, ChurnAction::NodeJoin(3, vec![0, 5])),
                )
                .with_byzantine(
                    ByzantinePlan::new().with_behavior(7, ByzantineBehavior::Babbler(0.3)),
                )
        };
        let mut straight = ResumableRun::new(&g, &algo, config()).unwrap();
        straight.run_to_completion();
        let reference = straight.outcome().unwrap();

        for interrupt_after in [0u64, 1, 49, 50, 79, 80, 100] {
            let mut first = ResumableRun::new(&g, &algo, config()).unwrap();
            for _ in 0..interrupt_after {
                if first.tick() != RunStatus::Running {
                    break;
                }
            }
            let cp = first.checkpoint();
            drop(first); // the "crash"
            let mut second = ResumableRun::resume(&algo, config(), &cp).unwrap();
            second.run_to_completion();
            let resumed = second.outcome().unwrap();
            assert_eq!(resumed.rounds_run, reference.rounds_run, "kill at {interrupt_after}");
            assert_eq!(resumed.levels, reference.levels, "kill at {interrupt_after}");
            assert_eq!(resumed.mis, reference.mis, "kill at {interrupt_after}");
            assert_eq!(resumed.active, reference.active, "kill at {interrupt_after}");
            assert_eq!(
                resumed.trace.reports(),
                reference.trace.reports(),
                "kill at {interrupt_after}"
            );
        }
    }

    #[test]
    fn budget_exhaustion_is_reported() {
        let g = random::gnp(60, 0.2, 4);
        let algo = Algorithm1::new(&g, LmaxPolicy::global_delta(&g));
        let mut run =
            ResumableRun::new(&g, &algo, ResumableConfig::new(1).with_max_rounds(1)).unwrap();
        assert_eq!(run.run_to_completion(), RunStatus::BudgetExhausted);
        let outcome = run.outcome().unwrap();
        assert!(!outcome.stabilized);
        assert_eq!(outcome.stabilization_round, None);
        assert_eq!(outcome.rounds_run, 1);
    }

    #[test]
    fn invalid_plans_are_typed_errors() {
        let g = classic::path(3);
        let algo = Algorithm1::new(&g, LmaxPolicy::global_delta(&g));
        let churn_err = ResumableRun::new(
            &g,
            &algo,
            ResumableConfig::new(0)
                .with_churn(ChurnPlan::new().with_event(1, ChurnAction::NodeLeave(9))),
        )
        .unwrap_err();
        assert_eq!(churn_err, PlanError::Churn(ChurnError::NodeOutOfRange { node: 9, n: 3 }));
        assert!(churn_err.to_string().contains("churn"));

        let fault_err = ResumableRun::new(
            &g,
            &algo,
            ResumableConfig::new(0)
                .with_faults(FaultPlan::new().with_fault(1, FaultTarget::Nodes(vec![9]))),
        )
        .unwrap_err();
        assert!(matches!(fault_err, PlanError::Fault(_)));

        let byz_err = ResumableRun::new(
            &g,
            &algo,
            ResumableConfig::new(0).with_byzantine(
                ByzantinePlan::new().with_behavior(9, ByzantineBehavior::StuckBeep),
            ),
        )
        .unwrap_err();
        assert!(matches!(byz_err, PlanError::Byzantine(_)));
    }

    #[test]
    fn crash_injection_panics_at_the_armed_round() {
        let g = classic::cycle(8);
        let algo = Algorithm1::new(&g, LmaxPolicy::global_delta(&g));
        let mut run = ResumableRun::new(&g, &algo, ResumableConfig::new(2)).unwrap();
        run.set_crash_before_round(Some(3));
        run.tick();
        run.tick();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run.tick()));
        let message = *caught.unwrap_err().downcast::<String>().unwrap();
        assert!(message.contains("crash injection"), "{message}");
    }

    #[test]
    fn motion_checkpoint_resume_is_bit_identical() {
        // The moving-graph counterpart of `checkpoint_resume_is_bit_identical`:
        // a random-waypoint deployment composed with noise, node churn and a
        // Byzantine node, interrupted at several points. The stuck beeper
        // keeps the run from ever stabilizing under sustained motion, so the
        // budget is deliberately small — bit-identity at budget exhaustion is
        // exactly as strong a check as at stabilization.
        use beeping::dynamic::MotionSpec;
        use graphs::motion::MotionModel;
        let spec = MotionSpec::new(
            0x600D,
            graphs::generators::geometric::radius_for_expected_degree(32, 6.0),
            MotionModel::RandomWaypoint { speed: 0.02, pause: 2 },
        );
        let g = spec.initial_graph(32);
        let algo = Algorithm1::new(&g, LmaxPolicy::global_delta(&g));
        let config = || {
            ResumableConfig::new(13)
                .with_max_rounds(300)
                .with_motion(spec)
                .with_channel(ChannelFault::reliable().with_drop(0.01))
                .with_churn(
                    ChurnPlan::new()
                        .with_event(20, ChurnAction::NodeLeave(4))
                        .with_event(45, ChurnAction::NodeJoin(4, vec![])),
                )
                .with_byzantine(ByzantinePlan::new().with_behavior(9, ByzantineBehavior::StuckBeep))
        };
        let mut straight = ResumableRun::new(&g, &algo, config()).unwrap();
        straight.run_to_completion();
        let reference = straight.outcome().unwrap();

        for interrupt_after in [0u64, 1, 19, 20, 44, 45, 60] {
            let mut first = ResumableRun::new(&g, &algo, config()).unwrap();
            for _ in 0..interrupt_after {
                if first.tick() != RunStatus::Running {
                    break;
                }
            }
            let cp = first.checkpoint();
            assert!(cp.motion.is_some());
            drop(first);
            let mut second = ResumableRun::resume(&algo, config(), &cp).unwrap();
            second.run_to_completion();
            let resumed = second.outcome().unwrap();
            assert_eq!(resumed.rounds_run, reference.rounds_run, "kill at {interrupt_after}");
            assert_eq!(resumed.levels, reference.levels, "kill at {interrupt_after}");
            assert_eq!(resumed.active, reference.active, "kill at {interrupt_after}");
            assert_eq!(
                resumed.trace.reports(),
                reference.trace.reports(),
                "kill at {interrupt_after}"
            );
        }
    }

    #[test]
    fn motion_requires_the_spec_deployment_graph() {
        use beeping::dynamic::MotionSpec;
        use graphs::motion::MotionModel;
        let spec = MotionSpec::new(0x600D, 0.2, MotionModel::Drift { speed: 0.03, turn: 0.4 });
        let wrong = random::gnp(16, 0.2, 3);
        let algo = Algorithm1::new(&wrong, LmaxPolicy::global_delta(&wrong));
        let err = ResumableRun::new(&wrong, &algo, ResumableConfig::new(1).with_motion(spec))
            .unwrap_err();
        assert!(matches!(err, PlanError::Motion(_)));
        assert!(err.to_string().contains("motion"));
    }

    #[test]
    fn motion_resume_rejects_presence_mismatch() {
        use beeping::dynamic::MotionSpec;
        use graphs::motion::MotionModel;
        let spec = MotionSpec::new(
            0x600D,
            graphs::generators::geometric::radius_for_expected_degree(16, 4.0),
            MotionModel::RandomWaypoint { speed: 0.02, pause: 0 },
        );
        let g = spec.initial_graph(16);
        let algo = Algorithm1::new(&g, LmaxPolicy::global_delta(&g));
        // Motion run, resumed under a motionless config.
        let mut run =
            ResumableRun::new(&g, &algo, ResumableConfig::new(2).with_motion(spec)).unwrap();
        run.tick();
        let cp = run.checkpoint();
        let err = ResumableRun::resume(&algo, ResumableConfig::new(2), &cp).unwrap_err();
        assert!(matches!(err, ResumeError::Plan(PlanError::Motion(_))));
        // Motionless run, resumed under a motion config.
        let mut run = ResumableRun::new(&g, &algo, ResumableConfig::new(2)).unwrap();
        run.tick();
        let cp = run.checkpoint();
        let err = ResumableRun::resume(&algo, ResumableConfig::new(2).with_motion(spec), &cp)
            .unwrap_err();
        assert!(matches!(err, ResumeError::Plan(PlanError::Motion(_))));
    }

    #[test]
    fn two_channel_algorithm_resumes_identically() {
        let g = random::gnp(25, 0.15, 11);
        let algo = Algorithm2::new(&g, LmaxPolicy::two_hop_degree(&g));
        let config = || {
            ResumableConfig::new(11)
                .with_faults(FaultPlan::new().with_fault(40, FaultTarget::RandomFraction(0.5)))
        };
        let mut straight = ResumableRun::new(&g, &algo, config()).unwrap();
        straight.run_to_completion();
        let reference = straight.outcome().unwrap();

        let mut first = ResumableRun::new(&g, &algo, config()).unwrap();
        for _ in 0..25 {
            first.tick();
        }
        let cp = first.checkpoint();
        let mut second = ResumableRun::resume(&algo, config(), &cp).unwrap();
        second.run_to_completion();
        let resumed = second.outcome().unwrap();
        assert_eq!(resumed.levels, reference.levels);
        assert_eq!(resumed.trace.reports(), reference.trace.reports());
    }
}
