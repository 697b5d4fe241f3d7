//! High-level "run to stabilization" API over the beeping simulator.
//!
//! Self-stabilization is always measured the way the paper defines it
//! (§1.1): start from an *arbitrary* configuration (or corrupt a running
//! one), count fault-free rounds until the stable set covers the graph
//! (`S_t = V`), at which point the configuration is a fixpoint and `I_t` is
//! an MIS.

use beeping::faults::{FaultPlan, FaultTarget};
use beeping::rng::aux_rng;
use beeping::trace::{RoundReport, Trace};
use beeping::{BeepingProtocol, EngineMode, Simulator};
use graphs::Graph;
use rand::Rng;
use rand_pcg::Pcg64Mcg;
use telemetry::{Event, Marker, MarkerKind, RoundEvent, Telemetry};

use crate::algorithm1::Algorithm1;
use crate::algorithm2::Algorithm2;
use crate::detector::{Stability, StabilityTracker};
use crate::levels::{self, clamp_level, clamp_level_two_channel, state_space_bounds, Level};
use crate::policy::LmaxPolicy;

/// Purpose tag of the fault-injection RNG stream (see
/// [`beeping::rng::aux_rng`]); shared with [`crate::recovery`] so the
/// zero-noise path reproduces this module's corruptions exactly.
pub(crate) const FAULT_RNG_PURPOSE: u64 = 0xFA17;

/// Purpose tag of the initial-configuration RNG stream.
pub(crate) const INIT_RNG_PURPOSE: u64 = 0xC0FF_EE00;

/// How the (adversarial) initial configuration is chosen.
///
/// A self-stabilizing algorithm must converge from *every* initial
/// configuration; these variants cover the interesting corners plus uniform
/// random.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InitialLevels {
    /// Each level uniform over the node's full state space — the canonical
    /// "arbitrary RAM contents".
    Random,
    /// Every vertex at its `ℓmax` (everyone silent, "not in MIS"): the
    /// slowest-to-wake corner.
    AllMax,
    /// Every vertex claims MIS membership (`-ℓmax` for Algorithm 1, `0` for
    /// Algorithm 2): maximal inconsistency.
    AllClaiming,
    /// Every vertex at `ℓ = 1` (beep probability ½) — the analogue of the
    /// Jeavons–Scott–Xu clean start `p₁(v) = ½`.
    AllOne,
    /// Explicit raw values, clamped into each node's state space.
    Custom(Vec<i64>),
}

impl InitialLevels {
    fn sample(
        &self,
        policy: &LmaxPolicy,
        clamp: impl Fn(i64, Level) -> Level,
        claim: impl Fn(Level) -> Level,
        rng: &mut Pcg64Mcg,
        low_is_claim: bool,
    ) -> Vec<Level> {
        policy
            .lmax_values()
            .iter()
            .enumerate()
            .map(|(v, &lmax)| match self {
                InitialLevels::Random => {
                    let (low, high) = state_space_bounds(lmax, low_is_claim);
                    clamp(rng.gen_range(low..=high), lmax)
                }
                InitialLevels::AllMax => lmax,
                InitialLevels::AllClaiming => claim(lmax),
                InitialLevels::AllOne => 1,
                InitialLevels::Custom(values) => clamp(values[v], lmax),
            })
            .collect()
    }
}

/// Configuration of a stabilization run.
///
/// # Example
///
/// ```
/// use beeping::faults::{FaultPlan, FaultTarget};
/// use mis::runner::{InitialLevels, RunConfig};
///
/// let config = RunConfig::new(42)
///     .with_init(InitialLevels::AllClaiming)
///     .with_max_rounds(50_000)
///     .with_faults(FaultPlan::new().with_fault(100, FaultTarget::RandomFraction(0.2)));
/// assert_eq!(config.seed, 42);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RunConfig {
    /// Master seed for node randomness, initial levels and fault targets.
    pub seed: u64,
    /// Round budget; exceeding it yields [`StabilizationError`].
    pub max_rounds: u64,
    /// Initial configuration.
    pub init: InitialLevels,
    /// Scheduled transient faults (corrupted nodes get uniform-random
    /// levels — arbitrary RAM contents).
    pub faults: FaultPlan,
    /// Record a full level snapshot after every round (memory-heavy; for
    /// lemma-level experiments on small graphs only).
    pub record_levels: bool,
    /// Delivery engine for the underlying simulator. Both engines are
    /// bit-identical per seed; `Scalar` is the reference implementation kept
    /// for differential testing.
    pub engine: EngineMode,
    /// Telemetry handle (disabled by default). When enabled, the run emits
    /// a `RunStart`, one [`telemetry::RoundEvent`] per executed round
    /// (counters, claimed-MIS and stable-set sizes, level histograms at the
    /// configured stride), a fault [`telemetry::Marker`] per corruption
    /// burst, and a closing `RunEnd` + metrics snapshot. Telemetry observes
    /// only — enabling it never changes the run's outcome.
    pub telemetry: Telemetry,
}

impl RunConfig {
    /// Default configuration: random initial levels, a 1,000,000-round
    /// budget, no faults, no level recording.
    pub fn new(seed: u64) -> RunConfig {
        RunConfig {
            seed,
            max_rounds: 1_000_000,
            init: InitialLevels::Random,
            faults: FaultPlan::new(),
            record_levels: false,
            engine: EngineMode::default(),
            telemetry: Telemetry::disabled(),
        }
    }

    /// Sets the initial configuration.
    pub fn with_init(mut self, init: InitialLevels) -> RunConfig {
        self.init = init;
        self
    }

    /// Sets the round budget.
    pub fn with_max_rounds(mut self, max_rounds: u64) -> RunConfig {
        self.max_rounds = max_rounds;
        self
    }

    /// Sets the fault schedule.
    pub fn with_faults(mut self, faults: FaultPlan) -> RunConfig {
        self.faults = faults;
        self
    }

    /// Enables per-round level snapshots.
    pub fn with_level_recording(mut self) -> RunConfig {
        self.record_levels = true;
        self
    }

    /// Selects the simulator delivery engine.
    pub fn with_engine(mut self, engine: EngineMode) -> RunConfig {
        self.engine = engine;
        self
    }

    /// Attaches a telemetry handle.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> RunConfig {
        self.telemetry = telemetry;
        self
    }
}

/// The result of a successful stabilization run.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// The computed maximal independent set.
    pub mis: Vec<bool>,
    /// Final levels.
    pub levels: Vec<Level>,
    /// First round at which `S_t = V` held **after the last scheduled
    /// fault** (the paper's stabilization time: fault-free rounds from the
    /// last corruption; equals total rounds when no faults are scheduled).
    pub stabilization_round: u64,
    /// Total rounds executed (`≥ stabilization_round` when faults delayed
    /// measurement).
    pub rounds_run: u64,
    /// Per-round beep activity.
    pub trace: Trace,
    /// Level snapshots per round (entry `t` = levels *after* round `t+1`),
    /// present when [`RunConfig::record_levels`] was set. The initial
    /// configuration is prepended as entry 0.
    pub level_history: Option<Vec<Vec<Level>>>,
}

/// The round budget ran out before stabilization.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StabilizationError {
    /// The exhausted budget.
    pub max_rounds: u64,
    /// How many vertices were stable when the budget ran out.
    pub stable_count: usize,
    /// Graph size, for context.
    pub n: usize,
}

impl std::fmt::Display for StabilizationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "not stabilized after {} rounds ({}/{} vertices stable)",
            self.max_rounds, self.stable_count, self.n
        )
    }
}

impl std::error::Error for StabilizationError {}

/// Shared behavior of the paper's two self-stabilizing protocols, enabling
/// experiment code generic over the algorithm variant.
///
/// This trait is sealed in spirit: it is implemented by [`Algorithm1`] and
/// [`Algorithm2`] and not intended for downstream implementations.
pub trait SelfStabilizingMis: BeepingProtocol<State = Level> + Clone {
    /// The knowledge policy in use.
    fn policy(&self) -> &LmaxPolicy;

    /// `S_t = V` for this algorithm's stability semantics.
    fn stabilized(&self, graph: &Graph, levels: &[Level]) -> bool;

    /// The stable MIS members of a snapshot.
    fn mis_of(&self, graph: &Graph, levels: &[Level]) -> Vec<bool>;

    /// Clamps a raw integer into this algorithm's per-node state space.
    fn clamp_raw(&self, raw: i64, lmax: Level) -> Level;

    /// The "I claim MIS membership" level (`-ℓmax` / `0`).
    fn claiming_level(&self, lmax: Level) -> Level;

    /// `true` if the state space extends below zero (Algorithm 1).
    fn has_negative_levels(&self) -> bool;
}

impl SelfStabilizingMis for Algorithm1 {
    fn policy(&self) -> &LmaxPolicy {
        Algorithm1::policy(self)
    }
    fn stabilized(&self, graph: &Graph, levels: &[Level]) -> bool {
        self.is_stabilized(graph, levels)
    }
    fn mis_of(&self, graph: &Graph, levels: &[Level]) -> Vec<bool> {
        self.mis_members(graph, levels)
    }
    fn clamp_raw(&self, raw: i64, lmax: Level) -> Level {
        clamp_level(raw, lmax)
    }
    fn claiming_level(&self, lmax: Level) -> Level {
        levels::claiming_level(lmax)
    }
    fn has_negative_levels(&self) -> bool {
        true
    }
}

impl SelfStabilizingMis for Algorithm2 {
    fn policy(&self) -> &LmaxPolicy {
        Algorithm2::policy(self)
    }
    fn stabilized(&self, graph: &Graph, levels: &[Level]) -> bool {
        self.is_stabilized(graph, levels)
    }
    fn mis_of(&self, graph: &Graph, levels: &[Level]) -> Vec<bool> {
        self.mis_members(graph, levels)
    }
    fn clamp_raw(&self, raw: i64, lmax: Level) -> Level {
        clamp_level_two_channel(raw, lmax)
    }
    fn claiming_level(&self, _lmax: Level) -> Level {
        0
    }
    fn has_negative_levels(&self) -> bool {
        false
    }
}

/// Samples the initial configuration for `algo` under `config`.
pub fn initial_levels<A: SelfStabilizingMis>(algo: &A, config: &RunConfig) -> Vec<Level> {
    let mut rng = aux_rng(config.seed, INIT_RNG_PURPOSE);
    config.init.sample(
        algo.policy(),
        |raw, lmax| algo.clamp_raw(raw, lmax),
        |lmax| algo.claiming_level(lmax),
        &mut rng,
        algo.has_negative_levels(),
    )
}

/// Runs `algo` on `graph` until stabilization, honoring the fault schedule.
///
/// # Errors
///
/// Returns [`StabilizationError`] if `config.max_rounds` rounds elapse
/// without reaching `S_t = V` after the last fault.
///
/// # Panics
///
/// Panics if the fault schedule is invalid for this graph (explicit node id
/// out of range, `RandomCount` above `n`, fraction outside `[0, 1]`) —
/// checked up front so the round loop's fault application is infallible.
pub fn run<A: SelfStabilizingMis>(
    graph: &Graph,
    algo: &A,
    config: RunConfig,
) -> Result<Outcome, StabilizationError> {
    if let Err(e) = config.faults.validate(graph.len()) {
        panic!("invalid fault plan: {e}");
    }
    let levels = initial_levels(algo, &config);
    let tele = config.telemetry.clone();
    let mut sim = Simulator::new(graph, algo.clone(), levels, config.seed)
        .with_engine(config.engine)
        .with_telemetry(tele.clone());
    if cfg!(debug_assertions) {
        let checker = crate::invariant::InvariantChecker::for_algorithm(algo);
        sim.set_invariant_hook(move |g, round, states| checker.check_round(g, round, states));
    }
    let mut fault_rng = aux_rng(config.seed, FAULT_RNG_PURPOSE);
    let mut trace = Trace::new();
    let mut history = config.record_levels.then(|| vec![sim.states().to_vec()]);
    let last_fault = config.faults.last_fault_round().unwrap_or(0);

    if tele.is_enabled() {
        tele.record(Event::RunStart {
            label: "runner".into(),
            n: graph.len() as u64,
            seed: config.seed,
        });
    }

    // Apply any faults scheduled "after round 0" (i.e. corrupt the initial
    // configuration).
    apply_faults(&mut sim, algo, &config, 0, &mut fault_rng);

    let mut tracker = StabilityTracker::new();
    let mut stabilized_at: Option<u64> = None;
    if sim.round() >= last_fault && tracker.observe(algo, &sim).is_stabilized() {
        stabilized_at = Some(0);
    }
    while stabilized_at.is_none() && sim.round() < config.max_rounds {
        let report = sim.step();
        // The round event's observation doubles as the stop check's when no
        // fault lands between them.
        let mut observed = None;
        if tele.is_enabled() {
            let stability = tracker.observe(algo, &sim);
            emit_round(&tele, &sim, &report, stability);
            observed = Some(stability);
        }
        trace.push(report);
        if let Some(h) = &mut history {
            h.push(sim.states().to_vec());
        }
        let round = sim.round();
        if config.faults.events_after_round(round).next().is_some() {
            apply_faults(&mut sim, algo, &config, round, &mut fault_rng);
            observed = None;
        }
        if sim.round() >= last_fault
            && observed.unwrap_or_else(|| tracker.observe(algo, &sim)).is_stabilized()
        {
            stabilized_at = Some(sim.round());
        }
    }
    if tele.is_enabled() {
        tele.record(Event::RunEnd {
            rounds: sim.round(),
            stabilized: stabilized_at.is_some(),
            stabilization_round: stabilized_at.map(|round| round.saturating_sub(last_fault)),
        });
        tele.finish();
    }
    match stabilized_at {
        Some(round) => Ok(Outcome {
            mis: algo.mis_of(graph, sim.states()),
            levels: sim.states().to_vec(),
            stabilization_round: round.saturating_sub(last_fault),
            rounds_run: sim.round(),
            trace,
            level_history: history,
        }),
        None => Err(StabilizationError {
            max_rounds: config.max_rounds,
            stable_count: tracker.observe(algo, &sim).stable,
            n: graph.len(),
        }),
    }
}

fn apply_faults<A: SelfStabilizingMis>(
    sim: &mut Simulator<'_, A>,
    algo: &A,
    config: &RunConfig,
    round: u64,
    fault_rng: &mut Pcg64Mcg,
) {
    for event in config.faults.events_after_round(round) {
        let corrupted = corrupt_targets(sim, algo, &event.target, fault_rng);
        if config.telemetry.is_enabled() {
            config.telemetry.record(Event::Marker(Marker {
                round,
                kind: MarkerKind::Fault,
                detail: "corrupt".into(),
                magnitude: corrupted as u64,
            }));
        }
    }
}

/// Sorted `(level, count)` histogram of a configuration — the telemetry
/// stream's level snapshot format.
pub(crate) fn level_histogram(levels: &[Level]) -> Vec<(i64, u64)> {
    let mut histogram = std::collections::BTreeMap::new();
    for &level in levels {
        *histogram.entry(i64::from(level)).or_insert(0u64) += 1;
    }
    histogram.into_iter().collect()
}

/// Builds and records one [`RoundEvent`] from a [`RoundReport`] plus
/// already-computed MIS observables, and accumulates the `trace.*` counter
/// totals mirroring [`Trace`]'s aggregates. Shared by [`run`],
/// [`crate::recovery::run_noisy`] and [`crate::containment::run_contained`].
pub(crate) fn emit_round_event(
    tele: &Telemetry,
    report: &RoundReport,
    active: u64,
    n: u64,
    in_mis: u64,
    stable: u64,
    levels: &[Level],
) {
    tele.record(Event::Round(RoundEvent {
        round: report.round,
        beeps_channel1: report.beeps_channel1 as u64,
        beeps_channel2: report.beeps_channel2 as u64,
        hearers_channel1: report.hearers_channel1 as u64,
        hearers_channel2: report.hearers_channel2 as u64,
        lone_beepers: report.lone_beepers as u64,
        lone_beepers_channel2: report.lone_beepers_channel2 as u64,
        active,
        n,
        in_mis: Some(in_mis),
        stable: Some(stable),
        levels: tele.sample_levels(report.round).then(|| level_histogram(levels)),
    }));
    tele.counter_add("trace.rounds", 1);
    tele.counter_add("trace.beeps_c1", report.beeps_channel1 as u64);
    tele.counter_add("trace.beeps_c2", report.beeps_channel2 as u64);
    tele.counter_add("trace.hearers_c1", report.hearers_channel1 as u64);
    tele.counter_add("trace.hearers_c2", report.hearers_channel2 as u64);
    tele.counter_add("trace.lone_c1", report.lone_beepers as u64);
    tele.counter_add("trace.lone_c2", report.lone_beepers_channel2 as u64);
}

/// Emits the per-round telemetry event of [`run`],
/// [`crate::recovery::run_noisy`] and [`crate::resumable::ResumableRun`]:
/// the [`RoundReport`] counters plus the claimed-MIS and stable-set sizes
/// of a [`crate::detector::StabilityTracker`] observation and — at the
/// handle's sampling stride — a level histogram. Call only when `tele` is
/// enabled.
pub(crate) fn emit_round<A: SelfStabilizingMis>(
    tele: &Telemetry,
    sim: &Simulator<'_, A>,
    report: &RoundReport,
    stability: Stability,
) {
    emit_round_event(
        tele,
        report,
        sim.active_count() as u64,
        sim.graph().len() as u64,
        stability.in_mis as u64,
        stability.stable as u64,
        sim.states(),
    );
}

/// Resolves `target` and overwrites each victim's level with a uniform draw
/// over its full state space — the shared corruption payload of [`run`],
/// [`run_recovery`] and [`crate::recovery::run_noisy`]. Returns the number
/// of corrupted nodes.
pub(crate) fn corrupt_targets<A: SelfStabilizingMis>(
    sim: &mut Simulator<'_, A>,
    algo: &A,
    target: &FaultTarget,
    fault_rng: &mut Pcg64Mcg,
) -> usize {
    let n = sim.graph().len();
    let victims = target.select(n, fault_rng);
    for &v in &victims {
        sim.corrupt_state(v, random_level(algo, v, fault_rng));
    }
    victims.len()
}

/// A uniform draw over node `v`'s full state space — "arbitrary RAM
/// contents" for corruption or an adversarial fresh boot.
pub(crate) fn random_level<A: SelfStabilizingMis>(algo: &A, v: usize, rng: &mut Pcg64Mcg) -> Level {
    let lmax = algo.policy().lmax(v);
    let (low, high) = state_space_bounds(lmax, algo.has_negative_levels());
    algo.clamp_raw(rng.gen_range(low..=high), lmax)
}

/// [`run`] specialized to [`Algorithm1`] (kept as a named entry point for
/// discoverability; `Algorithm1::run` calls this).
pub fn run_algorithm1(
    graph: &Graph,
    algo: &Algorithm1,
    config: RunConfig,
) -> Result<Outcome, StabilizationError> {
    run(graph, algo, config)
}

/// [`run`] specialized to [`Algorithm2`].
pub fn run_algorithm2(
    graph: &Graph,
    algo: &Algorithm2,
    config: RunConfig,
) -> Result<Outcome, StabilizationError> {
    run(graph, algo, config)
}

/// Outcome of a fault-recovery measurement ([`run_recovery`]).
#[derive(Debug, Clone)]
pub struct RecoveryOutcome {
    /// Rounds to the first stabilization (from the initial configuration).
    pub initial_stabilization: u64,
    /// Rounds from the fault back to stabilization.
    pub recovery_rounds: u64,
    /// How many nodes the fault corrupted.
    pub corrupted_nodes: usize,
    /// The final MIS.
    pub mis: Vec<bool>,
}

/// Measures recovery: run to stabilization, corrupt `target`, run to
/// stabilization again. This isolates the paper's headline property — the
/// stabilization time bound applies *again* after every transient fault.
///
/// # Errors
///
/// Returns [`StabilizationError`] if either phase exceeds `max_rounds`.
///
/// # Panics
///
/// Panics if `target` is invalid for this graph (see
/// [`beeping::faults::FaultTarget::validate`]).
pub fn run_recovery<A: SelfStabilizingMis>(
    graph: &Graph,
    algo: &A,
    seed: u64,
    target: FaultTarget,
    max_rounds: u64,
) -> Result<RecoveryOutcome, StabilizationError> {
    if let Err(e) = target.validate(graph.len()) {
        panic!("invalid fault target: {e}");
    }
    let mut tracker = StabilityTracker::new();
    let budget_error =
        |tracker: &mut StabilityTracker, sim: &Simulator<'_, A>| StabilizationError {
            max_rounds,
            stable_count: tracker.observe(algo, sim).stable,
            n: graph.len(),
        };

    let config = RunConfig::new(seed).with_max_rounds(max_rounds);
    let levels = initial_levels(algo, &config);
    let mut sim = Simulator::new(graph, algo.clone(), levels, seed).with_engine(config.engine);
    if cfg!(debug_assertions) {
        let checker = crate::invariant::InvariantChecker::for_algorithm(algo);
        sim.set_invariant_hook(move |g, round, states| checker.check_round(g, round, states));
    }
    let first = sim
        .run_until(max_rounds, |s| tracker.observe(algo, s).is_stabilized())
        .ok_or_else(|| budget_error(&mut tracker, &sim))?;

    let mut fault_rng = aux_rng(seed, FAULT_RNG_PURPOSE);
    let victims = corrupt_targets(&mut sim, algo, &target, &mut fault_rng);

    let fault_round = sim.round();
    let recovered = sim
        .run_until(fault_round + max_rounds, |s| tracker.observe(algo, s).is_stabilized())
        .ok_or_else(|| budget_error(&mut tracker, &sim))?;

    Ok(RecoveryOutcome {
        initial_stabilization: first,
        recovery_rounds: recovered - fault_round,
        corrupted_nodes: victims,
        mis: algo.mis_of(graph, sim.states()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphs::generators::{classic, random};

    #[test]
    fn run_produces_valid_mis_alg1() {
        let g = random::gnp(80, 0.08, 2);
        let algo = Algorithm1::new(&g, LmaxPolicy::global_delta(&g));
        for init in [
            InitialLevels::Random,
            InitialLevels::AllMax,
            InitialLevels::AllClaiming,
            InitialLevels::AllOne,
        ] {
            let outcome =
                algo.run(&g, RunConfig::new(3).with_init(init.clone())).expect("stabilizes");
            assert!(graphs::mis::is_maximal_independent_set(&g, &outcome.mis), "init {init:?}");
            assert!(outcome.stabilization_round > 0);
            assert_eq!(outcome.rounds_run, outcome.stabilization_round);
            assert_eq!(outcome.trace.len() as u64, outcome.rounds_run);
        }
    }

    #[test]
    fn run_produces_valid_mis_alg2() {
        let g = random::gnp(80, 0.08, 2);
        let algo = Algorithm2::new(&g, LmaxPolicy::two_hop_degree(&g));
        let outcome = algo.run(&g, RunConfig::new(3)).expect("stabilizes");
        assert!(graphs::mis::is_maximal_independent_set(&g, &outcome.mis));
    }

    #[test]
    fn deterministic_outcomes() {
        let g = random::gnp(50, 0.1, 1);
        let algo = Algorithm1::new(&g, LmaxPolicy::global_delta(&g));
        let a = algo.run(&g, RunConfig::new(9)).unwrap();
        let b = algo.run(&g, RunConfig::new(9)).unwrap();
        assert_eq!(a.mis, b.mis);
        assert_eq!(a.stabilization_round, b.stabilization_round);
        let c = algo.run(&g, RunConfig::new(10)).unwrap();
        // Different seed will almost surely differ in timing.
        assert!(c.stabilization_round != a.stabilization_round || c.mis != a.mis);
    }

    #[test]
    fn custom_initial_levels_are_clamped() {
        let g = classic::path(3);
        let algo = Algorithm1::new(&g, LmaxPolicy::fixed(3, 5));
        let config = RunConfig::new(0).with_init(InitialLevels::Custom(vec![100, -100, 0]));
        let levels = initial_levels(&algo, &config);
        assert_eq!(levels, vec![5, -5, 0]);
        let algo2 = Algorithm2::new(&g, LmaxPolicy::fixed(3, 5));
        let levels2 = initial_levels(&algo2, &config);
        assert_eq!(levels2, vec![5, 0, 0]);
    }

    #[test]
    fn budget_exhaustion_reports_error() {
        let g = random::gnp(60, 0.2, 4);
        let algo = Algorithm1::new(&g, LmaxPolicy::global_delta(&g));
        let err = algo.run(&g, RunConfig::new(1).with_max_rounds(1)).unwrap_err();
        assert_eq!(err.max_rounds, 1);
        assert_eq!(err.n, 60);
        assert!(err.to_string().contains("not stabilized"));
    }

    #[test]
    fn faults_delay_measurement_but_still_stabilize() {
        let g = random::gnp(40, 0.1, 5);
        let algo = Algorithm1::new(&g, LmaxPolicy::global_delta(&g));
        let faults = FaultPlan::new().with_fault(30, FaultTarget::All);
        let outcome =
            algo.run(&g, RunConfig::new(5).with_faults(faults)).expect("stabilizes after fault");
        assert!(outcome.rounds_run >= 30);
        assert_eq!(outcome.stabilization_round, outcome.rounds_run - 30);
        assert!(graphs::mis::is_maximal_independent_set(&g, &outcome.mis));
    }

    #[test]
    fn fault_at_round_zero_counts_every_round_as_fault_free() {
        // A fault "after round 0" corrupts the initial configuration before
        // any step runs; stabilization time is then counted from round 0,
        // i.e. every executed round is fault-free and
        // `stabilization_round == rounds_run`, exactly as in a no-fault run.
        let g = random::gnp(40, 0.1, 5);
        let algo = Algorithm1::new(&g, LmaxPolicy::global_delta(&g));
        let faults = FaultPlan::new().with_fault(0, FaultTarget::All);
        let outcome = algo.run(&g, RunConfig::new(5).with_faults(faults)).expect("stabilizes");
        assert_eq!(outcome.stabilization_round, outcome.rounds_run);
        assert!(outcome.stabilization_round > 0);
        assert!(graphs::mis::is_maximal_independent_set(&g, &outcome.mis));
    }

    #[test]
    fn fault_at_final_round_is_measured_after_corruption() {
        // Schedule a second fault at the exact round where the first
        // recovery would otherwise complete. The runner must apply the
        // corruption *before* the stabilization check of that round, so the
        // count restarts: `stabilization_round == rounds_run - last_fault`.
        let g = random::gnp(40, 0.1, 5);
        let algo = Algorithm1::new(&g, LmaxPolicy::global_delta(&g));
        let first = algo
            .run(
                &g,
                RunConfig::new(5).with_faults(FaultPlan::new().with_fault(30, FaultTarget::All)),
            )
            .expect("stabilizes");
        let landing = first.rounds_run;
        let faults =
            FaultPlan::new().with_fault(30, FaultTarget::All).with_fault(landing, FaultTarget::All);
        let outcome = algo
            .run(&g, RunConfig::new(5).with_faults(faults))
            .expect("stabilizes after the final-round fault");
        assert!(outcome.rounds_run >= landing);
        assert_eq!(outcome.stabilization_round, outcome.rounds_run - landing);
        assert!(graphs::mis::is_maximal_independent_set(&g, &outcome.mis));
    }

    #[test]
    fn engines_agree_on_stabilization() {
        // The scatter engine is bit-identical to the scalar reference, so a
        // full stabilization run must agree in every observable.
        let g = random::gnp(60, 0.08, 11);
        for seed in [1u64, 2, 3] {
            let algo = Algorithm1::new(&g, LmaxPolicy::global_delta(&g));
            let scalar = algo
                .run(&g, RunConfig::new(seed).with_engine(EngineMode::Scalar))
                .expect("stabilizes");
            let scatter = algo
                .run(&g, RunConfig::new(seed).with_engine(EngineMode::Scatter))
                .expect("stabilizes");
            assert_eq!(scalar.mis, scatter.mis);
            assert_eq!(scalar.levels, scatter.levels);
            assert_eq!(scalar.stabilization_round, scatter.stabilization_round);
            assert_eq!(scalar.rounds_run, scatter.rounds_run);
            assert_eq!(scalar.trace.reports(), scatter.trace.reports());
        }
    }

    #[test]
    fn level_history_recording() {
        let g = classic::cycle(10);
        let algo = Algorithm1::new(&g, LmaxPolicy::global_delta(&g));
        let outcome = algo.run(&g, RunConfig::new(2).with_level_recording()).expect("stabilizes");
        let history = outcome.level_history.expect("recording was enabled");
        assert_eq!(history.len() as u64, outcome.rounds_run + 1);
        assert_eq!(history.last().unwrap(), &outcome.levels);
    }

    #[test]
    fn recovery_measurement() {
        let g = random::gnp(50, 0.1, 6);
        let algo = Algorithm1::new(&g, LmaxPolicy::global_delta(&g));
        let rec = run_recovery(&g, &algo, 6, FaultTarget::RandomFraction(0.5), 100_000)
            .expect("recovers");
        assert!(rec.initial_stabilization > 0);
        assert!(rec.recovery_rounds > 0);
        assert!(rec.corrupted_nodes > 0);
        assert!(graphs::mis::is_maximal_independent_set(&g, &rec.mis));
    }

    #[test]
    fn recovery_for_two_channel() {
        let g = random::gnp(50, 0.1, 6);
        let algo = Algorithm2::new(&g, LmaxPolicy::two_hop_degree(&g));
        let rec = run_recovery(&g, &algo, 6, FaultTarget::All, 100_000).expect("recovers");
        assert_eq!(rec.corrupted_nodes, 50);
        assert!(graphs::mis::is_maximal_independent_set(&g, &rec.mis));
    }
}
