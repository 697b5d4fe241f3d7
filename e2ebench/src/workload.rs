//! The four workloads: inputs built from a seed, one call of the public
//! entry point a user would make, and the check of its output.
//!
//! Every workload uses `EngineMode::default()`, the engine the experiment
//! drivers and the `supervised` CLI get, so a change of default engine
//! shows up here as a change of the measured numbers.

use std::path::{Path, PathBuf};

use beeping::churn::{ChurnAction, ChurnPlan};
use beeping::dynamic::MotionSpec;
use beeping::faults::{FaultPlan, FaultTarget};
use beeping::rng::split_mix64;
use beeping::trace::Trace;
use graphs::generators::geometric::radius_for_expected_degree;
use graphs::generators::GraphFamily;
use graphs::mis::is_maximal_independent_set;
use graphs::motion::MotionModel;
use graphs::{Graph, NodeId};
use harness::snapshot::{config_fingerprint, fnv1a64, read_file};
use harness::supervisor::{snapshot_path, supervise, RunOutcome, SupervisorConfig};
use mis::levels::{state_space_bounds, Level};
use mis::recovery::{self, NoisyOutcome, NoisyRunConfig};
use mis::resumable::{ResumableConfig, ResumableOutcome, ResumableRun};
use mis::runner::{self, RunConfig, SelfStabilizingMis, StabilizationError};
use mis::{Algorithm1, Algorithm2, LmaxPolicy};
use telemetry::{JsonlSink, Telemetry};

/// Purpose tag of the fault-injection RNG stream. It mirrors the
/// crate-private constant `mis::runner::FAULT_RNG_PURPOSE`, which the
/// traced replay needs to reproduce corruptions and churn boot levels.
pub const FAULT_RNG_PURPOSE: u64 = 0xFA17;

/// Level-histogram stride of the `supervised` telemetry stream.
pub const LEVEL_STRIDE: u64 = 64;

/// Durable-checkpoint cadence of the `supervised` workload, in rounds.
pub const CHECKPOINT_EVERY: u64 = 256;

/// Telemetry file name inside a `supervised` trial directory.
pub const TELEMETRY_FILE: &str = "telemetry.jsonl";

/// The workloads, by their fixed names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Algorithm 1, global-Δ policy, G(n,p) avg degree 8, n = 2^20, from
    /// random levels to `S_t = V` through `mis::runner::run`.
    Stabilize,
    /// Algorithm 1, global-Δ policy, G(n,p) avg degree 8, n = 2^14,
    /// single-node faults every 128 rounds through
    /// `mis::recovery::run_noisy`.
    Recover,
    /// Algorithm 2, two-hop-degree policy, G(n,p) avg degree 8, n = 2^16,
    /// 1% fault bursts and leave/join churn under `harness::supervise` with
    /// durable checkpoints and a JSONL telemetry stream.
    Supervised,
    /// Algorithm 1, own-degree policy, random-waypoint deployment with
    /// expected degree 8, n = 2^12, for a fixed round budget under
    /// `harness::supervise`.
    Mobile,
}

impl Kind {
    /// Every workload, in report order.
    pub const ALL: [Kind; 4] = [Kind::Stabilize, Kind::Recover, Kind::Supervised, Kind::Mobile];

    /// The workload's fixed name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Stabilize => "stabilize",
            Kind::Recover => "recover",
            Kind::Supervised => "supervised",
            Kind::Mobile => "mobile",
        }
    }

    /// Looks a workload up by name.
    pub fn from_name(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// Size and schedule of one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Spec {
    /// Which workload.
    pub kind: Kind,
    /// Number of nodes.
    pub n: usize,
    /// Scheduled disturbances: faults on `recover`, bursts (each with one
    /// leave and one join) on `supervised`; unused otherwise.
    pub events: u64,
    /// Rounds between disturbances.
    pub period: u64,
    /// Round budget: per segment on `recover`, in total otherwise. On
    /// `mobile` the run is expected to use all of it.
    pub budget: u64,
    /// Timed trials per run, after one untimed warm-up. Fixed, so every
    /// run measures the same trial indices whatever the speed of the code.
    pub trials: u64,
}

impl Spec {
    /// The benchmark's size. With the warm-up, the trial counts fill
    /// 16-21 s of set-up and calls on a 2-vCPU Xeon VM, and at most 35 s
    /// at the slowest that VM was seen to run.
    pub fn full(kind: Kind) -> Spec {
        let (n, events, period, budget, trials) = match kind {
            Kind::Stabilize => (1 << 20, 0, 0, 10_000, 5),
            Kind::Recover => (1 << 14, 8, 128, 10_000, 18),
            Kind::Supervised => (1 << 16, 16, 64, 100_000, 6),
            Kind::Mobile => (1 << 12, 0, 0, 384, 18),
        };
        Spec { kind, n, events, period, budget, trials }
    }

    /// A small variant with the same shape, for tests.
    pub fn small(kind: Kind) -> Spec {
        let full = Spec::full(kind);
        match kind {
            Kind::Stabilize => Spec { n: 1 << 10, trials: 2, ..full },
            Kind::Recover => Spec { n: 1 << 9, events: 3, trials: 2, ..full },
            Kind::Supervised => Spec { n: 1 << 9, events: 3, trials: 2, ..full },
            Kind::Mobile => Spec { n: 1 << 8, budget: 64, trials: 2, ..full },
        }
    }

    /// Number of operations one call attempts: one run, or one segment per
    /// fault plus the initial convergence on `recover`.
    pub fn ops_per_call(&self) -> usize {
        match self.kind {
            Kind::Recover => self.events as usize + 1,
            _ => 1,
        }
    }
}

/// The seed of trial `index` of a run seeded with `seed`.
pub fn trial_seed(seed: u64, index: u64) -> u64 {
    split_mix64(seed ^ split_mix64(index.wrapping_add(1)))
}

/// An algorithm a workload runs, built from the workload's policy.
pub trait BenchAlgo: SelfStabilizingMis {
    /// The algorithm with the workload's `ℓmax` policy.
    fn for_workload(kind: Kind, graph: &Graph) -> Self;
}

impl BenchAlgo for Algorithm1 {
    fn for_workload(kind: Kind, graph: &Graph) -> Algorithm1 {
        let policy = match kind {
            Kind::Mobile => LmaxPolicy::own_degree(graph),
            _ => LmaxPolicy::global_delta(graph),
        };
        Algorithm1::new(graph, policy)
    }
}

impl BenchAlgo for Algorithm2 {
    fn for_workload(_kind: Kind, graph: &Graph) -> Algorithm2 {
        Algorithm2::new(graph, LmaxPolicy::two_hop_degree(graph))
    }
}

/// The input graph of a trial, and the deployment for `mobile`.
pub fn generate(spec: &Spec, graph_seed: u64) -> (Graph, Option<MotionSpec>) {
    match spec.kind {
        Kind::Mobile => {
            let motion = MotionSpec::new(
                graph_seed,
                radius_for_expected_degree(spec.n, 8.0),
                MotionModel::RandomWaypoint { speed: 0.001, pause: 2 },
            );
            (motion.initial_graph(spec.n), Some(motion))
        }
        _ => (GraphFamily::Gnp { avg_degree: 8.0 }.generate(spec.n, graph_seed), None),
    }
}

/// The fault and churn schedules of a trial.
pub fn plans(spec: &Spec, seed: u64, graph: &Graph) -> (FaultPlan, ChurnPlan) {
    let mut faults = FaultPlan::new();
    let mut churn = ChurnPlan::new();
    match spec.kind {
        Kind::Recover => {
            for k in 1..=spec.events {
                faults = faults.with_fault(k * spec.period, FaultTarget::RandomCount(1));
            }
        }
        Kind::Supervised => {
            let mut picked: Vec<NodeId> = Vec::new();
            let mut x = seed;
            for k in 1..=spec.events {
                let at = k * spec.period;
                faults = faults.with_fault(at, FaultTarget::RandomFraction(0.01));
                let v = loop {
                    x = split_mix64(x);
                    let v = (x % spec.n as u64) as NodeId;
                    if !picked.contains(&v) {
                        break v;
                    }
                };
                picked.push(v);
                let neighbors: Vec<NodeId> =
                    graph.neighbors(v).iter().map(|&u| u as NodeId).collect();
                churn = churn
                    .with_event(at + spec.period / 2, ChurnAction::NodeLeave(v))
                    .with_event(at + 3 * spec.period / 4, ChurnAction::NodeJoin(v, neighbors));
            }
        }
        Kind::Stabilize | Kind::Mobile => {}
    }
    (faults, churn)
}

/// Everything one entry-point call needs.
#[derive(Debug, Clone)]
pub struct Trial<A> {
    /// The workload.
    pub spec: Spec,
    /// Master seed of the run (node, init, fault and motion streams).
    pub seed: u64,
    /// Input graph.
    pub graph: Graph,
    /// Algorithm with its policy.
    pub algo: A,
    /// Moving deployment (`mobile` only).
    pub motion: Option<MotionSpec>,
    /// Scheduled faults.
    pub faults: FaultPlan,
    /// Scheduled churn.
    pub churn: ChurnPlan,
}

/// Builds trial `index` of a run seeded with `seed`: the set-up that
/// `setup_s` times.
pub fn setup<A: BenchAlgo>(spec: &Spec, seed: u64, index: u64) -> Trial<A> {
    let graph_seed = trial_seed(seed, index);
    let (graph, motion) = generate(spec, graph_seed);
    let algo = A::for_workload(spec.kind, &graph);
    let run_seed = split_mix64(graph_seed);
    let (faults, churn) = plans(spec, run_seed, &graph);
    Trial { spec: *spec, seed: run_seed, graph, algo, motion, faults, churn }
}

/// The `ResumableConfig` of a `supervised` or `mobile` trial, without
/// telemetry.
pub fn resumable_config<A>(trial: &Trial<A>) -> ResumableConfig {
    let mut config = ResumableConfig::new(trial.seed)
        .with_max_rounds(trial.spec.budget)
        .with_faults(trial.faults.clone())
        .with_churn(trial.churn.clone());
    if let Some(motion) = trial.motion {
        config = config.with_motion(motion);
    }
    config
}

/// The telemetry handle of a `supervised` run: a JSONL file sink at level
/// stride [`LEVEL_STRIDE`].
pub fn jsonl_telemetry(path: &Path) -> std::io::Result<Telemetry> {
    let sink = JsonlSink::create(path)?;
    Ok(Telemetry::enabled(telemetry::Config { level_stride: LEVEL_STRIDE })
        .with_sink(Box::new(sink)))
}

/// The supervisor settings of a workload: durable checkpoints into `dir`
/// on `supervised`, none on `mobile`.
pub fn supervisor_config(kind: Kind, dir: &Path) -> SupervisorConfig {
    match kind {
        Kind::Supervised => SupervisorConfig::new()
            .with_checkpoint_every(CHECKPOINT_EVERY)
            .with_checkpoint_dir(dir.to_path_buf()),
        _ => SupervisorConfig::new(),
    }
}

/// The raw result of one entry-point call.
#[derive(Debug)]
pub enum Raw {
    /// `mis::runner::run`.
    Runner(Result<runner::Outcome, StabilizationError>),
    /// `mis::recovery::run_noisy`.
    Noisy(NoisyOutcome),
    /// `harness::supervise`, with its error rendered.
    Supervised(Result<RunOutcome, String>),
}

/// Makes the one public entry-point call of a trial. `dir` holds the
/// snapshots and telemetry file of `supervised`; it must exist.
pub fn call<A: BenchAlgo>(trial: &Trial<A>, dir: &Path) -> Raw {
    let (graph, algo) = (&trial.graph, &trial.algo);
    match trial.spec.kind {
        Kind::Stabilize => Raw::Runner(runner::run(
            graph,
            algo,
            RunConfig::new(trial.seed).with_max_rounds(trial.spec.budget),
        )),
        Kind::Recover => Raw::Noisy(recovery::run_noisy(
            graph,
            algo,
            &NoisyRunConfig::new(trial.seed)
                .with_max_rounds(trial.spec.budget)
                .with_faults(trial.faults.clone()),
        )),
        Kind::Supervised | Kind::Mobile => {
            let mut config = resumable_config(trial);
            if trial.spec.kind == Kind::Supervised {
                match jsonl_telemetry(&dir.join(TELEMETRY_FILE)) {
                    Ok(tele) => config = config.with_telemetry(tele),
                    Err(e) => return Raw::Supervised(Err(format!("telemetry sink: {e}"))),
                }
            }
            let sup = supervisor_config(trial.spec.kind, dir);
            Raw::Supervised(supervise(graph, algo, config, &sup).map_err(|e| e.to_string()))
        }
    }
}

/// The checked result of one call.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Verdict {
    /// Operations attempted.
    pub ops: usize,
    /// Operations whose output failed a check (or whose call failed).
    pub failed: usize,
    /// Simulated rounds per successful operation: stabilization rounds,
    /// recovery rounds per segment, or rounds run.
    pub op_rounds: Vec<u64>,
    /// Rounds the call simulated.
    pub rounds_run: u64,
    /// Digest of the simulated output.
    pub digest: u64,
    /// What failed, for the log.
    pub problems: Vec<String>,
}

impl Verdict {
    /// Every operation of a call failed, for `problem`.
    pub fn failure(spec: &Spec, problem: String) -> Verdict {
        let ops = spec.ops_per_call();
        Verdict { ops, failed: ops, problems: vec![problem], ..Verdict::default() }
    }
}

/// A digest of a run's observables in the format of
/// `experiments::resilience::outcome_digest`: rounds, levels, MIS,
/// participation and every per-round report.
pub fn run_digest(
    rounds: u64,
    levels: &[Level],
    mis: &[bool],
    active: &[bool],
    trace: &Trace,
) -> u64 {
    use std::fmt::Write as _;
    let mut canonical = String::new();
    let _ =
        write!(canonical, "rounds={rounds};levels={levels:?};mis={mis:?};active={active:?};trace=");
    for r in trace.reports() {
        let _ = write!(
            canonical,
            "[{},{},{},{},{},{},{}]",
            r.round,
            r.beeps_channel1,
            r.beeps_channel2,
            r.hearers_channel1,
            r.hearers_channel2,
            r.lone_beepers,
            r.lone_beepers_channel2
        );
    }
    fnv1a64(canonical.as_bytes())
}

/// [`run_digest`] of a resumable run's outcome.
pub fn outcome_digest(o: &ResumableOutcome) -> u64 {
    run_digest(o.rounds_run, &o.levels, &o.mis, &o.active, &o.trace)
}

/// A digest of a `run_noisy` outcome: every segment record, the final MIS
/// and participation.
pub fn noisy_digest(o: &NoisyOutcome) -> u64 {
    let canonical = format!(
        "rounds={};stabilized={};events={:?};mis={:?};active={:?}",
        o.total_rounds, o.stabilized, o.events, o.mis, o.active
    );
    fnv1a64(canonical.as_bytes())
}

/// `mis` is a maximal independent set of the subgraph induced by the
/// active nodes, and holds no inactive node.
pub fn is_mis_on_active(graph: &Graph, active: &[bool], mis: &[bool]) -> bool {
    if active.len() != graph.len() || mis.len() != graph.len() {
        return false;
    }
    if mis.iter().zip(active).any(|(&m, &a)| m && !a) {
        return false;
    }
    let keep: Vec<NodeId> = graph.nodes().filter(|&v| active[v]).collect();
    let (sub, order) = graph.induced_subgraph(&keep);
    let set: Vec<bool> = order.iter().map(|&v| mis[v]).collect();
    is_maximal_independent_set(&sub, &set)
}

/// The topology after a churn plan: departures isolate a node, joins add
/// the listed edges.
pub fn churned_graph(graph: &Graph, churn: &ChurnPlan) -> Graph {
    let mut g = graph.clone();
    for event in churn.events() {
        match &event.action {
            ChurnAction::NodeLeave(v) => {
                g.isolate_node(*v);
            }
            ChurnAction::NodeJoin(v, neighbors) => {
                for &u in neighbors {
                    let _ = g.insert_edge(*v, u);
                }
            }
            ChurnAction::AddEdge(u, v) => {
                let _ = g.insert_edge(*u, *v);
            }
            ChurnAction::RemoveEdge(u, v) => {
                g.remove_edge(*u, *v);
            }
        }
    }
    g
}

fn levels_in_bounds<A: SelfStabilizingMis>(algo: &A, levels: &[Level]) -> bool {
    let lmax = algo.policy().lmax_values();
    levels.len() == lmax.len()
        && levels.iter().zip(lmax).all(|(&l, &m)| {
            let (low, high) = state_space_bounds(m, algo.has_negative_levels());
            (low..=high).contains(&i64::from(l))
        })
}

/// Checks the output of one call. `dir` is the directory the call wrote
/// its snapshots to (`supervised`).
pub fn check<A: BenchAlgo>(trial: &Trial<A>, raw: &Raw, dir: &Path) -> Verdict {
    let spec = &trial.spec;
    match raw {
        Raw::Runner(Err(e)) => Verdict::failure(spec, format!("run failed: {e}")),
        Raw::Runner(Ok(o)) => {
            let active = vec![true; trial.graph.len()];
            let mut v = Verdict {
                ops: 1,
                rounds_run: o.rounds_run,
                digest: run_digest(o.rounds_run, &o.levels, &o.mis, &active, &o.trace),
                ..Verdict::default()
            };
            if is_maximal_independent_set(&trial.graph, &o.mis) {
                v.op_rounds.push(o.stabilization_round);
            } else {
                v.failed = 1;
                v.problems.push("output is not an MIS".into());
            }
            v
        }
        Raw::Noisy(o) => check_noisy(trial, o),
        Raw::Supervised(Err(e)) => Verdict::failure(spec, format!("supervise failed: {e}")),
        Raw::Supervised(Ok(outcome)) => match (spec.kind, outcome) {
            (Kind::Supervised, RunOutcome::Completed(o)) => check_supervised(trial, o, dir),
            (Kind::Mobile, RunOutcome::Completed(o) | RunOutcome::BudgetExhausted(o)) => {
                check_mobile(trial, o)
            }
            (_, other) => Verdict::failure(spec, format!("unexpected outcome: {other:?}")),
        },
    }
}

/// Every segment, the initial convergence included, must re-stabilize
/// before the next fault, and the final configuration must be an MIS.
fn check_noisy<A: BenchAlgo>(trial: &Trial<A>, o: &NoisyOutcome) -> Verdict {
    let mut v = Verdict {
        ops: trial.spec.ops_per_call().max(o.events.len()),
        rounds_run: o.total_rounds,
        digest: noisy_digest(o),
        ..Verdict::default()
    };
    for (i, e) in o.events.iter().enumerate() {
        match e.outcome.recovered_rounds() {
            Some(rounds) => v.op_rounds.push(rounds),
            None => {
                v.failed += 1;
                v.problems.push(format!("segment {i} at round {} did not recover", e.start_round));
            }
        }
    }
    // Segments the run never reached (it stopped at a diverged one).
    v.failed += v.ops - o.events.len();
    if !o.stabilized || !is_mis_on_active(&trial.graph, &o.active, &o.mis) {
        v.problems.push("final configuration is not an MIS".into());
        if o.events.last().is_some_and(|e| e.outcome.is_recovered()) {
            v.failed += 1;
        }
    }
    v.failed = v.failed.min(v.ops);
    v
}

/// The final MIS must hold on the churned topology, and the last durable
/// snapshot must decode and resume to the same outcome.
fn check_supervised<A: BenchAlgo>(trial: &Trial<A>, o: &ResumableOutcome, dir: &Path) -> Verdict {
    let digest = outcome_digest(o);
    let mut v = Verdict {
        ops: 1,
        rounds_run: o.rounds_run,
        digest,
        op_rounds: vec![o.rounds_run],
        ..Verdict::default()
    };
    let graph = churned_graph(&trial.graph, &trial.churn);
    if !is_mis_on_active(&graph, &o.active, &o.mis) {
        v.problems.push("output is not an MIS of the active subgraph".into());
    }
    let config = resumable_config(trial);
    let fingerprint = config_fingerprint::<A>(&config);
    match read_file(&snapshot_path(dir), fingerprint) {
        Err(e) => v.problems.push(format!("final snapshot unreadable: {e}")),
        Ok(cp) => match ResumableRun::resume(&trial.algo, config, &cp) {
            Err(e) => v.problems.push(format!("final snapshot does not resume: {e}")),
            Ok(mut run) => {
                run.run_to_completion();
                if run.outcome().map(|r| outcome_digest(&r)) != Some(digest) {
                    v.problems.push("resumed snapshot diverges from the run".into());
                }
            }
        },
    }
    if !v.problems.is_empty() {
        v.failed = 1;
        v.op_rounds.clear();
    }
    v
}

/// A moving topology never quiesces, so the final configuration need not
/// be maximal: the run must use its whole budget (or stabilize), keep
/// every level inside its state space and report an MIS of active nodes
/// only, one trace report per round.
fn check_mobile<A: BenchAlgo>(trial: &Trial<A>, o: &ResumableOutcome) -> Verdict {
    let mut v = Verdict {
        ops: 1,
        rounds_run: o.rounds_run,
        digest: outcome_digest(o),
        op_rounds: vec![o.rounds_run],
        ..Verdict::default()
    };
    if !o.stabilized && o.rounds_run != trial.spec.budget {
        v.problems.push(format!("ran {} of {} rounds", o.rounds_run, trial.spec.budget));
    }
    if o.trace.len() as u64 != o.rounds_run {
        v.problems.push("trace length differs from rounds run".into());
    }
    if !levels_in_bounds(&trial.algo, &o.levels) {
        v.problems.push("a level left its state space".into());
    }
    if o.mis.iter().zip(&o.active).any(|(&m, &a)| m && !a) || o.mis.len() != trial.graph.len() {
        v.problems.push("MIS holds an inactive node".into());
    }
    if !v.problems.is_empty() {
        v.failed = 1;
        v.op_rounds.clear();
    }
    v
}

/// A fresh directory for one call's files under `out`.
pub fn call_dir(out: &Path, kind: Kind, index: u64, tag: &str) -> std::io::Result<PathBuf> {
    let dir = out.join(format!("{}-{}-{index}-{tag}", kind.name(), std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir)?;
    }
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}
