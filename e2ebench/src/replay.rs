//! The traced run: each workload replayed from the outside in, one span
//! per call into a layer's public API.
//!
//! The replay rebuilds the loop of the entry point it stands for
//! (`mis::runner::run`, `mis::recovery::run_noisy`, and `harness::supervise`
//! over `mis::resumable::ResumableRun`) from public calls only. The steps
//! those loops keep crate-private — the fault RNG purpose, `random_level`,
//! `apply_churn` and the round-event emission — are rebuilt here. A replay
//! is trusted only when its digest equals the untraced call's (and, on
//! `supervised`, its telemetry stream matches byte for byte apart from
//! wall-clock timers). The replay writes snapshots synchronously where the
//! supervisor overlaps them on its writer thread, so `harness.*` is busy
//! time, not time on the critical path.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use beeping::channel::ChannelFault;
use beeping::churn::{ChurnAction, ChurnError};
use beeping::dynamic::DynamicTopology;
use beeping::faults::FaultTarget;
use beeping::rng::{aux_rng, split_mix64};
use beeping::trace::{RoundReport, Trace};
use beeping::{EngineMode, Simulator};
use harness::snapshot::{self, config_fingerprint, fnv1a64};
use harness::supervisor::snapshot_path;
use mis::levels::{state_space_bounds, Level};
use mis::recovery::{
    claimed_mis, independence_violations, stabilized_active, Disturbance, EventRecovery,
    NoisyOutcome, SegmentOutcome,
};
use mis::resumable::{RunCheckpoint, RunStatus};
use mis::runner::{initial_levels, RunConfig, SelfStabilizingMis};
use rand::Rng;
use rand_pcg::Pcg64Mcg;
use telemetry::{Event, Marker, MarkerKind, RoundEvent, Telemetry};

use crate::spans::Tracer;
use crate::workload::{
    generate, jsonl_telemetry, noisy_digest, plans, resumable_config, run_digest, trial_seed,
    BenchAlgo, Kind, Spec, Trial, CHECKPOINT_EVERY, FAULT_RNG_PURPOSE, TELEMETRY_FILE,
};

/// Name of the span enclosing one whole replay.
pub const ROOT: &str = "replay";

/// Layers the replay records, in report order. Each is a span name; the
/// per-layer metric of its self time is the name with `_s` appended.
pub const LAYERS: [&str; 14] = [
    "graphs.generate",
    "graphs.policy",
    "mis.init",
    "beeping.sim.step",
    "mis.detector",
    "mis.output",
    "beeping.events.fault",
    "beeping.events.churn",
    "beeping.events.motion",
    "telemetry.emit",
    "harness.checkpoint",
    "harness.encode",
    "harness.write",
    ROOT,
];

/// The supervisor's chunk length when no checkpoint cadence is set; it
/// mirrors the private `DEFAULT_CHUNK` of `harness::supervisor`, which
/// sets how often an in-memory checkpoint is taken.
const DEFAULT_CHUNK: u64 = 256;

/// Exact counts of one replay. They depend only on the workload and the
/// seed, so two commits can be compared on them exactly.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counts {
    /// Nodes of the input graph.
    pub graph_n: u64,
    /// Edges of the input graph.
    pub graph_m: u64,
    /// Rounds simulated.
    pub sim_rounds: u64,
    /// `WorkCounters::node_execs` at the end of the run.
    pub node_execs: u64,
    /// `WorkCounters::edge_visits` at the end of the run.
    pub edge_visits: u64,
    /// Stability and violation scans.
    pub detector_calls: u64,
    /// Fault events applied.
    pub faults: u64,
    /// Churn events applied.
    pub churn: u64,
    /// Motion steps applied.
    pub motion_steps: u64,
    /// Nodes whose state a fault overwrote.
    pub nodes_corrupted: u64,
    /// Edges added or removed by churn and motion.
    pub edges_changed: u64,
    /// Telemetry events written (lines of the JSONL stream).
    pub telemetry_events: u64,
    /// Telemetry bytes written.
    pub telemetry_bytes: u64,
    /// Durable snapshots written.
    pub snapshots: u64,
    /// Bytes of all durable snapshots written.
    pub snapshot_bytes: u64,
}

/// One traced replay.
pub struct Replay {
    /// The spans; the first is the [`ROOT`] span.
    pub tracer: Tracer,
    /// Digest of the simulated output, comparable with the untraced call's.
    pub digest: u64,
    /// Exact counts.
    pub counts: Counts,
    /// Hash of the telemetry stream without wall-clock timers
    /// (`supervised` only).
    pub stream: Option<u64>,
    /// Failed replay-side checks.
    pub problems: Vec<String>,
}

impl Replay {
    /// Wall time of the whole replay, set-up included, less the
    /// `harness.encode` spans: `write_file` encodes again, so the separate
    /// encode that measures encoding alone is work the supervisor never
    /// does.
    pub fn wall_ns(&self) -> u64 {
        let encode = self.tracer.layers().get("harness.encode").map_or(0, |s| s.self_ns);
        self.tracer.spans()[0].duration_ns().saturating_sub(encode)
    }

    /// Wall time of the run alone: the replay minus graph and policy
    /// set-up.
    pub fn run_ns(&self) -> u64 {
        let layers = self.tracer.layers();
        let setup: u64 = ["graphs.generate", "graphs.policy"]
            .iter()
            .filter_map(|name| layers.get(name))
            .map(|s| s.self_ns)
            .sum();
        self.wall_ns().saturating_sub(setup)
    }
}

/// Replays trial `index` of a run seeded with `seed`. `dir` receives the
/// snapshots and telemetry of `supervised` and must exist.
pub fn replay<A: BenchAlgo>(spec: &Spec, seed: u64, index: u64, dir: &Path) -> Replay {
    let mut tr = Tracer::new();
    let root = tr.open(ROOT);
    let graph_seed = trial_seed(seed, index);
    let run_seed = split_mix64(graph_seed);
    let (graph, motion, faults, churn) = tr.time("graphs.generate", || {
        let (graph, motion) = generate(spec, graph_seed);
        let (faults, churn) = plans(spec, run_seed, &graph);
        (graph, motion, faults, churn)
    });
    let algo = tr.time("graphs.policy", || A::for_workload(spec.kind, &graph));
    let trial = Trial { spec: *spec, seed: run_seed, graph, algo, motion, faults, churn };
    let mut counts = Counts {
        graph_n: trial.graph.len() as u64,
        graph_m: trial.graph.num_edges() as u64,
        ..Counts::default()
    };
    let mut problems = Vec::new();
    let digest = match spec.kind {
        Kind::Stabilize => replay_runner(&mut tr, &trial, &mut counts),
        Kind::Recover => replay_noisy(&mut tr, &trial, &mut counts),
        Kind::Supervised | Kind::Mobile => {
            match replay_resumable(&mut tr, &trial, dir, &mut counts) {
                Ok(out) => {
                    problems.extend(out.problems);
                    out.digest
                }
                Err(e) => {
                    problems.push(e);
                    0
                }
            }
        }
    };
    tr.close(root);
    let mut stream = None;
    if spec.kind == Kind::Supervised {
        match stream_signature(&dir.join(TELEMETRY_FILE)) {
            Ok(sig) => {
                counts.telemetry_events = sig.events;
                counts.telemetry_bytes = sig.bytes;
                stream = Some(sig.hash);
            }
            Err(e) => problems.push(format!("telemetry stream unreadable: {e}")),
        }
    }
    Replay { tracer: tr, digest, counts, stream, problems }
}

/// A telemetry stream's identity with the wall-clock part removed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamSignature {
    /// FNV-1a of the stream with each metrics line cut before its
    /// `timers_ns` field.
    pub hash: u64,
    /// Lines (events).
    pub events: u64,
    /// Bytes.
    pub bytes: u64,
}

/// Reads a JSONL telemetry file into its [`StreamSignature`]. Timers are
/// wall-clock and differ between any two runs; every other byte is
/// deterministic.
pub fn stream_signature(path: &Path) -> std::io::Result<StreamSignature> {
    let text = std::fs::read_to_string(path)?;
    let mut canonical = String::with_capacity(text.len());
    let mut events = 0;
    for line in text.lines() {
        events += 1;
        let kept = match line.find(",\"timers_ns\":") {
            Some(cut) if line.starts_with("{\"type\":\"metrics\"") => &line[..cut],
            _ => line,
        };
        canonical.push_str(kept);
        canonical.push('\n');
    }
    Ok(StreamSignature { hash: fnv1a64(canonical.as_bytes()), events, bytes: text.len() as u64 })
}

/// A uniform draw over node `v`'s state space, as the crate-private
/// `mis::runner::random_level` draws it.
fn random_level<A: SelfStabilizingMis>(algo: &A, v: usize, rng: &mut Pcg64Mcg) -> Level {
    let lmax = algo.policy().lmax(v);
    let (low, high) = state_space_bounds(lmax, algo.has_negative_levels());
    algo.clamp_raw(rng.gen_range(low..=high), lmax)
}

/// `FaultTarget::select` plus one `Simulator::corrupt_state` per victim.
fn corrupt<A: SelfStabilizingMis>(
    sim: &mut Simulator<'_, A>,
    algo: &A,
    target: &FaultTarget,
    rng: &mut Pcg64Mcg,
) -> usize {
    let victims = target.select(sim.graph().len(), rng);
    for &v in &victims {
        sim.corrupt_state(v, random_level(algo, v, rng));
    }
    victims.len()
}

/// One churn action through the simulator's churn methods, as the
/// crate-private `mis::recovery::apply_churn` applies it. Returns the
/// number of edges it touched.
fn apply_churn<A: SelfStabilizingMis>(
    sim: &mut Simulator<'_, A>,
    algo: &A,
    action: &ChurnAction,
    rng: &mut Pcg64Mcg,
) -> Result<usize, ChurnError> {
    match action {
        ChurnAction::AddEdge(u, v) => sim.insert_edge(*u, *v).map(usize::from),
        ChurnAction::RemoveEdge(u, v) => sim.remove_edge(*u, *v).map(usize::from),
        ChurnAction::NodeLeave(v) => sim.node_leave(*v),
        ChurnAction::NodeJoin(v, neighbors) => {
            let boot = random_level(algo, *v, rng);
            sim.node_join(*v, neighbors, boot).map(|()| neighbors.len())
        }
    }
}

/// `mis::runner::run` from public calls.
fn replay_runner<A: BenchAlgo>(tr: &mut Tracer, trial: &Trial<A>, counts: &mut Counts) -> u64 {
    let (graph, algo) = (&trial.graph, &trial.algo);
    let config = RunConfig::new(trial.seed).with_max_rounds(trial.spec.budget);
    let mut sim = tr.time("mis.init", || {
        let levels = initial_levels(algo, &config);
        Simulator::new(graph, algo.clone(), levels, config.seed)
            .with_engine(config.engine)
            .with_telemetry(config.telemetry.clone())
    });
    let mut trace = Trace::new();
    let mut stabilized = tr.time("mis.detector", || algo.stabilized(graph, sim.states()));
    counts.detector_calls += 1;
    while !stabilized && sim.round() < config.max_rounds {
        let report = tr.time("beeping.sim.step", || sim.step());
        trace.push(report);
        stabilized = tr.time("mis.detector", || algo.stabilized(graph, sim.states()));
        counts.detector_calls += 1;
    }
    let mis = tr.time("mis.output", || algo.mis_of(graph, sim.states()));
    counts.sim_rounds = sim.round();
    counts.node_execs = sim.work().node_execs;
    counts.edge_visits = sim.work().edge_visits;
    run_digest(sim.round(), sim.states(), &mis, &vec![true; graph.len()], &trace)
}

/// Live counters of one `run_noisy` segment, folded into an
/// `EventRecovery` at the next boundary.
struct Segment {
    disturbance: Disturbance,
    start_round: u64,
    first_recovery: Option<u64>,
    violation_rounds: u64,
    streak: u64,
    max_streak: u64,
}

impl Segment {
    fn new(disturbance: Disturbance, start_round: u64) -> Segment {
        Segment {
            disturbance,
            start_round,
            first_recovery: None,
            violation_rounds: 0,
            streak: 0,
            max_streak: 0,
        }
    }

    fn observe(&mut self, round: u64, stabilized: bool, violations: usize) {
        if stabilized && self.first_recovery.is_none() {
            self.first_recovery = Some(round - self.start_round);
        }
        if violations > 0 {
            self.violation_rounds += 1;
            self.streak += 1;
            self.max_streak = self.max_streak.max(self.streak);
        } else {
            self.streak = 0;
        }
    }

    fn close(self, end_round: u64, diverged: bool) -> EventRecovery {
        let segment_rounds = end_round - self.start_round;
        let outcome = match self.first_recovery {
            Some(rounds) => SegmentOutcome::Recovered { rounds },
            None if diverged => SegmentOutcome::Diverged { rounds: segment_rounds },
            None => SegmentOutcome::Interrupted { rounds: segment_rounds },
        };
        EventRecovery {
            disturbance: self.disturbance,
            start_round: self.start_round,
            outcome,
            segment_rounds,
            violation_rounds: self.violation_rounds,
            max_violation_streak: self.max_streak,
        }
    }
}

/// `mis::recovery::run_noisy` from public calls (reliable channel, faults
/// only: the `recover` workload).
fn replay_noisy<A: BenchAlgo>(tr: &mut Tracer, trial: &Trial<A>, counts: &mut Counts) -> u64 {
    let (graph, algo) = (&trial.graph, &trial.algo);
    let mut sim = tr.time("mis.init", || {
        let levels = initial_levels(algo, &RunConfig::new(trial.seed));
        Simulator::new(graph, algo.clone(), levels, trial.seed)
            .with_channel(ChannelFault::reliable())
            .with_engine(EngineMode::default())
            .with_telemetry(Telemetry::disabled())
    });
    let mut fault_rng = aux_rng(trial.seed, FAULT_RNG_PURPOSE);
    let last_event_round = trial.faults.last_fault_round().unwrap_or(0);
    let mut events = Vec::new();
    let mut segment = Segment::new(Disturbance::Initial, 0);
    let mut applied_through = None;
    let (stabilized, total_rounds) = loop {
        let r = sim.round();
        let stab = tr.time("mis.detector", || {
            stabilized_active(algo, sim.graph(), sim.states(), sim.active())
        });
        let violations = tr.time("mis.detector", || {
            independence_violations(algo, sim.graph(), sim.states(), sim.active())
        });
        counts.detector_calls += 2;
        segment.observe(r, stab, violations);
        if applied_through != Some(r) && trial.faults.events_after_round(r).next().is_some() {
            for fault in trial.faults.events_after_round(r) {
                let corrupted = tr.time("beeping.events.fault", || {
                    corrupt(&mut sim, algo, &fault.target, &mut fault_rng)
                });
                counts.faults += 1;
                counts.nodes_corrupted += corrupted as u64;
                let next = Segment::new(Disturbance::TransientFault { corrupted }, r);
                events.push(std::mem::replace(&mut segment, next).close(r, false));
            }
            applied_through = Some(r);
            continue;
        }
        if stab && r >= last_event_round {
            events.push(segment.close(r, false));
            break (true, r);
        }
        if r - segment.start_round >= trial.spec.budget {
            events.push(segment.close(r, true));
            break (false, r);
        }
        tr.time("beeping.sim.step", || sim.step());
    };
    let mis = tr.time("mis.output", || claimed_mis(algo, sim.graph(), sim.states(), sim.active()));
    counts.sim_rounds = total_rounds;
    counts.node_execs = sim.work().node_execs;
    counts.edge_visits = sim.work().edge_visits;
    noisy_digest(&NoisyOutcome {
        events,
        total_rounds,
        stabilized,
        mis,
        active: sim.active().to_vec(),
    })
}

/// The replayed state of a `ResumableRun` under the supervisor.
struct Resumable<'t, A: BenchAlgo> {
    trial: &'t Trial<A>,
    sim: Simulator<'static, A>,
    motion: Option<DynamicTopology>,
    fault_rng: Pcg64Mcg,
    trace: Trace,
    tele: Telemetry,
    last_event_round: u64,
    applied_through: Option<u64>,
    status: RunStatus,
}

/// Result of a resumable replay.
struct ResumableOut {
    digest: u64,
    problems: Vec<String>,
}

/// `harness::supervise` over `mis::resumable::ResumableRun`, from public
/// calls: the supervisor's chunk loop with its checkpoints, and the run's
/// tick (events, stop check, step, telemetry).
fn replay_resumable<A: BenchAlgo>(
    tr: &mut Tracer,
    trial: &Trial<A>,
    dir: &Path,
    counts: &mut Counts,
) -> Result<ResumableOut, String> {
    let config = resumable_config(trial);
    let fingerprint = config_fingerprint::<A>(&config);
    let durable: Option<PathBuf> =
        (trial.spec.kind == Kind::Supervised).then(|| snapshot_path(dir));
    let tele = match trial.spec.kind {
        Kind::Supervised => jsonl_telemetry(&dir.join(TELEMETRY_FILE))
            .map_err(|e| format!("telemetry sink: {e}"))?,
        _ => Telemetry::disabled(),
    };
    let (graph, algo) = (&trial.graph, &trial.algo);
    let n = graph.len();
    let (sim, motion) = tr.time("mis.init", || {
        config.faults.validate(n).map_err(|e| e.to_string())?;
        config.churn.validate(n).map_err(|e| e.to_string())?;
        let motion = match &config.motion {
            Some(spec) => {
                let dt = DynamicTopology::new(n, spec, config.seed).map_err(|e| e.to_string())?;
                if dt.graph() != graph {
                    return Err("graph is not the deployment's initial graph".to_string());
                }
                Some(dt)
            }
            None => None,
        };
        let levels = initial_levels(algo, &RunConfig::new(config.seed));
        let sim = Simulator::new_owned(graph.clone(), algo.clone(), levels, config.seed)
            .with_channel(config.channel.clone())
            .with_engine(config.engine)
            .with_telemetry(tele.clone());
        Ok((sim, motion))
    })?;
    if tele.is_enabled() {
        tr.time("telemetry.emit", || {
            tele.record(Event::RunStart {
                label: "resumable".into(),
                n: n as u64,
                seed: config.seed,
            })
        });
    }
    let last_event_round = config
        .faults
        .last_fault_round()
        .unwrap_or(0)
        .max(config.churn.last_event_round().unwrap_or(0));
    let mut run = Resumable {
        trial,
        sim,
        motion,
        fault_rng: aux_rng(config.seed, FAULT_RNG_PURPOSE),
        trace: Trace::new(),
        tele,
        last_event_round,
        applied_through: None,
        status: RunStatus::Running,
    };

    let cadence = if durable.is_some() { CHECKPOINT_EVERY } else { DEFAULT_CHUNK };
    run.checkpoint(tr, durable.as_deref(), fingerprint, counts)?;
    loop {
        let chunk = cadence - run.sim.round() % cadence;
        for _ in 0..chunk {
            if run.tick(tr, counts)? != RunStatus::Running {
                break;
            }
        }
        if run.status != RunStatus::Running {
            break;
        }
        run.checkpoint(tr, durable.as_deref(), fingerprint, counts)?;
    }

    let sim = &run.sim;
    let mis = tr.time("mis.output", || claimed_mis(algo, sim.graph(), sim.states(), sim.active()));
    counts.sim_rounds = sim.round();
    counts.node_execs = sim.work().node_execs;
    counts.edge_visits = sim.work().edge_visits;
    let digest = run_digest(sim.round(), sim.states(), &mis, sim.active(), &run.trace);

    let mut problems = Vec::new();
    if let Some(dt) = &run.motion {
        if !topology_matches(sim, dt) {
            problems.push("simulator topology differs from the deployment's radius graph".into());
        }
    }
    if let Some(path) = &durable {
        if let Err(e) = snapshot::read_file(path, fingerprint) {
            problems.push(format!("final snapshot unreadable: {e}"));
        }
    }
    Ok(ResumableOut { digest, problems })
}

/// The simulator's edges between active nodes are exactly the radius
/// graph's, and departed nodes have none.
fn topology_matches<A: BenchAlgo>(sim: &Simulator<'_, A>, dt: &DynamicTopology) -> bool {
    let active = sim.active();
    sim.graph().nodes().all(|u| {
        let want: Vec<u32> = if active[u] {
            dt.graph().neighbors(u).iter().copied().filter(|&w| active[w as usize]).collect()
        } else {
            Vec::new()
        };
        sim.graph().neighbors(u) == want.as_slice()
    })
}

impl<A: BenchAlgo> Resumable<'_, A> {
    fn checkpoint(
        &mut self,
        tr: &mut Tracer,
        durable: Option<&Path>,
        fingerprint: u64,
        counts: &mut Counts,
    ) -> Result<(), String> {
        let cp = tr.time("harness.checkpoint", || RunCheckpoint {
            sim: self.sim.checkpoint(),
            fault_rng: self.fault_rng.clone(),
            applied_through: self.applied_through,
            trace: self.trace.clone(),
            motion: self.motion.as_ref().map(DynamicTopology::state),
        });
        if let Some(path) = durable {
            let bytes = tr.time("harness.encode", || snapshot::encode(&cp, fingerprint));
            tr.time("harness.write", || snapshot::write_file(path, &cp, fingerprint))
                .map_err(|e| e.to_string())?;
            counts.snapshots += 1;
            counts.snapshot_bytes += bytes.len() as u64;
        }
        Ok(())
    }

    fn marker(&self, tr: &mut Tracer, round: u64, kind: MarkerKind, detail: &str, magnitude: u64) {
        if self.tele.is_enabled() {
            tr.time("telemetry.emit", || {
                self.tele.record(Event::Marker(Marker {
                    round,
                    kind,
                    detail: detail.into(),
                    magnitude,
                }))
            });
        }
    }

    fn tick(&mut self, tr: &mut Tracer, counts: &mut Counts) -> Result<RunStatus, String> {
        if self.status != RunStatus::Running {
            return Ok(self.status);
        }
        let trial = self.trial;
        let r = self.sim.round();
        if self.applied_through != Some(r) {
            for fault in trial.faults.events_after_round(r) {
                let corrupted = tr.time("beeping.events.fault", || {
                    corrupt(&mut self.sim, &trial.algo, &fault.target, &mut self.fault_rng)
                });
                counts.faults += 1;
                counts.nodes_corrupted += corrupted as u64;
                self.marker(tr, r, MarkerKind::Fault, "corrupt", corrupted as u64);
            }
            let actions: Vec<ChurnAction> =
                trial.churn.events_after_round(r).map(|e| e.action.clone()).collect();
            for action in actions {
                let touched = tr
                    .time("beeping.events.churn", || {
                        apply_churn(&mut self.sim, &trial.algo, &action, &mut self.fault_rng)
                    })
                    .map_err(|e| format!("churn failed: {e}"))?;
                counts.churn += 1;
                counts.edges_changed += touched as u64;
                self.marker(tr, r, MarkerKind::Churn, "churn", 1);
            }
            if let Some(dt) = &mut self.motion {
                let (added, removed) =
                    tr.time("beeping.events.motion", || dt.advance(&mut self.sim));
                counts.motion_steps += 1;
                counts.edges_changed += (added + removed) as u64;
                if added + removed > 0 {
                    let changed = (added + removed) as u64;
                    self.marker(tr, r, MarkerKind::Motion, "reconcile", changed);
                }
            }
            self.applied_through = Some(r);
        }
        if r >= self.last_event_round {
            counts.detector_calls += 1;
            let sim = &self.sim;
            if tr.time("mis.detector", || {
                stabilized_active(&trial.algo, sim.graph(), sim.states(), sim.active())
            }) {
                self.status = RunStatus::Stabilized;
                self.finish(tr, true);
                return Ok(self.status);
            }
        }
        if r >= trial.spec.budget {
            self.status = RunStatus::BudgetExhausted;
            self.finish(tr, false);
            return Ok(self.status);
        }
        let report = tr.time("beeping.sim.step", || self.sim.step());
        if self.tele.is_enabled() {
            tr.time("telemetry.emit", || emit_round(&self.tele, &report, &self.sim, &trial.algo));
        }
        self.trace.push(report);
        Ok(self.status)
    }

    fn finish(&mut self, tr: &mut Tracer, stabilized: bool) {
        if self.tele.is_enabled() {
            let rounds = self.sim.round();
            let last_event_round = self.last_event_round;
            tr.time("telemetry.emit", || {
                self.tele.record(Event::RunEnd {
                    rounds,
                    stabilized,
                    stabilization_round: stabilized
                        .then(|| rounds.saturating_sub(last_event_round)),
                });
                self.tele.finish();
            });
        }
    }
}

/// One round event with its MIS observables and the `trace.*` counters,
/// as the crate-private `mis::runner::emit_round_event` emits them from a
/// resumable run's tick.
fn emit_round<A: SelfStabilizingMis>(
    tele: &Telemetry,
    report: &RoundReport,
    sim: &Simulator<'_, A>,
    algo: &A,
) {
    let graph = sim.graph();
    let active = sim.active();
    let levels = sim.states();
    let in_mis = claimed_mis(algo, graph, levels, active);
    let stable = graph
        .nodes()
        .filter(|&v| {
            active[v] && (in_mis[v] || graph.neighbors(v).iter().any(|&u| in_mis[u as usize]))
        })
        .count();
    let histogram = || {
        let mut h: BTreeMap<i64, u64> = BTreeMap::new();
        for &level in levels {
            *h.entry(i64::from(level)).or_insert(0) += 1;
        }
        h.into_iter().collect()
    };
    tele.record(Event::Round(RoundEvent {
        round: report.round,
        beeps_channel1: report.beeps_channel1 as u64,
        beeps_channel2: report.beeps_channel2 as u64,
        hearers_channel1: report.hearers_channel1 as u64,
        hearers_channel2: report.hearers_channel2 as u64,
        lone_beepers: report.lone_beepers as u64,
        lone_beepers_channel2: report.lone_beepers_channel2 as u64,
        active: sim.active_count() as u64,
        n: graph.len() as u64,
        in_mis: Some(in_mis.iter().filter(|&&m| m).count() as u64),
        stable: Some(stable as u64),
        levels: tele.sample_levels(report.round).then(histogram),
    }));
    tele.counter_add("trace.rounds", 1);
    tele.counter_add("trace.beeps_c1", report.beeps_channel1 as u64);
    tele.counter_add("trace.beeps_c2", report.beeps_channel2 as u64);
    tele.counter_add("trace.hearers_c1", report.hearers_channel1 as u64);
    tele.counter_add("trace.hearers_c2", report.hearers_channel2 as u64);
    tele.counter_add("trace.lone_c1", report.lone_beepers as u64);
    tele.counter_add("trace.lone_c2", report.lone_beepers_channel2 as u64);
}
