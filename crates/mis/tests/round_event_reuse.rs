//! The run loops reuse the stability observation they take for a round
//! event as the next stop check, unless an event touches the simulator in
//! between. These runs schedule their last fault long after the network
//! has stabilized, where a stale observation would end the run at the
//! fault round, and require the telemetry-on run to match the plain one.

use beeping::faults::{FaultPlan, FaultTarget};
use graphs::generators::random::gnp;
use graphs::Graph;
use mis::recovery::{self, NoisyRunConfig};
use mis::resumable::{ResumableConfig, ResumableRun, RunStatus};
use mis::runner::{self, RunConfig};
use mis::{Algorithm1, LmaxPolicy};
use telemetry::{Config, MemorySink, Telemetry};

const SEED: u64 = 7;
const FAULT_ROUND: u64 = 3000;
const BUDGET: u64 = 20_000;

fn setup() -> (Graph, Algorithm1, FaultPlan) {
    let g = gnp(40, 0.1, SEED);
    let algo = Algorithm1::new(&g, LmaxPolicy::global_delta(&g));
    let clean = runner::run(&g, &algo, RunConfig::new(SEED).with_max_rounds(BUDGET)).unwrap();
    assert!(clean.rounds_run < FAULT_ROUND, "the fault must land on a stabilized network");
    let faults = FaultPlan::new().with_fault(FAULT_ROUND, FaultTarget::RandomFraction(0.5));
    (g, algo, faults)
}

fn recording() -> Telemetry {
    let tele = Telemetry::enabled(Config { level_stride: 4 });
    let (sink, _handle) = MemorySink::new();
    tele.add_sink(Box::new(sink));
    tele
}

#[test]
fn runner_rechecks_after_a_late_fault() {
    let (g, algo, faults) = setup();
    let config = RunConfig::new(SEED).with_max_rounds(BUDGET).with_faults(faults);
    let plain = runner::run(&g, &algo, config.clone()).unwrap();
    assert!(plain.rounds_run > FAULT_ROUND, "the fault must destabilize the network");
    let observed = runner::run(&g, &algo, config.with_telemetry(recording())).unwrap();
    assert_eq!(observed.rounds_run, plain.rounds_run);
    assert_eq!(observed.stabilization_round, plain.stabilization_round);
    assert_eq!(observed.levels, plain.levels);
}

#[test]
fn run_noisy_rechecks_after_a_late_fault() {
    let (g, algo, faults) = setup();
    let config = NoisyRunConfig::new(SEED).with_max_rounds(BUDGET).with_faults(faults);
    let plain = recovery::run_noisy(&g, &algo, &config);
    assert!(plain.stabilized && plain.total_rounds > FAULT_ROUND);
    let observed = recovery::run_noisy(&g, &algo, &config.with_telemetry(recording()));
    assert_eq!(observed.total_rounds, plain.total_rounds);
    assert_eq!(observed.events, plain.events);
    assert_eq!(observed.mis, plain.mis);
}

#[test]
fn resumable_tick_rechecks_after_a_late_fault() {
    let (g, algo, faults) = setup();
    let config = ResumableConfig::new(SEED).with_max_rounds(BUDGET).with_faults(faults);
    let mut plain = ResumableRun::new(&g, &algo, config.clone()).unwrap();
    assert_eq!(plain.run_to_completion(), RunStatus::Stabilized);
    let plain = plain.outcome().unwrap();
    assert!(plain.rounds_run > FAULT_ROUND);
    let mut observed = ResumableRun::new(&g, &algo, config.with_telemetry(recording())).unwrap();
    assert_eq!(observed.run_to_completion(), RunStatus::Stabilized);
    let observed = observed.outcome().unwrap();
    assert_eq!(observed.rounds_run, plain.rounds_run);
    assert_eq!(observed.levels, plain.levels);
}
