//! Telemetry determinism and round-trip tests for the runner layer.
//!
//! The contract under test (DESIGN.md §9): telemetry is strictly
//! observational. Attaching an enabled handle with recording sinks must not
//! change a single bit of any run — same MIS, same final levels, same
//! stabilization round, same per-round trace — across graph families,
//! channel counts (Algorithm 1 vs 2) and fault plans. The serialized JSONL
//! stream must round-trip: parse back and reproduce the in-memory `Trace`
//! totals exactly.

use beeping::faults::{FaultPlan, FaultTarget};
use graphs::generators::GraphFamily;
use graphs::Graph;
use mis::runner::{self, InitialLevels, Outcome, RunConfig, SelfStabilizingMis};
use mis::{Algorithm1, Algorithm2, LmaxPolicy};
use telemetry::jsonl::{parse_jsonl, Value};
use telemetry::{Config, Event, JsonlSink, MemorySink, Telemetry};

fn families() -> Vec<GraphFamily> {
    vec![GraphFamily::Cycle, GraphFamily::Gnp { avg_degree: 8.0 }, GraphFamily::Regular { d: 4 }]
}

fn fault_plans() -> Vec<FaultPlan> {
    vec![
        FaultPlan::new(),
        FaultPlan::new().with_fault(10, FaultTarget::RandomFraction(0.3)),
        FaultPlan::new()
            .with_fault(5, FaultTarget::RandomCount(4))
            .with_fault(15, FaultTarget::RandomFraction(0.5)),
    ]
}

fn assert_same_outcome(plain: &Outcome, observed: &Outcome, context: &str) {
    assert_eq!(plain.mis, observed.mis, "MIS diverged: {context}");
    assert_eq!(plain.levels, observed.levels, "levels diverged: {context}");
    assert_eq!(
        plain.stabilization_round, observed.stabilization_round,
        "stabilization round diverged: {context}"
    );
    assert_eq!(plain.rounds_run, observed.rounds_run, "rounds diverged: {context}");
    assert_eq!(
        plain.trace.reports(),
        observed.trace.reports(),
        "per-round trace diverged: {context}"
    );
}

fn run_pair<A: SelfStabilizingMis>(
    g: &Graph,
    algo: &A,
    seed: u64,
    faults: &FaultPlan,
) -> (Outcome, Outcome, telemetry::MemoryHandle) {
    let base = RunConfig::new(seed).with_max_rounds(100_000).with_faults(faults.clone());
    let plain = runner::run(g, algo, base.clone()).expect("plain run stabilizes");
    let tele = Telemetry::enabled(Config { level_stride: 4 });
    let (sink, handle) = MemorySink::new();
    tele.add_sink(Box::new(sink));
    let observed =
        runner::run(g, algo, base.with_telemetry(tele.clone())).expect("observed run stabilizes");
    (plain, observed, handle)
}

#[test]
fn bit_identity_across_families_channels_and_fault_plans() {
    for (i, family) in families().iter().enumerate() {
        let g = family.generate(48, 0x6000 + i as u64);
        for (j, faults) in fault_plans().iter().enumerate() {
            for seed in 0..2u64 {
                let context = format!("{family}, plan {j}, seed {seed}");
                // Algorithm 1: single channel.
                let algo1 = Algorithm1::new(&g, LmaxPolicy::global_delta(&g));
                let (plain, observed, handle) = run_pair(&g, &algo1, seed, faults);
                assert_same_outcome(&plain, &observed, &format!("Alg1, {context}"));
                assert_eq!(handle.rounds().len() as u64, observed.rounds_run);
                // Algorithm 2: two channels.
                let algo2 = Algorithm2::new(&g, LmaxPolicy::two_hop_degree(&g));
                let (plain, observed, _) = run_pair(&g, &algo2, seed, faults);
                assert_same_outcome(&plain, &observed, &format!("Alg2, {context}"));
            }
        }
    }
}

#[test]
fn round_events_mirror_the_trace() {
    let g = GraphFamily::Gnp { avg_degree: 8.0 }.generate(64, 0x6001);
    let algo = Algorithm1::new(&g, LmaxPolicy::global_delta(&g));
    let faults = FaultPlan::new().with_fault(8, FaultTarget::RandomFraction(0.4));
    let (_, outcome, handle) = run_pair(&g, &algo, 3, &faults);
    let rounds = handle.rounds();
    assert_eq!(rounds.len(), outcome.trace.len());
    for (e, r) in rounds.iter().zip(outcome.trace.reports()) {
        assert_eq!(e.round, r.round);
        assert_eq!(e.beeps_channel1, r.beeps_channel1 as u64);
        assert_eq!(e.beeps_channel2, r.beeps_channel2 as u64);
        assert_eq!(e.hearers_channel1, r.hearers_channel1 as u64);
        assert_eq!(e.hearers_channel2, r.hearers_channel2 as u64);
        assert_eq!(e.lone_beepers, r.lone_beepers as u64);
        assert_eq!(e.lone_beepers_channel2, r.lone_beepers_channel2 as u64);
        assert_eq!(e.n, g.len() as u64);
        assert!(e.in_mis.is_some() && e.stable.is_some());
        // Stride-4 histogram sampling.
        assert_eq!(e.levels.is_some(), e.round % 4 == 0, "round {}", e.round);
    }
    // One fault marker for the scheduled corruption.
    let markers: Vec<_> =
        handle.events().into_iter().filter(|e| matches!(e, Event::Marker(_))).collect();
    assert_eq!(markers.len(), 1);
}

#[test]
fn jsonl_round_trip_reproduces_trace_totals() {
    let g = GraphFamily::Regular { d: 4 }.generate(48, 0x6002);
    let algo = Algorithm1::new(&g, LmaxPolicy::global_delta(&g));
    let path = std::env::temp_dir().join(format!("mis_telemetry_{}.jsonl", std::process::id()));
    let tele = Telemetry::enabled(Config { level_stride: 0 })
        .with_sink(Box::new(JsonlSink::create(&path).expect("temp file")));
    let outcome = runner::run(
        &g,
        &algo,
        RunConfig::new(9).with_max_rounds(100_000).with_telemetry(tele.clone()),
    )
    .expect("stabilizes");
    let text = std::fs::read_to_string(&path).expect("stream written");
    let _ = std::fs::remove_file(&path);
    let docs = parse_jsonl(&text).expect("stream parses");
    let ty = |d: &Value| d.get("type").and_then(Value::as_str).unwrap_or_default().to_string();
    assert_eq!(ty(&docs[0]), "run_start");
    assert_eq!(ty(docs.last().unwrap()), "metrics");
    let rounds: Vec<&Value> = docs.iter().filter(|d| ty(d) == "round").collect();
    assert_eq!(rounds.len() as u64, outcome.rounds_run);
    let sum = |field: &str| -> usize {
        rounds.iter().map(|d| d.get(field).and_then(Value::as_u64).unwrap_or(0) as usize).sum()
    };
    // Parsed stream totals equal the in-memory Trace totals.
    assert_eq!(sum("beeps_c1"), outcome.trace.total_beeps_channel1());
    assert_eq!(sum("lone_c1"), outcome.trace.total_lone_beepers());
    assert_eq!(sum("lone_c2"), outcome.trace.total_lone_beepers_channel2());
    // ... and equal the accumulated metrics counters.
    let metrics = tele.metrics();
    assert_eq!(metrics.counter("trace.rounds"), outcome.rounds_run);
    assert_eq!(metrics.counter("trace.beeps_c1") as usize, outcome.trace.total_beeps_channel1());
    let end = docs.iter().find(|d| ty(d) == "run_end").expect("run_end present");
    assert_eq!(end.get("stabilized").unwrap().as_bool(), Some(true));
    assert_eq!(end.get("stabilization_round").unwrap().as_u64(), Some(outcome.stabilization_round));
}

#[test]
fn zero_round_run_streams_lifecycle_only() {
    // An already-stabilized initial configuration: the runner detects
    // stabilization before stepping, so the stream carries RunStart,
    // RunEnd, and the metrics snapshot — no round events, zero counters.
    let g = GraphFamily::Cycle.generate(24, 0x6003);
    let algo = Algorithm1::new(&g, LmaxPolicy::global_delta(&g));
    let stabilized = runner::run(&g, &algo, RunConfig::new(1).with_max_rounds(100_000))
        .expect("seed run stabilizes");
    let init = InitialLevels::Custom(stabilized.levels.iter().map(|&l| i64::from(l)).collect());
    let tele = Telemetry::enabled(Config { level_stride: 1 });
    let (sink, handle) = MemorySink::new();
    tele.add_sink(Box::new(sink));
    let outcome =
        runner::run(&g, &algo, RunConfig::new(2).with_init(init).with_telemetry(tele.clone()))
            .expect("already stabilized");
    assert_eq!(outcome.rounds_run, 0);
    assert_eq!(outcome.stabilization_round, 0);
    assert!(handle.rounds().is_empty());
    let events = handle.events();
    assert!(matches!(events.first(), Some(Event::RunStart { .. })));
    assert!(events.iter().any(|e| matches!(
        e,
        Event::RunEnd { rounds: 0, stabilized: true, stabilization_round: Some(0) }
    )));
    assert!(matches!(events.last(), Some(Event::Metrics(_))));
    assert_eq!(tele.metrics().counter("trace.rounds"), 0);
}

#[test]
fn entry_points_keep_their_labels_and_share_the_loop_forms() {
    // Every entry point drives the same round loop: each keeps its own
    // `RunStart` label, and the churn marker and the `RunEnd`
    // stabilization round take the loop's forms (detail "churn", counted
    // from the last scheduled event).
    use beeping::churn::{ChurnAction, ChurnPlan};
    use mis::recovery::{self, NoisyRunConfig};
    use mis::resumable::{ResumableConfig, ResumableRun};
    use telemetry::{Marker, MarkerKind};

    let recording = || {
        let tele = Telemetry::enabled(Config { level_stride: 8 });
        let (sink, handle) = MemorySink::new();
        tele.add_sink(Box::new(sink));
        (tele, handle)
    };
    let label = |events: &[Event]| match events.first() {
        Some(Event::RunStart { label, .. }) => label.clone(),
        other => panic!("stream must open with RunStart, got {other:?}"),
    };
    let g = GraphFamily::Gnp { avg_degree: 6.0 }.generate(40, 0x6004);
    let algo = Algorithm1::new(&g, LmaxPolicy::global_delta(&g));

    let (tele, handle) = recording();
    runner::run(&g, &algo, RunConfig::new(3).with_telemetry(tele)).expect("stabilizes");
    assert_eq!(label(&handle.events()), "runner");

    let (tele, handle) = recording();
    let mut run = ResumableRun::new(&g, &algo, ResumableConfig::new(3).with_telemetry(tele))
        .expect("valid plans");
    run.run_to_completion();
    assert_eq!(label(&handle.events()), "resumable");

    let (tele, handle) = recording();
    let churn = ChurnPlan::new().with_event(60, ChurnAction::NodeLeave(5));
    let config = NoisyRunConfig::new(3).with_churn(churn).with_telemetry(tele);
    let outcome = recovery::run_noisy(&g, &algo, &config);
    assert!(outcome.stabilized);
    let events = handle.events();
    assert_eq!(label(&events), "noisy");
    assert!(events.iter().any(|e| matches!(
        e,
        Event::Marker(Marker { round: 60, kind: MarkerKind::Churn, detail, magnitude: 1 })
            if detail == "churn"
    )));
    let expected = Some(outcome.total_rounds - 60);
    assert!(events.iter().any(|e| matches!(
        e,
        Event::RunEnd { stabilized: true, stabilization_round, .. } if *stabilization_round == expected
    )));
}
