//! The benchmark's own tests, on small variants of every workload.

use std::path::PathBuf;

use e2ebench::bench::{run, Options};
use e2ebench::report::{END_TO_END, PER_LAYER};
use e2ebench::workload::{call, call_dir, check, setup, Kind, Raw, Spec};
use harness::supervisor::{snapshot_path, RunOutcome};
use mis::recovery::SegmentOutcome;
use mis::{Algorithm1, Algorithm2};

fn out_dir(test: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("e2ebench").join(test);
    std::fs::create_dir_all(&dir).expect("test output directory");
    dir
}

fn options(kind: Kind, trace: bool, test: &str) -> Options {
    Options { spec: Spec::small(kind), seed: 7, seconds: 60.0, trace, out: out_dir(test) }
}

#[test]
fn small_workloads_run_clean() {
    for kind in Kind::ALL {
        let s = run(&options(kind, false, "clean")).expect("run");
        assert!(s.correct, "{}: {:?}", kind.name(), s.log);
        assert_eq!(s.failed, 0);
        // The warm-up is checked and counted like a timed trial.
        assert_eq!(
            s.attempted,
            (Spec::small(kind).trials as usize + 1) * Spec::small(kind).ops_per_call()
        );
        for (name, _) in END_TO_END {
            let value = s.metric(name).expect("every end-to-end metric is reported");
            assert!(value > 0.0, "{}: {name} = {value}", kind.name());
        }
    }
}

#[test]
fn a_run_past_its_cap_stops_after_the_first_timed_trial() {
    let kind = Kind::Recover;
    let s = run(&Options { seconds: 0.0, ..options(kind, false, "capped") }).expect("run");
    assert!(s.correct, "{:?}", s.log);
    assert_eq!(s.attempted, 2 * Spec::small(kind).ops_per_call());
    assert!(s.log[0].contains("CAPPED after 1 of 2 trials"), "{}", s.log[0]);
}

#[test]
fn traced_replay_digest_equals_untraced_digest() {
    for kind in Kind::ALL {
        let s = run(&options(kind, true, "traced")).expect("run");
        // A replay whose digest (or, on `supervised`, telemetry stream)
        // differs from the untraced call's fails its trial.
        assert!(s.correct, "{}: {:?}", kind.name(), s.log);
        let names: Vec<&str> = s.metrics.iter().map(|(n, _)| n.as_str()).collect();
        let expected: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        let mut expected_sorted = expected.clone();
        expected_sorted.sort_unstable();
        assert_eq!(sorted, expected_sorted, "traced runs report exactly the per-layer metrics");
        assert!(s.metric("beeping.sim.step_s").unwrap_or(0.0) > 0.0);
        assert!(s.metric("trace.coverage").unwrap_or(0.0) > 0.5);
    }
}

#[test]
fn non_mis_output_is_a_failure() {
    let spec = Spec::small(Kind::Stabilize);
    let trial = setup::<Algorithm1>(&spec, 3, 0);
    let dir = call_dir(&out_dir("non_mis"), spec.kind, 0, "u").expect("dir");
    let Raw::Runner(Ok(mut outcome)) = call(&trial, &dir) else { panic!("stabilize runs") };
    assert_eq!(check(&trial, &Raw::Runner(Ok(outcome.clone())), &dir).failed, 0);
    let member = outcome.mis.iter().position(|&m| m).expect("an MIS is not empty");
    outcome.mis[member] = false;
    let v = check(&trial, &Raw::Runner(Ok(outcome)), &dir);
    assert_eq!((v.ops, v.failed), (1, 1));
}

#[test]
fn unrecovered_segment_is_a_failure() {
    let spec = Spec::small(Kind::Recover);
    let trial = setup::<Algorithm1>(&spec, 3, 0);
    let dir = call_dir(&out_dir("unrecovered"), spec.kind, 0, "u").expect("dir");
    let Raw::Noisy(mut outcome) = call(&trial, &dir) else { panic!("recover runs") };
    let clean = check(&trial, &Raw::Noisy(outcome.clone()), &dir);
    assert_eq!((clean.ops, clean.failed), (spec.ops_per_call(), 0));
    outcome.events[1].outcome = SegmentOutcome::Interrupted { rounds: spec.period };
    let v = check(&trial, &Raw::Noisy(outcome.clone()), &dir);
    assert_eq!(v.failed, 1);
    // A run that stopped at a diverged segment fails the segments it never
    // reached as well.
    outcome.events.truncate(2);
    outcome.events[1].outcome = SegmentOutcome::Diverged { rounds: spec.budget };
    let v = check(&trial, &Raw::Noisy(outcome), &dir);
    assert_eq!(v.failed, spec.ops_per_call() - 1);
}

#[test]
fn unreadable_final_snapshot_is_a_failure() {
    let spec = Spec::small(Kind::Supervised);
    let trial = setup::<Algorithm2>(&spec, 3, 0);
    let dir = call_dir(&out_dir("snapshot"), spec.kind, 0, "u").expect("dir");
    let raw = call(&trial, &dir);
    assert_eq!(check(&trial, &raw, &dir).failed, 0);
    std::fs::write(snapshot_path(&dir), b"not a snapshot").expect("overwrite");
    assert_eq!(check(&trial, &raw, &dir).failed, 1);
}

#[test]
fn short_moving_run_is_a_failure() {
    let spec = Spec::small(Kind::Mobile);
    let trial = setup::<Algorithm1>(&spec, 3, 0);
    let dir = call_dir(&out_dir("mobile"), spec.kind, 0, "u").expect("dir");
    let Raw::Supervised(Ok(RunOutcome::BudgetExhausted(mut o))) = call(&trial, &dir) else {
        panic!("a moving deployment runs out its budget")
    };
    assert_eq!(
        check(&trial, &Raw::Supervised(Ok(RunOutcome::BudgetExhausted(o.clone()))), &dir).failed,
        0
    );
    o.rounds_run -= 1;
    let v = check(&trial, &Raw::Supervised(Ok(RunOutcome::BudgetExhausted(o))), &dir);
    assert_eq!(v.failed, 1);
    let v = check(&trial, &Raw::Supervised(Err("boom".into())), &dir);
    assert_eq!(v.failed, 1);
}

fn is_name(s: &str) -> bool {
    !s.is_empty() && s.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Every string value of `"key": "..."` in `text`.
fn string_values<'a>(text: &'a str, key: &str) -> Vec<&'a str> {
    let pattern = format!("\"{key}\": \"");
    text.match_indices(&pattern)
        .filter_map(|(i, _)| {
            let rest = &text[i + pattern.len()..];
            rest.find('"').map(|end| &rest[..end])
        })
        .collect()
}

#[test]
fn metric_and_workload_names_are_plain() {
    let ours: Vec<&str> = Kind::ALL
        .iter()
        .map(|k| k.name())
        .chain(END_TO_END.iter().chain(&PER_LAYER).map(|(n, _)| *n))
        .collect();
    for name in &ours {
        assert!(is_name(name), "{name:?} must match [A-Za-z0-9_.-]+");
    }
    let record = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let mut listed = string_values(&record, "name");
    let mut expected = ours.clone();
    listed.sort_unstable();
    expected.sort_unstable();
    assert_eq!(listed, expected, "BENCHMARK.json names exactly the workloads and metrics");
    for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(record.contains(&entry), "BENCHMARK.json lists {name} in {unit}");
    }
}
