//! One benchmark run: the workload's fixed number of trials, then the
//! end-to-end metrics (untraced) or the per-layer metrics (traced).
//!
//! Trial 0 is the warm-up of an untraced run: checked and counted, timed
//! by nobody, and the one trial whose heap is counted. Trials `1..=trials`
//! are the timed ones, in both modes.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::Instant;

use mis::{Algorithm1, Algorithm2};

use crate::heap;
use crate::replay::{replay, stream_signature, Counts, StreamSignature, LAYERS, ROOT};
use crate::report::{describe_timing, median, peak_rss_mb, percentile, reset_peak_rss};
use crate::workload::{
    call, call_dir, check, setup, BenchAlgo, Kind, Spec, Verdict, TELEMETRY_FILE,
};

/// What to run.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workload and size.
    pub spec: Spec,
    /// Workload seed; trial `i` derives its inputs from it.
    pub seed: u64,
    /// The time a run is meant to measure. No timed trial after the first
    /// starts once [`CAP_FACTOR`] times this has passed.
    pub seconds: f64,
    /// Replay each trial traced and report per-layer metrics.
    pub trace: bool,
    /// Directory for snapshots, telemetry and span files.
    pub out: PathBuf,
}

/// A run that falls this far behind `seconds` stops early, so that a very
/// slow commit still ends; the report then says how many trials it made.
pub const CAP_FACTOR: f64 = 2.0;

/// The outcome of a run.
#[derive(Debug, Clone, Default)]
pub struct Summary {
    /// Every output passed its checks.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: usize,
    /// Operations failed.
    pub failed: usize,
    /// Metrics by name.
    pub metrics: Vec<(String, f64)>,
    /// Human-readable report lines.
    pub log: Vec<String>,
}

impl Summary {
    /// The value of a metric.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }
}

/// Runs the workload of `opts`.
///
/// # Errors
///
/// The output directory or a trial directory cannot be written.
pub fn run(opts: &Options) -> std::io::Result<Summary> {
    std::fs::create_dir_all(&opts.out)?;
    match opts.spec.kind {
        Kind::Supervised => run_as::<Algorithm2>(opts),
        _ => run_as::<Algorithm1>(opts),
    }
}

/// One set-up plus entry-point call, checked.
struct Measured {
    setup_s: f64,
    run_s: f64,
    /// Resident high-water mark of the process after the call, before the
    /// output check allocates.
    peak_rss_mb: f64,
    /// The most heap bytes held at once through set-up and call, in MB,
    /// when counted.
    heap_mb: Option<f64>,
    verdict: Verdict,
    stream: Option<StreamSignature>,
    dir: PathBuf,
}

fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// Sets up and calls trial `index`, counting its heap if `count_heap`.
fn measure<A: BenchAlgo>(
    opts: &Options,
    index: u64,
    tag: &str,
    count_heap: bool,
) -> std::io::Result<Measured> {
    let spec = &opts.spec;
    let dir = call_dir(&opts.out, spec.kind, index, tag)?;
    if count_heap {
        heap::start();
    }
    let clock = Instant::now();
    let trial = setup::<A>(spec, opts.seed, index);
    let setup_s = clock.elapsed().as_secs_f64();
    let clock = Instant::now();
    let raw = catch_unwind(AssertUnwindSafe(|| call(&trial, &dir)));
    let run_s = clock.elapsed().as_secs_f64();
    let heap_mb = count_heap.then(heap::stop);
    let peak_rss_mb = peak_rss_mb().unwrap_or(0.0);
    let verdict = match raw {
        Ok(raw) => {
            catch_unwind(AssertUnwindSafe(|| check(&trial, &raw, &dir))).unwrap_or_else(|p| {
                Verdict::failure(spec, format!("check panicked: {}", panic_text(&*p)))
            })
        }
        Err(p) => Verdict::failure(spec, format!("call panicked: {}", panic_text(&*p))),
    };
    let stream = match spec.kind {
        Kind::Supervised => stream_signature(&dir.join(TELEMETRY_FILE)).ok(),
        _ => None,
    };
    Ok(Measured { setup_s, run_s, peak_rss_mb, heap_mb, verdict, stream, dir })
}

/// Whether timed trial `index` is not to start, because the run that
/// started at `start` is past its cap. The first timed trial always runs.
fn capped(opts: &Options, index: u64, start: Instant) -> bool {
    index > 1 && start.elapsed().as_secs_f64() >= CAP_FACTOR * opts.seconds
}

fn header(opts: &Options, trials: usize) -> String {
    let cut = if (trials as u64) < opts.spec.trials {
        format!(" CAPPED after {trials} of {} trials", opts.spec.trials)
    } else {
        String::new()
    };
    format!(
        "# workload={} seed={} n={} trials={} mode={} engine={:?} threads_available={}{cut}",
        opts.spec.kind.name(),
        opts.seed,
        opts.spec.n,
        trials,
        if opts.trace { "traced" } else { "untraced" },
        beeping::EngineMode::default(),
        std::thread::available_parallelism().map_or(1, |p| p.get()),
    )
}

fn tally(summary: &mut Summary, index: u64, v: &Verdict) {
    summary.attempted += v.ops;
    summary.failed += v.failed;
    for problem in &v.problems {
        summary.log.push(format!("FAILED trial {index}: {problem}"));
    }
}

fn run_as<A: BenchAlgo>(opts: &Options) -> std::io::Result<Summary> {
    if opts.trace {
        traced::<A>(opts)
    } else {
        untraced::<A>(opts)
    }
}

fn untraced<A: BenchAlgo>(opts: &Options) -> std::io::Result<Summary> {
    let start = Instant::now();
    let mut summary = Summary::default();
    let (mut setup_s, mut run_s, mut op_rounds) = (Vec::new(), Vec::new(), Vec::new());
    let mut rates = Vec::new();
    let mut counts = Vec::new();
    // The warm-up gives the heap peak and the resident high-water mark of
    // the first set-up and call. Later trials start from whatever memory
    // the allocator kept.
    reset_peak_rss();
    let warm = measure::<A>(opts, 0, "w", true)?;
    std::fs::remove_dir_all(&warm.dir)?;
    tally(&mut summary, 0, &warm.verdict);
    let (heap_mb, rss) = (warm.heap_mb.unwrap_or(0.0), warm.peak_rss_mb);
    counts.push(format!(
        "trial=0 warm-up digest={:016x} rounds_run={} op_rounds={:?}",
        warm.verdict.digest, warm.verdict.rounds_run, warm.verdict.op_rounds
    ));
    for index in 1..=opts.spec.trials {
        if capped(opts, index, start) {
            break;
        }
        let m = measure::<A>(opts, index, "u", false)?;
        std::fs::remove_dir_all(&m.dir)?;
        tally(&mut summary, index, &m.verdict);
        setup_s.push(m.setup_s);
        run_s.push(m.run_s);
        rates.push(opts.spec.n as f64 * m.verdict.rounds_run as f64 / m.run_s);
        op_rounds.extend(m.verdict.op_rounds.iter().map(|&r| r as f64));
        let stream = m.stream.map_or(String::new(), |s| {
            format!(" telemetry_events={} telemetry_bytes={}", s.events, s.bytes)
        });
        counts.push(format!(
            "trial={index} setup_s={:.6} run_s={:.6} digest={:016x} rounds_run={} op_rounds={:?}{stream}",
            m.setup_s, m.run_s, m.verdict.digest, m.verdict.rounds_run, m.verdict.op_rounds
        ));
    }
    summary.correct = summary.failed == 0;
    summary.metrics = vec![
        ("setup_s".into(), median(&setup_s)),
        ("run_s".into(), median(&run_s)),
        ("node_rounds_per_s".into(), median(&rates)),
        ("peak_heap_mb".into(), heap_mb),
    ];
    let mut log = vec![header(opts, run_s.len())];
    log.push(describe_timing("setup_s", "s", &setup_s));
    log.push(describe_timing("run_s", "s", &run_s));
    log.push(format!(
        "{:<20} median={:.1} 1/s  samples={}  (n*rounds_run / run time of each call)",
        "node_rounds_per_s",
        median(&rates),
        rates.len()
    ));
    log.push(format!(
        "{:<20} {heap_mb:.3} MB  (live heap bytes, warm-up set-up through call)",
        "peak_heap_mb"
    ));
    log.push(format!(
        "{:<20} {rss:.3} MB  (VmHWM after the warm-up set-up and call)",
        "peak_rss_mb"
    ));
    log.push(format!(
        "{:<20} {:.6}  ({} failed / {} attempted)",
        "failed_frac",
        summary.failed as f64 / summary.attempted.max(1) as f64,
        summary.failed,
        summary.attempted
    ));
    log.push(format!(
        "{:<20} median={} rounds  samples={}",
        "sim_rounds",
        median(&op_rounds),
        op_rounds.len()
    ));
    log.extend(counts);
    log.append(&mut summary.log);
    summary.log = log;
    Ok(summary)
}

/// Per-trial numbers of a traced replay.
struct TracedTrial {
    self_s: BTreeMap<&'static str, f64>,
    wall_s: f64,
    overhead_s: f64,
    untraced_run_s: f64,
}

fn traced<A: BenchAlgo>(opts: &Options) -> std::io::Result<Summary> {
    let start = Instant::now();
    let mut summary = Summary::default();
    let mut trials: Vec<TracedTrial> = Vec::new();
    let mut step_us: Vec<f64> = Vec::new();
    let mut first: Option<(u64, Counts, BTreeMap<&'static str, u64>)> = None;
    let mut made = 0;
    for index in 1..=opts.spec.trials {
        if capped(opts, index, start) {
            break;
        }
        made += 1;
        let m = measure::<A>(opts, index, "u", false)?;
        let rdir = call_dir(&opts.out, opts.spec.kind, index, "t")?;
        let mut verdict = m.verdict.clone();
        match catch_unwind(AssertUnwindSafe(|| replay::<A>(&opts.spec, opts.seed, index, &rdir))) {
            Err(p) => verdict.problems.push(format!("replay panicked: {}", panic_text(&*p))),
            Ok(r) => {
                verdict.problems.extend(r.problems.iter().cloned());
                if r.digest != m.verdict.digest {
                    verdict.problems.push(format!(
                        "replay digest {:016x} differs from the call's {:016x}",
                        r.digest, m.verdict.digest
                    ));
                }
                if opts.spec.kind == Kind::Supervised && r.stream != m.stream.map(|s| s.hash) {
                    verdict.problems.push("replay telemetry stream differs from the call's".into());
                }
                let layers = r.tracer.layers();
                let wall_s = r.wall_ns() as f64 * 1e-9;
                trials.push(TracedTrial {
                    self_s: layers.iter().map(|(&k, v)| (k, v.self_ns as f64 * 1e-9)).collect(),
                    wall_s,
                    overhead_s: r.run_ns() as f64 * 1e-9 - m.run_s,
                    untraced_run_s: m.run_s,
                });
                step_us.extend(
                    r.tracer.durations("beeping.sim.step").iter().map(|&ns| ns as f64 * 1e-3),
                );
                if first.is_none() {
                    r.tracer.write_jsonl(&spans_path(&opts.out, opts.spec.kind))?;
                    let calls = layers.iter().map(|(&k, v)| (k, v.count)).collect();
                    first = Some((r.digest, r.counts.clone(), calls));
                }
            }
        }
        if verdict.problems.len() > m.verdict.problems.len() {
            verdict.failed = verdict.ops;
        }
        tally(&mut summary, index, &verdict);
        std::fs::remove_dir_all(&m.dir)?;
        std::fs::remove_dir_all(&rdir)?;
    }
    summary.correct = summary.failed == 0;
    let (digest, counts, calls) = first.unwrap_or_default();
    let per_trial =
        |f: &dyn Fn(&TracedTrial) -> f64| median(&trials.iter().map(f).collect::<Vec<_>>());
    let self_s = |layer: &str| per_trial(&|t| t.self_s.get(layer).copied().unwrap_or(0.0));
    let share =
        |layer: &str| per_trial(&|t| t.self_s.get(layer).copied().unwrap_or(0.0) / t.wall_s);
    let coverage = per_trial(&|t| 1.0 - t.self_s.get(ROOT).copied().unwrap_or(0.0) / t.wall_s);

    let mut metrics: Vec<(String, f64)> = Vec::new();
    for layer in LAYERS.iter().filter(|&&l| l != ROOT) {
        metrics.push((format!("{layer}_s"), self_s(layer)));
    }
    metrics.extend([
        ("graphs.n".to_string(), counts.graph_n as f64),
        ("graphs.m".to_string(), counts.graph_m as f64),
        ("mis.sim_rounds".to_string(), counts.sim_rounds as f64),
        ("beeping.sim.step_share".to_string(), share("beeping.sim.step")),
        ("beeping.sim.step_us_p50".to_string(), percentile(&step_us, 50.0)),
        ("beeping.sim.step_us_p99".to_string(), percentile(&step_us, 99.0)),
        ("beeping.sim.node_execs".to_string(), counts.node_execs as f64),
        ("beeping.sim.edge_visits".to_string(), counts.edge_visits as f64),
        ("mis.detector_calls".to_string(), counts.detector_calls as f64),
        ("mis.detector_share".to_string(), share("mis.detector")),
        ("beeping.events.motion_share".to_string(), share("beeping.events.motion")),
        ("beeping.events.nodes_corrupted".to_string(), counts.nodes_corrupted as f64),
        ("beeping.events.edges_changed".to_string(), counts.edges_changed as f64),
        ("telemetry.emit_share".to_string(), share("telemetry.emit")),
        ("telemetry.events".to_string(), counts.telemetry_events as f64),
        ("telemetry.bytes".to_string(), counts.telemetry_bytes as f64),
        ("harness.snapshots".to_string(), counts.snapshots as f64),
        ("harness.snapshot_bytes".to_string(), counts.snapshot_bytes as f64),
        ("trace.wall_s".to_string(), per_trial(&|t| t.wall_s)),
        ("trace.coverage".to_string(), coverage),
        ("trace.overhead_s".to_string(), per_trial(&|t| t.overhead_s)),
        ("trace.untraced_run_s".to_string(), per_trial(&|t| t.untraced_run_s)),
    ]);
    summary.metrics = metrics;

    let mut log = vec![header(opts, made)];
    log.push(format!("{:<24} {:>12} {:>8} {:>10}", "layer", "self_s", "share", "count"));
    let mut rows: Vec<(&str, f64)> =
        LAYERS.iter().map(|&l| (l, self_s(l))).filter(|&(l, _)| calls.contains_key(l)).collect();
    rows.sort_by(|a, b| b.1.total_cmp(&a.1));
    for (layer, secs) in rows {
        let name = if layer == ROOT { "(uncovered)" } else { layer };
        let count = if layer == ROOT { 0 } else { calls.get(layer).copied().unwrap_or(0) };
        log.push(format!("{name:<24} {secs:>12.6} {:>8.4} {count:>10}", share(layer)));
    }
    log.push(format!(
        "coverage={coverage:.4} wall_s={:.6} overhead_s={:.6} step_us p50={:.1} p99={:.1} (steps={})",
        per_trial(&|t| t.wall_s),
        per_trial(&|t| t.overhead_s),
        percentile(&step_us, 50.0),
        percentile(&step_us, 99.0),
        step_us.len()
    ));
    log.push(format!("trial=0 digest={digest:016x} {counts:?}"));
    log.append(&mut summary.log);
    summary.log = log;
    Ok(summary)
}

/// Where the spans of the first traced trial are written.
pub fn spans_path(out: &Path, kind: Kind) -> PathBuf {
    out.join(format!("spans-{}.jsonl", kind.name()))
}
