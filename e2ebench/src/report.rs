//! Metric names, summary statistics and the result line.

/// End-to-end metrics reported with `--trace 0`: (name, unit).
pub const END_TO_END: [(&str, &str); 4] =
    [("setup_s", "s"), ("run_s", "s"), ("node_rounds_per_s", "1/s"), ("peak_heap_mb", "MB")];

/// Per-layer metrics reported with `--trace 1`: (name, unit).
pub const PER_LAYER: [(&str, &str); 35] = [
    ("graphs.generate_s", "s"),
    ("graphs.policy_s", "s"),
    ("graphs.n", "count"),
    ("graphs.m", "count"),
    ("mis.init_s", "s"),
    ("mis.output_s", "s"),
    ("mis.sim_rounds", "count"),
    ("beeping.sim.step_s", "s"),
    ("beeping.sim.step_share", "fraction"),
    ("beeping.sim.step_us_p50", "us"),
    ("beeping.sim.step_us_p99", "us"),
    ("beeping.sim.node_execs", "count"),
    ("beeping.sim.edge_visits", "count"),
    ("mis.detector_s", "s"),
    ("mis.detector_calls", "count"),
    ("mis.detector_share", "fraction"),
    ("beeping.events.fault_s", "s"),
    ("beeping.events.churn_s", "s"),
    ("beeping.events.motion_s", "s"),
    ("beeping.events.motion_share", "fraction"),
    ("beeping.events.nodes_corrupted", "count"),
    ("beeping.events.edges_changed", "count"),
    ("telemetry.emit_s", "s"),
    ("telemetry.emit_share", "fraction"),
    ("telemetry.events", "count"),
    ("telemetry.bytes", "count"),
    ("harness.checkpoint_s", "s"),
    ("harness.encode_s", "s"),
    ("harness.write_s", "s"),
    ("harness.snapshots", "count"),
    ("harness.snapshot_bytes", "count"),
    ("trace.wall_s", "s"),
    ("trace.coverage", "fraction"),
    ("trace.overhead_s", "s"),
    ("trace.untraced_run_s", "s"),
];

/// The unit of a metric of either list.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END.iter().chain(&PER_LAYER).find(|(n, _)| *n == name).map(|(_, u)| *u)
}

/// Median; `0.0` for no samples.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// Nearest-rank percentile `p` in `[0, 100]`; `0.0` for no samples.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// The highest whole percentile with at least ten samples beyond it, for
/// `count` samples; `None` below eleven samples.
pub fn tail_percentile(count: usize) -> Option<u32> {
    (count > 10).then(|| u32::try_from(100 * (count - 10) / count).unwrap_or(0).max(1))
}

/// A timing line: median, sample count and the tail percentile.
pub fn describe_timing(name: &str, unit: &str, samples: &[f64]) -> String {
    let tail = match tail_percentile(samples.len()) {
        Some(p) => format!("p{p}={:.6} {unit}", percentile(samples, f64::from(p))),
        None => "no percentile has 10 samples beyond it".to_string(),
    };
    format!("{name:<20} median={:.6} {unit}  samples={}  {tail}", median(samples), samples.len())
}

/// The last line of standard output: `correct`, `attempted`, `failed` and
/// the metrics with their units.
pub fn result_json(
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: &[(String, f64)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            let unit = unit_of(name).unwrap_or("count");
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Resets this process's resident-set high-water mark to its current
/// resident set (Linux `clear_refs`), so [`peak_rss_mb`] measures from
/// here on. Does nothing where that file is missing.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Resident-set high-water mark of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 90.0), 90.0);
        assert_eq!(tail_percentile(10), None);
        assert_eq!(tail_percentile(100), Some(90));
        assert_eq!(tail_percentile(1000), Some(99));
    }

    #[test]
    fn result_line_is_json_with_units() {
        let line = result_json(true, 3, 0, &[("run_s".to_string(), 1.25)]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"run_s\": {\"value\": 1.25, \"unit\": \"s\"}}}"
        );
    }
}
