//! `e2ebench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a human-readable report, then one JSON object with `correct`,
//! `attempted`, `failed` and the metrics, as the last line of each
//! workload's report. `all` runs the four workloads in turn. Files go to
//! `.bench_out/` under the current directory.

use std::path::PathBuf;
use std::process::ExitCode;

use e2ebench::bench::{run, Options};
use e2ebench::report::result_json;
use e2ebench::workload::{Kind, Spec};

const USAGE: &str = "usage: e2ebench --workload stabilize|recover|supervised|mobile|all \
                     --seed <u64> --seconds <secs> --trace <0|1>";

fn parse(args: &[String]) -> Result<Vec<Options>, String> {
    let mut kinds = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} expects a value"))?;
        match flag.as_str() {
            "--workload" => {
                kinds = Some(match value.as_str() {
                    "all" => Kind::ALL.to_vec(),
                    name => vec![Kind::from_name(name)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?],
                })
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| "--seed expects a u64")?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| "--seconds expects a number")?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err("--seconds expects a non-negative number".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace expects 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let kinds = kinds.ok_or("--workload is required")?;
    let seed = seed.ok_or("--seed is required")?;
    let seconds = seconds.ok_or("--seconds is required")?;
    Ok(kinds
        .into_iter()
        .map(|kind| Options {
            spec: Spec::full(kind),
            seed,
            seconds,
            trace: trace.unwrap_or(false),
            out: PathBuf::from(".bench_out"),
        })
        .collect())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let runs = match parse(&args) {
        Ok(runs) => runs,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    for opts in &runs {
        match run(opts) {
            Ok(summary) => {
                for line in &summary.log {
                    println!("{line}");
                }
                println!(
                    "{}",
                    result_json(
                        summary.correct,
                        summary.attempted,
                        summary.failed,
                        &summary.metrics
                    )
                );
            }
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
