//! Wall-clock end-to-end benchmark of the Bao serving stack.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload imdb-serve --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` serves instances of the workload through
//! `ServingRunner::run` (no tracing), a different instance per repetition,
//! as many as `--seconds` allows and at least three. It reports the
//! end-to-end metrics as medians over those repetitions. `--trace 1`
//! serves instance 0 once untraced and once through a traced replay of the
//! public layer calls, and reports per-layer metrics. Human-readable lines
//! come first; the last line of standard output is one JSON object.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use bao_perfbench::e2e::{peak_rss_mb, run_rep, Failure, Inputs, Outcome};
use bao_perfbench::layers::{traced_metrics, Metric};
use bao_perfbench::spec::{Spec, Widths};
use bao_perfbench::stats::median;

/// Repetitions per run whatever `--seconds` says, so set-up time and
/// throughput are always medians of several samples.
const MIN_REPS: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

struct Report {
    attempted: usize,
    failed: usize,
    metrics: Vec<Metric>,
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                Spec::NAMES.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let Some(spec) = Spec::named(&args.workload) else {
        eprintln!(
            "perfbench: unknown workload {} (known: {})",
            args.workload,
            Spec::NAMES.join(", ")
        );
        return ExitCode::from(2);
    };
    let widths = Widths::resolve();
    println!(
        "workload {} seed {} trace {}",
        spec.name,
        args.seed,
        u8::from(args.trace)
    );
    println!("host {}", widths.describe());
    println!(
        "wall-clock figures are from this host and build, not from a device; \
         sim_* figures are simulated time"
    );

    let wal_root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("work");
    let outcome = if args.trace {
        traced_report(&spec, args.seed, &wal_root)
    } else {
        untraced_report(&spec, args.seed, &wal_root, args.seconds)
    };
    let (report, correct) = match outcome {
        Ok(r) => (r, true),
        Err(f) => {
            eprintln!("perfbench: {f}");
            println!("FAILED: {f}");
            let correct = !matches!(f, Failure::Mismatch(_));
            let report = Report {
                attempted: spec.n_queries,
                failed: spec.n_queries,
                metrics: vec![],
            };
            print_json(&report, correct);
            return ExitCode::from(1);
        }
    };
    for (name, value, unit) in &report.metrics {
        println!("{name:<32} {value:>16.6} {unit}");
    }
    println!(
        "error_rate {:.6} ({} failed of {} attempted)   [{}]",
        report.failed as f64 / report.attempted.max(1) as f64,
        report.failed,
        report.attempted,
        widths.describe()
    );
    print_json(&report, correct);
    if report.failed > 0 {
        return ExitCode::from(1);
    }
    ExitCode::SUCCESS
}

fn print_json(report: &Report, correct: bool) {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            let v = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted.max(1),
        report.failed,
        metrics.join(", ")
    );
}

fn untraced_report(spec: &Spec, seed: u64, wal_root: &Path, seconds: f64) -> Outcome<Report> {
    let started = Instant::now();
    let mut reps = Vec::new();
    while reps.len() < MIN_REPS || started.elapsed().as_secs_f64() < seconds {
        let r = reps.len();
        let inputs = Inputs::generate(spec, Spec::instance_seed(seed, r))?;
        // Recovery is checked once per run; repeating it would halve the
        // number of instances a run can serve.
        reps.push(run_rep(&inputs, wal_root, &r.to_string(), r == 0)?);
    }
    let attempted = reps.len() * spec.n_queries;
    let answered: usize = reps.iter().map(|r| r.queries).sum();
    let qps: Vec<f64> = reps.iter().map(|r| r.queries as f64 / r.wall_s).collect();
    let setup: Vec<f64> = reps.iter().map(|r| r.setup_s).collect();
    let recover: Vec<f64> = reps.iter().filter_map(|r| r.recover_s).collect();
    println!(
        "samples: {} repetitions, each a different instance of {} queries",
        reps.len(),
        spec.n_queries
    );
    println!("per-repetition qps: {qps:.3?}");
    println!("per-repetition setup_s: {setup:.4?}");
    // Reported beside the gated metrics: a deterministic simulated figure
    // and two that only some workloads or seeds make meaningful.
    println!(
        "sim_exec_s {:.6} s (simulated execution time of the chosen plans)",
        reps[0].result.total_exec.as_secs()
    );
    println!(
        "peak_rss_mb {:.3} MiB (VmHWM of this process)",
        peak_rss_mb()?
    );
    if !recover.is_empty() {
        println!(
            "recover_s {:.4} s (median recovery plus resume, {} samples)",
            median(&recover),
            recover.len()
        );
    }
    let metrics = vec![
        ("qps", median(&qps), "1/s"),
        ("setup_s", median(&setup), "s"),
    ];
    Ok(Report {
        attempted,
        failed: attempted - answered,
        metrics,
    })
}

fn traced_report(spec: &Spec, seed: u64, wal_root: &Path) -> Outcome<Report> {
    let inputs = Inputs::generate(spec, Spec::instance_seed(seed, 0))?;
    let metrics = traced_metrics(&inputs, wal_root)?;
    Ok(Report {
        attempted: inputs.len(),
        failed: 0,
        metrics,
    })
}
