//! The traced pass: an untraced reference run, the traced replay, and the
//! per-layer metrics derived from the replay's spans and counters.

use std::path::Path;
use std::time::Instant;

use bao_wal::Wal;

use crate::driver::traced_run;
use crate::e2e::{canonical, check, remove_dir, run_rep, wal_dir, Failure, Inputs, Outcome};
use crate::stats::{percentile, ratio, tail_percentile};
use crate::trace::{layers, Layer};

/// Per-layer metric: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// Layers whose self-time share of the traced wall is reported, with the
/// span names that make them up.
pub const SHARES: [(&str, &[&str]); 8] = [
    ("sql.parse_share", &["sql.parse"]),
    ("core.select_share", &["core.select"]),
    ("core.plan_arm_share", &["core.plan_arm"]),
    ("exec.share", &["exec.execute"]),
    ("nn.retrain_share", &["nn.retrain"]),
    ("workloads.event_share", &["workloads.event"]),
    (
        "wal.commit_share",
        &["wal.commit", "wal.append", "wal.open"],
    ),
    (
        "cache.share",
        &["cache.lookup", "cache.insert", "cache.observe"],
    ),
];

/// Run the reference and the traced replay of `inputs`, check that they
/// agree, and derive the per-layer metrics. Spans are written to
/// `work_root/trace-<workload>.tsv`.
pub fn traced_metrics(inputs: &Inputs, work_root: &Path) -> Outcome<Vec<Metric>> {
    let spec = &inputs.spec;
    let reference = run_rep(inputs, work_root, "ref", true)?;
    let wal = if spec.wal {
        Some(wal_dir(work_root, spec, "traced")?)
    } else {
        None
    };
    let run = traced_run(inputs, wal)?;
    check(
        canonical(&run.result) == canonical(&reference.result),
        || "traced replay's RunResult differs from ServingRunner::run".into(),
    )?;

    let (mut scan_s, mut frames, mut bytes) = (0.0, 0.0, 0.0);
    if let Some(dir) = &run.wal_dir {
        let t = Instant::now();
        let scan = Wal::scan(dir)?;
        scan_s = t.elapsed().as_secs_f64();
        frames = scan.report.frames_valid as f64;
        bytes = scan.report.bytes_valid as f64;
        remove_dir(dir)?;
    }
    run.tracer
        .write_tsv(&work_root.join(format!("trace-{}.tsv", spec.name)))
        .map_err(|e| Failure::Error(format!("writing spans: {e}")))?;

    let l = layers(run.tracer.spans());
    let empty = Layer::default();
    let get = |name: &str| l.get(name).unwrap_or(&empty);
    let wall_s = run.wall_ns as f64 * 1e-9;
    let accounted_s: f64 = l.values().map(Layer::self_s).sum();
    let c = &run.counters;
    let sh = &run.shadow;
    let n = inputs.len() as f64;

    let exec_ms: Vec<f64> = get("exec.execute")
        .samples
        .iter()
        .map(|&ns| ns as f64 * 1e-6)
        .collect();
    let tail = tail_percentile(exec_ms.len());
    let retrain = get("nn.retrain");
    let recover_s = reference.recover_s.unwrap_or(0.0);

    println!(
        "traced wall {wall_s:.3} s, untraced wall {:.3} s, {} spans, {} waves",
        reference.wall_s,
        run.tracer.spans().len(),
        c.waves
    );
    println!("layer self times (s, share of traced wall, calls):");
    for (name, layer) in &l {
        println!(
            "  {name:<18} {:>9.4} {:>7.2}% {:>7}",
            layer.self_s(),
            100.0 * ratio(layer.self_s(), wall_s),
            layer.calls
        );
    }
    match tail {
        Some(p) => println!("exec.execute_ms.tail is p{p} of {} calls", exec_ms.len()),
        None => println!(
            "exec.execute_ms.tail: {} calls are too few for a tail",
            exec_ms.len()
        ),
    }
    // Layers that only some workloads run are reported in the JSON result
    // as shares, which read 0 where the layer does not run; their times are
    // printed here.
    if spec.plan_cache.is_some() {
        println!("cache.lookup_us {:.4} us", get("cache.lookup").mean_us());
    }
    if inputs.workload.n_events() > 0 {
        println!("workloads.event_s {:.4} s", get("workloads.event").self_s());
    }
    if run.wal_dir.is_some() {
        println!("wal.commit_us {:.4} us", get("wal.commit").mean_us());
        println!("wal.scan_s {scan_s:.4} s (Wal::scan of the traced run's log)");
        println!("recover_s {recover_s:.4} s (recovery plus resume of the reference run's log)");
    }
    println!(
        "sim_exec_s {:.6} s (simulated)",
        reference.result.total_exec.as_secs()
    );

    let mut m: Vec<Metric> = vec![
        ("sql.parse_us", get("sql.parse").mean_us(), "us"),
        ("sched.form_wave_us", get("sched.form_wave").mean_us(), "us"),
        (
            "sched.mean_wave",
            ratio(c.dispatched as f64, c.waves as f64),
            "queries",
        ),
        (
            "cache.hit_rate",
            ratio(c.cache_hits as f64, c.cache_lookups as f64),
            "ratio",
        ),
        ("cache.invalidations", c.cache_invalidations as f64, "count"),
        (
            "core.select_ms",
            ratio(get("core.select").self_s() * 1e3, c.scored as f64),
            "ms",
        ),
        ("core.plan_arm_us", get("core.plan_arm").mean_us(), "us"),
        (
            "opt.plan_ms",
            ratio(sh.plan_ns as f64 * 1e-6, sh.queries as f64),
            "ms",
        ),
        (
            "opt.work",
            ratio(sh.work as f64, sh.queries as f64),
            "units",
        ),
        (
            "opt.distinct_plan_frac",
            ratio(sh.distinct_plans as f64, sh.arms as f64),
            "ratio",
        ),
        (
            "core.featurize_us",
            ratio(sh.featurize_ns as f64 * 1e-3, sh.trees as f64),
            "us",
        ),
        (
            "nn.score_us",
            ratio(sh.score_ns as f64 * 1e-3, sh.trees as f64),
            "us",
        ),
        ("nn.retrain_s", retrain.self_s(), "s"),
        ("nn.retrains", c.retrains as f64, "count"),
        (
            "nn.retrain_us_per_row_epoch",
            ratio(retrain.self_s() * 1e6, c.row_epochs as f64),
            "us",
        ),
        ("exec.execute_ms.p50", percentile(&exec_ms, 50.0), "ms"),
        (
            "exec.execute_ms.tail",
            tail.map_or(0.0, |p| percentile(&exec_ms, p)),
            "ms",
        ),
        (
            "storage.pool_hit_rate",
            ratio(c.page_hits as f64, (c.page_hits + c.page_misses) as f64),
            "ratio",
        ),
        ("wal.bytes_per_query", bytes / n, "bytes"),
        ("wal.frames", frames, "count"),
        ("wal.scan_share", ratio(scan_s, reference.wall_s), "ratio"),
        (
            "wal.recover_share",
            ratio(recover_s, reference.wall_s),
            "ratio",
        ),
        ("exec.sim_s", reference.result.total_exec.as_secs(), "sim_s"),
        ("harness.wave_s", get("harness.wave").self_s(), "s"),
        ("harness.unaccounted_s", wall_s - accounted_s, "s"),
        ("trace.overhead", ratio(wall_s, reference.wall_s), "ratio"),
    ];
    for (name, spans) in SHARES {
        let self_s: f64 = spans.iter().map(|s| get(s).self_s()).sum();
        m.push((name, ratio(self_s, wall_s), "ratio"));
    }
    Ok(m)
}
