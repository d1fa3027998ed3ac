//! The untraced pass: SQL text through `bao_sql::parse_query`, then the
//! workload through the public serving entry point `ServingRunner::run`,
//! with nothing of the benchmark's own inside the timed region.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use bao_common::json::ToJson;
use bao_common::BaoError;
use bao_harness::{RunResult, ServingRunner};
use bao_workloads::{Workload, WorkloadStep};

use crate::spec::Spec;

/// Why a run cannot report a result.
#[derive(Debug)]
pub enum Failure {
    /// An operation of the program returned an error.
    Error(String),
    /// An output check found a wrong result.
    Mismatch(String),
}

impl From<BaoError> for Failure {
    fn from(e: BaoError) -> Failure {
        Failure::Error(e.to_string())
    }
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Failure::Error(m) => write!(f, "error: {m}"),
            Failure::Mismatch(m) => write!(f, "output check failed: {m}"),
        }
    }
}

pub type Outcome<T> = std::result::Result<T, Failure>;

/// Fail with [`Failure::Mismatch`] unless `ok`.
pub fn check(ok: bool, what: impl FnOnce() -> String) -> Outcome<()> {
    if ok {
        Ok(())
    } else {
        Err(Failure::Mismatch(what()))
    }
}

/// The inputs one seed generates: the query stream as the generator built
/// it, and each query rendered as SQL text.
pub struct Inputs {
    pub spec: Spec,
    pub seed: u64,
    pub workload: Workload,
    pub sql: Vec<String>,
}

impl Inputs {
    pub fn generate(spec: &Spec, seed: u64) -> Outcome<Inputs> {
        let (_, workload) = spec.build(seed)?;
        let sql = workload.steps.iter().map(|s| s.query.to_string()).collect();
        Ok(Inputs {
            spec: spec.clone(),
            seed,
            workload,
            sql,
        })
    }

    pub fn len(&self) -> usize {
        self.sql.len()
    }

    pub fn is_empty(&self) -> bool {
        self.sql.is_empty()
    }

    /// Parse statement `i` back into a workload step.
    pub fn parse_step(&self, i: usize) -> Outcome<WorkloadStep> {
        let generated = &self.workload.steps[i];
        let query = bao_sql::parse_query(&self.sql[i])?;
        Ok(WorkloadStep {
            label: generated.label.clone(),
            query,
            event: generated.event.clone(),
        })
    }

    /// Every parsed statement must equal the query the generator built.
    pub fn check_parsed(&self, parsed: &Workload) -> Outcome<()> {
        for (i, (p, g)) in parsed.steps.iter().zip(&self.workload.steps).enumerate() {
            check(p.query == g.query, || {
                format!("statement {i} parses to a different query: {}", self.sql[i])
            })?;
        }
        check(parsed.len() == self.workload.len(), || {
            "statement count changed".into()
        })
    }
}

/// A fresh, empty WAL directory for one run under `root`.
pub fn wal_dir(root: &Path, spec: &Spec, tag: &str) -> Outcome<PathBuf> {
    let dir = root.join(format!("{}-{}-{tag}", spec.name, std::process::id()));
    remove_dir(&dir)?;
    Ok(dir)
}

pub fn remove_dir(dir: &Path) -> Outcome<()> {
    match std::fs::remove_dir_all(dir) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(Failure::Error(format!("removing {}: {e}", dir.display()))),
    }
}

/// A `RunResult` as the equivalence tests compare it: JSON with the
/// wall-clock `wall_train` zeroed.
pub fn canonical(result: &RunResult) -> String {
    let mut r = result.clone();
    r.wall_train = Duration::ZERO;
    r.to_json().to_string()
}

/// Figures of one untraced repetition.
pub struct Rep {
    /// Database build plus `ServingRunner::new` (ANALYZE, model set-up).
    pub setup_s: f64,
    /// Parse plus `ServingRunner::run`.
    pub wall_s: f64,
    pub queries: usize,
    /// Recovery plus resume over the log this repetition wrote.
    pub recover_s: Option<f64>,
    pub result: RunResult,
}

/// One repetition: set up from scratch and serve the workload. With
/// `recover` on a logging workload, also recover from the log and check
/// the recovered result.
pub fn run_rep(inputs: &Inputs, wal_root: &Path, tag: &str, recover: bool) -> Outcome<Rep> {
    let spec = &inputs.spec;
    let wal = if spec.wal {
        Some(wal_dir(wal_root, spec, tag)?)
    } else {
        None
    };
    let cfg = spec.run_config(inputs.seed, wal.clone());

    let t = Instant::now();
    let db = spec.build_database(inputs.seed)?;
    let mut setup = t.elapsed();
    // Recovery starts again from the initial database; the copy is not
    // part of set-up.
    let db_copy = wal.as_ref().filter(|_| recover).map(|_| db.clone());
    let t = Instant::now();
    let runner = ServingRunner::new(cfg.clone(), db, spec.serving_config());
    setup += t.elapsed();

    let t = Instant::now();
    let mut steps = Vec::with_capacity(inputs.len());
    for i in 0..inputs.len() {
        steps.push(inputs.parse_step(i)?);
    }
    let parsed = Workload {
        name: inputs.workload.name.clone(),
        steps,
    };
    let report = runner.run(&parsed)?;
    let wall = t.elapsed();

    inputs.check_parsed(&parsed)?;
    let result = report.result;
    check(result.records.len() == inputs.len(), || {
        format!(
            "{} of {} queries answered",
            result.records.len(),
            inputs.len()
        )
    })?;

    let mut recover_s = None;
    if let Some(db) = db_copy {
        let t = Instant::now();
        let recovered = bao_harness::recover(cfg, db, &parsed)?;
        let resumed_at = recovered.resumed_at_step();
        let census = recovered.report.clone();
        let replayed = recovered.resume(&parsed)?;
        recover_s = Some(t.elapsed().as_secs_f64());
        check(
            !census.torn_tail && !census.corrupt_tail && census.frames_rolled_back == 0,
            || format!("recovery found a damaged log: {census:?}"),
        )?;
        check(resumed_at == inputs.len(), || {
            format!("recovery resumed at step {resumed_at} of a finished run")
        })?;
        check(canonical(&replayed) == canonical(&result), || {
            "recovered RunResult differs from the uninterrupted run".into()
        })?;
    }
    if let Some(dir) = &wal {
        remove_dir(dir)?;
    }

    Ok(Rep {
        setup_s: setup.as_secs_f64(),
        wall_s: wall.as_secs_f64(),
        queries: result.records.len(),
        recover_s,
        result,
    })
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Outcome<f64> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| Failure::Error(format!("reading /proc/self/status: {e}")))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| Failure::Error("no VmHWM line in /proc/self/status".into()))
}
