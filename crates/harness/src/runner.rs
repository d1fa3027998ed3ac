//! The workload runner.

use bao_cloud::{gpu_train_time, CostReport, VmType};
use bao_common::json::{self, FromJson, Json, ToJson};
use bao_common::sync::{Arc, Mutex};
use bao_common::{json_record, split_seed, BaoError, Result, SimDuration};
use bao_core::{Bao, BaoConfig};
use bao_wal::{fnv64, DurabilityConfig, Wal, WalRecord};
use bao_exec::{execute_with, ExecConfig, PerfMetric};
use bao_models::{LinearModel, RandomForestModel, TcnnModel, ValueModel};
use bao_nn::{TcnnConfig, TrainConfig};
use bao_opt::{HintSet, Optimizer, OptimizerProfile};
use bao_plan::PlanNode;
use bao_stats::StatsCatalog;
use bao_storage::{BufferPool, Database};
use bao_workloads::{apply_event, Workload};

/// Which value model Bao runs with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelKind {
    /// Reduced-width TCNN (default for experiment sweeps).
    TcnnSmall,
    /// The paper's full 256/128/64+32 TCNN.
    TcnnPaper,
    /// Tiny TCNN for fast smoke runs and unit tests.
    TcnnFast,
    RandomForest,
    Linear,
}

impl ModelKind {
    pub fn build(self, input_dim: usize) -> Box<dyn ValueModel> {
        match self {
            // Paper stopping rule: <=100 epochs or convergence; slightly
            // hotter optimizer and stricter plateau detection than the
            // library default so small windows still reach convergence.
            ModelKind::TcnnSmall => Box::new(TcnnModel::new(
                TcnnConfig::small(input_dim),
                TrainConfig {
                    adam: bao_nn::AdamConfig { lr: 3e-3, ..Default::default() },
                    min_improvement: 0.002,
                    ..TrainConfig::default()
                },
            )),
            ModelKind::TcnnPaper => Box::new(TcnnModel::new(
                TcnnConfig::paper(input_dim),
                TrainConfig::default(),
            )),
            ModelKind::TcnnFast => Box::new(TcnnModel::new(
                TcnnConfig::tiny(input_dim),
                TrainConfig { max_epochs: 20, ..TrainConfig::default() },
            )),
            ModelKind::RandomForest => Box::new(RandomForestModel::default()),
            ModelKind::Linear => Box::new(LinearModel::default()),
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            ModelKind::TcnnSmall => "tcnn",
            ModelKind::TcnnPaper => "tcnn-paper",
            ModelKind::TcnnFast => "tcnn-fast",
            ModelKind::RandomForest => "random-forest",
            ModelKind::Linear => "linear",
        }
    }
}

/// Bao's knobs for a run (paper defaults in [`BaoSettings::default`]).
#[derive(Debug, Clone)]
pub struct BaoSettings {
    pub arms: Vec<HintSet>,
    pub model: ModelKind,
    pub window: usize,
    pub retrain: usize,
    pub cache_features: bool,
    pub bootstrap: bool,
    /// Planner pool size (`0` = size to the host). The bao-race suites
    /// pin this so the fan-out pool is multi-worker on any machine.
    pub planning_threads: usize,
    /// Shard count / morsel-pool width for query execution (`1` = serial
    /// single-shard path, `0` = size to the host). Output is
    /// bit-identical at any width (DESIGN.md §13).
    pub shard_workers: usize,
    /// Write-ahead logging (DESIGN.md §14): `Some` makes the runner open
    /// a WAL before the first query, log every experience append /
    /// retrain checkpoint / query outcome, and group-commit them. `None`
    /// (the default) is the historical in-memory behaviour. The knob
    /// never changes what is computed — only whether it survives a
    /// crash — so it is excluded from the run-config fingerprint.
    pub durability: Option<DurabilityConfig>,
}

impl Default for BaoSettings {
    fn default() -> Self {
        BaoSettings {
            arms: HintSet::family_49(),
            model: ModelKind::TcnnSmall,
            window: 2_000,
            retrain: 100,
            cache_features: true,
            bootstrap: true,
            planning_threads: 0,
            shard_workers: 1,
            durability: None,
        }
    }
}

impl BaoSettings {
    /// Smaller settings for experiment sweeps that repeat many runs.
    pub fn fast(n_arms: usize) -> Self {
        BaoSettings {
            arms: HintSet::top_arms(n_arms),
            model: ModelKind::TcnnFast,
            window: 500,
            retrain: 50,
            ..BaoSettings::default()
        }
    }
}

/// What selects plans during the run.
#[derive(Debug, Clone)]
pub enum Strategy {
    /// The traditional optimizer (PostgreSQL / ComSys baseline).
    Traditional,
    /// Bao in active mode.
    Bao(BaoSettings),
    /// One fixed hint set for every query (§6.3 "best single hint set").
    FixedHint(HintSet),
    /// Per-query oracle: execute every arm (on a cache snapshot), run the
    /// true best. Also records per-arm performances for regret analysis.
    Optimal { arms: Vec<HintSet> },
}

/// Full configuration of one run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    pub vm: VmType,
    pub profile: OptimizerProfile,
    pub metric: PerfMetric,
    pub strategy: Strategy,
    /// Clear the buffer pool before every query (the C2 cold-cache
    /// experiments of Figures 15a/16).
    pub cold_cache: bool,
    /// Plan arms one-at-a-time instead of in parallel (Figure 12).
    pub sequential_arms: bool,
    pub seed: u64,
    pub stats_sample: usize,
}

impl RunConfig {
    pub fn new(vm: VmType, strategy: Strategy) -> RunConfig {
        RunConfig {
            vm,
            profile: OptimizerProfile::PostgresLike,
            metric: PerfMetric::Latency,
            strategy,
            cold_cache: false,
            sequential_arms: false,
            seed: 0,
            stats_sample: 1_000,
        }
    }
}

/// Per-query observation.
#[derive(Debug, Clone)]
pub struct QueryRecord {
    pub idx: usize,
    pub label: String,
    /// Arm executed (0 = unhinted).
    pub arm: usize,
    pub opt_time: SimDuration,
    pub latency: SimDuration,
    pub cpu_time: SimDuration,
    pub physical_io: u64,
    /// Value of the configured performance metric.
    pub perf: f64,
    /// Cumulative workload clock (optimization + execution) when this
    /// query finished — Figure 10's x-axis.
    pub clock: SimDuration,
    /// Simulated GPU seconds if a retrain followed this query.
    pub gpu_time: SimDuration,
    /// Oracle runs: the performance of every arm (cache-snapshot
    /// isolated), for regret and Figure 11.
    pub arm_perfs: Option<Vec<f64>>,
    /// The executed plan (kept for §6.3 plan-change analysis).
    pub plan: PlanNode,
}

/// Everything observed during one run.
#[derive(Debug, Clone)]
pub struct RunResult {
    pub records: Vec<QueryRecord>,
    pub total_exec: SimDuration,
    pub total_opt: SimDuration,
    pub total_gpu: SimDuration,
    /// Real wall-clock spent training models in this process.
    pub wall_train: std::time::Duration,
}

json_record!(QueryRecord {
    idx,
    label,
    arm,
    opt_time,
    latency,
    cpu_time,
    physical_io,
    perf,
    clock,
    gpu_time,
    arm_perfs,
    plan,
});

// Hand-written: `wall_train` is stored as `wall_train_secs`, checked on decode.
impl ToJson for RunResult {
    fn to_json(&self) -> Json {
        Json::obj([
            ("records", self.records.to_json()),
            ("total_exec", self.total_exec.to_json()),
            ("total_opt", self.total_opt.to_json()),
            ("total_gpu", self.total_gpu.to_json()),
            ("wall_train_secs", self.wall_train.as_secs_f64().to_json()),
        ])
    }
}

impl FromJson for RunResult {
    fn from_json(j: &Json) -> Result<RunResult> {
        let wall_secs: f64 = json::field(j, "wall_train_secs")?;
        if !(wall_secs.is_finite() && wall_secs >= 0.0) {
            return Err(BaoError::Parse("wall_train_secs must be a finite non-negative".into()));
        }
        Ok(RunResult {
            records: json::field(j, "records")?,
            total_exec: json::field(j, "total_exec")?,
            total_opt: json::field(j, "total_opt")?,
            total_gpu: json::field(j, "total_gpu")?,
            wall_train: std::time::Duration::from_secs_f64(wall_secs),
        })
    }
}

impl RunResult {
    /// End-to-end workload time (training overlaps execution per §3.2 —
    /// GPU time is billed but does not extend the clock).
    pub fn workload_time(&self) -> SimDuration {
        self.total_exec + self.total_opt
    }

    pub fn cost(&self, vm: VmType) -> CostReport {
        CostReport::compute(vm, self.workload_time(), self.total_gpu)
    }

    pub fn latencies_ms(&self) -> Vec<f64> {
        self.records.iter().map(|r| r.latency.as_ms()).collect()
    }

    pub fn perfs(&self) -> Vec<f64> {
        self.records.iter().map(|r| r.perf).collect()
    }

    /// (elapsed seconds, queries completed) pairs — Figure 10's curve.
    pub fn convergence_curve(&self) -> Vec<(f64, usize)> {
        self.records.iter().enumerate().map(|(i, r)| (r.clock.as_secs(), i + 1)).collect()
    }
}

/// Fingerprint of the behaviour-determining run configuration — every
/// field that changes what the run computes. The durability knob is
/// deliberately excluded: a WAL written into one directory must replay
/// into a recovery run pointed at another, and logging itself never
/// changes results.
pub fn config_fingerprint(cfg: &RunConfig) -> u64 {
    let strat = match &cfg.strategy {
        Strategy::Traditional => "traditional".to_string(),
        Strategy::FixedHint(h) => format!("fixed[{h}]"),
        Strategy::Optimal { arms } => format!("optimal[{}]", arms.len()),
        Strategy::Bao(s) => format!(
            "bao[arms={},model={},window={},retrain={},cache_features={},bootstrap={}]",
            s.arms.len(),
            s.model.name(),
            s.window,
            s.retrain,
            s.cache_features,
            s.bootstrap
        ),
    };
    let desc = format!(
        "vm={:?};profile={:?};metric={:?};strategy={strat};cold={};seq={};seed={};stats={}",
        cfg.vm,
        cfg.profile,
        cfg.metric,
        cfg.cold_cache,
        cfg.sequential_arms,
        cfg.seed,
        cfg.stats_sample
    );
    fnv64(desc.as_bytes())
}

/// Mid-workload runner state, as reconstructed by `crate::recover` from
/// a WAL: everything [`Runner::run_from`] needs to continue exactly
/// where an interrupted run stopped. `Default` is "start from scratch".
#[derive(Debug, Clone, Default)]
pub struct ResumeState {
    /// Records of the already-committed queries, in step order.
    pub records: Vec<QueryRecord>,
    /// Workload step to resume at (= `records.len()` committed steps).
    pub start_step: usize,
    /// Accumulators as of the last committed query, rebuilt in the exact
    /// per-query f64 addition order of the original run.
    pub clock: SimDuration,
    pub total_exec: SimDuration,
    pub total_opt: SimDuration,
    pub total_gpu: SimDuration,
    pub wall_train: std::time::Duration,
}

/// Drives one workload under one configuration.
///
/// Fields are crate-visible so the concurrent serving layer
/// (`crate::serving`) can reuse this exact construction and drive the
/// same state machine wave-by-wave.
pub struct Runner {
    pub(crate) cfg: RunConfig,
    pub(crate) db: Database,
    pub(crate) cat: StatsCatalog,
    pub(crate) pool: BufferPool,
    pub(crate) opt: Optimizer,
    pub(crate) bao: Option<Bao>,
    /// Sharded-execution knobs, derived from the strategy's
    /// `shard_workers` (serial for non-Bao strategies).
    pub(crate) exec: ExecConfig,
}

impl Runner {
    pub fn new(cfg: RunConfig, db: Database) -> Runner {
        let cat = StatsCatalog::analyze(&db, cfg.stats_sample, split_seed(cfg.seed, 1));
        let opt = match cfg.profile {
            OptimizerProfile::PostgresLike => Optimizer::postgres(),
            OptimizerProfile::ComSysLike => Optimizer::comsys(),
        };
        let pool = BufferPool::new(cfg.vm.buffer_pool_pages());
        let exec = match &cfg.strategy {
            Strategy::Bao(settings) => {
                ExecConfig { shard_workers: settings.shard_workers, ..ExecConfig::default() }
            }
            _ => ExecConfig::default(),
        };
        let bao = match &cfg.strategy {
            Strategy::Bao(settings) => {
                let bao_cfg = BaoConfig {
                    arms: settings.arms.clone(),
                    window_size: settings.window,
                    retrain_interval: settings.retrain,
                    cache_features: settings.cache_features,
                    enabled: true,
                    bootstrap: settings.bootstrap,
                    parallel_planning: true,
                    planning_threads: settings.planning_threads,
                    shard_workers: settings.shard_workers,
                    seed: split_seed(cfg.seed, 2),
                    durability: settings.durability.clone(),
                };
                let dim = bao_core::Featurizer::new(settings.cache_features).input_dim();
                Some(Bao::with_model(bao_cfg, settings.model.build(dim)))
            }
            _ => None,
        };
        Runner { cfg, db, cat, pool, opt, bao, exec }
    }

    /// Override the buffer pool size (Figure 13's in-memory regime).
    pub fn with_pool_pages(mut self, pages: usize) -> Runner {
        self.pool = BufferPool::new(pages);
        self
    }

    /// Access the Bao instance (e.g. to register critical queries).
    pub fn bao_mut(&mut self) -> Option<&mut Bao> {
        self.bao.as_mut()
    }

    pub fn database(&self) -> &Database {
        &self.db
    }

    /// Apply step `idx`'s workload event, if any: mutate the database,
    /// re-analyze statistics with the step-indexed seed, and invalidate
    /// the buffer pool. Shared verbatim by the serial loop below and the
    /// wave loop in `crate::serving` so the two paths cannot drift.
    pub(crate) fn apply_step_event(
        &mut self,
        idx: usize,
        step: &bao_workloads::WorkloadStep,
    ) -> Result<()> {
        if let Some(ev) = &step.event {
            apply_event(&mut self.db, ev, split_seed(self.cfg.seed, 77))?;
            self.cat = StatsCatalog::analyze(
                &self.db,
                self.cfg.stats_sample,
                split_seed(self.cfg.seed, 78 + idx as u64),
            );
            // New/rebuilt objects invalidate prior cache contents.
            self.pool.clear();
        }
        Ok(())
    }

    /// Open the WAL named by the strategy's `DurabilityConfig` (if any),
    /// write the `RunHeader` frame, and attach the handle to Bao. Called
    /// once before the first query by both the serial and serving paths;
    /// idempotent, and a no-op for non-durable or non-Bao runs. Recovery
    /// attaches its own resumed handle instead, which this respects.
    pub(crate) fn init_wal(&mut self) -> Result<()> {
        let header = WalRecord::RunHeader {
            seed: self.cfg.seed,
            config_fp: config_fingerprint(&self.cfg),
        };
        let Some(bao) = self.bao.as_mut() else { return Ok(()) };
        if bao.wal().is_some() {
            return Ok(());
        }
        let Some(dur) = bao.cfg.durability.clone() else { return Ok(()) };
        let mut wal = Wal::open(dur)?;
        wal.append(&header);
        wal.commit()?;
        bao.attach_wal(Arc::new(Mutex::new(wal)));
        Ok(())
    }

    /// Log the per-query commit record and flush the query's buffered
    /// frames (experience append + any retrain checkpoint) in one group
    /// commit. The outcome frame is deliberately last: recovery treats
    /// it as the commit marker and rolls back anything after it.
    fn commit_outcome(&self, record: &QueryRecord) -> Result<()> {
        let Some(bao) = self.bao.as_ref() else { return Ok(()) };
        bao.wal_append(|| [WalRecord::QueryOutcome { record: record.to_json() }]);
        bao.wal_commit()
    }

    /// Execute the full workload.
    pub fn run(mut self, workload: &Workload) -> Result<RunResult> {
        self.init_wal()?;
        self.run_from(workload, ResumeState::default())
    }

    /// Execute the workload from `resume.start_step` onward, seeded with
    /// the already-committed records and accumulator state. The from-
    /// scratch case is `ResumeState::default()`; recovery passes the
    /// state replayed out of the WAL. Steps before `start_step` are
    /// skipped entirely — their side effects (workload events, buffer
    /// pool contents, Bao experience) must already be in place.
    pub(crate) fn run_from(
        mut self,
        workload: &Workload,
        resume: ResumeState,
    ) -> Result<RunResult> {
        let mut records = resume.records;
        let mut clock = resume.clock;
        let mut total_exec = resume.total_exec;
        let mut total_opt = resume.total_opt;
        let mut total_gpu = resume.total_gpu;
        let mut wall_train = resume.wall_train;
        records.reserve(workload.len().saturating_sub(records.len()));

        for (idx, step) in workload.steps.iter().enumerate() {
            if idx < resume.start_step {
                continue;
            }
            self.apply_step_event(idx, step)?;
            if self.cfg.cold_cache {
                self.pool.clear();
            }

            let q = &step.query;
            let (arm, plan, tree, per_arm_work, arm_perfs) = match &self.cfg.strategy {
                Strategy::Traditional => {
                    let out = self.opt.plan(q, &self.db, &self.cat, HintSet::all_enabled())?;
                    (0, out.root, None, vec![out.work], None)
                }
                Strategy::FixedHint(h) => {
                    let out = self.opt.plan(q, &self.db, &self.cat, *h)?;
                    (0, out.root, None, vec![out.work], None)
                }
                Strategy::Bao(_) => {
                    let bao = self.bao.as_ref().expect("bao strategy has instance");
                    let sel =
                        bao.select_plan(&self.opt, q, &self.db, &self.cat, Some(&self.pool))?;
                    (sel.arm, sel.plan, Some(sel.tree), sel.per_arm_work, None)
                }
                Strategy::Optimal { arms } => {
                    let mut works = Vec::with_capacity(arms.len());
                    let mut plans = Vec::with_capacity(arms.len());
                    let family = self.opt.prepare(q, &self.db, &self.cat)?;
                    for &h in arms {
                        let out = family.plan(h)?;
                        works.push(out.work);
                        plans.push(out.root);
                    }
                    // Evaluate each arm against a snapshot of the cache.
                    let mut perfs = Vec::with_capacity(plans.len());
                    for plan in &plans {
                        let mut snapshot = self.pool.clone();
                        let m = execute_with(
                            plan,
                            q,
                            &self.db,
                            &mut snapshot,
                            &self.opt.params,
                            &self.cfg.vm.charge_rates(),
                            &self.exec,
                        )?;
                        perfs.push(m.perf(self.cfg.metric));
                    }
                    let best = argmin(&perfs);
                    (best, plans.swap_remove(best), None, works, Some(perfs))
                }
            };

            let opt_time = self.cfg.vm.optimization_time(&per_arm_work, self.cfg.sequential_arms);
            let metrics = execute_with(
                &plan,
                q,
                &self.db,
                &mut self.pool,
                &self.opt.params,
                &self.cfg.vm.charge_rates(),
                &self.exec,
            )?;
            let perf = metrics.perf(self.cfg.metric);

            // Feed Bao's experience and retrain on schedule.
            let mut gpu_time = SimDuration::ZERO;
            if let (Some(bao), Some(tree)) = (self.bao.as_mut(), tree) {
                if let Some(report) = bao.observe(tree, perf) {
                    gpu_time = gpu_train_time(report.experience_size, report.epochs.max(1));
                    wall_train += report.wall;
                }
            }

            clock += opt_time + metrics.latency;
            total_exec += metrics.latency;
            total_opt += opt_time;
            total_gpu += gpu_time;
            let record = QueryRecord {
                idx,
                label: step.label.clone(),
                arm,
                opt_time,
                latency: metrics.latency,
                cpu_time: metrics.cpu_time,
                physical_io: metrics.page_misses,
                perf,
                clock,
                gpu_time,
                arm_perfs,
                plan,
            };
            self.commit_outcome(&record)?;
            records.push(record);
            drop(metrics);
        }

        Ok(RunResult { records, total_exec, total_opt, total_gpu, wall_train })
    }
}

fn argmin(vals: &[f64]) -> usize {
    let mut best = 0;
    for (i, v) in vals.iter().enumerate() {
        if *v < vals[best] {
            best = i;
        }
    }
    best
}

/// Convenience: run one configuration over a freshly cloned database.
pub fn run_once(cfg: RunConfig, db: &Database, workload: &Workload) -> Result<RunResult> {
    Runner::new(cfg, db.clone()).run(workload)
}

impl std::fmt::Display for Strategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Strategy::Traditional => write!(f, "traditional"),
            Strategy::Bao(s) => write!(f, "bao[{} arms, {}]", s.arms.len(), s.model.name()),
            Strategy::FixedHint(h) => write!(f, "fixed[{h}]"),
            Strategy::Optimal { arms } => write!(f, "optimal[{} arms]", arms.len()),
        }
    }
}

impl RunResult {
    /// Guard against silently-empty runs in experiment binaries.
    pub fn ensure_non_empty(&self) -> Result<()> {
        if self.records.is_empty() {
            Err(BaoError::Config("run produced no records".into()))
        } else {
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bao_common::json;
    use bao_plan::{Operator, PlanNode};

    fn sample_result() -> RunResult {
        let plan = PlanNode::new(
            Operator::HashJoin {
                pred: bao_plan::JoinPred::new(
                    bao_plan::ColRef::new(0, "id"),
                    bao_plan::ColRef::new(1, "movie_id"),
                ),
            },
            vec![
                PlanNode::new(Operator::SeqScan { table: 0, preds: vec![] }, vec![])
                    .with_estimates(100.0, 10.5),
                PlanNode::new(Operator::SeqScan { table: 1, preds: vec![] }, vec![]),
            ],
        );
        let record = QueryRecord {
            idx: 3,
            label: "q16b".into(),
            arm: 2,
            opt_time: SimDuration::from_ms(1.5),
            latency: SimDuration::from_ms(250.25),
            cpu_time: SimDuration::from_ms(200.0),
            physical_io: 1 << 60, // exercises the u64 lane past 2^53
            perf: 250.25,
            clock: SimDuration::from_ms(251.75),
            gpu_time: SimDuration::ZERO,
            arm_perfs: Some(vec![250.25, 300.0]),
            plan,
        };
        RunResult {
            records: vec![record],
            total_exec: SimDuration::from_ms(250.25),
            total_opt: SimDuration::from_ms(1.5),
            total_gpu: SimDuration::ZERO,
            wall_train: std::time::Duration::from_millis(12),
        }
    }

    #[test]
    fn run_report_json_round_trips_through_writer_and_parser() {
        let result = sample_result();
        let j = result.to_json();
        for text in [j.to_string(), j.to_string_pretty()] {
            let back = json::parse(&text).unwrap();
            assert_eq!(back, j, "writer output must parse back to the same value");
        }
        // Spot-check that typed values survive the text round trip.
        let back = json::parse(&j.to_string()).unwrap();
        let records = back.get("records").and_then(|r| r.as_arr()).unwrap();
        assert_eq!(records.len(), 1);
        assert_eq!(json::field::<String>(&records[0], "label").unwrap(), "q16b");
        assert_eq!(json::field::<u64>(&records[0], "physical_io").unwrap(), 1u64 << 60);
        assert_eq!(json::field::<f64>(&records[0], "perf").unwrap(), 250.25);
        assert!(records[0].get("plan").and_then(|p| p.get("op")).is_some());
    }

    #[test]
    fn run_result_decodes_back_from_json() {
        let result = sample_result();
        let j = result.to_json();
        let parsed = json::parse(&j.to_string()).unwrap();
        let back = RunResult::from_json(&parsed).expect("decode RunResult");
        // Decode → encode is the identity on the JSON text, which pins
        // every field (including the full plan tree) bit-for-bit.
        assert_eq!(back.to_json().to_string(), j.to_string());
        assert_eq!(back.records.len(), result.records.len());
        assert_eq!(back.records[0].arm, result.records[0].arm);
        assert_eq!(back.records[0].plan, result.records[0].plan);
        assert_eq!(back.total_exec, result.total_exec);
        // wall_train goes through secs-as-f64; Duration nanos may round,
        // so compare in f64 space.
        assert!(
            (back.wall_train.as_secs_f64() - result.wall_train.as_secs_f64()).abs() < 1e-9
        );
        // Corrupt input surfaces as a parse error.
        let bad = Json::obj([("records", Json::Arr(vec![]))]);
        assert!(RunResult::from_json(&bad).is_err());
    }
}
