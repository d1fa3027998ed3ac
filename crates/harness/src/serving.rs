//! Concurrent serving layer: admit several in-flight queries, coalesce
//! their arm families into one cross-query scoring batch, and execute
//! the selections in dispatch order.
//!
//! Admission is owned by `bao-sched` (DESIGN.md §10): per-tenant bounded
//! queues, token-bucket rate limits, and a deficit-round-robin wave
//! former with overload shedding to arm 0. The default single-tenant,
//! unlimited configuration dispatches in exact arrival order, keeping a
//! [`ServingRunner`] *bit-identical* to the serial [`Runner::run`] path
//! at any concurrency level or coalescing window (pinned by
//! `tests/serving_equivalence.rs` and `tests/sched_equivalence.rs`).
//! Determinism is by construction, not by luck — see the invariants on
//! [`ServingRunner::run`] and DESIGN.md §9–10.

use crate::runner::{QueryRecord, RunConfig, RunResult, Runner, Strategy};
use bao_cache::{CacheStats, CachedChoice, DriftOutcome, PlanCache, PlanCacheConfig};
use bao_cloud::gpu_train_time;
use bao_common::json::ToJson;
use bao_common::{BaoError, Result, SimDuration};
use bao_core::Selection;
use bao_exec::execute_with;
use bao_plan::{fingerprint, QueryFingerprint};
use bao_sched::{QueryArrival, SchedConfig, SchedReport, Scheduler};
use bao_storage::Database;
use bao_wal::WalRecord;
use bao_workloads::Workload;

/// Deterministic latency perturbation for drift testing: every query at
/// workload step `from_step` or later executes `factor`× slower. This is
/// how the drift-invalidation tests simulate an environment change (data
/// growth, noisy neighbor) without touching the executor.
#[derive(Debug, Clone, Copy)]
pub struct ExecFault {
    /// First workload step the fault applies to.
    pub from_step: usize,
    /// Multiplier on executed latency (and the perf the model observes).
    pub factor: f64,
}

/// Knobs of the serving layer.
#[derive(Debug, Clone, Copy)]
pub struct ServingConfig {
    /// Maximum number of queries admitted in flight at once (their
    /// planning overlaps; execution stays serialized on the shared
    /// buffer pool, exactly as a single-writer storage engine would).
    pub concurrency: usize,
    /// Maximum number of in-flight queries whose arm families are
    /// coalesced into one cross-query `predict_batch` scoring pass.
    pub coalesce_window: usize,
    /// Template plan cache (DESIGN.md §11). `None` — and `Some` with
    /// capacity 0 — leave the serving path byte-identical to the
    /// uncached one (pinned by `tests/serving_equivalence.rs`).
    pub cache: Option<PlanCacheConfig>,
    /// Optional latency fault injection (drift tests only).
    pub fault: Option<ExecFault>,
}

impl ServingConfig {
    pub fn new(concurrency: usize, coalesce_window: usize) -> ServingConfig {
        assert!(concurrency >= 1 && coalesce_window >= 1);
        ServingConfig { concurrency, coalesce_window, cache: None, fault: None }
    }

    /// Enable the template plan cache.
    pub fn with_cache(mut self, cache: PlanCacheConfig) -> ServingConfig {
        self.cache = Some(cache);
        self
    }

    /// Inject a deterministic latency fault (drift tests).
    pub fn with_fault(mut self, fault: ExecFault) -> ServingConfig {
        self.fault = Some(fault);
        self
    }
}

impl Default for ServingConfig {
    fn default() -> Self {
        ServingConfig::new(4, 4)
    }
}

/// [`RunResult`] plus serving-layer telemetry. The embedded `result` is
/// byte-identical to the serial runner's; everything serving-specific
/// lives outside it so the equivalence tests can compare raw JSON.
#[derive(Debug, Clone)]
pub struct ServingReport {
    pub result: RunResult,
    /// Number of admission waves the workload was processed in.
    pub waves: usize,
    /// Largest wave actually formed (≤ min(concurrency, window)).
    pub max_wave: usize,
    /// Total plan trees scored through coalesced cross-query batches.
    pub coalesced_trees: usize,
    /// True when cache features forced every wave down to size 1 (the
    /// featurizer reads execution-order-dependent buffer-pool state, so
    /// coalescing would change what the model sees — DESIGN.md §9).
    pub clamped_by_cache_features: bool,
    /// Simulated end-to-end serving time: per wave, in-flight queries
    /// plan concurrently (max of their optimization times) while
    /// execution stays serialized (sum of latencies); open-loop arrival
    /// gaps where the scheduler sits idle count too. Machine-free, so
    /// benchmarks derived from it transfer across hosts.
    pub makespan: SimDuration,
    /// Plan-cache counters (`None` when serving ran uncached).
    pub cache: Option<CacheStats>,
}

impl ServingReport {
    /// Simulated serving throughput over the whole workload.
    pub fn queries_per_sec(&self) -> f64 {
        let secs = self.makespan.as_secs();
        if secs > 0.0 {
            self.result.records.len() as f64 / secs
        } else {
            0.0
        }
    }
}

/// One dispatch as the scheduler emitted it: which step ran for which
/// tenant, whether it was shed to arm 0, and how long it queued.
#[derive(Debug, Clone, Copy)]
pub struct DispatchRecord {
    pub idx: usize,
    pub tenant: bao_sched::TenantId,
    pub shed: bool,
    pub wait: SimDuration,
}

/// Result of a scheduled (multi-tenant / open-loop) serving run: the
/// usual serving report plus the scheduler's per-tenant telemetry and
/// the per-dispatch log (execution order, shed flags, queue waits).
#[derive(Debug, Clone)]
pub struct SchedServingReport {
    pub serving: ServingReport,
    pub sched: SchedReport,
    pub dispatches: Vec<DispatchRecord>,
}

/// Drives one workload through the concurrent serving layer.
///
/// Wraps a [`Runner`] (same construction, same seeds, same state) and
/// replays its state machine wave-by-wave instead of query-by-query.
pub struct ServingRunner {
    inner: Runner,
    serving: ServingConfig,
    sched: SchedConfig,
}

impl ServingRunner {
    pub fn new(cfg: RunConfig, db: Database, serving: ServingConfig) -> ServingRunner {
        ServingRunner { inner: Runner::new(cfg, db), serving, sched: SchedConfig::single_tenant() }
    }

    /// Override the buffer pool size (mirrors [`Runner::with_pool_pages`]).
    pub fn with_pool_pages(mut self, pages: usize) -> ServingRunner {
        self.inner = self.inner.with_pool_pages(pages);
        self
    }

    /// Replace the default single-tenant admission config (tenants,
    /// weights, priorities, rate limits, queue bounds, shed policy).
    pub fn with_sched(mut self, sched: SchedConfig) -> ServingRunner {
        self.sched = sched;
        self
    }

    /// Execute the full workload concurrently; the embedded `RunResult`
    /// is bit-identical to [`Runner::run`] on the same config and seed.
    ///
    /// Queries arrive closed-loop — every step is [`QueryArrival::step`]:
    /// tenant 0, already arrived at sim-time zero — which makes the wave
    /// former dispatch in exact step order, the historical FIFO
    /// behaviour.
    ///
    /// Waves are sized so that coalescing can never observe state the
    /// serial path would not have produced yet:
    ///
    /// 1. A wave never spans a workload *event* step — events mutate the
    ///    database, the statistics catalog, and the buffer pool before
    ///    the step's query is planned. (The scheduler sees the workload
    ///    one event-delimited epoch at a time.)
    /// 2. A wave never crosses a *retrain boundary* — the value model
    ///    changes only inside `Bao::observe`, every
    ///    `retrain_interval`-th observation, so all queries of a wave
    ///    are scored by the same model the serial path would use
    ///    (`Bao::queries_until_retrain` exposes the distance).
    /// 3. With *cache features* enabled the featurizer reads buffer-pool
    ///    state that depends on every preceding execution, so waves
    ///    clamp to 1 (coalescing is a no-op, concurrency still applies
    ///    to planning).
    /// 4. Selections are computed by `Bao::evaluate_arms_multi`, whose
    ///    planning fan-out re-slots worker results into (query, arm)
    ///    order and whose packed forward pass is batch-composition
    ///    invariant; execution and experience replay strictly in
    ///    dispatch order against the shared pool and clock.
    pub fn run(self, workload: &Workload) -> Result<ServingReport> {
        let ServingRunner { inner, serving, sched } = self;
        // Only Bao has an arm family to coalesce; the other strategies
        // have no cross-query scoring stage, so the serial path already
        // *is* the serving path for them.
        if !matches!(inner.cfg.strategy, Strategy::Bao(_)) {
            let n = workload.len();
            let result = inner.run(workload)?;
            let makespan = result.workload_time();
            return Ok(ServingReport {
                result,
                waves: n,
                max_wave: 1,
                coalesced_trees: 0,
                clamped_by_cache_features: false,
                makespan,
                cache: None,
            });
        }
        let arrivals: Vec<QueryArrival> = (0..workload.len()).map(QueryArrival::step).collect();
        run_bao_serving(inner, serving, sched, workload, &arrivals).map(|r| r.serving)
    }

    /// Execute the workload under an explicit open-loop arrival plan:
    /// each [`QueryArrival`] names the workload step it runs, its tenant,
    /// and its sim-time arrival. Requires `Strategy::Bao` (the other
    /// strategies have no admission stage to schedule) and exactly one
    /// arrival per workload step.
    ///
    /// All wave-clamp invariants of [`ServingRunner::run`] hold
    /// unchanged; the scheduler only decides *which* released queries
    /// fill each wave, and whether they are shed to arm 0.
    pub fn run_scheduled(
        self,
        workload: &Workload,
        arrivals: &[QueryArrival],
    ) -> Result<SchedServingReport> {
        let ServingRunner { inner, serving, sched } = self;
        if !matches!(inner.cfg.strategy, Strategy::Bao(_)) {
            return Err(BaoError::Config(
                "run_scheduled requires Strategy::Bao (other strategies have no \
                 admission stage)"
                    .into(),
            ));
        }
        run_bao_serving(inner, serving, sched, workload, arrivals)
    }
}

fn run_bao_serving(
    mut inner: Runner,
    serving: ServingConfig,
    sched_cfg: SchedConfig,
    workload: &Workload,
    arrivals: &[QueryArrival],
) -> Result<SchedServingReport> {
    let cache_clamp = match &inner.cfg.strategy {
        Strategy::Bao(s) => s.cache_features,
        // Reached only for Bao (checked by the caller).
        _ => unreachable!("run_bao_serving requires Strategy::Bao"),
    };
    // Open the WAL (no-op unless durability is configured). Logging is
    // invisible to everything the equivalence tests compare: appends
    // buffer in memory and the flush below is one group commit per wave.
    inner.init_wal()?;
    let wave_cap_base =
        if cache_clamp { 1 } else { serving.concurrency.min(serving.coalesce_window).max(1) };

    let steps = &workload.steps;
    let n = steps.len();
    // Exactly one arrival per step, addressed by step index.
    let mut arr_of: Vec<Option<QueryArrival>> = vec![None; n];
    for a in arrivals {
        if a.idx >= n || arr_of[a.idx].is_some() {
            return Err(BaoError::Config(format!(
                "arrivals must name each of the {n} workload steps exactly once \
                 (step {} is out of range or duplicated)",
                a.idx
            )));
        }
        arr_of[a.idx] = Some(*a);
    }

    let mut scheduler = Scheduler::new(sched_cfg)?;
    // The template plan cache (DESIGN.md §11). With `None` every branch
    // below short-circuits and the wave loop is byte-for-byte the
    // uncached one; `Some` with capacity 0 behaves identically because
    // lookups never hit and inserts never store.
    let mut cache: Option<PlanCache> = serving.cache.map(PlanCache::new);

    let mut records = Vec::with_capacity(n);
    let mut dispatches: Vec<DispatchRecord> = Vec::with_capacity(n);
    let mut clock = SimDuration::ZERO;
    let mut total_exec = SimDuration::ZERO;
    let mut total_opt = SimDuration::ZERO;
    let mut total_gpu = SimDuration::ZERO;
    let mut wall_train = std::time::Duration::ZERO;
    let mut now = SimDuration::ZERO;
    let mut waves = 0usize;
    let mut max_wave = 0usize;
    let mut coalesced_trees = 0usize;

    // Invariant 1: an event step opens a new epoch. Only the current
    // epoch's arrivals are submitted to the scheduler, so no wave can
    // span an event, and the event replays exactly where the serial loop
    // applies it — before anything of its epoch is planned.
    let mut bounds = vec![0usize];
    for (i, s) in steps.iter().enumerate() {
        if i > 0 && s.event.is_some() {
            bounds.push(i);
        }
    }
    bounds.push(n);

    for w in bounds.windows(2) {
        let (start, end) = (w[0], w[1]);
        if start == end {
            continue; // empty workload
        }
        inner.apply_step_event(start, &steps[start])?;

        let mut epoch: Vec<QueryArrival> = Vec::with_capacity(end - start);
        for i in start..end {
            epoch.push(arr_of[i].ok_or_else(|| {
                BaoError::Config(format!("no arrival was supplied for workload step {i}"))
            })?);
        }
        // Ties in arrival time release in step order, which is what
        // makes the closed-loop default reproduce the serial path.
        epoch.sort_by(|a, b| {
            a.arrival.as_ms().total_cmp(&b.arrival.as_ms()).then(a.idx.cmp(&b.idx))
        });
        scheduler.submit(&epoch)?;

        let mut remaining = end - start;
        while remaining > 0 {
            scheduler.release(now);
            if !scheduler.has_dispatchable(now) {
                // Open-loop idle gap: jump to the next arrival or token
                // refill. `None` means a backlogged tenant can never
                // dispatch again (dry zero-rate bucket) — a config error,
                // not a hang.
                let t = scheduler.next_ready(now).ok_or_else(|| {
                    BaoError::Config(
                        "scheduler cannot make progress: a backlogged tenant has a \
                         dry zero-refill token bucket"
                            .into(),
                    )
                })?;
                if t <= now {
                    return Err(BaoError::Config(
                        "scheduler reported a past ready-time while nothing is \
                         dispatchable"
                            .into(),
                    ));
                }
                now = t;
                continue;
            }

            // Serial semantics clear the cache *before* planning; with
            // cache features on (wave = 1, below) the featurizer must see
            // the cleared pool exactly as the serial path does. For
            // larger waves featurization never reads the pool, and the
            // per-query clears happen in the replay loop instead.
            if inner.cfg.cold_cache {
                inner.pool.clear();
            }

            let bao = inner.bao.as_ref().expect("bao strategy has instance");
            // Fallback mode (disabled or unfitted model) plans a single
            // arm per query with no scoring stage; the fitted/unfitted
            // flag can only flip at a retrain boundary, which invariant 2
            // already refuses to cross, so the whole wave is uniformly
            // one mode.
            let scored_mode = bao.cfg.enabled && bao.is_model_fitted();
            let cap = wave_cap_base
                .min(bao.queries_until_retrain()) // invariant 2
                .min(remaining);
            let wave = scheduler.form_wave(now, cap);
            if wave.is_empty() {
                return Err(BaoError::Config(
                    "scheduler reported dispatchable work but formed an empty wave".into(),
                ));
            }

            // Cache consult: only dispatches that would otherwise pay the
            // full scoring pass are eligible (scored mode, not shed). A
            // hit pins the cached arm and drops out of the coalesced
            // batch; everything else proceeds exactly as before. The
            // model version is read once per wave — invariant 2 already
            // guarantees it cannot change mid-wave.
            let model_version = bao.model_version();
            let mut fps: Vec<Option<QueryFingerprint>> = vec![None; wave.len()];
            let mut cached: Vec<Option<CachedChoice>> = vec![None; wave.len()];
            if let Some(cache) = cache.as_mut() {
                for (k, d) in wave.iter().enumerate() {
                    if scored_mode && !d.shed {
                        let fp = fingerprint(&steps[d.idx].query);
                        fps[k] = Some(fp);
                        cached[k] = cache.lookup(fp, model_version);
                    }
                }
            }

            // Coalesced selection: plan every scored (query, arm) job on
            // the worker pool and score all arm families in one packed
            // pass. Shed dispatches bypass scoring entirely — arm 0, one
            // planner invocation, no model involvement (the graceful-
            // degradation contract, DESIGN.md §10) — and cache hits plan
            // only their cached arm.
            let mut selections: Vec<Option<Selection>> = Vec::with_capacity(wave.len());
            selections.resize_with(wave.len(), || None);
            let scored_pos: Vec<usize> = wave
                .iter()
                .enumerate()
                .filter(|(k, d)| scored_mode && !d.shed && cached[*k].is_none())
                .map(|(k, _)| k)
                .collect();
            if !scored_pos.is_empty() {
                let queries: Vec<&bao_plan::Query> =
                    scored_pos.iter().map(|&k| &steps[wave[k].idx].query).collect();
                let multi = bao.evaluate_arms_multi(
                    &inner.opt,
                    &queries,
                    &inner.db,
                    &inner.cat,
                    Some(&inner.pool),
                )?;
                coalesced_trees += scored_pos.len() * bao.cfg.arms.len();
                for (&k, (sel, _)) in scored_pos.iter().zip(multi) {
                    if let (Some(cache), Some(fp)) = (cache.as_mut(), fps[k]) {
                        // Populate on miss: the drift window needs the
                        // model's prediction for the chosen arm as its
                        // reference point; without one (shouldn't happen
                        // in scored mode) there is nothing to compare
                        // against, so skip the insert.
                        if let Some(p) = sel.predictions.get(sel.arm).copied().flatten() {
                            cache.insert(fp, sel.arm, p, model_version);
                        }
                    }
                    selections[k] = Some(sel);
                }
            }
            for (k, d) in wave.iter().enumerate() {
                if selections[k].is_none() {
                    // Shed or fallback dispatches plan arm 0; cache hits
                    // plan their cached arm. One planner invocation, no
                    // model involvement either way.
                    let arm = cached[k].map_or(0, |c| c.arm);
                    selections[k] = Some(bao.plan_arm(
                        arm,
                        &inner.opt,
                        &steps[d.idx].query,
                        &inner.db,
                        &inner.cat,
                        Some(&inner.pool),
                    )?);
                }
            }

            // Serving clock: the wave's queries plan concurrently, so the
            // wave costs its slowest optimization plus serialized
            // execution.
            let wave_start = now;
            let mut wave_opt_max = SimDuration::ZERO;
            let mut wave_exec = SimDuration::ZERO;

            // Invariant 4: execute + observe strictly in dispatch order
            // against the shared pool; this is where the serial clock,
            // experience ordering, and retrain schedule are reproduced.
            // Shed queries still feed experience — their arm-0 plan ran
            // and its reward is real training data — and still count
            // toward the retrain distance, exactly like the serial
            // fallback path.
            for (k, sel) in selections.into_iter().enumerate() {
                let sel = sel.expect("every wave slot was planned above");
                let d = &wave[k];
                let step = &steps[d.idx];
                // The first clear already ran before planning (above);
                // the pool is untouched since, so this repeat is a no-op
                // there and reproduces the serial per-query clear for the
                // rest of the wave.
                if inner.cfg.cold_cache {
                    inner.pool.clear();
                }
                let opt_time =
                    inner.cfg.vm.optimization_time(&sel.per_arm_work, inner.cfg.sequential_arms);
                let mut metrics = execute_with(
                    &sel.plan,
                    &step.query,
                    &inner.db,
                    &mut inner.pool,
                    &inner.opt.params,
                    &inner.cfg.vm.charge_rates(),
                    &inner.exec,
                )?;
                if let Some(f) = serving.fault {
                    if d.idx >= f.from_step {
                        metrics.latency = metrics.latency * f.factor;
                    }
                }
                let perf = metrics.perf(inner.cfg.metric);

                // Drift bookkeeping: every execution of a cached template
                // feeds its rolling window (arm-mismatched observations —
                // e.g. a shed dispatch of a template cached at another
                // arm — are ignored by the cache). Under overload the
                // drifted entry is re-pinned to arm 0 and the scheduler's
                // per-tenant telemetry records the shed.
                if let (Some(cache), Some(fp)) = (cache.as_mut(), fps[k]) {
                    let backlog = scheduler.queued_len();
                    let outcome = cache.observe(fp, sel.arm, perf, backlog);
                    if outcome == DriftOutcome::Shed {
                        scheduler.note_drift_shed(d.tenant);
                    }
                    // Invalidation events are durable telemetry: recovery
                    // rebuilds caches cold, but the log preserves *why*
                    // entries died for post-hoc drift analysis.
                    if matches!(outcome, DriftOutcome::Evicted | DriftOutcome::Shed) {
                        if let Some(bao) = inner.bao.as_ref() {
                            bao.wal_append(|| {
                                [WalRecord::CacheInvalidation {
                                    version: bao.model_version() as u64,
                                    reason: match outcome {
                                        DriftOutcome::Shed => "drift_shed".into(),
                                        _ => "drift_evicted".into(),
                                    },
                                }]
                            });
                        }
                    }
                }

                let mut gpu_time = SimDuration::ZERO;
                if let Some(bao) = inner.bao.as_mut() {
                    if let Some(report) = bao.observe(sel.tree.clone(), perf) {
                        gpu_time = gpu_train_time(report.experience_size, report.epochs.max(1));
                        wall_train += report.wall;
                    }
                }

                clock += opt_time + metrics.latency;
                total_exec += metrics.latency;
                total_opt += opt_time;
                total_gpu += gpu_time;
                if opt_time > wave_opt_max {
                    wave_opt_max = opt_time;
                }
                wave_exec += metrics.latency;
                let wait = (wave_start - d.arrival).max(SimDuration::ZERO);
                scheduler.note_served(d, wait, metrics.latency);
                dispatches.push(DispatchRecord {
                    idx: d.idx,
                    tenant: d.tenant,
                    shed: d.shed,
                    wait,
                });
                let record = QueryRecord {
                    idx: d.idx,
                    label: step.label.clone(),
                    arm: sel.arm,
                    opt_time,
                    latency: metrics.latency,
                    cpu_time: metrics.cpu_time,
                    physical_io: metrics.page_misses,
                    perf,
                    clock,
                    gpu_time,
                    arm_perfs: None,
                    plan: sel.plan,
                };
                if let Some(bao) = inner.bao.as_ref() {
                    bao.wal_append(|| [WalRecord::QueryOutcome { record: record.to_json() }]);
                }
                records.push(record);
            }

            // Group commit: one flush (and at most one fsync, per the
            // fsync policy) covers the whole wave's frames — this is the
            // batching that keeps WAL overhead inside the wal_bench gate.
            if let Some(bao) = inner.bao.as_ref() {
                bao.wal_commit()?;
            }
            now += wave_opt_max + wave_exec;
            waves += 1;
            max_wave = max_wave.max(wave.len());
            remaining -= wave.len();
        }
    }

    let sched_report = scheduler.report(waves);
    Ok(SchedServingReport {
        serving: ServingReport {
            result: RunResult { records, total_exec, total_opt, total_gpu, wall_train },
            waves,
            max_wave,
            coalesced_trees,
            clamped_by_cache_features: cache_clamp && serving.coalesce_window > 1,
            makespan: now,
            cache: cache.as_ref().map(PlanCache::stats),
        },
        sched: sched_report,
        dispatches,
    })
}
