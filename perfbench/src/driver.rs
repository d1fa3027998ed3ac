//! The traced replay: `ServingRunner::run`'s closed-loop wave loop,
//! rebuilt from the public calls it makes, with a span around each call.
//!
//! The replay must decide exactly what the serving runner decides; every
//! traced run checks that its `RunResult` equals the untraced one. The
//! benchmark's workloads never clear the pool before each query
//! (`cold_cache`) or inject latency faults, so those branches of the
//! serving loop are not replayed.

use std::path::PathBuf;

use bao_cache::{DriftOutcome, PlanCache};
use bao_cloud::gpu_train_time;
use bao_common::json::ToJson;
use bao_common::sync::{Arc, Mutex};
use bao_common::{split_seed, SimDuration};
use bao_core::{Bao, BaoConfig, Featurizer, Selection};
use bao_exec::{execute_with, ExecConfig};
use bao_harness::{config_fingerprint, QueryRecord, RunResult, Strategy};
use bao_opt::Optimizer;
use bao_plan::QueryFingerprint;
use bao_sched::{QueryArrival, SchedConfig, Scheduler};
use bao_stats::StatsCatalog;
use bao_storage::BufferPool;
use bao_wal::{Wal, WalRecord};
use bao_workloads::{apply_event, Workload};

use crate::e2e::{Failure, Inputs, Outcome};
use crate::shadow::Shadow;
use crate::trace::{Tracer, NO_QUERY};

/// Counts taken at the same call sites as the spans.
#[derive(Debug, Clone, Default)]
pub struct Counters {
    pub waves: usize,
    /// Queries dispatched, summed over waves.
    pub dispatched: usize,
    /// Queries scored through `Bao::evaluate_arms_multi`.
    pub scored: usize,
    pub cache_lookups: usize,
    pub cache_hits: usize,
    pub cache_invalidations: usize,
    pub retrains: usize,
    /// Σ experience rows × epochs over retrains.
    pub row_epochs: usize,
    pub page_hits: u64,
    pub page_misses: u64,
}

pub struct TracedRun {
    pub result: RunResult,
    pub tracer: Tracer,
    /// Traced-clock nanoseconds from the first parse to the last commit.
    pub wall_ns: u64,
    pub counters: Counters,
    pub shadow: Shadow,
    pub wal_dir: Option<PathBuf>,
}

/// Replay `inputs` with spans; `wal` names a fresh log directory exactly
/// when the workload logs.
pub fn traced_run(inputs: &Inputs, wal: Option<PathBuf>) -> Outcome<TracedRun> {
    let spec = &inputs.spec;
    let cfg = spec.run_config(inputs.seed, wal.clone());
    let Strategy::Bao(settings) = &cfg.strategy else {
        return Err(Failure::Error(
            "the benchmark drives the Bao strategy only".into(),
        ));
    };
    let serving = spec.serving_config();

    // Set-up, as `Runner::new` does it; not traced.
    let mut db = spec.build_database(inputs.seed)?;
    let mut cat = StatsCatalog::analyze(&db, cfg.stats_sample, split_seed(cfg.seed, 1));
    let opt = Optimizer::postgres();
    let mut pool = BufferPool::new(cfg.vm.buffer_pool_pages());
    let exec = ExecConfig {
        shard_workers: settings.shard_workers,
        ..ExecConfig::default()
    };
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
    let dim = Featurizer::new(settings.cache_features).input_dim();
    let mut bao = Bao::with_model(bao_cfg, settings.model.build(dim));
    let mut shadow = Shadow::new(settings.model, dim);
    let mut c = Counters::default();
    let mut tr = Tracer::new();

    // Traced region: parse, open the log, serve.
    let mut steps = Vec::with_capacity(inputs.len());
    for i in 0..inputs.len() {
        steps.push(tr.span("sql.parse", 0, i as u32, || inputs.parse_step(i))?);
    }
    let parsed = Workload {
        name: inputs.workload.name.clone(),
        steps,
    };
    inputs.check_parsed(&parsed)?;
    let steps = &parsed.steps;
    let n = steps.len();

    if let Some(dur) = settings.durability.clone() {
        tr.span("wal.open", 0, NO_QUERY, || -> Outcome<()> {
            let mut wal = Wal::open(dur)?;
            wal.append(&WalRecord::RunHeader {
                seed: cfg.seed,
                config_fp: config_fingerprint(&cfg),
            });
            wal.commit()?;
            bao.attach_wal(Arc::new(Mutex::new(wal)));
            Ok(())
        })?;
    }
    let wave_cap_base = if settings.cache_features {
        1
    } else {
        serving.concurrency.min(serving.coalesce_window)
    };
    let mut scheduler = Scheduler::new(SchedConfig::single_tenant())?;
    let mut cache: Option<PlanCache> = serving.cache.map(PlanCache::new);

    let mut records = Vec::with_capacity(n);
    let mut clock = SimDuration::ZERO;
    let mut total_exec = SimDuration::ZERO;
    let mut total_opt = SimDuration::ZERO;
    let mut total_gpu = SimDuration::ZERO;
    let mut wall_train = std::time::Duration::ZERO;
    let mut now = SimDuration::ZERO;

    let mut bounds = vec![0usize];
    bounds.extend((1..n).filter(|&i| steps[i].event.is_some()));
    bounds.push(n);
    for w in bounds.windows(2) {
        let (start, end) = (w[0], w[1]);
        if start == end {
            continue;
        }
        if let Some(ev) = &steps[start].event {
            tr.span(
                "workloads.event",
                c.waves as u32,
                start as u32,
                || -> Outcome<()> {
                    apply_event(&mut db, ev, split_seed(cfg.seed, 77))?;
                    cat = StatsCatalog::analyze(
                        &db,
                        cfg.stats_sample,
                        split_seed(cfg.seed, 78 + start as u64),
                    );
                    pool.clear();
                    Ok(())
                },
            )?;
        }
        let epoch: Vec<QueryArrival> = (start..end).map(QueryArrival::step).collect();
        scheduler.submit(&epoch)?;

        let mut remaining = end - start;
        while remaining > 0 {
            scheduler.release(now);
            if !scheduler.has_dispatchable(now) {
                return Err(Failure::Error("closed-loop scheduler went idle".into()));
            }
            let wave_id = c.waves as u32;
            let wave_span = tr.open("harness.wave", wave_id, NO_QUERY);
            let scored_mode = bao.cfg.enabled && bao.is_model_fitted();
            let cap = wave_cap_base
                .min(bao.queries_until_retrain())
                .min(remaining);
            let wave = tr.span("sched.form_wave", wave_id, NO_QUERY, || {
                scheduler.form_wave(now, cap)
            });
            if wave.is_empty() {
                return Err(Failure::Error("scheduler formed an empty wave".into()));
            }

            let model_version = bao.model_version();
            let mut fps: Vec<Option<QueryFingerprint>> = vec![None; wave.len()];
            let mut cached = vec![None; wave.len()];
            if let Some(cache) = cache.as_mut() {
                for (k, d) in wave.iter().enumerate() {
                    if scored_mode && !d.shed {
                        let fp = bao_plan::fingerprint(&steps[d.idx].query);
                        fps[k] = Some(fp);
                        cached[k] = tr.span("cache.lookup", wave_id, d.idx as u32, || {
                            cache.lookup(fp, model_version)
                        });
                        c.cache_lookups += 1;
                        c.cache_hits += usize::from(cached[k].is_some());
                    }
                }
            }

            let mut selections: Vec<Option<Selection>> = Vec::with_capacity(wave.len());
            selections.resize_with(wave.len(), || None);
            let scored_pos: Vec<usize> = (0..wave.len())
                .filter(|&k| scored_mode && !wave[k].shed && cached[k].is_none())
                .collect();
            if !scored_pos.is_empty() {
                let queries: Vec<&bao_plan::Query> = scored_pos
                    .iter()
                    .map(|&k| &steps[wave[k].idx].query)
                    .collect();
                let multi = tr.span("core.select", wave_id, NO_QUERY, || {
                    bao.evaluate_arms_multi(&opt, &queries, &db, &cat, Some(&pool))
                })?;
                c.scored += queries.len();
                let sels: Vec<&Selection> = multi.iter().map(|(s, _)| s).collect();
                tr.paused(|| shadow.measure(&bao, &opt, &queries, &sels, &db, &cat, &pool))?;
                for (&k, (sel, _)) in scored_pos.iter().zip(multi) {
                    if let (Some(cache), Some(fp)) = (cache.as_mut(), fps[k]) {
                        if let Some(p) = sel.predictions.get(sel.arm).copied().flatten() {
                            tr.span("cache.insert", wave_id, wave[k].idx as u32, || {
                                cache.insert(fp, sel.arm, p, model_version)
                            });
                        }
                    }
                    selections[k] = Some(sel);
                }
            }
            for (k, d) in wave.iter().enumerate() {
                if selections[k].is_none() {
                    let arm = cached[k].map_or(0, |ch| ch.arm);
                    selections[k] =
                        Some(tr.span("core.plan_arm", wave_id, d.idx as u32, || {
                            bao.plan_arm(arm, &opt, &steps[d.idx].query, &db, &cat, Some(&pool))
                        })?);
                }
            }

            let wave_start = now;
            let mut wave_opt_max = SimDuration::ZERO;
            let mut wave_exec = SimDuration::ZERO;
            for (k, sel) in selections.into_iter().enumerate() {
                let sel = sel.ok_or_else(|| Failure::Error("unplanned wave slot".into()))?;
                let d = &wave[k];
                let q = d.idx as u32;
                let step = &steps[d.idx];
                let opt_time = cfg
                    .vm
                    .optimization_time(&sel.per_arm_work, cfg.sequential_arms);
                let metrics = tr.span("exec.execute", wave_id, q, || {
                    execute_with(
                        &sel.plan,
                        &step.query,
                        &db,
                        &mut pool,
                        &opt.params,
                        &cfg.vm.charge_rates(),
                        &exec,
                    )
                })?;
                c.page_hits += metrics.page_hits;
                c.page_misses += metrics.page_misses;
                let perf = metrics.perf(cfg.metric);

                if let (Some(cache), Some(fp)) = (cache.as_mut(), fps[k]) {
                    let backlog = scheduler.queued_len();
                    let outcome = tr.span("cache.observe", wave_id, q, || {
                        cache.observe(fp, sel.arm, perf, backlog)
                    });
                    if outcome == DriftOutcome::Shed {
                        scheduler.note_drift_shed(d.tenant);
                    }
                    if matches!(outcome, DriftOutcome::Evicted | DriftOutcome::Shed) {
                        c.cache_invalidations += 1;
                        if let Some(wal) = bao.wal() {
                            let record = WalRecord::CacheInvalidation {
                                version: bao.model_version() as u64,
                                reason: match outcome {
                                    DriftOutcome::Shed => "drift_shed".into(),
                                    _ => "drift_evicted".into(),
                                },
                            };
                            tr.span("wal.append", wave_id, q, || {
                                if let Ok(mut w) = wal.lock() {
                                    w.append(&record);
                                }
                            });
                        }
                    }
                }

                let mut gpu_time = SimDuration::ZERO;
                let id = tr.open("core.observe", wave_id, q);
                let report = bao.observe(sel.tree.clone(), perf);
                tr.close(id);
                if let Some(report) = report {
                    // Name the span after what the call did: an
                    // observation that crossed the retrain boundary.
                    tr.rename(id, "nn.retrain");
                    gpu_time = gpu_train_time(report.experience_size, report.epochs.max(1));
                    wall_train += report.wall;
                    c.retrains += 1;
                    c.row_epochs += report.experience_size * report.epochs.max(1);
                }

                clock += opt_time + metrics.latency;
                total_exec += metrics.latency;
                total_opt += opt_time;
                total_gpu += gpu_time;
                wave_opt_max = wave_opt_max.max(opt_time);
                wave_exec += metrics.latency;
                let wait = (wave_start - d.arrival).max(SimDuration::ZERO);
                scheduler.note_served(d, wait, metrics.latency);
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
                if let Some(wal) = bao.wal() {
                    tr.span("wal.append", wave_id, q, || {
                        if let Ok(mut w) = wal.lock() {
                            w.append(&WalRecord::QueryOutcome {
                                record: record.to_json(),
                            });
                        }
                    });
                }
                records.push(record);
            }
            if bao.wal().is_some() {
                tr.span("wal.commit", wave_id, NO_QUERY, || bao.wal_commit())?;
            }
            tr.close(wave_span);
            now += wave_opt_max + wave_exec;
            c.waves += 1;
            c.dispatched += wave.len();
            remaining -= wave.len();
        }
    }
    let wall_ns = tr.now();
    if let Some(stats) = cache.as_ref().map(PlanCache::stats) {
        c.cache_invalidations += stats.retrain_invalidations;
    }
    Ok(TracedRun {
        result: RunResult {
            records,
            total_exec,
            total_opt,
            total_gpu,
            wall_train,
        },
        tracer: tr,
        wall_ns,
        counters: c,
        shadow,
        wal_dir: wal,
    })
}
