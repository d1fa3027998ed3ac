//! The benchmark's workloads: what each one builds, how Bao is configured
//! for it, and why it exists.

use std::path::PathBuf;

use bao_cache::PlanCacheConfig;
use bao_common::{split_seed, Result};
use bao_harness::{BaoSettings, ModelKind, RunConfig, ServingConfig, Strategy};
use bao_opt::HintSet;
use bao_storage::Database;
use bao_wal::{DurabilityConfig, FsyncPolicy};
use bao_workloads::imdb::build_imdb_database;
use bao_workloads::stack::build_stack_database;
use bao_workloads::{build_imdb, build_stack, ImdbConfig, StackConfig, Workload};

/// Group-commit flush policy of the durable workload. The untraced run,
/// the traced replay and recovery all open the log with this policy.
pub const FSYNC: FsyncPolicy = FsyncPolicy::EveryN(8);

/// Closed-loop clients in flight; up to this many queries are scored in
/// one coalesced batch when cache features are off.
pub const CLIENTS: usize = 8;

/// Data set a workload is generated from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Dataset {
    /// Dynamic IMDb (new templates appear over time).
    Imdb { scale: f64 },
    /// Stack with [`STACK_MONTHS`]: months resident at the start, then the
    /// rest loaded mid-stream.
    Stack { scale: f64 },
}

/// Stack months resident before the first query, and in total.
pub const STACK_MONTHS: (u32, u32) = (4, 10);

/// One named benchmark workload.
#[derive(Debug, Clone)]
pub struct Spec {
    pub name: &'static str,
    pub dataset: Dataset,
    pub n_queries: usize,
    pub model: ModelKind,
    /// Experience window (k) and retrain interval (n).
    pub window: usize,
    pub retrain: usize,
    pub cache_features: bool,
    pub plan_cache: Option<PlanCacheConfig>,
    /// Write-ahead log on, with [`FSYNC`] group commit.
    pub wal: bool,
}

impl Spec {
    pub const NAMES: [&'static str; 2] = ["imdb-serve", "stack-durable"];

    /// The full-size workload named `name`.
    pub fn named(name: &str) -> Option<Spec> {
        let base = Spec {
            name: "",
            dataset: Dataset::Imdb { scale: 0.02 },
            n_queries: 0,
            model: ModelKind::TcnnSmall,
            window: 2_000,
            retrain: 100,
            cache_features: true,
            plan_cache: None,
            wal: false,
        };
        match name {
            // Selection-heavy: small data, cache features off so waves of
            // 8 coalesce into one scoring batch.
            "imdb-serve" => Some(Spec {
                name: "imdb-serve",
                n_queries: 1_000,
                model: ModelKind::TcnnFast,
                cache_features: false,
                ..base
            }),
            // Writes beside reads: month loads, plan cache, WAL, restart.
            "stack-durable" => Some(Spec {
                name: "stack-durable",
                dataset: Dataset::Stack { scale: 0.3 },
                n_queries: 600,
                plan_cache: Some(PlanCacheConfig::default()),
                wal: true,
                ..base
            }),
            _ => None,
        }
    }

    /// The same workload shrunk to `n_queries` on a fraction of the data
    /// (the equivalence tests run these).
    pub fn tiny(&self, n_queries: usize) -> Spec {
        let dataset = match self.dataset {
            Dataset::Imdb { .. } => Dataset::Imdb { scale: 0.02 },
            Dataset::Stack { .. } => Dataset::Stack { scale: 0.05 },
        };
        Spec {
            dataset,
            n_queries,
            window: n_queries,
            retrain: (n_queries / 4).max(2),
            ..self.clone()
        }
    }

    /// Seed of instance `r` of a run seeded with `seed`. Each repetition of
    /// a run serves a different instance, so a run's median averages over
    /// query mixes as well as over host noise.
    pub fn instance_seed(seed: u64, r: usize) -> u64 {
        split_seed(seed, r as u64)
    }

    /// Generate the database and the query stream from `seed`.
    pub fn build(&self, seed: u64) -> Result<(Database, Workload)> {
        match self.dataset {
            Dataset::Imdb { scale } => build_imdb(&self.imdb(scale, seed)),
            Dataset::Stack { scale } => build_stack(&self.stack(scale, seed)),
        }
    }

    /// Build only the database (heaps and indexes) that [`Spec::build`]
    /// returns for `seed`: the set-up a serving process pays at start.
    pub fn build_database(&self, seed: u64) -> Result<Database> {
        match self.dataset {
            Dataset::Imdb { scale } => build_imdb_database(scale, seed),
            Dataset::Stack { scale } => build_stack_database(&self.stack(scale, seed)),
        }
    }

    fn imdb(&self, scale: f64, seed: u64) -> ImdbConfig {
        ImdbConfig {
            scale,
            n_queries: self.n_queries,
            dynamic: true,
            seed,
        }
    }

    fn stack(&self, scale: f64, seed: u64) -> StackConfig {
        StackConfig {
            scale,
            n_queries: self.n_queries,
            initial_months: STACK_MONTHS.0,
            total_months: STACK_MONTHS.1,
            seed,
        }
    }

    /// The run configuration; `wal_dir` must be `Some` exactly when the
    /// workload logs.
    pub fn run_config(&self, seed: u64, wal_dir: Option<PathBuf>) -> RunConfig {
        let settings = BaoSettings {
            arms: HintSet::family_49(),
            model: self.model,
            window: self.window,
            retrain: self.retrain,
            cache_features: self.cache_features,
            bootstrap: true,
            planning_threads: 0,
            shard_workers: 1,
            durability: wal_dir.map(|d| DurabilityConfig::new(d).with_fsync(FSYNC)),
        };
        RunConfig {
            seed,
            ..RunConfig::new(bao_cloud::N1_4, Strategy::Bao(settings))
        }
    }

    pub fn serving_config(&self) -> ServingConfig {
        let s = ServingConfig::new(CLIENTS, CLIENTS);
        match self.plan_cache {
            Some(c) => s.with_cache(c),
            None => s,
        }
    }
}

/// Thread-pool widths the program resolves on this host, printed beside
/// every result so figures from hosts of different width are never
/// compared without it.
#[derive(Debug, Clone, Copy)]
pub struct Widths {
    pub nproc: usize,
    pub planner: usize,
    pub shard: usize,
    pub training: usize,
}

impl Widths {
    /// Mirrors how `BaoSettings { planning_threads: 0, shard_workers: 1 }`
    /// and the default `TrainConfig` resolve: the planner pool sizes to
    /// the host (capped by the 49 jobs of one query's arm family at the
    /// least), execution and training stay single-threaded.
    pub fn resolve() -> Widths {
        let nproc = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        Widths {
            nproc,
            planner: nproc.min(HintSet::family_49().len()),
            shard: 1,
            training: bao_nn::TrainConfig::default().threads.max(1),
        }
    }

    pub fn describe(&self) -> String {
        format!(
            "nproc={} planner_threads={} shard_workers={} train_threads={}",
            self.nproc, self.planner, self.shard, self.training
        )
    }
}
