//! Microbenchmark for the batched TCNN compute path, with a persisted
//! baseline gate.
//!
//! Measures (a) arm-scoring latency — the 49 candidate plans of a real
//! IMDb query scored one tree at a time versus as a single packed batch,
//! at batch sizes 1/8/49 — and (b) minibatch training throughput on one
//! thread versus several. Ratio metrics (speedups) are recorded to
//! `results/bench_baselines.json`; later runs compare against the file
//! and warn on >20% regression. `--gate` turns ratio regressions into a
//! non-zero exit (the `scripts/check.sh --bench-smoke` stage), `--quick`
//! shrinks the workload and training sample counts for smoke use, and
//! `--update-baseline` overwrites previously recorded values.
//!
//! Speedups are gated because they are machine-independent (the batched
//! path wins on instruction-level parallelism, not clock speed). The
//! parallel-training speedup depends on core count, so its gating is
//! decided at bench time: on hosts with >= 2 cores the thread pool must
//! actually win (absolute floor + baseline gate); on a single core a
//! pool cannot beat serial, so the honest sub-1.0 value is recorded
//! warn-only. `shard_bench` applies the same pattern to `shard_speedup`.

use bao_bench::timing::{BaselineStore, Comparison, Group, Stats};
use bao_bench::{build_workload, print_header, Args, WorkloadName};
use bao_core::Featurizer;
use bao_nn::{train, train_reference, FeatTree, TcnnConfig, TrainConfig, TreeCnn};
use bao_opt::{HintSet, Optimizer};
use bao_stats::StatsCatalog;

/// Regression tolerance on gated ratio metrics.
const TOLERANCE: f64 = 0.20;
/// Acceptance floor: batched 49-arm scoring must beat the per-tree loop
/// by at least this factor.
const MIN_BATCH49_SPEEDUP: f64 = 3.0;
/// Acceptance floor for multi-thread training on hosts that can show
/// one: with >= 2 real cores the pool must beat 1 thread by this factor.
const MIN_THREAD_SPEEDUP: f64 = 1.2;

fn baseline_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/bench_baselines.json")
}

/// Plan one query under every arm in the 49-family and featurize each
/// plan — the exact tree set `Bao::evaluate_arms` scores per query.
fn arm_trees(seed: u64, scale: f64, n_queries: usize) -> Vec<Vec<FeatTree>> {
    let (db, wl) = build_workload(WorkloadName::Imdb, scale, n_queries, seed).expect("workload");
    let cat = StatsCatalog::analyze(&db, 1_000, seed);
    let opt = Optimizer::postgres();
    let featurizer = Featurizer::new(false);
    let arms = HintSet::family_49();
    wl.steps
        .iter()
        .take(n_queries)
        .map(|step| {
            arms.iter()
                .map(|&arm| {
                    let out = opt.plan(&step.query, &db, &cat, arm).expect("plan");
                    featurizer.featurize(&out.root, &step.query, &db, None)
                })
                .collect()
        })
        .collect()
}

fn main() {
    let args = Args::from_env();
    let quick = args.has("quick");
    let gate = args.has("gate");
    let update = args.has("update-baseline");
    let seed = args.seed();
    let scale = args.scale(if quick { 0.03 } else { 0.06 });
    let samples = if quick { 40 } else { 60 };
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    // Exercise the pool path even on a single-core machine (where the
    // thread "speedup" honestly comes out below 1.0 — it's warn-only).
    let threads = args.usize("threads", cores.max(2));

    print_header(
        "Batched TCNN inference / training benchmark",
        &format!("(IMDb scale {scale}, {samples} samples{})", if quick { ", quick" } else { "" }),
    );

    let per_query = arm_trees(seed, scale, 4);
    let arm_set: &[FeatTree] = &per_query[0];
    assert_eq!(arm_set.len(), 49, "expected the 49-arm family");
    let input_dim = arm_set[0].feat_dim;
    let net = TreeCnn::new(TcnnConfig::small(input_dim), seed);

    // --- Arm scoring: per-tree loop vs one packed batch, sampled in
    // alternation and compared on trimmed minima (`Stats::fast_mean`).
    let group = Group::new("score", samples);
    let mut results: Vec<(usize, Stats, Stats)> = Vec::new();
    for &b in &[1usize, 8, 49] {
        let set = &arm_set[..b];
        let refs: Vec<&FeatTree> = set.iter().collect();
        let (per_tree, batched) = group.bench_pair(
            &format!("per_tree_b{b}"),
            || {
                let mut acc = 0.0f32;
                for t in set {
                    acc += net.predict(t);
                }
                std::hint::black_box(acc);
            },
            &format!("batched_b{b}"),
            || {
                std::hint::black_box(net.predict_batch(&refs));
            },
        );
        results.push((b, per_tree, batched));
    }
    println!();
    let speedup = |b: usize| -> f64 {
        let &(_, pt, bt) = results.iter().find(|&&(n, _, _)| n == b).expect("batch size");
        pt.fast_mean / bt.fast_mean
    };
    for &(b, pt, bt) in &results {
        println!(
            "batch size {b:>2}: batched scoring {:.2}x the per-tree loop",
            pt.fast_mean / bt.fast_mean
        );
    }
    let speedup49 = speedup(49);
    let batched49 = results.iter().find(|&&(n, _, _)| n == 49).expect("b=49").2;

    // --- Training throughput: batched trainer at 1 and `threads` workers,
    // plus the per-tree reference loop for context.
    let train_trees: Vec<FeatTree> = per_query.iter().flatten().cloned().collect();
    let targets: Vec<f32> =
        (0..train_trees.len()).map(|i| ((i * 7919) % 100) as f32 / 100.0).collect();
    let epochs = if quick { 2 } else { 5 };
    let tc = TrainConfig {
        max_epochs: epochs,
        patience: epochs + 1, // no early stop: fixed work per run
        seed,
        // One arm-family per minibatch, split seven ways: enough shards
        // per optimizer step for thread fan-out to amortize spawn cost.
        batch_size: 49,
        shard_size: 7,
        ..TrainConfig::default()
    };
    let train_samples = if quick { 2 } else { 5 };
    let tgroup = Group::new("train", train_samples);
    let tree_epochs = (train_trees.len() * epochs) as f64;
    let t_ref = tgroup.bench_stats("reference_per_tree", || {
        let mut n = TreeCnn::new(TcnnConfig::small(input_dim), seed);
        train_reference(&mut n, &train_trees, &targets, &tc);
    });
    let t_one = tgroup.bench_stats("batched_1_thread", || {
        let mut n = TreeCnn::new(TcnnConfig::small(input_dim), seed);
        train(&mut n, &train_trees, &targets, &tc);
    });
    let t_many = tgroup.bench_stats(&format!("batched_{threads}_threads"), || {
        let mut n = TreeCnn::new(TcnnConfig::small(input_dim), seed);
        train(&mut n, &train_trees, &targets, &TrainConfig { threads, ..tc });
    });
    let train_speedup_batched = t_ref.trimmed_mean / t_one.trimmed_mean;
    let train_speedup_threads = t_one.trimmed_mean / t_many.trimmed_mean;
    println!();
    println!(
        "training: batched 1-thread {:.2}x the per-tree reference, {} threads {:.2}x 1 thread ({} core(s) available)",
        train_speedup_batched, threads, train_speedup_threads, cores
    );
    println!(
        "training throughput: {:.0} tree-epochs/s (1 thread), {:.0} tree-epochs/s ({} threads)",
        tree_epochs / t_one.trimmed_mean,
        tree_epochs / t_many.trimmed_mean,
        threads
    );

    // --- Baseline comparison.
    let path = baseline_path();
    let mut store = BaselineStore::load(&path).expect("load baselines");
    // Gated: machine-independent ratios, plus thread scaling when the
    // host has enough cores to exhibit it (detected at bench time).
    // Warn-only: everything core-count dependent on narrow hosts, and
    // absolute throughputs.
    let enforce_threads = cores >= 2;
    let mut gated: Vec<(&str, f64)> = vec![("score_batched_speedup_b49", speedup49)];
    let mut warned: Vec<(&str, f64)> = vec![
        ("score_batched_speedup_b8", speedup(8)),
        ("train_batched_speedup_1t", train_speedup_batched),
        ("train_tree_epochs_per_sec_1t", tree_epochs / t_one.trimmed_mean),
        ("score_batched_plans_per_sec_b49", 49.0 / batched49.fast_mean),
    ];
    if enforce_threads {
        gated.push(("train_thread_speedup", train_speedup_threads));
    } else {
        warned.push(("train_thread_speedup", train_speedup_threads));
        println!(
            "host has {cores} core(s) < 2: train_thread_speedup recorded warn-only \
             (floor {MIN_THREAD_SPEEDUP:.1}x enforced on multi-core hosts)"
        );
    }
    println!();
    let mut regression = false;
    for (name, value) in gated.iter().chain(warned.iter()) {
        let is_gated = gated.iter().any(|(g, _)| g == name);
        match store.compare(name, *value, TOLERANCE) {
            Comparison::New => {
                println!("baseline {name}: recorded {value:.3} (new)");
                store.record(name, *value);
            }
            Comparison::Ok { ratio } => {
                println!("baseline {name}: {value:.3} ({:.0}% of baseline) ok", ratio * 100.0);
                if update {
                    store.record(name, *value);
                }
            }
            Comparison::Regressed { ratio } => {
                println!(
                    "WARNING: {name} regressed to {value:.3} ({:.0}% of baseline{})",
                    ratio * 100.0,
                    if is_gated { ", gated" } else { "" }
                );
                if is_gated {
                    regression = true;
                }
                if update {
                    store.record(name, *value);
                }
            }
        }
    }
    store.save().expect("save baselines");

    println!();
    let batch_ok = speedup49 >= MIN_BATCH49_SPEEDUP;
    println!(
        "49-arm batched speedup {:.2}x (target >= {:.1}x): {}",
        speedup49,
        MIN_BATCH49_SPEEDUP,
        if batch_ok { "PASS" } else { "FAIL" }
    );
    let threads_ok = !enforce_threads || train_speedup_threads >= MIN_THREAD_SPEEDUP;
    println!(
        "{threads}-thread training speedup {:.2}x (target >= {:.1}x on >= 2-core hosts): {}",
        train_speedup_threads,
        MIN_THREAD_SPEEDUP,
        if !enforce_threads {
            "SKIPPED (single core)"
        } else if threads_ok {
            "PASS"
        } else {
            "FAIL"
        }
    );
    if gate && (regression || !batch_ok || !threads_ok) {
        eprintln!("bench gate failed");
        std::process::exit(1);
    }
}
