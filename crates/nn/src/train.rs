//! Minibatch training loop with the paper's stopping rule.
//!
//! §6.1: "Training is performed with Adam using a batch size of 16, and
//! is ran until either 100 epochs elapsed or convergence (decrease in
//! training loss of less than 1% over 10 epochs) is reached."
//!
//! The minibatch gradient runs through the batched TCNN kernels: each
//! minibatch is split into fixed-size *shards*, every shard is packed
//! into a [`TreeBatch`] and pushed through
//! [`TreeCnn::forward_train_batch`] / [`TreeCnn::backward_batch`], and
//! shard gradients are reduced into the master net **in shard-index
//! order**. Sharding is a function of `shard_size` alone — never of
//! `threads` — and each shard's dropout RNG is seeded from its global
//! shard counter, so the loss trajectory is bit-identical whether shards
//! run on one thread or many (bao-lint's determinism rules hold under
//! parallel training). The old one-tree-at-a-time loop survives as
//! [`train_reference`] for equivalence tests and benchmarks.

use crate::adam::{Adam, AdamConfig};
use crate::net::TreeCnn;
use crate::tree::{FeatTree, TreeBatch};
use bao_common::json::{self, FromJson, Json, ToJson};
use bao_common::{rng_from_seed, split_seed, Result, Rng};

/// Training-loop configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainConfig {
    pub max_epochs: usize,
    pub batch_size: usize,
    pub adam: AdamConfig,
    /// Convergence window (epochs) and required relative improvement.
    pub patience: usize,
    pub min_improvement: f64,
    pub seed: u64,
    /// Worker threads for minibatch gradient shards (`1` runs shards
    /// in-line). Thread count never affects numerics.
    pub threads: usize,
    /// Trees per gradient shard. Smaller shards expose more parallelism;
    /// larger shards amortize packing. Numerics depend on this value
    /// (shard GEMM boundaries), so it is part of the config, not a
    /// runtime autodetect.
    pub shard_size: usize,
}

// Hand-written: models saved before the batched trainer lack `threads`/`shard_size`.
impl ToJson for TrainConfig {
    fn to_json(&self) -> Json {
        Json::obj([
            ("max_epochs", self.max_epochs.to_json()),
            ("batch_size", self.batch_size.to_json()),
            ("adam", self.adam.to_json()),
            ("patience", self.patience.to_json()),
            ("min_improvement", self.min_improvement.to_json()),
            ("seed", self.seed.to_json()),
            ("threads", self.threads.to_json()),
            ("shard_size", self.shard_size.to_json()),
        ])
    }
}

impl FromJson for TrainConfig {
    fn from_json(j: &Json) -> Result<TrainConfig> {
        Ok(TrainConfig {
            max_epochs: json::field(j, "max_epochs")?,
            batch_size: json::field(j, "batch_size")?,
            adam: json::field(j, "adam")?,
            patience: json::field(j, "patience")?,
            min_improvement: json::field(j, "min_improvement")?,
            seed: json::field(j, "seed")?,
            // Absent in models serialized before the batched trainer.
            threads: json::field(j, "threads").unwrap_or(1),
            shard_size: json::field(j, "shard_size").unwrap_or(8),
        })
    }
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            max_epochs: 100,
            batch_size: 16,
            adam: AdamConfig::default(),
            patience: 10,
            min_improvement: 0.01,
            seed: 0,
            threads: 1,
            shard_size: 8,
        }
    }
}

/// Outcome of a training run.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainReport {
    pub epochs_run: usize,
    pub final_loss: f64,
    pub loss_history: Vec<f64>,
}

/// One unit of minibatch-gradient work: a shard of example indices plus
/// its dropout seed and loss scale.
struct ShardJob {
    idxs: Vec<usize>,
    drop_seed: u64,
    scale: f32,
}

/// Gradient of one shard: pack, batched forward, MSE error, batched
/// backward into a zero-initialized clone of the net. Returns the clone
/// (its `.g` buffers hold the shard gradient) and the shard's summed
/// squared error.
fn shard_grad(
    net: &TreeCnn,
    trees: &[FeatTree],
    targets: &[f32],
    job: &ShardJob,
) -> (TreeCnn, f64) {
    let batch = TreeBatch::pack(job.idxs.iter().map(|&i| &trees[i]));
    let mut rng = rng_from_seed(job.drop_seed);
    let (preds, tape) = net.forward_train_batch(&batch, &mut rng);
    let mut loss = 0.0f64;
    let mut d_outs = Vec::with_capacity(job.idxs.len());
    for (k, &i) in job.idxs.iter().enumerate() {
        let err = preds[k] - targets[i];
        loss += (err * err) as f64;
        d_outs.push(2.0 * err * job.scale);
    }
    let mut gnet = net.clone();
    gnet.zero_grad();
    gnet.backward_batch(&batch, &tape, &d_outs);
    (gnet, loss)
}

/// The epoch/minibatch loop, generic over how a wave of shard jobs is
/// evaluated (inline, or fanned out to a worker pool). `eval_wave` must
/// return one `(gradient net, loss)` per job **in job order** — the
/// reduction below consumes them in that order, which is what makes the
/// result independent of worker scheduling.
fn train_loop<F>(
    net: &mut TreeCnn,
    trees: &[FeatTree],
    cfg: &TrainConfig,
    mut eval_wave: F,
) -> TrainReport
where
    F: FnMut(&TreeCnn, Vec<ShardJob>) -> Vec<(TreeCnn, f64)>,
{
    let mut adam = Adam::new(cfg.adam);
    let mut rng = rng_from_seed(cfg.seed);
    let mut order: Vec<usize> = (0..trees.len()).collect();
    let mut history: Vec<f64> = Vec::with_capacity(cfg.max_epochs);
    let shard_size = cfg.shard_size.max(1);
    // Dropout streams are decoupled from the shuffle stream so that the
    // shard decomposition cannot perturb example ordering.
    let drop_stream = split_seed(cfg.seed, 0x9d70);
    let mut step: u64 = 0;

    for epoch in 0..cfg.max_epochs {
        rng.shuffle(&mut order);
        let mut epoch_loss = 0.0f64;
        for batch in order.chunks(cfg.batch_size.max(1)) {
            net.zero_grad();
            let scale = 1.0 / batch.len() as f32;
            let jobs: Vec<ShardJob> = batch
                .chunks(shard_size)
                .enumerate()
                .map(|(s, idxs)| ShardJob {
                    idxs: idxs.to_vec(),
                    drop_seed: split_seed(drop_stream, step + s as u64),
                    scale,
                })
                .collect();
            step += jobs.len() as u64;

            for (gnet, loss) in eval_wave(net, jobs) {
                epoch_loss += loss;
                net.for_each_param_pair(&gnet, |p, q| {
                    for (gv, &qv) in p.g.iter_mut().zip(q.g.iter()) {
                        *gv += qv;
                    }
                });
            }
            adam.begin_step();
            net.for_each_param(|p| adam.update(p));
        }
        epoch_loss /= trees.len() as f64;
        history.push(epoch_loss);

        // Convergence: less than `min_improvement` relative decrease over
        // the last `patience` epochs.
        if epoch >= cfg.patience {
            let then = history[epoch - cfg.patience];
            if epoch_loss > then * (1.0 - cfg.min_improvement) {
                break;
            }
        }
    }
    TrainReport {
        epochs_run: history.len(),
        final_loss: *history.last().unwrap_or(&0.0),
        loss_history: history,
    }
}

/// Train `net` on `(trees, targets)` with MSE loss. Targets should be
/// pre-normalized by the caller (Bao's model layer normalizes log-scale
/// latencies).
///
/// Each minibatch gradient is computed through the batched kernels in
/// `shard_size`-tree shards. With `cfg.threads > 1` the shards are
/// evaluated by a pool of workers that lives for the whole training run
/// (spawned once, fed over channels), so per-minibatch synchronization
/// costs a channel round-trip rather than a thread spawn. Shard
/// boundaries and per-shard dropout seeds depend only on the config, and
/// shard gradients reduce in shard-index order, so results are identical
/// for any thread count.
pub fn train(
    net: &mut TreeCnn,
    trees: &[FeatTree],
    targets: &[f32],
    cfg: &TrainConfig,
) -> TrainReport {
    assert_eq!(trees.len(), targets.len());
    if trees.is_empty() {
        return TrainReport { epochs_run: 0, final_loss: 0.0, loss_history: vec![] };
    }
    let threads = cfg.threads.max(1);
    if threads == 1 {
        return train_loop(net, trees, cfg, |snapshot, jobs| {
            jobs.iter().map(|j| shard_grad(snapshot, trees, targets, j)).collect()
        });
    }

    use bao_common::sync::{mpsc, Arc, Mutex};
    // Persistent pool: jobs flow through one shared channel, results come
    // back tagged with their slot and are reassembled into job order.
    type Tagged = (usize, Arc<TreeCnn>, ShardJob);
    let (job_tx, job_rx) = mpsc::channel::<Tagged>();
    let job_rx = Arc::new(Mutex::new(job_rx));
    let (res_tx, res_rx) = mpsc::channel::<(usize, (TreeCnn, f64))>();

    bao_common::sync::scope(|scope| {
        for _ in 0..threads {
            let job_rx = Arc::clone(&job_rx);
            let res_tx = res_tx.clone();
            scope.spawn(move || loop {
                // Holding the lock only while dequeuing keeps workers
                // independent; a closed channel means training finished.
                let job = { job_rx.lock().unwrap().recv() };
                match job {
                    Ok((slot, snapshot, job)) => {
                        let r = shard_grad(&snapshot, trees, targets, &job);
                        if res_tx.send((slot, r)).is_err() {
                            break;
                        }
                    }
                    Err(_) => break,
                }
            });
        }

        let report = train_loop(net, trees, cfg, |snapshot, jobs| {
            let n = jobs.len();
            let snap = Arc::new(snapshot.clone());
            for (slot, job) in jobs.into_iter().enumerate() {
                job_tx.send((slot, Arc::clone(&snap), job)).expect("workers alive");
            }
            let mut slots: Vec<Option<(TreeCnn, f64)>> = (0..n).map(|_| None).collect();
            for _ in 0..n {
                let (slot, r) = res_rx.recv().expect("workers alive");
                slots[slot] = Some(r);
            }
            slots.into_iter().map(|r| r.expect("every slot filled")).collect()
        });
        drop(job_tx); // close the queue: workers drain and exit
        report
    })
}

/// One-tree-at-a-time trainer: the pre-batching implementation, kept as
/// the numerical reference for equivalence tests and as the per-tree
/// baseline in `inference_bench`. Ignores `threads`/`shard_size`.
pub fn train_reference(
    net: &mut TreeCnn,
    trees: &[FeatTree],
    targets: &[f32],
    cfg: &TrainConfig,
) -> TrainReport {
    assert_eq!(trees.len(), targets.len());
    if trees.is_empty() {
        return TrainReport { epochs_run: 0, final_loss: 0.0, loss_history: vec![] };
    }
    let mut adam = Adam::new(cfg.adam);
    let mut rng = rng_from_seed(cfg.seed);
    let mut order: Vec<usize> = (0..trees.len()).collect();
    let mut history: Vec<f64> = Vec::with_capacity(cfg.max_epochs);

    for epoch in 0..cfg.max_epochs {
        rng.shuffle(&mut order);
        let mut epoch_loss = 0.0f64;
        for batch in order.chunks(cfg.batch_size.max(1)) {
            net.zero_grad();
            let scale = 1.0 / batch.len() as f32;
            for &i in batch {
                let (pred, tape) = net.forward_train(&trees[i], &mut rng);
                let err = pred - targets[i];
                epoch_loss += (err * err) as f64;
                net.backward(&trees[i], &tape, 2.0 * err * scale);
            }
            adam.begin_step();
            net.for_each_param(|p| adam.update(p));
        }
        epoch_loss /= trees.len() as f64;
        history.push(epoch_loss);

        // Convergence: less than `min_improvement` relative decrease over
        // the last `patience` epochs.
        if epoch >= cfg.patience {
            let then = history[epoch - cfg.patience];
            if epoch_loss > then * (1.0 - cfg.min_improvement) {
                break;
            }
        }
    }
    TrainReport {
        epochs_run: history.len(),
        final_loss: *history.last().unwrap_or(&0.0),
        loss_history: history,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::TcnnConfig;

    /// Trees whose target is a simple function of their features: the net
    /// must be able to fit it.
    fn dataset(n: usize, seed: u64) -> (Vec<FeatTree>, Vec<f32>) {
        let mut rng = rng_from_seed(seed);
        let mut trees = Vec::with_capacity(n);
        let mut ys = Vec::with_capacity(n);
        for _ in 0..n {
            let a: f32 = rng.gen_range(-1.0..1.0);
            let b: f32 = rng.gen_range(-1.0..1.0);
            let root = vec![a, 0.3, -0.1];
            let l = vec![b, -0.4, 0.2];
            let r = vec![a * b, 0.1, 0.9];
            trees.push(FeatTree::new(3, vec![root, l, r], vec![1, -1, -1], vec![2, -1, -1]));
            ys.push(0.8 * a - 0.5 * b + 0.3 * a * b);
        }
        (trees, ys)
    }

    #[test]
    fn loss_decreases() {
        let (trees, ys) = dataset(64, 3);
        let mut net = TreeCnn::new(TcnnConfig::tiny(3), 17);
        let cfg = TrainConfig {
            max_epochs: 60,
            seed: 5,
            adam: AdamConfig { lr: 0.01, ..AdamConfig::default() },
            ..TrainConfig::default()
        };
        let report = train(&mut net, &trees, &ys, &cfg);
        assert!(report.epochs_run >= 10);
        let first = report.loss_history[0];
        assert!(
            report.final_loss < first * 0.5,
            "loss should halve: {} -> {}",
            first,
            report.final_loss
        );
    }

    #[test]
    fn early_stopping_triggers_on_plateau() {
        // Targets uncorrelated with the features: the tiny net hits its
        // noise floor quickly, after which relative improvement stalls and
        // the patience rule must stop training well before max_epochs.
        let (trees, _) = dataset(64, 4);
        let mut rng = rng_from_seed(40);
        let ys: Vec<f32> = (0..trees.len()).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let mut net = TreeCnn::new(TcnnConfig::tiny(3), 2);
        let cfg = TrainConfig {
            max_epochs: 100,
            seed: 6,
            adam: AdamConfig { lr: 0.01, ..AdamConfig::default() },
            ..TrainConfig::default()
        };
        let report = train(&mut net, &trees, &ys, &cfg);
        assert!(report.epochs_run < 100, "ran {} epochs", report.epochs_run);
    }

    #[test]
    fn empty_dataset_is_a_noop() {
        let mut net = TreeCnn::new(TcnnConfig::tiny(3), 2);
        let report = train(&mut net, &[], &[], &TrainConfig::default());
        assert_eq!(report.epochs_run, 0);
    }

    #[test]
    fn training_is_deterministic() {
        let (trees, ys) = dataset(32, 8);
        let cfg = TrainConfig { max_epochs: 5, seed: 9, ..TrainConfig::default() };
        let mut a = TreeCnn::new(TcnnConfig::tiny(3), 1);
        let mut b = TreeCnn::new(TcnnConfig::tiny(3), 1);
        let ra = train(&mut a, &trees, &ys, &cfg);
        let rb = train(&mut b, &trees, &ys, &cfg);
        assert_eq!(ra.loss_history, rb.loss_history);
        assert_eq!(a.predict(&trees[0]), b.predict(&trees[0]));
    }

    #[test]
    fn thread_count_does_not_change_numerics() {
        let (trees, ys) = dataset(48, 11);
        let base = TrainConfig {
            max_epochs: 4,
            seed: 13,
            shard_size: 4,
            ..TrainConfig::default()
        };
        let mut a = TreeCnn::new(TcnnConfig::tiny(3), 7);
        let mut b = a.clone();
        let ra = train(&mut a, &trees, &ys, &TrainConfig { threads: 1, ..base });
        let rb = train(&mut b, &trees, &ys, &TrainConfig { threads: 4, ..base });
        assert_eq!(ra.loss_history, rb.loss_history, "loss must be thread-count invariant");
        assert_eq!(a.predict(&trees[0]), b.predict(&trees[0]));
    }

    #[test]
    fn batched_tracks_reference_trajectory() {
        // With dropout off, the batched path differs from the per-tree
        // reference only by GEMM summation order, so the two loss
        // trajectories must stay within float-reassociation distance.
        let (trees, ys) = dataset(48, 21);
        let mut cfg_net = TcnnConfig::tiny(3);
        cfg_net.dropout = 0.0;
        let cfg = TrainConfig { max_epochs: 8, seed: 17, ..TrainConfig::default() };
        let mut a = TreeCnn::new(cfg_net.clone(), 5);
        let mut b = a.clone();
        let ra = train(&mut a, &trees, &ys, &cfg);
        let rb = train_reference(&mut b, &trees, &ys, &cfg);
        assert_eq!(ra.epochs_run, rb.epochs_run);
        for (la, lb) in ra.loss_history.iter().zip(rb.loss_history.iter()) {
            let denom = lb.abs().max(1e-6);
            assert!(
                (la - lb).abs() / denom < 1e-3,
                "trajectories diverged: {} vs {}",
                la,
                lb
            );
        }
    }

    #[test]
    fn config_json_roundtrip_tolerates_missing_batch_fields() {
        let cfg = TrainConfig { threads: 3, shard_size: 5, ..TrainConfig::default() };
        let j = cfg.to_json();
        assert_eq!(TrainConfig::from_json(&j).unwrap(), cfg);
        // A config serialized before the batched trainer lacks the new
        // fields; decoding must fall back to the sequential defaults.
        let legacy = Json::obj([
            ("max_epochs", 100usize.to_json()),
            ("batch_size", 16usize.to_json()),
            ("adam", AdamConfig::default().to_json()),
            ("patience", 10usize.to_json()),
            ("min_improvement", 0.01f64.to_json()),
            ("seed", 0u64.to_json()),
        ]);
        let decoded = TrainConfig::from_json(&legacy).unwrap();
        assert_eq!(decoded.threads, 1);
        assert_eq!(decoded.shard_size, 8);
    }
}
