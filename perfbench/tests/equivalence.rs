//! The traced replay must decide exactly what `ServingRunner::run` decides
//! on every workload; checked here on a tiny instance of each.

use std::path::PathBuf;

use bao_perfbench::driver::traced_run;
use bao_perfbench::e2e::{canonical, remove_dir, run_rep, wal_dir, Inputs};
use bao_perfbench::layers::{traced_metrics, SHARES};
use bao_perfbench::spec::Spec;

fn work_root(test: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("perfbench-{test}"))
}

fn tiny(name: &str, n: usize, seed: u64) -> Inputs {
    let spec = Spec::named(name).expect("known workload").tiny(n);
    Inputs::generate(&spec, seed).unwrap_or_else(|e| panic!("{name}: {e}"))
}

#[test]
fn traced_replay_matches_serving_runner_on_every_workload() {
    let root = work_root("replay");
    for name in Spec::NAMES {
        for seed in [3, 19] {
            let inputs = tiny(name, 40, seed);
            let reference =
                run_rep(&inputs, &root, "ref", true).unwrap_or_else(|e| panic!("{name}: {e}"));
            let wal = inputs
                .spec
                .wal
                .then(|| wal_dir(&root, &inputs.spec, "traced").unwrap());
            let run = traced_run(&inputs, wal).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(
                canonical(&run.result),
                canonical(&reference.result),
                "{name} seed {seed}: traced replay diverged"
            );
            assert_eq!(run.counters.dispatched, inputs.len());
            assert!(
                run.counters.retrains > 0,
                "{name}: tiny run must cross a retrain"
            );
            if let Some(dir) = &run.wal_dir {
                remove_dir(dir).unwrap();
            }
        }
    }
    remove_dir(&root).unwrap();
}

#[test]
fn traced_metrics_check_and_report_every_layer() {
    let root = work_root("metrics");
    let inputs = tiny("stack-durable", 40, 7);
    let m = traced_metrics(&inputs, &root).unwrap_or_else(|e| panic!("{e}"));
    let get = |n: &str| {
        m.iter()
            .find(|(name, _, _)| *name == n)
            .map(|&(_, v, _)| v)
            .unwrap()
    };
    assert!(get("nn.retrain_s") > 0.0);
    assert!(get("wal.commit_share") > 0.0);
    assert!(get("wal.recover_share") > 0.0);
    assert!(get("workloads.event_share") > 0.0);
    assert!(get("wal.frames") > 0.0);
    assert!(get("cache.hit_rate") > 0.0);
    // The layer shares partition the traced wall; the WAL scan and
    // recovery shares divide by the untraced wall and are not part of it.
    let shares: f64 = SHARES.iter().map(|(name, _)| get(name)).sum();
    assert!(
        shares <= 1.0 + 1e-9,
        "layer shares exceed the traced wall: {shares}"
    );
    remove_dir(&root).unwrap();
}
