//! The morsel worker pool: deterministic work-stealing execution of
//! fixed-size morsels (DESIGN.md §13).
//!
//! Sharded execution splits an operator's row space into morsels and runs
//! them on [`bao_common::sync::run_jobs`], the slot-tagged pool that
//! `Bao::plan_jobs` also plans its arms on (the same
//! determinism-by-construction pattern as `bao_nn::train`'s sharded
//! gradient reduction). Workers steal morsel indices from a shared queue
//! (so a slow morsel never stalls the others), every result is tagged
//! with its slot, and the pool re-slots before returning: worker count
//! and scheduling can never affect output order. All *stateful*
//! accounting (buffer-pool touches, f64 meter charges) stays on the
//! coordinator in pinned order — workers only ever run pure compute —
//! which is what makes sharded output bit-identical to the single-shard
//! path.

use bao_common::sync::resolve_width;
pub use bao_common::sync::run_jobs;

/// Sharded-execution knobs threaded from `BaoConfig`/`BaoSettings` down to
/// [`crate::execute_with`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecConfig {
    /// Worker-pool width and shard count. `1` (the default) is the serial
    /// single-shard path; `0` sizes to the host like `planning_threads`.
    pub shard_workers: usize,
    /// Rows per morsel. Operators below one morsel of input run inline on
    /// the coordinator — spawning would cost more than it buys.
    pub morsel_rows: u32,
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig { shard_workers: 1, morsel_rows: 4096 }
    }
}

impl ExecConfig {
    /// A config with host-defaulted width resolved to a concrete worker
    /// count (`0` → one worker per available core).
    pub fn resolved_workers(&self) -> usize {
        resolve_width(self.shard_workers)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bao_common::{BaoError, Result};

    #[test]
    fn results_in_slot_order_regardless_of_width() {
        let serial = run_jobs(1, 9, |i| Ok(i * i)).unwrap();
        for workers in [2usize, 4, 8] {
            let par = run_jobs(workers, 9, |i| Ok(i * i)).unwrap();
            assert_eq!(par, serial, "workers={workers}");
        }
        assert_eq!(serial, (0..9).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn job_error_propagates() {
        let out: Result<Vec<usize>> =
            run_jobs(4, 6, |i| {
                if i == 3 {
                    Err(BaoError::Planning("boom".into()))
                } else {
                    Ok(i)
                }
            });
        assert!(out.is_err());
    }

    #[test]
    fn first_error_in_slot_order_wins() {
        for workers in [1usize, 2, 4] {
            let out: Result<Vec<usize>> = run_jobs(workers, 8, |i| match i {
                2 | 6 => Err(BaoError::Planning(format!("job {i}"))),
                _ => Ok(i),
            });
            assert_eq!(out, Err(BaoError::Planning("job 2".into())), "workers={workers}");
        }
    }

    #[test]
    fn zero_jobs_is_empty() {
        let out: Vec<u32> = run_jobs(4, 0, |_| Ok(0)).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn host_defaulted_width_resolves_positive() {
        let cfg = ExecConfig { shard_workers: 0, ..ExecConfig::default() };
        assert!(cfg.resolved_workers() >= 1);
        assert_eq!(ExecConfig::default().resolved_workers(), 1);
    }
}
