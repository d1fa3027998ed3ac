//! Per-query execution metrics and the configurable performance metric
//! Bao optimizes (paper §3: "a user-defined performance metric P").

use bao_common::{json_enum, json_record, SimDuration};
use bao_storage::Value;

/// What Bao's reward measures (Figure 16 trains Bao against each).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PerfMetric {
    /// End-to-end simulated latency (the default).
    Latency,
    /// CPU time only.
    CpuTime,
    /// Physical I/O requests (buffer-pool misses).
    PhysicalIo,
}

json_enum!(PerfMetric { Latency, CpuTime, PhysicalIo });

/// Everything observed while executing one plan.
#[derive(Debug, Clone)]
pub struct ExecutionMetrics {
    pub latency: SimDuration,
    pub cpu_time: SimDuration,
    pub io_time: SimDuration,
    pub page_hits: u64,
    pub page_misses: u64,
    /// Rows produced by the plan root.
    pub rows_out: u64,
    /// True output cardinality of every plan node, pre-order (aligned with
    /// [`bao_plan::PlanNode::iter`]). Used for q-error evaluation and for
    /// training the learned-optimizer baselines.
    pub node_true_rows: Vec<u64>,
    /// Result rows (projected select-list values); capped for large
    /// non-aggregate results.
    pub output: Vec<Vec<Value>>,
}

json_record!(ExecutionMetrics {
    latency,
    cpu_time,
    io_time,
    page_hits,
    page_misses,
    rows_out,
    node_true_rows,
    output,
});

impl ExecutionMetrics {
    /// The scalar reward value under a performance metric (lower is
    /// better, matching the paper's regret formulation).
    pub fn perf(&self, metric: PerfMetric) -> f64 {
        match metric {
            PerfMetric::Latency => self.latency.as_ms(),
            PerfMetric::CpuTime => self.cpu_time.as_ms(),
            PerfMetric::PhysicalIo => self.page_misses as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bao_common::json::{FromJson, Json, ToJson};

    #[test]
    fn perf_selects_metric() {
        let m = ExecutionMetrics {
            latency: SimDuration::from_ms(100.0),
            cpu_time: SimDuration::from_ms(60.0),
            io_time: SimDuration::from_ms(40.0),
            page_hits: 10,
            page_misses: 7,
            rows_out: 1,
            node_true_rows: vec![1],
            output: vec![],
        };
        assert_eq!(m.perf(PerfMetric::Latency), 100.0);
        assert_eq!(m.perf(PerfMetric::CpuTime), 60.0);
        assert_eq!(m.perf(PerfMetric::PhysicalIo), 7.0);
    }

    #[test]
    fn execution_metrics_round_trip_through_json() {
        let m = ExecutionMetrics {
            latency: SimDuration::from_ms(12.25),
            cpu_time: SimDuration::from_ms(8.5),
            io_time: SimDuration::from_ms(3.75),
            page_hits: 42,
            page_misses: 1 << 60, // u64 lane survives the parser
            rows_out: 3,
            node_true_rows: vec![3, 17, 0],
            output: vec![
                vec![Value::Int(7), Value::Str("abc".into())],
                vec![Value::Float(2.5), Value::Int(-2)],
            ],
        };
        let j = m.to_json();
        let back = ExecutionMetrics::from_json(&j).expect("decode metrics");
        assert_eq!(back.to_json().to_string(), j.to_string());
        assert_eq!(back.latency, m.latency);
        assert_eq!(back.page_misses, m.page_misses);
        assert_eq!(back.node_true_rows, m.node_true_rows);
        assert_eq!(back.output, m.output);
        // A missing field is an error, not a default.
        let truncated = Json::obj([("latency", m.latency.to_json())]);
        assert!(ExecutionMetrics::from_json(&truncated).is_err());
    }
}
