//! Golden pin of the on-disk JSON codecs. Every byte the workspace
//! persists — WAL segments (run header, experience trees, model
//! checkpoints, query outcomes with their plans), `RunResult` JSON,
//! workload steps (queries and events) and the report/config types — is
//! folded into an FNV-1a digest. A codec refactor must leave every digest
//! alone: a renamed, reordered or re-tagged key moves one.
//!
//! `tests/crash_recovery.rs` compares WAL bytes only against the same
//! build, so it cannot see a key-order change; this file can. It also
//! round-trips seeded values through each shape the declarative codec
//! macros generate: a record, a unit-only enum and a mixed enum.

use std::fs;
use std::path::{Path, PathBuf};

use bao_cache::CacheStats;
use bao_common::json::{self, FromJson, Json, ToJson};
use bao_common::{
    json_enum, json_record, rng_from_seed, split_seed, BaoError, Rng, RngCore, SimDuration,
};
use bao_exec::{ChargeRates, ExecutionMetrics, PerfMetric};
use bao_harness::{BaoSettings, ModelKind, RunConfig, Runner, Strategy};
use bao_opt::{CostParams, HintSet};
use bao_sched::{DistSummary, SchedReport, TenantReport};
use bao_storage::Value;
use bao_wal::{fnv64, DurabilityConfig, FsyncPolicy, Wal};
use bao_workloads::{build_corp, build_stack, CorpConfig, Event, StackConfig, Workload};

/// Digests recorded before the codecs moved to the declarative macros:
/// `[wal, run_result, recovery_report, workloads, reports, configs]`.
const GOLDEN: [u64; 6] = [
    0x794d_2315_5249_5382,
    0x24d1_c142_d4f6_e8a2,
    0xa7b8_7438_1d46_504c,
    0x1147_e1f5_5d18_3505,
    0x1098_f1b4_5013_3ad6,
    0x4199_19c5_3e8c_41f5,
];

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bao-codec-{}-{name}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn durable_config(dir: &Path) -> RunConfig {
    let settings = BaoSettings {
        arms: HintSet::top_arms(3),
        model: ModelKind::TcnnFast,
        window: 12,
        retrain: 4,
        cache_features: true,
        durability: Some(
            DurabilityConfig::new(dir).with_fsync(FsyncPolicy::Never).with_segment_bytes(64 << 20),
        ),
        ..BaoSettings::default()
    };
    RunConfig {
        seed: 11,
        stats_sample: 200,
        ..RunConfig::new(bao_cloud::N1_4, Strategy::Bao(settings))
    }
}

/// Every segment file of the log in `dir`, concatenated in name order.
fn wal_bytes(dir: &Path) -> Vec<u8> {
    let mut names: Vec<PathBuf> =
        fs::read_dir(dir).unwrap().map(|e| e.unwrap().path()).collect();
    names.sort();
    names.iter().flat_map(|p| fs::read(p).unwrap()).collect()
}

fn json_digest<T: ToJson>(items: &[T]) -> u64 {
    let mut bytes = Vec::new();
    for x in items {
        bytes.extend_from_slice(x.to_json().to_string().as_bytes());
        bytes.push(b'\n');
    }
    fnv64(&bytes)
}

fn steps_digest(wl: &Workload) -> Vec<u8> {
    wl.steps.iter().flat_map(|s| s.to_json().to_string().into_bytes()).collect()
}

fn dist(n: usize, base: f64) -> DistSummary {
    let (p50, p95, p99, max) = (base * 0.5, base * 2.25, base * 3.125, base * 4.0);
    DistSummary { n, mean: base, p50, p95, p99, max }
}

fn tenant(name: &str, priority: &'static str, admitted: usize) -> TenantReport {
    TenantReport {
        name: name.into(),
        weight: 3,
        priority,
        admitted,
        served: admitted,
        shed: 1,
        drift_shed: 2,
        peak_queue_depth: 7,
        wait_ms: dist(admitted, 12.5),
        served_work_ms: 1234.0625,
    }
}

#[test]
fn codec_bytes_match_the_golden_digests() {
    // A durable serial Bao run crossing two retrains: every WAL record
    // kind the serial path writes, with full TCNN checkpoints.
    let dir = temp_dir("durable");
    let (db, wl) = bao_bench::build_workload(bao_bench::WorkloadName::Imdb, 0.01, 12, 11)
        .expect("build workload");
    let mut result = Runner::new(durable_config(&dir), db).run(&wl).expect("durable run");
    assert_eq!(result.records.len(), 12);
    let log = wal_bytes(&dir);
    let mut scan = Wal::scan(&dir).expect("scan");
    scan.rollback_to_last_outcome();
    assert!(scan.report.model_checkpoints >= 1, "the run must retrain at least once");
    let _ = fs::remove_dir_all(&dir);
    let wal = fnv64(&log);
    result.wall_train = std::time::Duration::ZERO;
    let run_result = fnv64(result.to_json().to_string().as_bytes());
    let recovery_report = json_digest(&[scan.report]);

    // Workload steps: Stack with month loads, Corp across its schema
    // change (queries, aggregates, select items and both event shapes).
    let (_, stack) = build_stack(&StackConfig {
        scale: 0.05,
        n_queries: 30,
        initial_months: 2,
        total_months: 4,
        seed: 6,
    })
    .unwrap();
    assert!(stack.steps.iter().any(|s| matches!(s.event, Some(Event::LoadStackMonth { .. }))));
    let (_, corp) = build_corp(&CorpConfig { scale: 0.1, n_queries: 30, seed: 7 }).unwrap();
    assert!(corp.steps.iter().any(|s| s.event == Some(Event::CorpNormalization)));
    let mut bytes = steps_digest(&stack);
    bytes.extend(steps_digest(&corp));
    let workloads = fnv64(&bytes);

    // Report types.
    let sched = SchedReport {
        policy: "drr",
        waves: 17,
        tenants: vec![tenant("light", "interactive", 5), tenant("heavy", "background", 40)],
        jain_fairness: 0.8125,
    };
    let cache = CacheStats {
        hits: 30,
        misses: 10,
        inserts: 9,
        evictions: 1,
        retrain_invalidations: 2,
        drift_evictions: 3,
        drift_sheds: 4,
    };
    let metrics = ExecutionMetrics {
        latency: SimDuration::from_ms(12.75),
        cpu_time: SimDuration::from_ms(10.5),
        io_time: SimDuration::from_ms(2.25),
        page_hits: 40,
        page_misses: 3,
        rows_out: 2,
        node_true_rows: vec![2, 10, 7],
        output: vec![
            vec![Value::Int(-3), Value::Float(2.0), Value::Str("a\"b".into())],
            vec![Value::Int(4), Value::Float(0.1), Value::Str(String::new())],
        ],
    };
    let reports = fnv64(
        format!(
            "{}\n{}\n{}\n{}\n{}",
            sched.to_json().to_string(),
            cache.to_json().to_string(),
            metrics.to_json().to_string(),
            result.cost(bao_cloud::N1_4).to_json().to_string(),
            json_digest(&[PerfMetric::Latency, PerfMetric::CpuTime, PerfMetric::PhysicalIo]),
        )
        .as_bytes(),
    );

    // Configuration types.
    let configs = fnv64(
        format!(
            "{}\n{}\n{}\n{}",
            json_digest(&HintSet::family_49()),
            CostParams::default().to_json().to_string(),
            json_digest(&bao_cloud::ALL_VMS),
            ChargeRates::default().to_json().to_string(),
        )
        .as_bytes(),
    );

    let got = [wal, run_result, recovery_report, workloads, reports, configs];
    assert_eq!(got, GOLDEN, "codec digests moved: {got:#018x?}");
}

/// Cases per round-trip property.
const CASES: u64 = 200;

#[derive(Debug, Clone, PartialEq)]
struct Sample {
    id: u64,
    name: String,
    score: f64,
    tags: Vec<i64>,
    next: Option<u32>,
}

json_record!(Sample { id, name, score, tags, next });

#[derive(Debug, Clone, Copy, PartialEq)]
enum Color {
    Red,
    Green,
    Blue,
}

json_enum!(Color { Red, Green, Blue });

#[derive(Debug, Clone, PartialEq)]
enum Shape {
    Empty,
    Circle(f64),
    Label(String),
    Rect { w: u32, h: u32 },
    Tinted { color: Color, inner: Vec<Shape> },
}

json_enum!(Shape { Empty, Circle(f64), Label(String), Rect { w, h }, Tinted { color, inner } });

fn round_trip<T: ToJson + FromJson>(x: &T) -> T {
    let text = x.to_json().to_string();
    T::from_json(&json::parse(&text).unwrap()).unwrap()
}

fn random_name(rng: &mut impl Rng) -> String {
    let alphabet = ['a', 'z', '"', '\\', '\n', ' ', '\u{1F980}', '{'];
    (0..rng.gen_range(0..8usize)).map(|_| alphabet[rng.gen_index(alphabet.len())]).collect()
}

fn random_color(rng: &mut impl Rng) -> Color {
    [Color::Red, Color::Green, Color::Blue][rng.gen_index(3)]
}

fn random_shape(rng: &mut impl Rng, depth: u32) -> Shape {
    match rng.gen_index(if depth == 0 { 4 } else { 5 }) {
        0 => Shape::Empty,
        1 => Shape::Circle(rng.gen_normal() * 1e3),
        2 => Shape::Label(random_name(rng)),
        3 => Shape::Rect { w: rng.next_u32(), h: rng.gen_range(0..10u32) },
        _ => Shape::Tinted {
            color: random_color(rng),
            inner: (0..rng.gen_range(0..3usize)).map(|_| random_shape(rng, depth - 1)).collect(),
        },
    }
}

#[test]
fn record_shape_round_trips() {
    for case in 0..CASES {
        let mut rng = rng_from_seed(split_seed(0x5EC0_4D, case));
        let x = Sample {
            id: rng.next_u64(),
            name: random_name(&mut rng),
            score: rng.gen_normal() * 10f64.powi(rng.gen_range(-200..200i32)),
            tags: (0..rng.gen_range(0..5usize)).map(|_| rng.next_u64() as i64).collect(),
            next: rng.gen_bool(0.5).then(|| rng.next_u32()),
        };
        assert_eq!(round_trip(&x), x, "case seed {case}");
        let keys: Vec<String> = match x.to_json() {
            Json::Obj(fields) => fields.into_iter().map(|(k, _)| k).collect(),
            other => panic!("record encoded as {other:?}"),
        };
        assert_eq!(keys, ["id", "name", "score", "tags", "next"], "fields in listed order");
    }
}

#[test]
fn unit_enum_shape_round_trips() {
    for case in 0..CASES {
        let mut rng = rng_from_seed(split_seed(0xC0_102, case));
        let c = random_color(&mut rng);
        assert_eq!(round_trip(&c), c, "case seed {case}");
        assert_eq!(c.to_json(), Json::Str(format!("{c:?}")));
    }
    for bad in [r#""Purple""#, r#""red""#, r#"{"Red":null}"#, "0", "null"] {
        let err = Color::from_json(&json::parse(bad).unwrap());
        assert!(matches!(err, Err(BaoError::Parse(_))), "{bad} decoded as {err:?}");
    }
}

#[test]
fn mixed_enum_shape_round_trips() {
    for case in 0..CASES {
        let mut rng = rng_from_seed(split_seed(0x5_4A9E, case));
        let s = random_shape(&mut rng, 2);
        assert_eq!(round_trip(&s), s, "case seed {case}");
    }
    assert_eq!(Shape::Empty.to_json().to_string(), r#""Empty""#);
    assert_eq!(Shape::Circle(0.5).to_json().to_string(), r#"{"Circle":0.5}"#);
    assert_eq!(Shape::Rect { w: 2, h: 3 }.to_json().to_string(), r#"{"Rect":{"w":2,"h":3}}"#);
    for bad in [
        r#""Circle""#,
        r#"{"Empty":null}"#,
        r#"{"Square":1.0}"#,
        r#"{"Circle":1.0,"Label":"x"}"#,
        r#"{"Rect":{"w":2}}"#,
        "[]",
    ] {
        let err = Shape::from_json(&json::parse(bad).unwrap());
        assert!(matches!(err, Err(BaoError::Parse(_))), "{bad} decoded as {err:?}");
    }
}

#[test]
fn missing_key_error_names_the_key() {
    let j = json::parse(r#"{"id":1,"name":"x","tags":[],"next":null}"#).unwrap();
    match Sample::from_json(&j) {
        Err(BaoError::Parse(msg)) => assert!(msg.contains("`score`"), "{msg}"),
        other => panic!("expected a parse error, got {other:?}"),
    }
    let j = json::parse(r#"{"Rect":{"h":3}}"#).unwrap();
    match Shape::from_json(&j) {
        Err(BaoError::Parse(msg)) => assert!(msg.contains("`w`"), "{msg}"),
        other => panic!("expected a parse error, got {other:?}"),
    }
}
