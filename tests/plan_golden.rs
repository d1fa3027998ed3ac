//! Golden pin of the optimizer's output. Every `family_49` arm of every
//! query is planned, and the plan (root JSON, including penalty-carrying
//! `est_cost`) plus its `work` count is folded into an FNV-1a digest per
//! workload: fixed-seed IMDb (dynamic templates), Stack (with month
//! loads) and Corp (across its schema change), plus an 11-relation chain
//! wide enough to take the greedy join path. Any change to plan shape,
//! estimates, costs or planning-effort accounting moves a digest; a pure
//! speed-up of the planner must leave all of them alone.

use bao_common::json::ToJson;
use bao_opt::{HintSet, Optimizer};
use bao_stats::StatsCatalog;
use bao_storage::Database;
use bao_wal::fnv64;
use bao_workloads::{
    apply_event, build_corp, build_imdb, build_stack, CorpConfig, ImdbConfig, StackConfig, Workload,
};

/// Digests recorded before the planner was split into prepare/plan:
/// `[imdb, stack, corp, chain]`.
const GOLDEN: [u64; 4] =
    [0x7b20_8893_62df_0264, 0x6c16_80d7_857e_3686, 0x8a49_ce4a_7fd8_0b7c, 0x1607_2e6e_ddec_841c];

/// Append every arm's plan JSON and work count, under both optimizer
/// profiles, to `bytes`.
fn fold(bytes: &mut Vec<u8>, q: &bao_plan::Query, db: &Database, cat: &StatsCatalog) {
    for opt in [Optimizer::postgres(), Optimizer::comsys()] {
        for hints in HintSet::family_49() {
            let out = opt.plan(q, db, cat, hints).unwrap();
            bytes.extend_from_slice(out.root.to_json().to_string().as_bytes());
            bytes.extend_from_slice(&out.work.to_le_bytes());
        }
    }
}

/// Plan every step of `wl`, applying its events (and re-analyzing) first.
fn workload_digest(mut db: Database, wl: &Workload, seed: u64) -> u64 {
    let mut cat = StatsCatalog::analyze(&db, 500, seed);
    let mut bytes = Vec::new();
    for (i, step) in wl.steps.iter().enumerate() {
        if let Some(ev) = &step.event {
            apply_event(&mut db, ev, seed).unwrap();
            cat = StatsCatalog::analyze(&db, 500, seed + i as u64);
        }
        fold(&mut bytes, &step.query, &db, &cat);
    }
    fnv64(&bytes)
}

#[test]
fn every_arm_plan_matches_the_golden_digest() {
    let (db, wl) =
        build_imdb(&ImdbConfig { scale: 0.05, n_queries: 60, dynamic: true, seed: 5 }).unwrap();
    let imdb = workload_digest(db, &wl, 5);

    let (db, wl) = build_stack(&StackConfig {
        scale: 0.05,
        n_queries: 40,
        initial_months: 2,
        total_months: 4,
        seed: 6,
    })
    .unwrap();
    assert!(wl.n_events() > 0);
    let stack = workload_digest(db, &wl, 6);

    let (db, wl) = build_corp(&CorpConfig { scale: 0.1, n_queries: 40, seed: 7 }).unwrap();
    assert!(wl.n_events() > 0);
    let corp = workload_digest(db, &wl, 7);

    let (db, _) =
        build_imdb(&ImdbConfig { scale: 0.05, n_queries: 1, dynamic: false, seed: 8 }).unwrap();
    let cat = StatsCatalog::analyze(&db, 500, 8);
    let chain = bao_sql::parse_query(
        "SELECT COUNT(*) FROM title t1, movie_keyword mk, title t2, movie_info mi, \
         title t3, movie_companies mc, title t4, cast_info ci, person p, \
         cast_info ci2, title t5 \
         WHERE mk.movie_id = t1.id AND t1.id = t2.id AND t2.id = mi.movie_id \
         AND mi.movie_id = t3.id AND t3.id = mc.movie_id AND mc.movie_id = t4.id \
         AND t4.id = ci.movie_id AND ci.person_id = p.id AND p.id = ci2.person_id \
         AND ci2.movie_id = t5.id AND t1.production_year > 2000 \
         AND mk.keyword_id < 50 AND p.gender = 1",
    )
    .unwrap();
    assert!(chain.tables.len() > bao_opt::join::DP_THRESHOLD);
    let mut bytes = Vec::new();
    fold(&mut bytes, &chain, &db, &cat);
    let chain = fnv64(&bytes);

    let got = [imdb, stack, corp, chain];
    assert_eq!(got, GOLDEN, "plan digests moved: {got:#018x?}");
}
