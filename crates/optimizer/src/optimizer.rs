//! The top-level optimizer: profiles, the per-query prepare step and
//! per-arm plan assembly, planning-effort accounting.

use crate::access::{base_relations, PlannerCtx};
use crate::cost::CostParams;
use crate::hints::HintSet;
use crate::join::JoinSpace;
use bao_common::Result;
use bao_plan::{Operator, PlanNode, Query, SelectItem};
use bao_stats::{Estimator, PostgresEstimator, SampleEstimator, StatsCatalog};
use bao_storage::Database;

/// Which traditional optimizer this instance emulates (paper §6.1's two
/// baselines).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OptimizerProfile {
    /// Histogram + attribute-independence estimation: PostgreSQL-grade.
    PostgresLike,
    /// Sample/frequency-based estimation: commercial-system-grade.
    ComSysLike,
}

/// A planned query: the physical plan plus the abstract planning effort
/// spent producing it (converted to simulated optimization time by
/// `bao-cloud`).
#[derive(Debug, Clone)]
pub struct PlanOutput {
    pub root: PlanNode,
    pub work: u64,
}

/// A cost-based optimizer instance.
pub struct Optimizer {
    pub profile: OptimizerProfile,
    pub params: CostParams,
    estimator: Box<dyn Estimator>,
}

impl std::fmt::Debug for Optimizer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Optimizer").field("profile", &self.profile).finish()
    }
}

impl Optimizer {
    /// PostgreSQL-like: independence-assumption estimation, stock costs.
    pub fn postgres() -> Optimizer {
        Optimizer {
            profile: OptimizerProfile::PostgresLike,
            params: CostParams::default(),
            estimator: Box::new(PostgresEstimator),
        }
    }

    /// Commercial-system-like: sample-based estimation with much lower
    /// q-error, and a cost model tuned for modern storage (lower random
    /// I/O penalty).
    pub fn comsys() -> Optimizer {
        Optimizer {
            profile: OptimizerProfile::ComSysLike,
            params: CostParams { random_page_cost: 2.0, ..CostParams::default() },
            estimator: Box::new(SampleEstimator),
        }
    }

    pub fn estimator(&self) -> &dyn Estimator {
        self.estimator.as_ref()
    }

    /// Plan `query` under `hints`. The returned plan is always executable:
    /// hints discourage operators (via `disable_cost`) rather than
    /// removing them.
    pub fn plan(
        &self,
        query: &Query,
        db: &Database,
        cat: &StatsCatalog,
        hints: HintSet,
    ) -> Result<PlanOutput> {
        self.prepare(query, db, cat)?.plan(hints)
    }

    /// Do every part of planning `query` that does not depend on the hint
    /// set, once; [`PlanFamily::plan`] then plans each arm. A query that
    /// cannot be planned under any hint set fails here.
    pub fn prepare<'a>(
        &self,
        query: &'a Query,
        db: &'a Database,
        cat: &StatsCatalog,
    ) -> Result<PlanFamily<'a>> {
        let ctx = PlannerCtx {
            query,
            db,
            cat,
            est: self.estimator.as_ref(),
            params: &self.params,
        };
        let rels = base_relations(&ctx)?;
        let joins = JoinSpace::prepare(&ctx, &rels)?;
        let mut rows = joins.rows();
        let mut top = Vec::new();

        // Aggregation above the join tree.
        let aggs: Vec<bao_plan::AggFunc> = query
            .select
            .iter()
            .filter_map(|s| match s {
                SelectItem::Agg(a) => Some(a.clone()),
                SelectItem::Column(_) => None,
            })
            .collect();
        if !aggs.is_empty() || !query.group_by.is_empty() {
            let groups = if query.group_by.is_empty() {
                1.0
            } else {
                let nd: f64 = query
                    .group_by
                    .iter()
                    .map(|c| {
                        cat.stats(&query.tables[c.table].table)
                            .map(|s| s.n_distinct(&c.column))
                            .unwrap_or(1.0)
                    })
                    .product();
                nd.min(rows).max(1.0)
            };
            top.push((
                Operator::Aggregate { group_by: query.group_by.clone(), aggs },
                groups,
                self.params.aggregate(rows, groups),
            ));
            rows = groups;
        }

        // Final ordering.
        if !query.order_by.is_empty() {
            let sort = Operator::Sort { keys: query.order_by.clone() };
            top.push((sort, rows, self.params.sort(rows)));
        }
        Ok(PlanFamily { query, db, joins, top })
    }
}

/// One query's hint-independent planning state, from
/// [`Optimizer::prepare`]. It is read-only, so the arms of one query can
/// be planned concurrently from a shared reference.
#[derive(Debug)]
pub struct PlanFamily<'a> {
    query: &'a Query,
    /// Read by the debug-build plan verifier only.
    #[cfg_attr(not(debug_assertions), allow(dead_code))]
    db: &'a Database,
    joins: JoinSpace,
    /// Operators above the join tree, bottom up, each with its estimated
    /// rows and the cost it adds.
    top: Vec<(Operator, f64, f64)>,
}

// `Bao::plan_jobs` shares one family across its planner workers.
const _: () = {
    const fn assert_sync<T: Sync>() {}
    assert_sync::<PlanFamily<'static>>()
};

impl PlanFamily<'_> {
    /// Plan the query under `hints`; the result is identical to
    /// [`Optimizer::plan`] with the same hints.
    pub fn plan(&self, hints: HintSet) -> Result<PlanOutput> {
        let (mut root, mut cost) = self.joins.plan(self.query, hints)?;
        for (op, rows, added) in &self.top {
            cost += added;
            root = PlanNode::new(op.clone(), vec![root]).with_estimates(*rows, cost);
        }

        // Debug builds (and therefore every test run) verify each arm's
        // raw plan, including hint consistency: the raw cost still carries
        // any disable_cost penalty, which is what lets the verifier tell
        // penalty-free plans from penalized ones.
        #[cfg(debug_assertions)]
        bao_plan::verify::verify_with_hints(
            &root,
            self.query,
            self.db,
            &hints.check(self.joins.params.disable_cost),
        )?;

        Ok(PlanOutput { root, work: self.joins.work() })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bao_common::rng_from_seed;
    use bao_plan::{JoinAlgo, OpKind};
    use bao_sql::parse_query;
    use bao_common::Rng;
    use bao_storage::{ColumnDef, DataType, Schema, Table, Value};

    /// A small star schema with a skewed fact table and correlated
    /// dimension attributes — enough to make the independence assumption
    /// misestimate.
    fn setup() -> (Database, StatsCatalog) {
        let mut rng = rng_from_seed(99);
        let mut title = Table::new(
            "title",
            Schema::new(vec![
                ColumnDef::new("id", DataType::Int),
                ColumnDef::new("kind", DataType::Int),
                ColumnDef::new("year", DataType::Int),
            ]),
        );
        for i in 0..20_000i64 {
            let kind = if i % 100 < 95 { 1 } else { 2 };
            let year = if kind == 2 { 2010 } else { 1950 + (i % 60) };
            title.insert(vec![Value::Int(i), Value::Int(kind), Value::Int(year)]).unwrap();
        }
        let mut ci = Table::new(
            "cast_info",
            Schema::new(vec![
                ColumnDef::new("id", DataType::Int),
                ColumnDef::new("movie_id", DataType::Int),
                ColumnDef::new("role", DataType::Int),
            ]),
        );
        for i in 0..100_000i64 {
            // Zipf-ish: popular titles get most cast entries.
            let m = (rng.gen_f64().powi(3) * 20_000.0) as i64;
            ci.insert(vec![Value::Int(i), Value::Int(m.min(19_999)), Value::Int(i % 10)])
                .unwrap();
        }
        let mut db = Database::new();
        db.create_table(title).unwrap();
        db.create_table(ci).unwrap();
        db.create_index("title", "id").unwrap();
        db.create_index("title", "year").unwrap();
        db.create_index("cast_info", "movie_id").unwrap();
        let cat = StatsCatalog::analyze(&db, 1_000, 5);
        (db, cat)
    }

    #[test]
    fn plans_single_table_query() {
        let (db, cat) = setup();
        let q = parse_query("SELECT COUNT(*) FROM title WHERE year > 2000").unwrap();
        let opt = Optimizer::postgres();
        let out = opt.plan(&q, &db, &cat, HintSet::all_enabled()).unwrap();
        assert_eq!(out.root.op.kind(), OpKind::Aggregate);
        assert!(out.work > 0);
        assert!(out.root.est_cost > 0.0);
    }

    #[test]
    fn plans_join_query() {
        let (db, cat) = setup();
        let q = parse_query(
            "SELECT COUNT(*) FROM title t, cast_info ci \
             WHERE t.id = ci.movie_id AND t.year > 2005",
        )
        .unwrap();
        let opt = Optimizer::postgres();
        let out = opt.plan(&q, &db, &cat, HintSet::all_enabled()).unwrap();
        assert_eq!(out.root.tables_covered(), vec![0, 1]);
        assert_eq!(out.root.join_algos().len(), 1);
    }

    #[test]
    fn hints_exclude_operators_when_alternatives_exist() {
        let (db, cat) = setup();
        let q = parse_query(
            "SELECT COUNT(*) FROM title t, cast_info ci WHERE t.id = ci.movie_id",
        )
        .unwrap();
        let opt = Optimizer::postgres();
        for hints in HintSet::family_49() {
            let out = opt.plan(&q, &db, &cat, hints).unwrap();
            // Whatever the hint set, a plan exists and covers both tables.
            assert_eq!(out.root.tables_covered(), vec![0, 1]);
            // If the chosen plan has finite cost (< disable_cost), it obeys
            // the hint set.
            if out.root.est_cost < opt.params.disable_cost {
                for algo in out.root.join_algos() {
                    assert!(hints.join_enabled(algo), "{hints} produced {algo:?}");
                }
                for (_, kind) in out.root.access_paths() {
                    assert!(hints.scan_enabled(kind), "{hints} produced {kind:?}");
                }
            }
        }
    }

    #[test]
    fn disabling_loop_join_changes_plan() {
        let (db, cat) = setup();
        // Single-row outer: a parameterized nested loop is clearly best.
        let q = parse_query(
            "SELECT COUNT(*) FROM title t, cast_info ci \
             WHERE t.id = ci.movie_id AND t.id = 500",
        )
        .unwrap();
        let opt = Optimizer::postgres();
        let default = opt.plan(&q, &db, &cat, HintSet::all_enabled()).unwrap();
        let no_loop = opt
            .plan(&q, &db, &cat, HintSet::from_masks(0b011, 0b111))
            .unwrap();
        assert!(
            default.root.join_algos().contains(&JoinAlgo::NestedLoop),
            "{}",
            default.root
        );
        assert!(!no_loop.root.join_algos().contains(&JoinAlgo::NestedLoop), "{}", no_loop.root);
    }

    #[test]
    fn comsys_estimates_differ_from_postgres() {
        let (db, cat) = setup();
        // kind = 2 implies year = 2010 in the data: the independence
        // assumption underestimates the conjunction; the sample-based
        // estimator does not.
        let q = parse_query(
            "SELECT COUNT(*) FROM title t WHERE t.kind = 2 AND t.year = 2010",
        )
        .unwrap();
        let scan_rows = |opt: &Optimizer| {
            let out = opt.plan(&q, &db, &cat, HintSet::all_enabled()).unwrap();
            out.root
                .iter()
                .find(|n| n.op.scan_kind().is_some())
                .unwrap()
                .est_rows
        };
        let pg = scan_rows(&Optimizer::postgres());
        let cs = scan_rows(&Optimizer::comsys());
        let truth = 1_000.0; // 5% of 20k titles have kind 2 (and all have year 2010)
        assert!(pg < truth * 0.5, "independence should underestimate: pg={pg}");
        assert!(
            (cs - truth).abs() / truth < 0.3,
            "sample estimate should be near truth: cs={cs}"
        );
    }

    #[test]
    fn order_by_adds_sort() {
        let (db, cat) = setup();
        let q = parse_query("SELECT t.id FROM title t WHERE t.year = 2010 ORDER BY t.id").unwrap();
        let out = Optimizer::postgres().plan(&q, &db, &cat, HintSet::all_enabled()).unwrap();
        assert_eq!(out.root.op.kind(), OpKind::Sort);
    }

    #[test]
    fn group_by_estimates_groups() {
        let (db, cat) = setup();
        let q = parse_query(
            "SELECT t.kind, COUNT(*) FROM title t GROUP BY t.kind",
        )
        .unwrap();
        let out = Optimizer::postgres().plan(&q, &db, &cat, HintSet::all_enabled()).unwrap();
        assert_eq!(out.root.op.kind(), OpKind::Aggregate);
        assert!(out.root.est_rows <= 3.0, "kind has 2 distinct values");
    }

    #[test]
    fn cyclic_join_graph_planned_with_filter() {
        let (db, cat) = setup();
        let mut q = parse_query(
            "SELECT COUNT(*) FROM title a, title b, title c \
             WHERE a.id = b.id AND b.id = c.id",
        )
        .unwrap();
        // Close the triangle: a-b, b-c, a-c.
        q.joins.push(bao_plan::JoinPred::new(
            bao_plan::ColRef::new(0, "id"),
            bao_plan::ColRef::new(2, "id"),
        ));
        let out = Optimizer::postgres().plan(&q, &db, &cat, HintSet::all_enabled()).unwrap();
        assert_eq!(out.root.tables_covered(), vec![0, 1, 2]);
        // Some split must carry the extra edge as a Filter.
        assert!(
            out.root.iter().any(|n| n.op.kind() == OpKind::Filter),
            "{}",
            out.root
        );
    }

    #[test]
    fn disconnected_query_rejected() {
        let (db, cat) = setup();
        let q = parse_query("SELECT COUNT(*) FROM title a, cast_info b").unwrap();
        assert!(Optimizer::postgres().plan(&q, &db, &cat, HintSet::all_enabled()).is_err());
    }

    #[test]
    fn wide_query_uses_greedy_and_succeeds() {
        let (db, cat) = setup();
        // 10-way self-join chain on title.id exceeds the DP threshold.
        let aliases: Vec<String> = (0..10).map(|i| format!("t{i}")).collect();
        let from = aliases
            .iter()
            .map(|a| format!("title {a}"))
            .collect::<Vec<_>>()
            .join(", ");
        let conds = (1..10)
            .map(|i| format!("t{}.id = t{}.id", i - 1, i))
            .collect::<Vec<_>>()
            .join(" AND ");
        let q = parse_query(&format!("SELECT COUNT(*) FROM {from} WHERE {conds}")).unwrap();
        let out = Optimizer::postgres().plan(&q, &db, &cat, HintSet::all_enabled()).unwrap();
        assert_eq!(out.root.tables_covered().len(), 10);
    }

    /// Plans priced with a NaN `disable_cost` make every disabled
    /// operator's candidate NaN; under the planner's one winner rule such a
    /// candidate never wins, on the DP path or the greedy one, whatever
    /// the NaN's sign.
    #[test]
    fn nan_cost_candidate_never_wins() {
        let (db, cat) = setup();
        let chain = |n: usize| {
            let from = (0..n).map(|i| format!("title t{i}")).collect::<Vec<_>>().join(", ");
            let conds = (1..n)
                .map(|i| format!("t{}.id = t{}.id", i - 1, i))
                .collect::<Vec<_>>()
                .join(" AND ");
            parse_query(&format!("SELECT COUNT(*) FROM {from} WHERE {conds}")).unwrap()
        };
        let no_hash = HintSet::from_masks(0b110, 0b111);
        let no_seq = HintSet::from_masks(0b111, 0b110);
        for nan in [f64::NAN, -f64::NAN] {
            let mut opt = Optimizer::postgres();
            opt.params.disable_cost = nan;
            for q in [chain(3), chain(crate::join::DP_THRESHOLD + 2)] {
                let out = opt.plan(&q, &db, &cat, no_hash).unwrap();
                assert!(!out.root.join_algos().contains(&JoinAlgo::Hash), "{}", out.root);
                assert!(!out.root.est_cost.is_nan());
                let out = opt.plan(&q, &db, &cat, no_seq).unwrap();
                assert!(
                    out.root.access_paths().iter().all(|(_, k)| *k != bao_plan::ScanKind::Seq),
                    "{}",
                    out.root
                );
            }
        }
    }

    #[test]
    fn work_scales_with_query_width() {
        let (db, cat) = setup();
        let small = parse_query("SELECT COUNT(*) FROM title WHERE year = 2010").unwrap();
        let big = parse_query(
            "SELECT COUNT(*) FROM title a, title b, title c, title d \
             WHERE a.id = b.id AND b.id = c.id AND c.id = d.id",
        )
        .unwrap();
        let opt = Optimizer::postgres();
        let w_small = opt.plan(&small, &db, &cat, HintSet::all_enabled()).unwrap().work;
        let w_big = opt.plan(&big, &db, &cat, HintSet::all_enabled()).unwrap().work;
        assert!(w_big > w_small * 3, "w_small={w_small} w_big={w_big}");
    }
}
