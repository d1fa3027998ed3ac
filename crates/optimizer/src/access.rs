//! Access-path selection: scan candidates for one base relation.

use crate::cost::CostParams;
use crate::hints::HintSet;
use bao_common::Result;
use bao_plan::{CmpOp, Operator, Query, ScanKind};
use bao_stats::{resolve_predicate, Estimator, ResolvedPred, StatsCatalog};
use bao_storage::Database;

/// Read-only inputs of one query's hint-independent planning pass.
pub struct PlannerCtx<'a> {
    pub query: &'a Query,
    pub db: &'a Database,
    pub cat: &'a StatsCatalog,
    pub est: &'a dyn Estimator,
    pub params: &'a CostParams,
}

/// Pre-resolved information about one FROM-list entry.
#[derive(Debug, Clone)]
pub struct BaseRel {
    /// FROM-list position.
    pub idx: usize,
    /// Underlying table name.
    pub name: String,
    /// Unfiltered row count (per statistics).
    pub rows: f64,
    /// Estimated conjunctive selectivity of this relation's predicates.
    pub sel: f64,
    /// `rows * sel`, clamped to at least one row.
    pub out_rows: f64,
    pub resolved: Vec<ResolvedPred>,
}

/// Resolve every FROM-list entry of the query.
pub fn base_relations(ctx: &PlannerCtx<'_>) -> Result<Vec<BaseRel>> {
    let mut rels = Vec::with_capacity(ctx.query.tables.len());
    for (idx, tref) in ctx.query.tables.iter().enumerate() {
        let stored = ctx.db.by_name(&tref.table)?;
        let preds = ctx.query.predicates_on(idx);
        let resolved: Vec<ResolvedPred> =
            preds.iter().map(|p| resolve_predicate(&stored.table, p)).collect();
        let rows = ctx.cat.row_count(&tref.table);
        let sel = ctx.est.scan_selectivity(ctx.cat, &tref.table, &resolved);
        rels.push(BaseRel {
            idx,
            name: tref.table.clone(),
            rows,
            sel,
            out_rows: (rows * sel).max(1.0),
            resolved,
        });
    }
    Ok(rels)
}

/// One access path of a base relation, priced without hint penalties.
#[derive(Debug, Clone)]
pub struct ScanOption {
    pub op: Operator,
    pub kind: ScanKind,
    /// Cost before any `disable_cost` penalty.
    pub cost: f64,
    /// Cost of producing the rows again on a nested-loop rescan (pages
    /// assumed warm, CPU re-paid).
    pub rescan_cost: f64,
}

impl ScanOption {
    /// This path's cost under `hints`: PostgreSQL's `disable_cost` is
    /// added when the hint set disables its scan kind.
    pub fn cost_under(&self, hints: HintSet, params: &CostParams) -> f64 {
        self.cost + params.penalty(hints.scan_enabled(self.kind))
    }
}

/// Derive the index key range `[lo, hi]` implied by the predicates on one
/// column. Returns `None` when a predicate on the column cannot be used as
/// an index condition (`<>`), in which case it stays residual.
fn key_range(preds: &[&ResolvedPred]) -> (Option<i64>, Option<i64>, bool) {
    let mut lo: Option<i64> = None;
    let mut hi: Option<i64> = None;
    let mut usable = false;
    for p in preds {
        let x = p.x;
        match p.op {
            CmpOp::Eq => {
                let v = x.round() as i64;
                lo = Some(lo.map_or(v, |l| l.max(v)));
                hi = Some(hi.map_or(v, |h| h.min(v)));
                usable = true;
            }
            CmpOp::Gt => {
                let v = x.floor() as i64 + 1;
                lo = Some(lo.map_or(v, |l| l.max(v)));
                usable = true;
            }
            CmpOp::Ge => {
                let v = x.ceil() as i64;
                lo = Some(lo.map_or(v, |l| l.max(v)));
                usable = true;
            }
            CmpOp::Lt => {
                let v = x.ceil() as i64 - 1;
                hi = Some(hi.map_or(v, |h| h.min(v)));
                usable = true;
            }
            CmpOp::Le => {
                let v = x.floor() as i64;
                hi = Some(hi.map_or(v, |h| h.min(v)));
                usable = true;
            }
            CmpOp::Ne => {}
        }
    }
    (lo, hi, usable)
}

/// Enumerate the access paths of one base relation: a sequential scan
/// (always), an index (or index-only) scan per usable index, and a full
/// index scan per index (relevant when sequential scans are hinted off).
pub fn scan_options(ctx: &PlannerCtx<'_>, rel: &BaseRel) -> Result<Vec<ScanOption>> {
    let stored = ctx.db.by_name(&rel.name)?;
    let table = &stored.table;
    let preds_logical = ctx.query.predicates_on(rel.idx);
    let mut out = Vec::new();

    // --- Sequential scan: always available.
    let pages = table.n_pages() as f64;
    let seq_rescan = rel.rows
        * (ctx.params.cpu_tuple_cost
            + rel.resolved.len() as f64 * ctx.params.cpu_operator_cost);
    out.push(ScanOption {
        op: Operator::SeqScan {
            table: rel.idx,
            preds: preds_logical.iter().map(|p| (*p).clone()).collect(),
        },
        kind: ScanKind::Seq,
        cost: ctx.params.seq_scan(pages, rel.rows, rel.resolved.len()),
        rescan_cost: seq_rescan,
    });

    // --- Index scans.
    let needed = ctx.query.columns_needed(rel.idx);
    for stored_idx in &stored.indexes {
        let col = &stored_idx.index.column;
        let on_col: Vec<&ResolvedPred> =
            rel.resolved.iter().filter(|p| &p.column == col).collect();
        let (lo, hi, usable) = key_range(&on_col);
        let residual_logical: Vec<bao_plan::Predicate> = preds_logical
            .iter()
            .filter(|p| !usable || &p.col.column != col || p.op == CmpOp::Ne)
            .map(|p| (*p).clone())
            .collect();
        let residual_resolved: Vec<ResolvedPred> = rel
            .resolved
            .iter()
            .filter(|p| !usable || &p.column != col || p.op == CmpOp::Ne)
            .cloned()
            .collect();

        // Selectivity of the index condition alone.
        let idx_sel = if usable {
            let idx_preds: Vec<ResolvedPred> = on_col
                .iter()
                .filter(|p| p.op != CmpOp::Ne)
                .map(|p| (*p).clone())
                .collect();
            ctx.est.scan_selectivity(ctx.cat, &rel.name, &idx_preds)
        } else {
            1.0
        };
        let matching = (rel.rows * idx_sel).max(1.0);
        let height = stored_idx.index.height() as f64;
        let leaf_pages = stored_idx.index.n_pages() as f64;
        let entries = stored_idx.index.len() as f64;

        // Plain index scan (heap fetches + residual filter). Rescans of a
        // range index scan mostly hit cache.
        let rescan = matching
            * (ctx.params.cpu_index_tuple_cost
                + ctx.params.cpu_tuple_cost
                + residual_resolved.len() as f64 * ctx.params.cpu_operator_cost);
        out.push(ScanOption {
            op: Operator::IndexScan {
                table: rel.idx,
                column: col.clone(),
                lo,
                hi,
                residual: residual_logical,
                param: None,
            },
            kind: ScanKind::Index,
            cost: ctx.params.index_scan(
                height,
                leaf_pages,
                entries,
                idx_sel,
                matching,
                residual_resolved.len(),
            ),
            rescan_cost: rescan,
        });

        // Index-only scan: legal when the query touches nothing but the
        // indexed column on this relation and no residual predicate
        // remains.
        let covering = needed.iter().all(|c| c == col);
        if covering && residual_resolved.is_empty() {
            out.push(ScanOption {
                op: Operator::IndexOnlyScan {
                    table: rel.idx,
                    column: col.clone(),
                    lo,
                    hi,
                    param: None,
                },
                kind: ScanKind::IndexOnly,
                cost: ctx.params.index_only_scan(height, leaf_pages, entries, idx_sel),
                rescan_cost: (entries * idx_sel).max(1.0) * ctx.params.cpu_index_tuple_cost,
            });
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bao_stats::PostgresEstimator;
    use bao_storage::{ColumnDef, DataType, Schema, Table, Value};

    fn setup(rows: i64, with_index: bool) -> (Database, StatsCatalog) {
        let mut t = Table::new(
            "t",
            Schema::new(vec![
                ColumnDef::new("id", DataType::Int),
                ColumnDef::new("v", DataType::Int),
            ]),
        );
        for i in 0..rows {
            t.insert(vec![Value::Int(i), Value::Int(i % 100)]).unwrap();
        }
        let mut db = Database::new();
        db.create_table(t).unwrap();
        if with_index {
            db.create_index("t", "id").unwrap();
        }
        let cat = StatsCatalog::analyze(&db, 500, 7);
        (db, cat)
    }

    fn query(sql: &str) -> Query {
        bao_sql::parse_query(sql).unwrap()
    }

    fn ctx<'a>(
        q: &'a Query,
        db: &'a Database,
        cat: &'a StatsCatalog,
        est: &'a dyn Estimator,
        params: &'a CostParams,
    ) -> PlannerCtx<'a> {
        PlannerCtx { query: q, db, cat, est, params }
    }

    /// The access path the planner picks for relation 0 under `hints`.
    fn best(c: &PlannerCtx<'_>, hints: HintSet) -> ScanOption {
        let rels = base_relations(c).unwrap();
        let opts = scan_options(c, &rels[0]).unwrap();
        let k = crate::join::cheapest_scan(&opts, hints, c.params);
        opts[k].clone()
    }

    #[test]
    fn selective_point_query_prefers_index() {
        let (db, cat) = setup(100_000, true);
        let q = query("SELECT v FROM t WHERE id = 5");
        let params = CostParams::default();
        let est = PostgresEstimator;
        let c = ctx(&q, &db, &cat, &est, &params);
        let best = best(&c, HintSet::all_enabled());
        assert!(matches!(best.op, Operator::IndexScan { .. }), "{:?}", best.op);
    }

    #[test]
    fn unselective_query_prefers_seq() {
        let (db, cat) = setup(100_000, true);
        let q = query("SELECT v FROM t WHERE id >= 0");
        let params = CostParams::default();
        let est = PostgresEstimator;
        let c = ctx(&q, &db, &cat, &est, &params);
        assert!(matches!(best(&c, HintSet::all_enabled()).op, Operator::SeqScan { .. }));
    }

    #[test]
    fn hint_flips_choice() {
        let (db, cat) = setup(100_000, true);
        let q = query("SELECT v FROM t WHERE id = 5");
        let params = CostParams::default();
        let est = PostgresEstimator;
        // disable index & index-only scans: seq must win despite selectivity
        let hints = HintSet::from_masks(0b111, 0b001);
        let c = ctx(&q, &db, &cat, &est, &params);
        assert!(matches!(best(&c, hints).op, Operator::SeqScan { .. }));
    }

    #[test]
    fn index_only_when_covering() {
        let (db, cat) = setup(50_000, true);
        let q = query("SELECT COUNT(id) FROM t WHERE id < 100");
        let params = CostParams::default();
        let est = PostgresEstimator;
        let c = ctx(&q, &db, &cat, &est, &params);
        let rels = base_relations(&c).unwrap();
        let opts = scan_options(&c, &rels[0]).unwrap();
        assert!(opts.iter().any(|x| matches!(x.op, Operator::IndexOnlyScan { .. })));
        assert!(matches!(best(&c, HintSet::all_enabled()).op, Operator::IndexOnlyScan { .. }));
    }

    #[test]
    fn no_index_only_when_other_columns_needed() {
        let (db, cat) = setup(10_000, true);
        let q = query("SELECT v FROM t WHERE id < 100");
        let params = CostParams::default();
        let est = PostgresEstimator;
        let c = ctx(&q, &db, &cat, &est, &params);
        let rels = base_relations(&c).unwrap();
        let opts = scan_options(&c, &rels[0]).unwrap();
        assert!(!opts.iter().any(|x| matches!(x.op, Operator::IndexOnlyScan { .. })));
    }

    #[test]
    fn residual_predicates_kept() {
        let (db, cat) = setup(10_000, true);
        let q = query("SELECT v FROM t WHERE id < 100 AND v = 3");
        let params = CostParams::default();
        let est = PostgresEstimator;
        let c = ctx(&q, &db, &cat, &est, &params);
        let rels = base_relations(&c).unwrap();
        let opts = scan_options(&c, &rels[0]).unwrap();
        let idx = opts.iter().find(|x| matches!(x.op, Operator::IndexScan { .. })).unwrap();
        if let Operator::IndexScan { residual, lo, hi, .. } = &idx.op {
            assert_eq!(residual.len(), 1);
            assert_eq!(residual[0].col.column, "v");
            assert_eq!(*lo, None);
            assert_eq!(*hi, Some(99));
        } else {
            unreachable!()
        }
    }

    #[test]
    fn key_range_combinations() {
        let p = |op, x| ResolvedPred { column: "c".into(), op, x };
        let a = p(CmpOp::Ge, 10.0);
        let b = p(CmpOp::Lt, 20.0);
        let (lo, hi, usable) = key_range(&[&a, &b]);
        assert_eq!((lo, hi), (Some(10), Some(19)));
        assert!(usable);
        let e = p(CmpOp::Eq, 15.0);
        let (lo, hi, _) = key_range(&[&a, &b, &e]);
        assert_eq!((lo, hi), (Some(15), Some(15)));
        let n = p(CmpOp::Ne, 3.0);
        let (_, _, usable) = key_range(&[&n]);
        assert!(!usable);
        let g = p(CmpOp::Gt, 10.0);
        let l = p(CmpOp::Le, 20.0);
        let (lo, hi, _) = key_range(&[&g, &l]);
        assert_eq!((lo, hi), (Some(11), Some(20)));
    }

    #[test]
    fn table_without_index_still_plannable_under_no_seq_hint() {
        let (db, cat) = setup(1_000, false);
        let q = query("SELECT v FROM t WHERE id = 5");
        let params = CostParams::default();
        let est = PostgresEstimator;
        let hints = HintSet::from_masks(0b111, 0b110); // seq disabled
        let c = ctx(&q, &db, &cat, &est, &params);
        let best = best(&c, hints);
        // only seq exists; it is chosen despite the penalty
        assert!(matches!(best.op, Operator::SeqScan { .. }));
        assert!(best.cost_under(hints, &params) >= params.disable_cost);
    }
}
