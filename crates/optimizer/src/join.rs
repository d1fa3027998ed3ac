//! Join-order enumeration: dynamic programming (DPsize) for narrow
//! queries, greedy operator ordering (GOO) for wide ones.
//!
//! Enumeration runs in two phases. [`JoinSpace::prepare`] runs once per
//! query and does everything that does not depend on the hint set: access
//! paths and their prices, estimated rows per relation subset, the
//! connected splits of every subset with their join predicates, and the
//! lookup prices of parameterized nested-loop inners. The greedy join
//! order depends only on row estimates, so it is fixed there too.
//! [`JoinSpace::plan`] then runs once per hint set over plain `f64` costs
//! plus `disable_cost` penalties. It records each subset's winner as a
//! small recipe (split, algorithm, scan choice) and builds `PlanNode`s for
//! the final winner only.
//!
//! Sub-plans are addressed by *slot*: slot `i < n` is FROM-list entry `i`,
//! slot `n + k` is the output of join step `k`. Steps are stored in
//! dependency order, so a step's inputs always have lower slots.

use crate::access::{scan_options, BaseRel, PlannerCtx, ScanOption};
use crate::cost::CostParams;
use crate::hints::HintSet;
use bao_common::{BaoError, Result};
use bao_plan::{ColRef, JoinPred, Operator, PlanNode, Query, ScanKind};

/// Queries up to this many relations are planned with exact DP; wider
/// queries fall back to greedy enumeration (PostgreSQL similarly switches
/// to GEQO beyond `geqo_threshold`).
pub const DP_THRESHOLD: usize = 8;

/// The planner's one winner rule, used for every choice among priced
/// candidates: a candidate replaces the incumbent only when strictly
/// cheaper, so the first of equal-cost candidates wins, and a NaN cost
/// loses to every number.
pub(crate) fn beats(cost: f64, incumbent: f64) -> bool {
    cost < incumbent || (incumbent.is_nan() && !cost.is_nan())
}

/// Offer a candidate to a running minimum under [`beats`].
fn offer<T>(pick: &mut Option<(f64, T)>, cost: f64, item: T) {
    if pick.as_ref().is_none_or(|(c, _)| beats(cost, *c)) {
        *pick = Some((cost, item));
    }
}

/// Index of the cheapest of `options` under `hints` (0 when empty).
pub(crate) fn cheapest_scan(options: &[ScanOption], hints: HintSet, params: &CostParams) -> usize {
    let mut pick = None;
    for (k, o) in options.iter().enumerate() {
        offer(&mut pick, o.cost_under(hints, params), k);
    }
    pick.map_or(0, |(_, k)| k)
}

/// A parameterized index lookup as the inner of a nested-loop join.
#[derive(Debug)]
struct IndexInner {
    op: Operator,
    kind: ScanKind,
    /// Estimated rows per outer key (at least one).
    rows: f64,
    /// Cost of one lookup.
    lookup: f64,
    /// `outer rows × lookup`.
    probes: f64,
}

/// One way to produce a step's output, `left ⋈ right`, with the
/// hint-independent terms of every join algorithm's price.
#[derive(Debug)]
struct Split {
    left: usize,
    right: usize,
    /// Connecting predicates as (index into `query.joins`, flipped),
    /// oriented left to right. The first is the join key; the rest become
    /// a `Filter` above the join.
    preds: Vec<(usize, bool)>,
    hash: f64,
    sort_left: f64,
    sort_right: f64,
    merge: f64,
    /// `out_rows × cpu_tuple_cost`: the parameterized loop's emit cost.
    emit: f64,
    /// CPU of the `Filter` carrying the extra predicates, if there are any.
    filter: Option<f64>,
    inner: Option<IndexInner>,
}

#[derive(Debug, Clone, Copy)]
enum Algo {
    Hash,
    Merge,
    Loop,
    IndexLoop,
}

#[derive(Debug, Clone, Copy)]
enum Recipe {
    Scan(usize),
    Join { split: usize, algo: Algo },
}

/// The winning way to produce one slot under one hint set.
#[derive(Debug, Clone, Copy)]
struct Winner {
    /// Cost including any extra-predicate `Filter`.
    cost: f64,
    /// Cost of the join (or scan) node itself.
    node_cost: f64,
    rescan: f64,
    recipe: Recipe,
}

/// The hint-independent join search space of one query.
#[derive(Debug)]
pub(crate) struct JoinSpace {
    pub(crate) params: CostParams,
    /// Access paths per FROM-list entry, in candidate order.
    scans: Vec<Vec<ScanOption>>,
    /// Splits of each join step, in candidate order.
    steps: Vec<Vec<Split>>,
    /// Estimated output rows per slot.
    rows: Vec<f64>,
    /// Slot covering every relation.
    root: usize,
    /// Candidates priced per hint set; the same for every arm.
    work: u64,
}

impl JoinSpace {
    /// Enumerate the search space of the query's FROM list.
    pub(crate) fn prepare(ctx: &PlannerCtx<'_>, rels: &[BaseRel]) -> Result<JoinSpace> {
        let n = rels.len();
        if n == 0 {
            return Err(BaoError::InvalidQuery("empty FROM list".into()));
        }
        validate_join_graph(ctx, n)?;
        if n > u32::BITS as usize {
            return Err(BaoError::Planning(format!("{n} relations exceed the planner's limit")));
        }
        let mut scans = Vec::with_capacity(n);
        for rel in rels {
            scans.push(scan_options(ctx, rel)?);
        }
        let mut space = JoinSpace {
            params: *ctx.params,
            work: scans.iter().map(|s| s.len() as u64).sum(),
            scans,
            steps: Vec::new(),
            rows: rels.iter().map(|r| r.out_rows).collect(),
            root: 0,
        };
        if n > 1 {
            let sel: Vec<f64> = ctx
                .query
                .joins
                .iter()
                .map(|j| {
                    ctx.est.join_selectivity(
                        ctx.cat,
                        &ctx.query.tables[j.left.table].table,
                        &j.left.column,
                        &ctx.query.tables[j.right.table].table,
                        &j.right.column,
                    )
                })
                .collect();
            space.root = if n <= DP_THRESHOLD {
                space.enumerate_dp(ctx, rels, &sel)?
            } else {
                space.enumerate_greedy(ctx, rels, &sel)?
            };
        }
        Ok(space)
    }

    /// Candidates priced per hint set.
    pub(crate) fn work(&self) -> u64 {
        self.work
    }

    /// Estimated rows of the full join.
    pub(crate) fn rows(&self) -> f64 {
        self.rows[self.root]
    }

    /// DPsize over relation subsets: every connected subset gets a step
    /// holding its splits into two connected, joinable halves.
    fn enumerate_dp(
        &mut self,
        ctx: &PlannerCtx<'_>,
        rels: &[BaseRel],
        sel: &[f64],
    ) -> Result<usize> {
        let full: u32 = (1u32 << rels.len()) - 1;
        let mut slot_of: Vec<Option<usize>> = vec![None; full as usize + 1];
        for rel in rels {
            slot_of[1 << rel.idx] = Some(rel.idx);
        }
        for mask in 2..=full {
            if mask.count_ones() < 2 {
                continue;
            }
            let mut splits = Vec::new();
            let mut out_rows = None;
            // Enumerate proper non-empty submask splits; both orientations
            // appear naturally as (s, mask^s) and (mask^s, s).
            let mut s = (mask - 1) & mask;
            while s > 0 {
                let t = mask ^ s;
                if let (Some(l), Some(r)) = (slot_of[s as usize], slot_of[t as usize]) {
                    let preds = connecting_preds(ctx.query, s, t);
                    if !preds.is_empty() {
                        let rows = *out_rows
                            .get_or_insert_with(|| subset_rows(ctx.query, rels, sel, mask));
                        splits.push(self.split(ctx, rels, l, r, t, preds, rows));
                    }
                }
                s = (s - 1) & mask;
            }
            if let Some(rows) = out_rows {
                slot_of[mask as usize] = Some(self.push_step(rows, splits));
            }
        }
        slot_of[full as usize]
            .ok_or_else(|| BaoError::Planning("DP found no plan covering all relations".into()))
    }

    /// Greedy operator ordering: repeatedly join the connected pair whose
    /// output is smallest, trying both orientations.
    fn enumerate_greedy(
        &mut self,
        ctx: &PlannerCtx<'_>,
        rels: &[BaseRel],
        sel: &[f64],
    ) -> Result<usize> {
        let mut entries: Vec<(u32, usize)> = rels.iter().map(|r| (1 << r.idx, r.idx)).collect();
        while entries.len() > 1 {
            let mut pick: Option<(usize, usize, f64)> = None;
            for i in 0..entries.len() {
                for j in 0..entries.len() {
                    if i == j || !connected(ctx.query, entries[i].0, entries[j].0) {
                        continue;
                    }
                    let rows = subset_rows(ctx.query, rels, sel, entries[i].0 | entries[j].0);
                    if pick.is_none_or(|(_, _, r)| rows < r) {
                        pick = Some((i, j, rows));
                    }
                }
            }
            let Some((i, j, rows)) = pick else {
                return Err(BaoError::Planning("greedy: no connected pair".into()));
            };
            let ((mi, si), (mj, sj)) = (entries[i], entries[j]);
            let splits = vec![
                self.split(ctx, rels, si, sj, mj, connecting_preds(ctx.query, mi, mj), rows),
                self.split(ctx, rels, sj, si, mi, connecting_preds(ctx.query, mj, mi), rows),
            ];
            let slot = self.push_step(rows, splits);
            let (hi, lo) = if i > j { (i, j) } else { (j, i) };
            entries.remove(hi);
            entries.remove(lo);
            entries.push((mi | mj, slot));
        }
        Ok(entries[0].1)
    }

    fn push_step(&mut self, rows: f64, splits: Vec<Split>) -> usize {
        self.steps.push(splits);
        self.rows.push(rows);
        self.rows.len() - 1
    }

    /// Price the hint-independent parts of `left ⋈ right`.
    #[allow(clippy::too_many_arguments)]
    fn split(
        &mut self,
        ctx: &PlannerCtx<'_>,
        rels: &[BaseRel],
        left: usize,
        right: usize,
        right_mask: u32,
        preds: Vec<(usize, bool)>,
        out_rows: f64,
    ) -> Split {
        let p = ctx.params;
        let (l_rows, r_rows) = (self.rows[left], self.rows[right]);
        // A parameterized index lookup inner exists only when the inner
        // side is a single base relation with an index on the join key.
        let inner = (right_mask.count_ones() == 1)
            .then(|| {
                let (l_col, r_col) = oriented(ctx.query, preds[0]);
                index_inner(ctx, &rels[right_mask.trailing_zeros() as usize], l_col, r_col, l_rows)
            })
            .flatten();
        self.work += 3 + u64::from(inner.is_some());
        let extra = preds.len() - 1;
        Split {
            left,
            right,
            preds,
            hash: p.hash_join(l_rows, r_rows, out_rows),
            sort_left: p.sort(l_rows),
            sort_right: p.sort(r_rows),
            merge: p.merge_join(l_rows, r_rows, out_rows),
            emit: out_rows * p.cpu_tuple_cost,
            filter: (extra > 0).then_some(out_rows * extra as f64 * p.cpu_operator_cost),
            inner,
        }
    }

    /// Plan the join tree of `query`, the query this space was prepared
    /// for, under `hints`: the cheapest tree covering every relation,
    /// with its cost.
    pub(crate) fn plan(&self, query: &Query, hints: HintSet) -> Result<(PlanNode, f64)> {
        let p = &self.params;
        let mut best: Vec<Winner> = Vec::with_capacity(self.rows.len());
        for opts in &self.scans {
            let k = cheapest_scan(opts, hints, p);
            let cost = opts[k].cost_under(hints, p);
            best.push(Winner {
                cost,
                node_cost: cost,
                rescan: opts[k].rescan_cost,
                recipe: Recipe::Scan(k),
            });
        }
        let hash_pen = p.penalty(hints.hash_join);
        let merge_pen = p.penalty(hints.merge_join);
        let loop_pen = p.penalty(hints.nested_loop);
        for (k, splits) in self.steps.iter().enumerate() {
            let out_rows = self.rows[self.scans.len() + k];
            let mut pick: Option<(f64, Winner)> = None;
            for (split, sp) in splits.iter().enumerate() {
                let (l, r) = (best[sp.left], best[sp.right]);
                let l_rows = self.rows[sp.left];
                let mut candidate = |algo, node_cost: f64, rescan: f64| {
                    let (cost, rescan) = match sp.filter {
                        Some(f) => (node_cost + f, rescan + f),
                        None => (node_cost, rescan),
                    };
                    let recipe = Recipe::Join { split, algo };
                    offer(&mut pick, cost, Winner { cost, node_cost, rescan, recipe });
                };
                candidate(
                    Algo::Hash,
                    l.cost + r.cost + sp.hash + hash_pen,
                    l.rescan + r.rescan + sp.hash,
                );
                candidate(
                    Algo::Merge,
                    (l.cost + sp.sort_left) + (r.cost + sp.sort_right) + sp.merge + merge_pen,
                    l.rescan + r.rescan + sp.sort_left + sp.sort_right + sp.merge,
                );
                candidate(
                    Algo::Loop,
                    l.cost + p.nested_loop(l_rows, r.cost, r.rescan, out_rows) + loop_pen,
                    l.rescan + p.nested_loop(l_rows, r.rescan, r.rescan, out_rows),
                );
                if let Some(inner) = &sp.inner {
                    candidate(
                        Algo::IndexLoop,
                        l.cost
                            + inner.probes
                            + sp.emit
                            + loop_pen
                            + p.penalty(hints.scan_enabled(inner.kind)),
                        l.rescan + inner.probes + sp.emit,
                    );
                }
            }
            let (_, w) =
                pick.ok_or_else(|| BaoError::Planning("join step without a split".into()))?;
            best.push(w);
        }
        Ok((self.build(query, &best, self.root)?, best[self.root].cost))
    }

    /// Materialize the winning tree rooted at `slot`.
    fn build(&self, query: &Query, best: &[Winner], slot: usize) -> Result<PlanNode> {
        let w = &best[slot];
        let rows = self.rows[slot];
        let (split, algo) = match w.recipe {
            Recipe::Scan(k) => {
                return Ok(PlanNode::new(self.scans[slot][k].op.clone(), vec![])
                    .with_estimates(rows, w.cost))
            }
            Recipe::Join { split, algo } => (split, algo),
        };
        let sp = &self.steps[slot - self.scans.len()][split];
        let pred = join_pred(query, sp.preds[0]);
        let left = self.build(query, best, sp.left)?;
        let (op, children) = match algo {
            Algo::Hash => {
                (Operator::HashJoin { pred }, vec![left, self.build(query, best, sp.right)?])
            }
            Algo::Merge => {
                // Explicit sorts on both inputs.
                let sort = |node: PlanNode, key: &ColRef, input: usize, sort_cost: f64| {
                    PlanNode::new(Operator::Sort { keys: vec![key.clone()] }, vec![node])
                        .with_estimates(self.rows[input], best[input].cost + sort_cost)
                };
                let l = sort(left, &pred.left, sp.left, sp.sort_left);
                let r =
                    sort(self.build(query, best, sp.right)?, &pred.right, sp.right, sp.sort_right);
                (Operator::MergeJoin { pred }, vec![l, r])
            }
            Algo::Loop => {
                (Operator::NestedLoopJoin { pred }, vec![left, self.build(query, best, sp.right)?])
            }
            Algo::IndexLoop => {
                let inner = sp.inner.as_ref().ok_or_else(|| {
                    BaoError::Planning("index loop chosen without an index inner".into())
                })?;
                let inner = PlanNode::new(inner.op.clone(), vec![])
                    .with_estimates(inner.rows, inner.lookup);
                (Operator::NestedLoopJoin { pred }, vec![left, inner])
            }
        };
        let node = PlanNode::new(op, children).with_estimates(rows, w.node_cost);
        if sp.preds.len() == 1 {
            return Ok(node);
        }
        let extra = sp.preds[1..].iter().map(|&pr| join_pred(query, pr)).collect();
        Ok(PlanNode::new(Operator::Filter { preds: extra }, vec![node])
            .with_estimates(rows, w.cost))
    }
}

/// The join graph must be connected (no Cartesian products). Cycles and
/// parallel edges are allowed: when two sub-plans are connected by more
/// than one predicate, the physical join uses one and the rest become a
/// `Filter` above it, so plans stay semantically identical regardless of
/// join order.
fn validate_join_graph(ctx: &PlannerCtx<'_>, n: usize) -> Result<()> {
    for j in &ctx.query.joins {
        let (a, b) = (j.left.table, j.right.table);
        if a == b || a >= n || b >= n {
            return Err(BaoError::InvalidQuery(format!("bad join predicate {a}-{b}")));
        }
    }
    let g = bao_plan::JoinGraph::from_query(ctx.query);
    if !g.is_connected() {
        return Err(BaoError::Planning("disconnected join graph (cartesian product)".into()));
    }
    Ok(())
}

/// Estimated output rows of the join of the relation subset `mask`:
/// product of filtered base cardinalities times the selectivity `sel[j]`
/// of every join predicate internal to the subset. Order-independent, so
/// all plans for the same subset agree (as in a Selinger optimizer).
fn subset_rows(query: &Query, rels: &[BaseRel], sel: &[f64], mask: u32) -> f64 {
    let mut rows = 1.0;
    for rel in rels {
        if mask & (1 << rel.idx) != 0 {
            rows *= rel.out_rows;
        }
    }
    for (j, s) in query.joins.iter().zip(sel) {
        if mask & (1 << j.left.table) != 0 && mask & (1 << j.right.table) != 0 {
            rows *= s;
        }
    }
    rows.max(1.0)
}

/// Is some join predicate between the disjoint subsets `l` and `r`?
fn connected(query: &Query, l: u32, r: u32) -> bool {
    query.joins.iter().any(|j| {
        let (a, b) = (1 << j.left.table, 1 << j.right.table);
        (l & a != 0 && r & b != 0) || (l & b != 0 && r & a != 0)
    })
}

/// Every join predicate connecting two disjoint subsets, as (index,
/// flipped) so that its left side refers to a table in `l_mask`. Empty
/// when unconnected.
fn connecting_preds(query: &Query, l_mask: u32, r_mask: u32) -> Vec<(usize, bool)> {
    let mut out = Vec::new();
    for (i, j) in query.joins.iter().enumerate() {
        let (a, b) = (1 << j.left.table, 1 << j.right.table);
        if l_mask & a != 0 && r_mask & b != 0 {
            out.push((i, false));
        } else if l_mask & b != 0 && r_mask & a != 0 {
            out.push((i, true));
        }
    }
    out
}

/// The (left, right) columns of join predicate `i`, flipped if asked.
fn oriented(query: &Query, (i, flipped): (usize, bool)) -> (&ColRef, &ColRef) {
    let j = &query.joins[i];
    if flipped {
        (&j.right, &j.left)
    } else {
        (&j.left, &j.right)
    }
}

fn join_pred(query: &Query, pr: (usize, bool)) -> JoinPred {
    let (l, r) = oriented(query, pr);
    JoinPred::new(l.clone(), r.clone())
}

/// Price a parameterized index lookup into `rel` on `r_col`, probed once
/// per outer row with the value of `l_col`. `None` when `rel` has no index
/// on the join column.
fn index_inner(
    ctx: &PlannerCtx<'_>,
    rel: &BaseRel,
    l_col: &ColRef,
    r_col: &ColRef,
    outer_rows: f64,
) -> Option<IndexInner> {
    let p = ctx.params;
    let stored = ctx.db.by_name(&rel.name).ok()?;
    let sidx = stored.index_on(&r_col.column)?;
    let preds: Vec<bao_plan::Predicate> =
        ctx.query.predicates_on(rel.idx).into_iter().cloned().collect();
    let needed = ctx.query.columns_needed(rel.idx);
    let covering = preds.is_empty() && needed.iter().all(|c| c == &r_col.column);
    let height = sidx.index.height() as f64;
    // Expected raw index matches per outer key, before residual filtering.
    let jsel = ctx.est.join_selectivity(
        ctx.cat,
        &ctx.query.tables[l_col.table].table,
        &l_col.column,
        &rel.name,
        &r_col.column,
    );
    let per_key = (rel.rows * jsel).max(0.0);
    let (op, kind, lookup) = if covering {
        (
            Operator::IndexOnlyScan {
                table: rel.idx,
                column: r_col.column.clone(),
                lo: None,
                hi: None,
                param: Some(l_col.clone()),
            },
            ScanKind::IndexOnly,
            p.param_index_lookup(height, per_key, false),
        )
    } else {
        let residual_cpu = per_key * preds.len() as f64 * p.cpu_operator_cost;
        (
            Operator::IndexScan {
                table: rel.idx,
                column: r_col.column.clone(),
                lo: None,
                hi: None,
                residual: preds,
                param: Some(l_col.clone()),
            },
            ScanKind::Index,
            p.param_index_lookup(height, per_key, true) + residual_cpu,
        )
    };
    Some(IndexInner { op, kind, rows: per_key.max(1.0), lookup, probes: outer_rows * lookup })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn winner(costs: &[f64]) -> Option<usize> {
        let mut pick = None;
        for (k, &c) in costs.iter().enumerate() {
            offer(&mut pick, c, k);
        }
        pick.map(|(_, k)| k)
    }

    #[test]
    fn winner_rule_keeps_first_minimum_and_never_picks_nan() {
        assert_eq!(winner(&[3.0, 1.0, 1.0, 2.0]), Some(1));
        for nan in [f64::NAN, -f64::NAN] {
            assert_eq!(winner(&[nan, 5.0, 4.0]), Some(2));
            assert_eq!(winner(&[5.0, nan, 4.0, nan]), Some(2));
            assert_eq!(winner(&[nan, nan]), Some(0));
        }
        assert_eq!(winner(&[]), None);
    }
}
