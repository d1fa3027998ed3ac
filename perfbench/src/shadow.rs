//! Shadow split of plan selection. After each `Bao::evaluate_arms_multi`
//! call of the traced replay, its stages are re-run one by one on the same
//! inputs with the traced clock stopped: planning every arm, annotating
//! and featurizing each plan, and scoring the trees with a copy of the
//! model restored from `Bao::model_snapshot`. Predictions must equal the
//! ones the selection used, bit for bit.

use std::time::Instant;

use bao_core::{Bao, Selection};
use bao_harness::ModelKind;
use bao_models::ValueModel;
use bao_nn::FeatTree;
use bao_opt::Optimizer;
use bao_plan::{PlanNode, Query};
use bao_stats::StatsCatalog;
use bao_storage::{BufferPool, Database};

use crate::e2e::{check, Failure, Outcome};

pub struct Shadow {
    kind: ModelKind,
    dim: usize,
    /// Model copy and the model version it was restored at.
    model: Option<(usize, Box<dyn ValueModel>)>,
    pub queries: usize,
    /// Wall nanoseconds planning all arms, over all queries.
    pub plan_ns: u64,
    /// Planner work units, over all queries.
    pub work: u64,
    pub arms: usize,
    pub distinct_plans: usize,
    /// Wall nanoseconds annotating and featurizing, over all trees.
    pub featurize_ns: u64,
    /// Wall nanoseconds scoring, over all trees.
    pub score_ns: u64,
    pub trees: usize,
}

impl Shadow {
    pub fn new(kind: ModelKind, dim: usize) -> Shadow {
        Shadow {
            kind,
            dim,
            model: None,
            queries: 0,
            plan_ns: 0,
            work: 0,
            arms: 0,
            distinct_plans: 0,
            featurize_ns: 0,
            score_ns: 0,
            trees: 0,
        }
    }

    /// The model as of `bao`'s current version, restored from its snapshot.
    fn model(&mut self, bao: &Bao) -> Outcome<&dyn ValueModel> {
        let version = bao.model_version();
        if self.model.as_ref().map(|(v, _)| *v) != Some(version) {
            let snapshot = bao
                .model_snapshot()
                .ok_or_else(|| Failure::Error("the value model has no snapshot".into()))?;
            let mut m = self.kind.build(self.dim);
            m.restore_json(&snapshot)?;
            self.model = Some((version, m));
        }
        let (_, m) = self
            .model
            .as_ref()
            .ok_or_else(|| Failure::Error("no model".into()))?;
        Ok(m.as_ref())
    }

    /// Split one coalesced selection of `queries`, whose results are `sels`.
    #[allow(clippy::too_many_arguments)]
    pub fn measure(
        &mut self,
        bao: &Bao,
        opt: &Optimizer,
        queries: &[&Query],
        sels: &[&Selection],
        db: &Database,
        cat: &StatsCatalog,
        pool: &BufferPool,
    ) -> Outcome<()> {
        let arms = &bao.cfg.arms;
        let mut trees: Vec<FeatTree> = Vec::with_capacity(queries.len() * arms.len());
        for (&query, sel) in queries.iter().zip(sels) {
            let t = Instant::now();
            let mut outs = Vec::with_capacity(arms.len());
            for &hints in arms {
                outs.push(opt.plan(query, db, cat, hints)?);
            }
            self.plan_ns += t.elapsed().as_nanos() as u64;
            let work: u64 = outs.iter().map(|o| o.work).sum();
            check(work == sel.planning_work, || {
                format!(
                    "shadow planning did {work} work units, selection {}",
                    sel.planning_work
                )
            })?;
            self.work += work;
            self.queries += 1;
            self.arms += outs.len();
            let mut distinct: Vec<&PlanNode> = Vec::new();
            for o in &outs {
                if !distinct.contains(&&o.root) {
                    distinct.push(&o.root);
                }
            }
            self.distinct_plans += distinct.len();

            let first = trees.len();
            let t = Instant::now();
            for o in outs {
                let mut root = o.root;
                bao_opt::annotate_estimates(
                    &mut root,
                    query,
                    db,
                    cat,
                    opt.estimator(),
                    &opt.params,
                )?;
                trees.push(bao.featurizer().featurize(&root, query, db, Some(pool)));
            }
            self.featurize_ns += t.elapsed().as_nanos() as u64;
            check(trees[first + sel.arm] == sel.tree, || {
                "shadow featurization differs from the selected tree".into()
            })?;
        }

        let refs: Vec<&FeatTree> = trees.iter().collect();
        let model = self.model(bao)?;
        let t = Instant::now();
        let preds = model.predict_batch_coalesced(&refs)?;
        let score_ns = t.elapsed().as_nanos() as u64;
        self.score_ns += score_ns;
        self.trees += refs.len();

        let used = sels.iter().flat_map(|s| s.predictions.iter());
        check(preds.len() == refs.len(), || {
            "shadow scoring returned a short batch".into()
        })?;
        for (i, (p, u)) in preds.iter().zip(used).enumerate() {
            check(u.map(f64::to_bits) == Some(p.to_bits()), || {
                format!("shadow prediction {i} is {p}, selection used {u:?}")
            })?;
        }
        Ok(())
    }
}
