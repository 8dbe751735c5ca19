//! Team 4 (UT Austin): feature selection + network + subspace expansion.
//!
//! The deep pipeline of the paper's Fig. 18: multi-level ensemble-based
//! feature selection picks top-k inputs (k ∈ [10,16]) at two levels
//! (tree-importance and a chi²/importance blend), an MLP stands in for the
//! Adaptive Factorization Network as the Boolean approximator, the trained
//! model predicts the *entire* 2^k subspace (everything else don't-care),
//! and an accuracy–node joint search keeps the best PLA that synthesizes
//! under the node budget.
//!
//! The subspace models are independent, so they are built on the pool
//! (`portfolio::fan_out`) and reach the shared batch in push order.
//! Each expansion is one `Mlp::to_truth_table` walk over the k-cube, with
//! the cells the training data covers then set to their majority label.

use lsml_aig::circuits::truth_table_cone;
use lsml_aig::Aig;
use lsml_dtree::select::{chi2_scores, forest_importance, select_k_best};
use lsml_neural::{Mlp, MlpConfig};

use crate::compile::{CompileBatch, SizeBudget};
use crate::portfolio::{fan_out, RawCandidateTask};
use crate::problem::{LearnedCircuit, Learner, Problem};
use crate::teams::stage_seed;

/// Team 4's learner.
#[derive(Clone, Debug)]
pub struct Team4 {
    /// Feature counts explored (paper: 10..=16; default sweeps a subset).
    pub ks: Vec<usize>,
    /// MLP epochs per candidate model.
    pub epochs: usize,
}

impl Default for Team4 {
    fn default() -> Self {
        Team4 {
            ks: vec![10, 12, 14, 16],
            epochs: 40,
        }
    }
}

impl Learner for Team4 {
    fn name(&self) -> &str {
        "team4"
    }

    fn learn(&self, problem: &Problem) -> LearnedCircuit {
        let n = problem.num_inputs();
        let importance = forest_importance(&problem.train, 8, stage_seed(problem, 4));
        let chi2 = chi2_scores(&problem.train);
        // Level-2 blend: the importance plus the chi² score scaled to the
        // largest one.
        let maxc = chi2.iter().cloned().fold(1e-12, f64::max);
        let blend: Vec<f64> = importance
            .iter()
            .zip(chi2.iter())
            .map(|(&a, &b)| a + b / maxc)
            .collect();

        // Every k below the input count gets two subspace models, one per
        // selection level. The first k at or above it ends the sweep with
        // one full-space model (when n <= 16). With the default ks, then,
        // benchmarks of up to 10 inputs skip reduction entirely, and those
        // of 11 to 16 inputs also get the models of the smaller ks. (Team 4
        // assumed "the training set is enough to recover the true
        // functionality of circuits with less than log2(6400) = 12
        // inputs".) The models are independent, so they train on the pool;
        // the batch receives them in push order.
        let mut tasks: Vec<RawCandidateTask<'_>> = Vec::new();
        for &k in &self.ks {
            if k >= n {
                if n <= 16 {
                    tasks.push(Box::new(move || {
                        let vars: Vec<usize> = (0..n).collect();
                        Some((self.model_on(problem, &vars), "afn-sub".to_string()))
                    }));
                }
                break;
            }
            for (level, scores) in [(1usize, &importance), (2usize, &blend)] {
                let vars = select_k_best(scores, k);
                tasks.push(Box::new(move || {
                    let method = format!("afn-sub(k={k},L{level})");
                    Some((self.model_on(problem, &vars), method))
                }));
            }
        }

        // Team 4 kept "the best PLA that synthesizes under the node budget"
        // — oversized candidates are discarded, not approximated, so the
        // compile budget is exact. Truth-table cones over overlapping
        // variable selections share heavily, so all candidates build into
        // one shared batch and only the potential winners compile.
        let budget = SizeBudget::exact(problem.node_limit);
        let mut batch = CompileBatch::new(n, &budget);
        for (aig, method) in fan_out(tasks) {
            batch.add_aig(&aig, method);
        }
        batch.select_best(&problem.valid, problem.node_limit)
    }
}

impl Team4 {
    /// Trains the approximator on the projected inputs and expands the full
    /// 2^k subspace into a raw truth-table cone over the selected variables
    /// (compilation happens in the caller's shared batch).
    fn model_on(&self, problem: &Problem, vars: &[usize]) -> Aig {
        let projected = problem.train.project(vars);
        let cfg = MlpConfig {
            hidden: vec![32, 16],
            epochs: self.epochs,
            seed: stage_seed(problem, 40 + vars.len() as u64),
            ..MlpConfig::default()
        };
        let mlp = Mlp::train(&projected, &cfg);
        let k = vars.len();
        // Subspace expansion: predict every vertex of the k-cube. Cells the
        // training data actually covers take their majority label (the
        // model must stay exact where it has evidence); only unseen
        // vertices, and ties, are left to the network's generalization.
        let mut votes = vec![0i32; 1 << k];
        for (p, o) in projected.iter() {
            votes[p.to_index() as usize] += if o { 1 } else { -1 };
        }
        let mut table = mlp.to_truth_table().expect("k <= 16 inputs");
        for (cell, &vote) in votes.iter().enumerate() {
            if vote != 0 {
                table.set(cell as u32, vote > 0);
            }
        }
        let mut aig = Aig::new(problem.num_inputs());
        let srcs: Vec<_> = vars.iter().map(|&v| aig.input(v)).collect();
        let out = truth_table_cone(&mut aig, &table, &srcs);
        aig.add_output(out);
        aig
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::teams::testutil::problem_from;

    #[test]
    fn selects_relevant_subspace() {
        // 24 inputs, function depends on 3 of them.
        let (problem, test) = problem_from(24, 500, 41, |p| p.get(20) && (p.get(3) || !p.get(11)));
        let c = Team4::default().learn(&problem);
        assert!(c.accuracy(&test) > 0.85, "acc {}", c.accuracy(&test));
        assert!(c.fits(5000));
    }

    #[test]
    fn narrow_problem_uses_full_space() {
        let (problem, test) = problem_from(8, 300, 42, |p| p.get(0) ^ p.get(5));
        let c = Team4::default().learn(&problem);
        assert!(c.accuracy(&test) > 0.8, "acc {}", c.accuracy(&test));
    }
}
