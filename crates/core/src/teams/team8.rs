//! Team 8 (Cornell): bucket-of-models ensemble.
//!
//! Three model classes, each picked "to capture various types of circuits":
//! a C4.5-style BDT **with functional decomposition** for the cases where
//! information gain goes blind, a 17-tree depth-8 random forest for the
//! noisy ML benchmarks, and a sine-activation MLP for periodic functions —
//! synthesized by full input enumeration, which is only feasible under
//! ~16–20 inputs (their LogicNets-style simplification). The best
//! validation-accuracy model within the node budget wins.

use lsml_aig::circuits::truth_table_cone;
use lsml_aig::Aig;
use lsml_dtree::{Criterion, DecisionTree, RandomForest, RandomForestConfig, TreeConfig};
use lsml_neural::{Activation, Mlp, MlpConfig};

use crate::compile::{CompileBatch, SizeBudget};
use crate::portfolio::{fan_out, RawCandidateTask};
use crate::problem::{LearnedCircuit, Learner, Problem};
use crate::teams::stage_seed;

/// Team 8's learner.
#[derive(Clone, Debug)]
pub struct Team8 {
    /// Functional-decomposition trigger threshold τ (grid-searched in the
    /// paper).
    pub taus: Vec<f64>,
    /// Minimum-samples-per-leaf values grid-searched for the BDT.
    pub min_leaves: Vec<usize>,
    /// Input-count limit for the enumerated MLP.
    pub mlp_max_inputs: usize,
    /// MLP epochs.
    pub mlp_epochs: usize,
}

impl Default for Team8 {
    fn default() -> Self {
        Team8 {
            taus: vec![0.02, 0.1],
            min_leaves: vec![1, 4],
            mlp_max_inputs: 16,
            mlp_epochs: 150,
        }
    }
}

impl Learner for Team8 {
    fn name(&self) -> &str {
        "team8"
    }

    fn learn(&self, problem: &Problem) -> LearnedCircuit {
        // Team 8 discarded over-budget models, so the budget is exact.
        let budget = SizeBudget::exact(problem.node_limit);
        // Every bucket model is independent; construction fans out over the
        // pool, keeping the original push order. Compilation then runs
        // through one shared batch (the τ/N grid trees overlap heavily).
        let mut tasks: Vec<RawCandidateTask<'_>> = Vec::new();

        // Bucket 1: BDT with functional decomposition (grid over τ and N).
        for &tau in &self.taus {
            for &n in &self.min_leaves {
                tasks.push(Box::new(move || {
                    let cfg = TreeConfig {
                        criterion: Criterion::Entropy,
                        funcdec_threshold: Some(tau),
                        min_samples_leaf: n,
                        seed: problem.seed,
                        ..TreeConfig::default()
                    };
                    let tree = DecisionTree::train(&problem.train, &cfg);
                    Some((tree.to_aig(), format!("bdt-funcdec(tau={tau},N={n})")))
                }));
            }
        }

        // Bucket 2: the 17-tree depth-8 forest.
        tasks.push(Box::new(move || {
            let rf = RandomForest::train(
                &problem.train,
                &RandomForestConfig {
                    n_trees: 17,
                    tree: TreeConfig {
                        max_depth: Some(8),
                        ..TreeConfig::default()
                    },
                    seed: stage_seed(problem, 8),
                },
            );
            Some((rf.to_aig(), "rf17".to_string()))
        }));

        // Bucket 3: sine MLP, enumerated when the input count permits.
        if problem.num_inputs() <= self.mlp_max_inputs {
            let mlp_epochs = self.mlp_epochs;
            tasks.push(Box::new(move || {
                let cfg = MlpConfig {
                    hidden: vec![16, 8],
                    activation: Activation::Sine,
                    epochs: mlp_epochs,
                    learning_rate: 1.0,
                    seed: stage_seed(problem, 88),
                    ..MlpConfig::default()
                };
                let mlp = Mlp::train(&problem.train, &cfg);
                let table = mlp.to_truth_table()?;
                let mut aig = Aig::new(problem.num_inputs());
                let srcs = aig.inputs();
                let out = truth_table_cone(&mut aig, &table, &srcs);
                aig.add_output(out);
                Some((aig, "mlp-sine-enum".to_string()))
            }));
        }

        let mut batch = CompileBatch::new(problem.num_inputs(), &budget);
        for (aig, method) in fan_out(tasks) {
            batch.add_aig(&aig, method);
        }
        batch.select_best(&problem.valid, problem.node_limit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::teams::testutil::problem_from;

    #[test]
    fn bucket_learns_conjunction() {
        let (problem, test) = problem_from(10, 400, 81, |p| p.get(0) && p.get(9));
        let c = Team8::default().learn(&problem);
        assert!(c.accuracy(&test) > 0.9, "acc {}", c.accuracy(&test));
        assert!(c.fits(5000));
    }

    #[test]
    fn sine_mlp_or_funcdec_handles_parity_like_data() {
        // Parity of 4 variables over a 12-input space.
        let (problem, test) =
            problem_from(12, 700, 82, |p| p.get(0) ^ p.get(3) ^ p.get(6) ^ p.get(9));
        let c = Team8::default().learn(&problem);
        // Plain info-gain trees flounder here; the bucket should do clearly
        // better than chance.
        assert!(c.accuracy(&test) > 0.6, "acc {}", c.accuracy(&test));
    }
}
