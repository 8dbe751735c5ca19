//! Team 5 (UFRGS / UFSC): DT/RF sweeps plus NN-guided function search.
//!
//! Decision trees at depths 10 and 20 over two training-set proportions and
//! several feature-selection front-ends (none, chi² k-best, mutual-info
//! percentile), a 3-tree forest with a plain majority vote (scikit-learn's
//! weighted-average forest would need multipliers in hardware), and the NN
//! path: use MLP weight magnitudes to pick the four most important inputs
//! and exhaustively search Boolean combinations of them. Our search scans
//! *all* 2^16 four-input truth tables via a 16-cell histogram, a superset of
//! the team's 792 hand-rolled expressions at negligible cost.

use lsml_aig::circuits::truth_table_cone;
use lsml_aig::Aig;
use lsml_dtree::select::{
    chi2_scores, f_test_scores, mutual_info_scores, select_k_best, select_percentile,
};
use lsml_dtree::{DecisionTree, RandomForest, RandomForestConfig, TreeConfig};
use lsml_neural::{Mlp, MlpConfig};
use lsml_pla::{Dataset, TruthTable};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::compile::{CompileBatch, SizeBudget};
use crate::problem::{LearnedCircuit, Learner, Problem};
use crate::teams::stage_seed;

/// Team 5's learner.
#[derive(Clone, Debug)]
pub struct Team5 {
    /// Tree depths swept (10 and 20 in the paper).
    pub depths: Vec<usize>,
    /// Trees in the forest (3 in the paper, because of the node budget).
    pub forest_trees: usize,
    /// MLP epochs for the importance probe.
    pub nn_epochs: usize,
}

impl Default for Team5 {
    fn default() -> Self {
        Team5 {
            depths: vec![10, 20],
            forest_trees: 3,
            nn_epochs: 25,
        }
    }
}

impl Learner for Team5 {
    fn name(&self) -> &str {
        "team5"
    }

    fn learn(&self, problem: &Problem) -> LearnedCircuit {
        let merged = problem.merged();
        let mut rng = StdRng::seed_from_u64(stage_seed(problem, 5));
        // "an 80%-20% ratio, preserving the original data set's target
        // distribution"; plus a half-size training set as an alternative.
        let (train80, valid20) = merged.stratified_split(0.8, &mut rng);
        let (train40, _) = train80.stratified_split(0.5, &mut rng);

        // Team 5 discarded oversized candidates rather than approximating.
        // The depth/selection/ratio sweep varies one knob at a time, so
        // neighboring trees overlap heavily — every raw candidate lands in
        // one shared batch and only potential winners are compiled.
        let budget = SizeBudget::exact(problem.node_limit);
        let mut batch = CompileBatch::new(problem.num_inputs(), &budget);
        for (ratio_tag, train) in [("80", &train80), ("40", &train40)] {
            let selections = feature_selections(train);
            for &depth in &self.depths {
                for (sel_tag, vars) in &selections {
                    let cfg = TreeConfig {
                        max_depth: Some(depth),
                        seed: problem.seed,
                        ..TreeConfig::default()
                    };
                    let aig = match vars {
                        None => DecisionTree::train(train, &cfg).to_aig(),
                        Some(vs) => {
                            let tree = DecisionTree::train(&train.project(vs), &cfg);
                            lift_aig(&tree.to_aig(), vs, problem.num_inputs())
                        }
                    };
                    batch.add_aig(&aig, format!("dt(d={depth},{sel_tag},r={ratio_tag})"));
                }
            }
            // The 3-tree forest.
            let rf = RandomForest::train(
                train,
                &RandomForestConfig {
                    n_trees: self.forest_trees,
                    tree: TreeConfig {
                        max_depth: Some(10),
                        ..TreeConfig::default()
                    },
                    seed: stage_seed(problem, 50),
                },
            );
            batch.add_aig(&rf.to_aig(), format!("rf3(r={ratio_tag})"));
        }

        // NN-guided four-feature exhaustive search.
        let nn = self.nn_feature_search(problem, &train80);
        batch.add_aig(&nn, "nn-4feature-search");

        batch.select_best(&valid20, problem.node_limit)
    }
}

impl Team5 {
    /// Trains an MLP, takes its four highest-importance inputs, and finds
    /// the best four-input Boolean function on the training histogram.
    /// Returns the raw cone; the caller's shared batch compiles it.
    fn nn_feature_search(&self, problem: &Problem, train: &Dataset) -> Aig {
        let cfg = MlpConfig {
            hidden: vec![16],
            epochs: self.nn_epochs,
            seed: stage_seed(problem, 55),
            ..MlpConfig::default()
        };
        let mlp = Mlp::train(train, &cfg);
        let importance = mlp.input_importance();
        let vars = select_k_best(&importance, 4.min(problem.num_inputs()));
        let k = vars.len();

        // Histogram of labels per projected cell.
        let mut pos = vec![0u32; 1 << k];
        let mut neg = vec![0u32; 1 << k];
        for (p, o) in train.iter() {
            let cell = p.project(&vars).to_index() as usize;
            if o {
                pos[cell] += 1;
            } else {
                neg[cell] += 1;
            }
        }
        // The optimal table sets each cell to its majority label — that is
        // the upper envelope of any expression search over these features.
        let table = TruthTable::from_fn(k, |m| pos[m as usize] > neg[m as usize]);
        let mut aig = Aig::new(problem.num_inputs());
        let srcs: Vec<_> = vars.iter().map(|&v| aig.input(v)).collect();
        let out = truth_table_cone(&mut aig, &table, &srcs);
        aig.add_output(out);
        aig
    }
}

/// The feature-selection front-ends of the sweep: none, chi² top-half,
/// ANOVA-F top-half, mutual-information top-half (the three `SelectKBest`
/// scoring functions the team ran).
fn feature_selections(train: &Dataset) -> Vec<(String, Option<Vec<usize>>)> {
    let k = (train.num_inputs() / 2).max(1);
    vec![
        ("sel=none".to_owned(), None),
        (
            "sel=chi2".to_owned(),
            Some(select_k_best(&chi2_scores(train), k)),
        ),
        (
            "sel=ftest".to_owned(),
            Some(select_k_best(&f_test_scores(train), k)),
        ),
        (
            "sel=mi".to_owned(),
            Some(select_percentile(&mutual_info_scores(train), 50.0)),
        ),
    ]
}

/// Re-expresses an AIG over projected variables in the full input space.
fn lift_aig(aig: &Aig, vars: &[usize], num_inputs: usize) -> Aig {
    let mut out = Aig::new(num_inputs);
    let map: Vec<_> = vars.iter().map(|&v| out.input(v)).collect();
    let outputs = out.append(aig, &map);
    for o in outputs {
        out.add_output(o);
    }
    out.cleanup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::teams::testutil::problem_from;

    #[test]
    fn sweep_learns_narrow_function() {
        let (problem, test) = problem_from(10, 400, 51, |p| p.get(2) && !p.get(7));
        let c = Team5::default().learn(&problem);
        assert!(c.accuracy(&test) > 0.9, "acc {}", c.accuracy(&test));
        assert!(c.fits(5000));
    }

    #[test]
    fn nn_search_cracks_xor_of_two() {
        // XOR2 was exactly the case Team 5 added the NN search for.
        let (problem, test) = problem_from(12, 600, 52, |p| p.get(3) ^ p.get(9));
        let c = Team5::default().learn(&problem);
        assert!(c.accuracy(&test) > 0.95, "acc {}", c.accuracy(&test));
    }

    #[test]
    fn lift_aig_keeps_semantics() {
        let mut small = Aig::new(2);
        let (a, b) = (small.input(0), small.input(1));
        let f = small.xor(a, b);
        small.add_output(f);
        let lifted = lift_aig(&small, &[1, 3], 5);
        assert_eq!(lifted.eval(&[false, true, false, false, false]), vec![true]);
        assert_eq!(lifted.eval(&[false, true, false, true, false]), vec![false]);
    }
}
