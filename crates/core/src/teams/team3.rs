//! Team 3 (National Taiwan University): DT / Fr-DT / NN ensemble.
//!
//! The merged data is re-divided into three fold configurations; under each
//! configuration a plain tree, a fringe tree and a pruned-and-LUT-ized MLP
//! are trained, the best per configuration joins a three-model voting
//! ensemble. Oversized ensembles drop their largest member, exactly as the
//! paper describes.
//!
//! The three fold configurations are independent, so their members are
//! built on the pool (`portfolio::construct_raw`) and come back in fold
//! order.

use lsml_aig::{circuits, Aig, Lit};
use lsml_dtree::{train_fringe_tree, Criterion, DecisionTree, FringeConfig, TreeConfig};
use lsml_neural::{prune_to_fanin, Mlp, MlpConfig};
use lsml_pla::Dataset;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::compile::{CompileBatch, SizeBudget};
use crate::portfolio::{construct_raw, RawCandidateTask};
use crate::problem::{LearnedCircuit, Learner, Problem};
use crate::teams::stage_seed;

/// Team 3's learner.
#[derive(Clone, Debug)]
pub struct Team3 {
    /// Tree depth cap for DT and Fr-DT members.
    pub max_depth: usize,
    /// MLP training epochs.
    pub nn_epochs: usize,
    /// Neuron fan-in budget after pruning (12 in the paper; smaller keeps
    /// LUT enumeration cheap).
    pub nn_max_fanin: usize,
    /// Skip the NN member above this input count (NN training on very wide
    /// benchmarks dominates runtime without circuit-size feasibility).
    pub nn_max_inputs: usize,
}

impl Default for Team3 {
    fn default() -> Self {
        Team3 {
            max_depth: 12,
            nn_epochs: 30,
            nn_max_fanin: 8,
            nn_max_inputs: 256,
        }
    }
}

impl Team3 {
    /// Trains the three member types on one fold configuration and returns
    /// the best by held-out accuracy.
    fn best_member(&self, train: &Dataset, held: &Dataset, seed: u64) -> (Aig, &'static str) {
        let tree_cfg = TreeConfig {
            criterion: Criterion::Entropy,
            max_depth: Some(self.max_depth),
            seed,
            ..TreeConfig::default()
        };
        let dt = DecisionTree::train(train, &tree_cfg);
        let mut best = (dt.to_aig(), "dt", dt.accuracy(held));

        let fr = train_fringe_tree(
            train,
            &FringeConfig {
                tree: tree_cfg.clone(),
                max_iterations: 4,
                max_features: train.num_inputs() + 128,
            },
        );
        let fr_acc = fr.accuracy(held);
        if fr_acc > best.2 {
            best = (fr.to_aig(), "fringe-dt", fr_acc);
        }

        if train.num_inputs() <= self.nn_max_inputs {
            let nn_cfg = MlpConfig {
                hidden: vec![24, 12],
                epochs: self.nn_epochs,
                seed,
                ..MlpConfig::default()
            };
            let mut mlp = Mlp::train(train, &nn_cfg);
            prune_to_fanin(&mut mlp, train, &nn_cfg, self.nn_max_fanin);
            let aig = mlp.to_aig_quantized(self.nn_max_fanin);
            let acc = held.accuracy_of(|p| mlp.predict_quantized(p));
            if acc > best.2 {
                best = (aig, "nn-lut", acc);
            }
        }
        (best.0, best.1)
    }
}

impl Learner for Team3 {
    fn name(&self) -> &str {
        "team3"
    }

    fn learn(&self, problem: &Problem) -> LearnedCircuit {
        let merged = problem.merged();
        let mut rng = StdRng::seed_from_u64(stage_seed(problem, 3));
        let folds = merged.folds(3, &mut rng);

        // One member per fold configuration (two folds train, one selects).
        // The three are independent, so they train on the pool; the
        // members come back in fold order.
        let (folds, n) = (&folds, merged.num_inputs());
        let tasks: Vec<RawCandidateTask<'_>> = (0..3)
            .map(|i| -> RawCandidateTask<'_> {
                Box::new(move || {
                    let mut train = Dataset::new(n);
                    for (j, fold) in folds.iter().enumerate() {
                        if j != i {
                            train.extend_from(fold);
                        }
                    }
                    let seed = stage_seed(problem, 30 + i as u64);
                    let (aig, tag) = self.best_member(&train, &folds[i], seed);
                    Some((aig, tag.to_string()))
                })
            })
            .collect();
        let members = construct_raw(tasks);

        // Voting ensemble; drop the largest member while over budget. The
        // budget check runs on *compiled* ensembles, so members the exact
        // pipeline can fit together are no longer dropped needlessly — but
        // compiling is only attempted when the raw size is close enough
        // that the pipeline could plausibly bridge the gap (its median
        // reduction is ~16%; see BENCH_rewrite.json), so hopeless
        // iterations stay as cheap as the old num_ands() comparison.
        //
        // Every member is appended into one shared batch graph exactly
        // once; each iteration's ensemble is just a fresh majority literal
        // over the surviving member literals, and a single member passes
        // through as its own literal — no per-iteration graph rebuilds, no
        // full-`Aig` clone on the single-member path.
        let budget = SizeBudget::exact(problem.node_limit);
        let mut batch = CompileBatch::new(problem.num_inputs(), &budget);
        let shared_inputs = batch.shared().inputs();
        let mut members: Vec<(Lit, &str, usize)> = members
            .iter()
            .map(|(aig, tag)| {
                let lit = batch.shared().append(aig, &shared_inputs)[0];
                (lit, tag.as_str(), aig.num_ands())
            })
            .collect();
        loop {
            let votes: Vec<Lit> = members.iter().map(|m| m.0).collect();
            let ens = if members.len() == 1 {
                votes[0]
            } else {
                circuits::majority(batch.shared(), &votes)
            };
            let raw_ands = batch.shared().extract_cone(&[ens]).num_ands();
            if raw_ands <= problem.node_limit * 2 || members.len() == 1 {
                let tags: Vec<&str> = members.iter().map(|m| m.1).collect();
                let id = batch.add_cone(ens, format!("ensemble[{}]", tags.join("+")));
                let compiled = batch.compile(id);
                if compiled.fits(problem.node_limit) {
                    return compiled;
                }
            }
            if members.len() == 1 {
                // Single member still too large: fall back to a small tree.
                let tree = DecisionTree::train(
                    &merged,
                    &TreeConfig {
                        max_depth: Some(8),
                        seed: problem.seed,
                        ..TreeConfig::default()
                    },
                );
                let id = batch.add_aig(&tree.to_aig(), "dt-fallback");
                return batch.compile(id);
            }
            let largest = members
                .iter()
                .enumerate()
                .max_by_key(|(_, m)| m.2)
                .map(|(i, _)| i)
                .expect("non-empty members");
            members.remove(largest);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::teams::testutil::problem_from;

    #[test]
    fn ensemble_learns_mixed_function() {
        let (problem, test) = problem_from(8, 400, 31, |p| p.get(0) ^ (p.get(2) && p.get(5)));
        let c = Team3::default().learn(&problem);
        assert!(c.accuracy(&test) > 0.85, "acc {}", c.accuracy(&test));
        assert!(c.fits(5000));
    }

    #[test]
    fn method_records_ensemble_members() {
        let (problem, _) = problem_from(6, 250, 32, |p| p.get(1) || p.get(3));
        let c = Team3::default().learn(&problem);
        assert!(
            c.method.starts_with("ensemble[") || c.method == "dt-fallback",
            "method {}",
            c.method
        );
    }

    #[test]
    fn fringe_member_handles_xor_pairs() {
        let (problem, test) = problem_from(10, 500, 33, |p| p.get(0) ^ p.get(7));
        let c = Team3::default().learn(&problem);
        assert!(c.accuracy(&test) > 0.9, "acc {}", c.accuracy(&test));
    }
}
