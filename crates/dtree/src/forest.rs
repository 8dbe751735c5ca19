//! Random forests with majority-gate synthesis.
//!
//! Teams 1, 5 and 8 all fielded forests; the paper singles them out as "a
//! strong baseline". Team 5 deliberately avoided scikit-learn's weighted
//! averaging (it would need multipliers in hardware) and used a plain
//! majority vote over trees — exactly the construction here: each tree
//! compiles to a MUX tree and a popcount-threshold majority gate combines
//! the votes.

use lsml_aig::{circuits, Aig};
use lsml_pla::{Dataset, Pattern};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::tree::{DecisionTree, TreeConfig};

/// Random-forest training configuration.
#[derive(Clone, Debug)]
pub struct RandomForestConfig {
    /// Number of trees (odd counts avoid ties; Team 8 used 17, Team 5 used 3).
    pub n_trees: usize,
    /// Per-tree configuration. `feature_subsample = None` here enables the
    /// sqrt(#features) default per tree.
    pub tree: TreeConfig,
    /// Master seed; per-tree seeds derive from it.
    pub seed: u64,
}

impl Default for RandomForestConfig {
    fn default() -> Self {
        RandomForestConfig {
            n_trees: 17,
            tree: TreeConfig {
                max_depth: Some(8),
                ..TreeConfig::default()
            },
            seed: 0,
        }
    }
}

/// A bagged ensemble of decision trees voting by majority.
///
/// # Examples
///
/// ```
/// use lsml_dtree::{RandomForest, RandomForestConfig};
/// use lsml_pla::{Dataset, Pattern};
///
/// let mut ds = Dataset::new(3);
/// for m in 0..8u64 {
///     ds.push(Pattern::from_index(m, 3), m.count_ones() >= 2);
/// }
/// let rf = RandomForest::train(&ds, &RandomForestConfig::default());
/// assert!(rf.accuracy(&ds) > 0.9);
/// ```
#[derive(Clone, Debug)]
pub struct RandomForest {
    trees: Vec<DecisionTree>,
    num_inputs: usize,
}

impl RandomForest {
    /// Trains `cfg.n_trees` trees on bootstrap resamples with per-node
    /// feature subsampling (default `sqrt(#features)` when the tree config
    /// doesn't pin one).
    pub fn train(ds: &Dataset, cfg: &RandomForestConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let subsample = cfg
            .tree
            .feature_subsample
            .unwrap_or_else(|| (ds.num_inputs() as f64).sqrt().ceil().max(1.0) as usize);
        let trees = (0..cfg.n_trees)
            .map(|t| {
                // Classic bagging: a resample with replacement as large as
                // the training set.
                let sample = if ds.is_empty() {
                    ds.clone()
                } else {
                    ds.bootstrap(ds.len(), &mut rng)
                };
                let tree_cfg = TreeConfig {
                    feature_subsample: Some(subsample),
                    seed: cfg.seed ^ (t as u64).wrapping_mul(0x9e37_79b9),
                    ..cfg.tree.clone()
                };
                DecisionTree::train(&sample, &tree_cfg)
            })
            .collect();
        RandomForest {
            trees,
            num_inputs: ds.num_inputs(),
        }
    }

    /// The ensemble's trees.
    pub fn trees(&self) -> &[DecisionTree] {
        &self.trees
    }

    /// Majority-vote prediction (strict majority; ties vote `false`).
    pub fn predict(&self, p: &Pattern) -> bool {
        let votes = self.trees.iter().filter(|t| t.predict(p)).count();
        2 * votes > self.trees.len()
    }

    /// Accuracy over a dataset, evaluated column-wise: each tree produces a
    /// packed prediction column against the dataset's cached bit columns,
    /// votes accumulate per example, and the majority vector is compared to
    /// the packed labels by popcount.
    pub fn accuracy(&self, ds: &Dataset) -> f64 {
        if ds.is_empty() {
            return 1.0;
        }
        let packed = self.predict_columns(ds);
        ds.bit_columns().accuracy_of_packed(&packed)
    }

    /// Packed majority-vote predictions over a dataset (bit `k` of word
    /// `k / 64` = prediction for example `k`, the `BitColumns` layout).
    pub fn predict_columns(&self, ds: &Dataset) -> Vec<u64> {
        let bits = ds.bit_columns();
        let words = bits.words_per_column();
        let mut votes = vec![0u32; ds.len()];
        for tree in &self.trees {
            let preds = if tree.features().is_plain() {
                // All forest trees split on raw variables, so the dataset's
                // cached columns feed them directly.
                tree.predict_bit_columns(&bits)
            } else {
                let matrix = crate::features::FeatureMatrix::build(tree.features(), ds);
                tree.predict_columns(&matrix)
            };
            for (k, vote) in votes.iter_mut().enumerate() {
                *vote += ((preds[k / 64] >> (k % 64)) & 1) as u32;
            }
        }
        let majority = self.trees.len() as u32;
        let mut out = vec![0u64; words];
        for (k, &v) in votes.iter().enumerate() {
            if 2 * v > majority {
                out[k / 64] |= 1u64 << (k % 64);
            }
        }
        out
    }

    /// Aggregated gain importance across trees, normalized to sum to one
    /// (zero vector if the forest never split).
    pub fn importance(&self) -> Vec<f64> {
        let mut total = vec![0.0; self.num_inputs];
        for tree in &self.trees {
            for (f, &v) in tree.importance().iter().enumerate() {
                if f < total.len() {
                    total[f] += v;
                }
            }
        }
        let sum: f64 = total.iter().sum();
        if sum > 0.0 {
            for v in total.iter_mut() {
                *v /= sum;
            }
        }
        total
    }

    /// Emits the forest's vote circuit into a caller-supplied builder,
    /// mapping each tree's inputs through `inputs`, and returns the
    /// majority literal. Shared subtrees across forests emitted into the
    /// same builder are deduplicated by structural hashing; no output is
    /// registered and no cleanup runs — the caller owns the graph.
    pub fn emit_into(&self, aig: &mut Aig, inputs: &[lsml_aig::Lit]) -> lsml_aig::Lit {
        let votes: Vec<_> = self
            .trees
            .iter()
            .map(|t| {
                let sub = t.to_aig();
                aig.append(&sub, inputs)[0]
            })
            .collect();
        circuits::majority(aig, &votes)
    }

    /// Compiles the forest: every tree becomes a MUX tree and a majority
    /// gate (popcount + threshold) combines the votes.
    pub fn to_aig(&self) -> Aig {
        let mut aig = Aig::new(self.num_inputs);
        let inputs = aig.inputs();
        let out = self.emit_into(&mut aig, &inputs);
        aig.add_output(out);
        aig.cleanup();
        aig
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    fn full_dataset(f: impl Fn(u64) -> bool, nv: usize) -> Dataset {
        let mut ds = Dataset::new(nv);
        for m in 0..(1u64 << nv) {
            ds.push(Pattern::from_index(m, nv), f(m));
        }
        ds
    }

    #[test]
    fn forest_fits_simple_function() {
        let ds = full_dataset(|m| (m & 0b11) != 0, 5);
        let rf = RandomForest::train(&ds, &RandomForestConfig::default());
        assert!(rf.accuracy(&ds) > 0.95);
    }

    #[test]
    fn forest_beats_single_noisy_tree_on_average() {
        // Noisy conjunction; the forest smooths the noise.
        let mut rng = StdRng::seed_from_u64(1);
        let mut train = Dataset::new(8);
        for _ in 0..400 {
            let p = Pattern::random(&mut rng, 8);
            let label = (p.get(0) && p.get(1)) ^ (rng.gen::<f64>() < 0.2);
            train.push(p, label);
        }
        let mut test = Dataset::new(8);
        for _ in 0..400 {
            let p = Pattern::random(&mut rng, 8);
            test.push(p.clone(), p.get(0) && p.get(1));
        }
        let rf = RandomForest::train(&train, &RandomForestConfig::default());
        assert!(rf.accuracy(&test) > 0.75, "rf acc {}", rf.accuracy(&test));
    }

    #[test]
    fn aig_matches_predictions() {
        let ds = full_dataset(|m| m % 3 == 1, 4);
        let cfg = RandomForestConfig {
            n_trees: 5,
            ..RandomForestConfig::default()
        };
        let rf = RandomForest::train(&ds, &cfg);
        let aig = rf.to_aig();
        for m in 0..16u64 {
            let p = Pattern::from_index(m, 4);
            let bits: Vec<bool> = p.iter().collect();
            assert_eq!(aig.eval(&bits)[0], rf.predict(&p), "mismatch at {m:04b}");
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let ds = full_dataset(|m| (m * 5) % 7 < 3, 6);
        let cfg = RandomForestConfig {
            n_trees: 7,
            seed: 99,
            ..RandomForestConfig::default()
        };
        let a = RandomForest::train(&ds, &cfg);
        let b = RandomForest::train(&ds, &cfg);
        for m in 0..64u64 {
            let p = Pattern::from_index(m, 6);
            assert_eq!(a.predict(&p), b.predict(&p));
        }
    }

    #[test]
    fn even_tree_count_breaks_ties_to_false() {
        let ds = full_dataset(|m| m & 1 == 1, 3);
        let cfg = RandomForestConfig {
            n_trees: 2,
            ..RandomForestConfig::default()
        };
        let rf = RandomForest::train(&ds, &cfg);
        let aig = rf.to_aig();
        for m in 0..8u64 {
            let p = Pattern::from_index(m, 3);
            let bits: Vec<bool> = p.iter().collect();
            assert_eq!(aig.eval(&bits)[0], rf.predict(&p));
        }
    }

    #[test]
    fn importance_sums_to_one_when_nonzero() {
        let ds = full_dataset(|m| (m & 0b11) == 0b11, 6);
        let rf = RandomForest::train(&ds, &RandomForestConfig::default());
        let imp = rf.importance();
        let sum: f64 = imp.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
        assert!(imp[0] + imp[1] > 0.6);
    }
}
