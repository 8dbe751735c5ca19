//! Feature selection over Boolean datasets.
//!
//! Teams 4 and 5 pruned the input space before learning: Team 5 with
//! scikit-learn's `SelectKBest`/`SelectPercentile` (chi², f-test, mutual
//! information) and Team 4 with tree-ensemble importance plus repeated
//! permutation importance. All of those scoring functions are provided here
//! for binary features and binary labels.

use lsml_pla::{Dataset, Pattern};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::forest::{RandomForest, RandomForestConfig};

/// χ² statistic of each input against the label (2×2 contingency tables
/// with Yates-free Pearson χ²). Higher = more dependent. Computed from the
/// dataset's cached bit columns: one popcount contingency table per input.
pub fn chi2_scores(ds: &Dataset) -> Vec<f64> {
    ds.bit_columns().chi2_scores()
}

/// Empirical mutual information (bits) between each input and the label,
/// from popcount contingency tables over the cached bit columns.
pub fn mutual_info_scores(ds: &Dataset) -> Vec<f64> {
    ds.bit_columns().mutual_info_scores()
}

/// One-way ANOVA F statistic of each input against the label
/// (scikit-learn's `f_classif`, the third scoring function Team 5 ran
/// under `SelectKBest`), from popcount contingency tables.
pub fn f_test_scores(ds: &Dataset) -> Vec<f64> {
    ds.bit_columns().f_test_scores()
}

/// Gain-based importance from a small random forest (Team 4's level-1
/// "ensemble classifier" ranking). Normalized to sum to one.
pub fn forest_importance(ds: &Dataset, n_trees: usize, seed: u64) -> Vec<f64> {
    let cfg = RandomForestConfig {
        n_trees,
        seed,
        ..RandomForestConfig::default()
    };
    RandomForest::train(ds, &cfg).importance()
}

/// Permutation importance: for each feature, shuffle its column and measure
/// the average accuracy drop of `predict` over `repeats` shuffles (Team 4's
/// "10-repeat permutation importance").
///
/// Each feature derives its own deterministic RNG stream from `seed`, so a
/// feature's score does not depend on which other features are scanned.
pub fn permutation_importance(
    ds: &Dataset,
    predict: impl Fn(&Pattern) -> bool,
    repeats: usize,
    seed: u64,
) -> Vec<f64> {
    let baseline = ds.accuracy_of(&predict);
    let n = ds.len();
    (0..ds.num_inputs())
        .map(|f| {
            // SplitMix64-style stream derivation keeps feature streams
            // decorrelated even for adjacent seeds.
            let stream = seed ^ (f as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            let mut rng = StdRng::seed_from_u64(stream);
            let mut drop_total = 0.0;
            for _ in 0..repeats.max(1) {
                let mut perm: Vec<usize> = (0..n).collect();
                perm.shuffle(&mut rng);
                let correct = (0..n)
                    .filter(|&i| {
                        let mut p = ds.pattern(i).clone();
                        p.set(f, ds.pattern(perm[i]).get(f));
                        predict(&p) == ds.output(i)
                    })
                    .count();
                let acc = if n == 0 {
                    1.0
                } else {
                    correct as f64 / n as f64
                };
                drop_total += baseline - acc;
            }
            drop_total / repeats.max(1) as f64
        })
        .collect()
}

/// Indices of the `k` highest-scoring features, ascending by index
/// (scikit-learn's `SelectKBest`).
pub fn select_k_best(scores: &[f64], k: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..scores.len()).collect();
    order.sort_by(|&a, &b| {
        scores[b]
            .partial_cmp(&scores[a])
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
    let mut picked: Vec<usize> = order.into_iter().take(k).collect();
    picked.sort_unstable();
    picked
}

/// Indices of the top `percentile` (0–100) of features by score
/// (scikit-learn's `SelectPercentile`). Always keeps at least one feature.
pub fn select_percentile(scores: &[f64], percentile: f64) -> Vec<usize> {
    let k =
        ((scores.len() as f64 * percentile / 100.0).round() as usize).clamp(1, scores.len().max(1));
    select_k_best(scores, k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    /// Label = x1 XOR x3 plus 4 irrelevant inputs, sampled randomly.
    fn xor_dataset(n: usize, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ds = Dataset::new(6);
        for _ in 0..n {
            let p = Pattern::random(&mut rng, 6);
            let label = p.get(1) ^ p.get(3);
            ds.push(p, label);
        }
        ds
    }

    /// Label = x2, sampled randomly over 5 inputs.
    fn copy_dataset(n: usize, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ds = Dataset::new(5);
        for _ in 0..n {
            let p = Pattern::random(&mut rng, 5);
            let label = p.get(2);
            ds.push(p, label);
        }
        ds
    }

    #[test]
    fn chi2_ranks_informative_variable_first() {
        let ds = copy_dataset(500, 3);
        let scores = chi2_scores(&ds);
        let best = select_k_best(&scores, 1);
        assert_eq!(best, vec![2]);
    }

    #[test]
    fn mutual_info_ranks_informative_variable_first() {
        let ds = copy_dataset(500, 4);
        let scores = mutual_info_scores(&ds);
        let best = select_k_best(&scores, 1);
        assert_eq!(best, vec![2]);
        assert!(scores[2] > 0.9); // near 1 bit
    }

    #[test]
    fn single_variable_scores_miss_xor() {
        // The classic failure mode motivating permutation importance:
        // marginal scores of XOR inputs are ~0.
        let ds = xor_dataset(800, 5);
        let mi = mutual_info_scores(&ds);
        assert!(mi[1] < 0.05 && mi[3] < 0.05);
    }

    #[test]
    fn permutation_importance_finds_xor_inputs() {
        let ds = xor_dataset(600, 6);
        let imp = permutation_importance(&ds, |p| p.get(1) ^ p.get(3), 5, 0);
        // Shuffling an XOR input halves accuracy; irrelevant inputs do nothing.
        assert!(imp[1] > 0.3 && imp[3] > 0.3, "imp = {imp:?}");
        assert!(imp[0].abs() < 0.1 && imp[5].abs() < 0.1);
    }

    #[test]
    fn forest_importance_is_normalized() {
        let ds = copy_dataset(300, 7);
        let imp = forest_importance(&ds, 5, 0);
        let sum: f64 = imp.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
        let best = select_k_best(&imp, 1);
        assert_eq!(best, vec![2]);
    }

    #[test]
    fn select_k_best_orders_and_truncates() {
        let picked = select_k_best(&[0.1, 5.0, 3.0, 4.0], 2);
        assert_eq!(picked, vec![1, 3]);
    }

    #[test]
    fn select_percentile_keeps_at_least_one() {
        let picked = select_percentile(&[0.5, 0.1, 0.9], 1.0);
        assert_eq!(picked, vec![2]);
        let half = select_percentile(&[0.5, 0.1, 0.9, 0.7], 50.0);
        assert_eq!(half, vec![2, 3]);
    }

    #[test]
    fn scores_on_empty_dataset_are_zero() {
        let ds = Dataset::new(3);
        assert!(chi2_scores(&ds).iter().all(|&s| s == 0.0));
        assert!(mutual_info_scores(&ds).iter().all(|&s| s == 0.0));
    }

    #[test]
    fn noisy_relevance_is_still_ranked() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut ds = Dataset::new(4);
        for _ in 0..800 {
            let p = Pattern::random(&mut rng, 4);
            let label = p.get(0) ^ (rng.gen::<f64>() < 0.2);
            ds.push(p, label);
        }
        let scores = chi2_scores(&ds);
        assert_eq!(select_k_best(&scores, 1), vec![0]);
    }
}
