//! CART-style binary decision trees.

use lsml_aig::{Aig, Lit};
use lsml_pla::{BitColumns, Cover, Cube, Dataset, Pattern, Trit};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::features::{FeatureMatrix, FeatureSet};

/// Split-quality criterion.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub enum Criterion {
    /// Gini impurity (scikit-learn's default, used by Teams 5 and 10).
    #[default]
    Gini,
    /// Information gain / mutual information (C4.5, J48, Team 8's BDT).
    Entropy,
}

impl Criterion {
    fn impurity(self, pos: f64, neg: f64) -> f64 {
        let n = pos + neg;
        if n == 0.0 {
            return 0.0;
        }
        let p = pos / n;
        match self {
            Criterion::Gini => 2.0 * p * (1.0 - p),
            Criterion::Entropy => {
                let h = |q: f64| if q <= 0.0 { 0.0 } else { -q * q.log2() };
                h(p) + h(1.0 - p)
            }
        }
    }
}

/// Decision-tree training configuration.
#[derive(Clone, Debug)]
pub struct TreeConfig {
    /// Split criterion.
    pub criterion: Criterion,
    /// Maximum tree depth (root = depth 0); `None` = unlimited.
    pub max_depth: Option<usize>,
    /// Minimum number of examples in each child of a split.
    pub min_samples_leaf: usize,
    /// If set, each node considers only this many randomly drawn features
    /// (random-forest style decorrelation).
    pub feature_subsample: Option<usize>,
    /// RNG seed (only used when `feature_subsample` is set).
    pub seed: u64,
    /// Team 8's functional-decomposition fallback: when the best gain falls
    /// below this threshold, search unused features whose split makes one
    /// branch constant or the two branches complementary.
    pub funcdec_threshold: Option<f64>,
}

/// Upper bound on features tested per node by the functional decomposition
/// search (scanned from the last feature backwards).
const FUNCDEC_MAX_TESTS: usize = 64;

impl Default for TreeConfig {
    fn default() -> Self {
        TreeConfig {
            criterion: Criterion::Gini,
            max_depth: None,
            min_samples_leaf: 1,
            feature_subsample: None,
            seed: 0,
            funcdec_threshold: None,
        }
    }
}

/// One node of the tree arena.
#[derive(Clone, Debug)]
pub(crate) enum Node {
    Leaf {
        value: bool,
        pos: u32,
        neg: u32,
    },
    Split {
        feature: u32,
        /// Child taken when the feature evaluates to 0.
        lo: u32,
        /// Child taken when the feature evaluates to 1.
        hi: u32,
        pos: u32,
        neg: u32,
    },
}

/// A trained binary decision tree over a [`FeatureSet`].
///
/// See the crate docs for a training example.
#[derive(Clone, Debug)]
pub struct DecisionTree {
    pub(crate) nodes: Vec<Node>,
    pub(crate) root: u32,
    pub(crate) features: FeatureSet,
    importance: Vec<f64>,
}

impl DecisionTree {
    /// Trains on a dataset using the raw inputs as decision variables.
    pub fn train(ds: &Dataset, cfg: &TreeConfig) -> Self {
        Self::train_with_features(ds, FeatureSet::plain(ds.num_inputs()), cfg)
    }

    /// Trains with an explicit (possibly composite) feature set.
    pub fn train_with_features(ds: &Dataset, features: FeatureSet, cfg: &TreeConfig) -> Self {
        let matrix = FeatureMatrix::build(&features, ds);
        Self::train_on_matrix(&matrix, features, cfg)
    }

    /// Trains on a pre-materialized feature matrix (avoids recomputing
    /// columns across fringe iterations).
    pub fn train_on_matrix(matrix: &FeatureMatrix, features: FeatureSet, cfg: &TreeConfig) -> Self {
        let mut trainer = Trainer {
            matrix,
            cfg,
            rng: StdRng::seed_from_u64(cfg.seed),
            nodes: Vec::new(),
            importance: vec![0.0; features.len()],
            total: matrix.num_examples().max(1) as f64,
            scratch: Vec::new(),
        };
        let all = matrix.full_mask();
        let used = vec![false; features.len()];
        let root = trainer.grow(&all, matrix.num_examples(), 0, &used);
        DecisionTree {
            nodes: trainer.nodes,
            root,
            features,
            importance: trainer.importance,
        }
    }

    /// Predicts the label of one pattern.
    pub fn predict(&self, p: &Pattern) -> bool {
        let mut at = self.root;
        loop {
            match &self.nodes[at as usize] {
                Node::Leaf { value, .. } => return *value,
                Node::Split {
                    feature, lo, hi, ..
                } => {
                    at = if self.features.eval(*feature as usize, p) {
                        *hi
                    } else {
                        *lo
                    };
                }
            }
        }
    }

    /// Accuracy over a dataset, evaluated column-wise: the tree is applied
    /// to the dataset's cached bit columns (building composite columns
    /// word-parallel when needed) and compared to the packed labels by
    /// popcount.
    pub fn accuracy(&self, ds: &Dataset) -> f64 {
        if ds.is_empty() {
            return 1.0;
        }
        let bits = ds.bit_columns();
        if self.features.is_plain() {
            let preds = self.predict_packed(|f| bits.column(f), bits.full_mask());
            bits.accuracy_of_packed(&preds)
        } else {
            let matrix = FeatureMatrix::build(&self.features, ds);
            let preds = self.predict_columns(&matrix);
            bits.accuracy_of_packed(&preds)
        }
    }

    /// Packed predictions over a pre-materialized feature matrix (bit `k`
    /// of word `k / 64` = prediction for example `k`).
    pub fn predict_columns(&self, matrix: &FeatureMatrix) -> Vec<u64> {
        self.predict_packed(|f| matrix.column(f), matrix.full_mask())
    }

    /// Packed predictions straight off a dataset's bit columns. Only valid
    /// for trees over plain (raw-variable) feature sets, where feature
    /// indices are input indices.
    ///
    /// # Panics
    ///
    /// Panics if the tree splits on composite features.
    pub fn predict_bit_columns(&self, bits: &BitColumns) -> Vec<u64> {
        assert!(
            self.features.is_plain(),
            "predict_bit_columns needs a plain feature set"
        );
        self.predict_packed(|f| bits.column(f), bits.full_mask())
    }

    /// Shared packed-prediction driver: walks the tree once, splitting a
    /// reach mask at every node (`hi = mask ∧ col`, `lo = mask ∧ ¬col`) and
    /// OR-ing positive-leaf masks into the prediction — O(nodes × words)
    /// with no per-example branching.
    fn predict_packed<'a, F: Fn(usize) -> &'a [u64]>(
        &self,
        column: F,
        full_mask: Vec<u64>,
    ) -> Vec<u64> {
        let words = full_mask.len();
        let mut preds = vec![0u64; words];
        let mut stack = vec![(self.root, full_mask)];
        while let Some((at, mask)) = stack.pop() {
            match &self.nodes[at as usize] {
                Node::Leaf { value, .. } => {
                    if *value {
                        for (p, m) in preds.iter_mut().zip(&mask) {
                            *p |= m;
                        }
                    }
                }
                Node::Split {
                    feature, lo, hi, ..
                } => {
                    let col = column(*feature as usize);
                    let hi_mask: Vec<u64> = mask.iter().zip(col).map(|(&m, &c)| m & c).collect();
                    let lo_mask: Vec<u64> = mask.iter().zip(col).map(|(&m, &c)| m & !c).collect();
                    if hi_mask.iter().any(|&w| w != 0) {
                        stack.push((*hi, hi_mask));
                    }
                    if lo_mask.iter().any(|&w| w != 0) {
                        stack.push((*lo, lo_mask));
                    }
                }
            }
        }
        preds
    }

    /// Number of internal (split) nodes.
    pub fn split_count(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| matches!(n, Node::Split { .. }))
            .count()
    }

    /// Number of leaves.
    pub fn leaf_count(&self) -> usize {
        self.nodes.len() - self.split_count()
    }

    /// Depth of the tree (a lone leaf has depth 0).
    pub fn depth(&self) -> usize {
        fn rec(nodes: &[Node], at: u32) -> usize {
            match &nodes[at as usize] {
                Node::Leaf { .. } => 0,
                Node::Split { lo, hi, .. } => 1 + rec(nodes, *lo).max(rec(nodes, *hi)),
            }
        }
        rec(&self.nodes, self.root)
    }

    /// The feature set the tree splits on.
    pub fn features(&self) -> &FeatureSet {
        &self.features
    }

    /// Total impurity-gain importance accumulated per feature during
    /// training (weighted by node size; higher = more useful).
    pub fn importance(&self) -> &[f64] {
        &self.importance
    }

    /// Compiles the tree to an AIG: every split becomes a 2-input
    /// multiplexer (Team 10's construction), composite features become their
    /// defining gates.
    pub fn to_aig(&self) -> Aig {
        let mut aig = Aig::new(self.features.num_inputs());
        let mut memo = vec![None; self.features.len()];
        let out = self.build_lit(self.root, &mut aig, &mut memo);
        aig.add_output(out);
        aig.cleanup();
        aig
    }

    fn build_lit(&self, at: u32, aig: &mut Aig, memo: &mut [Option<Lit>]) -> Lit {
        match &self.nodes[at as usize] {
            Node::Leaf { value, .. } => Lit::constant(*value),
            Node::Split {
                feature, lo, hi, ..
            } => {
                let sel = self.features.to_lit(*feature as usize, aig, memo);
                let l = self.build_lit(*lo, aig, memo);
                let h = self.build_lit(*hi, aig, memo);
                aig.mux(sel, h, l)
            }
        }
    }

    /// Extracts the sum-of-products of the tree's positive leaves. Only
    /// possible when all features are raw variables; returns `None` when the
    /// tree splits on composites.
    pub fn to_cover(&self) -> Option<Cover> {
        if !self.features.is_plain() {
            return None;
        }
        let mut cover = Cover::new(self.features.num_inputs());
        let mut path = Cube::universe(self.features.num_inputs());
        self.collect_cubes(self.root, &mut path, &mut cover);
        Some(cover)
    }

    fn collect_cubes(&self, at: u32, path: &mut Cube, cover: &mut Cover) {
        match &self.nodes[at as usize] {
            Node::Leaf { value, .. } => {
                if *value {
                    cover.push(path.clone());
                }
            }
            Node::Split {
                feature, lo, hi, ..
            } => {
                let var = *feature as usize;
                let saved = path.get(var);
                path.set(var, Trit::Zero);
                self.collect_cubes(*lo, path, cover);
                path.set(var, Trit::One);
                self.collect_cubes(*hi, path, cover);
                path.set(var, saved);
            }
        }
    }
}

struct Trainer<'a> {
    matrix: &'a FeatureMatrix,
    cfg: &'a TreeConfig,
    rng: StdRng,
    nodes: Vec<Node>,
    importance: Vec<f64>,
    total: f64,
    /// Free list of mask buffers recycled across split nodes.
    scratch: Vec<Vec<u64>>,
}

impl Trainer<'_> {
    /// Grows a node over the examples selected by `mask` (packed,
    /// `count` set bits). All counting is popcount over column words.
    fn grow(&mut self, mask: &[u64], count: usize, depth: usize, used: &[bool]) -> u32 {
        let pos = BitColumns::count_and(mask, self.matrix.labels()) as usize;
        let neg = count - pos;
        let make_leaf = |nodes: &mut Vec<Node>| {
            nodes.push(Node::Leaf {
                value: pos > neg,
                pos: pos as u32,
                neg: neg as u32,
            });
            (nodes.len() - 1) as u32
        };

        if pos == 0 || neg == 0 || self.cfg.max_depth.is_some_and(|d| depth >= d) {
            return make_leaf(&mut self.nodes);
        }

        let candidates = self.candidate_features(used);
        let best = self.best_split(mask, count, pos, &candidates);
        let chosen = match (self.cfg.funcdec_threshold, best) {
            // Weak (or missing) best split: prefer a decomposition split,
            // falling back to the weak one if none is found.
            (Some(tau), Some((f, g))) if g < tau => {
                self.funcdec_split(mask, count, pos, used).or(Some((f, g)))
            }
            (Some(_), None) => self.funcdec_split(mask, count, pos, used),
            (None, b) => b,
            (_, b) => b,
        };

        let Some((feature, gain)) = chosen else {
            return make_leaf(&mut self.nodes);
        };

        let mut lo_mask = self.scratch.pop().unwrap_or_default();
        let mut hi_mask = self.scratch.pop().unwrap_or_default();
        self.matrix
            .split_mask_into(feature, mask, &mut lo_mask, &mut hi_mask);
        let hi_n = BitColumns::count_ones(&hi_mask) as usize;
        let lo_n = count - hi_n;
        if lo_n < self.cfg.min_samples_leaf || hi_n < self.cfg.min_samples_leaf {
            self.scratch.push(lo_mask);
            self.scratch.push(hi_mask);
            return make_leaf(&mut self.nodes);
        }

        self.importance[feature] += gain * count as f64 / self.total;

        let mut child_used = used.to_vec();
        child_used[feature] = true;
        let lo = self.grow(&lo_mask, lo_n, depth + 1, &child_used);
        let hi = self.grow(&hi_mask, hi_n, depth + 1, &child_used);
        self.scratch.push(lo_mask);
        self.scratch.push(hi_mask);
        self.nodes.push(Node::Split {
            feature: feature as u32,
            lo,
            hi,
            pos: pos as u32,
            neg: neg as u32,
        });
        (self.nodes.len() - 1) as u32
    }

    fn candidate_features(&mut self, used: &[bool]) -> Vec<usize> {
        let all: Vec<usize> = (0..self.matrix.num_features()).collect();
        match self.cfg.feature_subsample {
            Some(k) if k < all.len() => {
                let mut pool = all;
                pool.shuffle(&mut self.rng);
                let mut picked: Vec<usize> = pool.into_iter().take(k).collect();
                picked.sort_unstable();
                picked
            }
            _ => {
                let _ = used; // `used` only constrains the funcdec search
                all
            }
        }
    }

    /// The best gain split among candidates, if any clears the thresholds
    /// (and, when funcdec is enabled, the funcdec trigger threshold).
    /// Per-candidate cost is two popcount passes over the subset mask.
    fn best_split(
        &mut self,
        mask: &[u64],
        count: usize,
        pos: usize,
        candidates: &[usize],
    ) -> Option<(usize, f64)> {
        let criterion = self.cfg.criterion;
        let neg = count - pos;
        let parent = criterion.impurity(pos as f64, neg as f64);
        let n = count as f64;
        let labels = self.matrix.labels();
        let mut best: Option<(usize, f64)> = None;
        for &f in candidates {
            let col = self.matrix.column(f);
            let hi_n = BitColumns::count_and(mask, col) as usize;
            let lo_n = count - hi_n;
            if hi_n == 0 || lo_n == 0 {
                continue;
            }
            let hi_pos = BitColumns::count_and3(mask, col, labels) as usize;
            let lo_pos = pos - hi_pos;
            let child = (hi_n as f64 / n)
                * criterion.impurity(hi_pos as f64, (hi_n - hi_pos) as f64)
                + (lo_n as f64 / n) * criterion.impurity(lo_pos as f64, (lo_n - lo_pos) as f64);
            let gain = parent - child;
            // Any gain down to zero is accepted, as in scikit-learn's CART:
            // an impure node splits even at zero gain (which is what lets
            // complete-data trees represent parity). The tolerance absorbs
            // floating-point jitter around exactly-zero gains.
            if gain >= -1e-12 && best.is_none_or(|(_, g)| gain > g) {
                best = Some((f, gain));
            }
        }
        best
    }

    /// Team 8's functional-decomposition fallback. Scans unused features from
    /// the last index backwards (reproducing their tie-breaking quirk) for a
    /// feature whose split leaves one branch constant, or whose branches are
    /// plausibly complementary (no counterexample pair in the data).
    ///
    /// Branch counts come from mask popcounts; only the row-hash complement
    /// test still walks individual examples (it is inherently row-major:
    /// each example's whole feature vector is hashed).
    fn funcdec_split(
        &mut self,
        mask: &[u64],
        count: usize,
        pos: usize,
        used: &[bool],
    ) -> Option<(usize, f64)> {
        self.cfg.funcdec_threshold?;
        let subset = mask_indices(mask);
        // Removable XOR row hashes: masking any one feature out of a row's
        // hash is O(1), so each candidate's complement test is O(|subset|).
        let row_hashes: Vec<u64> = subset
            .iter()
            .map(|&i| {
                (0..self.matrix.num_features())
                    .map(|g| feature_mix(g, self.matrix.feature(g, i)))
                    .fold(0u64, |acc, h| acc ^ h)
            })
            .collect();
        let labels = self.matrix.labels();
        let mut tested = 0usize;
        for f in (0..self.matrix.num_features()).rev() {
            if used[f] {
                continue;
            }
            if tested >= FUNCDEC_MAX_TESTS {
                break;
            }
            tested += 1;
            let col = self.matrix.column(f);
            let hi_n = BitColumns::count_and(mask, col) as usize;
            let lo_n = count - hi_n;
            if hi_n == 0 || lo_n == 0 {
                continue;
            }
            let hi_pos = BitColumns::count_and3(mask, col, labels) as usize;
            let lo_pos = pos - hi_pos;
            let lo_neg = lo_n - lo_pos;
            let hi_neg = hi_n - hi_pos;
            let branch_constant = hi_pos == 0 || hi_neg == 0 || lo_pos == 0 || lo_neg == 0;
            if branch_constant || self.branches_plausibly_complementary(&subset, f, &row_hashes) {
                return Some((f, 0.0));
            }
        }
        None
    }

    /// "One branch is the complement of the other": aggressively assumed
    /// unless two examples identical except on feature `f` carry the *same*
    /// label (a counterexample).
    fn branches_plausibly_complementary(
        &self,
        subset: &[usize],
        f: usize,
        row_hashes: &[u64],
    ) -> bool {
        use std::collections::HashMap;
        // Key = example's feature vector with feature f masked out.
        let mut seen: HashMap<u64, (bool, bool)> = HashMap::new();
        for (k, &i) in subset.iter().enumerate() {
            let side = self.matrix.feature(f, i);
            let hash = row_hashes[k] ^ feature_mix(f, side);
            let label = self.matrix.label(i);
            match seen.get(&hash) {
                Some(&(other_side, other_label)) if other_side != side => {
                    if other_label == label {
                        return false; // counterexample: same point, same label
                    }
                }
                _ => {
                    seen.insert(hash, (side, label));
                }
            }
        }
        true
    }
}

/// Example indices selected by a packed mask, ascending.
fn mask_indices(mask: &[u64]) -> Vec<usize> {
    let mut out = Vec::new();
    for (w, &word) in mask.iter().enumerate() {
        let mut rest = word;
        while rest != 0 {
            out.push(w * 64 + rest.trailing_zeros() as usize);
            rest &= rest - 1;
        }
    }
    out
}

/// SplitMix64-style hash of a `(feature, value)` pair, used for removable
/// XOR row hashing in the functional-decomposition search.
fn feature_mix(feature: usize, value: bool) -> u64 {
    let mut z = (feature as u64)
        .wrapping_mul(2)
        .wrapping_add(u64::from(value))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full_dataset(f: impl Fn(u64) -> bool, nv: usize) -> Dataset {
        let mut ds = Dataset::new(nv);
        for m in 0..(1u64 << nv) {
            ds.push(Pattern::from_index(m, nv), f(m));
        }
        ds
    }

    #[test]
    fn learns_conjunction_exactly() {
        let ds = full_dataset(|m| m & 0b11 == 0b11, 4);
        let tree = DecisionTree::train(&ds, &TreeConfig::default());
        assert!((tree.accuracy(&ds) - 1.0).abs() < 1e-12);
        assert!(tree.depth() <= 2);
    }

    #[test]
    fn max_depth_limits_growth() {
        let ds = full_dataset(|m| m.count_ones() % 2 == 1, 5); // parity: hard
        let cfg = TreeConfig {
            max_depth: Some(2),
            ..TreeConfig::default()
        };
        let tree = DecisionTree::train(&ds, &cfg);
        assert!(tree.depth() <= 2);
    }

    #[test]
    fn parity_needs_full_depth() {
        let ds = full_dataset(|m| m.count_ones() % 2 == 1, 4);
        let tree = DecisionTree::train(&ds, &TreeConfig::default());
        // A DT can represent parity but only by splitting on everything.
        assert!((tree.accuracy(&ds) - 1.0).abs() < 1e-12);
        assert_eq!(tree.depth(), 4);
    }

    #[test]
    fn to_aig_matches_predictions() {
        let ds = full_dataset(|m| (m % 5) < 2, 5);
        let tree = DecisionTree::train(&ds, &TreeConfig::default());
        let aig = tree.to_aig();
        for m in 0..32u64 {
            let p = Pattern::from_index(m, 5);
            let bits: Vec<bool> = p.iter().collect();
            assert_eq!(aig.eval(&bits)[0], tree.predict(&p), "mismatch at {m:05b}");
        }
    }

    #[test]
    fn to_cover_matches_predictions() {
        let ds = full_dataset(|m| (m ^ (m >> 2)) & 1 == 1, 4);
        let tree = DecisionTree::train(&ds, &TreeConfig::default());
        let cover = tree.to_cover().expect("plain features");
        for m in 0..16u64 {
            let p = Pattern::from_index(m, 4);
            assert_eq!(cover.eval(&p), tree.predict(&p));
        }
    }

    #[test]
    fn min_samples_leaf_prevents_tiny_leaves() {
        let ds = full_dataset(|m| m == 0, 4); // one positive example
        let cfg = TreeConfig {
            min_samples_leaf: 2,
            ..TreeConfig::default()
        };
        let tree = DecisionTree::train(&ds, &cfg);
        // The lone positive cannot be isolated; the tree collapses.
        assert!(tree.split_count() < 4);
    }

    #[test]
    fn importance_flags_relevant_vars() {
        // f depends only on x1 and x3.
        let ds = full_dataset(|m| ((m >> 1) ^ (m >> 3)) & 1 == 1, 5);
        let tree = DecisionTree::train(&ds, &TreeConfig::default());
        let imp = tree.importance();
        assert!(imp[1] + imp[3] > 0.5 * imp.iter().sum::<f64>());
        assert!(imp[0] < 1e-9 || imp[0] < imp[1]);
    }

    #[test]
    fn feature_subsample_is_deterministic_under_seed() {
        let ds = full_dataset(|m| (m * 7 + 3) % 5 < 2, 6);
        let cfg = TreeConfig {
            feature_subsample: Some(2),
            seed: 42,
            ..TreeConfig::default()
        };
        let a = DecisionTree::train(&ds, &cfg);
        let b = DecisionTree::train(&ds, &cfg);
        for m in 0..64u64 {
            let p = Pattern::from_index(m, 6);
            assert_eq!(a.predict(&p), b.predict(&p));
        }
    }

    #[test]
    fn funcdec_recovers_xor_like_split() {
        // XOR of x0, x1 with two noise variables: plain info gain is ~0 for
        // every single variable at the root, so an ordinary stump gives up;
        // funcdec's complement test still finds a usable split.
        let ds = full_dataset(|m| (m ^ (m >> 1)) & 1 == 1, 4);
        let plain_stump = DecisionTree::train(
            &ds,
            &TreeConfig {
                max_depth: Some(1),
                ..TreeConfig::default()
            },
        );
        // A depth-1 tree can't beat chance on XOR data regardless.
        assert!(plain_stump.accuracy(&ds) <= 0.5 + 1e-9);

        let cfg = TreeConfig {
            funcdec_threshold: Some(0.05),
            criterion: Criterion::Entropy,
            ..TreeConfig::default()
        };
        let tree = DecisionTree::train(&ds, &cfg);
        assert!((tree.accuracy(&ds) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_dataset_yields_constant_leaf() {
        let ds = Dataset::new(3);
        let tree = DecisionTree::train(&ds, &TreeConfig::default());
        assert_eq!(tree.split_count(), 0);
        assert!(!tree.predict(&Pattern::from_index(0, 3)));
    }

    #[test]
    fn leaf_and_split_counts_are_consistent() {
        let ds = full_dataset(|m| m % 3 == 0, 5);
        let tree = DecisionTree::train(&ds, &TreeConfig::default());
        assert_eq!(tree.leaf_count(), tree.split_count() + 1);
    }
}
