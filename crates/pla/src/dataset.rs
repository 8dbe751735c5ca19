//! Labelled minterm datasets (training / validation / test sets).

use std::fmt;
use std::sync::{Arc, OnceLock};

use rand::seq::SliceRandom;
use rand::Rng;

use crate::columns::BitColumns;
use crate::cover::Cover;
use crate::cube::Cube;
use crate::pattern::Pattern;

/// A labelled set of minterms of a single-output Boolean function: the
/// machine-learning view of an incompletely specified function, where the
/// examples form the care set.
///
/// # Examples
///
/// ```
/// use lsml_pla::{Dataset, Pattern};
///
/// let mut ds = Dataset::new(2);
/// ds.push(Pattern::from_index(0b01, 2), true);
/// ds.push(Pattern::from_index(0b10, 2), true);
/// ds.push(Pattern::from_index(0b11, 2), false);
/// assert_eq!(ds.len(), 3);
/// assert_eq!(ds.count_positive(), 2);
/// ```
#[derive(Clone, Default)]
pub struct Dataset {
    num_inputs: usize,
    patterns: Vec<Pattern>,
    outputs: Vec<bool>,
    /// Lazily built transposed bit-packed view (see [`BitColumns`]).
    /// Mutating methods reset it; equality and hashing ignore it.
    columns: OnceLock<Arc<BitColumns>>,
}

impl PartialEq for Dataset {
    fn eq(&self, other: &Self) -> bool {
        self.num_inputs == other.num_inputs
            && self.patterns == other.patterns
            && self.outputs == other.outputs
    }
}

impl Eq for Dataset {}

impl Dataset {
    /// Creates an empty dataset over `num_inputs` variables.
    pub fn new(num_inputs: usize) -> Self {
        Dataset {
            num_inputs,
            patterns: Vec::new(),
            outputs: Vec::new(),
            columns: OnceLock::new(),
        }
    }

    /// Creates a dataset from parallel pattern/label vectors.
    ///
    /// # Panics
    ///
    /// Panics if the vectors have different lengths or a pattern has the
    /// wrong arity.
    pub fn from_parts(num_inputs: usize, patterns: Vec<Pattern>, outputs: Vec<bool>) -> Self {
        assert_eq!(patterns.len(), outputs.len(), "length mismatch");
        for p in &patterns {
            assert_eq!(p.len(), num_inputs, "pattern arity mismatch");
        }
        Dataset {
            num_inputs,
            patterns,
            outputs,
            columns: OnceLock::new(),
        }
    }

    /// Number of input variables.
    #[inline]
    pub fn num_inputs(&self) -> usize {
        self.num_inputs
    }

    /// Number of examples.
    #[inline]
    pub fn len(&self) -> usize {
        self.patterns.len()
    }

    /// Whether the dataset has no examples.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.patterns.is_empty()
    }

    /// Appends an example.
    ///
    /// # Panics
    ///
    /// Panics if the pattern arity differs from `num_inputs()`.
    pub fn push(&mut self, pattern: Pattern, output: bool) {
        assert_eq!(pattern.len(), self.num_inputs, "pattern arity mismatch");
        self.columns.take();
        self.patterns.push(pattern);
        self.outputs.push(output);
    }

    /// The transposed, bit-packed view of this dataset (one packed column
    /// per input variable plus a packed label column), built on first use
    /// and cached until the dataset is mutated. Every popcount-based hot
    /// path (feature scoring, split counting, column-fed AIG evaluation)
    /// starts here.
    pub fn bit_columns(&self) -> Arc<BitColumns> {
        self.columns
            .get_or_init(|| Arc::new(BitColumns::build(self)))
            .clone()
    }

    /// The input pattern of example `i`.
    #[inline]
    pub fn pattern(&self, i: usize) -> &Pattern {
        &self.patterns[i]
    }

    /// The label of example `i`.
    #[inline]
    pub fn output(&self, i: usize) -> bool {
        self.outputs[i]
    }

    /// All patterns.
    #[inline]
    pub fn patterns(&self) -> &[Pattern] {
        &self.patterns
    }

    /// All labels.
    #[inline]
    pub fn outputs(&self) -> &[bool] {
        &self.outputs
    }

    /// Iterates over `(pattern, label)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&Pattern, bool)> + '_ {
        self.patterns.iter().zip(self.outputs.iter().copied())
    }

    /// Number of positive examples.
    pub fn count_positive(&self) -> usize {
        self.outputs.iter().filter(|&&o| o).count()
    }

    /// Fraction of positive examples, or 0.5 on an empty set.
    pub fn positive_rate(&self) -> f64 {
        if self.is_empty() {
            0.5
        } else {
            self.count_positive() as f64 / self.len() as f64
        }
    }

    /// The majority label (ties go to `false`).
    pub fn majority(&self) -> bool {
        2 * self.count_positive() > self.len()
    }

    /// Merges another dataset into this one.
    ///
    /// # Panics
    ///
    /// Panics if the arities differ.
    pub fn extend_from(&mut self, other: &Dataset) {
        assert_eq!(other.num_inputs, self.num_inputs, "arity mismatch");
        self.columns.take();
        self.patterns.extend_from_slice(&other.patterns);
        self.outputs.extend_from_slice(&other.outputs);
    }

    /// The concatenation of two datasets.
    ///
    /// # Panics
    ///
    /// Panics if the arities differ.
    pub fn merged(&self, other: &Dataset) -> Dataset {
        let mut out = self.clone();
        out.extend_from(other);
        out
    }

    /// The subset selected by example indices.
    pub fn subset(&self, indices: &[usize]) -> Dataset {
        let mut out = Dataset::new(self.num_inputs);
        for &i in indices {
            out.push(self.patterns[i].clone(), self.outputs[i]);
        }
        out
    }

    /// Splits into two datasets with `ratio` of the examples (rounded down)
    /// in the first, preserving the positive/negative label proportions
    /// (stratified split). Order within each side follows a random shuffle.
    ///
    /// # Panics
    ///
    /// Panics if `ratio` is not within `0.0..=1.0`.
    pub fn stratified_split<R: Rng + ?Sized>(&self, ratio: f64, rng: &mut R) -> (Dataset, Dataset) {
        assert!((0.0..=1.0).contains(&ratio), "ratio must be in [0, 1]");
        let mut pos: Vec<usize> = Vec::new();
        let mut neg: Vec<usize> = Vec::new();
        for (i, &o) in self.outputs.iter().enumerate() {
            if o {
                pos.push(i);
            } else {
                neg.push(i);
            }
        }
        pos.shuffle(rng);
        neg.shuffle(rng);
        let take_pos = (pos.len() as f64 * ratio).floor() as usize;
        let take_neg = (neg.len() as f64 * ratio).floor() as usize;
        let mut first: Vec<usize> = pos[..take_pos].to_vec();
        first.extend_from_slice(&neg[..take_neg]);
        let mut second: Vec<usize> = pos[take_pos..].to_vec();
        second.extend_from_slice(&neg[take_neg..]);
        first.shuffle(rng);
        second.shuffle(rng);
        (self.subset(&first), self.subset(&second))
    }

    /// Draws a bootstrap sample (with replacement) of `n` examples.
    pub fn bootstrap<R: Rng + ?Sized>(&self, n: usize, rng: &mut R) -> Dataset {
        let mut out = Dataset::new(self.num_inputs);
        for _ in 0..n {
            let i = rng.gen_range(0..self.len());
            out.push(self.patterns[i].clone(), self.outputs[i]);
        }
        out
    }

    /// Splits into `k` roughly equal folds (for cross-validation), shuffled.
    pub fn folds<R: Rng + ?Sized>(&self, k: usize, rng: &mut R) -> Vec<Dataset> {
        let mut indices: Vec<usize> = (0..self.len()).collect();
        indices.shuffle(rng);
        let mut folds = vec![Dataset::new(self.num_inputs); k];
        for (j, &i) in indices.iter().enumerate() {
            folds[j % k].push(self.patterns[i].clone(), self.outputs[i]);
        }
        folds
    }

    /// Accuracy of a predictor closure over this dataset (fraction of
    /// examples where `predict(pattern) == label`). Returns 1.0 on an empty
    /// dataset.
    pub fn accuracy_of(&self, mut predict: impl FnMut(&Pattern) -> bool) -> f64 {
        if self.is_empty() {
            return 1.0;
        }
        let correct = self.iter().filter(|(p, o)| predict(p) == *o).count();
        correct as f64 / self.len() as f64
    }

    /// Accuracy of a precomputed prediction vector.
    ///
    /// # Panics
    ///
    /// Panics if `predictions.len() != len()`.
    pub fn accuracy_of_slice(&self, predictions: &[bool]) -> f64 {
        assert_eq!(predictions.len(), self.len(), "prediction count mismatch");
        if self.is_empty() {
            return 1.0;
        }
        let correct = predictions
            .iter()
            .zip(self.outputs.iter())
            .filter(|(a, b)| a == b)
            .count();
        correct as f64 / self.len() as f64
    }

    /// Onset cover: one full-care cube per positive example.
    pub fn onset_cover(&self) -> Cover {
        let mut c = Cover::new(self.num_inputs);
        for (p, o) in self.iter() {
            if o {
                c.push(Cube::from_pattern(p));
            }
        }
        c
    }

    /// Offset cover: one full-care cube per negative example.
    pub fn offset_cover(&self) -> Cover {
        let mut c = Cover::new(self.num_inputs);
        for (p, o) in self.iter() {
            if !o {
                c.push(Cube::from_pattern(p));
            }
        }
        c
    }

    /// Projects the dataset onto a subset of the input variables.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range.
    pub fn project(&self, vars: &[usize]) -> Dataset {
        let mut out = Dataset::new(vars.len());
        for (p, o) in self.iter() {
            out.push(p.project(vars), o);
        }
        out
    }
}

impl fmt::Debug for Dataset {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Dataset({} inputs, {} examples, {} positive)",
            self.num_inputs,
            self.len(),
            self.count_positive()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn xor_dataset() -> Dataset {
        let mut ds = Dataset::new(2);
        for i in 0..4u64 {
            ds.push(Pattern::from_index(i, 2), i.count_ones() % 2 == 1);
        }
        ds
    }

    #[test]
    fn push_and_counts() {
        let ds = xor_dataset();
        assert_eq!(ds.len(), 4);
        assert_eq!(ds.count_positive(), 2);
        assert!((ds.positive_rate() - 0.5).abs() < 1e-12);
        assert!(!ds.majority());
    }

    #[test]
    fn accuracy_of_perfect_and_constant() {
        let ds = xor_dataset();
        let perfect = ds.accuracy_of(|p| p.count_ones() % 2 == 1);
        assert!((perfect - 1.0).abs() < 1e-12);
        let constant = ds.accuracy_of(|_| false);
        assert!((constant - 0.5).abs() < 1e-12);
    }

    #[test]
    fn stratified_split_preserves_ratio() {
        let mut ds = Dataset::new(4);
        let mut rng = StdRng::seed_from_u64(3);
        for i in 0..1000u64 {
            ds.push(Pattern::from_index(i % 16, 4), i % 4 == 0); // 25% positive
        }
        let (a, b) = ds.stratified_split(0.8, &mut rng);
        assert_eq!(a.len() + b.len(), 1000);
        assert!((a.positive_rate() - 0.25).abs() < 0.02);
        assert!((b.positive_rate() - 0.25).abs() < 0.02);
    }

    #[test]
    fn onset_offset_covers_partition() {
        let ds = xor_dataset();
        let on = ds.onset_cover();
        let off = ds.offset_cover();
        assert_eq!(on.len(), 2);
        assert_eq!(off.len(), 2);
        for (p, o) in ds.iter() {
            assert_eq!(on.eval(p), o);
            assert_eq!(off.eval(p), !o);
        }
    }

    #[test]
    fn folds_cover_everything() {
        let ds = xor_dataset();
        let mut rng = StdRng::seed_from_u64(1);
        let folds = ds.folds(3, &mut rng);
        assert_eq!(folds.iter().map(Dataset::len).sum::<usize>(), 4);
    }

    #[test]
    fn project_reduces_arity() {
        let ds = xor_dataset();
        let p = ds.project(&[1]);
        assert_eq!(p.num_inputs(), 1);
        assert_eq!(p.len(), 4);
    }

    #[test]
    fn bootstrap_has_requested_size() {
        let ds = xor_dataset();
        let mut rng = StdRng::seed_from_u64(9);
        assert_eq!(ds.bootstrap(10, &mut rng).len(), 10);
    }

    #[test]
    fn merged_concatenates() {
        let ds = xor_dataset();
        let m = ds.merged(&ds);
        assert_eq!(m.len(), 8);
        assert_eq!(m.count_positive(), 4);
    }
}
