//! Small multi-layer perceptrons with logic synthesis.
//!
//! Several teams trained MLPs and then had to turn floating-point networks
//! into AIGs under the 5000-node budget. This crate reproduces that tool
//! chain:
//!
//! * [`Mlp`] — dense feed-forward networks with sigmoid, ReLU or **sine**
//!   activations (Team 8's periodic activation for parity-like functions),
//!   trained on the logistic loss by SGD over shuffled minibatches. A
//!   batch is not averaged: each example's gradient is applied on its own,
//!   with step `learning_rate / |batch|`.
//! * [`prune_to_fanin`] — Team 3's magnitude-based connection pruning with
//!   retraining, iterated until every neuron has at most `max_fanin` live
//!   inputs (they used 12).
//! * [`Mlp::to_aig_quantized`] — neuron-to-LUT synthesis: each neuron's
//!   activation is rounded to a bit and enumerated into a truth table over
//!   its live binary inputs (Chatterjee's LUT conversion as used by Team 3).
//! * [`Mlp::to_truth_table`] — full input enumeration for small networks
//!   (Team 8's approach for benchmarks with under ~20 inputs).
//! * [`Mlp::input_importance`] — first-layer weight magnitudes, Team 5's
//!   NN-guided feature selection.
//!
//! # Numerics
//!
//! The inputs are Boolean, and the numeric core is laid out for that:
//!
//! * weights are stored input-major (`[in][out]`), so the forward pass adds
//!   one input's row of weights to up to 32 neuron sums at once, held in
//!   SIMD registers, and the update steps a row at a time the same way;
//! * the first layer reads the set bits of the packed
//!   [`Pattern`](lsml_pla::Pattern) words: its pre-activation is the bias
//!   plus the weights of the set inputs;
//! * a pruned weight is held at exactly `0.0`, so the sums read no mask
//!   (the update still skips pruned weights);
//! * training reuses one set of per-example buffers for a whole fit and
//!   skips the first layer's input gradient, and prediction makes one
//!   allocation per call for its two layer buffers.
//!
//! None of this changes a bit of the trained weights or the predictions.
//! Each neuron's pre-activation is its bias plus its live terms `w * x`,
//! added in ascending input order, and each example's update lands before
//! the next example's forward pass. Rust never fuses or reorders `f32`
//! operations, so the layout only decides which neurons share a register.
//! The terms the fast paths leave out (a clear input's `w * 0.0`) and add
//! (a pruned weight's `0.0 * x`) are exactly `±0.0`, which cannot change
//! these sums while weights and activations are finite. Tests pin this:
//! the crate's `pins` tests hash the predictions, input importances,
//! fanins and quantized circuits of 30 trained and pruned nets with hidden
//! layers of 4 to 40 neurons, and the workspace's
//! `mlp_team_scores_are_pinned` pins the scores of Teams 3, 4, 5 and 8 on
//! one benchmark.
//!
//! # Examples
//!
//! ```
//! use lsml_neural::{Mlp, MlpConfig};
//! use lsml_pla::{Dataset, Pattern};
//!
//! let mut ds = Dataset::new(2);
//! for m in 0..4u64 {
//!     ds.push(Pattern::from_index(m, 2), m == 0b11); // AND
//! }
//! let cfg = MlpConfig { hidden: vec![4], epochs: 400, ..MlpConfig::default() };
//! let mlp = Mlp::train(&ds, &cfg);
//! assert!(mlp.accuracy(&ds) > 0.99);
//! ```

mod mlp;
#[cfg(test)]
mod pins;
mod synth;

pub use mlp::{Activation, Mlp, MlpConfig};
pub use synth::prune_to_fanin;
