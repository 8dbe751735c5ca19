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
//!   (Team 8's approach for benchmarks with under ~20 inputs, and Team 4's
//!   subspace expansion), as one depth-first walk over the input cube.
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
//!   allocation per call for its two layer buffers;
//! * the sigmoid, in training and prediction alike, is `1 / (1 + e^−x)`
//!   over the crate's own `expf`: a port of glibc 2.36's `expf` as glibc
//!   builds it for FMA hosts. It computes in `f64` with a fixed sequence of
//!   correctly rounded operations (four fused multiply-adds among them)
//!   and glibc's 32-entry `2^(i/32)` table, so it returns glibc's bits on
//!   any host, and where glibc runs on an FMA host those are `f32::exp`'s.
//!   The crate's tests pin the port's outputs on every 65,537th input and
//!   the boundaries on every host, and on x86_64 Linux with glibc and FMA
//!   compare those inputs (and, in an ignored test, all 2^32) with
//!   `f32::exp`. A layer's sigmoids run as one slice: a first pass
//!   looks for a value with `|x| ≥ 88` or NaN, and only then does the slice
//!   take the checked scalar path; otherwise the main path runs without a
//!   branch and vectorizes;
//! * [`Mlp::to_truth_table`] walks the input cube depth first, deciding
//!   input 0 first, and keeps the first layer's sums of each prefix, so a
//!   vertex's first-layer sum is the bias plus the rows of its set inputs
//!   added in ascending order, as in `predict`. The 16 vertices that differ
//!   only in the last four inputs (all `2^n` of a net with `n < 4` inputs)
//!   are evaluated together, one per lane:
//!   each lane adds its set ones of those inputs (in ascending order), and
//!   every later layer adds each neuron's terms in ascending input order
//!   per lane.
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
//! one benchmark. The cube walk is checked against `predict` on every
//! vertex of sigmoid, ReLU and sine nets over 1 to 16 inputs, and of one
//! net whose pre-activations pass ±88. Off FMA hosts the port still gives
//! these pins' bits, but the host's `f32::exp` may differ from it.
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

mod expf;
mod mlp;
#[cfg(test)]
mod pins;
mod synth;

pub use mlp::{Activation, Mlp, MlpConfig};
pub use synth::prune_to_fanin;
