//! Dense MLPs trained with per-example SGD steps over minibatches.

use lsml_pla::{Dataset, Pattern, TruthTable};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::expf;

/// Hidden-layer activation function.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub enum Activation {
    /// Logistic sigmoid (Team 3's 3-layer network).
    #[default]
    Sigmoid,
    /// Rectified linear unit.
    Relu,
    /// Sine — Team 8's periodic activation, good at latent-frequency
    /// functions such as parity.
    Sine,
}

impl Activation {
    /// Applies the activation to a layer's values, in place.
    fn apply_all(self, values: &mut [f32]) {
        match self {
            Activation::Sigmoid => expf::sigmoid_all(values),
            Activation::Relu => values.iter_mut().for_each(|x| *x = x.max(0.0)),
            Activation::Sine => values.iter_mut().for_each(|x| *x = x.sin()),
        }
    }

    /// Derivative expressed in terms of the pre-activation `x` and the
    /// activation value `y`.
    fn derivative(self, x: f32, y: f32) -> f32 {
        match self {
            Activation::Sigmoid => y * (1.0 - y),
            Activation::Relu => {
                if x > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::Sine => x.cos(),
        }
    }
}

/// MLP architecture and training hyper-parameters.
#[derive(Clone, Debug)]
pub struct MlpConfig {
    /// Hidden layer widths (the output layer is always a single sigmoid
    /// unit). Team 8 halved the width between layers.
    pub hidden: Vec<usize>,
    /// Hidden activation.
    pub activation: Activation,
    /// Training epochs.
    pub epochs: usize,
    /// SGD learning rate.
    pub learning_rate: f32,
    /// Minibatch size. A batch's gradients are not averaged: each
    /// example's is applied on its own, with step `learning_rate / |batch|`
    /// (see [`Mlp::train`]).
    pub batch_size: usize,
    /// L2 weight decay.
    pub weight_decay: f32,
    /// RNG seed for init and shuffling.
    pub seed: u64,
}

impl Default for MlpConfig {
    fn default() -> Self {
        MlpConfig {
            hidden: vec![32, 16],
            activation: Activation::Sigmoid,
            epochs: 60,
            learning_rate: 0.5,
            batch_size: 32,
            weight_decay: 1e-5,
            seed: 0,
        }
    }
}

/// One dense layer, stored input-major: neuron `o`'s weight on input `i`
/// lives at `weights[i * n_out + o]` ([`Dense::at`]), so one input's weights
/// to every neuron form a contiguous row. The forward pass walks the inputs
/// and adds each row to up to 32 neuron sums at once, held in SIMD
/// registers ([`by_spans`]), while each neuron still adds its terms in
/// ascending input order. The update walks the rows the same way. `mask`
/// has the same layout.
///
/// A pruned (masked) weight is held at exactly `0.0`, so the sums read no
/// mask; only the update reads it, to keep pruned weights at zero.
///
/// Terms that are exactly `±0.0` do not change a sum's bits: IEEE addition
/// of `±0.0` leaves every value but `-0.0` unchanged, and these sums are
/// never `-0.0` (each starts from a bias or `+0.0`; `x + y` is `-0.0` only
/// when both are, and a bias moves by `b - y`, which is `-0.0` only when
/// `b` is). So adding a pruned weight's `0.0 * x`, or skipping a clear
/// input's `w * 0.0`, gives the bits of the sum over just the live terms,
/// as long as every weight and activation is finite.
#[derive(Clone, Debug)]
pub(crate) struct Dense {
    pub(crate) n_in: usize,
    pub(crate) n_out: usize,
    weights: Vec<f32>,
    mask: Vec<bool>,
    pub(crate) bias: Vec<f32>,
}

impl Dense {
    fn new(n_in: usize, n_out: usize, gain: f32, rng: &mut StdRng) -> Self {
        let scale = gain * (2.0 / (n_in + n_out) as f32).sqrt();
        let mut layer = Dense {
            n_in,
            n_out,
            weights: vec![0.0; n_in * n_out],
            mask: vec![true; n_in * n_out],
            bias: vec![0.0; n_out],
        };
        // Drawn neuron by neuron, so a seed gives the same net in any layout.
        for o in 0..n_out {
            for i in 0..n_in {
                let k = layer.at(o, i);
                layer.weights[k] = (rng.gen::<f32>() * 2.0 - 1.0) * scale;
            }
        }
        layer
    }

    /// Index of neuron `o`'s weight on input `i` in `weights` and `mask`.
    #[inline]
    fn at(&self, o: usize, i: usize) -> usize {
        i * self.n_out + o
    }

    /// Neuron `o`'s weight on input `i` (`0.0` once pruned).
    pub(crate) fn weight(&self, o: usize, i: usize) -> f32 {
        self.weights[self.at(o, i)]
    }

    /// Input `i`'s weights to every neuron.
    #[inline]
    fn row(&self, i: usize) -> &[f32] {
        &self.weights[i * self.n_out..(i + 1) * self.n_out]
    }

    /// Pre-activations for real-valued inputs.
    fn forward(&self, input: &[f32], out: &mut [f32]) {
        self.accumulate(input.iter().copied().enumerate(), out);
    }

    /// [`Dense::forward`] for [`LANES`] examples at once, one per lane:
    /// each lane gets that example's bits.
    fn forward_lanes(&self, input: &[[f32; LANES]], out: &mut [[f32; LANES]]) {
        for (o, sum) in out.iter_mut().enumerate() {
            let mut acc = [self.bias[o]; LANES];
            for (i, x) in input.iter().enumerate() {
                let w = self.weight(o, i);
                acc = std::array::from_fn(|j| acc[j] + w * x[j]);
            }
            *sum = acc;
        }
    }

    /// Pre-activations for 0/1 inputs given as packed words: the bias plus
    /// the rows of the set bits, which is [`Dense::forward`] bit for bit (a
    /// set input's `w * 1.0` is `w`; a clear one's `w * 0.0` is dropped).
    pub(crate) fn forward_bits(&self, words: &[u64], out: &mut [f32]) {
        self.accumulate(set_bits(words).map(|i| (i, 1.0)), out);
    }

    /// `out[o] = bias[o] + Σ w(o, i) * x` over the `(i, x)` of `terms`,
    /// every neuron adding its terms in the order given.
    fn accumulate<T>(&self, terms: T, out: &mut [f32])
    where
        T: Iterator<Item = (usize, f32)> + Clone,
    {
        out.copy_from_slice(&self.bias);
        by_spans(
            self.n_out,
            &mut Sum {
                layer: self,
                terms,
                out,
            },
        );
    }

    /// The gradient with respect to the layer's inputs: `delta` (the
    /// gradient at the pre-activations) summed back through each input's
    /// weights, in neuron order.
    fn backward(&self, delta: &[f32], out: &mut Vec<f32>) {
        out.clear();
        out.extend((0..self.n_in).map(|i| {
            self.row(i)
                .iter()
                .zip(delta)
                .fold(0.0, |acc, (&w, &d)| acc + d * w)
        }));
    }

    /// One example's SGD update from the layer's inputs, in order, and the
    /// gradient at its pre-activations. A pruned weight's gradient is its
    /// decay term alone, which holds it at `0.0`.
    fn update<X>(&mut self, inputs: X, delta: &[f32], lr: f32, decay: f32)
    where
        X: Iterator<Item = f32> + Clone,
    {
        let n = self.n_out;
        let mut step = Step {
            weights: &mut self.weights,
            mask: &self.mask,
            n,
            inputs,
            delta,
            lr,
            decay,
        };
        by_spans(n, &mut step);
        for (b, &d) in self.bias.iter_mut().zip(delta) {
            *b -= lr * d;
        }
    }

    /// Neuron `o`'s live (unmasked) inputs, ascending.
    pub(crate) fn live(&self, o: usize) -> impl Iterator<Item = usize> + '_ {
        (0..self.n_in).filter(move |&i| self.mask[self.at(o, i)])
    }

    /// Masks neuron `o`'s weight on input `i` and zeroes it.
    pub(crate) fn prune(&mut self, o: usize, i: usize) {
        let k = self.at(o, i);
        self.mask[k] = false;
        self.weights[k] = 0.0;
    }
}

/// A walk over a layer's inputs that computes neurons `first..first + B *
/// L`, held in registers for the whole walk as `B` blocks of `L` lanes.
trait Span {
    fn run<const B: usize, const L: usize>(&mut self, first: usize);
}

/// Runs `pass` over neurons `0..n`, widest spans first: four blocks of
/// eight neurons while they last (eight `f32` fill a 256-bit register),
/// then three, two or one block, then at most one span each of 4, 2 and 1
/// neurons. A layer of up to 32 neurons walks its inputs once.
fn by_spans(n: usize, pass: &mut impl Span) {
    fn run<const B: usize, const L: usize>(pass: &mut impl Span, first: usize) -> usize {
        pass.run::<B, L>(first);
        B * L
    }
    let mut first = 0;
    while first < n {
        first += match n - first {
            32.. => run::<4, 8>(pass, first),
            24.. => run::<3, 8>(pass, first),
            16.. => run::<2, 8>(pass, first),
            8.. => run::<1, 8>(pass, first),
            4.. => run::<1, 4>(pass, first),
            2.. => run::<1, 2>(pass, first),
            _ => run::<1, 1>(pass, first),
        };
    }
}

/// `B` blocks of `L` values, from `first` on.
fn blocks<T, const B: usize, const L: usize>(values: &[T], first: usize) -> &[[T; L]; B] {
    let (blocks, _) = values[first..first + B * L].as_chunks::<L>();
    blocks.try_into().expect("B blocks")
}

/// [`blocks`], mutable.
fn blocks_mut<T, const B: usize, const L: usize>(
    values: &mut [T],
    first: usize,
) -> &mut [[T; L]; B] {
    let (blocks, _) = values[first..first + B * L].as_chunks_mut::<L>();
    blocks.try_into().expect("B blocks")
}

/// [`Dense::accumulate`]'s walk: each term's row added to the sums.
struct Sum<'a, T> {
    layer: &'a Dense,
    terms: T,
    out: &'a mut [f32],
}

impl<T: Iterator<Item = (usize, f32)> + Clone> Span for Sum<'_, T> {
    #[inline(always)]
    fn run<const B: usize, const L: usize>(&mut self, first: usize) {
        let out = blocks_mut::<_, B, L>(self.out, first);
        let mut acc = *out;
        for (i, x) in self.terms.clone() {
            let row = blocks::<_, B, L>(self.layer.row(i), first);
            for k in 0..B {
                let sum = acc[k];
                acc[k] = std::array::from_fn(|j| sum[j] + row[k][j] * x);
            }
        }
        *out = acc;
    }
}

/// [`Dense::update`]'s walk: each input's row of weights stepped.
struct Step<'a, X> {
    weights: &'a mut [f32],
    mask: &'a [bool],
    n: usize,
    inputs: X,
    delta: &'a [f32],
    lr: f32,
    decay: f32,
}

impl<X: Iterator<Item = f32> + Clone> Span for Step<'_, X> {
    #[inline(always)]
    fn run<const B: usize, const L: usize>(&mut self, first: usize) {
        let (lr, decay) = (self.lr, self.decay);
        // A copy in registers: the weight stores could alias the slice.
        let delta = *blocks::<_, B, L>(self.delta, first);
        let n = self.n;
        for (i, x) in self.inputs.clone().enumerate() {
            let w = blocks_mut::<_, B, L>(self.weights, i * n + first);
            let live = blocks::<_, B, L>(self.mask, i * n + first);
            for k in 0..B {
                let old = w[k];
                w[k] = std::array::from_fn(|j| {
                    let g = if live[k][j] { delta[k][j] * x } else { 0.0 };
                    old[j] - lr * (g + decay * old[j])
                });
            }
        }
    }
}

/// The indices of the set bits of packed words, ascending.
fn set_bits(words: &[u64]) -> impl Iterator<Item = usize> + Clone + '_ {
    words.iter().enumerate().flat_map(|(k, &word)| {
        let mut rest = word;
        std::iter::from_fn(move || {
            (rest != 0).then(|| {
                let bit = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                k * 64 + bit
            })
        })
    })
}

/// The inputs [`Mlp::predict_cube`] leaves free in each block of vertices.
const LEAF_INPUTS: usize = 4;
/// The vertices in one block, one per lane.
const LANES: usize = 1 << LEAF_INPUTS;

/// Per-example buffers, allocated once per [`Mlp::fit`] call.
struct Scratch {
    /// Every layer's pre-activations and activations.
    pre: Vec<Vec<f32>>,
    act: Vec<Vec<f32>>,
    /// The loss gradient at the current layer's pre-activations, and at
    /// the layer below's.
    delta: Vec<f32>,
    below: Vec<f32>,
}

/// A feed-forward binary classifier.
///
/// See the crate docs for a training example.
#[derive(Clone, Debug)]
pub struct Mlp {
    pub(crate) layers: Vec<Dense>,
    pub(crate) activation: Activation,
    num_inputs: usize,
}

impl Mlp {
    /// Trains a fresh network on the dataset.
    ///
    /// Each epoch shuffles the examples and walks them in minibatches of
    /// `batch_size`. Every example's gradient is applied as soon as it is
    /// computed, with step `learning_rate / |batch|`; the batch's
    /// gradients are *not* averaged into one update, so a later example
    /// sees the weights an earlier one moved. When the batch size B
    /// divides the dataset size, training is therefore bit-identical to
    /// batch size 1 at rate `learning_rate / B`.
    pub fn train(ds: &Dataset, cfg: &MlpConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut dims = vec![ds.num_inputs()];
        dims.extend_from_slice(&cfg.hidden);
        dims.push(1);
        let n_layers = dims.len() - 1;
        let layers = dims
            .windows(2)
            .enumerate()
            .map(|(l, w)| {
                // Sine hidden units need larger initial weights to leave the
                // linear regime of sin(x) ~ x (SIREN's first-layer scaling);
                // the sigmoid output layer keeps the standard Xavier gain.
                let gain = if cfg.activation == Activation::Sine && l + 1 < n_layers {
                    8.0
                } else {
                    1.0
                };
                Dense::new(w[0], w[1], gain, &mut rng)
            })
            .collect();
        let mut mlp = Mlp {
            layers,
            activation: cfg.activation,
            num_inputs: ds.num_inputs(),
        };
        mlp.fit(ds, cfg, &mut rng);
        mlp
    }

    /// Continues training an existing network (used after pruning).
    ///
    /// # Panics
    ///
    /// Panics if the dataset's input count differs from the network's.
    pub fn retrain(&mut self, ds: &Dataset, cfg: &MlpConfig) {
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xdead_beef);
        self.fit(ds, cfg, &mut rng);
    }

    fn fit(&mut self, ds: &Dataset, cfg: &MlpConfig, rng: &mut StdRng) {
        assert_eq!(ds.num_inputs(), self.num_inputs, "pattern arity mismatch");
        if ds.is_empty() {
            return;
        }
        let widths = || self.layers.iter().map(|l| vec![0.0; l.n_out]);
        let mut scratch = Scratch {
            pre: widths().collect(),
            act: widths().collect(),
            delta: Vec::new(),
            below: Vec::new(),
        };
        let mut order: Vec<usize> = (0..ds.len()).collect();

        for _ in 0..cfg.epochs {
            order.shuffle(rng);
            for batch in order.chunks(cfg.batch_size.max(1)) {
                self.sgd_step(batch, ds, cfg, &mut scratch);
            }
        }
    }

    /// One SGD step over a minibatch: each example's update is applied at
    /// once, with step `learning_rate / |batch|` (see [`Mlp::train`]).
    fn sgd_step(&mut self, batch: &[usize], ds: &Dataset, cfg: &MlpConfig, s: &mut Scratch) {
        let lr = cfg.learning_rate / batch.len() as f32;
        let last = self.layers.len() - 1;
        for &idx in batch {
            let pattern = ds.pattern(idx);
            // Forward pass keeping pre-activations and activations.
            for l in 0..=last {
                if l == 0 {
                    self.layers[0].forward_bits(pattern.words(), &mut s.pre[0]);
                } else {
                    self.layers[l].forward(&s.act[l - 1], &mut s.pre[l]);
                }
                s.act[l].copy_from_slice(&s.pre[l]);
                self.activation_of(l).apply_all(&mut s.act[l]);
            }
            // Backward pass: logistic loss gives (p - y) at the output's
            // pre-activation. Each layer passes its gradient down (through
            // the weights before its update) and then updates; the first
            // layer's input gradient is never needed.
            let target = if ds.output(idx) { 1.0 } else { 0.0 };
            s.delta.clear();
            s.delta.push(s.act[last][0] - target);
            for l in (1..=last).rev() {
                let layer = &mut self.layers[l];
                layer.backward(&s.delta, &mut s.below);
                for ((d, &x), &y) in s.below.iter_mut().zip(&s.pre[l - 1]).zip(&s.act[l - 1]) {
                    *d *= self.activation.derivative(x, y);
                }
                let input = s.act[l - 1].iter().copied();
                layer.update(input, &s.delta, lr, cfg.weight_decay);
                std::mem::swap(&mut s.delta, &mut s.below);
            }
            let input = (0..self.num_inputs).map(|i| if pattern.get(i) { 1.0 } else { 0.0 });
            self.layers[0].update(input, &s.delta, lr, cfg.weight_decay);
        }
    }

    /// Layer `l`'s activation: the hidden one, or the output's sigmoid.
    pub(crate) fn activation_of(&self, l: usize) -> Activation {
        if l + 1 == self.layers.len() {
            Activation::Sigmoid
        } else {
            self.activation
        }
    }

    pub(crate) fn check_arity(&self, p: &Pattern) {
        assert_eq!(p.len(), self.num_inputs, "pattern arity mismatch");
    }

    /// Number of primary inputs.
    pub fn num_inputs(&self) -> usize {
        self.num_inputs
    }

    /// Number of layers (hidden + output).
    pub fn layer_count(&self) -> usize {
        self.layers.len()
    }

    /// The probability of class 1 for one pattern.
    ///
    /// # Panics
    ///
    /// Panics if the pattern's length differs from [`Mlp::num_inputs`].
    pub fn predict_proba(&self, p: &Pattern) -> f32 {
        self.check_arity(p);
        // Two buffers as wide as the widest layer, one allocation per call.
        let width = self.layers.iter().map(|l| l.n_out).max().unwrap_or(0);
        let mut buf = vec![0.0; 2 * width];
        let (mut values, mut next) = buf.split_at_mut(width);
        for (l, layer) in self.layers.iter().enumerate() {
            let out = &mut next[..layer.n_out];
            if l == 0 {
                layer.forward_bits(p.words(), out);
            } else {
                layer.forward(&values[..layer.n_in], out);
            }
            self.activation_of(l).apply_all(out);
            std::mem::swap(&mut values, &mut next);
        }
        values[0]
    }

    /// [`Mlp::predict`] on every vertex of the input cube: bit `m` of the
    /// table is the prediction for the pattern whose input `i` is bit `i`
    /// of `m`.
    ///
    /// A depth-first walk decides input 0 first and keeps the first layer's
    /// sums for each depth, so the sums of a prefix are computed once and
    /// shared by every vertex below it. The walk stops four inputs short of
    /// the end, and the 16 vertices below (the last four inputs free) are
    /// evaluated together, one per lane: the first layer adds the set ones
    /// of those inputs per lane, then the activations and every later layer
    /// run 16 wide. Each neuron still adds its terms in ascending input
    /// order, so every prediction has [`Mlp::predict`]'s bits. A net with
    /// fewer than four inputs is one block, and only its first `2^n` lanes
    /// are read.
    pub(crate) fn predict_cube(&self) -> TruthTable {
        let n = self.num_inputs;
        let leaf = n.min(LEAF_INPUTS);
        let upper = n - leaf;
        let first = &self.layers[0];
        let width = first.n_out;
        // `sums[d * width..][..width]`: the first layer's sums once inputs
        // `0..d` are decided.
        let mut sums = vec![0.0; (upper + 1) * width];
        sums[..width].copy_from_slice(&first.bias);
        let mut lanes: Vec<Vec<[f32; LANES]>> = self
            .layers
            .iter()
            .map(|l| vec![[0.0; LANES]; l.n_out])
            .collect();
        let mut table = TruthTable::zeros(n);
        // Inputs `0..upper` of the current block, as vertex bits.
        let mut vertex = 0u32;
        for v in 0..1u32 << upper {
            // Bit `upper - 1 - d` of `v` decides input `d`, so input 0
            // changes slowest, and stepping `v` re-decides only the inputs
            // from `from` on.
            let from = match v {
                0 => 0,
                _ => upper - 1 - v.trailing_zeros() as usize,
            };
            for d in from..upper {
                let (done, rest) = sums.split_at_mut((d + 1) * width);
                let (below, next) = (&done[d * width..], &mut rest[..width]);
                if (v >> (upper - 1 - d)) & 1 == 1 {
                    vertex |= 1 << d;
                    for ((s, &b), &w) in next.iter_mut().zip(below).zip(first.row(d)) {
                        *s = b + w;
                    }
                } else {
                    vertex &= !(1 << d);
                    next.copy_from_slice(below);
                }
            }
            // Lane `j` sets input `upper + k` when bit `k` of `j` is set.
            let prefix = &sums[upper * width..];
            for (o, lane) in lanes[0].iter_mut().enumerate() {
                let mut acc = [prefix[o]; LANES];
                for k in 0..leaf {
                    let w = first.weight(o, upper + k);
                    acc = std::array::from_fn(|j| {
                        if (j >> k) & 1 == 1 {
                            acc[j] + w
                        } else {
                            acc[j]
                        }
                    });
                }
                *lane = acc;
            }
            for (l, layer) in self.layers.iter().enumerate() {
                if l > 0 {
                    let (below, above) = lanes.split_at_mut(l);
                    layer.forward_lanes(&below[l - 1], &mut above[0]);
                }
                self.activation_of(l).apply_all(lanes[l].as_flattened_mut());
            }
            let out = &lanes[self.layers.len() - 1][0];
            for (j, &p) in out[..1 << leaf].iter().enumerate() {
                table.set(vertex | (j as u32) << upper, p > 0.5);
            }
        }
        table
    }

    /// Hard classification at threshold 0.5.
    ///
    /// # Panics
    ///
    /// Panics if the pattern's length differs from [`Mlp::num_inputs`].
    pub fn predict(&self, p: &Pattern) -> bool {
        self.predict_proba(p) > 0.5
    }

    /// Accuracy over a dataset.
    pub fn accuracy(&self, ds: &Dataset) -> f64 {
        ds.accuracy_of(|p| self.predict(p))
    }

    /// Team 5's importance proxy: the summed first-layer |weight| feeding
    /// out of each input.
    pub fn input_importance(&self) -> Vec<f64> {
        let first = &self.layers[0];
        (0..first.n_in)
            .map(|i| first.row(i).iter().map(|w| f64::from(w.abs())).sum())
            .collect()
    }

    /// Maximum live fanin over all neurons.
    pub fn max_fanin(&self) -> usize {
        self.layers
            .iter()
            .flat_map(|l| (0..l.n_out).map(|o| l.live(o).count()))
            .max()
            .unwrap_or(0)
    }
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
    fn learns_linear_separable() {
        let ds = full_dataset(|m| m & 1 == 1, 4);
        let cfg = MlpConfig {
            hidden: vec![8],
            epochs: 200,
            ..MlpConfig::default()
        };
        let mlp = Mlp::train(&ds, &cfg);
        assert!((mlp.accuracy(&ds) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn learns_xor_with_hidden_layer() {
        let ds = full_dataset(|m| (m ^ (m >> 1)) & 1 == 1, 2);
        let cfg = MlpConfig {
            hidden: vec![8],
            epochs: 2000,
            learning_rate: 1.0,
            seed: 3,
            ..MlpConfig::default()
        };
        let mlp = Mlp::train(&ds, &cfg);
        assert!(
            (mlp.accuracy(&ds) - 1.0).abs() < 1e-12,
            "acc {}",
            mlp.accuracy(&ds)
        );
    }

    #[test]
    fn sine_activation_can_learn_parity() {
        // Team 8's observation: the sine activation captures periodic
        // structure like parity. Training is seed-sensitive (the paper cites
        // its "exponential increase in local minima"), so take the best of a
        // few restarts — what their grid search effectively did.
        let ds = full_dataset(|m| m.count_ones() % 2 == 1, 4);
        let best = (0..6)
            .map(|seed| {
                let cfg = MlpConfig {
                    hidden: vec![12],
                    epochs: 800,
                    learning_rate: 1.0,
                    activation: Activation::Sine,
                    seed,
                    ..MlpConfig::default()
                };
                Mlp::train(&ds, &cfg).accuracy(&ds)
            })
            .fold(0.0f64, f64::max);
        assert!(best > 0.9, "best sine accuracy {best}");
    }

    #[test]
    fn deterministic_under_seed() {
        let ds = full_dataset(|m| m % 3 == 0, 5);
        let cfg = MlpConfig {
            epochs: 20,
            ..MlpConfig::default()
        };
        let a = Mlp::train(&ds, &cfg);
        let b = Mlp::train(&ds, &cfg);
        for m in 0..32u64 {
            let p = Pattern::from_index(m, 5);
            assert_eq!(a.predict(&p), b.predict(&p));
        }
    }

    #[test]
    fn importance_highlights_live_input() {
        let ds = full_dataset(|m| m & 0b10 != 0, 4);
        let cfg = MlpConfig {
            hidden: vec![6],
            epochs: 300,
            ..MlpConfig::default()
        };
        let mlp = Mlp::train(&ds, &cfg);
        let imp = mlp.input_importance();
        let max = imp
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
            .map(|(i, _)| i);
        assert_eq!(max, Some(1));
    }

    /// Every trained weight and bias, bit for bit.
    fn parameter_bits(mlp: &Mlp) -> Vec<u32> {
        mlp.layers
            .iter()
            .flat_map(|l| l.weights.iter().chain(&l.bias))
            .map(|w| w.to_bits())
            .collect()
    }

    #[test]
    fn batch_size_scales_the_per_example_step() {
        // `sgd_step` applies each example's update at once with step
        // `lr / |batch|`, so when B divides the dataset size, batch size B
        // at rate η trains exactly like batch size 1 at rate η / B.
        let mut rng = StdRng::seed_from_u64(11);
        let mut ds = Dataset::new(6);
        for _ in 0..96 {
            let p = Pattern::random(&mut rng, 6);
            let y = p.get(0) ^ (p.get(3) && p.get(5));
            ds.push(p, y);
        }
        for activation in [Activation::Sigmoid, Activation::Relu, Activation::Sine] {
            for batch_size in [2usize, 3, 4, 32] {
                let batched = MlpConfig {
                    hidden: vec![20, 9],
                    activation,
                    epochs: 6,
                    batch_size,
                    ..MlpConfig::default()
                };
                let single = MlpConfig {
                    batch_size: 1,
                    learning_rate: batched.learning_rate / batch_size as f32,
                    ..batched.clone()
                };
                assert_eq!(
                    parameter_bits(&Mlp::train(&ds, &batched)),
                    parameter_bits(&Mlp::train(&ds, &single)),
                    "{activation:?}, B = {batch_size}"
                );
            }
        }
    }

    /// A small net over two inputs.
    fn two_input_net() -> Mlp {
        let cfg = MlpConfig {
            hidden: vec![3],
            epochs: 5,
            ..MlpConfig::default()
        };
        Mlp::train(&full_dataset(|m| m == 0b11, 2), &cfg)
    }

    #[test]
    #[should_panic(expected = "pattern arity mismatch")]
    fn predict_rejects_a_wider_pattern() {
        let _ = two_input_net().predict_proba(&Pattern::from_index(0b111, 3));
    }

    #[test]
    #[should_panic(expected = "pattern arity mismatch")]
    fn predict_rejects_a_narrower_pattern() {
        let _ = two_input_net().predict(&Pattern::from_index(1, 1));
    }

    #[test]
    #[should_panic(expected = "pattern arity mismatch")]
    fn retrain_rejects_a_wider_dataset() {
        let mut mlp = two_input_net();
        mlp.retrain(&full_dataset(|m| m == 0b111, 3), &MlpConfig::default());
    }

    #[test]
    #[should_panic(expected = "pattern arity mismatch")]
    fn retrain_rejects_a_narrower_dataset() {
        let mut mlp = two_input_net();
        mlp.retrain(&full_dataset(|m| m == 1, 1), &MlpConfig::default());
    }

    /// A net over `n` inputs, trained briefly on random examples.
    fn random_net(n: usize, hidden: &[usize], activation: Activation) -> Mlp {
        let mut rng = StdRng::seed_from_u64(n as u64);
        let mut ds = Dataset::new(n);
        for _ in 0..40 {
            let p = Pattern::random(&mut rng, n);
            let y = p.get(0) ^ p.get(n / 2);
            ds.push(p, y);
        }
        let cfg = MlpConfig {
            hidden: hidden.to_vec(),
            activation,
            epochs: 3,
            seed: n as u64,
            ..MlpConfig::default()
        };
        Mlp::train(&ds, &cfg)
    }

    /// `predict_cube` against `predict` on every vertex.
    fn assert_cube_matches(mlp: &Mlp, what: &str) {
        let n = mlp.num_inputs();
        let table = mlp.predict_cube();
        for m in 0..1u32 << n {
            let p = Pattern::from_index(u64::from(m), n);
            assert_eq!(table.get(m), mlp.predict(&p), "{what}, vertex {m:#b}");
        }
    }

    #[test]
    fn cube_walk_matches_predict() {
        // 1 to 3 inputs fill part of one block, 4 fill one block, and from
        // 5 on the walk runs above the blocks. Each activation alternates
        // between Team 4's and Team 8's shapes, so it meets both at 15 and
        // at 16 inputs.
        let activations = [Activation::Sigmoid, Activation::Relu, Activation::Sine];
        for n in 1..=16 {
            for (a, &activation) in activations.iter().enumerate() {
                let hidden = [&[32, 16][..], &[16, 8]][(n + a) % 2];
                let mlp = random_net(n, hidden, activation);
                assert_cube_matches(&mlp, &format!("{n} inputs, {activation:?} {hidden:?}"));
            }
        }
    }

    #[test]
    fn cube_walk_matches_predict_past_the_sigmoid_checks() {
        // Weights scaled up until pre-activations pass ±88, so the slice
        // sigmoid falls back to its checked path.
        let mut mlp = random_net(9, &[16, 8], Activation::Sigmoid);
        for layer in &mut mlp.layers {
            layer.weights.iter_mut().for_each(|w| *w *= 400.0);
            layer.bias.iter_mut().for_each(|b| *b *= 400.0);
        }
        let reach = mlp.layers[0]
            .weights
            .iter()
            .fold(0.0f32, |m, w| m.max(w.abs()));
        assert!(reach > 88.0, "largest first-layer weight {reach}");
        assert_cube_matches(&mlp, "scaled sigmoid net");
    }

    #[test]
    fn empty_dataset_is_harmless() {
        let ds = Dataset::new(3);
        let mlp = Mlp::train(&ds, &MlpConfig::default());
        let _ = mlp.predict(&Pattern::from_index(0, 3));
    }
}
