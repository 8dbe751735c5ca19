//! Pruning and neuron-to-LUT synthesis.

use lsml_aig::circuits::truth_table_cone;
use lsml_aig::{Aig, Lit};
use lsml_pla::{Dataset, Pattern, TruthTable};

use crate::mlp::{Activation, Mlp, MlpConfig};

/// Team 3's connection pruning: repeatedly drop the smallest-magnitude
/// fraction of each over-budget neuron's live weights and retrain, until
/// every neuron's fanin is at most `max_fanin` (they used 12; the LUT
/// enumeration is `2^fanin` so keep it modest). Returns the number of
/// prune/retrain rounds performed.
pub fn prune_to_fanin(mlp: &mut Mlp, ds: &Dataset, cfg: &MlpConfig, max_fanin: usize) -> usize {
    let mut rounds = 0;
    while mlp.max_fanin() > max_fanin {
        rounds += 1;
        for layer in mlp.layers.iter_mut() {
            for o in 0..layer.n_out {
                let mut live: Vec<usize> = layer.live(o).collect();
                if live.len() <= max_fanin {
                    continue;
                }
                // Drop the weakest 30% of live connections (at least one,
                // never below the budget in a single over-shoot).
                let drop = ((live.len() as f64 * 0.3).ceil() as usize)
                    .clamp(1, live.len() - max_fanin.min(live.len()));
                let magnitude = |i: usize| layer.weight(o, i).abs();
                live.sort_by(|&a, &b| {
                    magnitude(a)
                        .partial_cmp(&magnitude(b))
                        .expect("finite weights")
                });
                for &i in &live[..drop] {
                    layer.prune(o, i);
                }
            }
        }
        // Recover accuracy with a short retraining pass.
        let retrain_cfg = MlpConfig {
            epochs: (cfg.epochs / 4).max(5),
            ..cfg.clone()
        };
        mlp.retrain(ds, &retrain_cfg);
    }
    rounds
}

impl Mlp {
    /// Synthesizes the pruned network into an AIG by rounding every neuron
    /// into a LUT over its live inputs (Team 3's method, following
    /// Chatterjee's neuron-to-LUT transformation). The first layer sees the
    /// raw Boolean inputs; later layers see the previous layer's LUT outputs.
    ///
    /// # Panics
    ///
    /// Panics if any neuron's live fanin exceeds `max_enum_fanin` — prune
    /// first with [`prune_to_fanin`].
    pub fn to_aig_quantized(&self, max_enum_fanin: usize) -> Aig {
        let mut aig = Aig::new(self.num_inputs());
        let mut lits: Vec<Lit> = aig.inputs();
        for (l, layer) in self.layers.iter().enumerate() {
            let act = self.activation_of(l);
            let mut next = Vec::with_capacity(layer.n_out);
            for o in 0..layer.n_out {
                let live: Vec<usize> = layer.live(o).collect();
                assert!(
                    live.len() <= max_enum_fanin,
                    "neuron fanin {} exceeds enumeration budget {max_enum_fanin}; prune first",
                    live.len()
                );
                let table = TruthTable::from_fn(live.len(), |m| {
                    let mut acc = layer.bias[o];
                    for (b, &i) in live.iter().enumerate() {
                        if (m >> b) & 1 == 1 {
                            acc += layer.weight(o, i);
                        }
                    }
                    quantize(act, acc)
                });
                let srcs: Vec<Lit> = live.iter().map(|&i| lits[i]).collect();
                next.push(truth_table_cone(&mut aig, &table, &srcs));
            }
            lits = next;
        }
        aig.add_output(lits[0]);
        aig.cleanup();
        aig
    }

    /// The quantized-network prediction (what [`Mlp::to_aig_quantized`]
    /// computes), evaluated in software: every layer sees the previous
    /// layer's rounded bits.
    ///
    /// # Panics
    ///
    /// Panics if the pattern's length differs from [`Mlp::num_inputs`].
    pub fn predict_quantized(&self, p: &Pattern) -> bool {
        self.check_arity(p);
        let mut bits = p.clone();
        for (l, layer) in self.layers.iter().enumerate() {
            let mut pre = vec![0.0; layer.n_out];
            layer.forward_bits(bits.words(), &mut pre);
            let act = self.activation_of(l);
            bits = pre.iter().map(|&x| quantize(act, x)).collect();
        }
        bits.get(0)
    }

    /// Exhaustively enumerates the exact floating-point network into a truth
    /// table (Team 8's small-input synthesis, and Team 4's subspace
    /// expansion): bit `m` is [`Mlp::predict`] on the pattern whose input
    /// `i` is bit `i` of `m`, bit for bit. One depth-first walk over the
    /// input cube shares each first-layer prefix sum among the vertices
    /// below it and evaluates 16 vertices per step, one per lane. `None` if
    /// the input count exceeds [`lsml_pla::truth::MAX_TRUTH_VARS`].
    pub fn to_truth_table(&self) -> Option<TruthTable> {
        (self.num_inputs() <= lsml_pla::truth::MAX_TRUTH_VARS).then(|| self.predict_cube())
    }
}

/// Rounds a neuron's post-activation to one bit.
fn quantize(act: Activation, pre: f32) -> bool {
    match act {
        // sigmoid(x) > 0.5  <=>  x > 0
        Activation::Sigmoid => pre > 0.0,
        Activation::Relu => pre.max(0.0) > 0.5,
        Activation::Sine => pre.sin() > 0.5,
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
    fn pruning_reaches_fanin_budget() {
        let ds = full_dataset(|m| (m & 0b11) == 0b11, 8);
        let cfg = MlpConfig {
            hidden: vec![10],
            epochs: 120,
            ..MlpConfig::default()
        };
        let mut mlp = Mlp::train(&ds, &cfg);
        assert!(mlp.max_fanin() > 4);
        let rounds = prune_to_fanin(&mut mlp, &ds, &cfg, 4);
        assert!(rounds > 0);
        assert!(mlp.max_fanin() <= 4);
        // Simple target should survive pruning.
        assert!(mlp.accuracy(&ds) > 0.85, "acc {}", mlp.accuracy(&ds));
    }

    #[test]
    fn quantized_aig_matches_quantized_prediction() {
        let ds = full_dataset(|m| m & 1 == 1 || m & 0b100 != 0, 5);
        let cfg = MlpConfig {
            hidden: vec![6],
            epochs: 150,
            ..MlpConfig::default()
        };
        let mut mlp = Mlp::train(&ds, &cfg);
        prune_to_fanin(&mut mlp, &ds, &cfg, 4);
        let aig = mlp.to_aig_quantized(4);
        for m in 0..32u64 {
            let p = Pattern::from_index(m, 5);
            let bits: Vec<bool> = p.iter().collect();
            assert_eq!(
                aig.eval(&bits)[0],
                mlp.predict_quantized(&p),
                "mismatch at {m:05b}"
            );
        }
    }

    #[test]
    fn quantized_stays_close_to_exact_on_easy_function() {
        let ds = full_dataset(|m| m & 0b1000 != 0, 4);
        let cfg = MlpConfig {
            hidden: vec![4],
            epochs: 300,
            ..MlpConfig::default()
        };
        let mlp = Mlp::train(&ds, &cfg);
        let agree = (0..16u64)
            .filter(|&m| {
                let p = Pattern::from_index(m, 4);
                mlp.predict(&p) == mlp.predict_quantized(&p)
            })
            .count();
        assert!(agree >= 14, "agreement {agree}/16");
    }

    #[test]
    fn truth_table_enumeration_matches_predict() {
        let ds = full_dataset(|m| (m * 5) % 3 == 1, 4);
        let cfg = MlpConfig {
            hidden: vec![6],
            epochs: 200,
            ..MlpConfig::default()
        };
        let mlp = Mlp::train(&ds, &cfg);
        let table = mlp.to_truth_table().expect("4 inputs fits");
        for m in 0..16u32 {
            let p = Pattern::from_index(u64::from(m), 4);
            assert_eq!(table.get(m), mlp.predict(&p));
        }
    }

    /// A pruned net over two inputs.
    fn two_input_net() -> Mlp {
        let ds = full_dataset(|m| m == 0b11, 2);
        let cfg = MlpConfig {
            hidden: vec![3],
            epochs: 5,
            ..MlpConfig::default()
        };
        let mut mlp = Mlp::train(&ds, &cfg);
        prune_to_fanin(&mut mlp, &ds, &cfg, 2);
        mlp
    }

    #[test]
    #[should_panic(expected = "pattern arity mismatch")]
    fn quantized_predict_rejects_a_wider_pattern() {
        let _ = two_input_net().predict_quantized(&Pattern::from_index(0b111, 3));
    }

    #[test]
    #[should_panic(expected = "pattern arity mismatch")]
    fn quantized_predict_rejects_a_narrower_pattern() {
        let _ = two_input_net().predict_quantized(&Pattern::from_index(1, 1));
    }

    #[test]
    #[should_panic(expected = "prune first")]
    fn oversized_fanin_panics_without_pruning() {
        let ds = full_dataset(|m| m > 3, 10);
        let cfg = MlpConfig {
            hidden: vec![4],
            epochs: 5,
            ..MlpConfig::default()
        };
        let mlp = Mlp::train(&ds, &cfg);
        let _ = mlp.to_aig_quantized(4);
    }
}
