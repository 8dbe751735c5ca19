//! Bit-identity pins for the numeric core.
//!
//! The hash covers only observables that do not depend on how the weights
//! are stored: `predict_proba` bits, quantized predictions, importance bits,
//! the live fanin and the quantized AIG's size. (`Debug` output prints the
//! weights in storage order, so it is deliberately not hashed.) A change to
//! a neuron's summation order or to the order of the SGD updates moves the
//! hash; a change of layout alone does not.

use lsml_aig::fxhash::fnv1a;
use lsml_pla::{Dataset, Pattern};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::{prune_to_fanin, Activation, Mlp, MlpConfig};

/// The pruning budget of the pinned nets.
const FANIN: usize = 3;

fn observe(mlp: &Mlp, probes: &[Pattern], out: &mut Vec<u8>) {
    for p in probes {
        out.extend_from_slice(&mlp.predict_proba(p).to_bits().to_le_bytes());
        out.push(u8::from(mlp.predict_quantized(p)));
    }
    for w in mlp.input_importance() {
        out.extend_from_slice(&w.to_bits().to_le_bytes());
    }
    out.extend_from_slice(&(mlp.max_fanin() as u64).to_le_bytes());
}

/// The hash of nets over 5 and 70 inputs (70 spans two pattern words), for
/// every hidden shape × sigmoid/ReLU/sine × batch size, each trained on 48
/// examples and observed after training and again after pruning.
fn pin(shapes: &[&[usize]], batch_sizes: &[usize]) -> u64 {
    let mut bytes = Vec::new();
    for width in [5usize, 70] {
        let mut rng = StdRng::seed_from_u64(width as u64);
        let mut ds = Dataset::new(width);
        for _ in 0..48 {
            let p = Pattern::random(&mut rng, width);
            let y = (p.get(0) && p.get(1)) || (p.get(2) ^ p.get(width - 1));
            ds.push(p, y);
        }
        let probes: Vec<Pattern> = (0..256).map(|_| Pattern::random(&mut rng, width)).collect();
        for hidden in shapes {
            for activation in [Activation::Sigmoid, Activation::Relu, Activation::Sine] {
                for &batch_size in batch_sizes {
                    let cfg = MlpConfig {
                        hidden: hidden.to_vec(),
                        activation,
                        epochs: 12,
                        batch_size,
                        seed: 7,
                        ..MlpConfig::default()
                    };
                    let mut mlp = Mlp::train(&ds, &cfg);
                    observe(&mlp, &probes, &mut bytes);
                    prune_to_fanin(&mut mlp, &ds, &cfg, FANIN);
                    observe(&mlp, &probes, &mut bytes);
                    let ands = mlp.to_aig_quantized(FANIN).num_ands() as u64;
                    bytes.extend_from_slice(&ands.to_le_bytes());
                }
            }
        }
    }
    fnv1a(&bytes)
}

/// Narrow layers; batch sizes 7 and 32 end in a partial batch.
#[test]
fn trained_and_pruned_nets_are_pinned() {
    assert_eq!(pin(&[&[6, 4]], &[1, 7, 32]), 0x9d2b_ef14_7dc8_4aab);
}

/// Layers of 9 to 40 neurons, as wide as the teams' nets (Team 3 trains
/// `[24, 12]`, Team 4 `[32, 16]`): some widths are multiples of eight, the
/// `f32` lanes of one 256-bit register, and some are not.
#[test]
fn wide_nets_are_pinned() {
    assert_eq!(pin(&[&[40, 12], &[24, 9]], &[7]), 0x5b6d_5c47_62e4_9ef0);
}
