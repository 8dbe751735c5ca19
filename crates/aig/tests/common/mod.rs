//! The random-AIG recipe the property suites share: a list of gate ops over
//! already-built literals. Each suite wires its own outputs onto the gates,
//! so every property runs the same generated cases.

use lsml_aig::aig::Aig;
use lsml_aig::Lit;
use proptest::prelude::*;

/// One gate of the recipe; operands index the literals built so far
/// (modulo their count).
#[derive(Clone, Debug)]
pub enum Op {
    And(u8, bool, u8, bool),
    Xor(u8, bool, u8, bool),
    Mux(u8, u8, u8),
}

/// Recipes of 1 to `n - 1` gates.
pub fn arb_ops(n: usize) -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![
            (any::<u8>(), any::<bool>(), any::<u8>(), any::<bool>())
                .prop_map(|(a, ca, b, cb)| Op::And(a, ca, b, cb)),
            (any::<u8>(), any::<bool>(), any::<u8>(), any::<bool>())
                .prop_map(|(a, ca, b, cb)| Op::Xor(a, ca, b, cb)),
            (any::<u8>(), any::<u8>(), any::<u8>()).prop_map(|(s, t, e)| Op::Mux(s, t, e)),
        ],
        1..n,
    )
}

/// Builds the recipe's gates over `ni` inputs. Returns the graph, still
/// without outputs, and every literal in build order: the inputs, then one
/// per op.
pub fn build_gates(ops: &[Op], ni: usize) -> (Aig, Vec<Lit>) {
    let mut g = Aig::new(ni);
    let mut lits: Vec<Lit> = g.inputs();
    for op in ops {
        let pick = |i: u8, lits: &[Lit]| lits[i as usize % lits.len()];
        let l = match *op {
            Op::And(a, ca, b, cb) => {
                let x = pick(a, &lits).complement_if(ca);
                let y = pick(b, &lits).complement_if(cb);
                g.and(x, y)
            }
            Op::Xor(a, ca, b, cb) => {
                let x = pick(a, &lits).complement_if(ca);
                let y = pick(b, &lits).complement_if(cb);
                g.xor(x, y)
            }
            Op::Mux(s, t, e) => {
                let sv = pick(s, &lits);
                let tv = pick(t, &lits);
                let ev = pick(e, &lits);
                g.mux(sv, tv, ev)
            }
        };
        lits.push(l);
    }
    (g, lits)
}
