//! And-Inverter Graph (AIG) package.
//!
//! An AIG represents Boolean functions as a DAG of two-input AND gates whose
//! edges may be complemented — the standard logic-synthesis data structure
//! (Biere's AIGER, Berkeley ABC). The IWLS 2020 contest required every learnt
//! function to be delivered as an AIG with at most 5000 AND nodes.
//!
//! This crate provides:
//!
//! * [`Aig`] — the graph itself, with structural hashing, constant folding,
//!   levels and dangling-node cleanup.
//! * [`sim`] — word-parallel (64 patterns per word) simulation.
//! * [`aiger`] — ASCII (`.aag`) and binary (`.aig`) AIGER reader/writer.
//! * [`circuits`] — bit-vector circuit builders (adders, comparators,
//!   multipliers, popcount, symmetric functions, majority).
//! * [`cut`] / [`npn`] — k ≤ 6 priority-cut enumeration with 64-bit truth
//!   tables (arena-backed) and semi-canonical NPN canonization with the
//!   optimal-structure library.
//! * [`rewrite`] — DAG-aware cut/NPN rewriting (ABC's `rewrite`).
//! * [`lru`] — the lock-striped, byte-budgeted LRU map under the compile
//!   cache, the fixpoint cache and the NPN library.
//! * [`sweep`] — simulation-guided equivalence sweeping.
//! * [`opt`] — the composable [`Pass`] / [`Pipeline`] layer chaining the
//!   exact passes (`balance | rewrite | sweep | cleanup`, iterated to
//!   fixpoint).
//! * [`approx`] — the random-simulation approximation pass Team 1 used to
//!   push oversized AIGs under the contest's node limit, now interleaved
//!   with the exact pipeline (see [`approx::reduce`]).
//!
//! # Examples
//!
//! ```
//! use lsml_aig::Aig;
//!
//! // f = (a XOR b) AND c
//! let mut aig = Aig::new(3);
//! let (a, b, c) = (aig.input(0), aig.input(1), aig.input(2));
//! let x = aig.xor(a, b);
//! let f = aig.and(x, c);
//! aig.add_output(f);
//!
//! assert_eq!(aig.eval(&[true, false, true]), vec![true]);
//! assert_eq!(aig.eval(&[true, true, true]), vec![false]);
//! assert_eq!(aig.num_ands(), 4); // XOR costs 3 ANDs, plus the final AND
//! ```

pub mod aig;
pub mod aiger;
pub mod approx;
pub mod bench;
pub mod cancel;
pub mod circuits;
pub mod cut;
pub mod fxhash;
pub mod lit;
pub mod lru;
pub mod npn;
pub mod opt;
pub mod par;
pub mod rewrite;
pub mod sim;
pub mod sweep;

pub use aig::Aig;
pub use approx::{reduce, ApproxConfig};
pub use lit::Lit;
pub use opt::{Pass, Pipeline};

#[cfg(test)]
pub(crate) mod testutil {
    use crate::aig::Aig;

    /// Asserts two AIGs agree on every input assignment (exhaustive, so
    /// capped at 12 inputs). Shared by the rewrite/sweep/opt test modules.
    pub(crate) fn equivalent_exhaustive(a: &Aig, b: &Aig) {
        assert_eq!(a.num_inputs(), b.num_inputs());
        assert!(a.num_inputs() <= 12, "exhaustive check limited");
        for m in 0..(1u64 << a.num_inputs()) {
            let bits: Vec<bool> = (0..a.num_inputs()).map(|i| (m >> i) & 1 == 1).collect();
            assert_eq!(a.eval(&bits), b.eval(&bits), "mismatch at {m:b}");
        }
    }
}
