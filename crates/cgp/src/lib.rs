//! Cartesian Genetic Programming for Boolean circuit learning (Team 9).
//!
//! Team 9's "Bootstrapped CGP" flow evolves a single-row grid of
//! AND/XOR/INV nodes with a (1+4) evolution strategy, self-adjusting the
//! mutation rate with the 1/5-th success rule, preferring phenotypically
//! larger individuals on fitness ties (Milano & Nolfi), and optionally
//! seeding the population with an AIG produced by another method (decision
//! trees or ESPRESSO) — in which case the genome is sized at *twice* the
//! seed AIG, leaving non-functional genes as mutation headroom.
//!
//! # Evaluation
//!
//! Most children differ from their parent only in inactive genes: their
//! mutations left every active gene (its function and the connections it
//! reads) and the output unchanged. Such a child has the parent's
//! phenotype, so it takes the parent's fitness without an evaluation
//! (Goldman & Punch, "Reducing Wasted Evaluations in Cartesian Genetic
//! Programming", EuroGP 2013). It still competes as before and may replace
//! the parent, and mutation draws from the RNG exactly as it would
//! otherwise. Every other child computes its active genes, 64 examples per
//! word, into one reused flat buffer over the dataset's cached
//! [`BitColumns`](lsml_pla::BitColumns) (or the current mini-batch's), and
//! is scored with `BitColumns::accuracy_of_packed`, the same `correct / n`
//! quotient as a bit-by-bit count. A test in the crate pins the evolved
//! genomes, accuracies and final mutation rates of every flow.
//!
//! # Examples
//!
//! ```
//! use lsml_cgp::{evolve, CgpConfig};
//! use lsml_pla::{Dataset, Pattern};
//!
//! let mut ds = Dataset::new(2);
//! for m in 0..4u64 {
//!     ds.push(Pattern::from_index(m, 2), (m ^ (m >> 1)) & 1 == 1); // XOR
//! }
//! let cfg = CgpConfig { generations: 300, n_nodes: 12, ..CgpConfig::default() };
//! let result = evolve(&ds, &cfg);
//! assert!(result.train_accuracy > 0.99);
//! ```

mod evolve;
mod genome;
#[cfg(test)]
mod pins;

pub use evolve::{evolve, evolve_bootstrapped, CgpConfig, CgpResult};
pub use genome::{Genome, NodeFn};
