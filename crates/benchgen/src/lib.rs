//! Generator for the IWLS 2020 contest benchmark suite.
//!
//! The contest used 100 single-output functions in ten categories (paper
//! Table I): arithmetic bits (adders, dividers, multipliers, comparators,
//! square-rooters), logic cones extracted from PicoJava and MCNC designs,
//! 16-input symmetric functions, and binary classification problems derived
//! from MNIST and CIFAR-10 (Table II group comparisons). Each benchmark
//! ships as three disjoint 6400-minterm sets: training, validation, test.
//!
//! Two substitutions (detailed in the [`cones`] and [`mlgen`] module docs)
//! stand in for artifacts we do not have:
//!
//! * the PicoJava/MCNC cones are replaced by seeded pseudo-random AIG cones
//!   rejection-sampled for a roughly balanced onset/offset — matching how
//!   the paper describes those benchmarks;
//! * MNIST/CIFAR images are replaced by synthetic class-prototype models
//!   (10 classes, per-sample bit noise; the CIFAR substitute uses weaker
//!   prototypes and more noise so it stays the harder category, as in the
//!   paper's Fig. 3).
//!
//! # Examples
//!
//! ```
//! use lsml_benchgen::{suite, SampleConfig};
//!
//! let all = suite();
//! assert_eq!(all.len(), 100);
//!
//! // Sample a small version of ex30 (10-bit comparator).
//! let data = all[30].sample(&SampleConfig { samples_per_split: 200, seed: 1 });
//! assert_eq!(data.train.len(), 200);
//! assert_eq!(data.train.num_inputs(), 20);
//! ```

pub mod arith;
pub mod cones;
pub mod mlgen;
mod suite;

pub use suite::{suite, BenchData, Benchmark, Category, Generator, Oracle, SampleConfig};
