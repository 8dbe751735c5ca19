//! The IWLS 2020 logic-learning contest framework.
//!
//! This crate ties the substrates together into the system the paper
//! describes: given a benchmark's training and validation minterms, produce
//! an AIG of at most 5000 AND nodes that generalizes to a hidden test set.
//!
//! * [`Problem`] / [`LearnedCircuit`] / [`Learner`] — the contest interface.
//! * [`compile`] — the unified compile path: every learned circuit runs the
//!   DAG-aware optimization pipeline under a [`SizeBudget`] before it
//!   becomes a candidate ([`LearnedCircuit::compile`]).
//! * [`teams`] — all ten team pipelines from Section IV of the paper.
//! * [`portfolio`] — "apply several approaches and decide which one to use"
//!   (the paper's conclusion about portfolio strategies).
//! * [`eval`] — contest scoring: test accuracy, AND gates, levels, overfit.
//! * [`report`] — the aggregate analyses behind Table III and Figs. 2–4.
//!
//! # Examples
//!
//! ```
//! use lsml_benchgen::{suite, SampleConfig};
//! use lsml_core::teams::Team10;
//! use lsml_core::{eval, Learner, Problem};
//!
//! // Train Team 10's depth-8 decision tree on a small comparator sample.
//! let bench = &suite()[30];
//! let data = bench.sample(&SampleConfig { samples_per_split: 300, seed: 0 });
//! let problem = Problem::new(data.train.clone(), data.valid.clone(), 0);
//! let circuit = Team10::default().learn(&problem);
//! let score = eval::evaluate(&circuit, &data);
//! assert!(score.and_gates <= 5000);
//! assert!(score.test_accuracy > 0.5);
//! ```

pub mod compile;
pub mod eval;
pub mod portfolio;
pub mod problem;
pub mod report;
pub mod teams;

pub use compile::{BudgetVerdict, SizeBudget};
pub use eval::Score;
pub use portfolio::select_best;
pub use problem::{LearnedCircuit, Learner, Problem};
