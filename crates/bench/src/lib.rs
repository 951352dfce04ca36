#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]
//! Experiment harness: regenerates every table and figure of the paper's
//! evaluation (see DESIGN.md §4 for the experiment index).
//!
//! The [`experiments`] module computes the data, fanning the experiment
//! matrix out over the deterministic worker pool in [`sweep`] (results
//! are byte-identical at any thread count); [`tables`] renders it in the
//! row/series layout the paper plots. The [`decode`] module adds the
//! dynamic-dataflow crossover sweep (sequence length × version limit ×
//! scheme) behind the `decode` binary. Every binary parses its command
//! line with [`cli`]. The `experiments` binary drives the static set:
//!
//! ```text
//! cargo run --release -p tnpu-bench --bin experiments -- all
//! cargo run --release -p tnpu-bench --bin experiments -- fig14 fig15
//! cargo run --release -p tnpu-bench --bin experiments -- --quick fig16
//! cargo run --release -p tnpu-bench --bin experiments -- --threads 4 all
//! ```

pub mod ablations;
pub mod attacks;
pub mod cli;
pub mod decode;
pub mod experiments;
pub mod faults;
pub mod serving;
pub mod sweep;
pub mod tables;
pub mod traced;

pub use experiments::{Sweep, SweepKey};
pub use sweep::PoolReport;
