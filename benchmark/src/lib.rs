#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]
//! End-to-end and per-layer benchmark of the TNPU reproduction.
//!
//! Four workloads ([`workloads`]) drive the public entry points the CI
//! gates call — the cost sweep, the attack matrix, the fault matrix and
//! the decode crossover grid — on one worker thread, check every result
//! against a golden or the library's own expectation, and report host
//! time and memory ([`run::measure`]). A traced run ([`run::measure_traced`])
//! replays the same work through timing wrappers around the engine and
//! memory layers ([`timed`]), recording spans ([`spans`]) into a Chrome
//! trace, and adds the crypto and cache microbenchmarks ([`micro`]).
//! See `README.md` for the command and the metric map.

pub mod json;
pub mod micro;
pub mod report;
pub mod run;
pub mod spans;
pub mod stats;
pub mod timed;
pub mod workloads;
