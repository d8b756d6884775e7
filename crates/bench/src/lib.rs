//! Experiment harness shared by the `e*` table binaries and the criterion
//! benches: plain-text/CSV tables, growth-rate fitting, and the standard
//! workload graphs.
//!
//! Every quantitative claim of the paper maps to one binary, whose
//! experiment module under [`experiments`] states the claim; run them
//! all with `cargo run --release -p welle-bench --bin all_experiments`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod fit;
pub mod table;
pub mod workloads;

pub use fit::log_log_slope;
pub use table::Table;
