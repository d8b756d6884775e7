//! Lazy random walks for the `welle` leader-election reproduction.
//!
//! What §2–§3 of the paper needs from random walks, outside the
//! election protocol itself:
//!
//! * [`mixing_time`] — the paper's `t_mix` (first `t` with
//!   `‖πₜ − π*‖∞ ≤ 1/2n`), computed by exact distribution evolution,
//!   with [`endpoint_distribution`] for the walk's law after `t` steps;
//! * [`split_lazy`] / [`with_port_counts`] — lazy one-step splitting of
//!   aggregated walk tokens (the CONGEST congestion trick of Lemma 12).
//!
//! The election's walk trails, and the reverse and forward routing
//! along them, live with the protocol in `welle-core`. Walk tokens
//! travel there *aggregated* as counts, because the CONGEST simulator
//! allows one message per directed edge per round and an `O(log n)`-bit
//! budget per message.
//!
//! ```
//! use welle_graph::gen;
//! use welle_walks::{mixing_time, MixingOptions};
//!
//! let g = gen::hypercube(5).unwrap();
//! let t = mixing_time(&g, MixingOptions::default()).unwrap();
//! assert!(t > 0 && t < 100);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod mixing;
mod token;

pub use mixing::{
    endpoint_distribution, lazy_step, linf_distance, mixing_time, mixing_time_from, MixingOptions,
    StartPolicy,
};
pub use token::{split_lazy, with_port_counts};
