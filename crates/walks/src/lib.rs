//! Lazy random walks for the `welle` leader-election reproduction.
//!
//! Everything §2–§3 of the paper needs from random walks:
//!
//! * [`mixing_time`] — the paper's `t_mix` (first `t` with
//!   `‖πₜ − π*‖∞ ≤ 1/2n`), computed by exact distribution evolution, plus
//!   a spectral estimate for large graphs,
//! * [`split_lazy`] / [`with_port_counts`] — lazy one-step splitting of
//!   aggregated walk tokens (the CONGEST congestion trick of Lemma 12),
//! * [`Trail`] — a node's breadcrumb trail of one origin's walks,
//!   supporting the reverse (proxy → contender) and forward
//!   (contender → proxies) routing of Algorithm 2,
//! * [`sampling`] — centralized walk simulation used to validate the
//!   distributed machinery.
//!
//! The distributed pieces run under the CONGEST assumptions enforced by
//! `welle-congest`: one message per directed edge per round (excess
//! queues as congestion — which is why tokens travel *aggregated* as
//! counts), and an `O(log n)`-bit per-message budget
//! (`EngineConfig::bandwidth_bits`) that aggregated counts must fit.
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
mod trails;

pub mod distributed;
pub mod sampling;

pub use distributed::{run_walk_fleet, FleetMsg, WalkFleetNode, SIGNAL_REPORT};
pub use mixing::{
    endpoint_distribution, lazy_step, linf_distance, mixing_time, mixing_time_from,
    mixing_time_spectral_estimate, MixingOptions, StartPolicy,
};
pub use token::{split_lazy, with_port_counts};
pub use trails::{Hop, ReverseRoute, Trail};
