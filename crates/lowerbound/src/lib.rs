//! Machinery for the paper's lower-bound experiments (§4 and §5).
//!
//! * [`CliqueCommObserver`] reconstructs the *clique communication graph*
//!   `CG` of §4.1 from the simulator's transmission stream: CG edges
//!   (Lemma 19) and per-clique first-contact costs (Lemma 18).
//! * [`probing`] isolates the Lemma 18 port-probing process and verifies
//!   its `Ω(s²)` expectation in closed form and by simulation.
//! * [`bridge`] runs the §5 dumbbell experiment: the election with a
//!   wrongly-believed network size split-brains (two leaders), showing
//!   the knowledge of `n` is critical (Theorem 28).
//! * [`experiments`] packages these into drivers reused by the
//!   `welle-bench` tables.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cg;

pub mod bridge;
pub mod experiments;
pub mod probing;

pub use bridge::{run_dumbbell_election, BridgeObserver, DumbbellReport};
pub use cg::CliqueCommObserver;
pub use experiments::{bfs_tree_cost, run_election_on_lower_bound, LowerBoundRun};
pub use probing::{
    expected_first_contact, mean_first_contact, probe_until_external, ProbeOutcome, ProbeStrategy,
};
