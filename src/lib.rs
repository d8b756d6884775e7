//! `welle` — a full reproduction of *Leader Election in Well-Connected
//! Graphs* (Gilbert, Robinson, Sourav; PODC 2018).
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`graph`] — port-numbered graphs, generators (expanders, hypercubes,
//!   cliques, the §4.1 lower-bound construction, §5 dumbbells), and
//!   conductance/spectral analysis,
//! * [`congest`] — the synchronous CONGEST simulator (with opt-in
//!   deterministic fault injection: drops, crashes, delays, cuts),
//! * [`walks`] — lazy random walks, mixing times, lazy token splits,
//! * [`core`] — the election algorithm, explicit election, baselines,
//! * [`lowerbound`] — the §4/§5 lower-bound experiment machinery.
//!
//! # Quick start
//!
//! ```no_run
//! use std::sync::Arc;
//! use welle::core::{Campaign, Election, ElectionConfig};
//! use welle::graph::gen;
//! use rand::{SeedableRng, rngs::StdRng};
//!
//! let mut rng = StdRng::seed_from_u64(7);
//! let g = Arc::new(gen::random_regular(512, 4, &mut rng).unwrap());
//! let cfg = ElectionConfig::tuned_for_simulation(512);
//!
//! // One election: the builder validates, picks an executor, runs.
//! let report = Election::on(&g).config(cfg).seed(1).run().unwrap();
//! assert!(report.is_success());
//!
//! // Many elections: a campaign over seeds, with aggregate statistics.
//! let outcome = Campaign::new(Election::on(&g).config(cfg))
//!     .seeds(0..10)
//!     .run()
//!     .unwrap();
//! println!("{}", outcome.summary());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use welle_congest as congest;
pub use welle_core as core;
pub use welle_graph as graph;
pub use welle_lowerbound as lowerbound;
pub use welle_walks as walks;
