//! The randomized implicit leader-election algorithm of *Leader Election
//! in Well-Connected Graphs* (Gilbert, Robinson, Sourav; PODC 2018),
//! running on the `welle-congest` simulator.
//!
//! The algorithm elects a unique leader w.h.p. in `O(t_mix·log² n)` rounds
//! using `O(√n·log^{7/2} n·t_mix)` messages (Theorem 13), **without**
//! knowing the mixing time: contenders guess-and-double their walk length
//! until the Intersection and Distinctness properties certify that their
//! proxy sets intersect a majority of the other contenders'.
//!
//! Everything here runs in the CONGEST model as enforced by
//! `welle-congest`: anonymous port-numbered nodes, one message per
//! directed edge per round (excess serializes as congestion), and a
//! per-message bit budget (`EngineConfig::bandwidth_bits`, derived in
//! [`Params`] as `O(log n)` bits — ids are `4⌈log₂ n⌉` bits).
//!
//! # Quick start
//!
//! One election = one [`Election`] builder. Pick an executor with
//! [`Exec`] (or let [`Exec::Auto`] choose from `n`, density, and the
//! host's cores — both executors are bit-identical), attach a
//! [`TransmitObserver`](welle_congest::TransmitObserver) if you want the
//! raw traffic, and `run()`:
//!
//! ```no_run
//! use std::sync::Arc;
//! use welle_core::{Election, ElectionConfig, Exec, SyncMode};
//! use welle_graph::gen;
//! use rand::{SeedableRng, rngs::StdRng};
//!
//! let mut rng = StdRng::seed_from_u64(1);
//! let g = Arc::new(gen::random_regular(256, 4, &mut rng).unwrap());
//! let report = Election::on(&g)
//!     .config(ElectionConfig { sync: SyncMode::Adaptive, ..Default::default() })
//!     .seed(7)
//!     .executor(Exec::Auto)
//!     .run()
//!     .expect("valid configuration");
//! assert!(report.is_success());
//! println!("leader id {:?} after {} messages", report.leader_id, report.messages);
//! ```
//!
//! Batch runs — many seeds, many graph families — are a [`Campaign`]
//! over a prototype builder; it returns per-trial
//! [`ElectionReport`]s plus one [`CampaignSummary`] per scenario:
//!
//! ```no_run
//! # use std::sync::Arc;
//! # use welle_core::{Campaign, Election, ElectionConfig};
//! # use welle_graph::gen;
//! let g = Arc::new(gen::hypercube(7).unwrap());
//! let cfg = ElectionConfig::tuned_for_simulation(g.n());
//! let outcome = Campaign::new(Election::on(&g).config(cfg))
//!     .label("hypercube")
//!     .seeds(0..20)
//!     .run()
//!     .expect("valid configuration");
//! println!("{}", outcome.summary()); // success rate, msg/round min/median/max
//! ```
//!
//! Invalid configurations (non-finite constants, zero walk caps,
//! `n < 2`) surface as a typed [`ConfigError`] from the builder before
//! anything is simulated.
//!
//! Elections can also run under adversarial network conditions — i.i.d.
//! message drops, crash-stop schedules, delivery delay, edge cuts — by
//! attaching a [`FaultPlan`] to the builder
//! (`Election::on(&g).faults(FaultPlan::new(1).drop_rate(0.05))…`) or
//! to individual [`Campaign`] scenarios; fault sweeps are campaigns
//! whose scenarios differ only in their plans. Faulted runs stay fully
//! deterministic and bit-identical across executors, and failures stay
//! visible ([`ElectionReport::dropped_messages`],
//! [`ElectionReport::crashed`], zero leaders) rather than silently
//! electing the wrong node.
//!
//! Besides the core algorithm the crate ships the explicit-election stage
//! ([`broadcast`], Corollary 14) and the paper's comparison baselines
//! ([`baselines`]): flood-max and the known-`t_mix` single-phase variant
//! of Kutten et al. \[25\].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod campaign;
mod config;
mod election;
mod error;
mod msg;
mod protocol;
mod runner;
mod scheduler;
mod sink;
mod state;
mod trails;

pub mod baselines;
pub mod broadcast;
pub mod csv;
pub mod export;

pub use campaign::{
    default_trial_threads, set_default_trial_threads, Campaign, CampaignReport, CampaignSummary,
    Stats, Trial,
};
pub use config::{ElectionConfig, MsgSizeMode, Params, Phase, SyncMode};
pub use election::{Election, Exec};
pub use error::ConfigError;
pub use msg::{ElectionMsg, FwdItem, MsgView, RevItem};
pub use protocol::{ElectionNode, SIGNAL_ADVANCE};
pub use runner::ElectionReport;
pub use state::{ContenderState, Decision, EpochRecord, NodeStats};
pub use welle_congest::{
    FaultError, FaultPlan, LatencyDist, LatencyError, LatencyModel, PhaseTotals, Retention,
    RoundSample, SpanStage, SpanStats, TelemetryConfig, TelemetryReport,
};
