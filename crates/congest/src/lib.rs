//! Synchronous CONGEST-model network simulator.
//!
//! Implements exactly the computing model of §1 of *Leader Election in
//! Well-Connected Graphs* (Gilbert, Robinson, Sourav; PODC 2018):
//!
//! * synchronous rounds with simultaneous wake-up,
//! * anonymous nodes addressing neighbours only through **ports**
//!   (asymmetric port numbering, KT0),
//! * a bandwidth budget per edge per round (`O(log n)` bits in CONGEST
//!   mode, unlimited for LOCAL-model experiments),
//! * **congestion**: one message per directed edge per round; excess
//!   messages queue and arrive later,
//! * per-node seeded randomness, so any run is a pure function of
//!   `(graph, protocols, seed)`.
//!
//! The model is reliable by default; an opt-in [`FaultPlan`] layers
//! deterministic adversarial conditions on top — i.i.d. message drops,
//! crash-stop node schedules, per-edge delivery delay, and edge
//! cuts/partitions — without giving up replayability (see [`faults`
//! module docs](FaultPlan)).
//!
//! One executor runs these semantics: the event-driven [`Engine`]
//! (skips idle rounds in `O(1)` — essential for the paper's fixed-`T`
//! schedules), whose protocol phase can run on worker threads
//! ([`Engine::set_threads`]). The engine also runs the asynchronous
//! model: an optional latency layer ([`Engine::set_latency`]) replaces
//! the constant one-round hop with a seeded [`LatencyModel`] (fixed,
//! uniform, or log-normal per-crossing latency plus per-edge
//! service-rate queueing). Synchronous executions are bit-identical
//! across thread counts for protocols honouring the [`Protocol`] no-op
//! contract, and a latent run rejoins them bit for bit under
//! [`LatencyModel::zero`] — so drivers choose a thread count on
//! performance ([`Exec`]), and latency models on what they want to
//! study.
//!
//! # Example: flooding the maximum id
//!
//! ```
//! use std::sync::Arc;
//! use welle_congest::{testing::FloodMax, Engine, EngineConfig};
//! use welle_graph::gen;
//!
//! let g = Arc::new(gen::hypercube(4).unwrap());
//! let nodes = (0..g.n()).map(|i| FloodMax::new(i as u64)).collect();
//! let mut engine = Engine::new(g, nodes, EngineConfig::default());
//! let outcome = engine.run(10_000);
//! assert!(outcome.is_done());
//! assert_eq!(engine.nodes().iter().filter(|n| n.is_leader()).count(), 1);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod engine;
mod exec;
mod faults;
mod latency;
mod message;
mod metrics;
mod protocol;
mod queues;
mod telemetry;
mod threaded;

pub mod testing;

/// Narrows a node/edge/slot index to the engine's `u32` arena
/// representation: the single sanctioned narrowing point in the hot
/// path. Every index space here is bounded by `2m` (directed edges) or
/// `n` (nodes), which the graph layer already caps at `u32` range via
/// `NodeId`/`EdgeId` construction; the debug assert keeps that bound
/// honest while release builds keep the cast free.
#[inline(always)]
pub(crate) fn idx32(i: usize) -> u32 {
    debug_assert!(
        u32::try_from(i).is_ok(),
        "index {i} exceeds the u32 arena range"
    );
    // welle-lint: allow(no-narrowing-cast) — sole checked narrowing point; bound debug-asserted above, enforced at graph construction
    i as u32
}
pub use engine::{Engine, EngineConfig, RunOutcome};
pub use exec::Exec;
pub use faults::{CompiledFaultPlan, FaultError, FaultPlan};
pub use latency::{LatencyDist, LatencyError, LatencyModel};
pub use message::{bits_for, id_bits, Payload};
pub use metrics::{Metrics, NoopObserver, RecordingObserver, TransmitEvent, TransmitObserver};
pub use protocol::{Context, Protocol, Signal};
pub use telemetry::{
    PhaseTotals, Retention, RoundSample, SpanStage, SpanStats, TelemetryConfig, TelemetryReport,
    SPAN_STAGES,
};
