//! The election on the sharded engine with every round through its
//! worker barrier, for the suites that compare executors.
//!
//! `Exec::Threaded` on the `Election` builder keeps the engine's inline
//! cutoff, and every graph of these suites is below it, so such a run
//! never reaches a worker. This helper builds the engine as
//! `decision_pins.rs` does (`set_threads(k)`, `set_inline_cutoff(0)`)
//! and drives it as the runner drives an Adaptive election.

use std::sync::Arc;

use welle_congest::{Engine, EngineConfig, RunOutcome};
use welle_core::{
    Decision, ElectionConfig, ElectionNode, ElectionReport, FaultPlan, Params, SyncMode,
    TelemetryConfig, TelemetryReport, SIGNAL_ADVANCE,
};
use welle_graph::Graph;

/// What a barrier run must share with the serial report.
#[derive(Debug, PartialEq, Eq)]
pub struct Counts {
    pub messages: u64,
    pub bits: u64,
    pub engine_rounds: u64,
    pub leaders: Vec<usize>,
    pub leader_id: Option<u64>,
}

impl Counts {
    /// The counts of a report from the `Election` builder.
    pub fn of(r: &ElectionReport) -> Self {
        Counts {
            messages: r.messages,
            bits: r.bits,
            engine_rounds: r.engine_rounds,
            leaders: r.leaders.clone(),
            leader_id: r.leader_id,
        }
    }
}

/// Runs the Adaptive election `cfg` on `g` with `seed` on `threads`
/// workers, every round through the barrier, under `faults` and
/// `telemetry` when given. Returns its counts and its telemetry.
pub fn through_barrier(
    g: &Arc<Graph>,
    cfg: ElectionConfig,
    seed: u64,
    threads: usize,
    faults: Option<&FaultPlan>,
    telemetry: Option<TelemetryConfig>,
) -> (Counts, Option<TelemetryReport>) {
    assert_eq!(cfg.sync, SyncMode::Adaptive, "driven as Adaptive only");
    let params = Arc::new(Params::derive(g.n(), cfg));
    let engine_cfg = EngineConfig {
        seed,
        bandwidth_bits: params.bandwidth_bits,
    };
    let mut engine = Engine::from_fn(Arc::clone(g), engine_cfg, |_| {
        ElectionNode::new(Arc::clone(&params))
    });
    engine.set_threads(threads);
    engine.set_inline_cutoff(0);
    if let Some(plan) = faults {
        engine.set_fault_plan(plan).unwrap();
    }
    if let Some(tcfg) = telemetry {
        engine.set_telemetry(tcfg);
    }
    let mut signals = 0u64;
    while let RunOutcome::Quiescent { .. } = engine.run(u64::MAX / 4) {
        if signals >= params.total_segments() {
            break;
        }
        engine.signal(SIGNAL_ADVANCE);
        signals += 1;
    }
    let leaders: Vec<usize> = (0..g.n())
        .filter(|&i| engine.node(i).decision() == Some(Decision::Leader))
        .collect();
    let leader_id = match leaders[..] {
        [i] => Some(engine.node(i).id()),
        _ => None,
    };
    let counts = Counts {
        messages: engine.metrics().messages,
        bits: engine.metrics().bits,
        engine_rounds: engine.round(),
        leaders,
        leader_id,
    };
    (counts, engine.take_telemetry())
}
