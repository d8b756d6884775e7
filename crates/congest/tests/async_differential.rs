//! Differential suite locking the engine's latency layer to the round
//! engine without it.
//!
//! The async executor's contract has two halves:
//!
//! * under [`LatencyModel::zero`] it is **event-for-event identical** to
//!   the serial [`Engine`] — same transmission stream, same metrics,
//!   same round count — on any graph, seed, and fault plan;
//! * under any nonzero model it is a pure function of
//!   `(graph, protocols, seed, model)`: repeats replay byte-identically.
//!
//! This file is the CI fence for the async executor (see
//! `.github/workflows/ci.yml`).

use std::sync::Arc;

use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};
use welle_congest::testing::FloodMax;
use welle_congest::{
    Engine, EngineConfig, FaultPlan, LatencyModel, Metrics, RecordingObserver, TransmitEvent,
};
use welle_graph::Graph;

fn random_connected_graph(n: usize, extra: usize, seed: u64) -> Arc<Graph> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = welle_graph::GraphBuilder::new(n);
    for child in 1..n {
        let parent = rand::RngExt::random_range(&mut rng, 0..child);
        b.add_edge(parent, child).unwrap();
    }
    for _ in 0..extra {
        let u = rand::RngExt::random_range(&mut rng, 0..n);
        let v = rand::RngExt::random_range(&mut rng, 0..n);
        if u != v && !b.has_edge(u, v) {
            b.add_edge(u, v).unwrap();
        }
    }
    Arc::new(b.build().unwrap())
}

/// The adversarial conditions the differential check sweeps: clean,
/// drops, uniform delivery delay, and drops + crashes combined.
fn fault_plan(kind: u8, seed: u64) -> Option<FaultPlan> {
    match kind % 4 {
        0 => None,
        1 => Some(FaultPlan::new(seed).drop_rate(0.15)),
        2 => Some(FaultPlan::new(seed).delay_all(2)),
        _ => Some(FaultPlan::new(seed).drop_rate(0.1).crash_fraction(0.1, 3)),
    }
}

fn mk_node(i: usize) -> FloodMax {
    FloodMax::new((i as u64).wrapping_mul(131) % 97)
}

/// One observed run: the full transmission stream plus the summary
/// numbers a driver would read off the engine afterwards.
struct Run {
    events: Vec<TransmitEvent>,
    metrics: Metrics,
    round: u64,
    done: bool,
    virtual_time: f64,
}

fn run_sync(g: &Arc<Graph>, seed: u64, plan: Option<&FaultPlan>) -> Run {
    let nodes = (0..g.n()).map(mk_node).collect();
    let cfg = EngineConfig {
        seed,
        bandwidth_bits: None,
    };
    let mut e = Engine::new(Arc::clone(g), nodes, cfg);
    if let Some(p) = plan {
        e.set_fault_plan(p).unwrap();
    }
    let mut rec = RecordingObserver::default();
    let out = e.run_observed(10_000, &mut rec);
    Run {
        events: rec.events,
        metrics: e.metrics().clone(),
        round: e.round(),
        done: out.is_done(),
        virtual_time: e.round() as f64,
    }
}

fn run_async(g: &Arc<Graph>, seed: u64, model: LatencyModel, plan: Option<&FaultPlan>) -> Run {
    let cfg = EngineConfig {
        seed,
        bandwidth_bits: None,
    };
    let mut e = Engine::from_fn(Arc::clone(g), cfg, mk_node);
    e.set_latency(model).unwrap();
    if let Some(p) = plan {
        e.set_fault_plan(p).unwrap();
    }
    let mut rec = RecordingObserver::default();
    let out = e.run_observed(10_000, &mut rec);
    Run {
        events: rec.events,
        metrics: e.metrics().clone(),
        round: e.round(),
        done: out.is_done(),
        virtual_time: e.virtual_time(),
    }
}

/// The nonzero models the determinism check sweeps, including a
/// sub-unit service rate (hub congestion) composed with sampling.
fn nonzero_model(kind: u8, seed: u64) -> LatencyModel {
    match kind % 4 {
        0 => LatencyModel::fixed(1.5).seed(seed),
        1 => LatencyModel::uniform(0.0, 3.0).seed(seed),
        2 => LatencyModel::log_normal(0.3, 0.6).seed(seed),
        _ => LatencyModel::uniform(0.5, 2.0).seed(seed).service_rate(0.5),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The tentpole contract: at zero latency the async engine replays
    /// the round engine's exact transmission stream — across random
    /// graphs, seeds, and every fault-plan shape.
    #[test]
    fn zero_latency_matches_the_round_engine_event_for_event(
        n in 4usize..20,
        extra in 0usize..16,
        seed in any::<u64>(),
        fault_kind in 0u8..4,
    ) {
        let g = random_connected_graph(n, extra, seed);
        let plan = fault_plan(fault_kind, seed ^ 0xBEEF);
        let sync = run_sync(&g, seed, plan.as_ref());
        let async_ = run_async(&g, seed, LatencyModel::zero(), plan.as_ref());
        prop_assert_eq!(sync.events, async_.events, "transmission streams diverge");
        prop_assert_eq!(sync.metrics, async_.metrics);
        prop_assert_eq!(sync.round, async_.round);
        prop_assert_eq!(sync.done, async_.done);
        prop_assert_eq!(sync.virtual_time, async_.virtual_time,
            "zero latency must not stretch virtual time");
    }

    /// Nonzero models: the run is a pure function of the inputs — two
    /// fresh engines replay the same event stream byte for byte.
    #[test]
    fn nonzero_latency_replays_identically(
        n in 4usize..16,
        extra in 0usize..12,
        seed in any::<u64>(),
        model_kind in 0u8..4,
        fault_kind in 0u8..4,
    ) {
        let g = random_connected_graph(n, extra, seed);
        let model = nonzero_model(model_kind, seed ^ 0xCAFE);
        let plan = fault_plan(fault_kind, seed ^ 0xBEEF);
        let a = run_async(&g, seed, model, plan.as_ref());
        let b = run_async(&g, seed, model, plan.as_ref());
        prop_assert_eq!(a.events, b.events, "replay diverged");
        prop_assert_eq!(a.metrics, b.metrics);
        prop_assert_eq!(a.round, b.round);
        prop_assert_eq!(a.virtual_time, b.virtual_time);
    }

    /// Latency reorders deliveries in time but loses nothing: whatever
    /// the model, every message that is not dropped by a fault arrives
    /// (quiescence implies an empty heap), and sampled-latency runs
    /// deliver exactly as many messages as the seed dictates.
    #[test]
    fn latency_never_loses_messages(
        n in 4usize..16,
        extra in 0usize..12,
        seed in any::<u64>(),
        model_kind in 0u8..4,
    ) {
        let g = random_connected_graph(n, extra, seed);
        let model = nonzero_model(model_kind, seed ^ 0xCAFE);
        let run = run_async(&g, seed, model, None);
        prop_assert_eq!(run.events.len() as u64, run.metrics.messages);
        prop_assert_eq!(run.metrics.dropped_messages, 0);
        prop_assert!(run.virtual_time >= 0.0);
    }
}
