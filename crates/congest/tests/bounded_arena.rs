//! Differential suite for the bounded edge-queue arena.
//!
//! Each round, the engine pops one head per backlogged edge out of a
//! recycling slot arena and crosses it on the spot. The contract: on any
//! graph, seed, and fault plan, the sharded run loop (1–3 workers) and
//! the zero-latency layer replay the serial run's exact transmission
//! stream, metrics, round, outcome and arena peak, and the arena never
//! peaks above the traffic that entered it.
//!
//! This file is the CI fence for the bounded-arena engine (see
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

/// Clean, drops, delays, and drops + crashes — the fault shapes every
/// run loop and layer must replay alike.
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

struct Run {
    events: Vec<TransmitEvent>,
    metrics: Metrics,
    round: u64,
    done: bool,
    peak_arena_slots: u64,
}

fn run_serial(g: &Arc<Graph>, seed: u64, plan: Option<&FaultPlan>) -> Run {
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
        peak_arena_slots: e.peak_arena_slots(),
    }
}

fn run_threaded(g: &Arc<Graph>, seed: u64, plan: Option<&FaultPlan>, workers: usize) -> Run {
    let nodes = (0..g.n()).map(mk_node).collect();
    let cfg = EngineConfig {
        seed,
        bandwidth_bits: None,
    };
    let mut e = Engine::new(Arc::clone(g), nodes, cfg);
    e.set_threads(workers);
    e.set_inline_cutoff(0); // force the barrier path
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
        peak_arena_slots: e.peak_arena_slots(),
    }
}

fn run_async_zero(g: &Arc<Graph>, seed: u64, plan: Option<&FaultPlan>) -> Run {
    let cfg = EngineConfig {
        seed,
        bandwidth_bits: None,
    };
    let mut e = Engine::from_fn(Arc::clone(g), cfg, mk_node);
    e.set_latency(LatencyModel::zero()).unwrap();
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
        peak_arena_slots: e.peak_arena_slots(),
    }
}

fn assert_same(base: &Run, other: &Run, what: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(
        &base.events,
        &other.events,
        "{}: transmission streams diverge",
        what
    );
    prop_assert_eq!(&base.metrics, &other.metrics, "{}: metrics diverge", what);
    prop_assert_eq!(base.round, other.round, "{}: round counts diverge", what);
    prop_assert_eq!(base.done, other.done, "{}: outcomes diverge", what);
    prop_assert_eq!(
        base.peak_arena_slots,
        other.peak_arena_slots,
        "{}: arena peaks diverge",
        what
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The sharded loop at every worker count and the zero-latency layer
    /// replay the serial run — events, metrics, round, outcome and
    /// arena peak — under every fault shape, delays included.
    #[test]
    fn threaded_and_zero_latency_runs_replay_the_serial_run(
        n in 4usize..24,
        extra in 0usize..16,
        seed in any::<u64>(),
        fault_kind in 0u8..4,
    ) {
        let g = random_connected_graph(n, extra, seed);
        let plan = fault_plan(fault_kind, seed ^ 0xBEEF);
        let base = run_serial(&g, seed, plan.as_ref());
        for workers in 1usize..4 {
            let t = run_threaded(&g, seed, plan.as_ref(), workers);
            assert_same(&base, &t, &format!("threaded/{workers}"))?;
        }
        let a = run_async_zero(&g, seed, plan.as_ref());
        assert_same(&base, &a, "async-zero")?;
    }

    /// The arena never peaks above the total traffic that ever entered
    /// the queues. That every slot returns to the free list is checked on
    /// the queues themselves (`passes_match_a_deque_per_edge_model`).
    #[test]
    fn arena_slots_recycle_without_leaking(
        n in 4usize..24,
        extra in 0usize..16,
        seed in any::<u64>(),
        fault_kind in 0u8..4,
    ) {
        let g = random_connected_graph(n, extra, seed);
        let plan = fault_plan(fault_kind, seed ^ 0xBEEF);
        let run = run_serial(&g, seed, plan.as_ref());
        prop_assert!(run.peak_arena_slots <= run.metrics.messages + run.metrics.dropped_messages,
            "peak {} exceeds total traffic {}",
            run.peak_arena_slots, run.metrics.messages + run.metrics.dropped_messages);
    }
}
