//! Telemetry-layer fences: the per-round sample stream, phase tables,
//! and the final `Metrics` must be bit-identical across every executor
//! (`testing::all_execs`), with and without faults; samples must
//! reconcile exactly against the aggregate counters; and installing
//! telemetry must not change the execution itself.

use std::sync::Arc;

use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};
use welle_congest::testing::{assert_all_execs_agree, run_everywhere, BfsWave, Echo, FloodMax};
use welle_congest::{
    Context, Engine, EngineConfig, FaultPlan, Protocol, Retention, SpanStage, TelemetryConfig,
};
use welle_graph::{gen, Graph, Port};

fn expander(n: usize, seed: u64) -> Arc<Graph> {
    let mut rng = StdRng::seed_from_u64(seed);
    Arc::new(gen::random_regular(n, 4, &mut rng).unwrap())
}

/// FloodMax with a phase tag derived from protocol state: phase
/// advances every 4 callbacks, cycling over 5 phases — a deterministic
/// stand-in for the election's segment schedule.
#[derive(Clone, Debug)]
struct PhasedFlood {
    inner: FloodMax,
    callbacks: u64,
}

impl PhasedFlood {
    fn new(id: u64) -> Self {
        PhasedFlood {
            inner: FloodMax::new(id),
            callbacks: 0,
        }
    }
}

impl Protocol for PhasedFlood {
    type Msg = u64;

    fn on_start(&mut self, ctx: &mut Context<'_, u64>) {
        self.inner.on_start(ctx);
    }

    fn on_round(&mut self, ctx: &mut Context<'_, u64>, inbox: &mut Vec<(Port, u64)>) {
        self.callbacks += 1;
        self.inner.on_round(ctx, inbox);
    }

    fn is_done(&self) -> bool {
        self.inner.is_done()
    }

    fn phase_tag(&self) -> Option<u8> {
        Some(((self.callbacks / 4) % 5) as u8)
    }
}

#[test]
fn sample_streams_identical_across_executors() {
    let g = expander(64, 3);
    let oracle = assert_all_execs_agree(
        &g,
        EngineConfig::default(),
        None,
        Some(TelemetryConfig::full().with_profile()),
        10_000,
        |i| FloodMax::new((i as u64 * 31) % 47),
    );
    let report = oracle.telemetry.expect("telemetry was installed");
    assert!(report.total_samples > 0);
    assert_eq!(report.samples.len() as u64, report.total_samples);
}

#[test]
fn samples_reconcile_against_metrics() {
    let g = expander(64, 5);
    let oracle = assert_all_execs_agree(
        &g,
        EngineConfig::default(),
        None,
        Some(TelemetryConfig::full()),
        10_000,
        |i| FloodMax::new(i as u64),
    );
    let report = oracle.telemetry.expect("telemetry was installed");
    let m = &oracle.metrics;
    assert_eq!(
        report.total_samples, m.active_rounds,
        "one sample per active round"
    );
    let msgs: u64 = report.samples.iter().map(|s| s.messages).sum();
    let bits: u64 = report.samples.iter().map(|s| s.bits).sum();
    let dropped: u64 = report.samples.iter().map(|s| s.dropped).sum();
    let backlog = report
        .samples
        .iter()
        .map(|s| s.max_backlog)
        .max()
        .unwrap_or(0);
    assert_eq!(msgs, m.messages);
    assert_eq!(bits, m.bits);
    assert_eq!(dropped, m.dropped_messages);
    assert_eq!(backlog, m.max_edge_backlog);
    // Rounds are strictly increasing and ticks follow the round clock.
    for w in report.samples.windows(2) {
        assert!(w[0].round < w[1].round);
        assert!(w[0].tick < w[1].tick);
    }
}

#[test]
fn faulted_streams_identical_across_executors() {
    let g = expander(64, 7);
    let plan = FaultPlan::new(11)
        .drop_rate(0.1)
        .crash_fraction(0.1, 6)
        .delay_all(1);
    let oracle = assert_all_execs_agree(
        &g,
        EngineConfig::default(),
        Some(&plan),
        Some(TelemetryConfig::full().with_profile()),
        10_000,
        |i| FloodMax::new((i as u64 * 13) % 29),
    );
    let report = oracle.telemetry.expect("telemetry was installed");
    let dropped: u64 = report.samples.iter().map(|s| s.dropped).sum();
    assert!(dropped > 0, "the plan must actually bite");
    assert_eq!(dropped, oracle.metrics.dropped_messages);
}

#[test]
fn phase_tables_identical_across_executors() {
    let g = expander(48, 9);
    let oracle = assert_all_execs_agree(
        &g,
        EngineConfig::default(),
        None,
        Some(TelemetryConfig::full()),
        10_000,
        |i| PhasedFlood::new((i as u64 * 17) % 37),
    );
    let report = oracle.telemetry.expect("telemetry was installed");
    // Phase 0 is published from the first sampled round onwards, so no
    // sample can precede attribution.
    assert!(report.samples.iter().all(|s| s.phase.is_some()));
    let phase_rounds: u64 = report.phases.iter().map(|(_, totals)| totals.rounds).sum();
    assert_eq!(phase_rounds, report.total_samples);
    let phase_msgs: u64 = report
        .phases
        .iter()
        .map(|(_, totals)| totals.messages)
        .sum();
    assert_eq!(phase_msgs, oracle.metrics.messages);
}

#[test]
fn ring_retention_bounds_samples_but_keeps_totals() {
    let g = expander(48, 13);
    let full = assert_all_execs_agree(
        &g,
        EngineConfig::default(),
        None,
        Some(TelemetryConfig::full()),
        10_000,
        |i| PhasedFlood::new(i as u64),
    );
    let ring = assert_all_execs_agree(
        &g,
        EngineConfig::default(),
        None,
        Some(TelemetryConfig::ring(4)),
        10_000,
        |i| PhasedFlood::new(i as u64),
    );
    let full = full.telemetry.unwrap();
    let ring = ring.telemetry.unwrap();
    assert!(ring.samples.len() <= 4);
    assert_eq!(ring.total_samples, full.total_samples);
    assert_eq!(ring.phases, full.phases);
    assert_eq!(
        ring.samples.as_slice(),
        &full.samples[full.samples.len() - ring.samples.len()..],
        "the ring keeps the stream's tail"
    );
    // Ring(0) drops every sample but still aggregates.
    let none = assert_all_execs_agree(
        &g,
        EngineConfig::default(),
        None,
        Some(TelemetryConfig::ring(0)),
        10_000,
        |i| PhasedFlood::new(i as u64),
    )
    .telemetry
    .unwrap();
    assert!(none.samples.is_empty());
    assert_eq!(none.total_samples, full.total_samples);
    assert_eq!(none.phases, full.phases);
}

#[test]
fn profiler_counts_are_deterministic_and_wall_clock_is_separate() {
    let g = expander(48, 17);
    let run = |seed| {
        let nodes = (0..g.n()).map(|i| FloodMax::new(i as u64)).collect();
        let mut e = Engine::new(
            Arc::clone(&g),
            nodes,
            EngineConfig {
                seed,
                ..EngineConfig::default()
            },
        );
        e.set_telemetry(TelemetryConfig::full().with_profile());
        e.run(10_000);
        (e.metrics().active_rounds, e.take_telemetry().unwrap())
    };
    let (active, a) = run(1);
    let (_, b) = run(1);
    let pa = a.profile.expect("profiling was on");
    let pb = b.profile.expect("profiling was on");
    for (x, y) in pa.iter().zip(pb.iter()) {
        assert_eq!(x.stage, y.stage);
        assert_eq!(
            x.entries,
            y.entries,
            "{}: entries deterministic",
            x.stage.name()
        );
        assert_eq!(
            x.events,
            y.events,
            "{}: events deterministic",
            x.stage.name()
        );
        // wall_ns is intentionally NOT compared: it is the only
        // non-deterministic field and lives apart from the counts.
    }
    let round = pa.iter().find(|s| s.stage == SpanStage::Round).unwrap();
    assert_eq!(round.entries, active, "one Round span per active round");
    let heap = pa
        .iter()
        .find(|s| s.stage == SpanStage::LatencyHeap)
        .unwrap();
    assert_eq!(heap.entries, 0, "the serial engine has no latency heap");
}

#[test]
fn telemetry_is_inert_when_absent_and_when_installed() {
    let g = expander(48, 19);
    // No telemetry at all: take_telemetry is None.
    let plain = run_everywhere(&g, EngineConfig::default(), None, None, 10_000, |i| {
        Echo::new(i == 0)
    });
    assert!(plain.iter().all(|r| r.telemetry.is_none()));
    // Installing telemetry must not perturb the execution: identical
    // metrics with and without the layer.
    let observed = run_everywhere(
        &g,
        EngineConfig::default(),
        None,
        Some(TelemetryConfig::full().with_profile()),
        10_000,
        |i| Echo::new(i == 0),
    );
    for (p, o) in plain.iter().zip(observed.iter()) {
        assert_eq!(
            p.metrics, o.metrics,
            "{}: telemetry perturbed the run",
            p.name
        );
        assert_eq!(
            p.outcome, o.outcome,
            "{}: telemetry perturbed the outcome",
            p.name
        );
    }
}

#[test]
fn bfs_wave_streams_agree_on_structured_graphs() {
    for (gname, g) in [
        ("ring", Arc::new(gen::ring(40).unwrap())),
        ("torus", Arc::new(gen::torus2d(6, 7).unwrap())),
    ] {
        let oracle = assert_all_execs_agree(
            &g,
            EngineConfig::default(),
            None,
            Some(TelemetryConfig::full()),
            10_000,
            |i| BfsWave::new(i == 0),
        );
        let report = oracle.telemetry.unwrap();
        assert!(report.total_samples > 0, "{gname}: wave produced samples");
        // A BFS wave is always active once started: exactly one sample
        // per engine round until quiescence.
        assert!(
            report.samples.iter().all(|s| s.active_nodes > 0),
            "{gname}: sampled rounds ran callbacks"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn telemetry_streams_agree_for_random_inputs(
        n in 8usize..40,
        seed in any::<u64>(),
        drop_pct in 0u32..20,
        ring in 0usize..9,
    ) {
        let g = expander(n.max(8) / 2 * 2, seed ^ 0xA5A5);
        let plan = if drop_pct > 0 {
            Some(FaultPlan::new(seed).drop_rate(f64::from(drop_pct) / 100.0))
        } else {
            None
        };
        // ring == 8 doubles as "full retention".
        let retention = if ring < 8 {
            TelemetryConfig::ring(ring)
        } else {
            TelemetryConfig::full()
        };
        let cfg = EngineConfig { seed, ..EngineConfig::default() };
        let oracle = assert_all_execs_agree(
            &g,
            cfg,
            plan.as_ref(),
            Some(retention.with_profile()),
            50_000,
            |i| PhasedFlood::new((i as u64).wrapping_mul(0x9E37) % 101),
        );
        let report = oracle.telemetry.unwrap();
        prop_assert_eq!(report.total_samples, oracle.metrics.active_rounds);
        if let Retention::Ring(k) = retention.retention {
            prop_assert!(report.samples.len() <= k);
        }
    }
}
