//! Election-level telemetry fences: phase attribution is complete and
//! byte-identical across executors and trial-thread counts, survives a
//! campaign resume, and costs nothing when off.

mod barrier;

use std::sync::Arc;

use barrier::{through_barrier, Counts};
use proptest::prelude::*;
use welle_core::export::{phase_table, write_round_log};
use welle_core::{
    Campaign, Election, ElectionConfig, ElectionReport, Exec, FaultPlan, Phase, Retention,
    TelemetryConfig,
};
use welle_graph::gen;

fn graph() -> Arc<welle_graph::Graph> {
    Arc::new(gen::hypercube(6).unwrap())
}

fn cfg() -> ElectionConfig {
    ElectionConfig::tuned_for_simulation(64)
}

fn observed(exec: Exec, seed: u64, tcfg: TelemetryConfig) -> ElectionReport {
    let g = graph();
    Election::on(&g)
        .config(cfg())
        .seed(seed)
        .executor(exec)
        .telemetry(tcfg)
        .run()
        .unwrap()
}

#[test]
fn phase_tables_and_round_logs_identical_across_executors() {
    let serial = observed(Exec::Serial, 7, TelemetryConfig::full());
    let mut serial_log = Vec::new();
    write_round_log(serial.telemetry.as_ref().unwrap(), &mut serial_log).unwrap();
    for exec in [
        Exec::Threaded(3),
        Exec::Async(welle_core::LatencyModel::zero()),
    ] {
        let other = observed(exec, 7, TelemetryConfig::full());
        assert_eq!(other.phase_rounds, serial.phase_rounds, "{exec:?}");
        assert_eq!(other.phase_messages, serial.phase_messages, "{exec:?}");
        assert_eq!(
            phase_table(&other),
            phase_table(&serial),
            "{exec:?}: phase table must be byte-identical"
        );
        let mut log = Vec::new();
        write_round_log(other.telemetry.as_ref().unwrap(), &mut log).unwrap();
        assert_eq!(
            log, serial_log,
            "{exec:?}: round log must be byte-identical"
        );
    }
    // Every round through the worker barrier: the same counts, phase
    // totals and round log.
    let (counts, telemetry) =
        through_barrier(&graph(), cfg(), 7, 3, None, Some(TelemetryConfig::full()));
    assert_eq!(counts, Counts::of(&serial), "barrier");
    let telemetry = telemetry.unwrap();
    let serial_telemetry = serial.telemetry.as_ref().unwrap();
    assert_eq!(telemetry.phases, serial_telemetry.phases, "barrier");
    let mut log = Vec::new();
    write_round_log(&telemetry, &mut log).unwrap();
    assert_eq!(log, serial_log, "barrier: round log must be byte-identical");
}

#[test]
fn phase_attribution_is_complete() {
    let report = observed(Exec::Serial, 3, TelemetryConfig::full());
    let t = report.telemetry.as_ref().unwrap();
    // Every sampled round lands in some election phase: the protocol
    // publishes `walk` from its very first callback.
    assert!(t.samples.iter().all(|s| s.phase.is_some()));
    assert_eq!(
        report.phase_rounds.iter().sum::<u64>(),
        t.total_samples,
        "per-phase rounds partition the sampled rounds"
    );
    assert_eq!(
        report.phase_messages.iter().sum::<u64>(),
        report.messages,
        "per-phase messages partition the message total"
    );
    // A successful election exercises the walk and at least R1.
    assert!(report.is_success());
    assert!(report.phase_rounds[Phase::Walk.tag() as usize] > 0);
    assert!(report.phase_rounds[Phase::R1.tag() as usize] > 0);
}

#[test]
fn telemetry_off_leaves_the_report_unchanged() {
    let g = graph();
    let base = Election::on(&g).config(cfg()).seed(11).run().unwrap();
    assert!(base.telemetry.is_none());
    assert_eq!(base.phase_rounds, [0; 5]);
    assert_eq!(base.phase_messages, [0; 5]);
    // Installing telemetry must not perturb the election itself.
    let on = observed(Exec::Serial, 11, TelemetryConfig::full().with_profile());
    assert_eq!(on.leaders, base.leaders);
    assert_eq!(on.messages, base.messages);
    assert_eq!(on.bits, base.bits);
    assert_eq!(on.decided_round, base.decided_round);
    assert_eq!(on.engine_rounds, base.engine_rounds);
    assert_eq!(on.outcome, base.outcome);
    // And the off-run's CSV row equals the on-run's with the ten phase
    // columns zeroed — nothing else may move.
    let strip = |row: &str| -> Vec<String> { row.split(',').map(str::to_string).collect() };
    let (b, o) = (strip(&base.csv_row()), strip(&on.csv_row()));
    assert_eq!(b.len(), o.len());
    for (i, (x, y)) in b.iter().zip(&o).enumerate() {
        if (15..25).contains(&i) {
            assert_eq!(x, "0", "column {i} must be zero when telemetry is off");
        } else {
            assert_eq!(x, y, "column {i} drifted");
        }
    }
}

#[test]
fn ring_zero_keeps_phase_totals_without_samples() {
    let full = observed(Exec::Serial, 5, TelemetryConfig::full());
    let lean = observed(Exec::Serial, 5, TelemetryConfig::ring(0));
    assert_eq!(lean.phase_rounds, full.phase_rounds);
    assert_eq!(lean.phase_messages, full.phase_messages);
    let t = lean.telemetry.as_ref().unwrap();
    assert!(t.samples.is_empty());
    assert_eq!(
        t.total_samples,
        full.telemetry.as_ref().unwrap().total_samples
    );
}

#[test]
fn campaign_aggregates_phases_at_any_worker_count() {
    let g = graph();
    let sweep = |workers: usize| {
        Campaign::new(Election::on(&g).config(cfg()))
            .label("q6")
            .telemetry(TelemetryConfig::ring(0))
            .seeds(0..6)
            .trial_threads(workers)
            .run()
            .unwrap()
    };
    let serial = sweep(1);
    let s = serial.summary();
    assert!(s.phase_rounds_max.iter().any(|&r| r > 0));
    // mean * trials == sum of the per-trial phase rounds.
    for (i, &mean) in s.phase_rounds_mean.iter().enumerate() {
        let sum: u64 = serial.trials.iter().map(|t| t.report.phase_rounds[i]).sum();
        assert!(
            (mean * s.trials as f64 - sum as f64).abs() < 1e-9,
            "phase {i}"
        );
        let max = serial
            .trials
            .iter()
            .map(|t| t.report.phase_rounds[i])
            .max()
            .unwrap();
        assert_eq!(s.phase_rounds_max[i], max, "phase {i}");
    }
    for workers in [2usize, 4] {
        let pooled = sweep(workers);
        let p = pooled.summary();
        assert_eq!(p.phase_rounds_max, s.phase_rounds_max, "workers={workers}");
        assert_eq!(p.csv_row(), s.csv_row(), "workers={workers}");
    }
}

#[test]
fn resumed_campaign_recovers_phase_aggregates() {
    let g = graph();
    let path = {
        let mut p = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"));
        p.push("../../target/test-tmp");
        std::fs::create_dir_all(&p).unwrap();
        p.push(format!("{}_telemetry_resume.csv", std::process::id()));
        p
    };
    let sweep = || {
        Campaign::new(Election::on(&g).config(cfg()))
            .label("q6")
            .telemetry(TelemetryConfig::ring(0))
            .seeds(0..5)
    };
    let full = sweep().stream_csv(&path).run().unwrap();
    let full_text = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    // Interrupt after 2 of 5 trials, then resume: the recovered phase
    // aggregates must match the uninterrupted run exactly.
    sweep().stream_csv(&path).budget_trials(2).run().unwrap();
    let resumed = sweep().stream_csv(&path).resume(true).run().unwrap();
    let resumed_text = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    assert_eq!(resumed.resumed_trials, 2);
    assert_eq!(resumed_text, full_text);
    assert_eq!(
        resumed.summary().phase_rounds_max,
        full.summary().phase_rounds_max
    );
    assert_eq!(resumed.summary().csv_row(), full.summary().csv_row());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Phase streams agree across executors for random seeds and
    /// retention policies, with and without faults.
    #[test]
    fn phase_streams_agree_for_random_runs(
        seed in any::<u64>(),
        ring in 0usize..5,
        drop_pct in 0u32..10,
    ) {
        let g = graph();
        // ring == 4 doubles as "full retention".
        let tcfg = if ring < 4 {
            TelemetryConfig::ring(ring * 8)
        } else {
            TelemetryConfig::full()
        };
        let ecfg = ElectionConfig {
            max_walk_len: Some(64),
            ..cfg()
        };
        let plan =
            (drop_pct > 0).then(|| FaultPlan::new(seed).drop_rate(f64::from(drop_pct) / 100.0));
        let run = |exec: Exec| {
            let mut e = Election::on(&g)
                .config(ecfg)
                .seed(seed)
                .executor(exec)
                .telemetry(tcfg);
            if let Some(p) = &plan {
                e = e.faults(p.clone());
            }
            e.run().unwrap()
        };
        let serial = run(Exec::Serial);
        let threaded = run(Exec::Threaded(2));
        prop_assert_eq!(serial.phase_rounds, threaded.phase_rounds);
        prop_assert_eq!(serial.phase_messages, threaded.phase_messages);
        let (barrier, bt) = through_barrier(&g, ecfg, seed, 2, plan.as_ref(), Some(tcfg));
        prop_assert_eq!(barrier, Counts::of(&serial));
        let (st, tt, bt) = (serial.telemetry.unwrap(), threaded.telemetry.unwrap(), bt.unwrap());
        prop_assert_eq!(&st.samples, &tt.samples);
        prop_assert_eq!(st.total_samples, tt.total_samples);
        prop_assert_eq!(&st.phases, &tt.phases);
        prop_assert_eq!(&st.samples, &bt.samples, "barrier");
        prop_assert_eq!(st.total_samples, bt.total_samples, "barrier");
        prop_assert_eq!(&st.phases, &bt.phases, "barrier");
        if let Retention::Ring(k) = tcfg.retention {
            prop_assert!(st.samples.len() <= k);
        }
    }
}
