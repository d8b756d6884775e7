//! Driving-API safety net: every way of running the same
//! `(graph, config, seed)` election — any [`Exec`] choice, either sync
//! mode, observed or not, solo or inside a [`Campaign`] — must be
//! **bit-identical**: same leaders, same message/bit totals, same round
//! counts. A zero-fault [`FaultPlan`] must also be indistinguishable
//! from running without one, and faulted runs must agree across
//! executors.

use std::sync::Arc;

use rand::{rngs::StdRng, SeedableRng};
use welle::congest::testing::all_execs;
use welle::congest::TransmitEvent;
use welle::core::{
    Campaign, ConfigError, Election, ElectionConfig, ElectionReport, Exec, FaultPlan, SyncMode,
};
use welle::graph::{gen, Graph};

fn expander(n: usize, seed: u64) -> Arc<Graph> {
    let mut rng = StdRng::seed_from_u64(seed);
    Arc::new(gen::random_regular(n, 4, &mut rng).unwrap())
}

fn assert_identical(a: &ElectionReport, b: &ElectionReport, what: &str) {
    assert_eq!(a.n, b.n, "{what}: n");
    assert_eq!(a.m, b.m, "{what}: m");
    assert_eq!(a.contenders, b.contenders, "{what}: contenders");
    assert_eq!(a.leaders, b.leaders, "{what}: leaders");
    assert_eq!(a.leader_id, b.leader_id, "{what}: leader_id");
    assert_eq!(a.messages, b.messages, "{what}: messages");
    assert_eq!(a.bits, b.bits, "{what}: bits");
    assert_eq!(a.decided_round, b.decided_round, "{what}: decided_round");
    assert_eq!(a.engine_rounds, b.engine_rounds, "{what}: engine_rounds");
    assert_eq!(a.final_walk_len, b.final_walk_len, "{what}: final_walk_len");
    assert_eq!(a.epochs_used, b.epochs_used, "{what}: epochs_used");
    assert_eq!(a.gave_up, b.gave_up, "{what}: gave_up");
    assert_eq!(
        a.dropped_messages, b.dropped_messages,
        "{what}: dropped_messages"
    );
    assert_eq!(a.crashed, b.crashed, "{what}: crashed");
    assert_eq!(a.dropped_tokens, b.dropped_tokens, "{what}: dropped_tokens");
    assert_eq!(a.broken_routes, b.broken_routes, "{what}: broken_routes");
    assert_eq!(a.virtual_time, b.virtual_time, "{what}: virtual_time");
    assert_eq!(a.phase_rounds, b.phase_rounds, "{what}: phase_rounds");
    assert_eq!(a.phase_messages, b.phase_messages, "{what}: phase_messages");
    assert_eq!(
        a.telemetry.is_some(),
        b.telemetry.is_some(),
        "{what}: telemetry presence"
    );
    assert_eq!(a.outcome, b.outcome, "{what}: outcome");
}

fn configs() -> Vec<(&'static str, ElectionConfig)> {
    let base = ElectionConfig::tuned_for_simulation(96);
    vec![
        ("adaptive", base),
        (
            "fixed_t",
            ElectionConfig {
                sync: SyncMode::FixedT,
                ..base
            },
        ),
    ]
}

fn elect(g: &Arc<Graph>, cfg: ElectionConfig, seed: u64, exec: Exec) -> ElectionReport {
    Election::on(g)
        .config(cfg)
        .seed(seed)
        .executor(exec)
        .run()
        .unwrap()
}

#[test]
fn executors_are_bit_identical_across_sync_modes() {
    let g = expander(96, 5);
    for (name, cfg) in configs() {
        for seed in [1u64, 2, 3] {
            let serial = elect(&g, cfg, seed, Exec::Serial);
            for (exec_name, exec) in all_execs() {
                let par = elect(&g, cfg, seed, exec);
                assert_identical(&serial, &par, &format!("{name}/{exec_name}/seed {seed}"));
            }
        }
    }
}

#[test]
fn auto_executor_is_bit_identical_to_both() {
    let g = expander(96, 7);
    for (name, cfg) in configs() {
        let serial = elect(&g, cfg, 4, Exec::Serial);
        let threaded = elect(&g, cfg, 4, Exec::Threaded(2));
        let auto = elect(&g, cfg, 4, Exec::Auto);
        assert_identical(&serial, &auto, &format!("{name}/auto vs serial"));
        assert_identical(&threaded, &auto, &format!("{name}/auto vs threaded"));
    }
}

#[test]
fn observers_see_identical_traffic_on_every_executor() {
    let g = expander(96, 8);
    let cfg = ElectionConfig::tuned_for_simulation(96);

    let mut serial_events: Vec<(u64, usize)> = Vec::new();
    let mut serial_obs = |ev: &TransmitEvent| serial_events.push((ev.round, ev.from.index()));
    let serial = Election::on(&g)
        .config(cfg)
        .seed(11)
        .executor(Exec::Serial)
        .observer(&mut serial_obs)
        .run()
        .unwrap();
    assert_eq!(serial_events.len() as u64, serial.messages);

    let mut par_events: Vec<(u64, usize)> = Vec::new();
    let mut par_obs = |ev: &TransmitEvent| par_events.push((ev.round, ev.from.index()));
    let par = Election::on(&g)
        .config(cfg)
        .seed(11)
        .executor(Exec::Threaded(3))
        .observer(&mut par_obs)
        .run()
        .unwrap();

    assert_identical(&serial, &par, "observed serial vs threaded");
    assert_eq!(serial_events, par_events, "event streams must be identical");
}

#[test]
fn campaign_trials_match_individual_runs() {
    let g = expander(96, 9);
    let cfg = ElectionConfig::tuned_for_simulation(96);
    let outcome = Campaign::new(Election::on(&g).config(cfg))
        .seeds(20..25)
        .run()
        .unwrap();
    assert_eq!(outcome.trials.len(), 5);
    for t in &outcome.trials {
        let solo = Election::on(&g).config(cfg).seed(t.seed).run().unwrap();
        assert_identical(&solo, &t.report, &format!("campaign seed {}", t.seed));
    }
    let s = outcome.summary();
    assert_eq!(s.trials, 5);
    assert_eq!(
        s.successes,
        outcome
            .trials
            .iter()
            .filter(|t| t.report.is_success())
            .count()
    );
}

#[test]
fn threaded_campaigns_match_individual_runs() {
    // The trial scheduler is one more way of driving the same election:
    // every pooled trial must be bit-identical to its solo run, and the
    // workers must share engines instead of building one per trial.
    let g = expander(96, 9);
    let cfg = ElectionConfig::tuned_for_simulation(96);
    let outcome = Campaign::new(Election::on(&g).config(cfg))
        .seeds(20..25)
        .trial_threads(3)
        .run()
        .unwrap();
    assert_eq!(outcome.trials.len(), 5);
    assert!(
        outcome.engines_built <= 3,
        "built {}",
        outcome.engines_built
    );
    for t in &outcome.trials {
        let solo = Election::on(&g).config(cfg).seed(t.seed).run().unwrap();
        assert_identical(
            &solo,
            &t.report,
            &format!("pooled campaign seed {}", t.seed),
        );
    }
}

#[test]
fn threaded_trials_share_the_pooled_engine() {
    // Worker threads are a setting of the one engine, so trials on an
    // explicit thread count reuse the pooled engine like any other and
    // stay bit-identical to their solo runs.
    let g = expander(96, 9);
    let cfg = ElectionConfig::tuned_for_simulation(96);
    let outcome = Campaign::new(Election::on(&g).config(cfg).executor(Exec::Threaded(2)))
        .seeds(30..34)
        .run()
        .unwrap();
    assert_eq!(outcome.trials.len(), 4);
    assert_eq!(outcome.engines_built, 1);
    for t in &outcome.trials {
        let solo = Election::on(&g).config(cfg).seed(t.seed).run().unwrap();
        assert_identical(&solo, &t.report, &format!("threaded trial seed {}", t.seed));
    }
}

#[test]
fn zero_fault_plan_is_indistinguishable_from_no_plan() {
    let g = expander(96, 12);
    for (name, cfg) in configs() {
        let plain = elect(&g, cfg, 6, Exec::Serial);
        for (exec_name, exec) in all_execs() {
            let faulted = Election::on(&g)
                .config(cfg)
                .seed(6)
                .executor(exec)
                .faults(FaultPlan::new(999))
                .run()
                .unwrap();
            assert_identical(&plain, &faulted, &format!("{name}/zero-fault {exec_name}"));
            assert_eq!(faulted.dropped_messages, 0);
            assert_eq!(faulted.crashed, 0);
        }
    }
}

#[test]
fn faulted_elections_are_bit_identical_across_executors() {
    let g = expander(96, 13);
    let cfg = ElectionConfig {
        // Cap the guess-and-double search: under heavy faults the
        // certificates may never hold, and the cap keeps the give-up
        // visible and cheap.
        max_walk_len: Some(64),
        ..ElectionConfig::tuned_for_simulation(96)
    };
    let plan = FaultPlan::new(3)
        .drop_rate(0.1)
        .crash_fraction(0.05, 40)
        .delay_all(1);
    let serial = Election::on(&g)
        .config(cfg)
        .seed(2)
        .executor(Exec::Serial)
        .faults(plan.clone())
        .run()
        .unwrap();
    assert!(serial.dropped_messages > 0, "the plan must actually bite");
    for (exec_name, exec) in all_execs() {
        let par = Election::on(&g)
            .config(cfg)
            .seed(2)
            .executor(exec)
            .faults(plan.clone())
            .run()
            .unwrap();
        assert_identical(&serial, &par, &format!("faulted {exec_name}"));
    }
    // Campaign scenarios carry plans too, through the same code path —
    // serially and on the pooled trial scheduler.
    let outcome = Campaign::new(Election::on(&g).config(cfg).faults(plan.clone()))
        .seeds([2])
        .run()
        .unwrap();
    assert_identical(&serial, &outcome.trials[0].report, "faulted campaign");
    let pooled = Campaign::new(Election::on(&g).config(cfg).faults(plan))
        .seeds([2])
        .trial_threads(2)
        .run()
        .unwrap();
    assert_identical(&serial, &pooled.trials[0].report, "faulted pooled campaign");
}

#[test]
fn builder_reports_config_errors_before_running() {
    let g = expander(32, 10);
    let bad = ElectionConfig {
        c_t: f64::NEG_INFINITY,
        ..ElectionConfig::default()
    };
    match Election::on(&g).config(bad).run() {
        Err(ConfigError::BadConstant { name: "c_t", .. }) => {}
        other => panic!("expected BadConstant for c_t, got {other:?}"),
    }
    let err = Election::on(&g)
        .config(ElectionConfig {
            max_walk_len: Some(0),
            ..ElectionConfig::default()
        })
        .run()
        .unwrap_err();
    assert_eq!(err, ConfigError::ZeroWalkCap);
    // Fault plans are validated with everything else, before simulation.
    let err = Election::on(&g)
        .faults(FaultPlan::new(0).drop_rate(2.0))
        .run()
        .unwrap_err();
    assert!(matches!(err, ConfigError::Fault(_)), "{err:?}");
    let err = Campaign::new(Election::on(&g))
        .faults(FaultPlan::new(0).crash(99, 1))
        .seeds(0..1000) // would be expensive if it ran anything
        .run()
        .unwrap_err();
    assert!(matches!(err, ConfigError::Fault(_)), "{err:?}");
}
