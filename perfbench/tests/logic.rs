//! Tests of the benchmark's own logic: the correctness gate, the derived
//! ratios, the metric tables, the workload records, and whole runs of
//! every workload on a tiny expander.

use welle_congest::RunOutcome;
use welle_core::{ElectionReport, SpanStage, SpanStats, TelemetryReport};
use welle_perfbench::metrics::{result_line, END_TO_END, PER_LAYER};
use welle_perfbench::run::{
    busy_share, engine_self_s, fastest_per_slot, gate, median, ns_per, per_layer, run_traced,
    run_untraced, Pass, TracedPasses, Trial, PASSES,
};
use welle_perfbench::workloads::{find, records_json, Kind, Workload, WORKLOADS};

fn report(leaders: Vec<usize>, broken_routes: u64, dropped_messages: u64) -> ElectionReport {
    ElectionReport {
        n: 64,
        m: 128,
        contenders: 4,
        leaders,
        leader_id: None,
        messages: 40,
        bits: 1_000,
        decided_round: 10,
        engine_rounds: 12,
        final_walk_len: 16,
        epochs_used: 5,
        gave_up: 1,
        dropped_messages,
        crashed: 0,
        dropped_tokens: 0,
        broken_routes,
        virtual_time: 12.0,
        peak_arena_slots: 10,
        phase_rounds: [0; 5],
        phase_messages: [0; 5],
        telemetry: None,
        outcome: RunOutcome::Done { round: 12 },
    }
}

#[test]
fn gate_trips_on_two_leaders_and_on_unexplained_broken_routes() {
    assert_eq!(gate(&report(vec![3], 0, 0)), None);
    assert_eq!(gate(&report(vec![], 0, 0)), None, "no leader is an outcome");
    assert_eq!(
        gate(&report(vec![3, 9], 0, 0)),
        Some("2 leaders".to_string())
    );
    assert!(gate(&report(vec![3], 2, 0)).is_some());
    assert_eq!(
        gate(&report(vec![3], 2, 40)),
        None,
        "lost messages explain broken routes"
    );
}

#[test]
fn derived_ratios() {
    assert_eq!(
        engine_self_s(10_000_000_000, 6_000_000_000, 3_000_000_000),
        1.0
    );
    assert_eq!(engine_self_s(5, 4, 3), 0.0, "never negative");
    assert_eq!(busy_share(3_000_000_000, 2, 2.0), 0.75);
    assert_eq!(ns_per(2_500, 10), 250.0);
    assert_eq!(ns_per(2_500, 0), 0.0);
}

#[test]
fn each_unit_counts_its_fastest_pass() {
    let passes = vec![vec![1.0, 5.0, 2.0], vec![3.0, 4.0, 0.5], vec![2.0, 6.0]];
    assert_eq!(
        fastest_per_slot(&passes),
        vec![1.0, 4.0],
        "short series cut"
    );
    assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(vec![4.0, 1.0]), 4.0, "upper median");
    assert_eq!(median(Vec::new()), 0.0);
}

fn span(stage: SpanStage, entries: u64, events: u64, wall_ns: u64) -> SpanStats {
    SpanStats {
        stage,
        entries,
        events,
        wall_ns,
    }
}

/// One traced sweep trial whose spans and phases are known.
fn traced_trial() -> Trial {
    let mut r = report(vec![1], 0, 0);
    r.phase_rounds = [1, 1, 1, 1, 0];
    r.phase_messages = [10, 10, 10, 10, 0];
    r.telemetry = Some(TelemetryReport {
        samples: Vec::new(),
        total_samples: 4,
        phases: Vec::new(),
        profile: Some(vec![
            span(SpanStage::Round, 4, 60, 1_000_000_000),
            span(SpanStage::Callbacks, 4, 20, 600_000_000),
            span(SpanStage::Deliver, 4, 40, 300_000_000),
            span(SpanStage::FaultFilter, 0, 0, 0),
            span(SpanStage::LatencyHeap, 0, 0, 0),
        ]),
    });
    Trial {
        scenario: "p=0".to_string(),
        seed: 1,
        report: r,
        wall_s: None,
    }
}

fn pass(trial: Trial, wall_s: f64) -> Pass {
    Pass {
        trials: vec![trial],
        attempted: 1,
        errors: Vec::new(),
        unit_walls: vec![wall_s / 2.0, wall_s / 2.0],
        unit_peaks: vec![1.0, 1.0],
        engines_built: 2,
    }
}

fn value(metrics: &[(&str, f64)], name: &str) -> f64 {
    metrics
        .iter()
        .find(|(n, _)| *n == name)
        .map(|m| m.1)
        .unwrap()
}

#[test]
fn per_layer_metrics_derive_from_spans_and_walls() {
    let sweep = find("sweep-64").unwrap();
    let mut plain = traced_trial();
    plain.report.telemetry = None;
    let passes = TracedPasses {
        untraced: pass(plain.clone(), 1.0),
        traced: pass(traced_trial(), 1.25),
        one_worker: Some(pass(plain, 1.9)),
    };
    let (m, problems) = per_layer(sweep, &passes, 0.5);
    assert!(problems.is_empty(), "{problems:?}");
    let close = |name: &str, want: f64| {
        let got = value(&m, name);
        assert!((got - want).abs() < 1e-9, "{name}: {got} != {want}");
    };
    close("graph.gen_s", 0.5);
    close("engine.round_s", 1.0);
    close("engine.self_s", 0.1);
    close("engine.active_rounds", 4.0);
    close("protocol.ns_per_callback", 3e7);
    close("deliver.ns_per_msg", 7.5e6);
    close("protocol.decided_share", 0.75);
    close("scheduler.busy_share", 0.4);
    close("scheduler.scaling", 1.9);
    close("scheduler.engines_built", 2.0);
    close("runner.outside_round_s", 1.5);
    close("trace.overhead", 0.25);
}

#[test]
fn traced_run_checks_catch_inconsistent_elections() {
    let w = find("expander-128").unwrap();
    let mut bad = traced_trial();
    bad.report.phase_messages[0] += 1;
    let mut other = traced_trial();
    other.report.messages += 1;
    let passes = TracedPasses {
        untraced: pass(other, 1.0),
        traced: pass(bad, 1.0),
        one_worker: None,
    };
    let (_, problems) = per_layer(w, &passes, 0.0);
    assert_eq!(problems.len(), 2, "{problems:?}");
    assert!(problems[0].contains("traced run"), "{problems:?}");
    assert!(problems[1].contains("phase messages"), "{problems:?}");
}

/// A legal metric name: 1 to 64 characters from `[A-Za-z0-9_.-]`,
/// starting with a letter or digit.
fn valid_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
}

/// A legal unit: 1 to 16 characters from `[A-Za-z0-9_/%.-]`.
fn valid_unit(unit: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    !unit.is_empty() && unit.len() <= 16 && unit.chars().all(ok_char)
}

#[test]
fn metric_names_are_legal_unique_and_have_units() {
    let all: Vec<_> = END_TO_END.iter().chain(&PER_LAYER).collect();
    for d in &all {
        assert!(valid_name(d.name), "bad name {}", d.name);
        assert!(valid_unit(d.unit), "bad unit {} of {}", d.unit, d.name);
    }
    let mut names: Vec<&str> = all.iter().map(|d| d.name).collect();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), all.len(), "duplicate metric name");
    assert!(!valid_name(".hidden") && !valid_name("a b") && !valid_name(""));
    assert!(!valid_unit("") && !valid_unit("msgs per s"));
}

#[test]
fn result_line_names_every_metric_with_its_unit() {
    let values: Vec<(&str, f64)> = END_TO_END.iter().map(|d| (d.name, 1.5)).collect();
    let line = result_line(true, 3, 0, &END_TO_END, &values);
    assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0, "));
    for d in &END_TO_END {
        let entry = format!(
            "\"{}\": {{\"value\": 1.5, \"unit\": \"{}\"}}",
            d.name, d.unit
        );
        assert!(line.contains(&entry), "{line}");
    }
    // A missing or non-finite value makes the run incorrect.
    let line = result_line(true, 3, 0, &END_TO_END, &values[1..]);
    assert!(line.starts_with("{\"correct\": false"));
    let mut nan = values.clone();
    nan[0].1 = f64::NAN;
    assert!(result_line(true, 3, 0, &END_TO_END, &nan).starts_with("{\"correct\": false"));
}

fn repo_file(name: &str) -> String {
    let path = format!("{}/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

#[test]
fn benchmark_json_lists_exactly_these_metrics_and_workloads() {
    let json = repo_file("../BENCHMARK.json");
    for d in &END_TO_END {
        let entry = format!(
            "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": ",
            d.name,
            d.unit,
            d.better.as_str()
        );
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    for d in &PER_LAYER {
        let entry = format!(
            "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
            d.name,
            d.unit,
            d.better.as_str()
        );
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    for w in &WORKLOADS {
        let entry = format!("{{\"name\": \"{}\", \"why\": ", w.name);
        assert!(
            json.contains(&entry),
            "BENCHMARK.json lacks workload {}",
            w.name
        );
    }
    let named = json.matches("\"name\":").count();
    assert_eq!(named, END_TO_END.len() + PER_LAYER.len() + WORKLOADS.len());
}

#[test]
fn workload_records_are_current() {
    assert_eq!(
        repo_file("workloads.json"),
        records_json(),
        "workloads.json must equal records_json()"
    );
}

/// Every workload on a 64-node expander, one second's worth of
/// elections: both runs pass their checks, report exactly their metric
/// set, and leave unused layers at zero.
#[test]
fn tiny_runs_pass_their_checks_and_report_every_metric() {
    for w in WORKLOADS {
        let w = Workload { n: 64, ..w };
        let untraced = run_untraced(&w, 3, 1).unwrap();
        assert!(
            untraced.problems.is_empty(),
            "{}: {:?}",
            w.name,
            untraced.problems
        );
        let names: Vec<&str> = untraced.metrics.iter().map(|m| m.0).collect();
        let want: Vec<&str> = END_TO_END.iter().map(|d| d.name).collect();
        assert_eq!(names, want, "{}", w.name);
        assert!(untraced
            .metrics
            .iter()
            .all(|m| m.1.is_finite() && m.1 > 0.0));

        let again = run_untraced(&w, 3, 1).unwrap();
        for name in ["messages", "rounds", "success_rate"] {
            assert_eq!(value(&untraced.metrics, name), value(&again.metrics, name));
        }

        let traced = run_traced(&w, 3, 1).unwrap();
        assert!(
            traced.problems.is_empty(),
            "{}: {:?}",
            w.name,
            traced.problems
        );
        let mut names: Vec<&str> = traced.metrics.iter().map(|m| m.0).collect();
        let mut want: Vec<&str> = PER_LAYER.iter().map(|d| d.name).collect();
        names.sort_unstable();
        want.sort_unstable();
        assert_eq!(names, want, "{}", w.name);
        for (name, v) in &traced.metrics {
            assert!(v.is_finite(), "{}: {name} = {v}", w.name);
            if w.is_unused(name) {
                assert_eq!(*v, 0.0, "{}: unused {name}", w.name);
            }
        }
        // Every election once untraced and once traced, and in a sweep
        // once more on one worker, in every scenario; an untraced run
        // times each of them in every pass.
        let seeds = w.election_seeds(3, 1).len() as u64;
        let (elections, modes) = match w.kind {
            Kind::Sweep { drop_rates } => (drop_rates.len() as u64 * seeds, 3),
            _ => (seeds, 2),
        };
        assert_eq!(traced.attempted, modes * elections, "{}", w.name);
        assert_eq!(untraced.attempted, PASSES as u64 * elections, "{}", w.name);
    }
}
