//! End-to-end tests of the `welle` binary: stdout purity under `--csv`,
//! flag validation, and the interrupted-sweep → `--resume` round-trip
//! on the threaded trial scheduler. The resume test is the CI fence for
//! the campaign scheduler: it runs a multi-scenario campaign with
//! `--trial-threads 4` and verifies the manifest round-trips
//! byte-identically.

use std::path::PathBuf;
use std::process::{Command, Output};

use welle::core::{csv, Trial};

fn welle(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_welle"))
        .args(args)
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("spawn the welle binary")
}

fn tmp(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name)
}

#[test]
fn csv_stdout_stays_machine_readable_even_with_a_baseline() {
    let out = welle(&[
        "ring",
        "16",
        "--seeds",
        "2",
        "--cap",
        "32",
        "--csv",
        "--baseline",
        "flood",
    ]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    let stderr = String::from_utf8(out.stderr).unwrap();

    // stdout is nothing but the trial CSV: header, then uniform rows.
    let mut lines = stdout.lines();
    assert_eq!(lines.next().unwrap(), Trial::csv_header());
    let cols = Trial::csv_header().split(',').count();
    let mut rows = 0;
    for line in lines {
        let fields = csv::split_row(line).unwrap_or_else(|| panic!("bad CSV row: {line}"));
        assert_eq!(fields.len(), cols, "row: {line}");
        assert_eq!(fields[0], "ring");
        rows += 1;
    }
    assert_eq!(rows, 2, "one row per seed");

    // Everything informational — graph line, summary, baseline — went
    // to stderr instead of corrupting the stream.
    assert!(stderr.contains("graph: ring"), "{stderr}");
    assert!(stderr.contains("baseline flood-max"), "{stderr}");
}

#[test]
fn incompatible_flags_are_rejected_up_front() {
    let explicit_csv = welle(&["ring", "16", "--explicit", "--csv"]);
    assert!(!explicit_csv.status.success());
    assert!(String::from_utf8(explicit_csv.stderr)
        .unwrap()
        .contains("--csv is not supported with --explicit"));

    let lone_resume = welle(&["ring", "16", "--resume"]);
    assert!(!lone_resume.status.success());
    assert!(String::from_utf8(lone_resume.stderr)
        .unwrap()
        .contains("--resume needs --out"));

    let sweep_and_rate = welle(&["ring", "16", "--drop-sweep", "0,0.1", "--drop-rate", "0.1"]);
    assert!(!sweep_and_rate.status.success());
}

#[test]
fn bad_sweep_rates_and_unknown_baselines_fail_before_the_graph_is_built() {
    // Negative and NaN rates used to run as fault-free controls.
    for list in ["0,-0.5", "0,nan", "0,1.5"] {
        let out = welle(&["ring", "16", "--drop-sweep", list]);
        assert_eq!(out.status.code(), Some(1), "{list}: {out:?}");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(stderr.contains("--drop-sweep"), "{list}: {stderr}");
        // The `graph:` line on stdout comes after the graph is built.
        assert!(out.stdout.is_empty(), "{list}: the run started");
    }
    // An unknown baseline used to be reported after the election, with
    // exit status 0.
    let out = welle(&["ring", "16", "--baseline", "nope"]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("unknown baseline nope"), "{stderr}");
    assert!(out.stdout.is_empty(), "the run started");
}

#[test]
fn the_largest_seed_runs_and_a_range_past_it_is_rejected() {
    let last = welle(&[
        "ring",
        "16",
        "--seed",
        "18446744073709551615",
        "--cap",
        "32",
    ]);
    assert!(last.status.success(), "{last:?}");
    let stdout = String::from_utf8(last.stdout).unwrap();
    assert!(stdout.contains("seed 18446744073709551615"), "{stdout}");

    for extra in [&["--seeds", "2"][..], &["--seeds", "2", "--explicit"][..]] {
        let mut args = vec!["ring", "16", "--seed", "18446744073709551615"];
        args.extend_from_slice(extra);
        let past = welle(&args);
        assert!(!past.status.success(), "{args:?}");
        let stderr = String::from_utf8(past.stderr).unwrap();
        assert!(
            stderr.contains("--seed") && stderr.contains("--seeds"),
            "{args:?}: {stderr}"
        );
    }
}

#[test]
fn zero_seeds_are_rejected_before_the_graph_is_built() {
    // `--explicit` used to run nothing and exit 0, and the campaign path
    // built the graph before it failed.
    for args in [
        &["ring", "16", "--seeds", "0"][..],
        &["ring", "16", "--explicit", "--seeds", "0"][..],
    ] {
        let out = welle(args);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {out:?}");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(stderr.contains("--seeds"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?}: the run started");
    }
}

#[test]
fn out_of_range_values_are_rejected_before_the_graph_is_built() {
    // Each of these used to print the `graph:` line and build the graph
    // before the library rejected the value. The bad value comes last.
    for extra in [
        &["--threads", "0"][..],
        &["--trial-threads", "0"],
        &["--cap", "0"],
        &["--drop-rate", "2"],
        &["--drop-rate", "nan"],
        &["--crash", "1.5"],
        &["--crash", "-1"],
        &["--latency", "fixed:-1"],
        &["--latency", "lognormal:0,nan"],
        &["--latency", "zero", "--service-rate", "0"],
    ] {
        let flag = extra[extra.len() - 2];
        let mut args = vec!["ring", "16"];
        args.extend_from_slice(extra);
        let out = welle(&args);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {out:?}");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(stderr.contains(flag), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?}: the run started");
    }
}

#[test]
fn zero_trial_threads_names_the_trial_pool() {
    let out = welle(&["ring", "16", "--trial-threads", "0"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("Campaign::trial_threads"), "{stderr}");
    assert!(!stderr.contains("Exec::Threaded"), "{stderr}");
}

#[test]
fn latency_flags_are_validated_and_zero_matches_the_sync_run() {
    // Flag validation: the async executor excludes the sharded one, and
    // the latency sub-options need --latency.
    let both = welle(&["ring", "16", "--latency", "fixed:2", "--threads", "2"]);
    assert!(!both.status.success());
    assert!(String::from_utf8(both.stderr)
        .unwrap()
        .contains("cannot be combined with --threads"));
    let lone_rate = welle(&["ring", "16", "--service-rate", "0.5"]);
    assert!(!lone_rate.status.success());
    assert!(String::from_utf8(lone_rate.stderr)
        .unwrap()
        .contains("no effect without --latency"));
    let bad_spec = welle(&["ring", "16", "--latency", "gaussian:1"]);
    assert!(!bad_spec.status.success());

    // Bad model *parameters* surface as a config error, not a panic.
    let bad_params = welle(&["ring", "16", "--latency", "uniform:3,1"]);
    assert!(!bad_params.status.success());
    assert!(String::from_utf8(bad_params.stderr)
        .unwrap()
        .contains("latency model rejected"));

    // End to end through the CLI, --latency zero reproduces the
    // synchronous run's CSV rows bit for bit.
    let sync = welle(&["ring", "16", "--seeds", "2", "--cap", "32", "--csv"]);
    assert!(sync.status.success(), "{sync:?}");
    let zero = welle(&[
        "ring",
        "16",
        "--seeds",
        "2",
        "--cap",
        "32",
        "--csv",
        "--latency",
        "zero",
    ]);
    assert!(zero.status.success(), "{zero:?}");
    assert_eq!(
        String::from_utf8(sync.stdout).unwrap(),
        String::from_utf8(zero.stdout).unwrap(),
        "zero-latency CSV must be bit-identical to the sync executor's"
    );

    // A sampled model runs to completion and stretches virtual time
    // into the human-readable report line.
    let sampled = welle(&[
        "ring",
        "16",
        "--cap",
        "32",
        "--latency",
        "lognormal:0.3,0.6",
    ]);
    assert!(sampled.status.success(), "{sampled:?}");
    assert!(String::from_utf8(sampled.stdout)
        .unwrap()
        .contains("vtime="));
}

#[test]
fn interrupted_sweep_resumes_byte_identically_under_trial_threads() {
    let sweep = |out_file: &str, extra: &[&str]| {
        let mut args = vec![
            "expander",
            "48",
            "--seeds",
            "3",
            "--cap",
            "48",
            "--drop-sweep",
            "0,0.3",
            "--trial-threads",
            "4",
            "--out",
            out_file,
        ];
        args.extend_from_slice(extra);
        welle(&args)
    };

    // Uninterrupted reference run.
    let full = sweep("cli_full.csv", &[]);
    assert!(full.status.success(), "{full:?}");
    let reference = std::fs::read_to_string(tmp("cli_full.csv")).unwrap();

    // Interrupt after 4 of 6 trials, then resume to completion.
    let cut = sweep("cli_cut.csv", &["--max-trials", "4"]);
    assert!(cut.status.success(), "{cut:?}");
    assert!(String::from_utf8(cut.stderr)
        .unwrap()
        .contains("stopped after 4 of 6 trials"));
    let resumed = sweep("cli_cut.csv", &["--resume"]);
    assert!(resumed.status.success(), "{resumed:?}");
    assert!(String::from_utf8(resumed.stderr)
        .unwrap()
        .contains("resumed 4 completed trials"));

    let recovered = std::fs::read_to_string(tmp("cli_cut.csv")).unwrap();
    assert_eq!(
        recovered, reference,
        "the resumed manifest must be byte-identical to the uninterrupted run"
    );

    // The sweep labels carry commas ("p=0, expander"); they must
    // round-trip intact through the quoted CSV.
    let mut lines = reference.lines();
    assert_eq!(lines.next().unwrap(), Trial::csv_header());
    let labels: Vec<String> = lines
        .map(|l| csv::split_row(l).expect("valid row")[0].clone())
        .collect();
    assert_eq!(labels.len(), 6);
    assert!(
        labels[..3].iter().all(|l| l == "p=0, expander"),
        "{labels:?}"
    );
    assert!(
        labels[3..].iter().all(|l| l == "p=0.3, expander"),
        "{labels:?}"
    );
}
