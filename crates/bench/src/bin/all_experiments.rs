//! Runs every experiment (E1–E14; each `experiments/` module states
//! its claim) in sequence, printing each table and writing CSVs under
//! `results/`. Pass `--quick` for the reduced sweeps used in smoke
//! tests.
//!
//! Batch controls:
//!
//! - `--trial-threads K` raises the process-wide campaign default
//!   ([`welle_core::set_default_trial_threads`]), so every experiment's
//!   seed sweeps run on K pooled worker threads — results are
//!   bit-identical to the serial runs at any K.
//! - `--resume` skips experiments already recorded in
//!   `results/all_experiments.manifest` (one completed experiment name
//!   per line, appended after its CSVs hit the disk). Resume is at
//!   *experiment* granularity: an experiment interrupted half-way is
//!   re-run from its start. Without `--resume` the manifest is
//!   truncated and every experiment runs.

use std::fs;
use std::io::Write;

use welle_bench::experiments as ex;

type ExperimentFn = fn(bool) -> Vec<welle_bench::Table>;

const MANIFEST: &str = "results/all_experiments.manifest";

fn parse_args() -> (bool, bool, usize) {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let quick = argv.iter().any(|a| a == "--quick");
    let resume = argv.iter().any(|a| a == "--resume");
    let mut threads = 1usize;
    let mut i = 0;
    while i < argv.len() {
        if argv[i] == "--trial-threads" {
            i += 1;
            threads = argv
                .get(i)
                .and_then(|v| v.parse().ok())
                .filter(|&k| k > 0)
                .unwrap_or_else(|| {
                    eprintln!("--trial-threads needs a positive integer");
                    std::process::exit(2);
                });
        }
        i += 1;
    }
    (quick, resume, threads)
}

fn main() {
    let (quick, resume, threads) = parse_args();
    welle_core::set_default_trial_threads(threads);
    if threads > 1 {
        println!("trial scheduler: {threads} worker threads per campaign");
    }

    let done: Vec<String> = if resume {
        fs::read_to_string(MANIFEST)
            .map(|t| t.lines().map(str::to_string).collect())
            .unwrap_or_default()
    } else {
        Vec::new()
    };
    fs::create_dir_all("results").expect("create results dir");
    let mut manifest = fs::OpenOptions::new()
        .create(true)
        .append(!done.is_empty())
        .truncate(done.is_empty())
        .write(true)
        .open(MANIFEST)
        .expect("open experiment manifest");

    let start = std::time::Instant::now();
    let runs: Vec<(&str, ExperimentFn)> = vec![
        ("e1_upper_bound", ex::e1_upper_bound::run),
        ("e2_contenders", ex::e2_contenders::run),
        ("e3_guess_double", ex::e3_guess_double::run),
        ("e4_uniqueness", ex::e4_uniqueness::run),
        ("e5_lb_graph", ex::e5_lb_graph::run),
        ("e6_first_contact", ex::e6_first_contact::run),
        ("e7_sandwich", ex::e7_sandwich::run),
        ("e8_dumbbell", ex::e8_dumbbell::run),
        ("e9_explicit", ex::e9_explicit::run),
        ("e10_families", ex::e10_families::run),
        ("e11_bcast_st", ex::e11_bcast_st::run),
        ("e12_known_tmix", ex::e12_known_tmix::run),
        ("e13_ablations", ex::e13_ablations::run),
        ("e14_resilience", ex::e14_resilience::run),
    ];
    for (name, f) in runs {
        if done.iter().any(|d| d == name) {
            println!("### {name} ### (resumed: already in {MANIFEST})\n");
            continue;
        }
        let t0 = std::time::Instant::now();
        println!("### {name} ###");
        let tables = f(quick);
        ex::emit(name, &tables);
        // Record completion only after the CSVs are on disk, so an
        // interrupted run re-runs the experiment it died inside.
        writeln!(manifest, "{name}")
            .and_then(|_| manifest.flush())
            .expect("append manifest");
        println!("[{name}: {:.1}s]\n", t0.elapsed().as_secs_f64());
    }
    println!(
        "all experiments done in {:.1}s",
        start.elapsed().as_secs_f64()
    );
}
