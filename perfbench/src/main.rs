//! Runs one benchmark workload and prints its metrics.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload expander-128 --seed 1 --seconds 30 --trace 0
//! ```
//!
//! The run prints a table of its elections (seed, messages, rounds,
//! leaders, fastest and slowest wall time over the passes), the host
//! facts and the host probe, and as its last line one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`. It
//! exits nonzero, printing no result, on a bad command line or when the
//! workload cannot be set up.

use std::process::ExitCode;

use welle_perfbench::host;
use welle_perfbench::metrics::{result_line, END_TO_END, PER_LAYER};
use welle_perfbench::run::{run_traced, run_untraced};
use welle_perfbench::workloads::{find, Workload, WALK_CAP, WORKLOADS};

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: welle-perfbench --workload <{}> --seed <n> --seconds <n> --trace <0|1>",
        names.join("|")
    )
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("bad {flag}: {value}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(find(value).ok_or(format!("unknown workload {value}"))?);
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace: {value}")),
                });
            }
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::FAILURE;
        }
    };
    let w = args.workload;
    println!(
        "workload {} (n = {}, walk cap {}), seed {}, {} s, trace {}",
        w.name,
        w.n,
        WALK_CAP,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let result = if args.trace {
        run_traced(w, args.seed, args.seconds)
    } else {
        run_untraced(w, args.seed, args.seconds)
    };
    let outcome = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    print!("{}", outcome.tables);
    for p in &outcome.problems {
        println!("problem: {p}");
    }
    let facts = host::facts();
    println!(
        "host: {} cores, available_parallelism {}, {}, commit {}",
        facts.cores, facts.available_parallelism, facts.rustc, facts.commit
    );
    let probe = host::probe();
    println!(
        "host probe: compute loop {:.4} s ({} steps), random reads {:.4} s ({} reads over {} MiB)",
        probe.compute_s,
        host::COMPUTE_STEPS,
        probe.random_access_s,
        host::RANDOM_READS,
        host::TABLE_MIB
    );
    let defs = if args.trace {
        &PER_LAYER[..]
    } else {
        &END_TO_END[..]
    };
    for d in defs {
        if let Some((_, value)) = outcome.metrics.iter().find(|(n, _)| *n == d.name) {
            println!("metric {} = {value} {}", d.name, d.unit);
        }
    }
    println!(
        "{}",
        result_line(
            outcome.problems.is_empty(),
            outcome.attempted,
            outcome.failed,
            defs,
            &outcome.metrics,
        )
    );
    ExitCode::SUCCESS
}
