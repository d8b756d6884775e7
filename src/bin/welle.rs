//! `welle` command-line runner: elect a leader on a generated topology
//! and print the report, with optional baselines, fault sweeps, and
//! explicit election.
//!
//! ```sh
//! cargo run --release --bin welle -- expander 512 --seeds 5
//! cargo run --release --bin welle -- hypercube 256 --large --fixed-t
//! cargo run --release --bin welle -- ring 64 --baseline hs
//! cargo run --release --bin welle -- clique 128 --explicit
//! cargo run --release --bin welle -- lb 500 --eps 0.3
//! # thousands of elections in flight, streamed and resumable:
//! cargo run --release --bin welle -- expander 256 --seeds 50 \
//!     --drop-sweep 0,0.05,0.1,0.2 --trial-threads 4 --out sweep.csv
//! ```

use std::path::PathBuf;
use std::process::ExitCode;
use std::str::FromStr;
use std::sync::Arc;

use rand::{rngs::StdRng, SeedableRng};
use welle::congest::LatencyError;
use welle::core::baselines::{run_flood_max, run_hirschberg_sinclair, run_known_tmix_election};
use welle::core::broadcast::run_explicit_election;
use welle::core::export::{phase_table, profile_table, write_round_log, write_samples_jsonl};
use welle::core::{
    Campaign, ConfigError, Election, ElectionConfig, Exec, FaultPlan, LatencyModel, MsgSizeMode,
    SyncMode, TelemetryConfig, Trial,
};
use welle::graph::{gen, Graph};
use welle::walks::{mixing_time, MixingOptions, StartPolicy};

struct Args {
    family: String,
    n: usize,
    seed: u64,
    seeds: usize,
    eps: f64,
    fixed_t: bool,
    large: bool,
    cap: Option<u32>,
    explicit: bool,
    csv: bool,
    threads: Option<usize>,
    /// The `--latency` model with `--latency-seed` and `--service-rate`
    /// applied, validated.
    latency: Option<LatencyModel>,
    trial_threads: Option<usize>,
    out: Option<PathBuf>,
    resume: bool,
    max_trials: Option<usize>,
    drop_sweep: Option<Vec<f64>>,
    round_log: Option<PathBuf>,
    phase_table: bool,
    profile: bool,
    baseline: Option<Baseline>,
    drop_rate: Option<f64>,
    crash: Option<f64>,
    crash_at: Option<u64>,
    fault_seed: Option<u64>,
}

/// The comparison a `--baseline` run adds after the election.
#[derive(Clone, Copy)]
enum Baseline {
    Flood,
    Hs,
    KnownTmix,
}

impl Baseline {
    fn parse(name: &str) -> Result<Baseline, String> {
        match name {
            "flood" => Ok(Baseline::Flood),
            "hs" => Ok(Baseline::Hs),
            "known-tmix" => Ok(Baseline::KnownTmix),
            other => Err(format!(
                "unknown baseline {other} (want flood | hs | known-tmix)"
            )),
        }
    }
}

fn usage() -> &'static str {
    "usage: welle <family> <n> [options]\n\
     families: expander | hypercube | clique | torus | ring | gnp | lb\n\
     options:\n\
       --seed S          first seed (default 1)\n\
       --seeds K         number of seeded runs (default 1)\n\
       --eps E           epsilon for the lb family (default 0.3)\n\
       --fixed-t         paper-faithful fixed-T schedule (default adaptive)\n\
       --large           O(log^3 n) messages (default CONGEST)\n\
       --cap L           walk-length cap\n\
       --threads K       force the sharded executor with K workers\n\
                         (default: auto — serial unless large, dense, multicore)\n\
       --latency SPEC    run on the async executor under a latency model:\n\
                         zero | fixed:X | uniform:LO,HI | lognormal:MU,SIGMA\n\
                         (latencies in rounds; not combinable with --threads)\n\
       --latency-seed S  seed of the latency sampler (default: --seed)\n\
       --service-rate R  per-edge service rate in (0, 1]; rates below 1\n\
                         queue messages at busy edges (needs --latency)\n\
       --trial-threads K run trials on K pooled worker threads; output is\n\
                         bit-identical to the serial loop at any K\n\
       --out FILE        stream per-trial CSV rows to FILE (flushed per\n\
                         trial; doubles as the --resume manifest)\n\
       --resume          with --out: skip trials already completed in FILE\n\
                         and restart at the first missing one\n\
       --max-trials N    stop after the first N trials (deterministic cut;\n\
                         finish later with --resume)\n\
       --drop-sweep P,.. sweep message drop rates: one scenario per rate\n\
                         (0 = fault-free control)\n\
       --round-log FILE  write the run's per-round telemetry stream to\n\
                         FILE — CSV, or JSONL when FILE ends in .jsonl\n\
                         (single trial only; identical on every executor)\n\
       --phase-table     print the per-phase round/message breakdown for\n\
                         each trial (stderr under --csv)\n\
       --profile         profile the engine's internal stages and print\n\
                         the span table per trial (stderr under --csv)\n\
       --csv             per-trial CSV rows on stdout instead of\n\
                         human-readable lines\n\
       --explicit        run explicit election (adds push-pull broadcast)\n\
       --baseline B      also run a baseline: flood | hs | known-tmix\n\
                         (with --csv its lines go to stderr)\n\
       --drop-rate P     lose each message in transit with probability P\n\
       --crash F         crash-stop a random fraction F of nodes\n\
       --crash-at R      round at which --crash strikes (default 1)\n\
       --fault-seed S    seed of the fault schedule (default: --seed)"
}

/// Parses a `--latency` spec: `zero`, `fixed:X`, `uniform:LO,HI`, or
/// `lognormal:MU,SIGMA`. Seed and service rate are layered on, and
/// parameter *values* validated, by the caller.
fn parse_latency(spec: &str) -> Result<LatencyModel, String> {
    if spec == "zero" {
        return Ok(LatencyModel::zero());
    }
    let (kind, rest) = spec.split_once(':').ok_or_else(|| {
        format!(
            "bad latency spec {spec} (want zero | fixed:X | uniform:LO,HI | lognormal:MU,SIGMA)"
        )
    })?;
    let nums = |k: usize| -> Result<Vec<f64>, String> {
        let v = rest
            .split(',')
            .map(|x| x.trim().parse::<f64>())
            .collect::<Result<Vec<_>, _>>()
            .map_err(|_| format!("bad latency parameters in {spec}"))?;
        if v.len() != k {
            return Err(format!("latency spec {spec}: expected {k} parameter(s)"));
        }
        Ok(v)
    };
    match kind {
        "fixed" => Ok(LatencyModel::fixed(nums(1)?[0])),
        "uniform" => {
            let v = nums(2)?;
            Ok(LatencyModel::uniform(v[0], v[1]))
        }
        "lognormal" => {
            let v = nums(2)?;
            Ok(LatencyModel::log_normal(v[0], v[1]))
        }
        other => Err(format!(
            "unknown latency kind {other} (want zero | fixed | uniform | lognormal)"
        )),
    }
}

/// Reads the value after the flag at `argv[*i]`, moving `*i` onto it.
fn value<T: FromStr>(argv: &[String], i: &mut usize) -> Result<T, String> {
    let flag = &argv[*i];
    *i += 1;
    let Some(v) = argv.get(*i) else {
        return Err(format!("{flag} needs a value"));
    };
    v.parse().map_err(|_| format!("bad {flag} value: {v}"))
}

/// Fails unless every value given to `flag` is a probability in [0, 1].
fn probabilities<'a>(flag: &str, ps: impl IntoIterator<Item = &'a f64>) -> Result<(), String> {
    match ps.into_iter().find(|p| !(0.0..=1.0).contains(*p)) {
        Some(p) => Err(format!("{flag} value {p} is not a probability in [0, 1]")),
        None => Ok(()),
    }
}

fn parse() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.len() < 2 {
        return Err(usage().to_string());
    }
    let mut args = Args {
        family: argv[0].clone(),
        n: argv[1].parse().map_err(|_| format!("bad n: {}", argv[1]))?,
        seed: 1,
        seeds: 1,
        eps: 0.3,
        fixed_t: false,
        large: false,
        cap: None,
        explicit: false,
        csv: false,
        threads: None,
        latency: None,
        trial_threads: None,
        out: None,
        resume: false,
        max_trials: None,
        drop_sweep: None,
        round_log: None,
        phase_table: false,
        profile: false,
        baseline: None,
        drop_rate: None,
        crash: None,
        crash_at: None,
        fault_seed: None,
    };
    let (mut latency_seed, mut service_rate): (Option<u64>, Option<f64>) = (None, None);
    let mut i = 2;
    while i < argv.len() {
        match argv[i].as_str() {
            "--seed" => args.seed = value(&argv, &mut i)?,
            "--seeds" => args.seeds = value(&argv, &mut i)?,
            "--eps" => args.eps = value(&argv, &mut i)?,
            "--cap" => args.cap = Some(value(&argv, &mut i)?),
            "--baseline" => {
                args.baseline = Some(Baseline::parse(&value::<String>(&argv, &mut i)?)?);
            }
            "--threads" => args.threads = Some(value(&argv, &mut i)?),
            "--latency" => args.latency = Some(parse_latency(&value::<String>(&argv, &mut i)?)?),
            "--latency-seed" => latency_seed = Some(value(&argv, &mut i)?),
            "--service-rate" => service_rate = Some(value(&argv, &mut i)?),
            "--trial-threads" => args.trial_threads = Some(value(&argv, &mut i)?),
            "--out" => args.out = Some(value(&argv, &mut i)?),
            "--max-trials" => args.max_trials = Some(value(&argv, &mut i)?),
            "--drop-sweep" => {
                let list: String = value(&argv, &mut i)?;
                let rates: Result<_, _> = list.split(',').map(|p| p.trim().parse()).collect();
                let bad = |_| format!("bad --drop-sweep value: {list}");
                args.drop_sweep = Some(rates.map_err(bad)?);
            }
            "--drop-rate" => args.drop_rate = Some(value(&argv, &mut i)?),
            "--crash" => args.crash = Some(value(&argv, &mut i)?),
            "--crash-at" => args.crash_at = Some(value(&argv, &mut i)?),
            "--fault-seed" => args.fault_seed = Some(value(&argv, &mut i)?),
            "--round-log" => args.round_log = Some(value(&argv, &mut i)?),
            "--phase-table" => args.phase_table = true,
            "--profile" => args.profile = true,
            "--fixed-t" => args.fixed_t = true,
            "--large" => args.large = true,
            "--csv" => args.csv = true,
            "--explicit" => args.explicit = true,
            "--resume" => args.resume = true,
            other => return Err(format!("unknown option {other}\n{}", usage())),
        }
        i += 1;
    }
    // Out-of-range values fail here, before the graph is built, in the
    // words of the library that would reject them later.
    if args.threads == Some(0) {
        return Err(format!("--threads: {}", ConfigError::ZeroThreads));
    }
    if args.trial_threads == Some(0) {
        return Err(format!(
            "--trial-threads: {}",
            ConfigError::ZeroTrialThreads
        ));
    }
    if args.cap == Some(0) {
        return Err(format!("--cap: {}", ConfigError::ZeroWalkCap));
    }
    // Only sweep rates above 0 get a fault plan, so a negative or NaN
    // sweep rate would otherwise run as a fault-free control.
    probabilities("--drop-sweep", args.drop_sweep.iter().flatten())?;
    probabilities("--drop-rate", &args.drop_rate)?;
    probabilities("--crash", &args.crash)?;
    if let Some(model) = args.latency {
        let mut model = model.seed(latency_seed.unwrap_or(args.seed));
        if let Some(rate) = service_rate {
            model = model.service_rate(rate);
        }
        model.validate().map_err(|e| {
            let flag = match e {
                LatencyError::BadServiceRate(_) => "--service-rate",
                _ => "--latency",
            };
            format!("{flag}: {}", ConfigError::Latency(e))
        })?;
        args.latency = Some(model);
    } else if latency_seed.is_some() || service_rate.is_some() {
        return Err(
            "--latency-seed and --service-rate have no effect without --latency".to_string(),
        );
    }
    if args.explicit && args.csv {
        return Err("--csv is not supported with --explicit".to_string());
    }
    if args.explicit && args.threads.is_some() {
        return Err("--threads is not supported with --explicit".to_string());
    }
    if args.latency.is_some() && args.threads.is_some() {
        return Err(
            "--latency picks the async executor; it cannot be combined with --threads".to_string(),
        );
    }
    if args.latency.is_some() && args.explicit {
        return Err("--latency is not supported with --explicit".to_string());
    }
    if args.latency.is_some() && args.baseline.is_some() {
        return Err(
            "--latency is not supported with --baseline (the baseline would run \
             synchronously, making the comparison apples-to-oranges)"
                .to_string(),
        );
    }
    if args.explicit
        && (args.trial_threads.is_some()
            || args.out.is_some()
            || args.resume
            || args.max_trials.is_some()
            || args.drop_sweep.is_some())
    {
        return Err(
            "campaign options (--trial-threads/--out/--resume/--max-trials/--drop-sweep) \
             are not supported with --explicit"
                .to_string(),
        );
    }
    if args.explicit && (args.drop_rate.is_some() || args.crash.is_some()) {
        return Err("fault injection is not supported with --explicit".to_string());
    }
    if args.drop_sweep.is_some() && (args.drop_rate.is_some() || args.crash.is_some()) {
        return Err(
            "--drop-sweep already defines the fault schedule; it cannot be combined \
             with --drop-rate or --crash (include 0 in the sweep for a fault-free control)"
                .to_string(),
        );
    }
    if args.baseline.is_some()
        && (args.drop_rate.is_some() || args.crash.is_some() || args.drop_sweep.is_some())
    {
        return Err(
            "fault injection is not supported with --baseline (the baseline would run \
             fault-free, making the comparison apples-to-oranges)"
                .to_string(),
        );
    }
    if args.crash.is_none() && args.crash_at.is_some() {
        return Err("--crash-at has no effect without --crash".to_string());
    }
    if args.drop_rate.is_none()
        && args.crash.is_none()
        && args.drop_sweep.is_none()
        && args.fault_seed.is_some()
    {
        return Err(
            "--fault-seed has no effect without --drop-rate, --crash, or --drop-sweep".to_string(),
        );
    }
    if args.resume && args.out.is_none() {
        return Err("--resume needs --out (the CSV file is the resume manifest)".to_string());
    }
    if args.seeds == 0 {
        return Err("--seeds must be at least 1: it counts the seeded runs".to_string());
    }
    // The run's seeds are `--seed` and the `--seeds - 1` after it; the
    // last of them must still be a u64.
    let extra_seeds = u64::try_from(args.seeds.saturating_sub(1)).unwrap_or(u64::MAX);
    if args.seed.checked_add(extra_seeds).is_none() {
        return Err(format!(
            "--seed {} with --seeds {} runs past the largest seed, {}",
            args.seed,
            args.seeds,
            u64::MAX
        ));
    }
    if args.explicit && (args.round_log.is_some() || args.phase_table || args.profile) {
        return Err(
            "telemetry options (--round-log/--phase-table/--profile) are not supported \
             with --explicit"
                .to_string(),
        );
    }
    if args.round_log.is_some() && (args.seeds != 1 || args.drop_sweep.is_some()) {
        return Err(
            "--round-log records one run's stream; it needs --seeds 1 and no --drop-sweep"
                .to_string(),
        );
    }
    if args.round_log.is_some() && args.resume {
        return Err(
            "--round-log cannot be combined with --resume (a resumed trial's \
             per-round stream was never persisted)"
                .to_string(),
        );
    }
    Ok(args)
}

fn build_graph(args: &Args) -> Result<Arc<Graph>, String> {
    let mut rng = StdRng::seed_from_u64(args.seed ^ 0xF00D);
    let g = match args.family.as_str() {
        "expander" => gen::random_regular(args.n, 4, &mut rng),
        "hypercube" => {
            let dim = (args.n as f64).log2().round().max(1.0) as u32;
            gen::hypercube(dim)
        }
        "clique" => gen::clique(args.n),
        "torus" => {
            let side = (args.n as f64).sqrt().round().max(3.0) as usize;
            gen::torus2d(side, side)
        }
        "ring" => gen::ring(args.n),
        "gnp" => {
            let p = 2.0 * (args.n as f64).ln() / args.n as f64;
            gen::gnp_connected(args.n, p, &mut rng)
        }
        "lb" => {
            return gen::CliqueOfCliques::build(
                gen::CliqueOfCliquesParams::new(args.n, args.eps),
                &mut rng,
            )
            .map(|lb| Arc::new(lb.into_graph()))
            .map_err(|e| e.to_string());
        }
        other => return Err(format!("unknown family {other}\n{}", usage())),
    };
    g.map(Arc::new).map_err(|e| e.to_string())
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let graph = match build_graph(&args) {
        Ok(g) => g,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Informational lines move to stderr whenever stdout is a CSV
    // stream (`--csv`) that an extra line would corrupt.
    if args.csv {
        eprintln!("graph: {} n={} m={}", args.family, graph.n(), graph.m());
    } else {
        println!("graph: {} n={} m={}", args.family, graph.n(), graph.m());
    }

    let mut cfg = ElectionConfig::tuned_for_simulation(graph.n());
    if args.fixed_t {
        cfg.sync = SyncMode::FixedT;
    }
    if args.large {
        cfg.msg_size = MsgSizeMode::Large;
    }
    if let Some(cap) = args.cap {
        cfg.max_walk_len = Some(cap);
    }

    let exec = match (args.latency, args.threads) {
        (Some(model), _) => Exec::Async(model),
        (None, Some(k)) => Exec::Threaded(k),
        (None, None) => Exec::Auto,
    };
    // Adversarial network conditions, replayable from the fault seed.
    let fault_plan = if args.drop_rate.is_some() || args.crash.is_some() {
        let mut plan = FaultPlan::new(args.fault_seed.unwrap_or(args.seed));
        if let Some(rate) = args.drop_rate {
            plan = plan.drop_rate(rate);
        }
        if let Some(frac) = args.crash {
            plan = plan.crash_fraction(frac, args.crash_at.unwrap_or(1));
        }
        eprintln!(
            "faults: drop_rate={} crash_fraction={} crash_at={}",
            args.drop_rate.unwrap_or(0.0),
            args.crash.unwrap_or(0.0),
            args.crash_at.unwrap_or(1)
        );
        Some(plan)
    } else {
        None
    };
    let mut ok = true;
    // `parse` checked that the last seed does not pass u64::MAX.
    let first_seed = args.seed;
    let seeds = (0..args.seeds as u64).map(move |k| first_seed + k);
    if args.explicit {
        // The two-stage explicit election (implicit + broadcast) has its
        // own driver; the implicit stage inside it runs on the builder.
        for seed in seeds {
            let rep = run_explicit_election(&graph, &cfg, 10_000_000, seed);
            println!(
                "seed {seed}: leaders={:?} elect_msgs={} bcast_msgs={:?} success={}",
                rep.election.leaders,
                rep.election.messages,
                rep.broadcast.map(|b| b.messages),
                rep.is_success()
            );
            ok &= rep.is_success();
        }
    } else {
        if args.csv {
            println!("{}", Trial::csv_header());
        }
        // `on_trial` streams each trial's line as it completes, so long
        // sweeps show progress instead of buffering until the end.
        let csv = args.csv;
        let latent = args.latency.is_some();
        let multi_scenario = args.drop_sweep.as_ref().is_some_and(|s| s.len() > 1);
        let have_faults = fault_plan.is_some();
        let mut proto = Election::on(&graph).config(cfg).executor(exec);
        if let Some(plan) = fault_plan {
            proto = proto.faults(plan);
        }
        let mut campaign = Campaign::new(proto).label(args.family.clone());
        // Any telemetry flag turns the layer on; full retention is only
        // needed when the sample stream itself leaves the process.
        let want_telemetry = args.round_log.is_some() || args.phase_table || args.profile;
        if want_telemetry {
            let mut tcfg = if args.round_log.is_some() {
                TelemetryConfig::full()
            } else {
                TelemetryConfig::ring(0)
            };
            if args.profile {
                tcfg = tcfg.with_profile();
            }
            campaign = campaign.telemetry(tcfg);
        }
        // Fault-free scenarios drive the exit code; sweep scenarios with
        // drops are *expected* to lose some elections, so they only report.
        let mut strict_labels: Vec<String> = Vec::new();
        if let Some(rates) = &args.drop_sweep {
            for &p in rates {
                let label = format!("p={p}, {}", args.family);
                campaign = campaign.scenario(&label, &graph, cfg);
                if p > 0.0 {
                    campaign = campaign
                        .faults(FaultPlan::new(args.fault_seed.unwrap_or(args.seed)).drop_rate(p));
                } else {
                    strict_labels.push(label);
                }
            }
            campaign = campaign.without_base();
        } else {
            strict_labels.push(args.family.clone());
        }
        campaign = campaign.seeds(seeds);
        if let Some(k) = args.trial_threads {
            campaign = campaign.trial_threads(k);
        }
        if let Some(path) = &args.out {
            campaign = campaign.stream_csv(path).resume(args.resume);
        }
        if let Some(max) = args.max_trials {
            campaign = campaign.budget_trials(max);
        }
        let outcome = match campaign
            .on_trial(|t| {
                let rep = &t.report;
                if csv {
                    println!("{}", t.csv_row());
                } else {
                    let scenario = if multi_scenario {
                        format!("[{}] ", t.scenario)
                    } else {
                        String::new()
                    };
                    let faults = if rep.dropped_messages > 0 || rep.crashed > 0 {
                        format!(" dropped={} crashed={}", rep.dropped_messages, rep.crashed)
                    } else {
                        String::new()
                    };
                    let vtime = if latent {
                        format!(" vtime={:.2}", rep.virtual_time)
                    } else {
                        String::new()
                    };
                    println!(
                        "{scenario}seed {}: leaders={:?} id={:?} contenders={} msgs={} bits={} \
                         rounds={} t_u={} epochs={} gave_up={}{faults}{vtime}",
                        t.seed,
                        rep.leaders,
                        rep.leader_id,
                        rep.contenders,
                        rep.messages,
                        rep.bits,
                        rep.decided_round,
                        rep.final_walk_len,
                        rep.epochs_used,
                        rep.gave_up
                    );
                }
            })
            .run()
        {
            Ok(o) => o,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        };
        if outcome.resumed_trials > 0 {
            let path = args.out.as_deref().map(|p| p.display().to_string());
            eprintln!(
                "resumed {} completed trials from {}",
                outcome.resumed_trials,
                path.unwrap_or_default()
            );
        }
        let finished: usize = outcome.summaries.iter().map(|s| s.trials).sum();
        let planned = outcome.summaries.len() * args.seeds;
        if finished < planned {
            eprintln!(
                "stopped after {finished} of {planned} trials (--max-trials); \
                 rerun with --resume to finish"
            );
        }
        // Human-readable telemetry tables: stdout normally, stderr under
        // --csv so the trial stream stays machine-pure.
        let tprint = |text: &str| {
            if args.csv {
                eprint!("{text}");
            } else {
                print!("{text}");
            }
        };
        if args.phase_table || args.profile {
            for t in &outcome.trials {
                if args.phase_table {
                    tprint(&format!(
                        "phase breakdown (seed {}):\n{}",
                        t.seed,
                        phase_table(&t.report)
                    ));
                }
                if args.profile {
                    if let Some(table) = t.report.telemetry.as_ref().and_then(profile_table) {
                        tprint(&format!("profile (seed {}):\n{table}", t.seed));
                    }
                }
            }
        }
        if let Some(path) = &args.round_log {
            match outcome
                .trials
                .first()
                .and_then(|t| t.report.telemetry.as_ref())
            {
                Some(telemetry) => {
                    let jsonl = path.extension().is_some_and(|e| e == "jsonl");
                    let written = std::fs::File::create(path).and_then(|f| {
                        let mut w = std::io::BufWriter::new(f);
                        if jsonl {
                            write_samples_jsonl(telemetry, &mut w)
                        } else {
                            write_round_log(telemetry, &mut w)
                        }
                    });
                    match written {
                        Ok(()) => eprintln!(
                            "round log: {} samples -> {}",
                            telemetry.samples.len(),
                            path.display()
                        ),
                        Err(e) => {
                            eprintln!("error: cannot write {}: {e}", path.display());
                            ok = false;
                        }
                    }
                }
                None => {
                    eprintln!("error: the run produced no telemetry for --round-log");
                    ok = false;
                }
            }
        }
        let show_summaries = args.seeds > 1 || outcome.summaries.len() > 1;
        for summary in &outcome.summaries {
            if show_summaries {
                if args.csv {
                    eprintln!("{summary}");
                } else {
                    println!("{summary}");
                }
            }
            // Historical contract for explicit --drop-rate/--crash runs:
            // lost elections still surface in the exit code.
            if have_faults || strict_labels.iter().any(|l| l == &summary.scenario) {
                ok &= summary.successes == summary.trials;
            }
        }
    }

    // Baseline comparison lines: stdout normally, stderr under --csv so
    // the trial stream on stdout stays machine-readable.
    let bprint = |line: String| {
        if args.csv {
            eprintln!("{line}");
        } else {
            println!("{line}");
        }
    };
    match args.baseline {
        Some(Baseline::Flood) => {
            let b = run_flood_max(&graph, args.seed);
            bprint(format!(
                "baseline flood-max: leaders={:?} msgs={} rounds={}",
                b.leaders, b.messages, b.rounds
            ));
        }
        Some(Baseline::Hs) => {
            let b = run_hirschberg_sinclair(&graph, args.seed);
            bprint(format!(
                "baseline hirschberg-sinclair: leaders={:?} msgs={} rounds={}",
                b.leaders, b.messages, b.rounds
            ));
        }
        Some(Baseline::KnownTmix) => {
            match mixing_time(
                &graph,
                MixingOptions {
                    horizon: 1_000_000,
                    starts: StartPolicy::Sample(8),
                },
            ) {
                Some(tmix) => {
                    let b = run_known_tmix_election(&graph, &cfg, tmix, 2, args.seed);
                    bprint(format!(
                        "baseline known-tmix (t_mix={tmix}): leaders={:?} msgs={}",
                        b.leaders, b.messages
                    ));
                }
                None => eprintln!("baseline known-tmix: graph did not mix within horizon"),
            }
        }
        None => {}
    }

    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
