//! Running a workload: the timed passes of an untraced run, the traced
//! repeat, the correctness gate, and the metrics derived from both.

use std::fmt::Write as _;

use welle_congest::SPAN_STAGES;
use welle_core::{Campaign, Election, ElectionReport, Exec, SpanStage, SpanStats, TelemetryConfig};

use crate::heap;
use crate::host;
use crate::now;
use crate::workloads::{Inputs, Kind, Workload, SWEEP_CHUNK, SWEEP_WORKERS};

/// Timed passes of an untraced run, each over all of its elections.
///
/// The reference host slows by 1.4–1.7× in phases of 2–10 s, and how
/// much of a run they cover drifts over minutes. Each unit (an election,
/// or one campaign of a sweep) counts its fastest pass. Its passes lie a
/// third of the run apart, so one slow phase does not cover all three.
pub const PASSES: usize = 3;

/// One election of a pass.
#[derive(Clone, Debug)]
pub struct Trial {
    /// Sweep scenario (`p=<drop rate>`), or `-` outside a sweep.
    pub scenario: String,
    /// Election seed.
    pub seed: u64,
    /// What the election reported.
    pub report: ElectionReport,
    /// Wall time of its `Election::run`; `None` inside a campaign, whose
    /// pool does not time trials one by one.
    pub wall_s: Option<f64>,
}

/// One pass over a workload's elections.
#[derive(Clone, Debug, Default)]
pub struct Pass {
    /// Elections that returned a report, in seed order.
    pub trials: Vec<Trial>,
    /// Elections started.
    pub attempted: u64,
    /// Elections that returned an error, with the error.
    pub errors: Vec<String>,
    /// Wall time of each timed unit, in order: one `Election::run`, or
    /// in a sweep one `Campaign::run` over a chunk of seeds.
    pub unit_walls: Vec<f64>,
    /// Peak of the live heap during each unit, in MiB.
    pub unit_peaks: Vec<f64>,
    /// Engines the campaigns built; zero outside a sweep.
    pub engines_built: usize,
}

/// Why an election counts as a failed operation, if it does: two or
/// more leaders, or a route that broke although no message was lost.
/// No leader at all is an outcome (it lowers `success_rate`), not a
/// failure; so is a broken route under injected drops, where a lost
/// walk token leaves its reply no trail to follow.
pub fn gate(report: &ElectionReport) -> Option<String> {
    if report.leaders.len() > 1 {
        Some(format!("{} leaders", report.leaders.len()))
    } else if report.broken_routes > 0 && report.dropped_messages == 0 {
        Some(format!("{} broken routes", report.broken_routes))
    } else {
        None
    }
}

impl Pass {
    /// Wall time of the pass's calls into the library.
    pub fn wall_s(&self) -> f64 {
        self.unit_walls.iter().sum()
    }

    /// Every failed election of the pass: errors, then gate failures.
    pub fn failures(&self) -> Vec<String> {
        let gated = self.trials.iter().filter_map(|t| {
            gate(&t.report).map(|why| format!("{} seed {}: {why}", t.scenario, t.seed))
        });
        self.errors.iter().cloned().chain(gated).collect()
    }

    /// Appends the units of `other`.
    fn extend(&mut self, other: Pass) {
        self.trials.extend(other.trials);
        self.attempted += other.attempted;
        self.errors.extend(other.errors);
        self.unit_walls.extend(other.unit_walls);
        self.unit_peaks.extend(other.unit_peaks);
        self.engines_built += other.engines_built;
    }
}

/// How a unit runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Mode {
    /// As a user would run it.
    Untraced,
    /// With every round sample kept and the span profiler on.
    Traced,
    /// Untraced on a single trial thread; sweeps only.
    OneWorker,
}

/// Telemetry of a traced unit: every round sample (for backlog and
/// parked-message maxima) and the span profiler.
fn trace_config() -> TelemetryConfig {
    TelemetryConfig::full().with_profile()
}

/// The election seeds of each timed unit: one seed, or in a sweep a
/// chunk of [`SWEEP_CHUNK`] seeds.
fn units<'a>(w: &Workload, seeds: &'a [u64]) -> std::slice::Chunks<'a, u64> {
    let size = match w.kind {
        Kind::Sweep { .. } => SWEEP_CHUNK,
        _ => 1,
    };
    seeds.chunks(size)
}

/// Runs one timed unit: the election of `seeds[0]`, or in a sweep one
/// campaign over `seeds` in every scenario.
fn run_unit(w: &Workload, inputs: &Inputs, seeds: &[u64], mode: Mode) -> Pass {
    let telemetry = (mode == Mode::Traced).then(trace_config);
    heap::reset_peak();
    let mut pass = match w.kind {
        Kind::Sweep { .. } => {
            let workers = if mode == Mode::OneWorker {
                1
            } else {
                SWEEP_WORKERS
            };
            campaign(inputs, seeds, workers, telemetry)
        }
        _ => elect(inputs, seeds[0], telemetry),
    };
    pass.unit_peaks.push(heap::peak_mib());
    pass
}

/// Runs one election and times its `Election::run`.
fn elect(inputs: &Inputs, seed: u64, telemetry: Option<TelemetryConfig>) -> Pass {
    let mut election = Election::on(&inputs.graph)
        .config(inputs.cfg)
        .seed(seed)
        .executor(inputs.exec(seed));
    if let Some(t) = telemetry {
        election = election.telemetry(t);
    }
    let t0 = now();
    let result = election.run();
    let wall_s = t0.elapsed().as_secs_f64();
    let mut pass = Pass {
        attempted: 1,
        unit_walls: vec![wall_s],
        ..Pass::default()
    };
    match result {
        Ok(report) => pass.trials.push(Trial {
            scenario: "-".to_string(),
            seed,
            report,
            wall_s: Some(wall_s),
        }),
        Err(e) => pass.errors.push(format!("seed {seed}: {e}")),
    }
    pass
}

/// Runs the sweep's campaign over `seeds` once on `workers` trial
/// threads, and times its `Campaign::run`.
fn campaign(
    inputs: &Inputs,
    seeds: &[u64],
    workers: usize,
    telemetry: Option<TelemetryConfig>,
) -> Pass {
    let proto = Election::on(&inputs.graph)
        .config(inputs.cfg)
        .executor(Exec::Serial);
    let mut campaign = Campaign::new(proto);
    for (p, plan) in &inputs.scenarios {
        campaign = campaign.scenario(format!("p={p}"), &inputs.graph, inputs.cfg);
        if let Some(plan) = plan {
            campaign = campaign.faults(plan.clone());
        }
    }
    campaign = campaign
        .without_base()
        .seeds(seeds.iter().copied())
        .trial_threads(workers);
    if let Some(t) = telemetry {
        campaign = campaign.telemetry(t);
    }
    let attempted = (inputs.scenarios.len() * seeds.len()) as u64;
    let t0 = now();
    let result = campaign.run();
    let wall_s = t0.elapsed().as_secs_f64();
    match result {
        Ok(report) => Pass {
            trials: report
                .trials
                .into_iter()
                .map(|t| Trial {
                    scenario: t.scenario,
                    seed: t.seed,
                    report: t.report,
                    wall_s: None,
                })
                .collect(),
            attempted,
            unit_walls: vec![wall_s],
            engines_built: report.engines_built,
            ..Pass::default()
        },
        // A campaign validates before it simulates: every trial is lost.
        Err(e) => Pass {
            attempted,
            errors: vec![format!("campaign: {e}"); attempted as usize],
            unit_walls: vec![wall_s],
            ..Pass::default()
        },
    }
}

/// The passes of a traced run.
#[derive(Clone, Debug)]
pub struct TracedPasses {
    /// The elections without telemetry.
    pub untraced: Pass,
    /// The same elections with every sample kept and the span profiler
    /// on.
    pub traced: Pass,
    /// A sweep's campaigns again on one worker, without telemetry.
    pub one_worker: Option<Pass>,
}

/// Differences between two passes over the same elections: each
/// election must elect the same leaders with the same messages and
/// rounds.
fn compare(a: &Pass, b: &Pass, what: &str) -> Vec<String> {
    if a.trials.len() != b.trials.len() {
        return vec![format!(
            "{what}: {} elections against {}",
            a.trials.len(),
            b.trials.len()
        )];
    }
    a.trials
        .iter()
        .zip(&b.trials)
        .filter_map(|(x, y)| {
            let (r, s) = (&x.report, &y.report);
            let same = x.scenario == y.scenario
                && x.seed == y.seed
                && r.leaders == s.leaders
                && r.messages == s.messages
                && r.engine_rounds == s.engine_rounds;
            (!same).then(|| {
                format!(
                    "{what}: {} seed {} differs (leaders {:?}/{:?}, messages {}/{}, rounds {}/{})",
                    x.scenario,
                    x.seed,
                    r.leaders,
                    s.leaders,
                    r.messages,
                    s.messages,
                    r.engine_rounds,
                    s.engine_rounds
                )
            })
        })
        .collect()
}

/// The end-to-end metrics of an untraced run: the elections of `pass`,
/// the sum `fastest_s` of each unit's fastest pass, the set-up time and
/// the mean peak heap of a unit.
fn end_to_end(
    pass: &Pass,
    fastest_s: f64,
    setup_s: f64,
    peak_heap_mib: f64,
) -> Vec<(&'static str, f64)> {
    let k = pass.trials.len() as f64;
    let mean =
        |f: fn(&ElectionReport) -> f64| pass.trials.iter().map(|t| f(&t.report)).sum::<f64>() / k;
    vec![
        ("elections_per_s", k / fastest_s),
        ("setup_s", setup_s),
        ("peak_heap_mib", peak_heap_mib),
        ("messages", mean(|r| r.messages as f64)),
        ("rounds", mean(|r| r.engine_rounds as f64)),
        (
            "success_rate",
            mean(|r| f64::from(u8::from(r.is_success()))),
        ),
    ]
}

/// Seconds from nanoseconds.
fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

/// Nanoseconds per item, zero when there are no items.
pub fn ns_per(ns: u64, items: u64) -> f64 {
    if items == 0 {
        0.0
    } else {
        ns as f64 / items as f64
    }
}

/// A round's own time: the Round span minus its Callbacks and Deliver
/// children, in seconds.
pub fn engine_self_s(round_ns: u64, callbacks_ns: u64, deliver_ns: u64) -> f64 {
    secs(
        round_ns
            .saturating_sub(callbacks_ns)
            .saturating_sub(deliver_ns),
    )
}

/// Share of the pool's worker time spent inside rounds: the trials'
/// Round spans summed over `workers × wall`.
pub fn busy_share(round_ns: u64, workers: usize, wall_s: f64) -> f64 {
    secs(round_ns) / (workers as f64 * wall_s)
}

/// `part ÷ whole`, zero when `whole` is zero.
fn share(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// Totals of a traced pass, gathered election by election.
#[derive(Clone, Debug, Default)]
struct Layers {
    elections: u64,
    /// Span totals in `SPAN_STAGES` order: entries, events, wall ns.
    spans: [(u64, u64, u64); SPAN_STAGES.len()],
    samples: u64,
    congested_samples: u64,
    parked_sum: u64,
    max_backlog: u64,
    parked_max: u64,
    peak_arena_slots: u64,
    phase_rounds: [u64; 5],
    phase_msgs: [u64; 5],
    contenders: u64,
    gave_up: u64,
    dropped_tokens: u64,
    broken_routes: u64,
    dropped_messages: u64,
    epochs: u64,
    final_walk_len: u64,
}

fn stage_index(stage: SpanStage) -> usize {
    SPAN_STAGES.iter().position(|&s| s == stage).unwrap_or(0)
}

impl Layers {
    /// Adds one traced election. Fails, adding nothing, when it carries
    /// no profile, or
    /// when its phase counts do not add up: phase messages to its
    /// messages, phase rounds to its Round span entries (its active
    /// rounds).
    fn absorb(&mut self, t: &Trial) -> Result<(), String> {
        let r = &t.report;
        let who = format!("{} seed {}", t.scenario, t.seed);
        let telemetry = r
            .telemetry
            .as_ref()
            .ok_or_else(|| format!("{who}: traced election has no telemetry"))?;
        let profile: &[SpanStats] = telemetry
            .profile
            .as_deref()
            .ok_or_else(|| format!("{who}: traced election has no span profile"))?;
        let phase_msgs: u64 = r.phase_messages.iter().sum();
        if phase_msgs != r.messages {
            return Err(format!(
                "{who}: phase messages add up to {phase_msgs}, not {}",
                r.messages
            ));
        }
        let phase_rounds: u64 = r.phase_rounds.iter().sum();
        let round_entries = profile
            .iter()
            .find(|s| s.stage == SpanStage::Round)
            .map_or(0, |s| s.entries);
        if phase_rounds != round_entries {
            return Err(format!(
                "{who}: phase rounds add up to {phase_rounds}, not the {round_entries} Round spans"
            ));
        }
        for s in profile {
            let acc = &mut self.spans[stage_index(s.stage)];
            acc.0 += s.entries;
            acc.1 += s.events;
            acc.2 += s.wall_ns;
        }
        for s in &telemetry.samples {
            self.samples += 1;
            self.congested_samples += u64::from(s.max_backlog > 0);
            self.parked_sum += s.parked;
            self.max_backlog = self.max_backlog.max(s.max_backlog);
            self.parked_max = self.parked_max.max(s.parked);
        }
        for i in 0..5 {
            self.phase_rounds[i] += r.phase_rounds[i];
            self.phase_msgs[i] += r.phase_messages[i];
        }
        self.elections += 1;
        self.peak_arena_slots = self.peak_arena_slots.max(r.peak_arena_slots);
        self.contenders += r.contenders as u64;
        self.gave_up += r.gave_up as u64;
        self.dropped_tokens += r.dropped_tokens;
        self.broken_routes += r.broken_routes;
        self.dropped_messages += r.dropped_messages;
        self.epochs += u64::from(r.epochs_used);
        self.final_walk_len += u64::from(r.final_walk_len);
        Ok(())
    }

    fn span(&self, stage: SpanStage) -> (u64, u64, u64) {
        self.spans[stage_index(stage)]
    }
}

/// The per-layer metrics of a traced run, and every problem its checks
/// found.
pub fn per_layer(
    w: &Workload,
    passes: &TracedPasses,
    graph_gen_s: f64,
) -> (Vec<(&'static str, f64)>, Vec<String>) {
    let mut problems = compare(&passes.untraced, &passes.traced, "traced run");
    if let Some(one) = &passes.one_worker {
        problems.extend(compare(&passes.untraced, one, "one-worker run"));
    }
    let mut layers = Layers::default();
    for t in &passes.traced.trials {
        if let Err(e) = layers.absorb(t) {
            problems.push(e);
        }
    }
    let (round_entries, _, round_ns) = layers.span(SpanStage::Round);
    let (_, callbacks, callbacks_ns) = layers.span(SpanStage::Callbacks);
    let (_, delivered, deliver_ns) = layers.span(SpanStage::Deliver);
    let (_, filtered, filter_ns) = layers.span(SpanStage::FaultFilter);
    let (_, heap_events, heap_ns) = layers.span(SpanStage::LatencyHeap);
    let elections = layers.elections as f64;
    let workers = match w.kind {
        Kind::Sweep { .. } => SWEEP_WORKERS,
        _ => 1,
    };
    let traced_s = passes.traced.wall_s();
    // Time outside rounds: inside `Election::run` for single elections;
    // for a sweep, all worker time not spent in a round.
    let outside_s = workers as f64 * traced_s - secs(round_ns);
    let (engines_built, busy, scaling) = match &passes.one_worker {
        Some(one) => (
            passes.traced.engines_built as f64,
            busy_share(round_ns, workers, traced_s),
            share(one.wall_s(), passes.untraced.wall_s()),
        ),
        None => (0.0, 0.0, 0.0),
    };
    let mut out = vec![
        ("graph.gen_s", graph_gen_s),
        ("runner.outside_round_s", outside_s),
        ("engine.round_s", secs(round_ns)),
        ("engine.active_rounds", round_entries as f64),
        (
            "engine.self_s",
            engine_self_s(round_ns, callbacks_ns, deliver_ns),
        ),
        ("protocol.callbacks_s", secs(callbacks_ns)),
        ("protocol.callbacks", callbacks as f64),
        ("protocol.ns_per_callback", ns_per(callbacks_ns, callbacks)),
        ("protocol.epochs", share(layers.epochs as f64, elections)),
        (
            "protocol.final_walk_len",
            share(layers.final_walk_len as f64, elections),
        ),
        ("protocol.contenders", layers.contenders as f64),
        ("protocol.gave_up", layers.gave_up as f64),
        (
            "protocol.decided_share",
            share(
                layers.contenders.saturating_sub(layers.gave_up) as f64,
                layers.contenders as f64,
            ),
        ),
        ("protocol.dropped_tokens", layers.dropped_tokens as f64),
        ("protocol.broken_routes", layers.broken_routes as f64),
    ];
    // Indexed by `Phase::tag`, as the report's phase arrays are.
    const PHASE_ROUNDS: [&str; 5] = [
        "phase.walk.rounds",
        "phase.r1.rounds",
        "phase.r2.rounds",
        "phase.r3.rounds",
        "phase.wait.rounds",
    ];
    const PHASE_MSGS: [&str; 5] = [
        "phase.walk.msgs",
        "phase.r1.msgs",
        "phase.r2.msgs",
        "phase.r3.msgs",
        "phase.wait.msgs",
    ];
    for (i, (rounds, msgs)) in PHASE_ROUNDS.into_iter().zip(PHASE_MSGS).enumerate() {
        out.push((rounds, layers.phase_rounds[i] as f64));
        out.push((msgs, layers.phase_msgs[i] as f64));
    }
    out.extend([
        ("deliver.deliver_s", secs(deliver_ns)),
        ("deliver.messages", delivered as f64),
        ("deliver.ns_per_msg", ns_per(deliver_ns, delivered)),
        ("queues.peak_arena_slots", layers.peak_arena_slots as f64),
        ("queues.max_backlog", layers.max_backlog as f64),
        (
            "queues.congested_share",
            share(layers.congested_samples as f64, layers.samples as f64),
        ),
        ("faults.filter_s", secs(filter_ns)),
        ("faults.filtered", filtered as f64),
        ("faults.dropped", layers.dropped_messages as f64),
        ("latency.heap_s", secs(heap_ns)),
        ("latency.heap_events", heap_events as f64),
        ("latency.parked_max", layers.parked_max as f64),
        (
            "latency.parked_per_round",
            share(layers.parked_sum as f64, layers.samples as f64),
        ),
        ("scheduler.engines_built", engines_built),
        ("scheduler.busy_share", busy),
        ("scheduler.scaling", scaling),
        (
            "trace.overhead",
            share(traced_s, passes.untraced.wall_s()) - 1.0,
        ),
    ]);
    (out, problems)
}

/// What one run found: its metrics, how many elections it ran and
/// failed, and the tables and problems to print.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Metric values by name.
    pub metrics: Vec<(&'static str, f64)>,
    /// Elections started.
    pub attempted: u64,
    /// Failed elections and broken consistency checks, one line each.
    pub problems: Vec<String>,
    /// Failed elections among them.
    pub failed: u64,
    /// The per-election table of the run, and a line for each pass.
    pub tables: String,
}

/// Input builds timed during a run: after each unit, one build per
/// election of the unit, while no election runs. `total_s[k][i]` is the
/// `i`-th build of series `k` (a pass, or a mode of the traced run).
#[derive(Debug, Default)]
struct SetupSamples {
    total_s: Vec<Vec<f64>>,
    gen_s: Vec<Vec<f64>>,
}

impl SetupSamples {
    fn new(series: usize) -> Self {
        SetupSamples {
            total_s: vec![Vec::new(); series],
            gen_s: vec![Vec::new(); series],
        }
    }

    /// Builds the inputs of workload seed `seed` `count` times into
    /// series `k`, timing each whole build and its graph generation.
    fn take(&mut self, k: usize, w: &Workload, seed: u64, count: u64) {
        for _ in 0..count {
            let t0 = now();
            // The run's own build of these inputs succeeded, and the
            // build is a function of the seed, so it cannot fail here.
            if let Ok(graph) = w.graph(seed) {
                let gen_s = t0.elapsed().as_secs_f64();
                drop(w.inputs(graph, seed));
                self.total_s[k].push(t0.elapsed().as_secs_f64());
                self.gen_s[k].push(gen_s);
            }
        }
    }
}

/// The fastest value of each slot across `series`; slots past the end
/// of the shortest series are dropped.
pub fn fastest_per_slot(series: &[Vec<f64>]) -> Vec<f64> {
    let len = series.iter().map(Vec::len).min().unwrap_or(0);
    (0..len)
        .map(|i| series.iter().map(|s| s[i]).fold(f64::INFINITY, f64::min))
        .collect()
}

/// The median of `xs` (the upper one for an even count), zero when
/// empty.
pub fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs.get(xs.len() / 2).copied().unwrap_or(0.0)
}

/// A per-election table: scenario, seed, messages, rounds, leaders, and
/// the fastest and slowest wall time over `passes` (`-` for campaign
/// trials, which are not timed one by one); then a line per pass.
fn table(passes: &[Pass]) -> String {
    let mut out = format!(
        "{:<8} {:>8} {:>12} {:>8} {:>7} {:>9} {:>9}\n",
        "scenario", "seed", "messages", "rounds", "leaders", "fastest_s", "slowest_s"
    );
    let first = passes.first().map_or(&[][..], |p| &p.trials[..]);
    for (i, t) in first.iter().enumerate() {
        let walls: Vec<f64> = passes
            .iter()
            .filter_map(|p| p.trials.get(i).and_then(|t| t.wall_s))
            .collect();
        let show = |s: Option<f64>| s.map_or_else(|| "-".to_string(), |s| format!("{s:.3}"));
        let fastest = walls.iter().copied().reduce(f64::min);
        let slowest = walls.iter().copied().reduce(f64::max);
        // Writing to a String cannot fail.
        let _ = writeln!(
            out,
            "{:<8} {:>8} {:>12} {:>8} {:>7} {:>9} {:>9}",
            t.scenario,
            t.seed,
            t.report.messages,
            t.report.engine_rounds,
            t.report.leaders.len(),
            show(fastest),
            show(slowest)
        );
    }
    for (k, p) in passes.iter().enumerate() {
        for e in &p.errors {
            let _ = writeln!(out, "error (pass {}): {e}", k + 1);
        }
    }
    out
}

/// An untraced run: set-up, [`PASSES`] timed passes over the same
/// elections, and the end-to-end metrics.
pub fn run_untraced(w: &Workload, seed: u64, seconds: u64) -> Result<Outcome, String> {
    let inputs = w.inputs(w.graph(seed)?, seed);
    let seeds = w.election_seeds(seed, seconds);
    let mut setup = SetupSamples::new(PASSES);
    let mut passes = vec![Pass::default(); PASSES];
    for (k, pass) in passes.iter_mut().enumerate() {
        for unit in units(w, &seeds) {
            let done = run_unit(w, &inputs, unit, Mode::Untraced);
            setup.take(k, w, seed, done.attempted);
            pass.extend(done);
        }
    }
    let rss = host::peak_rss_mib().ok_or("cannot read the peak resident set")?;
    let mut problems: Vec<String> = passes.iter().flat_map(Pass::failures).collect();
    let failed = problems.len() as u64;
    for (k, pass) in passes.iter().enumerate().skip(1) {
        problems.extend(compare(&passes[0], pass, &format!("pass {}", k + 1)));
    }
    let walls: Vec<Vec<f64>> = passes.iter().map(|p| p.unit_walls.clone()).collect();
    let fastest_s: f64 = fastest_per_slot(&walls).iter().sum();
    let setup_s = median(fastest_per_slot(&setup.total_s));
    let peaks: Vec<f64> = passes.iter().flat_map(|p| p.unit_peaks.clone()).collect();
    let peak = peaks.iter().sum::<f64>() / peaks.len().max(1) as f64;
    let mut tables = table(&passes);
    for (k, p) in passes.iter().enumerate() {
        let _ = writeln!(
            tables,
            "pass {}: {} elections in {:.3} s",
            k + 1,
            p.attempted,
            p.wall_s()
        );
    }
    let _ = writeln!(
        tables,
        "fastest pass of each of {} units: {fastest_s:.3} s in all\n\
         process peak resident set: {rss:.3} MiB",
        walls[0].len()
    );
    Ok(Outcome {
        metrics: end_to_end(&passes[0], fastest_s, setup_s, peak),
        attempted: passes.iter().map(|p| p.attempted).sum(),
        failed,
        problems,
        tables,
    })
}

/// A traced run: set-up, then each unit of an untraced run once
/// untraced and once traced (and once on one worker in a sweep), one
/// after the other so that drift of the host hits every mode alike;
/// their checks, and the per-layer metrics.
pub fn run_traced(w: &Workload, seed: u64, seconds: u64) -> Result<Outcome, String> {
    let inputs = w.inputs(w.graph(seed)?, seed);
    let seeds = w.election_seeds(seed, seconds);
    let modes: &[Mode] = match w.kind {
        Kind::Sweep { .. } => &[Mode::Untraced, Mode::Traced, Mode::OneWorker],
        _ => &[Mode::Untraced, Mode::Traced],
    };
    let mut setup = SetupSamples::new(modes.len());
    let mut passes = vec![Pass::default(); modes.len()];
    for unit in units(w, &seeds) {
        for (k, &mode) in modes.iter().enumerate() {
            let done = run_unit(w, &inputs, unit, mode);
            setup.take(k, w, seed, done.attempted);
            passes[k].extend(done);
        }
    }
    let gen_s = median(fastest_per_slot(&setup.gen_s));
    let mut problems: Vec<String> = passes.iter().flat_map(Pass::failures).collect();
    let failed = problems.len() as u64;
    let mut tables = table(&passes[..1]);
    for (p, mode) in passes.iter().zip(modes) {
        let _ = writeln!(
            tables,
            "{mode:?}: {} elections in {:.3} s",
            p.attempted,
            p.wall_s()
        );
    }
    let attempted = passes.iter().map(|p| p.attempted).sum();
    let mut passes = passes.into_iter();
    let passes = TracedPasses {
        untraced: passes.next().unwrap_or_default(),
        traced: passes.next().unwrap_or_default(),
        one_worker: passes.next(),
    };
    let (metrics, checks) = per_layer(w, &passes, gen_s);
    problems.extend(checks);
    Ok(Outcome {
        metrics,
        attempted,
        failed,
        problems,
        tables,
    })
}
