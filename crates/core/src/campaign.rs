//! The [`Campaign`] batch layer: one election prototype, many seeds and
//! graph families, aggregate statistics out.
//!
//! Every hand-rolled "for seed in … { run; tally }" loop in the
//! experiment binaries, examples, and the CLI is this type now:
//!
//! ```no_run
//! use std::sync::Arc;
//! use welle_core::{Campaign, Election, ElectionConfig};
//! use welle_graph::gen;
//!
//! let g = Arc::new(gen::hypercube(7).unwrap());
//! let cfg = ElectionConfig::tuned_for_simulation(g.n());
//! let outcome = Campaign::new(Election::on(&g).config(cfg))
//!     .label("hypercube")
//!     .seeds(0..20)
//!     .run()
//!     .unwrap();
//! let s = outcome.summary();
//! println!("{s}");
//! assert!(s.success_rate() > 0.9);
//! ```

use std::fmt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use welle_congest::{FaultPlan, NoopObserver, TelemetryConfig, TransmitObserver};
use welle_graph::Graph;

use crate::config::{ElectionConfig, Params};
use crate::election::{Election, Exec};
use crate::error::ConfigError;
use crate::runner::{plan_for, ElectionReport, PooledEngine, RunSpec};
use crate::scheduler::run_pool;
use crate::sink::{ParsedTrial, StreamSink};

/// Process-wide default for [`Campaign::trial_threads`], settable once
/// by batch drivers (see [`set_default_trial_threads`]).
static DEFAULT_TRIAL_THREADS: AtomicUsize = AtomicUsize::new(1);

/// Sets the default worker-thread count for campaigns that do not call
/// [`Campaign::trial_threads`] themselves (clamped to ≥ 1). The
/// `all_experiments` batch binary uses this to thread every
/// experiment's campaigns from a single `--trial-threads` flag without
/// threading the option through each experiment's code.
pub fn set_default_trial_threads(k: usize) {
    DEFAULT_TRIAL_THREADS.store(k.max(1), Ordering::SeqCst);
}

/// The current process-wide default campaign worker count (see
/// [`set_default_trial_threads`]); 1 unless a batch driver raised it.
pub fn default_trial_threads() -> usize {
    DEFAULT_TRIAL_THREADS.load(Ordering::SeqCst)
}

/// Per-trial streaming callback ([`Campaign::on_trial`]).
type TrialHook<'o> = Box<dyn FnMut(&Trial) + 'o>;

/// One (graph, config) pair swept by a campaign.
struct Scenario {
    label: String,
    graph: Arc<Graph>,
    cfg: ElectionConfig,
    /// Parameter-derivation override ([`Election::believing_n`]),
    /// carried over from the prototype only.
    believed_n: Option<usize>,
    /// Adversarial network conditions for this scenario's trials
    /// ([`Election::faults`] / [`Campaign::faults`]); fault-rate sweeps
    /// are scenarios differing only in this field.
    faults: Option<FaultPlan>,
}

/// One completed election within a campaign.
#[derive(Clone, Debug)]
pub struct Trial {
    /// Label of the scenario this trial belongs to.
    pub scenario: String,
    /// The seed the election ran with.
    pub seed: u64,
    /// The full per-run report.
    pub report: ElectionReport,
}

impl Trial {
    /// The CSV column names matching [`Trial::csv_row`]: the scenario
    /// label and seed identifying the trial, then every
    /// [`ElectionReport::csv_header`] column. Also the header of the
    /// [`Campaign::stream_csv`] sink / resume manifest.
    pub fn csv_header() -> String {
        format!("scenario,seed,{}", ElectionReport::csv_header())
    }

    /// This trial as one CSV row. The scenario label is a free-form
    /// string and is RFC-4180-quoted via [`crate::csv::escape`], so
    /// labels containing commas or quotes survive a round-trip intact.
    pub fn csv_row(&self) -> String {
        format!(
            "{},{},{}",
            crate::csv::escape(&self.scenario),
            self.seed,
            self.report.csv_row()
        )
    }
}

/// `min`/`median`/`max`/`mean` of one metric across a scenario's trials.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Stats {
    /// Smallest observed value.
    pub min: u64,
    /// Median (mean of the two middle values, rounded down, for even
    /// counts).
    pub median: u64,
    /// Largest observed value.
    pub max: u64,
    /// Arithmetic mean.
    pub mean: f64,
}

impl Stats {
    fn of(values: &mut [u64]) -> Stats {
        if values.is_empty() {
            return Stats {
                min: 0,
                median: 0,
                max: 0,
                mean: 0.0,
            };
        }
        values.sort_unstable();
        let mid = values.len() / 2;
        let median = if values.len() % 2 == 1 {
            values[mid]
        } else {
            values[mid - 1] / 2 + values[mid] / 2 + (values[mid - 1] % 2 + values[mid] % 2) / 2
        };
        Stats {
            min: values[0],
            median,
            max: values[values.len() - 1],
            mean: values.iter().sum::<u64>() as f64 / values.len() as f64,
        }
    }
}

/// Aggregate statistics for one scenario of a campaign.
#[derive(Clone, Debug)]
pub struct CampaignSummary {
    /// The scenario label.
    pub scenario: String,
    /// Nodes in the scenario's graph.
    pub n: usize,
    /// Edges in the scenario's graph.
    pub m: usize,
    /// Trials run (seeds).
    pub trials: usize,
    /// Trials that elected exactly one leader.
    pub successes: usize,
    /// Trials that elected no leader.
    pub no_leader: usize,
    /// Trials that elected more than one leader (must be ~never).
    pub multi_leader: usize,
    /// Total contenders that hit the walk cap unsatisfied, across trials.
    pub gave_up: usize,
    /// Message-count statistics across trials.
    pub messages: Stats,
    /// Engine-round statistics across trials.
    pub rounds: Stats,
    /// Mean per-phase engine rounds across trials, indexed by
    /// [`Phase::tag`](crate::config::Phase::tag) order (walk, r1, r2,
    /// r3, wait). All zero unless
    /// the campaign ran with [`Campaign::telemetry`] (or resumed from a
    /// manifest written by one).
    pub phase_rounds_mean: [f64; 5],
    /// Max per-phase engine rounds across trials, same indexing as
    /// [`CampaignSummary::phase_rounds_mean`].
    pub phase_rounds_max: [u64; 5],
}

impl CampaignSummary {
    /// Fraction of trials that elected exactly one leader.
    pub fn success_rate(&self) -> f64 {
        if self.trials == 0 {
            0.0
        } else {
            self.successes as f64 / self.trials as f64
        }
    }

    /// The CSV column names matching [`CampaignSummary::csv_row`].
    pub fn csv_header() -> &'static str {
        "scenario,n,m,trials,successes,no_leader,multi_leader,gave_up,\
         msgs_min,msgs_median,msgs_max,rounds_min,rounds_median,rounds_max,\
         walk_rounds_mean,r1_rounds_mean,r2_rounds_mean,r3_rounds_mean,wait_rounds_mean,\
         walk_rounds_max,r1_rounds_max,r2_rounds_max,r3_rounds_max,wait_rounds_max"
    }

    /// This summary as one CSV row. The scenario label is
    /// RFC-4180-quoted (see [`crate::csv::escape`]), so comma-bearing
    /// labels cannot corrupt the column structure.
    pub fn csv_row(&self) -> String {
        use std::fmt::Write as _;
        let mut row = format!(
            "{},{},{},{},{},{},{},{},{},{},{},{},{},{}",
            crate::csv::escape(&self.scenario),
            self.n,
            self.m,
            self.trials,
            self.successes,
            self.no_leader,
            self.multi_leader,
            self.gave_up,
            self.messages.min,
            self.messages.median,
            self.messages.max,
            self.rounds.min,
            self.rounds.median,
            self.rounds.max,
        );
        for v in self.phase_rounds_mean {
            let _ = write!(row, ",{v}");
        }
        for v in self.phase_rounds_max {
            let _ = write!(row, ",{v}");
        }
        row
    }
}

impl fmt::Display for CampaignSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: n={} m={} | {}/{} unique leader ({} zero, {} multi, {} gave up) | \
             msgs {}/{}/{} | rounds {}/{}/{} (min/median/max)",
            self.scenario,
            self.n,
            self.m,
            self.successes,
            self.trials,
            self.no_leader,
            self.multi_leader,
            self.gave_up,
            self.messages.min,
            self.messages.median,
            self.messages.max,
            self.rounds.min,
            self.rounds.median,
            self.rounds.max,
        )
    }
}

/// Everything a campaign produced: the per-trial reports in run order
/// (scenario-major, then seed), and one [`CampaignSummary`] per scenario.
#[derive(Clone, Debug)]
pub struct CampaignReport {
    /// Every freshly-run trial, in run order. Trials recovered from a
    /// resume manifest are *not* re-materialized here (their full
    /// reports were never persisted); they are counted in
    /// [`CampaignReport::resumed_trials`] and contribute to the
    /// summaries.
    pub trials: Vec<Trial>,
    /// One aggregate per scenario, in scenario order.
    pub summaries: Vec<CampaignSummary>,
    /// Round engines ([`welle_congest::Engine`], serial or latent)
    /// constructed while running the trials. Every trial runner — each
    /// worker of the trial pool, or the single serial loop — keeps one
    /// engine and resets it between trials, so this stays at (at most)
    /// one per runner, not one per trial. Reuse is also bounded: a
    /// reset sheds any message arena left far oversized for the next
    /// trial's graph (the high-water shrink rule on
    /// [`welle_congest::Engine::reset_with`]), so a campaign mixing a
    /// giant scenario with small ones does not hold the giant's memory
    /// for the rest of the sweep — still without raising this count.
    /// Trials on an explicit [`Exec::Threaded`] or [`Exec::Async`] plan
    /// share the pooled engine too.
    pub engines_built: usize,
    /// Trials recovered from the resume manifest instead of re-run
    /// (always a prefix of the campaign's trial order).
    pub resumed_trials: usize,
}

impl CampaignReport {
    /// The first scenario's summary — the campaign's headline when it
    /// swept a single scenario.
    ///
    /// # Panics
    ///
    /// Panics if the campaign had no scenarios (impossible via
    /// [`Campaign::new`]).
    pub fn summary(&self) -> &CampaignSummary {
        &self.summaries[0]
    }

    /// Iterates the trials of one scenario.
    pub fn trials_of<'a>(&'a self, scenario: &'a str) -> impl Iterator<Item = &'a Trial> {
        self.trials.iter().filter(move |t| t.scenario == scenario)
    }
}

/// Batch runner: a prototype [`Election`] swept over seeds and graph
/// families.
///
/// The prototype's graph and config become the first scenario; more
/// scenarios join via [`Campaign::scenario`] / [`Campaign::families`].
/// [`Election::run`] is a one-seed campaign, so campaign results are
/// bit-identical to the corresponding individual runs.
#[must_use = "a Campaign does nothing until .run() is called"]
pub struct Campaign<'o> {
    scenarios: Vec<Scenario>,
    seeds: Vec<u64>,
    exec: Exec,
    trial_threads: Option<usize>,
    budget: Option<usize>,
    sink_path: Option<PathBuf>,
    resume: bool,
    telem: Option<TelemetryConfig>,
    obs: Option<&'o mut dyn TransmitObserver>,
    on_trial: Option<TrialHook<'o>>,
}

/// Per-scenario aggregation state, fed one trial at a time in
/// deterministic order (resumed trials first, then fresh ones).
#[derive(Default)]
struct Acc {
    successes: usize,
    no_leader: usize,
    multi_leader: usize,
    gave_up: usize,
    messages: Vec<u64>,
    rounds: Vec<u64>,
    phase_rounds_sum: [u64; 5],
    phase_rounds_max: [u64; 5],
}

impl Acc {
    fn absorb(
        &mut self,
        leaders: usize,
        gave_up: usize,
        messages: u64,
        rounds: u64,
        phase_rounds: [u64; 5],
    ) {
        match leaders {
            0 => self.no_leader += 1,
            1 => self.successes += 1,
            _ => self.multi_leader += 1,
        }
        self.gave_up += gave_up;
        self.messages.push(messages);
        self.rounds.push(rounds);
        for (i, &r) in phase_rounds.iter().enumerate() {
            self.phase_rounds_sum[i] += r;
            self.phase_rounds_max[i] = self.phase_rounds_max[i].max(r);
        }
    }

    fn into_summary(mut self, s: &Scenario) -> CampaignSummary {
        let trials = self.messages.len();
        let mut phase_rounds_mean = [0.0f64; 5];
        if trials > 0 {
            for (mean, &sum) in phase_rounds_mean.iter_mut().zip(&self.phase_rounds_sum) {
                *mean = sum as f64 / trials as f64;
            }
        }
        CampaignSummary {
            scenario: s.label.clone(),
            n: s.graph.n(),
            m: s.graph.m(),
            trials,
            successes: self.successes,
            no_leader: self.no_leader,
            multi_leader: self.multi_leader,
            gave_up: self.gave_up,
            messages: Stats::of(&mut self.messages),
            rounds: Stats::of(&mut self.rounds),
            phase_rounds_mean,
            phase_rounds_max: self.phase_rounds_max,
        }
    }
}

impl<'o> Campaign<'o> {
    /// Builds a campaign from a prototype election. The prototype's seed
    /// becomes the default (single) seed until [`Campaign::seeds`]
    /// replaces it; its executor choice applies to every trial, and a
    /// [`Election::believing_n`] override applies to the prototype's
    /// scenario (later scenarios derive from their own graphs).
    pub fn new(proto: Election<'_, 'o>) -> Self {
        let Election {
            graph,
            cfg,
            seed,
            exec,
            believed_n,
            faults,
            telem,
            obs,
        } = proto;
        Campaign {
            scenarios: vec![Scenario {
                label: "base".into(),
                graph: Arc::clone(graph),
                cfg,
                believed_n,
                faults,
            }],
            seeds: vec![seed],
            exec,
            trial_threads: None,
            budget: None,
            sink_path: None,
            resume: false,
            telem,
            obs,
            on_trial: None,
        }
    }

    /// Records per-round telemetry for every trial (see
    /// [`Election::telemetry`]). Each trial's [`ElectionReport`] carries
    /// its phase tables, the per-scenario summaries aggregate mean/max
    /// per-phase rounds, and the streamed CSV's phase columns become
    /// non-zero. [`Retention::Ring`](welle_congest::Retention)`(0)`
    /// keeps the aggregates without retaining any per-round samples —
    /// the usual choice for large sweeps.
    pub fn telemetry(mut self, cfg: TelemetryConfig) -> Self {
        self.telem = Some(cfg);
        self
    }

    /// Runs the campaign's trials on a work-stealing pool of `k`
    /// persistent worker threads (`1` = the classic in-place serial
    /// loop). Trials are seeded and independent, and completions are
    /// reassembled into the serial (scenario, seed) order before
    /// anything observable happens — summaries, [`Campaign::on_trial`]
    /// calls, and streamed CSV rows are **bit-identical at any worker
    /// count**. Each worker keeps one pooled engine and reuses its
    /// arenas across trials (see [`CampaignReport::engines_built`]).
    ///
    /// Campaigns that never call this use the process-wide
    /// [`default_trial_threads`]. A prototype observer
    /// ([`Election::observer`]) forces the serial loop regardless, since
    /// its event stream interleaves across trials. When `k > 1` the
    /// pool owns the host's cores, so [`Exec::Auto`] resolves to
    /// [`Exec::Serial`] for every trial — engines are never nested
    /// inside trial workers (an explicit [`Exec::Threaded`] is still
    /// honored).
    pub fn trial_threads(mut self, k: usize) -> Self {
        self.trial_threads = Some(k);
        self
    }

    /// Streams every completed trial as one CSV row (header
    /// [`Trial::csv_header`], rows [`Trial::csv_row`]) to `path`,
    /// flushed per trial in deterministic order. An interrupted run
    /// therefore leaves a valid prefix of the full output on disk, and
    /// the same file doubles as the [`Campaign::resume`] manifest.
    pub fn stream_csv(mut self, path: impl Into<PathBuf>) -> Self {
        self.sink_path = Some(path.into());
        self
    }

    /// With [`Campaign::stream_csv`]: when the sink file already holds
    /// a valid prefix of this campaign's trials, skip re-running them
    /// and restart at the first missing trial — the interrupted-sweep
    /// recovery path. Recovered trials contribute to the summaries and
    /// to [`CampaignReport::resumed_trials`], but their full
    /// [`ElectionReport`]s are gone, so they do not reappear in
    /// [`CampaignReport::trials`]. A missing sink file resumes as a
    /// fresh run; a file from a *different* campaign is a
    /// [`ConfigError::ResumeMismatch`]. Without `stream_csv` this
    /// setting has no effect.
    pub fn resume(mut self, resume: bool) -> Self {
        self.resume = resume;
        self
    }

    /// Stops after the campaign's first `max` trials in deterministic
    /// order (counting trials recovered via [`Campaign::resume`]) —
    /// deterministic interruption for budgeted batch jobs and for
    /// testing the resume path. Scenarios past the cut-off simply
    /// report fewer (possibly zero) trials in their summaries.
    pub fn budget_trials(mut self, max: usize) -> Self {
        self.budget = Some(max);
        self
    }

    /// Streams each completed [`Trial`] to `f` as the sweep runs —
    /// progress lines for long campaigns, instead of silence until the
    /// whole batch returns.
    pub fn on_trial(mut self, f: impl FnMut(&Trial) + 'o) -> Self {
        self.on_trial = Some(Box::new(f));
        self
    }

    /// Renames the most recently added scenario (the prototype's, unless
    /// [`Campaign::scenario`] was called since).
    pub fn label(mut self, label: impl Into<String>) -> Self {
        if let Some(s) = self.scenarios.last_mut() {
            s.label = label.into();
        }
        self
    }

    /// Attaches adversarial network conditions to the most recently
    /// added scenario (like [`Campaign::label`]). Sweeping a fault
    /// parameter is adding the same graph several times with different
    /// plans:
    ///
    /// ```no_run
    /// # use std::sync::Arc;
    /// # use welle_core::{Campaign, Election, ElectionConfig, FaultPlan};
    /// # use welle_graph::gen;
    /// let g = Arc::new(gen::hypercube(7).unwrap());
    /// let cfg = ElectionConfig::tuned_for_simulation(g.n());
    /// let mut campaign = Campaign::new(Election::on(&g).config(cfg)).label("p=0");
    /// for p in [0.01, 0.05, 0.1] {
    ///     campaign = campaign
    ///         .scenario(format!("p={p}"), &g, cfg)
    ///         .faults(FaultPlan::new(1).drop_rate(p));
    /// }
    /// let outcome = campaign.seeds(0..20).run().unwrap();
    /// for s in &outcome.summaries {
    ///     println!("{} -> {:.2}", s.scenario, s.success_rate());
    /// }
    /// ```
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        if let Some(s) = self.scenarios.last_mut() {
            s.faults = Some(plan);
        }
        self
    }

    /// Replaces the seed set. Each scenario runs once per seed.
    pub fn seeds(mut self, seeds: impl IntoIterator<Item = u64>) -> Self {
        self.seeds = seeds.into_iter().collect();
        self
    }

    /// Overrides the executor choice for every trial.
    pub fn executor(mut self, exec: Exec) -> Self {
        self.exec = exec;
        self
    }

    /// Appends one more scenario.
    pub fn scenario(
        mut self,
        label: impl Into<String>,
        graph: &Arc<Graph>,
        cfg: ElectionConfig,
    ) -> Self {
        self.scenarios.push(Scenario {
            label: label.into(),
            graph: Arc::clone(graph),
            cfg,
            believed_n: None,
            faults: None,
        });
        self
    }

    /// Appends a whole family sweep: one scenario per `(label, graph,
    /// config)` triple.
    pub fn families(
        mut self,
        families: impl IntoIterator<Item = (String, Arc<Graph>, ElectionConfig)>,
    ) -> Self {
        for (label, graph, cfg) in families {
            self.scenarios.push(Scenario {
                label,
                graph,
                cfg,
                believed_n: None,
                faults: None,
            });
        }
        self
    }

    /// Drops the prototype scenario, keeping only scenarios added via
    /// [`Campaign::scenario`] / [`Campaign::families`] — for sweeps
    /// where the prototype graph was only a seed-carrier.
    pub fn without_base(mut self) -> Self {
        if self.scenarios.len() > 1 {
            self.scenarios.remove(0);
        }
        self
    }

    /// Validates every scenario up front, then runs the full sweep in
    /// deterministic (scenario-major, then seed) order — on the trial
    /// scheduler when [`Campaign::trial_threads`] asked for more than
    /// one worker, as the classic serial loop otherwise. Either way the
    /// outcome is bit-identical.
    ///
    /// # Errors
    ///
    /// Returns the first [`ConfigError`] among the scenarios — checked
    /// before anything is simulated — [`ConfigError::NoSeeds`] for an
    /// empty seed set, [`ConfigError::ZeroTrialThreads`] for
    /// `trial_threads(0)`, and sink/manifest failures as
    /// [`ConfigError::SinkIo`] / [`ConfigError::ResumeMismatch`].
    pub fn run(self) -> Result<CampaignReport, ConfigError> {
        let Campaign {
            scenarios,
            seeds,
            exec,
            trial_threads,
            budget,
            sink_path,
            resume,
            telem,
            mut obs,
            mut on_trial,
        } = self;
        if seeds.is_empty() {
            return Err(ConfigError::NoSeeds);
        }
        let workers = match trial_threads {
            Some(0) => return Err(ConfigError::ZeroTrialThreads),
            Some(k) => k,
            None => default_trial_threads(),
        };
        // When the trial pool owns the cores (workers > 1), Auto must
        // see a spare-core budget of 1 so it resolves to Serial —
        // threaded engines are never nested inside trial workers.
        let host_cores = std::thread::available_parallelism().map_or(1, |c| c.get());
        let engine_cores = if workers > 1 { 1 } else { host_cores };

        // Validate everything before simulating anything: a campaign
        // must not die half-way through on a typo in scenario 7.
        let mut prepared = Vec::with_capacity(scenarios.len());
        for s in &scenarios {
            let n = s.believed_n.unwrap_or_else(|| s.graph.n());
            let params = Arc::new(Params::try_derive(n, s.cfg)?);
            let plan = plan_for(exec, &s.graph, engine_cores)?;
            // Fault plans compile once per scenario (O(n + m)) and are
            // shared by every seed's trial.
            let faults = match &s.faults {
                Some(plan) => Some(plan.compile_for(&s.graph)?),
                None => None,
            };
            prepared.push((params, plan, faults));
        }

        // The deterministic trial order every execution mode reproduces.
        let order: Vec<(usize, u64)> = scenarios
            .iter()
            .enumerate()
            .flat_map(|(si, _)| seeds.iter().map(move |&seed| (si, seed)))
            .collect();
        let total = order.len();
        let stop_at = budget.map_or(total, |b| b.min(total));

        // Open the streaming sink; under `resume`, recover the
        // completed prefix from it first.
        let header = Trial::csv_header();
        let mut resumed: Vec<ParsedTrial> = Vec::new();
        let mut sink = match (&sink_path, resume) {
            (Some(path), true) => {
                let expected: Vec<(&str, u64)> = order
                    .iter()
                    .map(|&(si, seed)| (scenarios[si].label.as_str(), seed))
                    .collect();
                let (sink, parsed) = StreamSink::resume(path, &header, &expected)?;
                resumed = parsed;
                Some(sink)
            }
            (Some(path), false) => Some(StreamSink::create(path, &header)?),
            (None, _) => None,
        };
        let start = resumed.len().min(stop_at);

        let mut accs: Vec<Acc> = scenarios.iter().map(|_| Acc::default()).collect();
        for (i, p) in resumed.iter().enumerate() {
            let (si, _) = order[i];
            accs[si].absorb(p.leaders, p.gave_up, p.messages, p.rounds, p.phase_rounds);
        }

        let mut trials: Vec<Trial> = Vec::with_capacity(stop_at - start);
        let mut sink_err: Option<ConfigError> = None;
        // The single completion path: called in deterministic trial
        // order by both execution modes, it aggregates, streams, and
        // fires the hook. Sink failures are latched and reported after
        // the in-flight trials drain.
        let mut record = |i: usize, report: ElectionReport| {
            let (si, seed) = order[i];
            let trial = Trial {
                scenario: scenarios[si].label.clone(),
                seed,
                report,
            };
            accs[si].absorb(
                trial.report.leaders.len(),
                trial.report.gave_up,
                trial.report.messages,
                trial.report.engine_rounds,
                trial.report.phase_rounds,
            );
            if sink_err.is_none() {
                if let Some(s) = sink.as_mut() {
                    if let Err(e) = s.write_row(&trial.csv_row()) {
                        sink_err = Some(e);
                    }
                }
            }
            if let Some(f) = on_trial.as_mut() {
                f(&trial);
            }
            trials.push(trial);
        };

        // One trial, pooled or not: the only place a trial is run.
        let trial = |pool: &mut PooledEngine, i: usize, obs: &mut dyn TransmitObserver| {
            let (si, seed) = order[i];
            let (params, plan, faults) = &prepared[si];
            let spec = RunSpec {
                graph: &scenarios[si].graph,
                params,
                plan: *plan,
                faults: faults.as_ref(),
                telem,
            };
            pool.run(&spec, seed, obs)
        };
        let engines_built = if workers > 1 && obs.is_none() {
            let run_one =
                |pool: &mut PooledEngine, u: usize| trial(pool, start + u, &mut NoopObserver);
            run_pool(stop_at - start, workers, run_one, |u, report| {
                record(start + u, report)
            })
        } else {
            let mut pool = PooledEngine::new();
            let mut noop = NoopObserver;
            for i in start..stop_at {
                let o: &mut dyn TransmitObserver = match obs.as_deref_mut() {
                    Some(o) => o,
                    None => &mut noop,
                };
                record(i, trial(&mut pool, i, o));
            }
            pool.built
        };
        if let Some(e) = sink_err {
            return Err(e);
        }

        let summaries = scenarios
            .iter()
            .zip(accs)
            .map(|(s, acc)| acc.into_summary(s))
            .collect();
        Ok(CampaignReport {
            trials,
            summaries,
            engines_built,
            resumed_trials: resumed.len(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::ExecPlan;
    use welle_graph::gen;

    fn graph() -> Arc<Graph> {
        Arc::new(gen::hypercube(6).unwrap())
    }

    #[test]
    fn campaign_matches_individual_elections() {
        let g = graph();
        let cfg = ElectionConfig::tuned_for_simulation(64);
        let outcome = Campaign::new(Election::on(&g).config(cfg))
            .seeds(0..4)
            .run()
            .unwrap();
        assert_eq!(outcome.trials.len(), 4);
        for t in &outcome.trials {
            let solo = Election::on(&g).config(cfg).seed(t.seed).run().unwrap();
            assert_eq!(solo.leaders, t.report.leaders);
            assert_eq!(solo.messages, t.report.messages);
            assert_eq!(solo.engine_rounds, t.report.engine_rounds);
        }
    }

    #[test]
    fn summary_aggregates_correctly() {
        let g = graph();
        let cfg = ElectionConfig::tuned_for_simulation(64);
        let outcome = Campaign::new(Election::on(&g).config(cfg))
            .label("q6")
            .seeds(0..5)
            .run()
            .unwrap();
        let s = outcome.summary();
        assert_eq!(s.scenario, "q6");
        assert_eq!(s.trials, 5);
        assert_eq!(s.successes + s.no_leader + s.multi_leader, 5);
        let mut msgs: Vec<u64> = outcome.trials.iter().map(|t| t.report.messages).collect();
        msgs.sort_unstable();
        assert_eq!(s.messages.min, msgs[0]);
        assert_eq!(s.messages.max, msgs[4]);
        assert_eq!(s.messages.median, msgs[2]);
        assert!(s.messages.min <= s.messages.median && s.messages.median <= s.messages.max);
        assert!((s.success_rate() - s.successes as f64 / 5.0).abs() < 1e-12);
    }

    #[test]
    fn families_sweep_multiple_scenarios() {
        let g = graph();
        let clique = Arc::new(gen::clique(32).unwrap());
        let cfg_g = ElectionConfig::tuned_for_simulation(64);
        let cfg_c = ElectionConfig::tuned_for_simulation(32);
        let outcome = Campaign::new(Election::on(&g).config(cfg_g))
            .label("hypercube")
            .families([("clique".to_string(), Arc::clone(&clique), cfg_c)])
            .seeds([1, 2])
            .run()
            .unwrap();
        assert_eq!(outcome.summaries.len(), 2);
        assert_eq!(outcome.trials.len(), 4);
        assert_eq!(outcome.trials_of("clique").count(), 2);
        assert_eq!(outcome.summaries[1].n, 32);
    }

    #[test]
    fn without_base_drops_the_prototype_scenario() {
        let g = graph();
        let cfg = ElectionConfig::tuned_for_simulation(64);
        let outcome = Campaign::new(Election::on(&g).config(cfg))
            .families([("only".to_string(), Arc::clone(&g), cfg)])
            .without_base()
            .seeds([3])
            .run()
            .unwrap();
        assert_eq!(outcome.summaries.len(), 1);
        assert_eq!(outcome.summary().scenario, "only");
    }

    #[test]
    fn invalid_scenario_fails_before_running() {
        let g = graph();
        let bad = ElectionConfig {
            c2: -1.0,
            ..ElectionConfig::default()
        };
        let err = Campaign::new(Election::on(&g))
            .scenario("bad", &g, bad)
            .seeds(0..1000) // would be expensive if it ran anything
            .run()
            .unwrap_err();
        assert!(matches!(err, ConfigError::BadConstant { name: "c2", .. }));
        let err = Campaign::new(Election::on(&g)).seeds([]).run().unwrap_err();
        assert_eq!(err, ConfigError::NoSeeds);
    }

    #[test]
    fn display_and_csv_are_consistent() {
        let g = graph();
        let cfg = ElectionConfig::tuned_for_simulation(64);
        let outcome = Campaign::new(Election::on(&g).config(cfg))
            .label("disp")
            .seeds(0..3)
            .run()
            .unwrap();
        let s = outcome.summary();
        let line = s.to_string();
        assert!(line.starts_with("disp: "));
        assert!(line.contains(&format!("{}/{} unique leader", s.successes, s.trials)));
        assert_eq!(
            s.csv_row().split(',').count(),
            CampaignSummary::csv_header().split(',').count()
        );
    }

    #[test]
    fn on_trial_streams_every_completed_run_in_order() {
        let g = graph();
        let cfg = ElectionConfig::tuned_for_simulation(64);
        let mut seen = Vec::new();
        let outcome = Campaign::new(Election::on(&g).config(cfg))
            .seeds(0..3)
            .on_trial(|t| seen.push((t.seed, t.report.messages)))
            .run()
            .unwrap();
        let expected: Vec<_> = outcome
            .trials
            .iter()
            .map(|t| (t.seed, t.report.messages))
            .collect();
        assert_eq!(seen, expected);
    }

    #[test]
    fn prototype_believing_n_is_honored() {
        let g = graph(); // 64 nodes
        let cfg = ElectionConfig::tuned_for_simulation(32);
        let solo = Election::on(&g)
            .config(cfg)
            .believing_n(32)
            .seed(5)
            .run()
            .unwrap();
        let outcome = Campaign::new(Election::on(&g).config(cfg).believing_n(32).seed(5))
            .run()
            .unwrap();
        assert_eq!(outcome.trials[0].report.messages, solo.messages);
        assert_eq!(outcome.trials[0].report.leaders, solo.leaders);
        // And without the override, the same seed derives different
        // parameters (actual n = 64) and a different execution.
        let plain = Campaign::new(Election::on(&g).config(cfg).seed(5))
            .run()
            .unwrap();
        assert_ne!(plain.trials[0].report.messages, solo.messages);
    }

    fn temp_path(name: &str) -> PathBuf {
        // Keep test artifacts inside the workspace target directory.
        let mut p = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
        p.push("../../target/test-tmp");
        std::fs::create_dir_all(&p).unwrap();
        p.push(format!("{}_{name}.csv", std::process::id()));
        p
    }

    /// A three-scenario campaign (fault-free, dropping, comma-labelled)
    /// exercising every row the sink can produce.
    fn sweep(g: &Arc<Graph>, cfg: ElectionConfig) -> Campaign<'static> {
        Campaign::new(Election::on(g).config(cfg))
            .label("clean")
            .scenario("p=0.3, drops", g, cfg)
            .faults(FaultPlan::new(2).drop_rate(0.3))
            .scenario("say \"hi\"", g, cfg)
            .seeds(0..4)
    }

    fn outcome_fingerprint(outcome: &CampaignReport) -> (Vec<String>, Vec<String>) {
        (
            outcome.trials.iter().map(Trial::csv_row).collect(),
            outcome
                .summaries
                .iter()
                .map(CampaignSummary::csv_row)
                .collect(),
        )
    }

    #[test]
    fn trial_threads_are_bit_identical_to_the_serial_loop() {
        let g = graph();
        let cfg = ElectionConfig {
            max_walk_len: Some(64), // keep faulted give-ups cheap
            ..ElectionConfig::tuned_for_simulation(64)
        };
        let serial = sweep(&g, cfg).run().unwrap();
        let serial_fp = outcome_fingerprint(&serial);
        assert_eq!(serial.trials.len(), 12);
        for workers in [2usize, 3, 8] {
            let pooled = sweep(&g, cfg).trial_threads(workers).run().unwrap();
            assert_eq!(
                outcome_fingerprint(&pooled),
                serial_fp,
                "workers = {workers}"
            );
            assert!(
                pooled.engines_built <= workers,
                "pooling must reuse engines: built {} with {workers} workers",
                pooled.engines_built
            );
        }
    }

    #[test]
    fn on_trial_order_is_deterministic_under_threads() {
        let g = graph();
        let cfg = ElectionConfig::tuned_for_simulation(64);
        let mut seen = Vec::new();
        Campaign::new(Election::on(&g).config(cfg))
            .seeds(0..6)
            .trial_threads(3)
            .on_trial(|t| seen.push(t.seed))
            .run()
            .unwrap();
        assert_eq!(seen, (0..6).collect::<Vec<u64>>());
    }

    #[test]
    fn comma_and_quote_labels_survive_a_csv_round_trip() {
        let g = graph();
        let cfg = ElectionConfig::tuned_for_simulation(64);
        let label = "p=0.05, \"dumbbell\"";
        let outcome = Campaign::new(Election::on(&g).config(cfg))
            .label(label)
            .seeds([1])
            .run()
            .unwrap();
        let header_cols = CampaignSummary::csv_header().split(',').count();
        let srow = outcome.summary().csv_row();
        let sfields = crate::csv::split_row(&srow).unwrap();
        assert_eq!(sfields.len(), header_cols, "row: {srow}");
        assert_eq!(sfields[0], label, "label must round-trip exactly");

        let trow = outcome.trials[0].csv_row();
        let tfields = crate::csv::split_row(&trow).unwrap();
        assert_eq!(tfields.len(), Trial::csv_header().split(',').count());
        assert_eq!(tfields[0], label);
        assert_eq!(tfields[1], "1");
    }

    #[test]
    fn streamed_csv_matches_the_trials() {
        let g = graph();
        let cfg = ElectionConfig::tuned_for_simulation(64);
        let path = temp_path("stream");
        let outcome = Campaign::new(Election::on(&g).config(cfg))
            .label("with, comma")
            .seeds(0..3)
            .stream_csv(&path)
            .run()
            .unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        let mut lines = text.lines();
        assert_eq!(lines.next().unwrap(), Trial::csv_header());
        let rows: Vec<&str> = lines.collect();
        let expect: Vec<String> = outcome.trials.iter().map(Trial::csv_row).collect();
        assert_eq!(rows, expect);
    }

    #[test]
    fn interrupted_campaign_resumes_at_the_first_missing_trial() {
        let g = graph();
        let cfg = ElectionConfig {
            max_walk_len: Some(64),
            ..ElectionConfig::tuned_for_simulation(64)
        };
        // Uninterrupted reference.
        let full_path = temp_path("resume_full");
        let full = sweep(&g, cfg).stream_csv(&full_path).run().unwrap();
        let full_text = std::fs::read_to_string(&full_path).unwrap();
        std::fs::remove_file(&full_path).unwrap();

        // Interrupted after 5 of 12 trials, then resumed (threaded, for
        // good measure) — the file must come out byte-identical and the
        // summaries must match the uninterrupted run.
        let path = temp_path("resume_part");
        let partial = sweep(&g, cfg)
            .stream_csv(&path)
            .budget_trials(5)
            .run()
            .unwrap();
        assert_eq!(partial.trials.len(), 5);
        assert_eq!(partial.summaries[2].trials, 0, "third scenario untouched");
        let resumed = sweep(&g, cfg)
            .stream_csv(&path)
            .resume(true)
            .trial_threads(4)
            .run()
            .unwrap();
        let resumed_text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(resumed.resumed_trials, 5);
        assert_eq!(resumed.trials.len(), 7, "only the missing trials re-ran");
        assert_eq!(resumed_text, full_text, "file must be byte-identical");
        let full_rows: Vec<String> = full
            .summaries
            .iter()
            .map(CampaignSummary::csv_row)
            .collect();
        let res_rows: Vec<String> = resumed
            .summaries
            .iter()
            .map(CampaignSummary::csv_row)
            .collect();
        assert_eq!(res_rows, full_rows, "summaries must absorb resumed trials");
    }

    #[test]
    fn torn_trailing_line_is_discarded_on_resume() {
        let g = graph();
        let cfg = ElectionConfig::tuned_for_simulation(64);
        let path = temp_path("torn");
        let campaign = || {
            Campaign::new(Election::on(&g).config(cfg))
                .label("torn")
                .seeds(0..3)
        };
        let full = campaign().stream_csv(&path).run().unwrap();
        let full_text = std::fs::read_to_string(&path).unwrap();
        // Tear the file mid-row: drop the final newline and half the row.
        let torn = &full_text[..full_text.len() - 9];
        assert!(!torn.ends_with('\n'));
        std::fs::write(&path, torn).unwrap();
        let resumed = campaign().stream_csv(&path).resume(true).run().unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(resumed.resumed_trials, 2, "the torn trial must re-run");
        assert_eq!(text, full_text);
        assert_eq!(
            outcome_fingerprint(&resumed).1,
            outcome_fingerprint(&full).1
        );
    }

    #[test]
    fn quoted_label_with_embedded_newline_survives_resume() {
        // A scenario label with an embedded newline makes every trial
        // row span two physical lines once escaped. Resume must parse
        // those as single RFC 4180 logical rows — not reject the
        // manifest as corrupt — and a tear right after the label's
        // interior newline (so the fragment still ends in '\n') must
        // read as a torn row, not a complete one.
        let g = graph();
        let cfg = ElectionConfig::tuned_for_simulation(64);
        let path = temp_path("newline_label");
        let label = "line one\nline \"two\", quoted";
        let campaign = || {
            Campaign::new(Election::on(&g).config(cfg))
                .label(label)
                .seeds(0..3)
        };
        let full = campaign().stream_csv(&path).run().unwrap();
        let full_text = std::fs::read_to_string(&path).unwrap();

        // Resuming the complete manifest recovers every trial.
        let resumed = campaign().stream_csv(&path).resume(true).run().unwrap();
        assert_eq!(resumed.resumed_trials, 3, "all three rows must parse");
        assert_eq!(resumed.trials.len(), 0, "nothing should re-run");
        assert_eq!(std::fs::read_to_string(&path).unwrap(), full_text);

        // Tear inside the last row's quoted label, just past its
        // embedded newline: quote parity is odd, so the trailing
        // newline must not terminate the row.
        let marker = "\"line one\n";
        let tear = full_text.rfind(marker).unwrap() + marker.len();
        assert!(full_text[..tear].ends_with('\n'));
        std::fs::write(&path, &full_text[..tear]).unwrap();
        let resumed = campaign().stream_csv(&path).resume(true).run().unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(resumed.resumed_trials, 2, "the torn trial must re-run");
        assert_eq!(text, full_text, "file must be byte-identical");
        assert_eq!(
            outcome_fingerprint(&resumed).1,
            outcome_fingerprint(&full).1,
            "resumed summaries must absorb the recovered trials"
        );
    }

    #[test]
    fn foreign_manifest_is_a_resume_mismatch() {
        let g = graph();
        let cfg = ElectionConfig::tuned_for_simulation(64);
        let path = temp_path("foreign");
        // A manifest from a different campaign (other label / seeds).
        Campaign::new(Election::on(&g).config(cfg))
            .label("other")
            .seeds(10..13)
            .stream_csv(&path)
            .run()
            .unwrap();
        let err = Campaign::new(Election::on(&g).config(cfg))
            .label("mine")
            .seeds(0..3)
            .stream_csv(&path)
            .resume(true)
            .run()
            .unwrap_err();
        std::fs::remove_file(&path).unwrap();
        assert!(matches!(err, ConfigError::ResumeMismatch { .. }), "{err:?}");
    }

    #[test]
    fn auto_resolves_serial_inside_a_threaded_campaign() {
        // The campaign hands Exec::Auto a spare-core budget of 1 when
        // the trial pool owns the cores; on a graph that would
        // otherwise qualify for sharding, Auto must still pick Serial.
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(1);
        let big = Arc::new(welle_graph::gen::random_regular(20_000, 4, &mut rng).unwrap());
        assert!(matches!(
            Exec::Auto.resolve_with(&big, 8),
            Exec::Threaded(_)
        ));
        // Two threads lost to one at n = 10⁴, so Auto stays serial below 2·10⁴.
        let below = welle_graph::gen::random_regular(19_998, 4, &mut rng).unwrap();
        assert_eq!(Exec::Auto.resolve_with(&below, 8), Exec::Serial);
        assert_eq!(Exec::Auto.resolve_with(&big, 1), Exec::Serial);
        assert_eq!(plan_for(Exec::Auto, &big, 1).unwrap(), ExecPlan::Serial);
        // Explicit Threaded(k) stays honored even inside a pool.
        assert_eq!(
            plan_for(Exec::Threaded(3), &big, 1).unwrap(),
            ExecPlan::Threaded(3)
        );
    }

    #[test]
    fn zero_trial_threads_is_a_config_error() {
        let g = graph();
        let err = Campaign::new(Election::on(&g))
            .trial_threads(0)
            .seeds(0..1000) // would be expensive if it ran anything
            .run()
            .unwrap_err();
        assert_eq!(err, ConfigError::ZeroTrialThreads);
        assert_eq!(
            err.to_string(),
            "Campaign::trial_threads needs at least one trial worker thread"
        );
        let engine = Campaign::new(Election::on(&g).executor(Exec::Threaded(0)))
            .seeds(0..1000)
            .run()
            .unwrap_err();
        assert_eq!(engine, ConfigError::ZeroThreads);
        assert_eq!(
            engine.to_string(),
            "Exec::Threaded needs at least one worker thread"
        );
    }

    #[test]
    fn default_trial_threads_starts_serial() {
        assert!(default_trial_threads() >= 1);
    }

    #[test]
    fn stats_median_of_even_counts_averages_the_middles() {
        let mut v = [4u64, 1, 3, 2];
        let s = Stats::of(&mut v);
        assert_eq!(s.min, 1);
        assert_eq!(s.median, 2); // (2 + 3) / 2 rounded down
        assert_eq!(s.max, 4);
        assert!((s.mean - 2.5).abs() < 1e-12);
        let mut odd = [5u64, 1, 9];
        assert_eq!(Stats::of(&mut odd).median, 5);
    }
}
