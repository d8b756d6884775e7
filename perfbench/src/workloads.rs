//! The benchmark's workloads: what each one runs, how its inputs follow
//! from the workload seed, and which per-layer metrics it exercises.

use std::sync::Arc;

use rand::{rngs::StdRng, SeedableRng};
use welle_core::{ElectionConfig, Exec, FaultPlan, LatencyModel};
use welle_graph::{gen, Graph};

use crate::metrics::PER_LAYER;
use crate::run::PASSES;

/// How a workload drives its elections.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Kind {
    /// One `Election::run` per election seed on the serial engine.
    Serial,
    /// One `Election::run` per election seed on the async engine, under
    /// a log-normal latency model seeded with the election seed.
    Latent {
        /// Mean of the latency's logarithm, in rounds.
        mu: f64,
        /// Standard deviation of the latency's logarithm.
        sigma: f64,
    },
    /// One `Campaign` per chunk of [`SWEEP_CHUNK`] election seeds, with a
    /// scenario per drop rate, every scenario run on every seed of the
    /// chunk by a pool of [`SWEEP_WORKERS`] trial threads.
    Sweep {
        /// Message drop rate of each scenario; 0 runs without a plan.
        drop_rates: &'static [f64],
    },
}

/// Walk-length cap of every workload. It bounds the cost of an election
/// that gives up at about three times a normal one, where the default
/// cap lets one seed cost forty.
pub const WALK_CAP: u32 = 64;
/// Workload seed the benchmark was tuned on.
pub const DEFAULT_SEED: u64 = 1;
/// Workload seed kept out of tuning, for checking a claimed gain.
pub const HELD_OUT_SEED: u64 = 1001;
/// Trial-pool worker threads of a sweep: one per core of the 2-core
/// reference host.
pub const SWEEP_WORKERS: usize = 2;
/// Election seeds per campaign of a sweep. A campaign is the sweep's
/// timed unit, so it is kept short (about a second) for the fastest-pass
/// rule of `run` to see through the host's slow phases.
pub const SWEEP_CHUNK: usize = 8;

/// One workload: a fixed recipe of elections on a random 4-regular
/// expander, sized by the run's `--seconds`.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// Name given to `--workload`.
    pub name: &'static str,
    /// Nodes in the expander.
    pub n: usize,
    /// How the elections run.
    pub kind: Kind,
    /// Distinct elections per second of `--seconds`: a run does
    /// `round(seconds × per_second)` of them, each timed in every one of
    /// `run::PASSES` passes, about `--seconds` of work on the 2-core
    /// reference host. The count depends on nothing measured, so every
    /// run of a seed does the same work.
    pub per_second: f64,
    /// Why the workload is in the benchmark.
    pub why: &'static str,
    /// Layers whose per-layer metrics this workload leaves at their
    /// neutral value, zero.
    pub unused_layers: &'static [&'static str],
}

/// Every workload, in the order of `BENCHMARK.json`.
///
/// Sizes are small on purpose. An election's cost varies with its seed
/// (its contender count and walk epochs) with a coefficient of
/// variation near 0.4, so a run's mean only repeats across workload
/// seeds when it averages about a hundred elections, and each is timed
/// three times in a run of about half a minute. A process's peak
/// follows its heaviest election; in a 128-node sweep on two workers it
/// moved by a third from seed to seed, at 64 nodes by under a tenth.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "expander-128",
        n: 128,
        kind: Kind::Serial,
        per_second: 3.0,
        why: "fault-free serial elections: protocol callbacks take three fifths of \
              round time, and R3 over half the rounds and the most messages",
        unused_layers: &["faults", "latency", "scheduler"],
    },
    Workload {
        name: "latent-128",
        n: 128,
        kind: Kind::Latent {
            mu: 0.3,
            sigma: 0.6,
        },
        per_second: 1.8,
        why: "async engine under log-normal latency: the only user of the latency \
              tick heap, where delivery outweighs the protocol",
        unused_layers: &["faults", "scheduler"],
    },
    Workload {
        name: "sweep-64",
        n: 64,
        kind: Kind::Sweep {
            drop_rates: &[0.0, 0.01, 0.02, 0.05],
        },
        per_second: 12.0,
        why: "drop-rate resilience sweep on a 2-worker trial pool: many short \
              elections, pooled engine resets and the fault filter",
        unused_layers: &["latency"],
    },
];

/// The workload called `name`.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Everything a run needs before its first election. Built from the
/// workload seed alone.
#[derive(Clone, Debug)]
pub struct Inputs {
    /// The expander, from `StdRng::seed_from_u64(seed ^ 0xF00D)` as in
    /// the `welle` CLI.
    pub graph: Arc<Graph>,
    /// `ElectionConfig::tuned_for_simulation` with the workload's cap.
    pub cfg: ElectionConfig,
    /// Latency model of a latent workload, before its per-election seed.
    pub latency: Option<LatencyModel>,
    /// One `(drop rate, plan)` per sweep scenario; no plan at rate 0.
    pub scenarios: Vec<(f64, Option<FaultPlan>)>,
}

impl Inputs {
    /// The executor of the election with seed `seed`: async under the
    /// latency model seeded with `seed`, serial without one.
    pub fn exec(&self, seed: u64) -> Exec {
        match self.latency {
            Some(model) => Exec::Async(model.seed(seed)),
            None => Exec::Serial,
        }
    }
}

impl Workload {
    /// The expander of workload seed `seed`.
    ///
    /// # Errors
    ///
    /// The generator's error, if it cannot build the expander.
    pub fn graph(&self, seed: u64) -> Result<Graph, String> {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xF00D);
        gen::random_regular(self.n, 4, &mut rng).map_err(|e| e.to_string())
    }

    /// This workload's inputs on `graph` for workload seed `seed`.
    pub fn inputs(&self, graph: Graph, seed: u64) -> Inputs {
        let cfg = ElectionConfig {
            max_walk_len: Some(WALK_CAP),
            ..ElectionConfig::tuned_for_simulation(self.n)
        };
        let latency = match self.kind {
            Kind::Latent { mu, sigma } => Some(LatencyModel::log_normal(mu, sigma)),
            _ => None,
        };
        let scenarios = match self.kind {
            // The fault seed defaults to the first election seed, as in
            // the CLI's `--drop-sweep`.
            Kind::Sweep { drop_rates } => drop_rates
                .iter()
                .map(|&p| (p, (p > 0.0).then(|| FaultPlan::new(seed).drop_rate(p))))
                .collect(),
            _ => Vec::new(),
        };
        Inputs {
            graph: Arc::new(graph),
            cfg,
            latency,
            scenarios,
        }
    }

    /// The election seeds of a run of `seconds` from workload seed
    /// `seed`: `seed, seed + 1, …`. A sweep runs each of them once per
    /// scenario.
    pub fn election_seeds(&self, seed: u64, seconds: u64) -> Vec<u64> {
        let per_run = match self.kind {
            Kind::Sweep { drop_rates } => drop_rates.len().max(1) as f64,
            _ => 1.0,
        };
        let count = ((seconds as f64 * self.per_second / per_run).round() as u64).max(1);
        (seed..seed.saturating_add(count)).collect()
    }

    /// Whether the per-layer metric `metric` belongs to a layer this
    /// workload leaves unused.
    pub fn is_unused(&self, metric: &str) -> bool {
        self.unused_layers.iter().any(|layer| {
            metric
                .strip_prefix(layer)
                .is_some_and(|rest| rest.starts_with('.'))
        })
    }
}

/// The workload records as JSON: each workload's inputs, seeds and
/// reason, and the per-layer metrics it exercises and leaves unused.
/// Kept in `workloads.json` beside the benchmark.
pub fn records_json() -> String {
    let quoted = |names: Vec<&str>| {
        let items: Vec<String> = names.iter().map(|s| format!("\"{s}\"")).collect();
        format!("[{}]", items.join(", "))
    };
    let records: Vec<String> = WORKLOADS
        .iter()
        .map(|w| {
            let (executor, plan) = match w.kind {
                Kind::Serial => ("serial".to_string(), "none".to_string()),
                Kind::Latent { mu, sigma } => (
                    "async".to_string(),
                    format!(
                        "log-normal latency, mu {mu}, sigma {sigma}, seeded with the election seed"
                    ),
                ),
                Kind::Sweep { drop_rates } => (
                    format!(
                        "a campaign per {SWEEP_CHUNK} seeds on a closed-loop trial pool of \
                         {SWEEP_WORKERS} workers, serial engines"
                    ),
                    format!(
                        "drop rates {drop_rates:?} with fault seed s; rate 0 runs without a plan"
                    ),
                ),
            };
            let (unused, exercised): (Vec<&str>, Vec<&str>) = PER_LAYER
                .iter()
                .map(|d| d.name)
                .partition(|m| w.is_unused(m));
            let fields = [
                ("name", format!("\"{}\"", w.name)),
                ("family", "\"random 4-regular expander\"".to_string()),
                ("n", w.n.to_string()),
                ("walk_cap", WALK_CAP.to_string()),
                (
                    "config",
                    "\"tuned_for_simulation, CONGEST messages, adaptive sync\"".to_string(),
                ),
                ("executor", format!("\"{executor}\"")),
                ("plan", format!("\"{plan}\"")),
                (
                    "seeds",
                    format!(
                        "\"graph from StdRng::seed_from_u64(s ^ 0xF00D); election seeds s, s+1, \
                         ...{}; round(seconds * {}) distinct elections per run, each timed in \
                         {PASSES} passes; a traced run runs each once untraced and once traced{}\"",
                        if matches!(w.kind, Kind::Sweep { .. }) {
                            ", each run in every scenario"
                        } else {
                            ""
                        },
                        w.per_second,
                        if matches!(w.kind, Kind::Sweep { .. }) {
                            ", and once more on one worker"
                        } else {
                            ""
                        },
                    ),
                ),
                ("default_seed", DEFAULT_SEED.to_string()),
                ("held_out_seed", HELD_OUT_SEED.to_string()),
                ("why", format!("\"{}\"", w.why)),
                ("exercises", quoted(exercised)),
                ("unused", quoted(unused)),
            ];
            let body: Vec<String> = fields
                .iter()
                .map(|(k, v)| format!("    \"{k}\": {v}"))
                .collect();
            format!("  {{\n{}\n  }}", body.join(",\n"))
        })
        .collect();
    format!("[\n{}\n]\n", records.join(",\n"))
}
