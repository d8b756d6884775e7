//! The [`Election`] builder — the one entry point for running a single
//! election on any executor, with or without an observer.
//!
//! ```no_run
//! use std::sync::Arc;
//! use welle_core::{Election, ElectionConfig, Exec};
//! use welle_graph::gen;
//!
//! let g = Arc::new(gen::hypercube(6).unwrap());
//! let report = Election::on(&g)
//!     .config(ElectionConfig::tuned_for_simulation(g.n()))
//!     .seed(7)
//!     .executor(Exec::Auto)
//!     .run()
//!     .unwrap();
//! assert!(report.is_success());
//! ```

use std::sync::Arc;

use welle_congest::{FaultPlan, TelemetryConfig, TransmitObserver};
use welle_graph::Graph;

use crate::campaign::Campaign;
use crate::config::ElectionConfig;
use crate::error::ConfigError;
use crate::runner::ElectionReport;

/// Which CONGEST executor drives the election (re-exported from
/// [`welle_congest`], where the executors live). `Exec::Async` opens
/// the latency axis; everything else is the synchronous model.
pub use welle_congest::Exec;

/// Builder for a single election run: graph in, [`ElectionReport`] out.
///
/// Construct with [`Election::on`], chain the knobs you care about —
/// every one has a default — and finish with [`Election::run`]. Batch
/// runs over many seeds or graphs belong to
/// [`Campaign`](crate::Campaign), which consumes one of these builders
/// as its prototype.
#[must_use = "an Election does nothing until .run() is called"]
pub struct Election<'g, 'o> {
    pub(crate) graph: &'g Arc<Graph>,
    pub(crate) cfg: ElectionConfig,
    pub(crate) seed: u64,
    pub(crate) exec: Exec,
    pub(crate) believed_n: Option<usize>,
    pub(crate) faults: Option<FaultPlan>,
    pub(crate) telem: Option<TelemetryConfig>,
    pub(crate) obs: Option<&'o mut dyn TransmitObserver>,
}

impl<'g, 'o> Election<'g, 'o> {
    /// Starts a builder for an election on `graph` with the
    /// paper-faithful [`ElectionConfig::default`], seed 0, and
    /// [`Exec::Auto`].
    pub fn on(graph: &'g Arc<Graph>) -> Self {
        Election {
            graph,
            cfg: ElectionConfig::default(),
            seed: 0,
            exec: Exec::Auto,
            believed_n: None,
            faults: None,
            telem: None,
            obs: None,
        }
    }

    /// Sets the election configuration (see
    /// [`ElectionConfig::tuned_for_simulation`] for the usual choice at
    /// simulation scale).
    pub fn config(mut self, cfg: ElectionConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Sets the run seed (drives every coin the protocol flips).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the executor choice.
    pub fn executor(mut self, exec: Exec) -> Self {
        self.exec = exec;
        self
    }

    /// Reports every transmission to `obs` (traffic classification in
    /// the lower-bound experiments, invariant checks in tests).
    pub fn observer(mut self, obs: &'o mut dyn TransmitObserver) -> Self {
        self.obs = Some(obs);
        self
    }

    /// Runs the election under adversarial network conditions (message
    /// drops, crash-stop schedules, delivery delay, edge cuts — see
    /// [`FaultPlan`]). The plan is validated against the graph before
    /// anything is simulated, and a given `(graph, config, seed, plan)`
    /// replays identically on every executor.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Records per-round telemetry during the run (sample stream, phase
    /// tables, optional span profile — see [`TelemetryConfig`]). The
    /// resulting [`ElectionReport`] carries the recorded
    /// [`TelemetryReport`](welle_congest::TelemetryReport) plus
    /// per-phase round/message totals; the sample stream is identical on
    /// every executor. Without this call the report's phase columns are
    /// zero and `telemetry` is `None`.
    pub fn telemetry(mut self, cfg: TelemetryConfig) -> Self {
        self.telem = Some(cfg);
        self
    }

    /// Derives parameters as if the network had `n` nodes, regardless of
    /// the actual graph size — the §5 "n is not known" experiments run
    /// a dumbbell where every node believes it lives on one half.
    pub fn believing_n(mut self, n: usize) -> Self {
        self.believed_n = Some(n);
        self
    }

    /// The graph this election will run on.
    pub fn graph(&self) -> &'g Arc<Graph> {
        self.graph
    }

    /// Validates the configuration, picks the executor, and runs the
    /// election: a one-seed [`Campaign`] on one trial thread, so a
    /// single election takes the campaign's one path from configuration
    /// to report.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] for any configuration
    /// [`ElectionConfig::validate`] rejects, for
    /// [`Exec::Threaded`]`(0)`, for an [`Exec::Async`] latency model
    /// with bad parameters, or for a [`FaultPlan`] that does not fit
    /// the graph. Nothing is simulated on error.
    pub fn run(self) -> Result<ElectionReport, ConfigError> {
        let trial = Campaign::new(self).trial_threads(1).run()?.trials.pop();
        // welle-lint: allow(no-lib-unwrap) — invariant: one scenario and one seed without a budget run exactly one trial
        Ok(trial.expect("a one-seed campaign runs one trial").report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use welle_graph::gen;

    fn graph() -> Arc<Graph> {
        Arc::new(gen::hypercube(6).unwrap())
    }

    #[test]
    fn builder_runs_with_defaults() {
        let g = graph();
        let report = Election::on(&g).seed(7).run().unwrap();
        assert!(report.is_success());
        assert_eq!(report.n, 64);
    }

    #[test]
    fn builder_rejects_bad_config_without_running() {
        let g = graph();
        let err = Election::on(&g)
            .config(ElectionConfig {
                c1: f64::NAN,
                ..ElectionConfig::default()
            })
            .run()
            .unwrap_err();
        assert!(matches!(err, ConfigError::BadConstant { name: "c1", .. }));
        let err = Election::on(&g)
            .config(ElectionConfig {
                max_walk_len: Some(0),
                ..ElectionConfig::default()
            })
            .run()
            .unwrap_err();
        assert_eq!(err, ConfigError::ZeroWalkCap);
    }

    #[test]
    fn zero_threads_is_a_config_error() {
        let g = graph();
        let err = Election::on(&g)
            .executor(Exec::Threaded(0))
            .run()
            .unwrap_err();
        assert_eq!(err, ConfigError::ZeroThreads);
    }

    #[test]
    fn executors_are_bit_identical() {
        let g = graph();
        let cfg = ElectionConfig::tuned_for_simulation(64);
        let runs: Vec<_> = [
            Exec::Auto,
            Exec::Serial,
            Exec::Threaded(3),
            Exec::Async(welle_congest::LatencyModel::zero()),
        ]
        .into_iter()
        .map(|exec| {
            Election::on(&g)
                .config(cfg)
                .seed(11)
                .executor(exec)
                .run()
                .unwrap()
        })
        .collect();
        for r in &runs[1..] {
            assert_eq!(r.leaders, runs[0].leaders);
            assert_eq!(r.messages, runs[0].messages);
            assert_eq!(r.engine_rounds, runs[0].engine_rounds);
            assert_eq!(r.virtual_time, runs[0].virtual_time);
        }
    }

    #[test]
    fn bad_latency_model_is_a_config_error() {
        let g = graph();
        let err = Election::on(&g)
            .executor(Exec::Async(welle_congest::LatencyModel::fixed(-2.0)))
            .run()
            .unwrap_err();
        assert!(matches!(err, ConfigError::Latency(_)), "{err:?}");
    }

    #[test]
    fn auto_resolves_serial_on_small_graphs() {
        let g = graph();
        assert_eq!(Exec::Auto.resolve_with(&g, 8), Exec::Serial);
        assert_eq!(Exec::Threaded(4).resolve_with(&g, 8), Exec::Threaded(4));
    }

    #[test]
    fn observer_sees_every_message() {
        let g = graph();
        let mut count = 0u64;
        let mut obs = |_ev: &welle_congest::TransmitEvent| count += 1;
        let report = Election::on(&g)
            .config(ElectionConfig::tuned_for_simulation(64))
            .seed(3)
            .observer(&mut obs)
            .run()
            .unwrap();
        assert_eq!(count, report.messages);
    }

    #[test]
    fn fault_plan_rides_the_builder() {
        let g = graph();
        let cfg = ElectionConfig::tuned_for_simulation(64);
        let clean = Election::on(&g).config(cfg).seed(9).run().unwrap();
        assert_eq!(clean.dropped_messages, 0);
        assert_eq!(clean.crashed, 0);
        let faulted = Election::on(&g)
            .config(cfg)
            .seed(9)
            .faults(welle_congest::FaultPlan::new(5).drop_rate(0.2))
            .run()
            .unwrap();
        assert!(faulted.dropped_messages > 0);
        let replay = Election::on(&g)
            .config(cfg)
            .seed(9)
            .faults(welle_congest::FaultPlan::new(5).drop_rate(0.2))
            .run()
            .unwrap();
        assert_eq!(faulted.messages, replay.messages);
        assert_eq!(faulted.dropped_messages, replay.dropped_messages);
        assert_eq!(faulted.leaders, replay.leaders);
    }

    #[test]
    fn believing_n_overrides_parameter_derivation() {
        let g = graph();
        // Params derived for n = 32 on a 64-node graph: the run completes
        // and reports the *actual* graph size.
        let report = Election::on(&g)
            .config(ElectionConfig::tuned_for_simulation(32))
            .believing_n(32)
            .seed(5)
            .run()
            .unwrap();
        assert_eq!(report.n, 64);
    }
}
