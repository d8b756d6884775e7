//! A single driving API over the executors, and the [`Exec`] choice
//! between them.
//!
//! High-level drivers (election runners, experiment harnesses) are
//! written once against [`Executor`] and run unchanged on the
//! event-driven [`crate::Engine`] (with or without its latency layer)
//! or the dense sharded [`crate::ThreadedEngine`] — the synchronous
//! runs are identical for protocols honouring the [`crate::Protocol`]
//! no-op contract, so that choice is purely a performance trade-off
//! (idle-round skipping versus parallel protocol phases).

use std::sync::Arc;

use welle_graph::Graph;

use crate::engine::{Engine, RunOutcome};
use crate::latency::LatencyModel;
use crate::metrics::{Metrics, NoopObserver, TransmitObserver};
use crate::protocol::{Protocol, Signal};
use crate::threaded::ThreadedEngine;

/// Which CONGEST executor drives a run.
///
/// The synchronous executors (`Serial`, `Threaded`, and whatever `Auto`
/// resolves to) are bit-identical on the same `(graph, config, seed)` —
/// the choice is purely a wall-clock trade-off, with the measured
/// crossover recorded in `BENCH_NOTES.md`. `Async` changes the *model*:
/// message latency comes from its [`LatencyModel`] instead of the
/// constant one-round hop. Under [`LatencyModel::zero`] it rejoins the
/// synchronous executors bit for bit.
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub enum Exec {
    /// Pick for me: the serial event-driven engine, unless the network
    /// is large (`n ≥ 10⁴`) *and* dense enough to keep every shard busy
    /// (average degree ≥ 3) *and* the host actually has spare cores —
    /// then the sharded engine with one worker per core (capped at 8).
    #[default]
    Auto,
    /// The serial event-driven [`Engine`]: skips idle nodes, best for
    /// small or sparse networks (and single-core hosts).
    Serial,
    /// The sharded [`ThreadedEngine`] with this many worker threads
    /// (must be ≥ 1; a 1-worker `ThreadedEngine` runs its rounds inline
    /// on its inner serial engine).
    Threaded(usize),
    /// The event-driven [`Engine`] with its latency layer
    /// ([`Engine::set_latency`]), delivering messages under this model.
    Async(LatencyModel),
}

impl Exec {
    /// Resolves `Auto` against a concrete graph and host, yielding a
    /// concrete executor choice (never `Auto`).
    pub fn resolve(self, graph: &Graph) -> Exec {
        let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
        self.resolve_with(graph, cores)
    }

    /// [`Exec::resolve`] with an explicit spare-core budget instead of
    /// the host's count. A batch scheduler whose trial workers already
    /// own the cores passes a budget of 1 here, so `Auto` resolves to
    /// `Serial` and threaded engines are never nested inside trial
    /// workers. Explicit choices are honored as given.
    pub fn resolve_with(self, graph: &Graph, cores: usize) -> Exec {
        match self {
            Exec::Auto => {
                let n = graph.n();
                let avg_deg = if n == 0 {
                    0.0
                } else {
                    2.0 * graph.m() as f64 / n as f64
                };
                if cores >= 2 && n >= 10_000 && avg_deg >= 3.0 {
                    Exec::Threaded(cores.min(8))
                } else {
                    Exec::Serial
                }
            }
            fixed => fixed,
        }
    }
}

/// Common interface of the CONGEST executors.
///
/// Everything a driver needs: run rounds (optionally observed),
/// broadcast signals between runs, and inspect the outcome.
pub trait Executor<P: Protocol> {
    /// The simulated network.
    fn graph(&self) -> &Arc<Graph>;

    /// Current round.
    fn round(&self) -> u64;

    /// Traffic metrics accumulated so far.
    fn metrics(&self) -> &Metrics;

    /// Immutable view of the protocol instances.
    fn nodes(&self) -> &[P];

    /// Messages queued for transmission (current-round sends plus edge
    /// backlog), not yet delivered. `u64`: at `n = 10⁶` the in-flight
    /// population can exceed a 32-bit host's `usize`.
    fn in_flight(&self) -> u64;

    /// High-water mark of simultaneously queued messages since the last
    /// reset (the engine's message-arena footprint); see
    /// [`Engine::peak_arena_slots`].
    fn peak_arena_slots(&self) -> u64;

    /// Virtual time elapsed, in rounds. For synchronous runs this *is*
    /// the round count; a latency model stretches it past the round
    /// clock when deliveries complete late.
    fn virtual_time(&self) -> f64 {
        self.round() as f64
    }

    /// Runs until done/quiescent/limit, notifying `obs` of every
    /// transmission; see [`Engine::run`] for the semantics.
    fn run_observed(
        &mut self,
        round_limit: u64,
        obs: &mut dyn TransmitObserver,
    ) -> RunOutcome;

    /// Broadcasts a control signal to every node (see
    /// [`crate::Protocol::on_signal`]).
    fn signal(&mut self, signal: Signal);

    /// Runs until done/quiescent/limit with no observer.
    fn run(&mut self, round_limit: u64) -> RunOutcome {
        self.run_observed(round_limit, &mut NoopObserver)
    }
}

impl<P: Protocol> Executor<P> for Engine<P> {
    fn graph(&self) -> &Arc<Graph> {
        Engine::graph(self)
    }

    fn round(&self) -> u64 {
        Engine::round(self)
    }

    fn metrics(&self) -> &Metrics {
        Engine::metrics(self)
    }

    fn nodes(&self) -> &[P] {
        Engine::nodes(self)
    }

    fn in_flight(&self) -> u64 {
        Engine::in_flight(self)
    }

    fn peak_arena_slots(&self) -> u64 {
        Engine::peak_arena_slots(self)
    }

    fn virtual_time(&self) -> f64 {
        Engine::virtual_time(self)
    }

    fn run_observed(
        &mut self,
        round_limit: u64,
        obs: &mut dyn TransmitObserver,
    ) -> RunOutcome {
        Engine::run_observed(self, round_limit, obs)
    }

    fn signal(&mut self, signal: Signal) {
        Engine::signal(self, signal)
    }

    fn run(&mut self, round_limit: u64) -> RunOutcome {
        Engine::run(self, round_limit)
    }
}

impl<P: Protocol> Executor<P> for ThreadedEngine<P> {
    fn graph(&self) -> &Arc<Graph> {
        ThreadedEngine::graph(self)
    }

    fn round(&self) -> u64 {
        ThreadedEngine::round(self)
    }

    fn metrics(&self) -> &Metrics {
        ThreadedEngine::metrics(self)
    }

    fn nodes(&self) -> &[P] {
        ThreadedEngine::nodes(self)
    }

    fn in_flight(&self) -> u64 {
        ThreadedEngine::in_flight(self)
    }

    fn peak_arena_slots(&self) -> u64 {
        ThreadedEngine::peak_arena_slots(self)
    }

    fn run_observed(
        &mut self,
        round_limit: u64,
        obs: &mut dyn TransmitObserver,
    ) -> RunOutcome {
        ThreadedEngine::run_observed(self, round_limit, obs)
    }

    fn signal(&mut self, signal: Signal) {
        ThreadedEngine::signal(self, signal)
    }

    fn run(&mut self, round_limit: u64) -> RunOutcome {
        ThreadedEngine::run(self, round_limit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use crate::testing::FloodMax;
    use welle_graph::gen;

    /// A driver written once against the trait.
    fn drive<E: Executor<FloodMax>>(e: &mut E) -> (u64, u64) {
        let out = e.run(10_000);
        assert!(out.is_done());
        (e.metrics().messages, e.round())
    }

    #[test]
    fn both_executors_serve_the_same_driver() {
        let g = Arc::new(gen::hypercube(5).unwrap());
        let mk = || (0..g.n()).map(|i| FloodMax::new(i as u64)).collect::<Vec<_>>();
        let mut serial = Engine::new(Arc::clone(&g), mk(), EngineConfig::default());
        let mut threaded =
            ThreadedEngine::new(Arc::clone(&g), mk(), EngineConfig::default(), 3);
        assert_eq!(drive(&mut serial), drive(&mut threaded));
        assert_eq!(Executor::graph(&serial).n(), 32);
        assert_eq!(Executor::in_flight(&serial), 0);
    }
}
