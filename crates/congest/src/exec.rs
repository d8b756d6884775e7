//! The [`Exec`] choice of how [`crate::Engine`] runs an execution:
//! inline, on worker threads ([`crate::Engine::set_threads`]), or under
//! a latency model ([`crate::Engine::set_latency`]). The synchronous
//! choices are bit-identical for protocols honouring the
//! [`crate::Protocol`] no-op contract, so picking between them is purely
//! a performance trade-off.

use welle_graph::Graph;

use crate::latency::LatencyModel;

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
    /// is large (`n ≥ 2·10⁴`) *and* dense enough to keep every shard
    /// busy (average degree ≥ 3) *and* the host actually has spare cores
    /// — then the engine on one worker thread per core (capped at 8).
    /// On a 2-core host two threads won most pairs at `n = 2·10⁴`, 10⁵
    /// and 10⁶ and lost every pair at `n = 10⁴` (`BENCH_NOTES.md`, "The
    /// sharded loop's gate").
    #[default]
    Auto,
    /// The serial event-driven [`crate::Engine`]: skips idle nodes, best for
    /// small or sparse networks (and single-core hosts).
    Serial,
    /// The [`crate::Engine`] on this many worker threads
    /// ([`crate::Engine::set_threads`]; must be ≥ 1, and 1 runs every
    /// round inline like `Serial`).
    Threaded(usize),
    /// The event-driven [`crate::Engine`] with its latency layer
    /// ([`crate::Engine::set_latency`]), delivering messages under this
    /// model.
    Async(LatencyModel),
}

impl Exec {
    /// Resolves `Auto` against a concrete graph and a spare-core budget,
    /// yielding a concrete executor choice (never `Auto`). A single run
    /// passes the host's core count; a batch scheduler whose trial
    /// workers already own the cores passes a budget of 1, so `Auto`
    /// resolves to `Serial` and engine worker threads are never nested
    /// inside trial workers. Explicit choices are honored as given.
    pub fn resolve_with(self, graph: &Graph, cores: usize) -> Exec {
        match self {
            Exec::Auto => {
                let n = graph.n();
                let avg_deg = if n == 0 {
                    0.0
                } else {
                    2.0 * graph.m() as f64 / n as f64
                };
                if cores >= 2 && n >= 20_000 && avg_deg >= 3.0 {
                    Exec::Threaded(cores.min(8))
                } else {
                    Exec::Serial
                }
            }
            fixed => fixed,
        }
    }
}
