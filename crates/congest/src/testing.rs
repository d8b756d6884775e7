//! Reference protocols used to validate engine semantics (and as simple
//! examples of the [`crate::Protocol`] interface). They are `pub` because
//! downstream crates reuse them in integration tests and benchmarks.

use std::sync::Arc;

use welle_graph::{Graph, Port};

use crate::engine::{Engine, EngineConfig, RunOutcome};
use crate::exec::Exec;
use crate::faults::FaultPlan;
use crate::latency::LatencyModel;
use crate::metrics::Metrics;
use crate::protocol::{Context, Protocol};
use crate::telemetry::{TelemetryConfig, TelemetryReport};

/// Every concrete executor choice a cross-executor equivalence check
/// should cover, labelled for assertion messages: the serial engine
/// (the oracle), the engine on one and on several worker threads, and
/// the engine under the zero latency model (which contracts to be
/// bit-identical to serial). Suites that iterate this list pick up
/// new executors automatically instead of enumerating them by hand.
pub fn all_execs() -> [(&'static str, Exec); 4] {
    [
        ("serial", Exec::Serial),
        ("threaded1", Exec::Threaded(1)),
        ("threaded3", Exec::Threaded(3)),
        ("async0", Exec::Async(LatencyModel::zero())),
    ]
}

/// One executor's view of a run driven by [`run_everywhere`].
#[derive(Clone, Debug)]
pub struct ExecRun {
    /// Label from [`all_execs`].
    pub name: &'static str,
    /// How the run ended.
    pub outcome: RunOutcome,
    /// Final traffic metrics.
    pub metrics: Metrics,
    /// Everything the telemetry layer recorded, when one was installed.
    pub telemetry: Option<TelemetryReport>,
}

/// Runs `make`-built protocols on every executor of [`all_execs`] under
/// the same `(graph, cfg, faults, telemetry)` and collects each run's
/// outcome, final [`Metrics`], and [`TelemetryReport`]. Runs on several
/// worker threads are forced through the sharded barrier path
/// (`inline_cutoff = 0`) so the check exercises the real parallel code
/// even on single-core CI hosts.
pub fn run_everywhere<P: Protocol>(
    graph: &Arc<Graph>,
    cfg: EngineConfig,
    faults: Option<&FaultPlan>,
    telemetry: Option<TelemetryConfig>,
    round_limit: u64,
    make: impl Fn(usize) -> P,
) -> Vec<ExecRun> {
    let mut runs = Vec::new();
    for (name, exec) in all_execs() {
        let mut e = Engine::from_fn(Arc::clone(graph), cfg, &make);
        match exec {
            Exec::Serial => {}
            Exec::Threaded(k) => {
                e.set_threads(k);
                e.set_inline_cutoff(0);
            }
            Exec::Async(model) => {
                // welle-lint: allow(no-lib-unwrap) — test-support harness: all_execs lists only valid models
                e.set_latency(model).expect("latency model is valid");
            }
            Exec::Auto => unreachable!("all_execs never yields Auto"),
        }
        if let Some(plan) = faults {
            // welle-lint: allow(no-lib-unwrap) — test-support harness: a misfitting plan is a broken test, and panicking is its assertion mechanism
            e.set_fault_plan(plan).expect("fault plan fits the graph");
        }
        if let Some(tcfg) = telemetry {
            e.set_telemetry(tcfg);
        }
        let outcome = e.run(round_limit);
        runs.push(ExecRun {
            name,
            outcome,
            metrics: e.metrics().clone(),
            telemetry: e.take_telemetry(),
        });
    }
    runs
}

/// Cross-executor equality fence: drives [`run_everywhere`] and asserts
/// every executor reproduces the serial oracle's outcome, its full
/// [`Metrics`] (message/bit totals, per-node counts, `active_rounds`,
/// `max_edge_backlog`, drop/crash counters), and — when telemetry is
/// installed — its exact sample stream, sample count, and per-phase
/// totals. Span profiles are *not* compared: which stages an executor
/// enters is executor-specific by design. Returns the serial run for
/// further assertions.
///
/// # Panics
///
/// Panics (assertion failure) on any divergence.
pub fn assert_all_execs_agree<P: Protocol>(
    graph: &Arc<Graph>,
    cfg: EngineConfig,
    faults: Option<&FaultPlan>,
    telemetry: Option<TelemetryConfig>,
    round_limit: u64,
    make: impl Fn(usize) -> P,
) -> ExecRun {
    let mut runs = run_everywhere(graph, cfg, faults, telemetry, round_limit, make).into_iter();
    // welle-lint: allow(no-lib-unwrap) — test-support harness: all_execs always lists the serial oracle first
    let oracle = runs.next().expect("all_execs is non-empty");
    assert_eq!(oracle.name, "serial", "first executor must be the oracle");
    for run in runs {
        let what = run.name;
        assert_eq!(oracle.outcome, run.outcome, "{what}: run outcome");
        assert_eq!(oracle.metrics, run.metrics, "{what}: metrics");
        match (&oracle.telemetry, &run.telemetry) {
            (None, None) => {}
            (Some(a), Some(b)) => {
                assert_eq!(a.samples, b.samples, "{what}: telemetry samples");
                assert_eq!(a.total_samples, b.total_samples, "{what}: sample count");
                assert_eq!(a.phases, b.phases, "{what}: phase totals");
            }
            (a, b) => panic!(
                "{what}: telemetry presence diverged (oracle: {}, {what}: {})",
                a.is_some(),
                b.is_some()
            ),
        }
    }
    oracle
}

/// Classic flooding of the maximum id: on learning a larger id, forward it
/// through every port. Terminates when the true maximum has stabilized
/// (each node is done once it has flooded its current best and heard
/// nothing better).
///
/// This is the `O(m · D)`-message baseline the paper contrasts with
/// (see §1 Prior Works); `welle-core` wraps it as an election baseline.
#[derive(Clone, Debug)]
pub struct FloodMax {
    id: u64,
    best: u64,
    needs_flood: bool,
}

impl FloodMax {
    /// A node with identity `id`.
    pub fn new(id: u64) -> Self {
        FloodMax {
            id,
            best: id,
            needs_flood: true,
        }
    }

    /// This node's own id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Largest id seen so far.
    pub fn best(&self) -> u64 {
        self.best
    }

    /// Whether this node currently believes it is the leader.
    pub fn is_leader(&self) -> bool {
        self.best == self.id
    }
}

impl Protocol for FloodMax {
    type Msg = u64;

    fn on_start(&mut self, ctx: &mut Context<'_, u64>) {
        for p in 0..ctx.degree() {
            ctx.send(Port::new(p), self.best);
        }
        self.needs_flood = false;
    }

    fn on_round(&mut self, ctx: &mut Context<'_, u64>, inbox: &mut Vec<(Port, u64)>) {
        let mut improved = false;
        for (_, id) in inbox.drain(..) {
            if id > self.best {
                self.best = id;
                improved = true;
            }
        }
        if improved {
            for p in 0..ctx.degree() {
                ctx.send(Port::new(p), self.best);
            }
        }
    }

    fn is_done(&self) -> bool {
        !self.needs_flood
    }
}

/// Minimal request/response pair: designated initiators ping port 0 once;
/// any node answers pings on the arrival port.
#[derive(Clone, Debug)]
pub struct Echo {
    initiator: bool,
    replies: usize,
}

/// Message type for [`Echo`]. (`Default` fills recycled arena slots —
/// see [`crate::Payload`]; the value itself is never delivered.)
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum EchoMsg {
    /// Request.
    #[default]
    Ping,
    /// Response.
    Pong,
}

impl crate::message::Payload for EchoMsg {
    fn bit_size(&self) -> usize {
        1
    }
}

impl Echo {
    /// Creates a node; `initiator` nodes ping through port 0 at start.
    pub fn new(initiator: bool) -> Self {
        Echo {
            initiator,
            replies: 0,
        }
    }

    /// Number of pongs received.
    pub fn replies_received(&self) -> usize {
        self.replies
    }
}

impl Protocol for Echo {
    type Msg = EchoMsg;

    fn on_start(&mut self, ctx: &mut Context<'_, EchoMsg>) {
        if self.initiator && ctx.degree() > 0 {
            ctx.send(Port::new(0), EchoMsg::Ping);
        }
    }

    fn on_round(&mut self, ctx: &mut Context<'_, EchoMsg>, inbox: &mut Vec<(Port, EchoMsg)>) {
        for (port, msg) in inbox.drain(..) {
            match msg {
                EchoMsg::Ping => ctx.send(port, EchoMsg::Pong),
                EchoMsg::Pong => self.replies += 1,
            }
        }
    }
}

/// Distributed BFS layering from designated roots: each node records the
/// round at which the wave first reached it. Used to cross-validate the
/// engine's timing against [`welle_graph::analysis::bfs`].
#[derive(Clone, Debug)]
pub struct BfsWave {
    root: bool,
    level: Option<u64>,
}

impl BfsWave {
    /// Creates a node; `root` nodes start the wave at level 0.
    pub fn new(root: bool) -> Self {
        BfsWave { root, level: None }
    }

    /// The BFS level at which the wave arrived (`0` for roots), if it has.
    pub fn level(&self) -> Option<u64> {
        self.level
    }
}

impl Protocol for BfsWave {
    type Msg = u64;

    fn on_start(&mut self, ctx: &mut Context<'_, u64>) {
        if self.root {
            self.level = Some(0);
            for p in 0..ctx.degree() {
                ctx.send(Port::new(p), 1);
            }
        }
    }

    fn on_round(&mut self, ctx: &mut Context<'_, u64>, inbox: &mut Vec<(Port, u64)>) {
        let mut first: Option<u64> = None;
        for (_, lvl) in inbox.drain(..) {
            first = Some(match first {
                Some(f) => f.min(lvl),
                None => lvl,
            });
        }
        if self.level.is_none() {
            if let Some(lvl) = first {
                self.level = Some(lvl);
                for p in 0..ctx.degree() {
                    ctx.send(Port::new(p), lvl + 1);
                }
            }
        }
    }

    fn is_done(&self) -> bool {
        self.level.is_some()
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::engine::{Engine, EngineConfig};
    use welle_graph::{analysis, gen, NodeId};

    #[test]
    fn bfs_wave_matches_graph_bfs() {
        let g = Arc::new(gen::torus2d(4, 5).unwrap());
        let nodes = (0..g.n()).map(|i| BfsWave::new(i == 7)).collect();
        let mut e = Engine::new(Arc::clone(&g), nodes, EngineConfig::default());
        let out = e.run(1_000);
        assert!(out.is_done());
        let dist = analysis::bfs(&g, NodeId::new(7));
        for (i, node) in e.nodes().iter().enumerate() {
            assert_eq!(node.level(), Some(dist[i] as u64), "node {i}");
        }
    }

    #[test]
    fn flood_max_message_budget_is_linear_in_m_for_lucky_start() {
        // When the max node floods first and dominates, total messages are
        // O(m); in general it is O(m * D). Check the upper bound loosely.
        let g = Arc::new(gen::clique(10).unwrap());
        let nodes = (0..10).map(|i| FloodMax::new(i as u64)).collect();
        let mut e = Engine::new(Arc::clone(&g), nodes, EngineConfig::default());
        e.run(1_000);
        let m = g.m() as u64;
        assert!(e.metrics().messages >= 2 * m); // initial flood uses 2m
        assert!(e.metrics().messages <= 2 * m * 10);
    }

    #[test]
    fn echo_only_replies_to_pings() {
        let g = Arc::new(gen::path(3).unwrap());
        let nodes = vec![Echo::new(true), Echo::new(false), Echo::new(false)];
        let mut e = Engine::new(g, nodes, EngineConfig::default());
        e.run(50);
        assert_eq!(e.node(0).replies_received(), 1);
        assert_eq!(e.node(1).replies_received(), 0);
        assert_eq!(e.node(2).replies_received(), 0);
    }
}
