//! The event-driven round engine, with its optional fault and latency
//! layers. Its sharded run loop lives in `threaded.rs`.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::AtomicU32;
use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use welle_graph::{Graph, NodeId, Port};

use crate::faults::{CompiledFaultPlan, CompiledFaults, FaultError, FaultPlan};
use crate::latency::{round_end_tick, LatencyError, LatencyModel, LatencyState, TICKS_PER_ROUND};
use crate::message::Payload;
use crate::metrics::{Metrics, NoopObserver, TransmitEvent, TransmitObserver};
use crate::protocol::{Context, Protocol, Signal};
use crate::queues::{DirBatch, EdgeQueues};
use crate::telemetry::{RoundFlow, SpanStage, TelemetryConfig, TelemetryReport, TelemetryState};

/// Engine-wide configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EngineConfig {
    /// Master seed; each node's private RNG is derived from it and the
    /// node index, so a run is a pure function of `(graph, protocols,
    /// seed)`.
    pub seed: u64,
    /// Per-message size cap in bits (the CONGEST `O(log n)` budget).
    /// `None` disables the check (LOCAL model).
    pub bandwidth_bits: Option<usize>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            seed: 0x5EED_0001,
            bandwidth_bits: None,
        }
    }
}

/// Why a [`Engine::run`] call returned.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunOutcome {
    /// Every node reported [`Protocol::is_done`] and no message is in
    /// flight.
    Done {
        /// Round at which the run stopped.
        round: u64,
    },
    /// No messages in flight, no pending wake-ups, but not all nodes are
    /// done — the system can never make progress again.
    Quiescent {
        /// Round at which the run stopped.
        round: u64,
    },
    /// The round limit was reached first.
    RoundLimit {
        /// Round at which the run stopped.
        round: u64,
    },
    /// The caller-provided stop predicate fired.
    Stopped {
        /// Round at which the run stopped.
        round: u64,
    },
}

impl RunOutcome {
    /// Round at which the run ended, whatever the reason.
    pub fn round(&self) -> u64 {
        match *self {
            RunOutcome::Done { round }
            | RunOutcome::Quiescent { round }
            | RunOutcome::RoundLimit { round }
            | RunOutcome::Stopped { round } => round,
        }
    }

    /// Whether the run ended with every node done.
    pub fn is_done(&self) -> bool {
        matches!(self, RunOutcome::Done { .. })
    }
}

/// Deterministic, event-driven executor of the synchronous CONGEST model.
///
/// Nodes run in lock-step rounds; each directed edge carries at most one
/// message per round (queued excess is delivered in later rounds — this is
/// how congestion manifests as time). Idle stretches (all nodes waiting on
/// a scheduled wake-up) are skipped in `O(1)`, so the paper's generous
/// fixed-`T` schedules cost nothing to simulate.
///
/// Two optional layers sit where a message crosses its edge, each
/// checked once per round: a [`FaultPlan`] (see
/// [`Engine::set_fault_plan`]) and a [`LatencyModel`] (see
/// [`Engine::set_latency`]), which makes the engine the asynchronous
/// executor of [`crate::Exec::Async`]. [`Engine::set_threads`] runs the
/// protocol phase of each round on worker threads, with bit-identical
/// results.
///
/// ```
/// use std::sync::Arc;
/// use welle_congest::{Engine, EngineConfig, testing::FloodMax};
/// use welle_graph::gen;
///
/// let g = Arc::new(gen::ring(8).unwrap());
/// let nodes = (0..8).map(|i| FloodMax::new(i as u64)).collect();
/// let mut engine = Engine::new(g, nodes, EngineConfig::default());
/// let outcome = engine.run(1_000);
/// assert!(outcome.is_done());
/// // Everyone learned the maximum id.
/// assert!(engine.nodes().iter().all(|n| n.best() == 7));
/// ```
#[derive(Debug)]
pub struct Engine<P: Protocol> {
    pub(crate) graph: Arc<Graph>,
    pub(crate) cfg: EngineConfig,
    pub(crate) round: u64,
    pub(crate) started: bool,
    pub(crate) metrics: Metrics,
    /// Everything between a shard's outbox and an inbox.
    pub(crate) wire: Wire<P::Msg>,
    /// Installed telemetry, if any — the same single-branch-per-round
    /// design as the wire's layers: `None` keeps the hot path untouched.
    pub(crate) telemetry: Option<Box<TelemetryState>>,
    /// Maximum phase tag published (via [`Protocol::phase_tag`]) by the
    /// callbacks of the round in progress, and by any signal since the
    /// last one; drained into the telemetry sample at round end.
    pub(crate) phase_seen: Option<u8>,
    /// Worker threads of a run; see [`Engine::set_threads`].
    pub(crate) threads: usize,
    /// See [`Engine::set_inline_cutoff`]; `None` picks the default when
    /// a run starts.
    pub(crate) inline_cutoff: Option<usize>,
    /// Every node's protocol state, as one shard with base 0. A run on
    /// several threads splits it and joins it back after.
    ///
    /// Declared last, with the outbox last in [`Shard`], so a dropped
    /// engine frees its largest batch last: `perfbench/`'s heap counter
    /// loses the frees an exiting trial thread has not yet published,
    /// and a sweep's `peak_heap_mib` follows that drop order (see
    /// `BENCH_NOTES.md`).
    pub(crate) shard: Shard<P>,
}

impl<P: Protocol> Engine<P> {
    /// Creates an engine over `graph` with one protocol instance per node.
    ///
    /// # Panics
    ///
    /// Panics if `nodes.len() != graph.n()`.
    pub fn new(graph: Arc<Graph>, nodes: Vec<P>, cfg: EngineConfig) -> Self {
        assert_eq!(
            nodes.len(),
            graph.n(),
            "need exactly one protocol instance per node"
        );
        Engine {
            shard: Shard::new(nodes, cfg.seed),
            round: 0,
            started: false,
            metrics: Metrics::new(graph.n()),
            wire: Wire::new(graph.directed_edge_count()),
            telemetry: None,
            phase_seen: None,
            threads: 1,
            inline_cutoff: None,
            graph,
            cfg,
        }
    }

    /// Installs adversarial network conditions (see [`FaultPlan`]): the
    /// plan is compiled against this engine's graph and applied to every
    /// round simulated from now on. Install before the first
    /// `run` call to cover the whole execution. Note that crash
    /// and cut schedules are *predicates on the round number* ("silent
    /// from round `r` on"): installing mid-run applies any schedule
    /// whose round has already passed from the current round forward,
    /// while drop and delay decisions only affect crossings after
    /// installation.
    ///
    /// # Errors
    ///
    /// A [`FaultError`] when the plan does not fit the graph (bad
    /// probabilities, crash targets out of range, cuts naming missing
    /// edges). The engine is unchanged on error.
    pub fn set_fault_plan(&mut self, plan: &FaultPlan) -> Result<(), FaultError> {
        let compiled = plan.compile_for(&self.graph)?;
        self.set_compiled_faults(&compiled);
        Ok(())
    }

    /// Installs an already-compiled fault plan in `O(1)` (see
    /// [`FaultPlan::compile_for`]; same semantics as
    /// [`Engine::set_fault_plan`]). The handle must have been compiled
    /// for this engine's graph.
    ///
    /// Delayed messages wait on the latency layer's tick heap: a plan
    /// with any delayed edge installs the zero latency model when no
    /// model is set, which delivers everything else exactly as the
    /// plain round engine does. Replacing a plan mid-run therefore keeps
    /// the messages the previous plan delayed in flight; they arrive at
    /// the round that plan gave them.
    pub fn set_compiled_faults(&mut self, plan: &CompiledFaultPlan) {
        if plan.0.has_delays() && self.wire.latency.is_none() {
            self.wire.latency = Some(Box::new(LatencyState::new(
                LatencyModel::zero(),
                self.graph.directed_edge_count(),
            )));
        }
        self.metrics.crashed_nodes = plan.0.scheduled_crashes;
        self.wire.faults = Some(Arc::clone(&plan.0));
    }

    /// The compiled fault schedule, for a sharded run to share with its
    /// worker threads.
    pub(crate) fn compiled_faults(&self) -> Option<Arc<CompiledFaults>> {
        self.wire.faults.clone()
    }

    /// Installs the latency layer: from now on message arrival times
    /// come from the seeded `model` instead of the constant one-round
    /// hop. Each crossing schedules its delivery on a due-tick heap
    /// (deterministic `(due, seq)` tie-breaking), per-edge service rates
    /// below 1 make hub edges queue, and runs remain pure functions of
    /// `(graph, protocols, seed, model, fault plan)`. Fault delays add
    /// whole rounds on top of the sampled latency. Install before the
    /// first `run` call; messages parked under an earlier model
    /// stay in flight.
    ///
    /// Under [`LatencyModel::zero`] every delivery lands on the next
    /// round boundary, so the run is event-for-event the plain engine's:
    /// same callbacks, RNG draws, metrics, observer stream and telemetry
    /// samples. The differential suites pin this down.
    ///
    /// ```
    /// use std::sync::Arc;
    /// use welle_congest::{Engine, EngineConfig, LatencyModel, testing::FloodMax};
    /// use welle_graph::gen;
    ///
    /// let g = Arc::new(gen::hypercube(3).unwrap());
    /// let nodes = (0..g.n()).map(|i| FloodMax::new(i as u64)).collect();
    /// let mut engine = Engine::new(Arc::clone(&g), nodes, EngineConfig::default());
    /// engine.set_latency(LatencyModel::log_normal(0.0, 0.5).seed(7)).unwrap();
    /// let outcome = engine.run(1_000);
    /// assert!(outcome.is_done());
    /// // Virtual time spans past the crossing count once latency is real.
    /// assert!(engine.virtual_time() > 0.0);
    /// ```
    ///
    /// # Errors
    ///
    /// A [`LatencyError`] when the model fails
    /// [`LatencyModel::validate`]. The engine is unchanged on error.
    pub fn set_latency(&mut self, model: LatencyModel) -> Result<(), LatencyError> {
        model.validate()?;
        let mut state = LatencyState::new(model, self.graph.directed_edge_count());
        if let Some(old) = self.wire.latency.take() {
            state.inherit_parked(*old);
        }
        self.wire.latency = Some(Box::new(state));
        Ok(())
    }

    /// Virtual time elapsed, in rounds: the later of the round clock and
    /// the latest delivery completion. Without a latency model, and
    /// under [`LatencyModel::zero`], this is [`Engine::round`] exactly;
    /// heavy-tailed models stretch it past the crossing count.
    pub fn virtual_time(&self) -> f64 {
        let round_ticks = self.round.saturating_mul(TICKS_PER_ROUND);
        let last = self.wire.latency.as_ref().map_or(0, |l| l.last_tick());
        round_ticks.max(last) as f64 / TICKS_PER_ROUND as f64
    }

    /// Installs the telemetry layer (see [`crate::TelemetryConfig`]):
    /// every *active* round simulated from now on appends one
    /// [`crate::RoundSample`] and updates the per-phase aggregates.
    /// Replaces (and discards) any previously installed telemetry.
    /// Install before the first `run` call to cover the whole
    /// execution; without this call the engine pays a single null check
    /// per round and allocates nothing.
    pub fn set_telemetry(&mut self, cfg: TelemetryConfig) {
        self.phase_seen = None;
        self.telemetry = Some(Box::new(TelemetryState::new(cfg)));
    }

    /// Removes the telemetry layer and returns everything it recorded,
    /// or `None` when [`Engine::set_telemetry`] was never called (or the
    /// report was already taken).
    pub fn take_telemetry(&mut self) -> Option<TelemetryReport> {
        self.telemetry.take().map(|t| t.into_report())
    }

    /// Creates an engine with protocols built per node index.
    pub fn from_fn(graph: Arc<Graph>, cfg: EngineConfig, mut make: impl FnMut(usize) -> P) -> Self {
        let nodes = (0..graph.n()).map(&mut make).collect();
        Engine::new(graph, nodes, cfg)
    }

    /// Resets this engine in place to exactly the state
    /// [`Engine::from_fn`]`(graph, cfg, make)` would construct, but
    /// reusing every arena the previous run grew — node and RNG vectors,
    /// per-node inboxes, the edge-queue slot pool, the send batch. The
    /// graph may differ from the previous run's (vectors resize as
    /// needed), which is what lets a batch scheduler keep one engine per
    /// worker across thousands of trials. Fault, latency and
    /// telemetry layers are removed.
    ///
    /// Reuse also *shrinks*: a message arena whose capacity exceeds a
    /// high-water ratio of the target graph's directed-edge count
    /// (8× today, with an 8192-slot floor under which nothing is ever
    /// shed) is released rather than pinned for the pool's lifetime, so
    /// resetting from an `n = 10⁶` scenario to an `n = 10³` one returns
    /// the large buffers to the allocator while same-scale reuse stays
    /// allocation-free.
    ///
    /// A reset engine is bit-identical to a fresh one: the only
    /// difference is where its buffers' memory came from. It also runs
    /// on one thread with the default inline cutoff again.
    pub fn reset_with(
        &mut self,
        graph: Arc<Graph>,
        cfg: EngineConfig,
        mut make: impl FnMut(usize) -> P,
    ) {
        let (n, directed_edges) = (graph.n(), graph.directed_edge_count());
        self.shard.reset(n, cfg.seed, &mut make, directed_edges);
        self.round = 0;
        self.started = false;
        self.metrics.reset(n);
        self.wire.reset(directed_edges);
        self.telemetry = None;
        self.phase_seen = None;
        self.threads = 1;
        self.inline_cutoff = None;
        self.graph = graph;
        self.cfg = cfg;
    }

    /// Total slots the engine's reusable message buffers can hold
    /// without re-allocating: the edge-queue arena plus the send batch.
    /// Diagnostic only — pooling tests assert that [`Engine::reset_with`]
    /// preserves it.
    pub fn arena_capacity(&self) -> usize {
        self.wire.queues.arena_capacity() + self.shard.outbox.capacity()
    }

    /// High-water mark of simultaneously queued messages since the last
    /// reset: the edge-queue arena recycles vacated slots and only grows
    /// one when none is free, so its occupied length is the run's peak
    /// backlog population (messages parked on the latency heap are not
    /// in the arena). The memory-budget fences in `tests/large_n.rs`
    /// assert big-`n` elections stay under a stated slot count.
    pub fn peak_arena_slots(&self) -> u64 {
        self.wire.queues.peak_slots() as u64
    }

    /// Current round (with a latency model, the floor of local virtual
    /// time: event horizons stay quantized on round boundaries for the
    /// protocol phase).
    pub fn round(&self) -> u64 {
        self.round
    }

    /// The simulated network.
    pub fn graph(&self) -> &Arc<Graph> {
        &self.graph
    }

    /// Traffic metrics accumulated so far.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Messages queued for transmission (current-round sends, edge
    /// backlog) or parked on the latency heap, not yet delivered.
    /// Termination waits for this to hit zero. `u64` deliberately: at
    /// `n = 10⁶` the in-flight population exceeds what a 32-bit host's
    /// `usize` can count.
    pub fn in_flight(&self) -> u64 {
        let w = &self.wire;
        (self.shard.outbox.len() as u64)
            .saturating_add(w.queues.in_flight())
            .saturating_add(w.latency.as_ref().map_or(0, |l| l.parked() as u64))
    }

    /// Immutable view of the protocol instances.
    pub fn nodes(&self) -> &[P] {
        &self.shard.nodes
    }

    /// The protocol instance at node `i`.
    pub fn node(&self, i: usize) -> &P {
        &self.shard.nodes[i]
    }

    /// Runs until [`RunOutcome::Done`], [`RunOutcome::Quiescent`], or the
    /// round limit (with a latency model, a bound on *virtual* rounds),
    /// on the threads set by [`Engine::set_threads`].
    ///
    /// ```
    /// use std::sync::Arc;
    /// use welle_congest::{Engine, EngineConfig, testing::FloodMax};
    /// use welle_graph::gen;
    ///
    /// // A minimal election: flood the maximum id on a small expander.
    /// let g = Arc::new(gen::hypercube(3).unwrap());
    /// let nodes = (0..g.n()).map(|i| FloodMax::new(i as u64)).collect();
    /// let mut engine = Engine::new(Arc::clone(&g), nodes, EngineConfig::default());
    /// let outcome = engine.run(1_000);
    /// assert!(outcome.is_done());
    /// // Exactly one node still believes its own id is the largest.
    /// assert_eq!(engine.nodes().iter().filter(|n| n.is_leader()).count(), 1);
    /// ```
    pub fn run(&mut self, round_limit: u64) -> RunOutcome {
        // Concrete `NoopObserver` so the per-message observer call (and
        // the `TransmitEvent` it would be fed) compiles away entirely.
        self.run_core(round_limit, &mut NoopObserver)
    }

    /// Like [`Engine::run`] but notifying `obs` of every transmission.
    pub fn run_observed(&mut self, round_limit: u64, obs: &mut dyn TransmitObserver) -> RunOutcome {
        self.run_core(round_limit, obs)
    }

    /// Runs until done/quiescent/limit or until `stop` returns true
    /// (checked after every simulated round). Runs inline on the calling
    /// thread whatever [`Engine::set_threads`] says, since `stop` reads
    /// the whole engine between rounds.
    pub fn run_until(
        &mut self,
        round_limit: u64,
        stop: impl FnMut(&Engine<P>) -> bool,
    ) -> RunOutcome {
        self.run_inline(round_limit, &mut NoopObserver, stop)
    }

    /// The run loop on the calling thread. Monomorphic: `O =
    /// NoopObserver` specializes to zero observer overhead, `O = dyn
    /// TransmitObserver` serves the observed entry points.
    pub(crate) fn run_inline<O: TransmitObserver + ?Sized>(
        &mut self,
        round_limit: u64,
        obs: &mut O,
        mut stop: impl FnMut(&Engine<P>) -> bool,
    ) -> RunOutcome {
        loop {
            let s = &self.shard;
            let (idle, done, next_wake) = (s.idle(), s.done_count, s.next_wake());
            if let Some(out) = self.check_stop(idle, done, next_wake, round_limit) {
                return out;
            }
            self.step_core(obs);
            if stop(self) {
                return RunOutcome::Stopped { round: self.round };
            }
        }
    }

    /// The pre-round check of both run loops, given the loop's view of
    /// its shards (all idle: no inbox holds a message and no send
    /// awaits transmission?), its done nodes and its earliest wake-up.
    /// When nothing is in transit it ends a finished or quiescent run,
    /// or skips the idle stretch in `O(1)` to the earlier of the next
    /// wake-up and the next parked delivery. Then it enforces the round
    /// limit, re-reading the round: a skip may have moved it past the
    /// limit. `Some` ends the run.
    pub(crate) fn check_stop(
        &mut self,
        idle: bool,
        done: usize,
        next_wake: Option<u64>,
        round_limit: u64,
    ) -> Option<RunOutcome> {
        let w = &self.wire;
        if self.started && idle && w.queues.in_flight() == 0 {
            let release = w.latency.as_ref().and_then(|l| l.next_release_round());
            let target = match (release, next_wake) {
                (None, _) if done == self.graph.n() => {
                    return Some(RunOutcome::Done { round: self.round })
                }
                (None, None) => return Some(RunOutcome::Quiescent { round: self.round }),
                (Some(due), Some(r)) => due.min(r),
                (Some(t), None) | (None, Some(t)) => t,
            };
            self.round = self.round.max(target);
        }
        if self.round >= round_limit {
            return Some(RunOutcome::RoundLimit { round: self.round });
        }
        None
    }

    /// Simulates exactly one round (start-up on the first call), as
    /// the body of [`Engine::run_inline`]'s loop and monomorphic like it.
    fn step_core<O: TransmitObserver + ?Sized>(&mut self, obs: &mut O) {
        // Telemetry mirrors the wire's layers: taken once per round, so
        // a run without it pays exactly one null check and nothing else.
        let mut tel = self.telemetry.take();
        let t_round = tel.as_deref_mut().and_then(|t| t.begin(SpanStage::Round));

        let t_cb = tel
            .as_deref_mut()
            .and_then(|t| t.begin(SpanStage::Callbacks));
        let kind = self.next_phase();
        let (ran, callbacks_run) = self.protocol_phase(kind);
        if let Some(t) = tel.as_deref_mut() {
            t.end(SpanStage::Callbacks, t_cb, callbacks_run);
        }

        let mut outbox = std::mem::take(&mut self.shard.outbox);
        let shard = &mut self.shard;
        let (flow, transmitted) = self.wire.transmit(
            &self.graph,
            self.round,
            std::slice::from_mut(&mut outbox),
            tel.as_deref_mut(),
            obs,
            &mut |v, q, msg| shard.deliver(v.index(), q, msg),
        );
        self.shard.outbox = outbox; // recycle the allocation
        self.close_round(tel, ran || transmitted, callbacks_run, &flow, t_round);
    }

    /// The kind of the coming round's protocol phase — start-up on the
    /// first round — marking the run started.
    pub(crate) fn next_phase(&mut self) -> CallKind {
        if std::mem::replace(&mut self.started, true) {
            CallKind::Round
        } else {
            CallKind::Start
        }
    }

    /// Runs a protocol phase of `kind` on every node and folds its
    /// tallies in. Returns whether any node was activated and how many
    /// callbacks ran.
    fn protocol_phase(&mut self, kind: CallKind) -> (bool, u64) {
        let env = PhaseEnv {
            graph: &self.graph,
            budget: self.cfg.bandwidth_bits,
            faults: self.wire.faults.as_deref(),
            backlog: self.wire.queues.backlog(),
        };
        self.shard.run_phase(&env, self.round, kind);
        self.shard
            .take_tally(&mut self.metrics.sent_by_node, &mut self.phase_seen)
    }

    /// Closes the round a run loop just simulated: folds its flow into
    /// the metrics, counts it as active when a callback ran or a message
    /// moved (recording its telemetry sample), ends its span, restores
    /// the telemetry layer and advances the clock.
    pub(crate) fn close_round(
        &mut self,
        mut tel: Option<Box<TelemetryState>>,
        active: bool,
        callbacks_run: u64,
        flow: &RoundFlow,
        t_round: Option<Instant>,
    ) {
        let m = &mut self.metrics;
        m.messages += flow.messages;
        m.bits += flow.bits;
        m.dropped_messages += flow.dropped;
        m.max_edge_backlog = m.max_edge_backlog.max(flow.max_backlog);
        if active {
            m.active_rounds += 1;
            if let Some(t) = tel.as_deref_mut() {
                let parked = self.wire.latency.as_ref().map_or(0, |l| l.parked()) as u64;
                t.end_round(
                    self.round,
                    self.phase_seen.take(),
                    callbacks_run,
                    flow,
                    parked,
                    round_end_tick(self.round),
                );
            }
        }
        if let Some(t) = tel.as_deref_mut() {
            t.end(SpanStage::Round, t_round, callbacks_run + flow.messages);
        }
        self.telemetry = tel;
        self.round += 1;
    }

    /// Broadcasts a control signal to every node (see
    /// [`Protocol::on_signal`]), inline; resulting sends are transmitted
    /// starting with the next round. Signal callbacks count in no round's
    /// `active_nodes`; their sends count in `sent_by_node`, and their
    /// phase tag lands in the next recorded sample.
    pub fn signal(&mut self, signal: Signal) {
        self.protocol_phase(CallKind::Signal(signal));
    }
}

/// What a protocol phase calls on a node.
#[derive(Clone, Copy)]
pub(crate) enum CallKind {
    /// [`Protocol::on_start`], on every node.
    Start,
    /// [`Protocol::on_round`], on every node with messages or a due
    /// wake-up.
    Round,
    /// [`Protocol::on_signal`], on every node.
    Signal(Signal),
}

/// The environment of a protocol phase, shared by every callback: the
/// network, the CONGEST budget, the compiled fault schedule (if any) and
/// the per-edge queue lengths, which the phase only reads.
pub(crate) struct PhaseEnv<'a> {
    pub(crate) graph: &'a Graph,
    pub(crate) budget: Option<usize>,
    pub(crate) faults: Option<&'a CompiledFaults>,
    pub(crate) backlog: &'a [AtomicU32],
}

/// The nodes `base..base + nodes.len()` and everything a protocol phase
/// reads or writes for them: protocol instances, RNGs, inboxes, the
/// active list, wake-ups, done flags, the sends awaiting transmission,
/// and the tallies of the last phase. [`Engine`] keeps every node in one
/// shard with base 0; a run on several threads splits it into one shard
/// per worker and joins them back after, so both run loops run every
/// callback through [`Shard::run_phase`].
#[derive(Debug)]
pub(crate) struct Shard<P: Protocol> {
    /// Global index of the shard's first node.
    pub(crate) base: usize,
    pub(crate) nodes: Vec<P>,
    rngs: Vec<StdRng>,
    inboxes: Vec<Vec<(Port, P::Msg)>>,
    /// Local indices with a nonempty inbox.
    pub(crate) active: Vec<u32>,
    /// Membership flags for `active`: keeps it, and the due wake-ups
    /// merged into it, duplicate-free without a dedup pass.
    flags: Vec<bool>,
    /// Pending wake-ups as `(round, local index)`, kept as a multiset.
    pub(crate) wakeups: BinaryHeap<Reverse<(u64, u32)>>,
    done_flags: Vec<bool>,
    pub(crate) done_count: usize,
    /// Whether the last phase activated any node.
    ran: bool,
    /// Callbacks the last phase ran (crashed nodes excluded).
    calls: u64,
    /// Sends of the last phase per node, `(local index, count)`.
    sent_log: Vec<(u32, u32)>,
    /// Maximum phase tag pulled (via [`Protocol::phase_tag`]) in the
    /// last phase.
    phase_seen: Option<u8>,
    /// Sends awaiting transmission, `(directed_index, msg)` in send
    /// order: a signal's sends, then the round's.
    pub(crate) outbox: DirBatch<P::Msg>,
}

impl<P: Protocol> Default for Shard<P> {
    fn default() -> Self {
        Shard::new(Vec::new(), 0)
    }
}

impl<P: Protocol> Shard<P> {
    /// One shard over `nodes`, with base 0 and the node RNGs of `seed`.
    fn new(nodes: Vec<P>, seed: u64) -> Self {
        let n = nodes.len();
        Shard {
            base: 0,
            rngs: (0..n).map(|i| node_rng(seed, i)).collect(),
            inboxes: (0..n).map(|_| Vec::new()).collect(),
            active: Vec::new(),
            flags: vec![false; n],
            wakeups: BinaryHeap::new(),
            done_flags: vec![false; n],
            done_count: 0,
            outbox: DirBatch::new(),
            ran: false,
            calls: 0,
            sent_log: Vec::new(),
            phase_seen: None,
            nodes,
        }
    }

    /// [`Engine::reset_with`]'s half for the nodes: `n` fresh ones,
    /// reusing every allocation but an oversized outbox.
    fn reset(&mut self, n: usize, seed: u64, make: impl FnMut(usize) -> P, directed_edges: usize) {
        self.nodes.clear();
        self.nodes.extend((0..n).map(make));
        self.rngs.clear();
        self.rngs.extend((0..n).map(|i| node_rng(seed, i)));
        for inbox in self.inboxes.iter_mut() {
            inbox.clear(); // keep each node's inbox allocation
        }
        self.inboxes.resize_with(n, Vec::new);
        self.active.clear();
        self.flags.clear();
        self.flags.resize(n, false);
        self.wakeups.clear();
        self.done_flags.clear();
        self.done_flags.resize(n, false);
        self.done_count = 0;
        self.outbox.recycle(directed_edges);
        self.ran = false;
        self.calls = 0;
        self.sent_log.clear();
        self.phase_seen = None;
    }

    /// Whether no inbox holds a message and no send awaits transmission.
    pub(crate) fn idle(&self) -> bool {
        self.active.is_empty() && self.outbox.is_empty()
    }

    /// Round of the earliest pending wake-up.
    pub(crate) fn next_wake(&self) -> Option<u64> {
        self.wakeups.peek().map(|&Reverse((r, _))| r)
    }

    /// A protocol phase of `kind` at `round` on this shard's nodes, in
    /// ascending node order: start-up and signals call every node, a
    /// round calls every node with messages or a due wake-up.
    pub(crate) fn run_phase(&mut self, env: &PhaseEnv<'_>, round: u64, kind: CallKind) {
        if !matches!(kind, CallKind::Round) {
            self.ran = true;
            for local in 0..self.nodes.len() {
                self.call(env, round, local, kind);
            }
            return;
        }
        let mut todo = std::mem::take(&mut self.active);
        // `flags` doubles as the membership set: delivery already guards
        // `active` with it, so guarding due wake-ups the same way keeps
        // `todo` duplicate-free without a dedup pass.
        while let Some(&Reverse((r, local))) = self.wakeups.peek() {
            if r > round {
                break;
            }
            self.wakeups.pop();
            if !self.flags[local as usize] {
                self.flags[local as usize] = true;
                todo.push(local);
            }
        }
        // Ascending node order: a linear flag scan when dense (cheaper
        // and cache-friendly), a sort when sparse.
        if todo.len() >= self.nodes.len() / 8 {
            todo.clear();
            for (local, flag) in self.flags.iter().enumerate() {
                if *flag {
                    todo.push(crate::idx32(local));
                }
            }
        } else {
            todo.sort_unstable();
        }
        self.ran = !todo.is_empty();
        for &local in &todo {
            self.flags[local as usize] = false;
            self.call(env, round, local as usize, CallKind::Round);
        }
        // Callbacks only queue sends, so nothing was delivered into
        // `active` meanwhile: hand the allocation back.
        todo.clear();
        self.active = todo;
    }

    /// One callback on local node `local`, with everything the engine
    /// does around it: the crash-stop skip, the wake-up clamp, done
    /// counting and the phase-tag pull.
    fn call(&mut self, env: &PhaseEnv<'_>, round: u64, local: usize, kind: CallKind) {
        let i = self.base + local;
        if env.faults.is_some_and(|f| f.is_crashed(i, round)) {
            // Crash-stop: from its crash round on, the node executes
            // nothing — no callbacks, no sends, no wake-ups. A round's
            // inbox is lost with it.
            if let CallKind::Round = kind {
                self.inboxes[local].clear();
            }
            return;
        }
        self.calls += 1;
        let u = NodeId::new(i);
        let mut wake = None;
        // Sends go straight into the outbox as `(directed_index, msg)` —
        // `Context::send` resolves the index from `dir_base`, so no
        // per-message recomputation or intermediate buffer.
        let mut ctx = Context {
            round,
            n: env.graph.n(),
            degree: env.graph.degree(u),
            dir_base: crate::idx32(env.graph.directed_base(u)),
            budget: env.budget,
            sent: 0,
            backlog: env.backlog,
            rng: &mut self.rngs[local],
            sends: &mut self.outbox,
            wake: &mut wake,
        };
        let node = &mut self.nodes[local];
        match kind {
            CallKind::Start => node.on_start(&mut ctx),
            CallKind::Round => {
                let mut inbox = std::mem::take(&mut self.inboxes[local]);
                node.on_round(&mut ctx, &mut inbox);
                inbox.clear();
                self.inboxes[local] = inbox; // recycle the allocation
            }
            CallKind::Signal(s) => node.on_signal(&mut ctx, s),
        }
        let sent = ctx.sent;
        if sent > 0 {
            self.sent_log.push((crate::idx32(local), sent));
        }
        if let Some(r) = wake {
            self.wakeups
                .push(Reverse((r.max(round + 1), crate::idx32(local))));
        }
        let done_now = node.is_done();
        if done_now != self.done_flags[local] {
            self.done_flags[local] = done_now;
            if done_now {
                self.done_count += 1;
            } else {
                self.done_count -= 1;
            }
        }
        // The phase-observer pull (see `Protocol::phase_tag`): merged by
        // maximum (`None` below every tag), so the reduction is
        // order-free across nodes and shards.
        self.phase_seen = self.phase_seen.max(node.phase_tag());
    }

    /// Hands over the last phase's tallies and clears them: the sends
    /// are added to `sent_by_node` (indexed by global node), the phase
    /// tag max-merges into `phase`. Returns whether any node was
    /// activated, and how many callbacks ran.
    pub(crate) fn take_tally(
        &mut self,
        sent_by_node: &mut [u64],
        phase: &mut Option<u8>,
    ) -> (bool, u64) {
        for (local, sent) in self.sent_log.drain(..) {
            sent_by_node[self.base + local as usize] += u64::from(sent);
        }
        *phase = (*phase).max(self.phase_seen.take());
        let ran = std::mem::take(&mut self.ran);
        (ran, std::mem::take(&mut self.calls))
    }

    /// Delivers `msg`, arrived through `port`, into local node `local`'s
    /// inbox, and lists the node as active.
    #[inline]
    pub(crate) fn deliver(&mut self, local: usize, port: Port, msg: P::Msg) {
        self.inboxes[local].push((port, msg));
        if !self.flags[local] {
            self.flags[local] = true;
            self.active.push(crate::idx32(local));
        }
    }

    /// Splits this shard (base 0, tallies taken) into contiguous shards
    /// of `len` nodes each. The first keeps the sends awaiting
    /// transmission: they go out ahead of every shard's next sends, as
    /// they would from the whole shard.
    pub(crate) fn split(mut self, len: usize) -> Vec<Shard<P>> {
        debug_assert!(self.base == 0 && self.sent_log.is_empty() && self.calls == 0);
        let count = self.nodes.len().div_ceil(len).max(1);
        let active = std::mem::take(&mut self.active);
        let wakeups = std::mem::take(&mut self.wakeups);
        let mut shards = Vec::with_capacity(count);
        // Split from the back so each split_off is O(shard size).
        for base in (1..count).rev().map(|s| s * len) {
            shards.push(Shard {
                base,
                nodes: self.nodes.split_off(base),
                rngs: self.rngs.split_off(base),
                inboxes: self.inboxes.split_off(base),
                flags: self.flags.split_off(base),
                done_flags: self.done_flags.split_off(base),
                ..Shard::default()
            });
        }
        shards.push(self);
        shards.reverse();
        for s in &mut shards {
            s.done_count = s.done_flags.iter().filter(|&&d| d).count();
        }
        for i in active {
            let s = &mut shards[i as usize / len];
            s.active.push(i - crate::idx32(s.base));
        }
        for Reverse((r, i)) in wakeups {
            let s = &mut shards[i as usize / len];
            s.wakeups.push(Reverse((r, i - crate::idx32(s.base))));
        }
        shards
    }

    /// Joins the shards of a [`Shard::split`] back into one, in order.
    pub(crate) fn join(shards: Vec<Shard<P>>) -> Shard<P> {
        let mut rest = shards.into_iter();
        let mut whole = rest.next().unwrap_or_default();
        for s in rest {
            debug_assert!(s.outbox.is_empty() && s.sent_log.is_empty() && s.calls == 0);
            let base = crate::idx32(s.base);
            whole.nodes.extend(s.nodes);
            whole.rngs.extend(s.rngs);
            whole.inboxes.extend(s.inboxes);
            whole.flags.extend(s.flags);
            whole.done_flags.extend(s.done_flags);
            whole.done_count += s.done_count;
            whole.active.extend(s.active.iter().map(|&l| base + l));
            let wakeups = s.wakeups.into_iter();
            whole
                .wakeups
                .extend(wakeups.map(|Reverse((r, l))| Reverse((r, base + l))));
        }
        whole
    }
}

/// Everything between a shard's outbox and an inbox: the per-edge
/// backlog, the CONGEST one-message-per-directed-edge stamps, and the
/// optional fault and latency layers. The engine owns one, and both run
/// loops drive it through [`Wire::transmit`], so they cannot drift apart
/// on delivery (their executions must stay bit-identical).
#[derive(Debug)]
pub(crate) struct Wire<M> {
    /// Backlogged messages, one FIFO per directed edge.
    pub(crate) queues: EdgeQueues<M>,
    /// Round at which each directed edge last carried a message; the
    /// CONGEST one-per-round discipline without per-edge clearing.
    last_carried: Vec<u64>,
    /// Installed adversarial network conditions, if any.
    faults: Option<Arc<CompiledFaults>>,
    /// Installed latency layer, if any: the one `(due tick, seq)` heap
    /// for latency and fault delays alike.
    latency: Option<Box<LatencyState<M>>>,
}

impl<M: Payload> Wire<M> {
    fn new(directed_edges: usize) -> Self {
        Wire {
            queues: EdgeQueues::new(directed_edges),
            last_carried: vec![u64::MAX; directed_edges],
            faults: None,
            latency: None,
        }
    }

    /// [`Engine::reset_with`]'s half for the wire: empty, without
    /// layers, and shedding an arena far oversized for the new graph.
    fn reset(&mut self, directed_edges: usize) {
        self.queues.reset(directed_edges);
        self.last_carried.clear();
        self.last_carried.resize(directed_edges, u64::MAX);
        self.faults = None;
        self.latency = None;
    }

    /// The transmission phase of `round`, written once for both run
    /// loops: one message per active directed edge. Messages parked
    /// on the latency heap and due by the round's end arrive first, then
    /// each backlogged edge's queue head crosses as it pops, then the
    /// sends of each batch of `fresh` in order — one shard outbox per
    /// batch — either cross directly (edge idle this round — the common,
    /// allocation-free case) or join the backlog. The crossing policy is
    /// chosen here, once per round. Returns the round's flow and whether anything was
    /// in transit.
    pub(crate) fn transmit<O: TransmitObserver + ?Sized>(
        &mut self,
        graph: &Graph,
        round: u64,
        fresh: &mut [DirBatch<M>],
        mut tel: Option<&mut TelemetryState>,
        obs: &mut O,
        sink: &mut impl FnMut(NodeId, Port, M),
    ) -> (RoundFlow, bool) {
        let transmitted = self.queues.in_flight() > 0
            || fresh.iter().any(|b| !b.is_empty())
            || self
                .latency
                .as_ref()
                .is_some_and(|l| l.due_now(round_end_tick(round)));
        let faults = self.faults.as_deref();
        let t_deliver = tel.as_deref_mut().and_then(|t| t.begin(SpanStage::Deliver));
        let t_ff = match (faults, tel.as_deref_mut()) {
            (Some(_), Some(t)) => t.begin(SpanStage::FaultFilter),
            _ => None,
        };
        let batches = fresh.iter_mut();
        let (queues, carried) = (&mut self.queues, &mut self.last_carried[..]);
        let flow = match self.latency.as_deref_mut() {
            // Decided once per round, so each per-message loop below is
            // compiled for its own policy: the fault-free one is exactly
            // the unfaulted hot path.
            None => match faults {
                None => {
                    let tx = Transmitter::new(graph, carried, round, Plain);
                    tx.run(queues, batches, obs, sink)
                }
                Some(c) => {
                    let tx = Transmitter::new(graph, carried, round, Faulted(c));
                    tx.run(queues, batches, obs, sink)
                }
            },
            Some(lat) => {
                let mut tx = Transmitter::new(graph, carried, round, Latent { lat, faults });
                let t_lh = tel
                    .as_deref_mut()
                    .and_then(|t| t.begin(SpanStage::LatencyHeap));
                tx.release_due(obs, sink);
                if let Some(t) = tel.as_deref_mut() {
                    // Events: heap releases delivered before this round's
                    // own crossings.
                    t.end(SpanStage::LatencyHeap, t_lh, tx.delivered_msgs);
                }
                tx.run(queues, batches, obs, sink)
            }
        };
        if let Some(t) = tel {
            if faults.is_some() {
                // Events: every crossing the filter inspected.
                t.end(SpanStage::FaultFilter, t_ff, flow.messages + flow.dropped);
            }
            t.end(SpanStage::Deliver, t_deliver, flow.messages);
        }
        (flow, transmitted)
    }
}

/// What a message meets as it crosses its edge. [`Wire::transmit`]
/// picks one policy per round, so each one's per-message loop is
/// compiled on its own: the fault-free path carries no fault or latency
/// branch at all.
trait Crossing<M> {
    /// The fate of `msg` crossing directed edge `dir` at `round`: `Some`
    /// delivers it this round; `None` means it was dropped (and counted
    /// in `dropped`) or parked for a later round.
    fn cross(
        &mut self,
        graph: &Graph,
        round: u64,
        dir: usize,
        msg: M,
        dropped: &mut u64,
    ) -> Option<M>;
}

/// No faults and no latency: every crossing delivers.
struct Plain;

impl<M> Crossing<M> for Plain {
    #[inline(always)]
    fn cross(&mut self, _: &Graph, _: u64, _: usize, msg: M, _: &mut u64) -> Option<M> {
        Some(msg)
    }
}

/// The fault filter alone: cut edges, crashed endpoints and i.i.d.
/// drops. A plan with delayed edges always runs [`Latent`] instead (see
/// [`Engine::set_compiled_faults`]).
struct Faulted<'a>(&'a CompiledFaults);

impl<M> Crossing<M> for Faulted<'_> {
    #[inline]
    fn cross(
        &mut self,
        graph: &Graph,
        round: u64,
        dir: usize,
        msg: M,
        dropped: &mut u64,
    ) -> Option<M> {
        if self.0.crossing_delay(graph, round, dir).is_some() {
            Some(msg)
        } else {
            *dropped += 1;
            None
        }
    }
}

/// The latency layer, behind the fault filter when a plan is installed.
/// The plan's per-edge delay folds into the due tick. A delivery due at
/// or before the next round boundary happens now — with the zero model
/// that is *every* unfaulted, undelayed delivery, which keeps this path
/// event-for-event identical to [`Plain`] and [`Faulted`] — and later
/// ones park on the tick heap.
struct Latent<'a, M> {
    lat: &'a mut LatencyState<M>,
    faults: Option<&'a CompiledFaults>,
}

impl<M> Crossing<M> for Latent<'_, M> {
    #[inline]
    fn cross(
        &mut self,
        graph: &Graph,
        round: u64,
        dir: usize,
        msg: M,
        dropped: &mut u64,
    ) -> Option<M> {
        let mut fault_delay = 0u32;
        if let Some(c) = self.faults {
            match c.crossing_delay(graph, round, dir) {
                Some(d) => fault_delay = d,
                None => {
                    *dropped += 1;
                    return None;
                }
            }
        }
        let due = self.lat.crossing_due(round, crate::idx32(dir), fault_delay);
        if due <= round_end_tick(round) {
            self.lat.note_delivered(due);
            Some(msg)
        } else {
            self.lat.park(due, crate::idx32(dir), msg);
            None
        }
    }
}

/// One round's transmission discipline: the CONGEST
/// one-message-per-directed-edge rule (`last_carried` round stamps), the
/// crossing policy `X`, and per-message metrics/observer events. The
/// backlog arena and delivery — which shard's inbox receives the
/// message, the `sink` — are passed in.
struct Transmitter<'a, X> {
    graph: &'a Graph,
    last_carried: &'a mut [u64],
    round: u64,
    crossing: X,
    delivered_msgs: u64,
    delivered_bits: u64,
    dropped_msgs: u64,
    max_backlog_seen: u64,
}

impl<'a, X> Transmitter<'a, X> {
    fn new(graph: &'a Graph, last_carried: &'a mut [u64], round: u64, crossing: X) -> Self {
        Transmitter {
            graph,
            last_carried,
            round,
            crossing,
            delivered_msgs: 0,
            delivered_bits: 0,
            dropped_msgs: 0,
            max_backlog_seen: 0,
        }
    }

    /// The round's crossings: one head per backlogged edge, crossing as
    /// it pops — entitled to this round by construction — then every
    /// fresh send batch in order. Returns the round's flow.
    fn run<'b, M: Payload + 'b, O: TransmitObserver + ?Sized>(
        mut self,
        queues: &mut EdgeQueues<M>,
        fresh: impl Iterator<Item = &'b mut DirBatch<M>>,
        obs: &mut O,
        sink: &mut impl FnMut(NodeId, Port, M),
    ) -> RoundFlow
    where
        X: Crossing<M>,
    {
        queues.pop_heads(|dir, msg| {
            self.last_carried[dir as usize] = self.round;
            self.cross(dir as usize, msg, obs, sink);
        });
        for batch in fresh {
            for (dir, msg) in batch.drain() {
                self.offer(queues, dir as usize, msg, obs, sink);
            }
        }
        RoundFlow {
            messages: self.delivered_msgs,
            bits: self.delivered_bits,
            dropped: self.dropped_msgs,
            max_backlog: self.max_backlog_seen,
        }
    }

    /// Offers a fresh send: crosses directly when the edge is idle this
    /// round, otherwise joins the backlog (FIFO). Joining the backlog
    /// defers the crossing policy's decision to the round the message
    /// actually crosses.
    #[inline]
    fn offer<M: Payload, O: TransmitObserver + ?Sized>(
        &mut self,
        queues: &mut EdgeQueues<M>,
        dir: usize,
        msg: M,
        obs: &mut O,
        sink: &mut impl FnMut(NodeId, Port, M),
    ) where
        X: Crossing<M>,
    {
        if self.last_carried[dir] == self.round {
            let len = queues.push_dir(dir, msg);
            // `+ 1` counts the message that already crossed this round.
            self.max_backlog_seen = self.max_backlog_seen.max(len + 1);
        } else {
            self.last_carried[dir] = self.round;
            self.cross(dir, msg, obs, sink);
        }
    }

    /// One message crossing directed edge `dir` this round, under the
    /// round's policy.
    #[inline]
    fn cross<M: Payload, O: TransmitObserver + ?Sized>(
        &mut self,
        dir: usize,
        msg: M,
        obs: &mut O,
        sink: &mut impl FnMut(NodeId, Port, M),
    ) where
        X: Crossing<M>,
    {
        let (graph, round) = (self.graph, self.round);
        let crossing = &mut self.crossing;
        if let Some(msg) = crossing.cross(graph, round, dir, msg, &mut self.dropped_msgs) {
            self.deliver(dir, msg, obs, sink);
        }
    }

    #[inline]
    fn deliver<M: Payload, O: TransmitObserver + ?Sized>(
        &mut self,
        dir: usize,
        msg: M,
        obs: &mut O,
        sink: &mut impl FnMut(NodeId, Port, M),
    ) {
        let info = self.graph.directed_info(dir);
        let bits = msg.bit_size();
        self.delivered_msgs += 1;
        self.delivered_bits += bits as u64;
        obs.on_transmit(&TransmitEvent {
            round: self.round,
            from: info.src,
            from_port: info.src_port,
            to: info.dst,
            to_port: info.dst_port,
            edge: info.edge,
            bits,
        });
        sink(info.dst, info.dst_port, msg);
    }
}

impl<M: Payload> Transmitter<'_, Latent<'_, M>> {
    /// Releases every parked message due by this round's boundary, in
    /// `(due tick, park order)` order. Arrivals at nodes that crashed in
    /// the meantime are discarded (the destination is gone).
    fn release_due<O: TransmitObserver + ?Sized>(
        &mut self,
        obs: &mut O,
        sink: &mut impl FnMut(NodeId, Port, M),
    ) {
        let horizon = round_end_tick(self.round);
        while let Some(d) = self.crossing.lat.pop_due(horizon) {
            if let Some(c) = self.crossing.faults {
                let dst = self.graph.directed_info(d.dir as usize).dst;
                if c.is_crashed(dst.index(), self.round) {
                    self.dropped_msgs += 1;
                    continue;
                }
            }
            self.crossing.lat.note_delivered(d.due);
            self.deliver(d.dir as usize, d.msg, obs, sink);
        }
    }
}

/// Derives a node's private RNG from the master seed (SplitMix64-style
/// stream separation).
pub(crate) fn node_rng(seed: u64, index: usize) -> StdRng {
    let mut z = seed ^ (index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    StdRng::seed_from_u64(z ^ (z >> 31))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::RecordingObserver;
    use crate::testing::{Echo, FloodMax};
    use welle_graph::gen;

    fn flood_engine(n: usize, seed: u64) -> Engine<FloodMax> {
        let g = Arc::new(gen::ring(n).unwrap());
        let nodes = (0..n).map(|i| FloodMax::new(i as u64)).collect();
        Engine::new(
            g,
            nodes,
            EngineConfig {
                seed,
                bandwidth_bits: None,
            },
        )
    }

    #[test]
    fn flood_max_converges_on_ring() {
        let mut e = flood_engine(10, 1);
        let out = e.run(10_000);
        assert!(out.is_done(), "outcome: {out:?}");
        for node in e.nodes() {
            assert_eq!(node.best(), 9);
        }
        // Round count ~ diameter: information travels one hop per round.
        assert!(out.round() >= 5, "needs at least eccentricity rounds");
        assert!(out.round() <= 20, "{} rounds is too slow", out.round());
    }

    #[test]
    fn determinism_same_seed_same_metrics() {
        let mut a = flood_engine(16, 42);
        let mut b = flood_engine(16, 42);
        a.run(10_000);
        b.run(10_000);
        assert_eq!(a.metrics().messages, b.metrics().messages);
        assert_eq!(a.metrics().bits, b.metrics().bits);
        assert_eq!(a.round(), b.round());
    }

    #[test]
    fn observer_sees_every_message() {
        let mut e = flood_engine(8, 3);
        let mut rec = RecordingObserver::default();
        e.run_observed(10_000, &mut rec);
        assert_eq!(rec.events.len() as u64, e.metrics().messages);
        // Events are ordered by round.
        for w in rec.events.windows(2) {
            assert!(w[0].round <= w[1].round);
        }
    }

    #[test]
    fn one_message_per_edge_per_round() {
        // A node that sends k messages through one port in a single round
        // must have them delivered over k successive rounds.
        struct Burst {
            sent: bool,
        }
        impl Protocol for Burst {
            type Msg = u64;
            fn on_start(&mut self, ctx: &mut Context<'_, u64>) {
                if ctx.degree() == 1 && !self.sent {
                    self.sent = true;
                    for k in 0..5 {
                        ctx.send(Port::new(0), k);
                    }
                }
            }
            fn on_round(&mut self, _ctx: &mut Context<'_, u64>, inbox: &mut Vec<(Port, u64)>) {
                inbox.clear();
            }
        }
        let g = Arc::new(gen::path(2).unwrap());
        let mut e = Engine::new(
            g,
            vec![Burst { sent: false }, Burst { sent: false }],
            EngineConfig::default(),
        );
        let mut rec = RecordingObserver::default();
        e.run_observed(100, &mut rec);
        // Both endpoints burst 5 messages; each direction carries exactly
        // one message per round: rounds 0..=4 have 2 transmissions each.
        assert_eq!(rec.events.len(), 10);
        for r in 0..5u64 {
            assert_eq!(rec.events.iter().filter(|e| e.round == r).count(), 2);
        }
        assert_eq!(e.metrics().max_edge_backlog, 5);
    }

    #[test]
    fn bandwidth_cap_panics_on_oversized_message() {
        struct Big;
        impl Protocol for Big {
            type Msg = u64;
            fn on_start(&mut self, ctx: &mut Context<'_, u64>) {
                ctx.send(Port::new(0), 1);
            }
            fn on_round(&mut self, _: &mut Context<'_, u64>, i: &mut Vec<(Port, u64)>) {
                i.clear();
            }
        }
        let g = Arc::new(gen::path(2).unwrap());
        let mut e = Engine::new(
            g,
            vec![Big, Big],
            EngineConfig {
                seed: 0,
                bandwidth_bits: Some(32), // u64 payload claims 64 bits
            },
        );
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            e.run(10);
        }));
        let payload = result.expect_err("oversized message must panic");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        assert!(msg.contains("CONGEST budget"), "panic message: {msg:?}");
    }

    #[test]
    fn echo_round_trip_and_quiescence() {
        let g = Arc::new(gen::star(5).unwrap());
        let nodes = (0..5).map(|i| Echo::new(i == 1)).collect();
        let mut e = Engine::new(g, nodes, EngineConfig::default());
        let out = e.run(100);
        // Echo never reports done; the run ends quiescent.
        assert!(matches!(out, RunOutcome::Quiescent { .. }));
        // The initiator (leaf 1) pinged the hub and got a reply.
        assert_eq!(e.node(1).replies_received(), 1);
        assert_eq!(e.metrics().messages, 2);
    }

    #[test]
    fn wakeups_skip_idle_rounds_cheaply() {
        struct Sleeper {
            fired: bool,
        }
        impl Protocol for Sleeper {
            type Msg = ();
            fn on_start(&mut self, ctx: &mut Context<'_, ()>) {
                ctx.wake_at(1_000_000);
            }
            fn on_round(&mut self, ctx: &mut Context<'_, ()>, inbox: &mut Vec<(Port, ())>) {
                inbox.clear();
                if ctx.round() >= 1_000_000 {
                    self.fired = true;
                }
            }
            fn is_done(&self) -> bool {
                self.fired
            }
        }
        let g = Arc::new(gen::path(2).unwrap());
        let mut e = Engine::new(
            g,
            vec![Sleeper { fired: false }, Sleeper { fired: false }],
            EngineConfig::default(),
        );
        let out = e.run(2_000_000);
        assert!(out.is_done());
        assert_eq!(out.round(), 1_000_001);
        // Only 2 active rounds (start + wake), despite the huge clock.
        assert!(e.metrics().active_rounds <= 3);
    }

    #[test]
    fn round_limit_respected() {
        let mut e = flood_engine(64, 5);
        let out = e.run(2);
        assert!(matches!(out, RunOutcome::RoundLimit { .. }));
        assert_eq!(e.round(), 2);
        // Resuming the cut run lands where one uninterrupted run does.
        let resumed = e.run(10_000);
        let mut whole = flood_engine(64, 5);
        assert_eq!(whole.run(10_000), resumed);
        assert_eq!(whole.round(), e.round());
        assert_eq!(whole.metrics().messages, e.metrics().messages);
        for (a, b) in whole.nodes().iter().zip(e.nodes()) {
            assert_eq!(a.best(), b.best());
        }
    }

    #[test]
    fn stop_predicate_fires() {
        let mut e = flood_engine(32, 7);
        let out = e.run_until(10_000, |eng| eng.metrics().messages >= 10);
        assert!(matches!(out, RunOutcome::Stopped { .. }));
        assert!(e.metrics().messages >= 10);
    }

    #[test]
    fn signal_reaches_every_node() {
        struct SignalCounter {
            seen: u64,
        }
        impl Protocol for SignalCounter {
            type Msg = ();
            fn on_round(&mut self, _: &mut Context<'_, ()>, i: &mut Vec<(Port, ())>) {
                i.clear();
            }
            fn on_signal(&mut self, _: &mut Context<'_, ()>, s: Signal) {
                self.seen = s;
            }
        }
        let g = Arc::new(gen::ring(4).unwrap());
        let mut e = Engine::new(
            g,
            (0..4).map(|_| SignalCounter { seen: 0 }).collect(),
            EngineConfig::default(),
        );
        e.run(1);
        e.signal(99);
        assert!(e.nodes().iter().all(|n| n.seen == 99));
    }

    #[test]
    fn vacuous_fault_plan_is_bit_identical() {
        use crate::faults::FaultPlan;
        let mut plain = flood_engine(24, 9);
        let mut rec_plain = RecordingObserver::default();
        let out_plain = plain.run_observed(10_000, &mut rec_plain);

        let mut faulty = flood_engine(24, 9);
        faulty.set_fault_plan(&FaultPlan::new(123)).unwrap();
        let mut rec_faulty = RecordingObserver::default();
        let out_faulty = faulty.run_observed(10_000, &mut rec_faulty);

        assert_eq!(out_plain, out_faulty);
        assert_eq!(plain.metrics().messages, faulty.metrics().messages);
        assert_eq!(plain.metrics().bits, faulty.metrics().bits);
        assert_eq!(faulty.metrics().dropped_messages, 0);
        assert_eq!(rec_plain.events, rec_faulty.events);
    }

    #[test]
    fn full_drop_rate_silences_the_network() {
        use crate::faults::FaultPlan;
        let n = 10;
        let mut e = flood_engine(n, 4);
        e.set_fault_plan(&FaultPlan::new(1).drop_rate(1.0)).unwrap();
        let out = e.run(1_000);
        // Every node flooded once at start (and is then done), but
        // nothing arrived: the initial 2n sends were all lost.
        assert!(out.is_done());
        assert_eq!(e.metrics().messages, 0);
        assert_eq!(e.metrics().dropped_messages, 2 * n as u64);
        // Nobody learned anything.
        for (i, node) in e.nodes().iter().enumerate() {
            assert_eq!(node.best(), i as u64);
        }
    }

    #[test]
    fn crashed_node_neither_sends_nor_receives() {
        use crate::faults::FaultPlan;
        use crate::testing::BfsWave;
        // Path 0 - 1 - 2 with the middle node crashed from the start:
        // the wave from 0 can never reach 2.
        let g = Arc::new(gen::path(3).unwrap());
        let nodes = (0..3).map(|i| BfsWave::new(i == 0)).collect();
        let mut e = Engine::new(g, nodes, EngineConfig::default());
        e.set_fault_plan(&FaultPlan::new(0).crash(1, 0)).unwrap();
        let out = e.run(1_000);
        assert!(matches!(out, RunOutcome::Quiescent { .. }));
        assert_eq!(e.node(0).level(), Some(0));
        assert_eq!(e.node(1).level(), None, "crashed nodes execute nothing");
        assert_eq!(e.node(2).level(), None, "the wave cannot cross a crash");
        assert_eq!(e.metrics().crashed_nodes, 1);
        assert!(e.metrics().dropped_messages >= 1);
    }

    #[test]
    fn mid_run_crash_halts_a_node() {
        use crate::faults::FaultPlan;
        use crate::testing::BfsWave;
        // The wave reaches node 1 at round 1 and node 2 at round 2; a
        // crash of node 2 at round 2 arrives exactly with the wave, so
        // node 2 stays at level None while node 1 finished normally.
        let g = Arc::new(gen::path(3).unwrap());
        let nodes = (0..3).map(|i| BfsWave::new(i == 0)).collect();
        let mut e = Engine::new(g, nodes, EngineConfig::default());
        e.set_fault_plan(&FaultPlan::new(0).crash(2, 2)).unwrap();
        e.run(1_000);
        assert_eq!(e.node(1).level(), Some(1));
        assert_eq!(e.node(2).level(), None);
    }

    #[test]
    fn delayed_edges_shift_arrival_rounds() {
        use crate::faults::FaultPlan;
        let g = Arc::new(gen::path(2).unwrap());
        let nodes = vec![Echo::new(true), Echo::new(false)];
        let mut e = Engine::new(g, nodes, EngineConfig::default());
        e.set_fault_plan(&FaultPlan::new(0).delay_all(3)).unwrap();
        let mut rec = RecordingObserver::default();
        let out = e.run_observed(1_000, &mut rec);
        // Ping crosses at round 0 and is released at round 3; the pong
        // (sent on processing it at round 4) is released at round 7.
        // The delay buffer counts as in-flight, so the run cannot
        // quiesce while messages are parked.
        assert!(matches!(out, RunOutcome::Quiescent { .. }));
        assert_eq!(e.node(0).replies_received(), 1);
        let rounds: Vec<u64> = rec.events.iter().map(|ev| ev.round).collect();
        assert_eq!(rounds, vec![3, 7]);
        assert_eq!(e.metrics().messages, 2);
        assert_eq!(e.metrics().dropped_messages, 0);
    }

    #[test]
    fn long_delays_skip_idle_stretches_cheaply() {
        use crate::faults::FaultPlan;
        // A 1000-round link delay must not cost 1000 empty simulated
        // rounds: when only parked messages remain, the engine jumps to
        // the next release in O(1), exactly like the wake-up skip.
        let g = Arc::new(gen::path(2).unwrap());
        let nodes = vec![Echo::new(true), Echo::new(false)];
        let mut e = Engine::new(g, nodes, EngineConfig::default());
        e.set_fault_plan(&FaultPlan::new(0).delay_all(1000))
            .unwrap();
        let out = e.run(100_000);
        assert!(matches!(out, RunOutcome::Quiescent { .. }));
        assert_eq!(e.node(0).replies_received(), 1);
        assert!(out.round() >= 2001, "two 1000-round hops: {}", out.round());
        assert!(
            e.metrics().active_rounds <= 5,
            "idle stretches must be skipped, got {} active rounds",
            e.metrics().active_rounds
        );
    }

    #[test]
    fn cut_edge_stops_all_later_traffic() {
        use crate::faults::FaultPlan;
        let g = Arc::new(gen::path(3).unwrap());
        let nodes = (0..3).map(|i| FloodMax::new(i as u64)).collect();
        let mut e = Engine::new(g, nodes, EngineConfig::default());
        e.set_fault_plan(&FaultPlan::new(0).cut(1, 2, 0)).unwrap();
        e.run(1_000);
        // 2 is the max id, but its edge to 1 is gone from round 0.
        assert_eq!(e.node(0).best(), 1);
        assert_eq!(e.node(1).best(), 1);
        assert_eq!(e.node(2).best(), 2);
        assert!(e.metrics().dropped_messages >= 1);
    }

    #[test]
    fn reset_engine_is_bit_identical_to_fresh() {
        // Run once (dirtying every piece of state, including fault
        // structures and edge backlog), reset, run again: the second run
        // must match a never-used engine exactly.
        use crate::faults::FaultPlan;
        let g = Arc::new(gen::ring(16).unwrap());
        let cfg = EngineConfig {
            seed: 21,
            bandwidth_bits: None,
        };
        let mk = |i: usize| FloodMax::new(i as u64);
        let mut pooled = Engine::from_fn(Arc::clone(&g), cfg, mk);
        pooled
            .set_fault_plan(&FaultPlan::new(7).drop_rate(0.3))
            .unwrap();
        pooled.run(10_000);

        // Reset onto a *different* graph and seed.
        let g2 = Arc::new(gen::star(9).unwrap());
        let cfg2 = EngineConfig {
            seed: 4,
            bandwidth_bits: None,
        };
        pooled.reset_with(Arc::clone(&g2), cfg2, mk);
        let mut rec_pooled = RecordingObserver::default();
        let out_pooled = pooled.run_observed(10_000, &mut rec_pooled);

        let mut fresh = Engine::from_fn(g2, cfg2, mk);
        let mut rec_fresh = RecordingObserver::default();
        let out_fresh = fresh.run_observed(10_000, &mut rec_fresh);

        assert_eq!(out_pooled, out_fresh);
        assert_eq!(pooled.metrics().messages, fresh.metrics().messages);
        assert_eq!(pooled.metrics().bits, fresh.metrics().bits);
        assert_eq!(pooled.metrics().dropped_messages, 0);
        assert_eq!(rec_pooled.events, rec_fresh.events);
        for (a, b) in pooled.nodes().iter().zip(fresh.nodes()) {
            assert_eq!(a.best(), b.best());
        }
    }

    #[test]
    fn reset_keeps_the_arenas() {
        // A bursty protocol forces the edge-queue arena to grow; a reset
        // must keep that capacity instead of re-allocating per trial.
        struct Burst;
        impl Protocol for Burst {
            type Msg = u64;
            fn on_start(&mut self, ctx: &mut Context<'_, u64>) {
                for k in 0..8 {
                    ctx.send(Port::new(0), k);
                }
            }
            fn on_round(&mut self, _: &mut Context<'_, u64>, i: &mut Vec<(Port, u64)>) {
                i.clear();
            }
        }
        let g = Arc::new(gen::path(2).unwrap());
        let mut e = Engine::from_fn(Arc::clone(&g), EngineConfig::default(), |_| Burst);
        e.run(100);
        let grown = e.arena_capacity();
        assert!(grown > 0, "the burst must have grown the arena");
        e.reset_with(g, EngineConfig::default(), |_| Burst);
        assert_eq!(e.arena_capacity(), grown, "reset must not shed capacity");
        e.run(100);
        assert_eq!(e.arena_capacity(), grown, "warm rerun must not re-allocate");
    }

    #[test]
    fn node_rng_streams_differ() {
        use rand::RngExt;
        let mut a = node_rng(1, 0);
        let mut b = node_rng(1, 1);
        let va: u64 = a.random();
        let vb: u64 = b.random();
        assert_ne!(va, vb);
    }

    /// An engine with the latency layer installed.
    fn latent<P: Protocol>(
        g: Arc<Graph>,
        cfg: EngineConfig,
        model: LatencyModel,
        make: impl FnMut(usize) -> P,
    ) -> Engine<P> {
        let mut e = Engine::from_fn(g, cfg, make);
        e.set_latency(model).unwrap();
        e
    }

    fn flood_async(n: usize, seed: u64, model: LatencyModel) -> Engine<FloodMax> {
        let g = Arc::new(gen::ring(n).unwrap());
        latent(
            g,
            EngineConfig {
                seed,
                bandwidth_bits: None,
            },
            model,
            |i| FloodMax::new(i as u64),
        )
    }

    #[test]
    fn zero_latency_event_stream_matches_the_round_engine() {
        let g = Arc::new(gen::torus2d(4, 5).unwrap());
        let mk = |i: usize| FloodMax::new((i as u64 * 7919) % 101);
        let cfg = EngineConfig::default();
        let mut sync = Engine::from_fn(Arc::clone(&g), cfg, mk);
        let mut async_ = latent(Arc::clone(&g), cfg, LatencyModel::zero(), mk);
        let mut obs_a = RecordingObserver::default();
        let mut obs_b = RecordingObserver::default();
        let out_a = sync.run_observed(10_000, &mut obs_a);
        let out_b = async_.run_observed(10_000, &mut obs_b);
        assert_eq!(out_a, out_b);
        assert_eq!(obs_a.events, obs_b.events, "event-for-event equivalence");
        assert_eq!(sync.metrics(), async_.metrics());
        assert_eq!(async_.virtual_time(), async_.round() as f64);
    }

    #[test]
    fn fixed_latency_shifts_arrival_rounds() {
        // One ping down a path edge under 3 extra rounds of latency:
        // the crossing at round 0 lands at round 3 (observer view), the
        // pong's crossing at round 4 lands at round 7 — the same
        // timeline the fault layer's delay-3 plan produces.
        let g = Arc::new(gen::path(2).unwrap());
        let mut e = latent(
            Arc::clone(&g),
            EngineConfig::default(),
            LatencyModel::fixed(3.0),
            |i| Echo::new(i == 0),
        );
        let mut obs = RecordingObserver::default();
        let out = e.run_observed(1_000, &mut obs);
        let rounds: Vec<u64> = obs.events.iter().map(|ev| ev.round).collect();
        assert_eq!(rounds, vec![3, 7], "outcome: {out:?}");
        assert_eq!(e.node(0).replies_received(), 1);
        // The pong completed service at round 8 and was processed in
        // round 8's protocol phase; the clock then reads 9.
        assert!(e.virtual_time() >= 8.0);
        assert_eq!(e.virtual_time(), e.round() as f64);
    }

    #[test]
    fn termination_never_outruns_a_parked_event() {
        // A single ping with 50 rounds of latency: the run must stay
        // alive (in-flight > 0) until the event lands, then finish —
        // without stepping the idle stretch round by round.
        let g = Arc::new(gen::path(2).unwrap());
        let mut e = latent(
            Arc::clone(&g),
            EngineConfig::default(),
            LatencyModel::fixed(50.0),
            |i| Echo::new(i == 0),
        );
        let out = e.run(10_000);
        // Echo nodes never report done; the run ends quiescent only
        // after both the ping (released round 50) and the pong
        // (released round 101) have landed — never before.
        assert!(matches!(out, RunOutcome::Quiescent { .. }), "{out:?}");
        assert!(out.round() >= 101, "round {}", out.round());
        assert_eq!(e.in_flight(), 0);
        assert_eq!(e.node(0).replies_received(), 1);
        assert!(
            e.metrics().active_rounds <= 6,
            "idle stretches must be skipped, not stepped: {}",
            e.metrics().active_rounds
        );
    }

    #[test]
    fn simultaneous_events_release_in_crossing_order() {
        // All first-round floods share one due tick under a fixed
        // model; release must preserve the crossing (seq) order, which
        // is the round engine's delivery order for the same round.
        let model = LatencyModel::fixed(2.0);
        let mut a = flood_async(12, 3, model);
        let mut b = flood_async(12, 3, model);
        let mut obs_a = RecordingObserver::default();
        let mut obs_b = RecordingObserver::default();
        a.run_observed(10_000, &mut obs_a);
        b.run_observed(10_000, &mut obs_b);
        assert_eq!(obs_a.events, obs_b.events, "deterministic release order");
        // Same-round releases arrive in ascending crossing order: the
        // observer stream is sorted by round, and within a round matches
        // the zero-latency crossing order of that round's batch.
        let mut prev_round = 0;
        for ev in &obs_a.events {
            assert!(ev.round >= prev_round, "releases sorted by round");
            prev_round = ev.round;
        }
    }

    #[test]
    fn per_edge_fifo_is_preserved_under_equal_latencies() {
        // FloodMax on a ring improves repeatedly: the same directed
        // edge carries several messages over the run. Under a uniform
        // positive latency all its crossings get distinct due ticks in
        // crossing order (ticks grow with the round), so arrivals on
        // one edge must be in crossing order — FIFO per edge.
        let mut e = flood_async(16, 9, LatencyModel::fixed(1.25));
        let mut obs = RecordingObserver::default();
        let out = e.run_observed(10_000, &mut obs);
        assert!(out.is_done(), "{out:?}");
        use std::collections::HashMap;
        // Each later crossing of a directed edge gets a strictly larger
        // due tick, so its arrival round must never precede an earlier
        // crossing's — FIFO per edge.
        let mut last_round: HashMap<(u32, u32), u64> = HashMap::new();
        for ev in &obs.events {
            let key = (ev.from.raw(), ev.to.raw());
            if let Some(&prev) = last_round.get(&key) {
                assert!(prev <= ev.round, "edge {key:?} reordered");
            }
            last_round.insert(key, ev.round);
        }
        // Everyone converged despite the latency.
        assert!(e.nodes().iter().all(|n| n.best() == 15));
    }

    #[test]
    fn nonzero_latency_is_deterministic_across_repeats() {
        for model in [
            LatencyModel::uniform(0.0, 2.0).seed(11),
            LatencyModel::log_normal(0.0, 0.75).seed(12),
            LatencyModel::fixed(0.5).service_rate(0.25),
        ] {
            let mut a = flood_async(20, 5, model);
            let mut b = flood_async(20, 5, model);
            let mut obs_a = RecordingObserver::default();
            let mut obs_b = RecordingObserver::default();
            let out_a = a.run_observed(100_000, &mut obs_a);
            let out_b = b.run_observed(100_000, &mut obs_b);
            assert_eq!(out_a, out_b);
            assert_eq!(obs_a.events, obs_b.events);
            assert_eq!(a.metrics(), b.metrics());
            assert_eq!(a.virtual_time(), b.virtual_time());
        }
    }

    #[test]
    fn service_rate_congestion_stretches_virtual_time() {
        // Rate 0.25: every crossing occupies its edge for 4 rounds.
        // FloodMax floods every edge at start-up, so the run's virtual
        // span must stretch well past the zero-model run's.
        let mut fast = flood_async(16, 2, LatencyModel::zero());
        let mut slow = flood_async(16, 2, LatencyModel::zero().service_rate(0.25));
        fast.run(100_000);
        slow.run(100_000);
        assert!(
            slow.virtual_time() >= fast.virtual_time() * 2.0,
            "slow {} vs fast {}",
            slow.virtual_time(),
            fast.virtual_time()
        );
        // Congestion reorders nothing fatal: everyone still converges.
        assert!(slow.nodes().iter().all(|n| n.best() == 15));
    }

    #[test]
    fn faults_compose_with_latency_at_the_crossing() {
        // Cut the only edge at round 0: nothing is ever delivered, and
        // the drop is counted — same as the round engine.
        let g = Arc::new(gen::path(2).unwrap());
        let mut e = latent(
            Arc::clone(&g),
            EngineConfig::default(),
            LatencyModel::fixed(2.0),
            |i| Echo::new(i == 0),
        );
        e.set_fault_plan(&FaultPlan::new(0).cut(0, 1, 0)).unwrap();
        let out = e.run(1_000);
        assert!(matches!(out, RunOutcome::Quiescent { .. }), "{out:?}");
        assert_eq!(e.metrics().messages, 0);
        assert_eq!(e.metrics().dropped_messages, 1);
        assert_eq!(e.node(0).replies_received(), 0);
    }

    #[test]
    fn fault_delay_folds_into_the_tick_heap() {
        // delay_all(3) under the zero model reproduces the round
        // engine's delayed-echo timeline: arrivals at rounds 3 and 7.
        let g = Arc::new(gen::path(2).unwrap());
        let mut e = latent(
            Arc::clone(&g),
            EngineConfig::default(),
            LatencyModel::zero(),
            |i| Echo::new(i == 0),
        );
        e.set_fault_plan(&FaultPlan::new(0).delay_all(3)).unwrap();
        let mut obs = RecordingObserver::default();
        e.run_observed(1_000, &mut obs);
        let rounds: Vec<u64> = obs.events.iter().map(|ev| ev.round).collect();
        assert_eq!(rounds, vec![3, 7]);
        assert_eq!(e.node(0).replies_received(), 1);
    }

    #[test]
    fn set_latency_rejects_a_bad_model_and_keeps_the_engine() {
        let mut e = flood_engine(8, 1);
        assert_eq!(
            e.set_latency(LatencyModel::fixed(-1.0)),
            Err(LatencyError::BadFixed(-1.0))
        );
        assert!(e.wire.latency.is_none());
        assert!(e.run(1_000).is_done());
        assert_eq!(e.virtual_time(), e.round() as f64);
    }
}
