//! The sharded run loop of [`Engine`]: each round's protocol phase on
//! worker threads, with results bit-identical to the inline loop.
//!
//! A run on more than one thread (see [`Engine::set_threads`]) splits
//! the engine's one shard of per-node state into contiguous node shards,
//! one per worker thread, and joins them back when the run ends. Workers
//! are spawned **once per run** and parked on a shared round barrier.
//! Each parallel round costs two barrier crossings — the engine's own
//! protocol phase, run on every shard at once, then a serial merge +
//! transmit phase on the driving thread.
//!
//! Rounds whose protocol phase is too sparse to amortize a barrier
//! crossing run inline on the driving thread (see
//! [`Engine::set_inline_cutoff`]); on single-core hosts, where the
//! barrier can never pay off, whole runs stay inline. All paths execute
//! the same algorithm in the same order: leader identities, message
//! counts, and metrics are bit-identical across thread counts, for
//! protocols that honour the [`crate::Protocol`] no-op contract.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Barrier, Mutex, MutexGuard, PoisonError};

use crate::engine::{CallKind, Engine, PhaseEnv, RunOutcome, Shard};
use crate::metrics::TransmitObserver;
use crate::protocol::Protocol;
use crate::telemetry::SpanStage;

/// Worker command: simulate one round (`on_round` phase).
const CMD_ROUND: u8 = 0;
/// Worker command: run the start-up round (`on_start` phase).
const CMD_START: u8 = 1;
/// Worker command: leave the worker loop (end of the run call).
const CMD_EXIT: u8 = 2;

/// Default per-shard callback-count cutoff below which a round's
/// protocol phase runs inline on the driving thread: two barrier
/// crossings cost more than a few dozen cheap callbacks, so sparse
/// rounds (drain tails, wake-up ticks) skip the hand-off and the
/// workers stay parked.
const INLINE_WORK_PER_SHARD: usize = 64;

/// The inline cutoff of a run on several threads when none was set.
/// A machine with a single hardware thread gains nothing from handing
/// work to workers, so whole runs stay inline there. Only a run asks
/// the host, so building or resetting an engine never does.
fn default_inline_cutoff() -> usize {
    match std::thread::available_parallelism() {
        Ok(p) if p.get() > 1 => INLINE_WORK_PER_SHARD,
        _ => usize::MAX,
    }
}

/// Aggregates the driving thread reads from the shards before each
/// round.
struct RoundAgg {
    /// Whether every shard is idle (see [`Shard::idle`]).
    idle: bool,
    /// Nodes with a nonempty inbox, across shards.
    inbox_total: usize,
    done_total: usize,
    min_wake: Option<u64>,
    /// Total pending wake-up entries across shards (due or not).
    wake_entries: usize,
}

impl RoundAgg {
    fn of<'a, P: Protocol + 'a>(shards: impl IntoIterator<Item = &'a Shard<P>>) -> Self {
        let mut agg = RoundAgg {
            idle: true,
            inbox_total: 0,
            done_total: 0,
            min_wake: None,
            wake_entries: 0,
        };
        for s in shards {
            agg.idle &= s.idle();
            agg.inbox_total += s.active.len();
            agg.done_total += s.done_count;
            agg.min_wake = agg.min_wake.into_iter().chain(s.next_wake()).min();
            agg.wake_entries += s.wakeups.len();
        }
        agg
    }
}

/// Locks a shard, recovering from poison: a worker panic is already
/// captured and re-raised on the driving thread, so the flag adds
/// nothing.
fn lock<T>(cell: &Mutex<T>) -> MutexGuard<'_, T> {
    cell.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Releases barrier-parked workers if the driving thread unwinds
/// mid-run (e.g. an observer panic in the merge phase): every worker
/// is parked on the round barrier between rounds, so one `EXIT` + wait
/// lets them all leave before `thread::scope` joins.
struct ExitGuard<'a> {
    cmd: &'a AtomicU8,
    barrier: &'a Barrier,
}

impl Drop for ExitGuard<'_> {
    fn drop(&mut self) {
        self.cmd.store(CMD_EXIT, Ordering::SeqCst);
        self.barrier.wait();
    }
}

/// Joins a sharded run's shards back into its engine when the run ends
/// — normally or by a panic re-raised from a worker or an observer — so
/// a caught panic does not also lose the nodes.
struct Rejoin<'a, P: Protocol> {
    engine: &'a mut Engine<P>,
    cells: Vec<Mutex<Shard<P>>>,
}

impl<P: Protocol> Drop for Rejoin<'_, P> {
    fn drop(&mut self) {
        let cells = std::mem::take(&mut self.cells);
        let mut shards: Vec<Shard<P>> = cells
            .into_iter()
            .map(|c| c.into_inner().unwrap_or_else(PoisonError::into_inner))
            .collect();
        if std::thread::panicking() {
            // The panic cut a round short: fold what its phase tallied
            // and drop its untransmitted sends.
            let engine = &mut *self.engine;
            for s in &mut shards {
                s.take_tally(&mut engine.metrics.sent_by_node, &mut engine.phase_seen);
                s.outbox.clear();
            }
        }
        self.engine.shard = Shard::join(shards);
    }
}

impl<P: Protocol> Engine<P> {
    /// Runs the protocol phase of later [`Engine::run`] and
    /// [`Engine::run_observed`] calls on `threads` worker threads
    /// (default 1: inline on the calling thread). A run splits the nodes
    /// into `threads` contiguous shards, one per worker; transmission
    /// stays on the calling thread. Results are bit-identical for every
    /// count, so this is purely a scheduling knob. Signals and
    /// [`Engine::run_until`] always run inline.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn set_threads(&mut self, threads: usize) {
        assert!(threads > 0, "need at least one worker thread");
        self.threads = threads;
    }

    /// Overrides the per-shard callback-count cutoff below which a
    /// round's protocol phase runs inline on the driving thread instead
    /// of crossing the round barrier. `0` forces every round through the
    /// workers; `usize::MAX` keeps whole runs inline. The default is
    /// tuned automatically (and is `usize::MAX` on single-core hosts,
    /// where the barrier can never pay off). Execution results are
    /// identical either way — this is purely a scheduling knob.
    pub fn set_inline_cutoff(&mut self, per_shard: usize) {
        self.inline_cutoff = Some(per_shard);
    }

    /// The run loop of [`Engine::run`] and [`Engine::run_observed`]. A
    /// run on one thread, or with whole runs kept inline, is the inline
    /// loop (same state, same algorithm); otherwise the engine's shard
    /// is split, workers are spawned once, and rounds are driven over
    /// the barrier until the run ends and the shards are joined back.
    pub(crate) fn run_core<O: TransmitObserver + ?Sized>(
        &mut self,
        round_limit: u64,
        obs: &mut O,
    ) -> RunOutcome {
        let cutoff = if self.threads == 1 {
            usize::MAX
        } else {
            self.inline_cutoff.unwrap_or_else(default_inline_cutoff)
        };
        if cutoff == usize::MAX {
            return self.run_inline(round_limit, obs, |_| false);
        }
        let shard_len = self.graph.n().div_ceil(self.threads).max(1);
        let shards = std::mem::take(&mut self.shard).split(shard_len);
        let agg = RoundAgg::of(&shards);
        let cells = shards.into_iter().map(Mutex::new).collect();
        let run = Rejoin {
            engine: self,
            cells,
        };
        run.engine
            .run_sharded(&run.cells, round_limit, obs, agg, cutoff)
    }

    /// Barrier-driven run loop over the shards, with the inline cutoff
    /// of [`Engine::set_inline_cutoff`].
    fn run_sharded<O: TransmitObserver + ?Sized>(
        &mut self,
        cells: &[Mutex<Shard<P>>],
        round_limit: u64,
        obs: &mut O,
        mut agg: RoundAgg,
        cutoff: usize,
    ) -> RunOutcome {
        let n = self.graph.n();
        let barrier = Barrier::new(cells.len() + 1);
        let cmd = AtomicU8::new(CMD_ROUND);
        let round_now = AtomicU64::new(self.round);
        // A worker panic is caught so the barrier protocol stays intact,
        // its payload parked here, and re-raised on the driving thread —
        // the original message (e.g. a CONGEST-budget assert from
        // `Context::send`) must not be lost.
        let panicked: Mutex<Option<Box<dyn Any + Send>>> = Mutex::new(None);
        let graph = Arc::clone(&self.graph);
        let compiled = self.compiled_faults();
        let env = PhaseEnv {
            graph: &graph,
            budget: self.cfg.bandwidth_bits,
            faults: compiled.as_deref(),
        };

        std::thread::scope(|scope| {
            for cell in cells {
                let (barrier, cmd, round_now, panicked, env) =
                    (&barrier, &cmd, &round_now, &panicked, &env);
                scope.spawn(move || loop {
                    barrier.wait();
                    let c = cmd.load(Ordering::SeqCst);
                    if c == CMD_EXIT {
                        break;
                    }
                    let r = round_now.load(Ordering::SeqCst);
                    let kind = if c == CMD_START {
                        CallKind::Start
                    } else {
                        CallKind::Round
                    };
                    let result = catch_unwind(AssertUnwindSafe(|| {
                        lock(cell).run_phase(env, r, kind);
                    }));
                    if let Err(payload) = result {
                        *lock(panicked) = Some(payload);
                    }
                    barrier.wait();
                });
            }

            // Sends EXIT + one barrier crossing when the loop below ends
            // — normally or by unwinding — so workers always get
            // released before `thread::scope` joins them.
            let _exit = ExitGuard {
                cmd: &cmd,
                barrier: &barrier,
            };
            loop {
                let (idle, done, wake) = (agg.idle, agg.done_total, agg.min_wake);
                if let Some(out) = self.check_stop(idle, done, wake, round_limit) {
                    break out;
                }
                let kind = self.next_phase();
                let starting = matches!(kind, CallKind::Start);
                let t_round = self
                    .telemetry
                    .as_deref_mut()
                    .and_then(|t| t.begin(SpanStage::Round));
                // From the coordinator's view the callback span covers
                // the whole protocol phase — barrier crossings included.
                let t_cb = self
                    .telemetry
                    .as_deref_mut()
                    .and_then(|t| t.begin(SpanStage::Callbacks));
                // Upper bound on the callbacks this round will run.
                let work = if starting {
                    n
                } else {
                    agg.inbox_total
                        + if agg.min_wake.is_some_and(|r| r <= self.round) {
                            agg.wake_entries
                        } else {
                            0
                        }
                };
                let inline = work <= cutoff.saturating_mul(cells.len());
                if !inline {
                    cmd.store(
                        if starting { CMD_START } else { CMD_ROUND },
                        Ordering::SeqCst,
                    );
                    round_now.store(self.round, Ordering::SeqCst);
                    barrier.wait(); // workers run the protocol phase
                    barrier.wait(); // workers finished
                    if let Some(payload) = lock(&panicked).take() {
                        resume_unwind(payload);
                    }
                }
                let mut guards: Vec<_> = cells.iter().map(lock).collect();
                if inline {
                    // Sparse round: run the phase inline, workers stay
                    // parked on the barrier. Same code path, same order.
                    for guard in guards.iter_mut() {
                        guard.run_phase(&env, self.round, kind);
                    }
                }
                agg = self.merge_and_transmit(&mut guards, obs, t_cb, t_round);
            }
        })
    }

    /// The serial half of a round: fold every shard's tallies into the
    /// engine, transmit through its wire — the backlog, then every
    /// shard's sends in shard (= node) order (determinism) into shard
    /// inboxes — close the round, and collect the aggregates.
    fn merge_and_transmit<O: TransmitObserver + ?Sized>(
        &mut self,
        shards: &mut [MutexGuard<'_, Shard<P>>],
        obs: &mut O,
        t_cb: Option<std::time::Instant>,
        t_round: Option<std::time::Instant>,
    ) -> RoundAgg {
        let (mut ran, mut callbacks_run) = (false, 0);
        let mut outboxes = Vec::with_capacity(shards.len());
        for shard in shards.iter_mut() {
            let (r, c) = shard.take_tally(&mut self.metrics.sent_by_node, &mut self.phase_seen);
            ran |= r;
            callbacks_run += c;
            outboxes.push(std::mem::take(&mut shard.outbox));
        }
        let mut tel = self.telemetry.take();
        if let Some(t) = tel.as_deref_mut() {
            t.end(SpanStage::Callbacks, t_cb, callbacks_run);
        }

        let shard_len = shards[0].nodes.len().max(1);
        let (flow, transmitted) = {
            let mut views: Vec<&mut Shard<P>> = shards.iter_mut().map(|s| &mut **s).collect();
            self.wire.transmit(
                &self.graph,
                self.round,
                &mut outboxes,
                tel.as_deref_mut(),
                obs,
                &mut |v, q, msg| {
                    let shard = &mut *views[v.index() / shard_len];
                    shard.deliver(v.index() - shard.base, q, msg);
                },
            )
        };
        for (shard, outbox) in shards.iter_mut().zip(outboxes) {
            shard.outbox = outbox; // recycle the allocation
        }
        self.close_round(tel, ran || transmitted, callbacks_run, &flow, t_round);
        RoundAgg::of(shards.iter().map(|s| &**s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use crate::faults::FaultPlan;
    use crate::latency::LatencyModel;
    use crate::metrics::RecordingObserver;
    use crate::testing::FloodMax;
    use rand::SeedableRng;
    use welle_graph::{gen, Graph};

    fn graph() -> Arc<Graph> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        Arc::new(gen::random_regular(48, 4, &mut rng).unwrap())
    }

    /// An engine over `nodes` that runs on `threads` worker threads.
    fn sharded<P: Protocol>(
        g: &Arc<Graph>,
        nodes: Vec<P>,
        cfg: EngineConfig,
        threads: usize,
    ) -> Engine<P> {
        let mut e = Engine::new(Arc::clone(g), nodes, cfg);
        e.set_threads(threads);
        e
    }

    #[test]
    fn matches_serial_engine_exactly() {
        let g = graph();
        let cfg = EngineConfig {
            seed: 99,
            bandwidth_bits: None,
        };
        let mk = |_: usize| -> Vec<FloodMax> {
            (0..g.n())
                .map(|i| FloodMax::new((i * 7 % 48) as u64))
                .collect()
        };
        let mut serial = Engine::new(Arc::clone(&g), mk(0), cfg);
        let serial_out = serial.run(100_000);

        for threads in [1usize, 3, 8] {
            let mut par = sharded(&g, mk(0), cfg, threads);
            let par_out = par.run(100_000);
            assert_eq!(serial_out.is_done(), par_out.is_done());
            assert_eq!(serial.metrics().messages, par.metrics().messages);
            assert_eq!(serial.metrics().bits, par.metrics().bits);
            for (a, b) in serial.nodes().iter().zip(par.nodes()) {
                assert_eq!(a.best(), b.best());
            }
        }
    }

    #[test]
    fn flood_converges_with_threads() {
        let g = graph();
        let nodes = (0..g.n()).map(|i| FloodMax::new(i as u64)).collect();
        let mut e = sharded(&g, nodes, EngineConfig::default(), 4);
        let out = e.run(10_000);
        assert!(out.is_done());
        assert!(e.nodes().iter().all(|n| n.best() == 47));
    }

    #[test]
    fn single_thread_equals_multi() {
        let g = graph();
        let cfg = EngineConfig::default();
        let mk = || (0..g.n()).map(|i| FloodMax::new(i as u64)).collect();
        let mut one = sharded(&g, mk(), cfg, 1);
        let mut many = sharded(&g, mk(), cfg, 6);
        one.run(10_000);
        many.run(10_000);
        assert_eq!(one.metrics().messages, many.metrics().messages);
        assert_eq!(one.round(), many.round());
    }

    #[test]
    fn barrier_path_matches_serial_engine() {
        // Force every round through the workers (cutoff 0), whatever the
        // host's core count, so the barrier path is always exercised.
        let g = graph();
        let cfg = EngineConfig {
            seed: 7,
            bandwidth_bits: None,
        };
        let mk = || {
            (0..g.n())
                .map(|i| FloodMax::new(i as u64))
                .collect::<Vec<_>>()
        };
        let mut serial = Engine::new(Arc::clone(&g), mk(), cfg);
        serial.run(100_000);
        for threads in [2usize, 5] {
            let mut par = sharded(&g, mk(), cfg, threads);
            par.set_inline_cutoff(0);
            let out = par.run(100_000);
            assert!(out.is_done());
            assert_eq!(serial.metrics().messages, par.metrics().messages);
            assert_eq!(serial.round(), par.round());
            for (a, b) in serial.nodes().iter().zip(par.nodes()) {
                assert_eq!(a.best(), b.best());
            }
        }
    }

    #[test]
    fn worker_panic_payload_reaches_the_driver() {
        use crate::protocol::Context;
        use welle_graph::Port;

        struct Oversized;
        impl Protocol for Oversized {
            type Msg = u64;
            fn on_start(&mut self, ctx: &mut Context<'_, u64>) {
                ctx.send(Port::new(0), 1); // u64 claims 64 bits
            }
            fn on_round(&mut self, _: &mut Context<'_, u64>, i: &mut Vec<(Port, u64)>) {
                i.clear();
            }
        }
        let g = graph();
        let cfg = EngineConfig {
            seed: 0,
            bandwidth_bits: Some(32),
        };
        let mut e = sharded(&g, (0..g.n()).map(|_| Oversized).collect(), cfg, 2);
        e.set_inline_cutoff(0); // force the barrier path
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            e.run(10);
        }));
        let payload = result.expect_err("oversized message must panic");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        assert!(
            msg.contains("CONGEST budget"),
            "original panic message must survive the worker hand-off, got: {msg:?}"
        );
        assert_eq!(e.nodes().len(), g.n(), "the shards must rejoin the engine");
    }

    #[test]
    fn faulty_runs_are_bit_identical_across_executors() {
        // Drops, crashes, delays, and cuts all live in shared engine
        // state or stateless hashes, so a faulted execution must agree
        // across thread counts exactly like a clean one — including
        // down the forced barrier path.
        let g = graph();
        let cfg = EngineConfig {
            seed: 4,
            bandwidth_bits: None,
        };
        let plan = FaultPlan::new(77)
            .drop_rate(0.3)
            .crash(5, 4)
            .crash_fraction(0.1, 9)
            .delay_all(1)
            .random_delays(2)
            .cut_fraction(0.05, 6);
        let mk = || {
            (0..g.n())
                .map(|i| FloodMax::new(i as u64))
                .collect::<Vec<_>>()
        };
        let mut serial = Engine::new(Arc::clone(&g), mk(), cfg);
        serial.set_fault_plan(&plan).unwrap();
        let serial_out = serial.run(100_000);
        for threads in [1usize, 3, 8] {
            let mut par = sharded(&g, mk(), cfg, threads);
            par.set_fault_plan(&plan).unwrap();
            par.set_inline_cutoff(0); // force the barrier path
            let par_out = par.run(100_000);
            assert_eq!(serial_out, par_out, "threads = {threads}");
            assert_eq!(serial.metrics().messages, par.metrics().messages);
            assert_eq!(serial.metrics().bits, par.metrics().bits);
            assert_eq!(
                serial.metrics().dropped_messages,
                par.metrics().dropped_messages
            );
            assert_eq!(serial.metrics().crashed_nodes, par.metrics().crashed_nodes);
            for (a, b) in serial.nodes().iter().zip(par.nodes()) {
                assert_eq!(a.best(), b.best());
            }
        }
        assert!(
            serial.metrics().dropped_messages > 0,
            "the plan must actually have bitten for this test to mean anything"
        );
    }

    #[test]
    fn delay_skip_matches_serial_engine() {
        use crate::testing::Echo;
        // The only-parked-messages idle skip must agree across run
        // loops: same final round, same active-round count.
        let g = Arc::new(gen::path(2).unwrap());
        let cfg = EngineConfig::default();
        let plan = FaultPlan::new(0).delay_all(700);
        let mk = || vec![Echo::new(true), Echo::new(false)];
        let mut serial = Engine::new(Arc::clone(&g), mk(), cfg);
        serial.set_fault_plan(&plan).unwrap();
        let serial_out = serial.run(100_000);
        let mut par = sharded(&g, mk(), cfg, 2);
        par.set_fault_plan(&plan).unwrap();
        par.set_inline_cutoff(0); // force the barrier path
        let par_out = par.run(100_000);
        assert_eq!(serial_out, par_out);
        assert_eq!(serial.metrics().active_rounds, par.metrics().active_rounds);
        assert_eq!(par.node(0).replies_received(), 1);
        assert!(serial.metrics().active_rounds <= 5);
    }

    #[test]
    fn resumed_runs_continue_identically() {
        // Interrupting a run at a round limit and resuming must land in
        // the same final state as one uninterrupted run — including when
        // the resumed run crosses the sharded path.
        let g = graph();
        let cfg = EngineConfig::default();
        let mk = || {
            (0..g.n())
                .map(|i| FloodMax::new(i as u64))
                .collect::<Vec<_>>()
        };
        let mut whole = sharded(&g, mk(), cfg, 3);
        whole.set_inline_cutoff(0);
        let out_whole = whole.run(10_000);
        let mut pieces = sharded(&g, mk(), cfg, 3);
        pieces.set_inline_cutoff(0);
        let mut out = pieces.run(2);
        assert!(matches!(out, RunOutcome::RoundLimit { .. }));
        out = pieces.run(10_000);
        assert_eq!(out_whole.is_done(), out.is_done());
        assert_eq!(whole.metrics().messages, pieces.metrics().messages);
        assert_eq!(whole.round(), pieces.round());
        for (a, b) in whole.nodes().iter().zip(pieces.nodes()) {
            assert_eq!(a.best(), b.best());
        }
    }

    #[test]
    fn latent_runs_match_the_inline_loop() {
        // The latency heap lives on the wire, which both run loops drive
        // from the calling thread, so a latent run down the forced
        // barrier path must equal the one-thread run bit for bit, with
        // or without faults.
        let g = graph();
        let cfg = EngineConfig {
            seed: 21,
            bandwidth_bits: None,
        };
        let plan = FaultPlan::new(43)
            .random_delays(3)
            .crash(3, 2)
            .drop_rate(0.1);
        let models = [
            LatencyModel::log_normal(0.3, 0.6).seed(17),
            LatencyModel::uniform(0.5, 2.0).seed(29).service_rate(0.5),
        ];
        for model in models {
            for plan in [None, Some(&plan)] {
                let run = |threads: usize| {
                    let nodes = (0..g.n()).map(|i| FloodMax::new(i as u64)).collect();
                    let mut e = sharded(&g, nodes, cfg, threads);
                    e.set_inline_cutoff(0);
                    e.set_latency(model).unwrap();
                    if let Some(p) = plan {
                        e.set_fault_plan(p).unwrap();
                    }
                    let mut rec = RecordingObserver::default();
                    let out = e.run_observed(100_000, &mut rec);
                    let vt = e.virtual_time().to_bits();
                    (out, rec.events, e.metrics().clone(), e.round(), vt)
                };
                let one = run(1);
                assert_eq!(one, run(3), "{model:?}, faults: {}", plan.is_some());
                if plan.is_some() {
                    assert!(one.2.dropped_messages > 0, "the plan must bite");
                }
            }
        }
    }
}
