//! The node-side protocol interface and its execution context.

use rand::rngs::StdRng;
use welle_graph::Port;

use crate::message::Payload;
use crate::queues::DirBatch;

/// Out-of-band control value delivered by [`crate::Engine::signal`].
///
/// Signals are a *simulation* convenience (they model the globally known
/// round schedule of the paper without burning simulated rounds in
/// `Schedule::Adaptive` mode); they carry no protocol information beyond
/// the value itself.
pub type Signal = u64;

/// A synchronous message-passing protocol running on one anonymous node.
///
/// The engine drives all nodes in lock-step rounds:
///
/// 1. At round 0, [`Protocol::on_start`] runs once on every node.
/// 2. In each later round, [`Protocol::on_round`] runs on every node that
///    has incoming messages or a due wake-up (see [`Context::wake_at`]).
/// 3. Messages sent in round `r` arrive in round `r + 1` or later (later
///    when the per-edge queue is backed up: only one message crosses each
///    directed edge per round).
///
/// # Contract
///
/// `on_round` **must** be a no-op — in particular it must not draw from
/// [`Context::rng`] — when the inbox is empty and the node has no due
/// wake-up. [`crate::Engine`] skips such calls on every thread count,
/// and an execution must not depend on whether they happen.
///
/// Nodes are anonymous: the context deliberately exposes no node index.
/// Identity must come from randomness (e.g. the paper's ids in `[1, n⁴]`),
/// drawn from the seeded per-node [`Context::rng`].
pub trait Protocol: Send {
    /// Message type exchanged by this protocol.
    type Msg: Payload;

    /// Called once on every node at round 0, before any delivery.
    fn on_start(&mut self, ctx: &mut Context<'_, Self::Msg>) {
        let _ = ctx;
    }

    /// Called whenever this node has incoming messages or a due wake-up.
    ///
    /// `inbox` contains `(arrival_port, message)` pairs delivered this
    /// round; the implementation may drain it freely.
    fn on_round(&mut self, ctx: &mut Context<'_, Self::Msg>, inbox: &mut Vec<(Port, Self::Msg)>);

    /// Called when the driver broadcasts a control signal
    /// (see [`crate::Engine::signal`]). Default: ignored.
    fn on_signal(&mut self, ctx: &mut Context<'_, Self::Msg>, signal: Signal) {
        let _ = (ctx, signal);
    }

    /// Whether this node has terminated (it promises to send no further
    /// messages spontaneously; it may still be used as a relay by the
    /// engine delivering messages to it). Default: `false`.
    fn is_done(&self) -> bool {
        false
    }

    /// The phase-observer hook: the protocol's current phase, as a small
    /// ordered tag, for telemetry attribution. After every callback the
    /// engine pulls this value and merges the tags seen in the round by
    /// **maximum** — an order-free reduction, so all executors agree —
    /// and the merged tag labels the round's
    /// [`RoundSample`](crate::RoundSample) and phase aggregates.
    ///
    /// # Contract
    ///
    /// The tag must be a pure function of the node's protocol state
    /// (never of wall-clock or ambient randomness), and should be
    /// monotone within the window being attributed: nodes of a
    /// phase-structured protocol are expected to agree on the tag up to
    /// the one-round skew of a transition. Default: `None` (the
    /// protocol is phase-less; rounds fall into the unattributed
    /// bucket).
    fn phase_tag(&self) -> Option<u8> {
        None
    }
}

/// Per-invocation execution context handed to protocol callbacks.
///
/// Provides the model-visible environment: the global round clock, the
/// network size `n` (the paper assumes nodes know `n`), the node's degree
/// (its port count), a private source of randomness, and the send/wake-up
/// effects.
#[derive(Debug)]
pub struct Context<'a, M> {
    pub(crate) round: u64,
    pub(crate) n: usize,
    pub(crate) degree: usize,
    /// Directed index of this node's port 0; `send(p, ..)` resolves to
    /// directed index `dir_base + p` without touching the graph.
    pub(crate) dir_base: u32,
    /// Per-message bit budget ([`crate::EngineConfig::bandwidth_bits`]).
    pub(crate) budget: Option<usize>,
    /// Messages sent through this context (read back by the engine for
    /// per-node accounting).
    pub(crate) sent: u32,
    pub(crate) rng: &'a mut StdRng,
    /// The engine's transmission buffer (struct-of-arrays
    /// `(directed_index, message)` entries).
    pub(crate) sends: &'a mut DirBatch<M>,
    pub(crate) wake: &'a mut Option<u64>,
}

impl<M> Context<'_, M> {
    /// Current round number.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Network size `n` (known to all nodes in the paper's model).
    pub fn n(&self) -> usize {
        self.n
    }

    /// This node's degree, i.e. its number of ports `0..degree`.
    pub fn degree(&self) -> usize {
        self.degree
    }

    /// The node's private random generator (deterministically seeded by
    /// the engine from the run seed and the node index).
    pub fn rng(&mut self) -> &mut StdRng {
        self.rng
    }

    /// Requests a wake-up call no later than round `round` (the earliest
    /// requested wake-up wins). Used by clock-driven protocols to observe
    /// schedule boundaries without busy-waiting.
    pub fn wake_at(&mut self, round: u64) {
        *self.wake = Some(match *self.wake {
            Some(cur) => cur.min(round),
            None => round,
        });
    }
}

impl<M: Payload> Context<'_, M> {
    /// Queues `msg` for transmission through `port`.
    ///
    /// Transmission respects the CONGEST discipline: one message per
    /// directed edge per round, so bursts sent in the same round are
    /// serialized over subsequent rounds (congestion).
    ///
    /// # Panics
    ///
    /// Panics if `port >= degree` — sending through a non-existent port
    /// is a protocol bug — or if the message exceeds the engine's
    /// [`crate::EngineConfig::bandwidth_bits`] budget.
    pub fn send(&mut self, port: Port, msg: M) {
        assert!(
            port.index() < self.degree,
            "send through port {port} but node has degree {}",
            self.degree
        );
        if let Some(budget) = self.budget {
            let sz = msg.bit_size();
            assert!(
                sz <= budget,
                "protocol bug: message of {sz} bits exceeds the {budget}-bit CONGEST budget"
            );
        }
        self.sent += 1;
        self.sends.push(self.dir_base + port.raw(), msg);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn test_ctx<'a>(
        degree: usize,
        budget: Option<usize>,
        rng: &'a mut StdRng,
        sends: &'a mut DirBatch<u64>,
        wake: &'a mut Option<u64>,
    ) -> Context<'a, u64> {
        Context {
            round: 3,
            n: 10,
            degree,
            dir_base: 100,
            budget,
            sent: 0,
            rng,
            sends,
            wake,
        }
    }

    #[test]
    fn context_accessors_and_effects() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut sends: DirBatch<u64> = DirBatch::new();
        let mut wake = None;
        let mut ctx = test_ctx(2, None, &mut rng, &mut sends, &mut wake);
        assert_eq!(ctx.round(), 3);
        assert_eq!(ctx.n(), 10);
        assert_eq!(ctx.degree(), 2);
        ctx.send(Port::new(1), 99);
        assert_eq!(ctx.sent, 1);
        ctx.wake_at(10);
        ctx.wake_at(7);
        ctx.wake_at(12);
        assert_eq!(sends.drain().collect::<Vec<_>>(), vec![(101, 99)]);
        assert_eq!(wake, Some(7));
    }

    #[test]
    #[should_panic(expected = "degree")]
    fn sending_on_bad_port_panics() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut sends: DirBatch<u64> = DirBatch::new();
        let mut wake = None;
        let mut ctx = test_ctx(1, None, &mut rng, &mut sends, &mut wake);
        ctx.send(Port::new(1), 5);
    }

    #[test]
    #[should_panic(expected = "CONGEST budget")]
    fn sending_over_budget_panics() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut sends: DirBatch<u64> = DirBatch::new();
        let mut wake = None;
        let mut ctx = test_ctx(1, Some(32), &mut rng, &mut sends, &mut wake);
        ctx.send(Port::new(0), 5); // u64 payload claims 64 bits
    }
}
