//! A standalone CONGEST protocol exercising the distributed walk
//! machinery in isolation: one origin launches `k` aggregated lazy walks
//! of length `L`; proxies report back along the recorded trails. Used to
//! validate (a) that token counts are conserved end-to-end, (b) that the
//! empirical endpoint distribution matches the exact `P^L` evolution,
//! and (c) that reverse routing, which leaves every node by its earliest
//! recorded arrival, always reaches the origin — independent of the
//! election protocol built on top.

use welle_congest::{bits_for, Context, Payload, Protocol};
use welle_graph::Port;

use crate::token::{split_lazy, with_port_counts};
use crate::trails::{Hop, ReverseRoute, Trail};

/// Message of the walk-fleet protocol.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FleetMsg {
    /// A bundle of walks in flight.
    Token {
        /// Steps left.
        remaining: u32,
        /// Bundle multiplicity.
        count: u32,
    },
    /// A proxy's report travelling back to the origin: how many walks
    /// ended at it.
    Report {
        /// Bound on the receiving node's earliest step: the sender's
        /// earliest step − 1 (see [`crate::Trail`]).
        step: u32,
        /// Number of walks that ended at the reporting proxy.
        count: u32,
    },
}

/// The empty token bundle: fills recycled engine arena slots (the
/// [`Payload`] contract) and is never sent by the protocol.
impl Default for FleetMsg {
    fn default() -> Self {
        FleetMsg::Token {
            remaining: 0,
            count: 0,
        }
    }
}

impl Payload for FleetMsg {
    fn bit_size(&self) -> usize {
        match self {
            FleetMsg::Token { remaining, count } => {
                1 + bits_for(*remaining as u64 + 1) + bits_for(*count as u64)
            }
            FleetMsg::Report { step, count } => {
                1 + bits_for(*step as u64 + 1) + bits_for(*count as u64)
            }
        }
    }
}

/// One node of the walk fleet (single origin, epoch 0).
#[derive(Debug)]
pub struct WalkFleetNode {
    is_origin: bool,
    walks: u32,
    walk_len: u32,
    trail: Option<Trail>,
    pending_stays: Vec<(u32, u32)>,
    /// Walks that ended at this node.
    ended_here: u32,
    /// Reports received back at the origin: total walks accounted for.
    reported: u32,
    reported_own: bool,
}

/// Signal value instructing proxies to send their reports (broadcast by
/// the driver once the walk traffic has quiesced).
pub const SIGNAL_REPORT: welle_congest::Signal = 1;

impl WalkFleetNode {
    /// Creates a node; the single `origin` node launches `walks` walks of
    /// `walk_len` steps; proxies report when the driver broadcasts
    /// [`SIGNAL_REPORT`].
    pub fn new(is_origin: bool, walks: u32, walk_len: u32) -> Self {
        WalkFleetNode {
            is_origin,
            walks,
            walk_len,
            trail: None,
            pending_stays: Vec::new(),
            ended_here: 0,
            reported: 0,
            reported_own: false,
        }
    }

    /// Number of walks that ended at this node.
    pub fn ended_here(&self) -> u32 {
        self.ended_here
    }

    /// Total walks the origin has heard reports for.
    pub fn reported(&self) -> u32 {
        self.reported
    }

    fn handle_tokens(
        &mut self,
        ctx: &mut Context<'_, FleetMsg>,
        remaining: u32,
        count: u32,
        via: Hop,
    ) {
        let step = self.walk_len - remaining;
        let trail = Trail::enter_epoch(&mut self.trail, 0)
            // welle-lint: allow(no-lib-unwrap) — invariant: this protocol only ever runs epoch 0
            .expect("single epoch");
        trail.record_in(step, via);
        if remaining == 0 {
            self.ended_here += count;
            return;
        }
        with_port_counts(ctx.degree(), |counts| {
            let stay = split_lazy(count, ctx.rng(), counts);
            if stay > 0 {
                self.pending_stays.push((remaining - 1, stay));
                let next = ctx.round() + 1;
                ctx.wake_at(next);
            }
            for (port, &cnt) in counts.iter().enumerate().filter(|&(_, &c)| c > 0) {
                let port = Port::new(port);
                ctx.send(
                    port,
                    FleetMsg::Token {
                        remaining: remaining - 1,
                        count: cnt,
                    },
                );
            }
        });
    }

    /// Routes a report that may be at most `step` steps from the origin
    /// (the sender's earliest step less one).
    fn route_report(&mut self, ctx: &mut Context<'_, FleetMsg>, step: u32, count: u32) {
        let trail = self.trail.as_ref();
        let earliest = trail.and_then(|t| t.earliest()).map(|(s, _)| s);
        // The earliest step falls at every hop of a route.
        debug_assert!(earliest.is_some_and(|s| s <= step));
        match trail.map_or(ReverseRoute::Broken, |t| t.reverse_route()) {
            ReverseRoute::AtOrigin => {
                debug_assert!(self.is_origin, "reports must land at the origin");
                self.reported += count;
            }
            ReverseRoute::Forward(port) => ctx.send(
                port,
                FleetMsg::Report {
                    step: earliest.map_or(0, |s| s - 1),
                    count,
                },
            ),
            ReverseRoute::Broken => panic!("broken reverse route in walk fleet"),
        }
    }
}

impl Protocol for WalkFleetNode {
    type Msg = FleetMsg;

    fn on_start(&mut self, ctx: &mut Context<'_, FleetMsg>) {
        if self.is_origin {
            let (walks, len) = (self.walks, self.walk_len);
            self.handle_tokens(ctx, len, walks, Hop::Origin);
        }
    }

    fn on_round(&mut self, ctx: &mut Context<'_, FleetMsg>, inbox: &mut Vec<(Port, FleetMsg)>) {
        // Holdovers from last round; their own stays go on the end.
        let held = self.pending_stays.len();
        for i in 0..held {
            let (remaining, count) = self.pending_stays[i];
            self.handle_tokens(ctx, remaining, count, Hop::Stay);
        }
        self.pending_stays.drain(..held);
        for (port, msg) in inbox.drain(..) {
            match msg {
                FleetMsg::Token { remaining, count } => {
                    self.handle_tokens(ctx, remaining, count, Hop::Via(port))
                }
                FleetMsg::Report { step, count } => self.route_report(ctx, step, count),
            }
        }
    }

    fn on_signal(&mut self, ctx: &mut Context<'_, FleetMsg>, signal: welle_congest::Signal) {
        if signal == SIGNAL_REPORT && !self.reported_own && self.ended_here > 0 {
            self.reported_own = true;
            let (len, ended) = (self.walk_len, self.ended_here);
            self.route_report(ctx, len, ended);
        }
    }
}

/// Runs a walk fleet on `graph` from `origin`, returning
/// `(per-node endpoint counts, walks reported back to origin)`.
pub fn run_walk_fleet(
    graph: &std::sync::Arc<welle_graph::Graph>,
    origin: usize,
    walks: u32,
    walk_len: u32,
    seed: u64,
) -> (Vec<u32>, u32) {
    let mut engine = welle_congest::Engine::from_fn(
        std::sync::Arc::clone(graph),
        welle_congest::EngineConfig {
            seed,
            bandwidth_bits: None,
        },
        |i| WalkFleetNode::new(i == origin, walks, walk_len),
    );
    // Phase 1: walks spread until the network quiesces.
    engine.run(1_000_000);
    // Phase 2: proxies report back along the trails.
    engine.signal(SIGNAL_REPORT);
    engine.run(2_000_000);
    let counts: Vec<u32> = engine.nodes().iter().map(|n| n.ended_here()).collect();
    let reported = engine.node(origin).reported();
    (counts, reported)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mixing::endpoint_distribution;
    use std::sync::Arc;
    use welle_graph::{gen, NodeId};

    #[test]
    fn walk_counts_are_conserved() {
        let g = Arc::new(gen::hypercube(5).unwrap());
        let (counts, reported) = run_walk_fleet(&g, 3, 500, 8, 1);
        let total: u32 = counts.iter().sum();
        assert_eq!(total, 500, "every walk ends somewhere");
        assert_eq!(reported, 500, "every endpoint reports back to origin");
    }

    #[test]
    fn endpoint_distribution_matches_exact_evolution() {
        let g = Arc::new(gen::clique(16).unwrap());
        let walks = 40_000u32;
        let len = 4u32;
        let (counts, _) = run_walk_fleet(&g, 0, walks, len, 7);
        let exact = endpoint_distribution(&g, NodeId::new(0), len);
        let mut tv = 0.0;
        for (i, &c) in counts.iter().enumerate() {
            tv += (c as f64 / walks as f64 - exact[i]).abs();
        }
        tv *= 0.5;
        assert!(tv < 0.02, "total variation {tv} too large");
    }

    #[test]
    fn zero_length_walks_stay_home() {
        let g = Arc::new(gen::ring(8).unwrap());
        // walk_len >= 1 enforced by construction; length-1 walks spread
        // only to neighbours or stay.
        let (counts, reported) = run_walk_fleet(&g, 2, 100, 1, 3);
        assert_eq!(reported, 100);
        for (i, &c) in counts.iter().enumerate() {
            if c > 0 {
                let d = welle_graph::analysis::bfs(&g, NodeId::new(2))[i];
                assert!(d <= 1, "length-1 walk ended {d} hops away");
            }
        }
    }
}
