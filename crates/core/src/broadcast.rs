//! Push–pull rumor spreading (Karp et al. \[22\]), the broadcast stage that
//! upgrades implicit to explicit leader election (Corollary 14).
//!
//! Each round, an informed node *pushes* the rumor through a uniformly
//! random port and an uninformed node *pulls* from a uniformly random
//! port (informed nodes answer pulls). On a graph of conductance `φ` all
//! nodes are informed within `O(log n / φ)` rounds w.h.p. (Giakkoupis
//! \[17\]), for `O(n·log n/φ)` messages.

use std::sync::Arc;

use rand::RngExt;
use welle_congest::{bits_for, Context, Engine, EngineConfig, Payload, Protocol};
use welle_graph::{Graph, Port};

/// Message of the push–pull protocol. The `Default` value (a pull
/// request) fills recycled engine arena slots, per the [`Payload`]
/// contract.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum GossipMsg {
    /// The rumor (the leader's id, for explicit election).
    Rumor(u64),
    /// A pull request.
    #[default]
    Pull,
}

impl Payload for GossipMsg {
    fn bit_size(&self) -> usize {
        match self {
            GossipMsg::Rumor(id) => 1 + bits_for(*id),
            GossipMsg::Pull => 1,
        }
    }
}

/// One node of the push–pull broadcast.
#[derive(Clone, Debug)]
pub struct PushPullNode {
    rumor: Option<u64>,
    informed_round: Option<u64>,
    horizon: u64,
}

impl PushPullNode {
    /// Creates a node; the initiator holds the rumor from round 0.
    pub fn new(rumor: Option<u64>, horizon: u64) -> Self {
        PushPullNode {
            informed_round: rumor.map(|_| 0),
            rumor,
            horizon,
        }
    }

    /// The rumor this node knows, if informed.
    pub fn rumor(&self) -> Option<u64> {
        self.rumor
    }

    /// Round at which this node became informed.
    pub fn informed_round(&self) -> Option<u64> {
        self.informed_round
    }

    fn act(&mut self, ctx: &mut Context<'_, GossipMsg>) {
        if ctx.round() >= self.horizon || ctx.degree() == 0 {
            return;
        }
        let degree = ctx.degree();
        let port = Port::new(ctx.rng().random_range(0..degree));
        match self.rumor {
            Some(id) => ctx.send(port, GossipMsg::Rumor(id)),
            None => ctx.send(port, GossipMsg::Pull),
        }
        let next = ctx.round() + 1;
        ctx.wake_at(next);
    }
}

impl Protocol for PushPullNode {
    type Msg = GossipMsg;

    fn on_start(&mut self, ctx: &mut Context<'_, GossipMsg>) {
        self.act(ctx);
    }

    fn on_round(&mut self, ctx: &mut Context<'_, GossipMsg>, inbox: &mut Vec<(Port, GossipMsg)>) {
        for (port, msg) in inbox.drain(..) {
            match msg {
                GossipMsg::Rumor(id) => {
                    if self.rumor.is_none() {
                        self.rumor = Some(id);
                        self.informed_round = Some(ctx.round());
                    }
                }
                GossipMsg::Pull => {
                    if let Some(id) = self.rumor {
                        ctx.send(port, GossipMsg::Rumor(id));
                    }
                }
            }
        }
        self.act(ctx);
    }

    fn is_done(&self) -> bool {
        self.rumor.is_some()
    }
}

/// Result of one broadcast run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BroadcastReport {
    /// Whether every node learned the rumor within the horizon.
    pub all_informed: bool,
    /// Round by which the last node was informed.
    pub rounds: u64,
    /// Total messages (pushes + pulls + pull-answers).
    pub messages: u64,
    /// Total bits.
    pub bits: u64,
}

/// Runs push–pull from `source` until everyone is informed (or the
/// horizon passes).
///
/// ```no_run
/// use std::sync::Arc;
/// use welle_core::broadcast::run_push_pull;
/// use welle_graph::gen;
///
/// let g = Arc::new(gen::hypercube(6).unwrap());
/// let report = run_push_pull(&g, 0, 99, 10_000, 1);
/// assert!(report.all_informed);
/// ```
pub fn run_push_pull(
    graph: &Arc<Graph>,
    source: usize,
    rumor: u64,
    horizon: u64,
    seed: u64,
) -> BroadcastReport {
    let mut engine = Engine::from_fn(
        Arc::clone(graph),
        EngineConfig {
            seed,
            bandwidth_bits: None,
        },
        |i| PushPullNode::new(if i == source { Some(rumor) } else { None }, horizon),
    );
    engine.run_until(horizon + 2, |e| {
        e.nodes().iter().all(|n| n.rumor().is_some())
    });
    let all_informed = engine.nodes().iter().all(|n| n.rumor() == Some(rumor));
    let rounds = engine
        .nodes()
        .iter()
        .filter_map(|n| n.informed_round())
        .max()
        .unwrap_or(0);
    BroadcastReport {
        all_informed,
        rounds,
        messages: engine.metrics().messages,
        bits: engine.metrics().bits,
    }
}

/// Explicit election = implicit election + broadcast of the leader id
/// (Corollary 14).
#[derive(Clone, Debug)]
pub struct ExplicitReport {
    /// The implicit-election stage.
    pub election: crate::runner::ElectionReport,
    /// The broadcast stage (`None` when the election failed to produce a
    /// unique leader).
    pub broadcast: Option<BroadcastReport>,
}

impl ExplicitReport {
    /// Success: unique leader and everyone informed of its id.
    pub fn is_success(&self) -> bool {
        self.election.is_success() && self.broadcast.as_ref().is_some_and(|b| b.all_informed)
    }

    /// Combined message count of both stages.
    pub fn total_messages(&self) -> u64 {
        self.election.messages + self.broadcast.as_ref().map_or(0, |b| b.messages)
    }
}

/// Runs the full explicit election (Corollary 14): implicit stage, then
/// push–pull broadcast of the winner's id from the winner.
pub fn run_explicit_election(
    graph: &Arc<Graph>,
    cfg: &crate::config::ElectionConfig,
    broadcast_horizon: u64,
    seed: u64,
) -> ExplicitReport {
    let election = crate::election::Election::on(graph)
        .config(*cfg)
        .seed(seed)
        .run()
        .unwrap_or_else(|e| panic!("{e}"));
    let broadcast = match (&election.leaders[..], election.leader_id) {
        (&[leader], Some(id)) => Some(run_push_pull(
            graph,
            leader,
            id,
            broadcast_horizon,
            seed ^ 0xB0AD_CA57,
        )),
        _ => None,
    };
    ExplicitReport {
        election,
        broadcast,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use welle_graph::gen;

    #[test]
    fn broadcast_informs_everyone_on_expander() {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(3);
        let g = Arc::new(gen::random_regular(128, 4, &mut rng).unwrap());
        let report = run_push_pull(&g, 5, 777, 10_000, 1);
        assert!(report.all_informed);
        // O(log n) rounds on an expander; be generous.
        assert!(report.rounds <= 60, "rounds = {}", report.rounds);
        assert!(report.messages >= 128, "at least n messages");
    }

    #[test]
    fn broadcast_on_ring_takes_linear_rounds() {
        let g = Arc::new(gen::ring(64).unwrap());
        let report = run_push_pull(&g, 0, 9, 100_000, 2);
        assert!(report.all_informed);
        // Rumor travels at most 2 hops per round on a cycle.
        assert!(report.rounds >= 16, "rounds = {}", report.rounds);
    }

    #[test]
    fn horizon_caps_failure() {
        let g = Arc::new(gen::ring(64).unwrap());
        let report = run_push_pull(&g, 0, 9, 3, 2);
        assert!(!report.all_informed);
    }

    #[test]
    fn rumor_bit_size() {
        assert!(GossipMsg::Rumor(u64::MAX).bit_size() > GossipMsg::Pull.bit_size());
    }
}
