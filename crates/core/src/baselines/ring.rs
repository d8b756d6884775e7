//! Hirschberg–Sinclair on rings: the classic `O(n log n)`-message,
//! `O(n)`-round election for bidirectional rings, included as the
//! specialized baseline the paper's general bounds are often contrasted
//! with (§1 cites the ring literature: Chang–Roberts, Frederickson–Lynch,
//! HS).
//!
//! The protocol runs in phases: in phase `k` a still-active candidate
//! sends probes `2^k` hops in both directions; a probe is bounced back
//! unless it meets a larger id, and a candidate that receives both its
//! probes back advances to phase `k + 1`. A probe returning to its own
//! originator after travelling the full ring makes that originator the
//! leader. Works on unoriented rings (port numbering carries no
//! direction; the protocol treats its two ports symmetrically).

use rand::RngExt;
use welle_congest::{bits_for, Context, Payload, Protocol};
use welle_graph::Port;

use super::BaselineReport;

/// Message of the HS protocol.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HsMsg {
    /// Outbound probe `⟨id, phase, hops_remaining⟩`.
    Probe {
        /// Originator's id.
        id: u64,
        /// Phase number.
        phase: u32,
        /// Hops still to travel before bouncing.
        hops: u32,
    },
    /// A probe echoing back to its originator.
    Echo {
        /// Originator's id.
        id: u64,
        /// Phase number.
        phase: u32,
    },
    /// Declaration flooded by the winner so the ring quiesces knowing
    /// the election finished (implicit election only needs the winner to
    /// know, but termination detection keeps runs finite).
    Elected {
        /// Winner's id.
        id: u64,
    },
}

/// A null echo: fills recycled engine arena slots (the [`Payload`]
/// contract) and is never sent by the protocol (probe ids are ≥ 1).
impl Default for HsMsg {
    fn default() -> Self {
        HsMsg::Echo { id: 0, phase: 0 }
    }
}

impl Payload for HsMsg {
    fn bit_size(&self) -> usize {
        match self {
            HsMsg::Probe { id, phase, hops } => {
                2 + bits_for(*id) + bits_for(*phase as u64 + 1) + bits_for(*hops as u64 + 1)
            }
            HsMsg::Echo { id, phase } => 2 + bits_for(*id) + bits_for(*phase as u64 + 1),
            HsMsg::Elected { id } => 2 + bits_for(*id),
        }
    }
}

/// Node state for Hirschberg–Sinclair.
#[derive(Clone, Debug)]
pub struct HsNode {
    id_max: u64,
    id: u64,
    active: bool,
    phase: u32,
    echoes: u8,
    leader: Option<u64>,
    done: bool,
}

impl HsNode {
    /// Creates a node; ids are drawn from `[1, id_max]` at start.
    pub fn new(id_max: u64) -> Self {
        HsNode {
            id_max,
            id: 0,
            active: false,
            phase: 0,
            echoes: 0,
            leader: None,
            done: false,
        }
    }

    /// This node's drawn id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The winner this node learned of, if the election finished.
    pub fn leader(&self) -> Option<u64> {
        self.leader
    }

    /// Whether this node is the elected leader.
    pub fn is_leader(&self) -> bool {
        self.leader == Some(self.id)
    }

    fn launch_phase(&mut self, ctx: &mut Context<'_, HsMsg>) {
        self.echoes = 0;
        let probe = HsMsg::Probe {
            id: self.id,
            phase: self.phase,
            hops: 1u32 << self.phase,
        };
        ctx.send(Port::new(0), probe);
        ctx.send(Port::new(1), probe);
    }

    fn other(port: Port) -> Port {
        Port::new(1 - port.index())
    }
}

impl Protocol for HsNode {
    type Msg = HsMsg;

    fn on_start(&mut self, ctx: &mut Context<'_, HsMsg>) {
        assert_eq!(ctx.degree(), 2, "Hirschberg-Sinclair requires a ring");
        self.id = ctx.rng().random_range(1..=self.id_max);
        self.active = true;
        self.launch_phase(ctx);
    }

    fn on_round(&mut self, ctx: &mut Context<'_, HsMsg>, inbox: &mut Vec<(Port, HsMsg)>) {
        for (port, msg) in inbox.drain(..) {
            match msg {
                HsMsg::Probe { id, phase, hops } => {
                    if id == self.id {
                        // The probe went all the way around: leader.
                        if self.leader.is_none() {
                            self.leader = Some(self.id);
                            ctx.send(Port::new(0), HsMsg::Elected { id: self.id });
                        }
                    } else if id > self.id {
                        // Relay or bounce; smaller local id defers.
                        self.active = false;
                        if hops > 1 {
                            ctx.send(
                                Self::other(port),
                                HsMsg::Probe {
                                    id,
                                    phase,
                                    hops: hops - 1,
                                },
                            );
                        } else {
                            ctx.send(port, HsMsg::Echo { id, phase });
                        }
                    }
                    // id < self.id: swallow the probe.
                }
                HsMsg::Echo { id, phase } => {
                    if id == self.id {
                        if phase == self.phase && self.leader.is_none() {
                            self.echoes += 1;
                            if self.echoes == 2 {
                                self.phase += 1;
                                self.launch_phase(ctx);
                            }
                        }
                    } else {
                        // Relay the echo towards its originator.
                        ctx.send(Self::other(port), HsMsg::Echo { id, phase });
                    }
                }
                HsMsg::Elected { id } => {
                    if !self.done {
                        self.done = true;
                        self.leader = Some(id);
                        ctx.send(Self::other(port), HsMsg::Elected { id });
                    }
                }
            }
        }
        if self.leader == Some(self.id) {
            self.done = true;
        }
    }

    fn is_done(&self) -> bool {
        self.done
    }
}

/// Runs Hirschberg–Sinclair on a ring graph.
///
/// # Panics
///
/// Panics (inside the engine) if the graph is not 2-regular.
pub fn run_hirschberg_sinclair(
    graph: &std::sync::Arc<welle_graph::Graph>,
    seed: u64,
) -> BaselineReport {
    let n = graph.n();
    let id_max = (n as u128).pow(4).min(u64::MAX as u128) as u64;
    let mut engine = welle_congest::Engine::from_fn(
        std::sync::Arc::clone(graph),
        welle_congest::EngineConfig {
            seed,
            bandwidth_bits: None,
        },
        |_| HsNode::new(id_max),
    );
    let outcome = engine.run(100 * n as u64 + 1_000);
    let leaders = engine
        .nodes()
        .iter()
        .enumerate()
        .filter(|(_, p)| p.is_leader())
        .map(|(i, _)| i)
        .collect();
    BaselineReport {
        leaders,
        messages: engine.metrics().messages,
        bits: engine.metrics().bits,
        rounds: outcome.round(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use welle_graph::gen;

    #[test]
    fn hs_elects_exactly_one_on_rings() {
        for n in [4usize, 16, 64] {
            for seed in 0..3u64 {
                let g = Arc::new(gen::ring(n).unwrap());
                let report = run_hirschberg_sinclair(&g, seed);
                assert!(
                    report.is_success(),
                    "n={n} seed={seed}: {:?}",
                    report.leaders
                );
            }
        }
    }

    #[test]
    fn hs_message_complexity_is_n_log_n() {
        // Message count ~ c·n·log n: check growth between n and 4n stays
        // well below quadratic and near the n log n curve.
        let g64 = Arc::new(gen::ring(64).unwrap());
        let g256 = Arc::new(gen::ring(256).unwrap());
        let m64 = run_hirschberg_sinclair(&g64, 1).messages as f64;
        let m256 = run_hirschberg_sinclair(&g256, 1).messages as f64;
        let growth = m256 / m64;
        // n log n predicts 4·(8/6) ≈ 5.3; allow a generous band that
        // still excludes Θ(n²) (growth 16).
        assert!(
            growth > 3.0 && growth < 9.0,
            "growth {growth} inconsistent with n log n"
        );
    }

    #[test]
    fn everyone_learns_the_leader() {
        let g = Arc::new(gen::ring(32).unwrap());
        let id_max = (32u128.pow(4)) as u64;
        let mut engine = welle_congest::Engine::from_fn(
            Arc::clone(&g),
            welle_congest::EngineConfig::default(),
            |_| HsNode::new(id_max),
        );
        engine.run(10_000);
        let leader_ids: std::collections::HashSet<_> =
            engine.nodes().iter().filter_map(|p| p.leader()).collect();
        assert_eq!(leader_ids.len(), 1, "all nodes agree on the winner");
        assert_eq!(
            engine
                .nodes()
                .iter()
                .filter(|p| p.leader().is_some())
                .count(),
            32
        );
    }

    #[test]
    #[should_panic(expected = "ring")]
    fn hs_rejects_non_rings() {
        let g = Arc::new(gen::star(4).unwrap());
        let _ = run_hirschberg_sinclair(&g, 1);
    }
}
