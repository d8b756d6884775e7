//! The clique communication graph `CG` of §4.1 and its event tracking.
//!
//! `CG` has one vertex per clique of the lower-bound graph; a (directed,
//! deduplicated-to-simple) edge appears when the first message crosses the
//! corresponding inter-clique edge of `G`. The lower-bound proof hinges on
//! these facts, which the observer lets us *measure*:
//!
//! * Lemma 18 — before its first inter-clique send, a clique has spent
//!   `Ω(n^{2ε})` messages in expectation;
//! * Lemma 19 — an algorithm sending `M·n^{2ε}` messages creates only
//!   `O(M)` CG edges;
//! * Lemma 20 — connected components of `CG` rarely merge (event `Disj`).
//!   This one is not measured: the observer counts `CG` edges, not
//!   component merges.

use welle_congest::{TransmitEvent, TransmitObserver};
use welle_graph::gen::CliqueOfCliques;

/// Observer reconstructing the clique communication graph from the
/// transmission stream.
#[derive(Clone, Debug)]
pub struct CliqueCommObserver {
    clique_of: Vec<u32>,
    num_cliques: usize,
    /// Messages sent by each clique's nodes so far.
    msgs_by_clique: Vec<u64>,
    /// Messages a clique had sent when it first sent inter-clique
    /// (`None` until it does) — the Lemma 18 statistic.
    first_contact_cost: Vec<Option<u64>>,
    /// Simple-graph CG edges seen (unordered clique pairs).
    cg_edges: std::collections::HashSet<(u32, u32)>,
    touched_cliques: std::collections::HashSet<u32>,
}

impl CliqueCommObserver {
    /// Creates an observer for the given lower-bound graph.
    pub fn new(lb: &CliqueOfCliques) -> Self {
        let n = lb.graph().n();
        let clique_of: Vec<u32> = (0..n)
            .map(|u| lb.clique_of(welle_graph::NodeId::new(u)) as u32)
            .collect();
        let num_cliques = lb.num_cliques();
        CliqueCommObserver {
            clique_of,
            num_cliques,
            msgs_by_clique: vec![0; num_cliques],
            first_contact_cost: vec![None; num_cliques],
            cg_edges: std::collections::HashSet::new(),
            touched_cliques: std::collections::HashSet::new(),
        }
    }

    /// Number of distinct CG edges created (Lemma 19's `O(M)`).
    pub fn cg_edge_count(&self) -> usize {
        self.cg_edges.len()
    }

    /// The messages each clique had sent when it first messaged another
    /// clique (Lemma 18's `Msgs(C)`), in clique order, for the cliques
    /// that did.
    pub fn first_contact_costs(&self) -> Vec<u64> {
        self.first_contact_cost.iter().flatten().copied().collect()
    }

    /// Cliques that sent or received at least one inter-clique message.
    pub fn touched_cliques(&self) -> usize {
        self.touched_cliques.len()
    }

    /// Number of cliques in the underlying graph.
    pub fn num_cliques(&self) -> usize {
        self.num_cliques
    }
}

impl TransmitObserver for CliqueCommObserver {
    fn on_transmit(&mut self, ev: &TransmitEvent) {
        let cf = self.clique_of[ev.from.index()];
        let ct = self.clique_of[ev.to.index()];
        self.msgs_by_clique[cf as usize] += 1;
        if cf == ct {
            return;
        }
        // First inter-clique send of this clique: record Lemma 18 cost.
        if self.first_contact_cost[cf as usize].is_none() {
            self.first_contact_cost[cf as usize] = Some(self.msgs_by_clique[cf as usize]);
        }
        self.touched_cliques.insert(cf);
        self.touched_cliques.insert(ct);
        self.cg_edges.insert((cf.min(ct), cf.max(ct)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};
    use welle_graph::gen::{CliqueOfCliques, CliqueOfCliquesParams};
    use welle_graph::{EdgeId, NodeId, Port};

    fn lb() -> CliqueOfCliques {
        let mut rng = StdRng::seed_from_u64(5);
        CliqueOfCliques::build(CliqueOfCliquesParams::new(300, 0.3), &mut rng).unwrap()
    }

    fn event(from: usize, to: usize, round: u64) -> TransmitEvent {
        TransmitEvent {
            round,
            from: NodeId::new(from),
            from_port: Port::new(0),
            to: NodeId::new(to),
            to_port: Port::new(0),
            edge: EdgeId::new(0),
            bits: 8,
        }
    }

    #[test]
    fn intra_clique_traffic_creates_no_edges() {
        let lb = lb();
        let mut obs = CliqueCommObserver::new(&lb);
        for r in 0..10 {
            obs.on_transmit(&event(0, 1, r)); // nodes 0 and 1 share clique 0
        }
        assert_eq!(obs.cg_edge_count(), 0);
        assert!(obs.first_contact_costs().is_empty());
        assert_eq!(obs.touched_cliques(), 0);
    }

    #[test]
    fn first_contact_cost_counts_prior_messages() {
        let lb = lb();
        let s = lb.clique_size();
        let mut obs = CliqueCommObserver::new(&lb);
        // 7 intra-clique messages, then one inter-clique (clique 0 → 1).
        for r in 0..7 {
            obs.on_transmit(&event(0, 1, r));
        }
        obs.on_transmit(&event(0, s, 7));
        assert_eq!(obs.first_contact_costs(), [8]);
        assert_eq!(obs.cg_edge_count(), 1);
        assert_eq!(obs.touched_cliques(), 2);
    }

    #[test]
    fn duplicate_inter_clique_edges_are_simple() {
        let lb = lb();
        let s = lb.clique_size();
        let mut obs = CliqueCommObserver::new(&lb);
        obs.on_transmit(&event(0, s, 1));
        obs.on_transmit(&event(s, 0, 2));
        obs.on_transmit(&event(0, s, 3));
        assert_eq!(obs.cg_edge_count(), 1);
        // Both cliques made first contact with their first message.
        assert_eq!(obs.first_contact_costs(), [1, 1]);
    }
}
