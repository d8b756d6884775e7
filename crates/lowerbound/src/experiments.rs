//! Packaged experiment drivers for the §4 lower-bound claims, reused by
//! the `welle-bench` tables and the integration tests.

use std::sync::Arc;

use welle_congest::{Engine, EngineConfig};
use welle_core::{Election, ElectionConfig, ElectionReport};
use welle_graph::gen::CliqueOfCliques;
use welle_graph::{Graph, NodeId};

use crate::cg::CliqueCommObserver;

/// An election run on the lower-bound graph with CG tracking.
#[derive(Clone, Debug)]
pub struct LowerBoundRun {
    /// The plain election report.
    pub report: ElectionReport,
    /// Distinct clique-communication-graph edges created (Lemma 19).
    pub cg_edges: usize,
    /// Per-clique messages before first inter-clique contact (Lemma 18).
    pub first_contact_costs: Vec<u64>,
    /// Cliques that took part in any inter-clique exchange.
    pub touched_cliques: usize,
    /// Number of cliques.
    pub num_cliques: usize,
    /// Clique size `s` (ports per clique `≈ s²`).
    pub clique_size: usize,
    /// The conductance scale `α = n^{-2ε}` of the construction.
    pub alpha: f64,
}

/// Runs the election on a lower-bound graph, reconstructing the clique
/// communication graph from the traffic.
pub fn run_election_on_lower_bound(
    lb: &CliqueOfCliques,
    cfg: &ElectionConfig,
    seed: u64,
) -> LowerBoundRun {
    let graph = Arc::new(lb.graph().clone());
    let mut obs = CliqueCommObserver::new(lb);
    let report = Election::on(&graph)
        .config(*cfg)
        .seed(seed)
        .observer(&mut obs)
        .run()
        .unwrap_or_else(|e| panic!("{e}"));
    LowerBoundRun {
        report,
        cg_edges: obs.cg_edge_count(),
        first_contact_costs: obs.first_contact_costs(),
        touched_cliques: obs.touched_cliques(),
        num_cliques: lb.num_cliques(),
        clique_size: lb.clique_size(),
        alpha: lb.alpha(),
    }
}

/// Message cost of building a BFS spanning tree from `root` (the
/// Corollary 27 reference task: every clique must be discovered, so the
/// cost is `Ω(n/√φ)` on the lower-bound family).
pub fn bfs_tree_cost(graph: &Arc<Graph>, root: NodeId, seed: u64) -> (u64, u64) {
    let mut engine = Engine::from_fn(
        Arc::clone(graph),
        EngineConfig {
            seed,
            bandwidth_bits: None,
        },
        |i| welle_congest::testing::BfsWave::new(i == root.index()),
    );
    let outcome = engine.run(10 * graph.n() as u64 + 100);
    (engine.metrics().messages, outcome.round())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};
    use welle_core::SyncMode;
    use welle_graph::gen::CliqueOfCliquesParams;

    #[test]
    fn lower_bound_election_tracks_cg() {
        let mut rng = StdRng::seed_from_u64(2);
        let lb = CliqueOfCliques::build(CliqueOfCliquesParams::new(200, 0.3), &mut rng).unwrap();
        let cfg = ElectionConfig {
            sync: SyncMode::Adaptive,
            ..ElectionConfig::default()
        };
        let run = run_election_on_lower_bound(&lb, &cfg, 3);
        // The election succeeds and necessarily talks across cliques.
        assert!(run.report.is_success(), "{:?}", run.report.leaders);
        assert!(run.cg_edges > 0);
        assert!(!run.first_contact_costs.is_empty());
        assert!(run.touched_cliques <= run.num_cliques);
    }

    #[test]
    fn bfs_tree_visits_every_edge_once_in_each_direction_at_most() {
        let graph = Arc::new(welle_graph::gen::torus2d(5, 5).unwrap());
        let (messages, rounds) = bfs_tree_cost(&graph, NodeId::new(0), 1);
        let m = graph.m() as u64;
        assert!(messages >= m, "BFS floods at least m messages");
        assert!(messages <= 2 * m + graph.n() as u64);
        assert!(rounds >= 4);
    }
}
