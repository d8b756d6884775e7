//! **E11 — Corollaries 26–27 (broadcast & spanning tree need Ω(n/√φ)).**
//! On the lower-bound family, both tasks must discover all `n^{1-ε}`
//! cliques at `Ω(n^{2ε})` messages each: `Ω(n·n^ε) = Ω(n/√φ)` total. We
//! measure push–pull broadcast (until all informed) and BFS spanning
//! tree construction and compare with the envelope.

use crate::table::Table;
use rand::{rngs::StdRng, SeedableRng};
use std::sync::Arc;
use welle_core::broadcast::run_push_pull;
use welle_graph::analysis;
use welle_graph::gen::{CliqueOfCliques, CliqueOfCliquesParams};
use welle_graph::NodeId;
use welle_lowerbound::bfs_tree_cost;

/// Runs the ε sweep.
pub fn run(quick: bool) -> Vec<Table> {
    let target_n = if quick { 400 } else { 1000 };
    let eps_list: &[f64] = if quick {
        &[0.3]
    } else {
        &[0.2, 0.25, 0.3, 0.35]
    };
    let mut table = Table::new(
        "E11 / Cor 26-27: broadcast & spanning tree vs n/sqrt(phi) envelope",
        &[
            "eps",
            "n",
            "phi",
            "envelope",
            "bcast_msgs",
            "bcast/env",
            "bfs_msgs",
            "bfs/env",
        ],
    );
    let mut rng = StdRng::seed_from_u64(23);
    for &eps in eps_list {
        let lb = CliqueOfCliques::build(CliqueOfCliquesParams::new(target_n, eps), &mut rng)
            .expect("construction");
        let graph = Arc::new(lb.graph().clone());
        let n = graph.n() as f64;
        let phi = analysis::conductance_sweep(&graph, 3000).max(1e-9);
        let envelope = n / phi.sqrt();
        let bcast = run_push_pull(&graph, 0, 42, 10_000_000, 5);
        let (bfs_msgs, _) = bfs_tree_cost(&graph, NodeId::new(0), 5);
        table.push_strings(vec![
            format!("{eps:.2}"),
            format!("{n}"),
            format!("{phi:.2e}"),
            format!("{envelope:.0}"),
            bcast.messages.to_string(),
            format!("{:.2}", bcast.messages as f64 / envelope),
            bfs_msgs.to_string(),
            format!("{:.2}", bfs_msgs as f64 / envelope),
        ]);
        assert!(bcast.all_informed, "broadcast must complete");
    }
    vec![table]
}

#[cfg(test)]
mod tests {
    #[test]
    fn quick_costs_scale_with_envelope() {
        let tables = super::run(true);
        for row in tables[0].to_csv().lines().skip(1) {
            let cols: Vec<&str> = row.split(',').collect();
            let bcast_ratio: f64 = cols[5].parse().unwrap();
            // Θ(1) band around the envelope (constants are generous).
            assert!(
                bcast_ratio > 0.02 && bcast_ratio < 50.0,
                "broadcast ratio {bcast_ratio} outside band: {row}"
            );
        }
    }
}
