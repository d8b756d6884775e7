//! **E9 — Corollary 14 (explicit election).** Implicit election plus
//! push–pull broadcast; on well-connected graphs the broadcast's
//! `Θ(n·log n/φ)` messages dominate the sublinear election — the paper's
//! closing observation (§6).

use crate::table::Table;
use crate::workloads::Family;
use welle_core::broadcast::run_explicit_election;
use welle_graph::analysis;

/// Runs the n sweep on expanders.
pub fn run(quick: bool) -> Vec<Table> {
    let sizes: &[usize] = if quick {
        &[256]
    } else {
        &[256, 512, 1024, 2048]
    };
    let mut table = Table::new(
        "E9 / Corollary 14: explicit = implicit + push-pull broadcast",
        &[
            "n",
            "phi",
            "elect_msgs",
            "bcast_msgs",
            "bcast_pred=n ln n/phi",
            "bcast/pred",
            "bcast/elect",
            "rounds",
        ],
    );
    for &n in sizes {
        let graph = Family::Expander.build(n, 3);
        let phi = analysis::conductance_sweep(&graph, 2000);
        let cfg = Family::Expander.election_config(n);
        let report = run_explicit_election(&graph, &cfg, 500_000, 9);
        let Some(b) = report.broadcast else { continue };
        let pred = n as f64 * (n as f64).ln() / phi;
        table.push_strings(vec![
            n.to_string(),
            format!("{phi:.3}"),
            report.election.messages.to_string(),
            b.messages.to_string(),
            format!("{pred:.0}"),
            format!("{:.2}", b.messages as f64 / pred),
            format!("{:.2}", b.messages as f64 / report.election.messages as f64),
            b.rounds.to_string(),
        ]);
    }
    vec![table]
}

#[cfg(test)]
mod tests {
    #[test]
    fn quick_run_completes_broadcast() {
        let tables = super::run(true);
        assert!(!tables[0].is_empty());
    }
}
