//! **E13 — ablations of the design constants** (not a paper table; a
//! study of this implementation's design choices). Sweeps the three
//! constants the algorithm exposes and reports their cost/reliability
//! trade-offs:
//!
//! * `c1` (contender density): too low ⇒ zero-leader tails (the
//!   intersection threshold cannot be met); higher ⇒ more traffic.
//! * `c2` (walk budget): too low ⇒ proxy sets too sparse to intersect;
//!   higher ⇒ message cost grows linearly in `c2`.
//! * `c_T` (schedule stretch, FixedT): pure time/robustness trade — the
//!   message count is unaffected, the decided round scales with `c_T`.

use crate::table::Table;
use crate::workloads::Family;
use welle_core::{Campaign, Election, ElectionConfig, SyncMode};

/// Runs the three sweeps.
pub fn run(quick: bool) -> Vec<Table> {
    let n = if quick { 128 } else { 256 };
    let reps = if quick { 3 } else { 8 };
    let graph = Family::Expander.build(n, 55);
    let base = ElectionConfig::tuned_for_simulation(n);

    let mut c1_table = Table::new(
        "E13a ablation: contender constant c1 (reliability vs cost)",
        &[
            "c1",
            "runs",
            "unique",
            "zero",
            "mean_msgs",
            "mean_contenders",
        ],
    );
    for c1 in [1.0f64, 2.0, 4.0, 8.0] {
        let cfg = ElectionConfig { c1, ..base };
        let campaign = Campaign::new(Election::on(&graph).config(cfg))
            .seeds(900..900 + reps)
            .run()
            .expect("experiment configs are valid");
        let s = campaign.summary();
        let conts: u64 = campaign
            .trials
            .iter()
            .map(|t| t.report.contenders as u64)
            .sum();
        c1_table.push_strings(vec![
            format!("{c1}"),
            s.trials.to_string(),
            s.successes.to_string(),
            s.no_leader.to_string(),
            format!("{:.0}", s.messages.mean),
            format!("{:.1}", conts as f64 / s.trials as f64),
        ]);
    }

    let mut c2_table = Table::new(
        "E13b ablation: walk budget constant c2 (messages scale ~ c2)",
        &[
            "c2",
            "runs",
            "unique",
            "zero",
            "mean_msgs",
            "mean_final_t_u",
        ],
    );
    for c2 in [0.5f64, 1.0, 2.0] {
        let cfg = ElectionConfig { c2, ..base };
        let campaign = Campaign::new(Election::on(&graph).config(cfg))
            .seeds(300..300 + reps)
            .run()
            .expect("experiment configs are valid");
        let s = campaign.summary();
        let tu: u64 = campaign
            .trials
            .iter()
            .map(|t| t.report.final_walk_len as u64)
            .sum();
        c2_table.push_strings(vec![
            format!("{c2}"),
            s.trials.to_string(),
            s.successes.to_string(),
            s.no_leader.to_string(),
            format!("{:.0}", s.messages.mean),
            format!("{:.1}", tu as f64 / s.trials as f64),
        ]);
    }

    let mut ct_table = Table::new(
        "E13c ablation: schedule stretch c_T (FixedT; time scales, messages don't)",
        &["c_T", "decided_round", "messages", "success"],
    );
    for c_t in [0.5f64, 1.0, 2.0] {
        let cfg = ElectionConfig {
            c_t,
            sync: SyncMode::FixedT,
            ..base
        };
        let r = Election::on(&graph)
            .config(cfg)
            .seed(77)
            .run()
            .expect("experiment configs are valid");
        ct_table.push_strings(vec![
            format!("{c_t}"),
            r.decided_round.to_string(),
            r.messages.to_string(),
            r.is_success().to_string(),
        ]);
    }

    vec![c1_table, c2_table, ct_table]
}

#[cfg(test)]
mod tests {
    #[test]
    fn ablations_produce_all_three_tables() {
        let tables = super::run(true);
        assert_eq!(tables.len(), 3);
        assert!(tables.iter().all(|t| !t.is_empty()));
    }
}
