//! **E3 — Lemmas 3 & 6 (safety of guess-and-double).** Every contender
//! stops with a walk length `t_u = O(t_mix)`; in practice the properties
//! certify at or below `t_mix`, and the doubling overhead is at most the
//! final guess again.

use crate::table::Table;
use crate::workloads::{seeds, Family};
use welle_core::{Campaign, Election};
use welle_walks::{mixing_time, MixingOptions, StartPolicy};

/// Runs the sweep.
pub fn run(quick: bool) -> Vec<Table> {
    let sizes: &[usize] = if quick {
        &[128, 256]
    } else {
        &[128, 256, 512, 1024]
    };
    let families = [Family::Expander, Family::Hypercube, Family::Clique];
    let mut table = Table::new(
        "E3 / Lemma 3+6: final guess t_u vs t_mix (stop by O(t_mix))",
        &["family", "n", "t_mix", "final_t_u", "t_u/t_mix", "epochs"],
    );
    for fam in families {
        for &n in sizes {
            if fam == Family::Clique && n > 512 {
                continue;
            }
            let graph = fam.build(n, 31);
            let n_actual = graph.n();
            let tmix = mixing_time(
                &graph,
                MixingOptions {
                    horizon: 100_000,
                    starts: StartPolicy::Sample(8),
                },
            )
            .expect("mixes");
            let cfg = fam.election_config(n_actual);
            let campaign = Campaign::new(Election::on(&graph).config(cfg))
                .label(fam.name())
                .seeds(seeds(if quick { 1 } else { 2 }))
                .run()
                .expect("experiment configs are valid");
            for t in campaign.trials.iter().filter(|t| t.report.is_success()) {
                let r = &t.report;
                table.push_strings(vec![
                    fam.name().into(),
                    n_actual.to_string(),
                    tmix.to_string(),
                    r.final_walk_len.to_string(),
                    format!("{:.2}", r.final_walk_len as f64 / tmix.max(1) as f64),
                    r.epochs_used.to_string(),
                ]);
            }
        }
    }
    vec![table]
}

#[cfg(test)]
mod tests {
    #[test]
    fn quick_run_produces_rows() {
        let tables = super::run(true);
        assert!(!tables[0].is_empty());
        // Safety: the final guess never exceeds a large multiple of t_mix
        // on these families (columns hold the ratio; parse and check).
        for row in tables[0].to_csv().lines().skip(1) {
            let ratio: f64 = row.split(',').nth(4).unwrap().parse().unwrap();
            assert!(ratio <= 8.0, "t_u/t_mix ratio {ratio} too large");
        }
    }
}
