//! **E12 — the price of not knowing t_mix (vs Kutten et al. \[25\]).**
//! Three runs per size: (a) guess-and-double (this paper), (b) the \[25\]
//! baseline with a conservatively known `2·t_mix`, (c) the \[25\] baseline
//! handed the *oracle* max stopping length of run (a). Two repeated
//! findings: guess-and-double stops below `t_mix` (the properties
//! certify early), so conservative knowledge of `t_mix` is *not*
//! automatically cheaper; and even the oracle-at-max baseline can lose
//! to guessing, because contenders stop at *staggered* epochs — most
//! quit cheaper than the maximum, while the single-phase baseline makes
//! everyone walk the full length.

use crate::table::Table;
use crate::workloads::Family;
use welle_core::baselines::run_known_tmix_election;
use welle_core::Election;
use welle_walks::{mixing_time, MixingOptions, StartPolicy};

/// Runs the comparison.
pub fn run(quick: bool) -> Vec<Table> {
    let sizes: &[usize] = if quick {
        &[128]
    } else {
        &[128, 256, 512, 1024]
    };
    let mut table = Table::new(
        "E12 / vs Kutten'15 [25]: guess-and-double vs known t_mix",
        &[
            "n",
            "t_mix",
            "guess_msgs",
            "stop_len",
            "known2tmix_msgs",
            "oracle_msgs",
            "known/guess",
            "oracle/guess",
        ],
    );
    for &n in sizes {
        let graph = Family::Expander.build(n, 9);
        let tmix = mixing_time(
            &graph,
            MixingOptions {
                horizon: 100_000,
                starts: StartPolicy::Sample(8),
            },
        )
        .expect("mixes");
        let cfg = Family::Expander.election_config(n);
        let guess = Election::on(&graph)
            .config(cfg)
            .seed(3)
            .run()
            .expect("experiment configs are valid");
        if !guess.is_success() {
            continue;
        }
        let known = run_known_tmix_election(&graph, &cfg, tmix, 2, 3);
        let oracle = run_known_tmix_election(&graph, &cfg, guess.final_walk_len, 1, 3);
        table.push_strings(vec![
            n.to_string(),
            tmix.to_string(),
            guess.messages.to_string(),
            guess.final_walk_len.to_string(),
            known.messages.to_string(),
            oracle.messages.to_string(),
            format!("{:.2}", known.messages as f64 / guess.messages as f64),
            format!("{:.2}", oracle.messages as f64 / guess.messages as f64),
        ]);
    }
    vec![table]
}

#[cfg(test)]
mod tests {
    #[test]
    fn oracle_beats_conservative_knowledge() {
        let tables = super::run(true);
        for row in tables[0].to_csv().lines().skip(1) {
            let cols: Vec<&str> = row.split(',').collect();
            let known_ratio: f64 = cols[6].parse().unwrap();
            let oracle_ratio: f64 = cols[7].parse().unwrap();
            // Robust orderings: the oracle never pays more than the
            // conservative 2·t_mix baseline, and neither baseline is more
            // than a small factor from guess-and-double.
            assert!(
                oracle_ratio <= known_ratio + 1e-9,
                "oracle must not exceed conservative baseline: {row}"
            );
            assert!(oracle_ratio < 4.0 && known_ratio < 8.0, "{row}");
        }
    }
}
