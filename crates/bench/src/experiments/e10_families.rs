//! **E10 — §1 "Results" (per-family costs and the flooding crossover).**
//! For each family, normalized message and (FixedT) time ratios against
//! the paper's predictions — expanders `O(log³n)` time /
//! `O(√n·log^{9/2}n)` messages, hypercubes an extra `log log n` — plus
//! the flood-max `Ω(m·D)` baseline for the crossover: on dense
//! well-connected graphs our sublinear algorithm wins, on sparse graphs
//! the polylog factors only pay off asymptotically.

use crate::table::Table;
use crate::workloads::Family;
use welle_core::baselines::run_flood_max;
use welle_core::{Campaign, Election, ElectionConfig, SyncMode};
use welle_walks::{mixing_time, MixingOptions, StartPolicy};

/// Runs the family comparison.
pub fn run(quick: bool) -> Vec<Table> {
    let n = if quick { 256 } else { 1024 };
    let mut table = Table::new(
        "E10 / paper SS1 results: per-family costs vs flood-max baseline",
        &[
            "family",
            "n",
            "m",
            "t_mix",
            "welle_msgs",
            "flood_msgs",
            "welle/flood",
            "msgs/(sqrt n * tmix)",
        ],
    );
    // One Campaign over all four families (a `.families(...)` sweep);
    // t_mix and the flood-max baseline are per-family side computations.
    let mut scenarios = Vec::new();
    let mut tmixes = Vec::new();
    for fam in [
        Family::Expander,
        Family::Hypercube,
        Family::Clique,
        Family::Torus,
    ] {
        // Dense cliques and Θ(n)-mixing tori get sized down: their costs
        // grow like m and t_mix·√n respectively, and the row is about
        // normalized ratios, not scale records.
        let fam_n = match fam {
            Family::Clique => n / 2,
            Family::Torus => n.min(400),
            _ => n,
        };
        let scenario = fam.scenario(fam_n, 21);
        let tmix = mixing_time(
            &scenario.1,
            MixingOptions {
                horizon: 500_000,
                starts: StartPolicy::Sample(6),
            },
        )
        .expect("mixes") as f64;
        scenarios.push(scenario);
        tmixes.push(tmix);
    }
    let proto = Election::on(&scenarios[0].1).config(scenarios[0].2);
    let campaign = Campaign::new(proto)
        .label(scenarios[0].0.clone())
        .families(scenarios.iter().skip(1).cloned())
        .seeds([4])
        .run()
        .expect("experiment configs are valid");
    // Look trials up by scenario label rather than zipping positionally,
    // so a different seed count cannot silently misalign the rows.
    for ((label, graph, _), tmix) in scenarios.iter().zip(&tmixes) {
        let Some(trial) = campaign.trials_of(label).next() else {
            continue;
        };
        let ours = &trial.report;
        let flood = run_flood_max(graph, 4);
        if !ours.is_success() {
            continue;
        }
        let n_actual = graph.n();
        table.push_strings(vec![
            label.clone(),
            n_actual.to_string(),
            graph.m().to_string(),
            format!("{tmix:.0}"),
            ours.messages.to_string(),
            flood.messages.to_string(),
            format!("{:.2}", ours.messages as f64 / flood.messages as f64),
            format!(
                "{:.1}",
                ours.messages as f64 / ((n_actual as f64).sqrt() * tmix.max(1.0))
            ),
        ]);
    }

    // FixedT time check on one expander: decided_round vs t_mix·ln²n.
    let mut time_table = Table::new(
        "E10b / Theorem 13 time: FixedT decided round vs t_mix ln^2 n",
        &[
            "n",
            "t_mix",
            "pred=tmix*ln^2",
            "decided_round",
            "round/pred",
        ],
    );
    let n_t = if quick { 128 } else { 256 };
    let graph = Family::Expander.build(n_t, 8);
    let tmix = mixing_time(
        &graph,
        MixingOptions {
            horizon: 100_000,
            starts: StartPolicy::Sample(8),
        },
    )
    .expect("mixes") as f64;
    let cfg = ElectionConfig {
        sync: SyncMode::FixedT,
        ..ElectionConfig::tuned_for_simulation(n_t)
    };
    let r = Election::on(&graph)
        .config(cfg)
        .seed(6)
        .run()
        .expect("experiment configs are valid");
    if r.is_success() {
        let ln = (n_t as f64).ln();
        let pred = tmix * ln * ln;
        time_table.push_strings(vec![
            n_t.to_string(),
            format!("{tmix:.0}"),
            format!("{pred:.0}"),
            r.decided_round.to_string(),
            format!("{:.2}", r.decided_round as f64 / pred),
        ]);
    }
    vec![table, time_table]
}

#[cfg(test)]
mod tests {
    #[test]
    fn quick_run_covers_families() {
        let tables = super::run(true);
        assert!(tables[0].len() >= 3);
    }
}
