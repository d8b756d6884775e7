//! **E14 — resilience under adversarial network conditions.**
//!
//! The paper analyzes a reliable synchronous CONGEST model; this
//! experiment measures how the w.h.p. election guarantee degrades when
//! the network misbehaves, on a well-connected expander versus the
//! poorly-connected §5 dumbbell:
//!
//! * **drop sweep** — success rate and message/round inflation vs the
//!   i.i.d. per-message drop rate. Light loss is absorbed by extra
//!   guess-and-double epochs (inflation), heavy loss starves the
//!   Intersection/Distinctness certificates and the contenders give up.
//! * **crash sweep** — success rate vs the fraction of nodes
//!   crash-stopped mid-election.
//!
//! Reference curves are curated in `results/resilience_curves.md`.

use std::sync::Arc;

use rand::{rngs::StdRng, SeedableRng};
use welle_core::{Campaign, CampaignSummary, Election, ElectionConfig, FaultPlan, Trial};
use welle_graph::{gen, Graph};

use crate::table::Table;

/// The two topologies contrasted: well-connected vs barely-connected.
fn families(n: usize) -> Vec<(&'static str, Arc<Graph>, ElectionConfig)> {
    let mut rng = StdRng::seed_from_u64(n as u64 ^ 0xE14);
    let expander = Arc::new(gen::random_regular(n, 4, &mut rng).expect("expander"));
    // Dumbbell of two opened (n/2)-node expanders joined by two bridges:
    // mixing is bridge-bound, the walk cap scales with n accordingly.
    let base = gen::random_regular(n / 2, 4, &mut rng).expect("dumbbell base");
    let dumbbell = Arc::new(
        gen::dumbbell(&base, &mut rng)
            .expect("dumbbell")
            .into_graph(),
    );
    let cfg_exp = ElectionConfig {
        max_walk_len: Some(512),
        ..ElectionConfig::tuned_for_simulation(expander.n())
    };
    let cfg_db = ElectionConfig {
        max_walk_len: Some((8 * n) as u32),
        ..ElectionConfig::tuned_for_simulation(dumbbell.n())
    };
    vec![
        ("expander", expander, cfg_exp),
        ("dumbbell", dumbbell, cfg_db),
    ]
}

/// Sweeps one fault axis over every family with one [`Campaign`] per
/// family, and rows the per-scenario summaries against the clean
/// control.
fn sweep(
    table: &mut Table,
    n: usize,
    seeds: std::ops::Range<u64>,
    axis: &[(String, Option<FaultPlan>)],
) {
    for (family, graph, cfg) in families(n) {
        let mut campaign = Campaign::new(Election::on(&graph).config(cfg)).label("sentinel");
        for (label, plan) in axis {
            campaign = campaign.scenario(label.clone(), &graph, cfg);
            if let Some(plan) = plan {
                campaign = campaign.faults(plan.clone());
            }
        }
        let outcome = campaign
            .without_base()
            .seeds(seeds.clone())
            .run()
            .expect("experiment configs are valid");
        let baseline = outcome.summaries[0].clone();
        for summary in &outcome.summaries {
            push_row(
                table,
                family,
                summary,
                &baseline,
                outcome.trials_of(&summary.scenario),
            );
        }
    }
}

fn push_row<'a>(
    table: &mut Table,
    family: &str,
    summary: &CampaignSummary,
    baseline: &CampaignSummary,
    trials: impl Iterator<Item = &'a Trial>,
) {
    let dropped: u64 = trials.map(|t| t.report.dropped_messages).sum();
    let inflate = |x: u64, base: u64| {
        if base == 0 {
            "-".to_string()
        } else {
            format!("{:.2}", x as f64 / base as f64)
        }
    };
    table.push_strings(vec![
        family.to_string(),
        summary.scenario.clone(),
        summary.n.to_string(),
        format!("{:.2}", summary.success_rate()),
        summary.messages.median.to_string(),
        inflate(summary.messages.median, baseline.messages.median),
        summary.rounds.median.to_string(),
        inflate(summary.rounds.median, baseline.rounds.median),
        summary.gave_up.to_string(),
        dropped.to_string(),
    ]);
}

const COLUMNS: [&str; 10] = [
    "family",
    "scenario",
    "n",
    "success",
    "msgs_med",
    "msg_x",
    "rounds_med",
    "round_x",
    "gave_up",
    "dropped",
];

/// Runs the resilience sweeps.
pub fn run(quick: bool) -> Vec<Table> {
    let n = if quick { 64 } else { 256 };
    let seeds = if quick { 1..4u64 } else { 1..11u64 };

    // Drop-rate axis: the interesting transition lives below ~5%
    // (measured; see results/resilience_curves.md).
    let rates: &[f64] = if quick {
        &[0.0, 0.005, 0.05]
    } else {
        &[0.0, 0.001, 0.005, 0.01, 0.02, 0.05]
    };
    let mut drops = Table::new(
        "E14 / resilience: success and inflation vs i.i.d. drop rate",
        &COLUMNS,
    );
    let axis: Vec<(String, Option<FaultPlan>)> = rates
        .iter()
        .map(|&p| {
            let plan = (p > 0.0).then(|| FaultPlan::new(0xD0).drop_rate(p));
            (format!("p={p}"), plan)
        })
        .collect();
    sweep(&mut drops, n, seeds.clone(), &axis);

    // Crash axis: a fraction of all nodes crash-stops mid-election.
    let fractions: &[f64] = if quick {
        &[0.0, 0.2, 0.6]
    } else {
        &[0.0, 0.05, 0.1, 0.2, 0.4, 0.8]
    };
    let crash_at = 100;
    let mut crashes = Table::new(
        "E14b / resilience: success vs crash-stop fraction (at round 100)",
        &COLUMNS,
    );
    let axis: Vec<(String, Option<FaultPlan>)> = fractions
        .iter()
        .map(|&f| {
            let plan = (f > 0.0).then(|| FaultPlan::new(0xC4).crash_fraction(f, crash_at));
            (format!("f={f}"), plan)
        })
        .collect();
    sweep(&mut crashes, n, seeds, &axis);

    vec![drops, crashes]
}

#[cfg(test)]
mod tests {
    #[test]
    fn quick_run_covers_both_axes_and_families() {
        let tables = super::run(true);
        assert_eq!(tables.len(), 2);
        // 2 families × 3 scenarios each.
        assert_eq!(tables[0].len(), 6);
        assert_eq!(tables[1].len(), 6);
    }
}
