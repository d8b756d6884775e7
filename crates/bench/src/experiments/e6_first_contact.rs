//! **E6 — Lemma 18 (first inter-clique contact costs Ω(n^{2ε})).** Three
//! measurements: the closed form `(P+1)/(X+1)`, the isolated
//! port-probing simulation (these two must and do agree — this is the
//! process the proof analyses), and, for context, the *actual election
//! protocol* on the lower-bound graph (per-clique messages before its
//! first inter-clique send). The in-vivo number sits *below* the
//! sequential-probing expectation because contenders burst `√n·log n`
//! walks across all their ports at once — a burst of `b` messages
//! covers ports like `b` sequential probes but the "first contact"
//! cut-off lands mid-burst. Lemma 18 is about algorithms constrained to
//! a small message budget, which the walk burst deliberately is not.

use crate::table::Table;
use rand::{rngs::StdRng, SeedableRng};
use welle_core::ElectionConfig;
use welle_graph::gen::{CliqueOfCliques, CliqueOfCliquesParams};
use welle_lowerbound::{
    expected_first_contact, mean_first_contact, run_election_on_lower_bound, ProbeStrategy,
};

/// Runs the sweep over clique sizes.
pub fn run(quick: bool) -> Vec<Table> {
    let mut probe = Table::new(
        "E6a / Lemma 18: probes to first external port (ports = s^2, 4 external)",
        &["s", "ports", "closed_form", "simulated", "ratio"],
    );
    let mut rng = StdRng::seed_from_u64(7);
    let sizes: &[u64] = if quick { &[8, 16] } else { &[8, 16, 32, 64] };
    for &s in sizes {
        let ports = s * s;
        let exact = expected_first_contact(ports, 4);
        let sim = mean_first_contact(ports, 4, ProbeStrategy::UniformRandom, 20_000, &mut rng);
        probe.push_strings(vec![
            s.to_string(),
            ports.to_string(),
            format!("{exact:.1}"),
            format!("{sim:.1}"),
            format!("{:.3}", sim / exact),
        ]);
    }

    let mut protocol = Table::new(
        "E6b / Lemma 18 in vivo: election traffic before first inter-clique send",
        &[
            "eps",
            "s",
            "ports~s^2",
            "cliques",
            "mean_first_contact",
            "vs_s^2",
        ],
    );
    let eps_list: &[f64] = if quick { &[0.3] } else { &[0.25, 0.3, 0.35] };
    for &eps in eps_list {
        let lb = CliqueOfCliques::build(
            CliqueOfCliquesParams::new(if quick { 250 } else { 600 }, eps),
            &mut rng,
        )
        .expect("construction");
        let mut cfg = ElectionConfig::tuned_for_simulation(lb.graph().n());
        cfg.max_walk_len = Some(1024);
        let run = run_election_on_lower_bound(&lb, &cfg, 3);
        let costs = &run.first_contact_costs;
        if costs.is_empty() {
            continue;
        }
        let mean = costs.iter().sum::<u64>() as f64 / costs.len() as f64;
        let s = lb.clique_size() as f64;
        protocol.push_strings(vec![
            format!("{eps:.2}"),
            format!("{s}"),
            format!("{:.0}", s * s),
            run.num_cliques.to_string(),
            format!("{mean:.1}"),
            format!("{:.2}", mean / (s * s)),
        ]);
    }
    vec![probe, protocol]
}

#[cfg(test)]
mod tests {
    #[test]
    fn quick_probe_matches_closed_form() {
        let tables = super::run(true);
        for row in tables[0].to_csv().lines().skip(1) {
            let ratio: f64 = row.split(',').nth(4).unwrap().parse().unwrap();
            assert!((ratio - 1.0).abs() < 0.1, "probe sim vs closed form: {row}");
        }
    }
}
