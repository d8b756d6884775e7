//! **E5 — Figures 1–2 & Lemma 16 (the lower-bound construction).**
//! Builds `G(n, ε)` across ε and verifies the claimed structure: uniform
//! degrees, 4 inter-clique edges per clique, connectivity, and
//! conductance `φ = Θ(α) = Θ(n^{-2ε})` (measured by the spectral sweep
//! and by the best clique-respecting cut).

use crate::table::Table;
use rand::{rngs::StdRng, SeedableRng};
use welle_graph::analysis;
use welle_graph::gen::{CliqueOfCliques, CliqueOfCliquesParams};

/// Runs the ε sweep.
pub fn run(quick: bool) -> Vec<Table> {
    let target_n = if quick { 600 } else { 2000 };
    let epsilons: &[f64] = if quick {
        &[0.25, 0.35]
    } else {
        &[0.20, 0.25, 0.30, 0.35, 0.40]
    };

    let mut table = Table::new(
        "E5 / Lemma 16: lower-bound graph G(n, eps), phi = Theta(alpha)",
        &[
            "eps",
            "n",
            "cliques",
            "s",
            "degree_ok",
            "inter_edges",
            "alpha",
            "phi_sweep",
            "phi_cliquecut",
            "phi/alpha",
        ],
    );
    let mut rng = StdRng::seed_from_u64(42);
    for &eps in epsilons {
        let lb = CliqueOfCliques::build(CliqueOfCliquesParams::new(target_n, eps), &mut rng)
            .expect("construction succeeds");
        let g = lb.graph();
        let s = lb.clique_size();
        let degree_ok = g.is_regular(s - 1);
        assert!(analysis::is_connected(g), "construction must be connected");
        let alpha = lb.alpha();
        let phi_sweep = analysis::conductance_sweep(g, 3000);
        // Best balanced clique-respecting cut (Claim 17's optimal shape).
        let ncl = lb.num_cliques();
        let cut: Vec<bool> = (0..ncl).map(|c| c < ncl / 2).collect();
        let phi_cut = lb
            .clique_respecting_cut_conductance(&cut)
            .expect("nontrivial cut");
        table.push_strings(vec![
            format!("{eps:.2}"),
            g.n().to_string(),
            ncl.to_string(),
            s.to_string(),
            degree_ok.to_string(),
            lb.inter_edge_count().to_string(),
            format!("{alpha:.2e}"),
            format!("{phi_sweep:.2e}"),
            format!("{phi_cut:.2e}"),
            format!("{:.2}", phi_sweep / alpha),
        ]);
    }
    vec![table]
}

#[cfg(test)]
mod tests {
    #[test]
    fn quick_sweep_valid() {
        let tables = super::run(true);
        for row in tables[0].to_csv().lines().skip(1) {
            let cols: Vec<&str> = row.split(',').collect();
            assert_eq!(cols[4], "true", "degrees must be uniform: {row}");
            let ratio: f64 = cols[9].parse().unwrap();
            assert!(
                ratio > 0.02 && ratio < 100.0,
                "phi/alpha ratio {ratio} outside Theta(1) band"
            );
        }
    }
}
