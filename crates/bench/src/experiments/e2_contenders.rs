//! **E2 — Lemma 1 (contender concentration).** The number of contenders
//! lies in `[¾·c1·ln n, 5/4·c1·ln n]` w.h.p.
//!
//! We run the actual Algorithm 1 sampling inside the protocol (single
//! 1-step phase so runs are cheap) and report the empirical band.

use crate::table::Table;
use crate::workloads::Family;
use welle_core::{Campaign, Election, ElectionConfig};

/// Runs the sweep.
pub fn run(quick: bool) -> Vec<Table> {
    let sizes: &[usize] = if quick {
        &[256, 512]
    } else {
        &[256, 512, 1024, 2048]
    };
    let reps = if quick { 10 } else { 30 };

    let mut table = Table::new(
        "E2 / Lemma 1: contender count vs [3/4, 5/4] c1 ln n band",
        &[
            "n",
            "E[X]=c1 ln n",
            "band_lo",
            "band_hi",
            "mean",
            "min",
            "max",
            "in_band",
        ],
    );
    for &n in sizes {
        let graph = Family::Expander.build(n, 5);
        let mut cfg = ElectionConfig::tuned_for_simulation(n);
        cfg.fixed_walk_len = Some(1); // sampling only needs one cheap phase
        let expect = cfg.c1 * (n as f64).ln();
        let lo = 0.75 * expect;
        let hi = 1.25 * expect;
        let campaign = Campaign::new(Election::on(&graph).config(cfg))
            .seeds(10_000..10_000 + reps)
            .run()
            .expect("experiment configs are valid");
        let counts: Vec<u64> = campaign
            .trials
            .iter()
            .map(|t| t.report.contenders as u64)
            .collect();
        let in_band = counts
            .iter()
            .filter(|&&c| (c as f64) >= lo && (c as f64) <= hi)
            .count();
        let mean = counts.iter().sum::<u64>() as f64 / counts.len() as f64;
        table.push_strings(vec![
            n.to_string(),
            format!("{expect:.1}"),
            format!("{lo:.1}"),
            format!("{hi:.1}"),
            format!("{mean:.1}"),
            counts.iter().min().unwrap().to_string(),
            counts.iter().max().unwrap().to_string(),
            format!("{in_band}/{reps}"),
        ]);
    }
    vec![table]
}

#[cfg(test)]
mod tests {
    #[test]
    fn quick_run_produces_rows() {
        let tables = super::run(true);
        assert!(!tables[0].is_empty());
    }
}
