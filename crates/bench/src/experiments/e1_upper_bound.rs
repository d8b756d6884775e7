//! **E1 — Theorem 13 (upper bound).** Messages `O(√n·log^{7/2}n·t_mix)`
//! and time `O(t_mix·log²n)` across well-connected families.
//!
//! For each family × n we report the measured message count, the
//! normalized ratio `messages / (√n·t_mix)` (which must grow only
//! polylogarithmically), and the fitted log-log growth exponent of
//! messages in `n` (which must stay well below 1 — sublinearity — and
//! near ½ up to polylog drift). The summary also says whether messages
//! at the family's largest `n` stay below its edge count `m`. They fall
//! below `m` only once `√n·polylog(n)·t_mix < m`: a clique gets there
//! at small `n`, while sparse families (`m = Θ(n)` or `Θ(n log n)`)
//! need a larger `n` than the quick sweep runs.

use crate::log_log_slope;
use crate::table::Table;
use crate::workloads::{mean, seeds, Family};
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
    let nseeds = if quick { 2 } else { 3 };

    let mut table = Table::new(
        "E1 / Theorem 13: messages = O(sqrt(n) polylog n * t_mix)",
        &[
            "family",
            "n",
            "m",
            "t_mix",
            "messages",
            "msgs/(sqrt(n)*tmix)",
            "rounds",
        ],
    );
    let mut summary = Table::new(
        "E1 summary: fitted growth exponent of messages vs n (1.0 = linear)",
        &["family", "exponent", "sublinear_in_m"],
    );

    for fam in families {
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        // Messages and edges at the largest n measured so far.
        let mut largest = None;
        for &n in sizes {
            if fam == Family::Clique && n > 512 {
                continue; // m = Θ(n²) graphs get heavy; 512 suffices for the fit
            }
            let graph = fam.build(n, 77);
            let n_actual = graph.n();
            let tmix = mixing_time(
                &graph,
                MixingOptions {
                    horizon: 100_000,
                    starts: StartPolicy::Sample(8),
                },
            )
            .expect("family mixes") as f64;
            let cfg = fam.election_config(n_actual);
            let campaign = Campaign::new(Election::on(&graph).config(cfg))
                .label(fam.name())
                .seeds(seeds(nseeds))
                .run()
                .expect("experiment configs are valid");
            let successes: Vec<_> = campaign
                .trials
                .iter()
                .filter(|t| t.report.is_success())
                .collect();
            let msgs: Vec<u64> = successes.iter().map(|t| t.report.messages).collect();
            let rounds: Vec<u64> = successes.iter().map(|t| t.report.engine_rounds).collect();
            if msgs.is_empty() {
                continue;
            }
            let m_mean = mean(&msgs);
            let normalized = m_mean / ((n_actual as f64).sqrt() * tmix.max(1.0));
            table.push_strings(vec![
                fam.name().into(),
                n_actual.to_string(),
                graph.m().to_string(),
                format!("{tmix:.0}"),
                format!("{m_mean:.0}"),
                format!("{normalized:.1}"),
                format!("{:.0}", mean(&rounds)),
            ]);
            xs.push(n_actual as f64);
            ys.push(m_mean);
            largest = Some((m_mean, graph.m() as f64));
        }
        if let Some((msgs, m)) = largest.filter(|_| xs.len() >= 2) {
            let slope = log_log_slope(&xs, &ys);
            summary.push_strings(vec![
                fam.name().into(),
                format!("{slope:.2}"),
                (msgs < m).to_string(),
            ]);
        }
    }
    vec![table, summary]
}

#[cfg(test)]
mod tests {
    #[test]
    fn quick_run_produces_rows() {
        let tables = super::run(true);
        assert_eq!(tables.len(), 2);
        assert!(!tables[0].is_empty());
    }
}
