//! Election-level execution pins under latency and faults.
//!
//! The other pinned election rows are all fault-free and synchronous.
//! These pin the full `ElectionReport::csv_row` of two golden graphs
//! under log-normal latency, a message-drop plan and a delay-plus-crash
//! plan, on a single election and on a pooled two-worker campaign, so a
//! refactor of the engines or the trial runner cannot change a single
//! report byte on the latent and faulted paths.

use std::sync::Arc;

use rand::{rngs::StdRng, SeedableRng};
use welle_core::{
    Campaign, Election, ElectionConfig, Exec, FaultPlan, LatencyModel, TelemetryConfig,
};
use welle_graph::{Graph, GraphBuilder};

fn random_connected(n: usize, extra: usize, seed: u64) -> Arc<Graph> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = GraphBuilder::new(n);
    for child in 1..n {
        let parent = rand::RngExt::random_range(&mut rng, 0..child);
        b.add_edge(parent, child).unwrap();
    }
    for _ in 0..extra {
        let u = rand::RngExt::random_range(&mut rng, 0..n);
        let v = rand::RngExt::random_range(&mut rng, 0..n);
        if u != v && !b.has_edge(u, v) {
            b.add_edge(u, v).unwrap();
        }
    }
    Arc::new(b.build().unwrap())
}

/// One election configured by `setting` on `g`.
fn election<'g>(g: &'g Arc<Graph>, seed: u64, setting: &str) -> Election<'g, 'static> {
    let mut cfg = ElectionConfig::tuned_for_simulation(g.n());
    cfg.max_walk_len = Some(64);
    // Telemetry fills the per-phase columns of the row.
    let e = Election::on(g)
        .config(cfg)
        .seed(seed)
        .telemetry(TelemetryConfig::ring(0));
    match setting {
        "lognormal" => e.executor(Exec::Async(LatencyModel::log_normal(0.3, 0.6).seed(seed))),
        "drop" => e.faults(FaultPlan::new(seed).drop_rate(0.05)),
        "delay-crash" => e.faults(
            FaultPlan::new(seed)
                .random_delays(2)
                .crash_fraction(0.05, 40),
        ),
        other => panic!("unknown setting {other}"),
    }
}

/// `(n, extra, graph seed, setting, pinned csv row)`; the election seed
/// is `graph seed ^ 0x5EED`. Re-captured when reverse units began
/// leaving every relay by its earliest recorded visit: latency samples
/// and drop coins are keyed on the round a message crosses, so these
/// executions change with the routes. The `bits` column alone was
/// re-captured when routed units stopped carrying a route step. All six
/// rows were re-captured when proxies began sending their round-1 `I1`
/// in units of four ids: round 1 then sends fewer units and ends sooner,
/// and since drop coins and latency samples are keyed on the crossing
/// round, the later epochs' walks change (the n = 40 log-normal row now
/// decides at walk length 32, not 64). All six were re-captured again
/// when forward units began following the tree the round-1 replies came
/// by instead of every walk edge, with the winner's notice doing its
/// stop mark's job: fewer forward units cross each round, and since
/// drop coins and latency samples are keyed on the crossing round, the
/// later walks change (the n = 40 drop row's `gave_up` went 9 → 10).
const PINS: [(usize, usize, u64, &str, &str); 6] = [
    (48, 40, 11, "lognormal", "48,84,12,1,4862562,7927,382844,590,639,32,6,0,0,0,639,204,146,103,78,90,3165,2656,672,674,760,true"),
    (48, 40, 11, "drop", "48,84,12,0,,10280,440599,384,392,64,7,8,567,0,392,175,109,44,38,26,6158,2451,726,721,224,false"),
    (48, 40, 11, "delay-crash", "48,84,12,0,,8367,343113,533,552,64,7,9,471,5,552,259,113,82,68,23,5354,1723,609,599,82,false"),
    (40, 24, 7, "lognormal", "40,63,16,1,2304460,8294,401958,645,673,32,6,0,0,0,673,204,171,106,73,87,3220,3111,675,676,612,true"),
    (40, 24, 7, "drop", "40,63,16,0,,11874,506259,440,447,64,7,10,636,0,447,207,129,44,41,26,7116,2961,748,802,247,false"),
    (40, 24, 7, "delay-crash", "40,63,16,1,2304460,9968,465868,636,651,64,7,2,18,1,651,270,149,85,61,83,4593,3274,716,718,667,true"),
];

#[test]
fn latent_and_faulted_elections_match_their_pins() {
    for (n, extra, gseed, setting, pinned) in PINS {
        let g = random_connected(n, extra, gseed);
        let seed = gseed ^ 0x5EED;
        let label = format!("n={n} extra={extra} seed={gseed} {setting}");
        let row = election(&g, seed, setting).run().unwrap().csv_row();
        assert_eq!(row, pinned, "{label}: single election drifted from its pin");
        // The pooled trial runner must reproduce the same row on every
        // worker, and on an engine reused from an earlier trial.
        let report = Campaign::new(election(&g, seed, setting))
            .seeds([seed; 4])
            .trial_threads(2)
            .run()
            .unwrap();
        for trial in &report.trials {
            assert_eq!(
                trial.report.csv_row(),
                pinned,
                "{label}: pooled trial drifted"
            );
        }
    }
}
