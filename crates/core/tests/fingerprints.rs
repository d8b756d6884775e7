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
/// is `graph seed ^ 0x5EED`.
const PINS: [(usize, usize, u64, &str, &str); 6] = [
    (48, 40, 11, "lognormal", "48,84,12,1,4862562,15478,737310,968,989,32,6,0,0,0,989,206,405,100,146,116,2463,8522,1256,1649,1588,true"),
    (48, 40, 11, "drop", "48,84,12,0,,25666,1159357,672,685,64,7,10,1394,0,685,181,298,64,112,30,7857,10102,3578,2782,1347,false"),
    (48, 40, 11, "delay-crash", "48,84,12,0,,16332,735874,853,873,64,7,9,803,5,873,259,302,94,185,26,5354,5760,2336,2127,755,false"),
    (40, 24, 7, "lognormal", "40,63,16,1,2304460,23872,1109627,1658,1678,64,7,1,0,0,1678,366,756,131,249,154,3724,14284,1692,2236,1936,true"),
    (40, 24, 7, "drop", "40,63,16,0,,29990,1320061,927,947,64,7,13,1624,0,947,214,498,72,124,39,8289,13753,3494,2951,1503,false"),
    (40, 24, 7, "delay-crash", "40,63,16,1,2304460,30779,1444712,1385,1404,64,7,2,37,1,1404,270,775,95,167,96,4593,19829,1927,2737,1693,true"),
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
