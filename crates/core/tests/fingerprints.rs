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
/// re-captured when routed units stopped carrying a route step.
const PINS: [(usize, usize, u64, &str, &str); 6] = [
    (48, 40, 11, "lognormal", "48,84,12,1,4862562,11839,507316,681,704,32,6,0,0,0,704,210,219,107,74,89,3195,4947,1602,699,1396,true"),
    (48, 40, 11, "drop", "48,84,12,0,,16041,651485,453,466,64,7,8,869,0,466,173,159,60,37,37,6832,4239,2908,750,1312,false"),
    (48, 40, 11, "delay-crash", "48,84,12,0,,11489,464379,571,591,64,7,9,792,5,591,259,141,94,68,26,5354,2446,2336,598,755,false"),
    (40, 24, 7, "lognormal", "40,63,16,1,2304460,13889,569204,980,1007,64,7,0,0,0,1007,361,280,141,86,119,3926,5835,1749,709,1670,true"),
    (40, 24, 7, "drop", "40,63,16,0,,20168,801827,565,581,64,7,13,1099,0,581,213,223,71,41,33,8197,5966,3727,914,1364,false"),
    (40, 24, 7, "delay-crash", "40,63,16,1,2304460,14813,604324,747,766,64,7,2,37,1,766,270,249,95,61,89,4593,6116,1927,718,1459,true"),
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
