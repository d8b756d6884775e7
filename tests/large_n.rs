//! Large-`n` validation of the sublinear-round claims (ROADMAP):
//! elections at `n = 10⁵` on the engine's worker threads
//! ([`welle::congest::Engine::set_threads`]), with round budgets derived
//! from the paper's `O(t_mix · log² n)` bound.
//!
//! These tests need the optimized build: they are ignored under the
//! debug profile (`cargo test -q` skips them) and run with
//! `cargo test --release --test large_n`. The n = 10⁶ expander and the
//! clique-of-cliques case take about half a minute each and are always
//! opt-in: `cargo test --release --test large_n -- --ignored`.
//!
//! Reference numbers from these runs are recorded in
//! `results/large_n_rounds.md` and `BENCH_NOTES.md`.

use std::sync::Arc;

use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};
use welle::congest::{LatencyModel, TelemetryConfig};
use welle::core::{
    baselines, Campaign, CampaignSummary, Election, ElectionConfig, ElectionReport, Exec,
    FaultPlan, Trial,
};
use welle::graph::gen::{self, CliqueOfCliques, CliqueOfCliquesParams};
use welle::graph::Graph;

const N: usize = 100_000;

/// Golden rows as `(graph, seed, history)`, each history oldest first:
///
/// 1. captured before the packed-message/SoA/bounded-arena engine
///    rewrite (at commit `4f8d1b9`), with the exact recipe below;
/// 2. after rounds 2 and 3 began sending one maximum id per unit
///    instead of whole id sets;
/// 3. after reverse units began leaving every relay by its earliest
///    recorded visit, and relays began dropping units the contender
///    cannot use;
/// 4. after reverse and forward units stopped carrying (and being
///    charged for) a route step, which no relay reads: only `bits`
///    moved;
/// 5. after proxies began sending their round-1 `I1` in units of four
///    ids instead of one;
/// 6. after forward units (round 2, stop marks, winner notices) began
///    following the tree that the round-1 replies came by instead of
///    every walk edge, and the winner's notice began doing its stop
///    mark's job.
///
/// A run must reproduce the last row. Each change may lower only the
/// [`COUNT_COLUMNS`], never move a decision: any other drift means a
/// change altered an observable — message bits, delivery order, RNG
/// consumption — and is a bug.
const GOLDEN_ROWS: [(&str, u64, [&str; 6]); 6] = [
    (
        "hypercube4",
        3,
        [
            "16,32,10,1,63443,3714,126515,243,254,4,3,0,0,0,254,11,49,76,102,16,137,624,1208,1473,272,true",
            "16,32,10,1,63443,1328,44179,89,100,4,3,0,0,0,100,11,49,11,13,16,137,624,141,154,272,true",
            "16,32,10,1,63443,1202,39583,79,89,4,3,0,0,0,89,11,42,11,10,15,137,563,141,119,242,true",
            "16,32,10,1,63443,1202,38118,79,89,4,3,0,0,0,89,11,42,11,10,15,137,563,141,119,242,true",
            "16,32,10,1,63443,954,33994,61,71,4,3,0,0,0,71,11,24,11,10,15,137,315,141,119,242,true",
            "16,32,10,1,63443,892,32308,61,71,4,3,0,0,0,71,11,24,11,10,15,137,315,119,119,202,true",
        ],
    ),
    (
        "hypercube4",
        11,
        [
            "16,32,9,1,61900,6043,212523,533,539,16,5,0,0,0,539,39,140,100,234,26,302,1245,1965,2287,244,true",
            "16,32,9,1,61900,2281,77922,257,263,16,5,0,0,0,263,39,140,24,34,26,302,1245,231,259,244,true",
            "16,32,9,1,61900,1680,55229,177,183,16,5,0,0,0,183,39,77,24,18,25,302,772,231,143,232,true",
            "16,32,9,1,61900,1680,53202,177,183,16,5,0,0,0,183,39,77,24,18,25,302,772,231,143,232,true",
            "16,32,9,1,61900,1354,47283,143,149,16,5,0,0,0,149,39,43,24,18,25,302,446,231,143,232,true",
            "16,32,9,1,61900,1202,42890,138,143,16,5,0,0,0,143,39,43,21,18,22,302,446,143,143,168,true",
        ],
    ),
    (
        "ring24",
        5,
        [
            "24,24,15,1,329768,170920,7458220,8194,8208,256,9,0,0,0,8208,692,2067,530,4715,204,10908,39636,17068,99692,3616,true",
            "24,24,15,1,329768,62554,2652527,3525,3539,256,9,0,0,0,3539,692,2067,92,484,204,10908,39636,1461,6933,3616,true",
            "24,24,15,1,329768,19634,680318,1205,1219,256,9,0,0,0,1219,692,275,92,74,86,10908,5543,1461,729,993,true",
            "24,24,15,1,329768,19634,658996,1205,1219,256,9,0,0,0,1219,692,275,92,74,86,10908,5543,1461,729,993,true",
            "24,24,15,1,329768,17325,625934,1101,1115,256,9,0,0,0,1115,692,171,92,74,86,10908,3234,1461,729,993,true",
            "24,24,15,1,329768,16189,583315,1078,1089,256,9,0,0,0,1089,692,171,79,74,73,10908,3234,716,729,602,true",
        ],
    ),
    (
        "torus4x5",
        7,
        [
            "20,40,15,1,157240,19074,748271,786,793,16,5,0,0,0,793,45,150,226,340,32,688,3068,6930,7801,587,true",
            "20,40,15,1,157240,5407,205308,285,292,16,5,0,0,0,292,45,150,29,36,32,688,3068,527,537,587,true",
            "20,40,15,1,157240,4118,150889,235,242,16,5,0,0,0,242,45,115,29,22,31,688,2039,527,319,545,true",
            "20,40,15,1,157240,4118,145351,235,242,16,5,0,0,0,242,45,115,29,22,31,688,2039,527,319,545,true",
            "20,40,15,1,157240,3157,126969,182,189,16,5,0,0,0,189,45,62,29,22,31,688,1078,527,319,545,true",
            "20,40,15,1,157240,2756,113457,175,181,16,5,0,0,0,181,45,62,25,22,27,688,1078,318,319,353,true",
        ],
    ),
    (
        "rr48x4",
        1,
        [
            "48,96,15,1,5102334,84694,4194448,1850,1859,32,6,0,0,0,1859,98,413,354,950,44,3441,14738,27126,37139,2250,true",
            "48,96,15,1,5102334,24899,1190580,677,686,32,6,0,0,0,686,98,413,44,87,44,3441,14738,1940,2530,2250,true",
            "48,96,15,1,5102334,14788,659200,394,403,32,6,0,0,0,403,98,195,44,29,37,3441,6652,1940,913,1842,true",
            "48,96,15,1,5102334,14788,637932,394,403,32,6,0,0,0,403,98,195,44,29,37,3441,6652,1940,913,1842,true",
            "48,96,15,1,5102334,11909,580895,311,320,32,6,0,0,0,320,98,112,44,29,37,3441,3773,1940,913,1842,true",
            "48,96,15,1,5102334,10099,505299,305,314,32,6,0,0,0,314,98,112,38,29,37,3441,3773,910,913,1062,true",
        ],
    ),
    (
        "clique12",
        9,
        [
            "12,66,9,1,19484,1978,63271,144,148,4,3,0,0,0,148,11,33,41,51,12,89,380,686,720,103,true",
            "12,66,9,1,19484,737,22863,72,76,4,3,0,0,0,76,11,33,9,11,12,89,380,84,81,103,true",
            "12,66,9,1,19484,681,20951,65,69,4,3,0,0,0,69,11,28,9,9,12,89,336,84,69,103,true",
            "12,66,9,1,19484,681,20165,65,69,4,3,0,0,0,69,11,28,9,9,12,89,336,84,69,103,true",
            "12,66,9,1,19484,539,17706,55,59,4,3,0,0,0,59,11,18,9,9,12,89,194,84,69,103,true",
            "12,66,9,1,19484,512,17027,55,59,4,3,0,0,0,59,11,18,9,9,12,89,194,69,69,91,true",
        ],
    ),
];

/// The columns that message volume drives; every other column is a
/// decision column. Rounds 2 and 3 carry maxima, and the reverse traffic
/// of rounds 1 and 3 and the wait phase takes the earliest-visit routes.
const COUNT_COLUMNS: [&str; 13] = [
    "messages",
    "bits",
    "decided_round",
    "engine_rounds",
    "virtual_time",
    "r1_rounds",
    "r2_rounds",
    "r3_rounds",
    "wait_rounds",
    "r1_msgs",
    "r2_msgs",
    "r3_msgs",
    "wait_msgs",
];

/// `got` must equal the newest row of `history`, and every row must keep
/// each decision column of the row before it verbatim and no count
/// column above it.
fn assert_golden(label: &str, got: &str, history: &[&str]) {
    let pinned = history[history.len() - 1];
    assert_eq!(got, pinned, "{label}: drifted from its pin");
    let columns: Vec<&str> = ElectionReport::csv_header().split(',').collect();
    for pair in history.windows(2) {
        let old: Vec<&str> = pair[0].split(',').collect();
        let new: Vec<&str> = pair[1].split(',').collect();
        assert_eq!(old.len(), columns.len(), "{label}: old column count");
        assert_eq!(new.len(), columns.len(), "{label}: new column count");
        for ((col, o), p) in columns.iter().zip(old).zip(new) {
            if COUNT_COLUMNS.contains(col) {
                let (o, p): (f64, f64) = (o.parse().unwrap(), p.parse().unwrap());
                assert!(p <= o, "{label}: {col} grew from {o} to {p}");
            } else {
                assert_eq!(p, o, "{label}: decision column {col} changed");
            }
        }
    }
}

fn golden_graph(name: &str) -> Arc<Graph> {
    match name {
        "hypercube4" => Arc::new(gen::hypercube(4).unwrap()),
        "ring24" => Arc::new(gen::ring(24).unwrap()),
        "torus4x5" => Arc::new(gen::torus2d(4, 5).unwrap()),
        "rr48x4" => {
            let mut rng = StdRng::seed_from_u64(11);
            Arc::new(gen::random_regular(48, 4, &mut rng).unwrap())
        }
        "clique12" => Arc::new(gen::clique(12).unwrap()),
        other => panic!("unknown golden graph {other}"),
    }
}

fn golden_row(name: &str, seed: u64, exec: Exec) -> String {
    let g = golden_graph(name);
    Election::on(&g)
        .config(ElectionConfig::tuned_for_simulation(g.n()))
        .seed(seed)
        .executor(exec)
        .telemetry(TelemetryConfig::default())
        .run()
        .unwrap()
        .csv_row()
}

#[test]
fn golden_rows_are_unchanged_since_the_pre_rewrite_engine() {
    for (name, seed, history) in GOLDEN_ROWS {
        let got = golden_row(name, seed, Exec::Serial);
        assert_golden(&format!("{name}/{seed} serial"), &got, &history);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Every executor — over its whole configuration space of worker
    /// counts — must reproduce the pinned rows exactly.
    #[test]
    fn golden_rows_hold_on_every_executor(
        case in 0usize..GOLDEN_ROWS.len(),
        workers in 1usize..5,
        use_async in any::<bool>(),
    ) {
        let (name, seed, history) = GOLDEN_ROWS[case];
        let exec = if use_async {
            Exec::Async(LatencyModel::zero())
        } else {
            Exec::Threaded(workers)
        };
        let got = golden_row(name, seed, exec);
        assert_golden(&format!("{name}/{seed} {exec:?}"), &got, &history);
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "needs the release profile")]
fn ring_10m_loads_in_compressed_csr() {
    // Tentpole acceptance: an n = 10⁷ sparse graph loads on this host.
    // The u32 CSR (4-byte offsets, four 4-byte struct-of-arrays columns
    // per directed edge) keeps the resident graph near 360 MB where the
    // old usize/array-of-structs layout needed about a gigabyte.
    let n = 10_000_000;
    let g = gen::ring(n).unwrap();
    assert_eq!(g.n(), n);
    assert_eq!(g.m(), n);
    assert_eq!(g.directed_edge_count(), 2 * n);
    // Port round-trips at both ends of the index range exercise the
    // derived directed-source decoding over the full u32 span.
    for u in [0usize, 1, n / 2, n - 1] {
        let u = welle::graph::NodeId::new(u);
        for p in g.ports(u) {
            let v = g.neighbor(u, p);
            let q = g.reverse_port(u, p);
            assert_eq!(g.neighbor(v, q), u);
            let dir = g.directed_index(u, p);
            assert_eq!(g.directed_source(dir), (u, p));
            assert_eq!(g.directed_target(dir), (v, q));
        }
    }
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "needs the release profile (≈6 s optimized)"
)]
fn expander_100k_elects_within_round_budget() {
    let mut rng = StdRng::seed_from_u64(42);
    let g = Arc::new(gen::random_regular(N, 6, &mut rng).unwrap());
    let cfg = ElectionConfig::tuned_for_simulation(N);
    let report = Election::on(&g)
        .config(cfg)
        .seed(7)
        .executor(Exec::Threaded(4))
        .run()
        .unwrap();
    assert!(
        report.is_success(),
        "leaders = {:?}, contenders = {}, gave_up = {}",
        report.leaders,
        report.contenders,
        report.gave_up
    );
    assert_eq!(report.broken_routes, 0, "routing must never break");
    // Sublinear rounds: a 6-regular expander mixes in O(log n), so the
    // election must finish far below n rounds (observed 1 346; the
    // budget is about 2× the observation).
    assert!(
        report.engine_rounds < 2_800,
        "{} rounds blows the expander budget",
        report.engine_rounds
    );
    // Guess-and-double must stop at a walk length O(t_mix) — far below
    // the cap — on a well-connected graph.
    assert!(
        report.final_walk_len <= 64,
        "final walk length {} too large for an expander",
        report.final_walk_len
    );
}

#[test]
#[cfg_attr(debug_assertions, ignore = "needs the release profile")]
fn threaded_election_matches_serial_at_scale() {
    // The engines must produce identical elections — leader, messages,
    // rounds — at a size where sharding actually engages.
    let n = 4096;
    let mut rng = StdRng::seed_from_u64(9);
    let g = Arc::new(gen::random_regular(n, 4, &mut rng).unwrap());
    let cfg = ElectionConfig::tuned_for_simulation(n);
    let serial = Election::on(&g)
        .config(cfg)
        .seed(13)
        .executor(Exec::Serial)
        .run()
        .unwrap();
    let threaded = Election::on(&g)
        .config(cfg)
        .seed(13)
        .executor(Exec::Threaded(4))
        .run()
        .unwrap();
    assert_eq!(serial.leaders, threaded.leaders);
    assert_eq!(serial.leader_id, threaded.leader_id);
    assert_eq!(serial.messages, threaded.messages);
    assert_eq!(serial.bits, threaded.bits);
    assert_eq!(serial.engine_rounds, threaded.engine_rounds);
    assert_eq!(serial.decided_round, threaded.decided_round);
    assert!(serial.is_success());
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "needs the release profile (≈200 trials × 3 runs)"
)]
fn drop_rate_sweep_of_200_trials_is_bit_identical_at_any_thread_count() {
    // The ISSUE acceptance sweep: 4 drop rates × 50 seeds = 200 trials,
    // run serially and on 2- and 4-worker trial pools. Every per-trial
    // CSV row and every summary row must come out byte-identical, and
    // the pools must reuse engines (at most one construction per
    // worker) instead of building one per trial.
    let mut rng = StdRng::seed_from_u64(21);
    let g = Arc::new(gen::random_regular(128, 4, &mut rng).unwrap());
    let cfg = ElectionConfig {
        max_walk_len: Some(64), // keep heavily-faulted give-ups cheap
        ..ElectionConfig::tuned_for_simulation(128)
    };
    let sweep = |workers: usize| {
        let mut campaign = Campaign::new(Election::on(&g).config(cfg));
        for p in [0.0f64, 0.05, 0.1, 0.2] {
            campaign = campaign.scenario(format!("p={p}, expander"), &g, cfg);
            if p > 0.0 {
                campaign = campaign.faults(FaultPlan::new(9).drop_rate(p));
            }
        }
        campaign
            .without_base()
            .seeds(0..50)
            .trial_threads(workers)
            .run()
            .unwrap()
    };
    let serial = sweep(1);
    assert_eq!(serial.trials.len(), 200);
    assert_eq!(serial.engines_built, 1, "one pooled engine serves all 200");
    let rows = |o: &welle::core::CampaignReport| -> (Vec<String>, Vec<String>) {
        (
            o.trials.iter().map(Trial::csv_row).collect(),
            o.summaries.iter().map(CampaignSummary::csv_row).collect(),
        )
    };
    let expect = rows(&serial);
    for workers in [2usize, 4] {
        let pooled = sweep(workers);
        assert_eq!(rows(&pooled), expect, "workers = {workers}");
        assert!(
            pooled.engines_built <= workers,
            "{} engines for {workers} workers",
            pooled.engines_built
        );
    }
}

#[test]
#[ignore = "≈30 s optimized on one core, then ≈5 s of flood-max; run with --release -- --ignored"]
fn expander_1m_elects_within_memory_budget() {
    // The memory-wall acceptance run: a full election at n = 10⁶ on a
    // 6-regular expander, single-threaded, must complete, under a stated
    // peak for the engine's recycling message arena and within a round
    // budget. The run peaks at 664 199 arena slots in 3 289 rounds (see
    // `results/large_n_rounds.md`); both budgets are about 3× and 2.5×
    // those observations. Flood-max then elects on the same graph, and
    // welle must send fewer messages: the paper's point is a message
    // count sublinear in m, and here welle sends 17 103 781 against
    // flood-max's 47 956 074.
    const PEAK_ARENA_BUDGET: u64 = 2_100_000;
    const ROUND_BUDGET: u64 = 8_300;
    let n = 1_000_000;
    let mut rng = StdRng::seed_from_u64(42);
    let g = Arc::new(gen::random_regular(n, 6, &mut rng).unwrap());
    let cfg = ElectionConfig::tuned_for_simulation(n);
    let report = Election::on(&g)
        .config(cfg)
        .seed(7)
        .executor(Exec::Serial)
        .run()
        .unwrap();
    eprintln!(
        "n=10^6 expander: rounds={} messages={} peak_arena_slots={} walk_len={}",
        report.engine_rounds, report.messages, report.peak_arena_slots, report.final_walk_len
    );
    assert!(
        report.is_success(),
        "leaders = {:?}, contenders = {}, gave_up = {}",
        report.leaders,
        report.contenders,
        report.gave_up
    );
    assert_eq!(report.broken_routes, 0, "routing must never break");
    assert!(
        report.peak_arena_slots < PEAK_ARENA_BUDGET,
        "{} arena slots blows the n=10^6 memory budget",
        report.peak_arena_slots
    );
    assert!(
        report.engine_rounds < ROUND_BUDGET,
        "{} rounds blows the n=10^6 expander budget",
        report.engine_rounds
    );
    let flood = baselines::run_flood_max(&g, 7);
    assert_eq!(flood.leaders.len(), 1, "flood-max must elect one leader");
    assert!(
        report.messages < flood.messages,
        "welle sent {} messages, flood-max {}",
        report.messages,
        flood.messages
    );
}

#[test]
#[ignore = "≈35 s optimized; run with --release -- --ignored"]
fn clique_of_cliques_100k_elects_within_round_budget() {
    let mut rng = StdRng::seed_from_u64(42);
    let lb = CliqueOfCliques::build(CliqueOfCliquesParams::new(N, 0.1), &mut rng).unwrap();
    let g = Arc::new(lb.into_graph());
    assert_eq!(g.n(), N);
    let cfg = ElectionConfig::tuned_for_simulation(g.n());
    let report = Election::on(&g)
        .config(cfg)
        .seed(7)
        .executor(Exec::Threaded(4))
        .run()
        .unwrap();
    assert!(
        report.is_success(),
        "leaders = {:?}, contenders = {}, gave_up = {}",
        report.leaders,
        report.contenders,
        report.gave_up
    );
    // Conductance Θ(n^{-0.2}) mixes slower than the expander, but the
    // election must still finish in rounds linear-ish in t_mix·log²n
    // (observed 8 200; budget 2.5×).
    assert!(
        report.engine_rounds < 20_500,
        "{} rounds blows the clique-of-cliques budget",
        report.engine_rounds
    );
}
