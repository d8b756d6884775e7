//! Property-based tests of the election: safety (never two leaders) on
//! random connected graphs, parameter-derivation invariants, and message
//! size budgets.

mod barrier;

use std::sync::Arc;

use barrier::{through_barrier, Counts};

use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};
use welle_congest::Payload;
use welle_core::{
    Campaign, CampaignReport, CampaignSummary, Election, ElectionConfig, ElectionMsg,
    ElectionReport, Exec, FaultPlan, FwdItem, LatencyModel, MsgSizeMode, Params, RevItem, Trial,
};
use welle_graph::GraphBuilder;

fn random_connected(n: usize, extra: usize, seed: u64) -> Arc<welle_graph::Graph> {
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

/// Full-field report comparison (everything the run can observe).
fn reports_identical(a: &ElectionReport, b: &ElectionReport) -> bool {
    a.n == b.n
        && a.m == b.m
        && a.contenders == b.contenders
        && a.leaders == b.leaders
        && a.leader_id == b.leader_id
        && a.messages == b.messages
        && a.bits == b.bits
        && a.decided_round == b.decided_round
        && a.engine_rounds == b.engine_rounds
        && a.final_walk_len == b.final_walk_len
        && a.epochs_used == b.epochs_used
        && a.gave_up == b.gave_up
        && a.dropped_messages == b.dropped_messages
        && a.crashed == b.crashed
        && a.dropped_tokens == b.dropped_tokens
        && a.broken_routes == b.broken_routes
        && a.virtual_time == b.virtual_time
        && a.outcome == b.outcome
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn never_more_than_one_leader(n in 24usize..56, extra in 8usize..64, seed in any::<u64>()) {
        let g = random_connected(n, extra, seed);
        let mut cfg = ElectionConfig::tuned_for_simulation(n);
        cfg.max_walk_len = Some(64); // keep give-ups cheap on bad graphs
        let r = Election::on(&g).config(cfg).seed(seed ^ 0xABCD).run().unwrap();
        prop_assert!(r.leaders.len() <= 1, "leaders: {:?}", r.leaders);
        prop_assert_eq!(r.broken_routes, 0, "routing must never break");
        prop_assert_eq!(r.dropped_tokens, 0, "no stale tokens in sync runs");
    }

    #[test]
    fn params_invariants(n in 2usize..5_000, c1 in 0.5f64..8.0, c2 in 0.25f64..4.0) {
        let cfg = ElectionConfig { c1, c2, ..ElectionConfig::default() };
        let p = Params::derive(n, cfg);
        prop_assert!(p.contender_prob <= 1.0);
        prop_assert!(p.tau_intersection >= 1);
        prop_assert!(p.tau_distinct >= 1);
        prop_assert!(p.walks_per_contender >= 1);
        prop_assert!((p.walks_per_contender as f64) <= 0.45 * n as f64 + 1.0);
        prop_assert_eq!(p.tau_distinct, (p.walks_per_contender as usize).div_ceil(2));
        // Boundaries monotone.
        let mut prev = 0;
        for seg in 0..=p.total_segments() {
            let b = p.segment_boundary(seg);
            prop_assert!(b >= prev);
            prev = b;
        }
    }

    #[test]
    fn congest_messages_fit_the_bandwidth_cap(n in 8usize..4_000, id in 1u64..u64::MAX, epoch in 0u32..30, remaining in 0u32..1_000_000) {
        let p = Params::derive(n, ElectionConfig::default());
        let cap = p.bandwidth_bits.unwrap();
        let id = id % p.id_max + 1;
        let ids = vec![p.id_max; p.frag];
        // A relay's merged round-1 unit: a tally at the packed budget
        // with one id fewer than a full `I1` unit.
        let tally = (1 << 22) - 1;
        let merged = RevItem::Replies { replies: tally, singles: tally, ids: &ids[1..] };
        let msgs = [
            ElectionMsg::walk(id, epoch, remaining, p.walks_per_contender),
            ElectionMsg::rev(id, epoch, RevItem::Replies { replies: 1, singles: 1, ids: &[] }),
            ElectionMsg::rev(id, epoch, merged),
            ElectionMsg::rev(id, epoch, RevItem::KnownContenders { ids: &ids }),
            ElectionMsg::rev(id, epoch, RevItem::Winner { id: p.id_max }),
            ElectionMsg::fwd(id, epoch, FwdItem::I2Max { id: p.id_max }),
            ElectionMsg::rev(id, epoch, RevItem::I3Max { id: p.id_max }),
            ElectionMsg::fwd(id, epoch, FwdItem::StopMark),
        ];
        for m in msgs {
            prop_assert!(m.bit_size() <= cap, "{m:?}: {} > {cap}", m.bit_size());
        }
    }

    #[test]
    fn large_mode_caps_fit_full_sets(n in 8usize..2_000) {
        let cfg = ElectionConfig { msg_size: MsgSizeMode::Large, ..ElectionConfig::default() };
        let p = Params::derive(n, cfg);
        let cap = p.bandwidth_bits.unwrap();
        let ids = vec![p.id_max; p.frag];
        let m = ElectionMsg::rev(p.id_max, 30, RevItem::KnownContenders { ids: &ids });
        prop_assert!(m.bit_size() <= cap, "{} > {cap}", m.bit_size());
    }

    #[test]
    fn zero_fault_plan_is_bit_identical_across_executors(
        n in 24usize..48,
        extra in 8usize..48,
        seed in any::<u64>(),
        threads in 1usize..5,
        plan_seed in any::<u64>(),
    ) {
        // A FaultPlan with drop rate 0, no crashes, zero delay, and no
        // cuts must be indistinguishable from the fault-free engine —
        // on the serial executor and on any thread count, with every
        // round through the worker barrier too.
        let g = random_connected(n, extra, seed);
        let mut cfg = ElectionConfig::tuned_for_simulation(n);
        cfg.max_walk_len = Some(64);
        let plan = FaultPlan::new(plan_seed);
        let baseline = Election::on(&g).config(cfg).seed(seed ^ 0xF00).run().unwrap();
        for exec in [Exec::Serial, Exec::Threaded(threads)] {
            let faulted = Election::on(&g)
                .config(cfg)
                .seed(seed ^ 0xF00)
                .executor(exec)
                .faults(plan.clone())
                .run()
                .unwrap();
            prop_assert!(reports_identical(&baseline, &faulted), "{exec:?}");
            prop_assert_eq!(faulted.dropped_messages, 0);
            prop_assert_eq!(faulted.crashed, 0);
        }
        let (barrier, _) = through_barrier(&g, cfg, seed ^ 0xF00, threads, Some(&plan), None);
        prop_assert_eq!(barrier, Counts::of(&baseline));
    }

    #[test]
    fn faulted_elections_agree_across_executors_and_stay_safe(
        n in 24usize..48,
        extra in 8usize..48,
        seed in any::<u64>(),
        threads in 2usize..5,
        drop_pm in 0u32..300,
    ) {
        // Under real faults: still deterministic, still bit-identical
        // across executors, through the worker barrier too, and still
        // never more than one leader.
        let g = random_connected(n, extra, seed);
        let mut cfg = ElectionConfig::tuned_for_simulation(n);
        cfg.max_walk_len = Some(64);
        let plan = FaultPlan::new(seed ^ 0xBAD)
            .drop_rate(drop_pm as f64 / 1000.0)
            .crash_fraction(0.05, 20);
        let serial = Election::on(&g)
            .config(cfg)
            .seed(seed ^ 0xF01)
            .executor(Exec::Serial)
            .faults(plan.clone())
            .run()
            .unwrap();
        prop_assert!(serial.leaders.len() <= 1, "leaders: {:?}", serial.leaders);
        let par = Election::on(&g)
            .config(cfg)
            .seed(seed ^ 0xF01)
            .executor(Exec::Threaded(threads))
            .faults(plan.clone())
            .run()
            .unwrap();
        prop_assert!(reports_identical(&serial, &par));
        let (barrier, _) = through_barrier(&g, cfg, seed ^ 0xF01, threads, Some(&plan), None);
        prop_assert_eq!(barrier, Counts::of(&serial));
    }

    #[test]
    fn campaigns_are_byte_identical_at_any_worker_count(
        n in 24usize..48,
        extra in 8usize..48,
        seed in any::<u64>(),
        k in 3usize..7,
        drop_pm in 50u32..300,
    ) {
        // The trial scheduler reassembles completions into the serial
        // (scenario, seed) order, so the full observable outcome —
        // per-trial CSV rows and per-scenario summary rows, across a
        // fault-free and a message-dropping scenario — must come out
        // byte-identical at 1, 2, and k worker threads.
        let g = random_connected(n, extra, seed);
        let mut cfg = ElectionConfig::tuned_for_simulation(n);
        cfg.max_walk_len = Some(64);
        let run = |workers: usize| -> CampaignReport {
            Campaign::new(Election::on(&g).config(cfg))
                .label("clean")
                .scenario("dropping, faulted", &g, cfg)
                .faults(FaultPlan::new(seed ^ 0xBAD).drop_rate(drop_pm as f64 / 1000.0))
                .seeds(0..3)
                .trial_threads(workers)
                .run()
                .unwrap()
        };
        let fingerprint = |o: &CampaignReport| -> (Vec<String>, Vec<String>) {
            (
                o.trials.iter().map(Trial::csv_row).collect(),
                o.summaries.iter().map(CampaignSummary::csv_row).collect(),
            )
        };
        let serial = run(1);
        prop_assert_eq!(serial.trials.len(), 6);
        let expect = fingerprint(&serial);
        for workers in [2usize, k] {
            let pooled = run(workers);
            prop_assert_eq!(fingerprint(&pooled), expect.clone(), "workers = {}", workers);
            prop_assert!(pooled.engines_built <= workers);
        }
    }

    #[test]
    fn async_zero_latency_matches_serial_on_full_reports(
        n in 24usize..48,
        extra in 8usize..48,
        seed in any::<u64>(),
        drop_pm in 0u32..200,
    ) {
        // The async executor's zero-latency contract at the Election
        // level: every field of the report — with or without a biting
        // fault plan — must be bit-identical to the serial engine's.
        let g = random_connected(n, extra, seed);
        let mut cfg = ElectionConfig::tuned_for_simulation(n);
        cfg.max_walk_len = Some(64);
        let plan = (drop_pm > 0)
            .then(|| FaultPlan::new(seed ^ 0xBAD).drop_rate(drop_pm as f64 / 1000.0));
        let run = |exec: Exec| {
            let mut e = Election::on(&g).config(cfg).seed(seed ^ 0xF02).executor(exec);
            if let Some(p) = &plan {
                e = e.faults(p.clone());
            }
            e.run().unwrap()
        };
        let serial = run(Exec::Serial);
        let async_ = run(Exec::Async(LatencyModel::zero()));
        prop_assert!(reports_identical(&serial, &async_));
        prop_assert_eq!(async_.virtual_time, async_.engine_rounds as f64);
    }

    #[test]
    fn async_nonzero_latency_replays_identically(
        n in 24usize..40,
        extra in 8usize..32,
        seed in any::<u64>(),
        model_kind in 0u8..3,
    ) {
        // Sampled latency is a pure function of (graph, config, seed,
        // model): two fresh runs must agree on every report field.
        let g = random_connected(n, extra, seed);
        let mut cfg = ElectionConfig::tuned_for_simulation(n);
        cfg.max_walk_len = Some(64);
        let model = match model_kind {
            0 => LatencyModel::fixed(1.5),
            1 => LatencyModel::uniform(0.0, 2.0),
            _ => LatencyModel::log_normal(0.2, 0.5),
        }
        .seed(seed ^ 0xCAFE);
        let run = || {
            Election::on(&g)
                .config(cfg)
                .seed(seed ^ 0xF03)
                .executor(Exec::Async(model))
                .run()
                .unwrap()
        };
        let a = run();
        let b = run();
        prop_assert!(reports_identical(&a, &b));
        prop_assert!(a.leaders.len() <= 1, "leaders: {:?}", a.leaders);
    }

    #[test]
    fn deterministic_reports(seed in any::<u64>()) {
        let g = random_connected(32, 32, 99);
        let mut cfg = ElectionConfig::tuned_for_simulation(32);
        cfg.max_walk_len = Some(64);
        let a = Election::on(&g).config(cfg).seed(seed).run().unwrap();
        let b = Election::on(&g).config(cfg).seed(seed).run().unwrap();
        prop_assert_eq!(a.messages, b.messages);
        prop_assert_eq!(a.leaders, b.leaders);
    }
}
