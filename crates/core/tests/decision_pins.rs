//! Decision pins for the CLI expander (`welle expander 128 --cap 64`):
//! what every election decides, and what every contender measured on
//! the way, pinned as literals.
//!
//! Each case pins the report's decision columns (contenders, leader
//! indices, leader id, final walk length, epochs used, give-ups,
//! success) and an FNV-1a hash of every contender's per-epoch
//! [`EpochRecord`] history. A change to how traffic is routed or
//! counted may move messages and rounds; it must not move a single
//! value here.
//!
//! The pins cover 16 seeds in Adaptive mode, the same 16 in FixedT
//! mode, and 8 seeds with large messages. Every history hash must also
//! come out of the sharded engine with every round through its worker
//! barrier.

use std::sync::Arc;

use rand::{rngs::StdRng, SeedableRng};
use welle_congest::{Engine, EngineConfig, RunOutcome};
use welle_core::{
    Election, ElectionConfig, ElectionNode, EpochRecord, MsgSizeMode, Params, SyncMode,
    SIGNAL_ADVANCE,
};
use welle_graph::{gen, Graph};

/// The graph `welle expander 128` builds for `--seed 1`.
fn cli_expander() -> Arc<Graph> {
    let mut rng = StdRng::seed_from_u64(1 ^ 0xF00D);
    Arc::new(gen::random_regular(128, 4, &mut rng).unwrap())
}

/// `--cap 64`, plus the mode under test.
fn config(mode: &str) -> ElectionConfig {
    let mut cfg = ElectionConfig::tuned_for_simulation(128);
    cfg.max_walk_len = Some(64);
    match mode {
        "adaptive" => {}
        "fixed-t" => cfg.sync = SyncMode::FixedT,
        "large" => cfg.msg_size = MsgSizeMode::Large,
        other => panic!("unknown mode {other}"),
    }
    cfg
}

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn record(&mut self, r: &EpochRecord) {
        self.word(u64::from(r.epoch));
        self.word(u64::from(r.walk_len));
        self.word(r.proxy_replies as u64);
        self.word(r.distinct_proxies as u64);
        self.word(r.i2_len as u64);
        self.word(u64::from(r.satisfied));
    }
}

/// The serial engine over `g`, one election node per vertex.
fn serial(g: &Arc<Graph>, params: &Arc<Params>, seed: u64) -> Engine<ElectionNode> {
    Engine::from_fn(Arc::clone(g), engine_config(params, seed), |_| {
        ElectionNode::new(Arc::clone(params))
    })
}

/// The engine on 3 worker threads, every round through the barrier.
fn barrier(g: &Arc<Graph>, params: &Arc<Params>, seed: u64) -> Engine<ElectionNode> {
    let mut e = serial(g, params, seed);
    e.set_threads(3);
    e.set_inline_cutoff(0);
    e
}

/// The engine settings the runner derives from `params`.
fn engine_config(params: &Params, seed: u64) -> EngineConfig {
    EngineConfig {
        seed,
        bandwidth_bits: params.bandwidth_bits,
    }
}

/// Runs the election on a bare engine, driven the way the runner drives
/// it, and hashes every contender's epoch history in node order.
fn history_hash(mut engine: Engine<ElectionNode>, params: &Params) -> u64 {
    match params.cfg.sync {
        SyncMode::FixedT => {
            engine.run(params.round_limit());
        }
        SyncMode::Adaptive => {
            let mut signals = 0u64;
            while let RunOutcome::Quiescent { .. } = engine.run(u64::MAX / 4) {
                if signals >= params.total_segments() {
                    break;
                }
                engine.signal(SIGNAL_ADVANCE);
                signals += 1;
            }
        }
    }
    let mut h = Fnv::new();
    for (i, node) in engine.nodes().iter().enumerate() {
        if let Some(c) = node.contender_state() {
            h.word(i as u64);
            h.word(c.history.len() as u64);
            for r in &c.history {
                h.record(r);
            }
        }
    }
    h.0
}

/// One case as a line: the decision columns, then the history hash.
fn pin_line(g: &Arc<Graph>, mode: &str, seed: u64) -> String {
    let cfg = config(mode);
    let params = derive(g, cfg);
    let r = Election::on(g).config(cfg).seed(seed).run().unwrap();
    format!(
        "{mode} seed={seed} contenders={} leaders={:?} leader_id={:?} final_walk_len={} \
         epochs_used={} gave_up={} success={} history={:016x}",
        r.contenders,
        r.leaders,
        r.leader_id,
        r.final_walk_len,
        r.epochs_used,
        r.gave_up,
        r.is_success(),
        history_hash(serial(g, &params, seed), &params),
    )
}

/// The election parameters every node of `g` shares.
fn derive(g: &Graph, cfg: ElectionConfig) -> Arc<Params> {
    Arc::new(Params::derive(g.n(), cfg))
}

/// Every case, in the order of [`PINS`].
fn cases() -> impl Iterator<Item = (&'static str, u64)> {
    let adaptive = (1..=16).map(|s| ("adaptive", s));
    let fixed = (1..=16).map(|s| ("fixed-t", s));
    let large = (1..=8).map(|s| ("large", s));
    adaptive.chain(fixed).chain(large)
}

/// Captured before reverse units took the earliest-visit routes and
/// relays began dropping units the contender cannot use; not edited
/// since.
const PINS: [&str; 40] = [
    "adaptive seed=1 contenders=15 leaders=[96] leader_id=Some(181208263) final_walk_len=32 epochs_used=6 gave_up=0 success=true history=135fe6420aee5ea5",
    "adaptive seed=2 contenders=25 leaders=[107] leader_id=Some(265394066) final_walk_len=16 epochs_used=5 gave_up=0 success=true history=cfff36b417d241c3",
    "adaptive seed=3 contenders=21 leaders=[51] leader_id=Some(263116918) final_walk_len=16 epochs_used=5 gave_up=0 success=true history=50845770343b7f4c",
    "adaptive seed=4 contenders=21 leaders=[116] leader_id=Some(266972457) final_walk_len=32 epochs_used=6 gave_up=0 success=true history=6676ca98f5184c83",
    "adaptive seed=5 contenders=22 leaders=[3] leader_id=Some(266810741) final_walk_len=32 epochs_used=6 gave_up=0 success=true history=ef47a56efb1beaff",
    "adaptive seed=6 contenders=15 leaders=[14] leader_id=Some(267034273) final_walk_len=32 epochs_used=6 gave_up=0 success=true history=be431b3ec4357879",
    "adaptive seed=7 contenders=22 leaders=[4] leader_id=Some(263804822) final_walk_len=16 epochs_used=5 gave_up=0 success=true history=97c844dddbe1bfe2",
    "adaptive seed=8 contenders=24 leaders=[91] leader_id=Some(263495402) final_walk_len=32 epochs_used=6 gave_up=0 success=true history=d87d82d26239a1cf",
    "adaptive seed=9 contenders=29 leaders=[27] leader_id=Some(253619699) final_walk_len=32 epochs_used=6 gave_up=0 success=true history=677f43ec6c6d8a1e",
    "adaptive seed=10 contenders=18 leaders=[76] leader_id=Some(220980577) final_walk_len=32 epochs_used=6 gave_up=0 success=true history=265b0f22b0578468",
    "adaptive seed=11 contenders=19 leaders=[52] leader_id=Some(265353760) final_walk_len=32 epochs_used=6 gave_up=0 success=true history=4ca6e8363062111e",
    "adaptive seed=12 contenders=18 leaders=[48] leader_id=Some(266981933) final_walk_len=64 epochs_used=7 gave_up=0 success=true history=d491d50a2074ec1a",
    "adaptive seed=13 contenders=21 leaders=[110] leader_id=Some(267117123) final_walk_len=32 epochs_used=6 gave_up=0 success=true history=099e8908c823bf1e",
    "adaptive seed=14 contenders=14 leaders=[] leader_id=None final_walk_len=64 epochs_used=7 gave_up=14 success=false history=5134529514a5635e",
    "adaptive seed=15 contenders=20 leaders=[85] leader_id=Some(220453893) final_walk_len=32 epochs_used=6 gave_up=0 success=true history=0c52a789cf50452a",
    "adaptive seed=16 contenders=15 leaders=[1] leader_id=Some(264626266) final_walk_len=16 epochs_used=5 gave_up=0 success=true history=027f1729f44ad3bf",
    "fixed-t seed=1 contenders=15 leaders=[96] leader_id=Some(181208263) final_walk_len=32 epochs_used=6 gave_up=0 success=true history=135fe6420aee5ea5",
    "fixed-t seed=2 contenders=25 leaders=[107] leader_id=Some(265394066) final_walk_len=16 epochs_used=5 gave_up=0 success=true history=cfff36b417d241c3",
    "fixed-t seed=3 contenders=21 leaders=[51] leader_id=Some(263116918) final_walk_len=16 epochs_used=5 gave_up=0 success=true history=50845770343b7f4c",
    "fixed-t seed=4 contenders=21 leaders=[116] leader_id=Some(266972457) final_walk_len=32 epochs_used=6 gave_up=0 success=true history=6676ca98f5184c83",
    "fixed-t seed=5 contenders=22 leaders=[3] leader_id=Some(266810741) final_walk_len=32 epochs_used=6 gave_up=0 success=true history=ef47a56efb1beaff",
    "fixed-t seed=6 contenders=15 leaders=[14] leader_id=Some(267034273) final_walk_len=32 epochs_used=6 gave_up=0 success=true history=be431b3ec4357879",
    "fixed-t seed=7 contenders=22 leaders=[4] leader_id=Some(263804822) final_walk_len=16 epochs_used=5 gave_up=0 success=true history=97c844dddbe1bfe2",
    "fixed-t seed=8 contenders=24 leaders=[91] leader_id=Some(263495402) final_walk_len=32 epochs_used=6 gave_up=0 success=true history=d87d82d26239a1cf",
    "fixed-t seed=9 contenders=29 leaders=[27] leader_id=Some(253619699) final_walk_len=32 epochs_used=6 gave_up=0 success=true history=677f43ec6c6d8a1e",
    "fixed-t seed=10 contenders=18 leaders=[76] leader_id=Some(220980577) final_walk_len=32 epochs_used=6 gave_up=0 success=true history=265b0f22b0578468",
    "fixed-t seed=11 contenders=19 leaders=[52] leader_id=Some(265353760) final_walk_len=32 epochs_used=6 gave_up=0 success=true history=4ca6e8363062111e",
    "fixed-t seed=12 contenders=18 leaders=[48] leader_id=Some(266981933) final_walk_len=64 epochs_used=7 gave_up=0 success=true history=d491d50a2074ec1a",
    "fixed-t seed=13 contenders=21 leaders=[110] leader_id=Some(267117123) final_walk_len=32 epochs_used=6 gave_up=0 success=true history=099e8908c823bf1e",
    "fixed-t seed=14 contenders=14 leaders=[] leader_id=None final_walk_len=64 epochs_used=7 gave_up=14 success=false history=5134529514a5635e",
    "fixed-t seed=15 contenders=20 leaders=[85] leader_id=Some(220453893) final_walk_len=32 epochs_used=6 gave_up=0 success=true history=0c52a789cf50452a",
    "fixed-t seed=16 contenders=15 leaders=[1] leader_id=Some(264626266) final_walk_len=16 epochs_used=5 gave_up=0 success=true history=027f1729f44ad3bf",
    "large seed=1 contenders=15 leaders=[96] leader_id=Some(181208263) final_walk_len=32 epochs_used=6 gave_up=0 success=true history=135fe6420aee5ea5",
    "large seed=2 contenders=25 leaders=[107] leader_id=Some(265394066) final_walk_len=16 epochs_used=5 gave_up=0 success=true history=cfff36b417d241c3",
    "large seed=3 contenders=21 leaders=[51] leader_id=Some(263116918) final_walk_len=16 epochs_used=5 gave_up=0 success=true history=50845770343b7f4c",
    "large seed=4 contenders=21 leaders=[116] leader_id=Some(266972457) final_walk_len=32 epochs_used=6 gave_up=0 success=true history=6676ca98f5184c83",
    "large seed=5 contenders=22 leaders=[3] leader_id=Some(266810741) final_walk_len=32 epochs_used=6 gave_up=0 success=true history=ef47a56efb1beaff",
    "large seed=6 contenders=15 leaders=[14] leader_id=Some(267034273) final_walk_len=32 epochs_used=6 gave_up=0 success=true history=be431b3ec4357879",
    "large seed=7 contenders=22 leaders=[4] leader_id=Some(263804822) final_walk_len=16 epochs_used=5 gave_up=0 success=true history=97c844dddbe1bfe2",
    "large seed=8 contenders=24 leaders=[91] leader_id=Some(263495402) final_walk_len=32 epochs_used=6 gave_up=0 success=true history=d87d82d26239a1cf",
];

#[test]
fn decisions_match_their_pins() {
    let g = cli_expander();
    let got: Vec<String> = cases()
        .map(|(mode, seed)| pin_line(&g, mode, seed))
        .collect();
    assert_eq!(got.len(), PINS.len(), "one pin per case");
    for (got, pin) in got.iter().zip(PINS) {
        assert_eq!(got, pin, "decision drifted from its pin");
    }
}

#[test]
fn barrier_path_matches_the_history_pins() {
    let g = cli_expander();
    for ((mode, seed), pin) in cases().zip(PINS) {
        let params = derive(&g, config(mode));
        let hash = history_hash(barrier(&g, &params, seed), &params);
        let want = pin.rsplit("history=").next().unwrap_or_default();
        assert_eq!(
            format!("{hash:016x}"),
            want,
            "{mode} seed={seed}: the barrier path drifted from the pin"
        );
    }
}
