//! Execution fingerprints: every executor, fault setting and latency
//! model, pinned as literals.
//!
//! The differential suites compare executors with each other. These
//! pins compare each executor with what it did before: one 64-bit
//! FNV-1a hash per run over the full [`TransmitEvent`] stream, the final
//! [`Metrics`], the final round, the bits of the virtual time and the
//! [`TelemetryConfig::full`] sample stream. A refactor of the delivery
//! path must leave every one of them unchanged.
//!
//! A second table pins runs driven the way the adaptive election runner
//! drives them: run until quiescent, broadcast a signal, and again.

use std::sync::Arc;

use rand::{rngs::StdRng, RngExt, SeedableRng};
use welle_congest::testing::{BfsWave, Echo, FloodMax};
use welle_congest::{
    Context, Engine, EngineConfig, FaultPlan, LatencyModel, Metrics, Protocol, RecordingObserver,
    RoundSample, RunOutcome, Signal, TelemetryConfig, TelemetryReport, TransmitEvent,
};
use welle_graph::{gen, Graph, Port};

const ROUND_LIMIT: u64 = 10_000;

/// 64-bit FNV-1a over a stream of words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn event(&mut self, e: &TransmitEvent) {
        self.word(e.round);
        self.word(u64::from(e.from.raw()));
        self.word(u64::from(e.from_port.raw()));
        self.word(u64::from(e.to.raw()));
        self.word(u64::from(e.to_port.raw()));
        self.word(u64::from(e.edge.raw()));
        self.word(e.bits as u64);
    }

    fn metrics(&mut self, m: &Metrics) {
        self.word(m.messages);
        self.word(m.bits);
        for &s in &m.sent_by_node {
            self.word(s);
        }
        self.word(m.active_rounds);
        self.word(m.max_edge_backlog);
        self.word(m.dropped_messages);
        self.word(m.crashed_nodes);
    }

    fn sample(&mut self, s: &RoundSample) {
        self.word(s.round);
        self.word(s.phase.map_or(u64::MAX, u64::from));
        self.word(s.messages);
        self.word(s.bits);
        self.word(s.active_nodes);
        self.word(s.max_backlog);
        self.word(s.dropped);
        self.word(s.parked);
        self.word(s.tick);
    }
}

/// The executors each case runs on, in pin-column order.
#[derive(Clone, Copy)]
enum Exe {
    Serial,
    /// The engine on 3 worker threads, every round through the barrier.
    Threaded,
    Latent(LatencyModel),
}

fn executors() -> [(&'static str, Exe); 6] {
    [
        ("serial", Exe::Serial),
        ("threaded3", Exe::Threaded),
        ("zero", Exe::Latent(LatencyModel::zero())),
        ("fixed", Exe::Latent(LatencyModel::fixed(1.5))),
        (
            "lognormal",
            Exe::Latent(LatencyModel::log_normal(0.3, 0.6).seed(17)),
        ),
        (
            "uniform-rate",
            Exe::Latent(LatencyModel::uniform(0.5, 2.0).seed(29).service_rate(0.5)),
        ),
    ]
}

fn fault_settings() -> [(&'static str, Option<FaultPlan>); 6] {
    [
        ("none", None),
        ("drop", Some(FaultPlan::new(41).drop_rate(0.15))),
        ("delay", Some(FaultPlan::new(42).delay_all(2))),
        // Seed 43's crash draw selects no node of these graphs, so this
        // setting tests the random delays alone; "crash-early" crashes.
        (
            "delay-crash",
            Some(FaultPlan::new(43).random_delays(3).crash_fraction(0.1, 3)),
        ),
        ("cut", Some(FaultPlan::new(44).cut_fraction(0.05, 2))),
        // Nodes 7 and 3 crash at rounds 1 and 2, while every protocol
        // here is still sending, so these rows pin the crash-stop skip
        // of the protocol phase.
        (
            "crash-early",
            Some(FaultPlan::new(46).crash(3, 2).crash(7, 1)),
        ),
    ]
}

fn graphs() -> [(&'static str, Arc<Graph>); 3] {
    let mut rng = StdRng::seed_from_u64(5);
    [
        ("ring12", Arc::new(gen::ring(12).unwrap())),
        ("torus4x5", Arc::new(gen::torus2d(4, 5).unwrap())),
        (
            "regular24",
            Arc::new(gen::random_regular(24, 4, &mut rng).unwrap()),
        ),
    ]
}

fn digest(
    events: &[TransmitEvent],
    metrics: &Metrics,
    round: u64,
    virtual_time: f64,
    telemetry: &TelemetryReport,
) -> u64 {
    let mut h = Fnv::new();
    h.word(events.len() as u64);
    for e in events {
        h.event(e);
    }
    h.metrics(metrics);
    h.word(round);
    h.word(virtual_time.to_bits());
    h.word(telemetry.total_samples);
    for s in &telemetry.samples {
        h.sample(s);
    }
    h.0
}

/// Drives a run the way the adaptive election runner does — run until
/// quiescent, broadcast a signal, run again — until `signals` signals
/// have gone out. Every odd-numbered run stops two rounds in, so the
/// signal after it lands with messages still in inboxes and on the
/// wire. `signals = 0` is one plain run.
fn drive<P: Protocol>(e: &mut Engine<P>, signals: u64, rec: &mut RecordingObserver) {
    for k in 0..=signals {
        let cut = k % 2 == 1;
        let limit = if cut { e.round() + 2 } else { ROUND_LIMIT };
        let out = e.run_observed(limit, rec);
        let paused = match out {
            RunOutcome::Quiescent { .. } => true,
            RunOutcome::RoundLimit { .. } => cut,
            _ => false,
        };
        if k == signals || !paused {
            break;
        }
        e.signal(k);
    }
}

/// Runs one case and hashes it.
fn fingerprint<P: Protocol>(
    g: &Arc<Graph>,
    seed: u64,
    plan: Option<&FaultPlan>,
    exe: Exe,
    signals: u64,
    make: impl Fn(usize) -> P,
) -> u64 {
    let cfg = EngineConfig {
        seed,
        bandwidth_bits: None,
    };
    let mut rec = RecordingObserver::default();
    let mut e = Engine::from_fn(Arc::clone(g), cfg, make);
    match exe {
        Exe::Serial => {}
        Exe::Threaded => {
            e.set_threads(3);
            e.set_inline_cutoff(0);
        }
        Exe::Latent(model) => e.set_latency(model).unwrap(),
    }
    if let Some(p) = plan {
        e.set_fault_plan(p).unwrap();
    }
    e.set_telemetry(TelemetryConfig::full());
    drive(&mut e, signals, &mut rec);
    let t = e.take_telemetry().unwrap();
    digest(&rec.events, e.metrics(), e.round(), e.virtual_time(), &t)
}

/// Pins as `(protocol, graph, fault setting, one hash per executor in
/// the order of [`executors`])`, captured before the latency layer was
/// folded into `Engine`.
const PINS: [(&str, &str, &str, [u64; 6]); 54] = [
    (
        "floodmax",
        "ring12",
        "none",
        [
            0x5865be0c4096a57f,
            0x5865be0c4096a57f,
            0x5865be0c4096a57f,
            0xddee588735e6fef6,
            0xfb9ed87cbed3f0c0,
            0x9760f0f0c3eaea1a,
        ],
    ),
    (
        "floodmax",
        "ring12",
        "drop",
        [
            0xedc4dab64205efd9,
            0xedc4dab64205efd9,
            0xedc4dab64205efd9,
            0x360fb00db31760cd,
            0x8518c8c1481af812,
            0xb256070802110f9e,
        ],
    ),
    (
        "floodmax",
        "ring12",
        "delay",
        [
            0xddee588735e6fef6,
            0xddee588735e6fef6,
            0xddee588735e6fef6,
            0xc4985fe46f16ebc8,
            0x597d94eee6f0f8ec,
            0x47397f36f3abc68d,
        ],
    ),
    (
        "floodmax",
        "ring12",
        "delay-crash",
        [
            0x8deb5eefd4e05aaf,
            0x8deb5eefd4e05aaf,
            0x8deb5eefd4e05aaf,
            0xabd171bfa052c52e,
            0xf323b98cc05d7eb1,
            0x3b1ee8af6a42637f,
        ],
    ),
    (
        "floodmax",
        "ring12",
        "cut",
        [
            0x5865be0c4096a57f,
            0x5865be0c4096a57f,
            0x5865be0c4096a57f,
            0x98d520bf1e4398ba,
            0x67067c0dd5dc8823,
            0x234fcf04f1db0fb9,
        ],
    ),
    (
        "floodmax",
        "ring12",
        "crash-early",
        [
            0x4162e15c5c4c1142,
            0x4162e15c5c4c1142,
            0x4162e15c5c4c1142,
            0x3e0ae3274e537131,
            0xc370a44323e8a42c,
            0x79f11c353d5fcf9c,
        ],
    ),
    (
        "floodmax",
        "torus4x5",
        "none",
        [
            0x28a2568479d22257,
            0x28a2568479d22257,
            0x28a2568479d22257,
            0x51142bdfd04bf591,
            0x5e2e0f16e847f8e6,
            0x367526d73ca771b3,
        ],
    ),
    (
        "floodmax",
        "torus4x5",
        "drop",
        [
            0x9a261b1b4d075ade,
            0x9a261b1b4d075ade,
            0x9a261b1b4d075ade,
            0x1eac4cabdef009a0,
            0x147fae9e6a9fd433,
            0x56c27ea009df36fc,
        ],
    ),
    (
        "floodmax",
        "torus4x5",
        "delay",
        [
            0x51142bdfd04bf591,
            0x51142bdfd04bf591,
            0x51142bdfd04bf591,
            0x03bd19ddac8eb191,
            0x467c81485e811a8c,
            0x6d6c2271e85c2a0b,
        ],
    ),
    (
        "floodmax",
        "torus4x5",
        "delay-crash",
        [
            0x0ab2b6ccebb4c7c3,
            0x0ab2b6ccebb4c7c3,
            0x0ab2b6ccebb4c7c3,
            0x010d589b4637c15f,
            0xc9633365a7905015,
            0x6eed965d67dd88b0,
        ],
    ),
    (
        "floodmax",
        "torus4x5",
        "cut",
        [
            0xb6bab9314dd777c0,
            0xb6bab9314dd777c0,
            0xb6bab9314dd777c0,
            0x138438033dc27157,
            0x8e0b8d6c1829a615,
            0x6b925d76df9665e3,
        ],
    ),
    (
        "floodmax",
        "torus4x5",
        "crash-early",
        [
            0xe852311ff8f5d368,
            0xe852311ff8f5d368,
            0xe852311ff8f5d368,
            0x7a2a95b884001f0f,
            0xa6298f0e142a1186,
            0x906a85c019b48f8c,
        ],
    ),
    (
        "floodmax",
        "regular24",
        "none",
        [
            0xcf86e0c567386044,
            0xcf86e0c567386044,
            0xcf86e0c567386044,
            0x5b569cf11fd375d6,
            0x592184747dc3ab07,
            0x58f33d11781b2fac,
        ],
    ),
    (
        "floodmax",
        "regular24",
        "drop",
        [
            0xcec36bfc2756a7ba,
            0xcec36bfc2756a7ba,
            0xcec36bfc2756a7ba,
            0xff338889ba3bba56,
            0x9a5bbd233400ae60,
            0xdb2075aff367c3f4,
        ],
    ),
    (
        "floodmax",
        "regular24",
        "delay",
        [
            0x5b569cf11fd375d6,
            0x5b569cf11fd375d6,
            0x5b569cf11fd375d6,
            0x5a433a54ed1b2d86,
            0x53ba5bdd20bf5eb6,
            0x0899f166d3bb2104,
        ],
    ),
    (
        "floodmax",
        "regular24",
        "delay-crash",
        [
            0x86b59a7334ef5f51,
            0x86b59a7334ef5f51,
            0x86b59a7334ef5f51,
            0x9fd42998932bef3a,
            0xe565a5a8b9930fdc,
            0x2825bc5dd5ba97e1,
        ],
    ),
    (
        "floodmax",
        "regular24",
        "cut",
        [
            0x4000349db87a522c,
            0x4000349db87a522c,
            0x4000349db87a522c,
            0x4243a459b5d07cb2,
            0x23a8057c1390ebc2,
            0x4fe3361beadce257,
        ],
    ),
    (
        "floodmax",
        "regular24",
        "crash-early",
        [
            0x432cf9a476dd37d4,
            0x432cf9a476dd37d4,
            0x432cf9a476dd37d4,
            0xacbfc06e7fe74597,
            0xf55488cffbba0753,
            0x16aecd5c7d04ea2f,
        ],
    ),
    (
        "echo",
        "ring12",
        "none",
        [
            0xdb8417b35328f2c9,
            0xdb8417b35328f2c9,
            0xdb8417b35328f2c9,
            0x8edc3ee1b16c023c,
            0xc198b589714d7463,
            0xa2acda7151106ce9,
        ],
    ),
    (
        "echo",
        "ring12",
        "drop",
        [
            0x50da962c46833d91,
            0x50da962c46833d91,
            0x50da962c46833d91,
            0x8edc3ee1b16c023c,
            0xc198b589714d7463,
            0xa2acda7151106ce9,
        ],
    ),
    (
        "echo",
        "ring12",
        "delay",
        [
            0x8edc3ee1b16c023c,
            0x8edc3ee1b16c023c,
            0x8edc3ee1b16c023c,
            0xbded621e8890a25a,
            0x30c65873919ff68f,
            0xc44b8f3d868e58b2,
        ],
    ),
    (
        "echo",
        "ring12",
        "delay-crash",
        [
            0x4835d38ed3a4bcea,
            0x4835d38ed3a4bcea,
            0x4835d38ed3a4bcea,
            0xe08d48b24c2b35a5,
            0x257d1779fc2e65a2,
            0x58a92d9cd28f6bd7,
        ],
    ),
    (
        "echo",
        "ring12",
        "cut",
        [
            0xdb8417b35328f2c9,
            0xdb8417b35328f2c9,
            0xdb8417b35328f2c9,
            0x8edc3ee1b16c023c,
            0xc198b589714d7463,
            0xa2acda7151106ce9,
        ],
    ),
    (
        "echo",
        "ring12",
        "crash-early",
        [
            0x05dd1e3103fb1154,
            0x05dd1e3103fb1154,
            0x05dd1e3103fb1154,
            0xfa3c20cfd848c297,
            0x02fab37d9509438b,
            0xc949f1cf31be6b8e,
        ],
    ),
    (
        "echo",
        "torus4x5",
        "none",
        [
            0xfd6720cedfb0d19d,
            0xfd6720cedfb0d19d,
            0xfd6720cedfb0d19d,
            0xcd7e65b08fe1b3ae,
            0xfbbe927d123b4315,
            0x953a2dba18e74bc1,
        ],
    ),
    (
        "echo",
        "torus4x5",
        "drop",
        [
            0xfa00c16d3583c2b9,
            0xfa00c16d3583c2b9,
            0xfa00c16d3583c2b9,
            0x9c84fa8526400f48,
            0x0108a4f5f10f6e92,
            0x88f45424d05bc228,
        ],
    ),
    (
        "echo",
        "torus4x5",
        "delay",
        [
            0xcd7e65b08fe1b3ae,
            0xcd7e65b08fe1b3ae,
            0xcd7e65b08fe1b3ae,
            0x1dd910e21b10fc3a,
            0x89b3b1eefa0522a5,
            0x6fe4831875b87c6b,
        ],
    ),
    (
        "echo",
        "torus4x5",
        "delay-crash",
        [
            0x072b6c85f84e3e16,
            0x072b6c85f84e3e16,
            0x072b6c85f84e3e16,
            0xcc46f9ef05a839dc,
            0xa4d8cd7ff08e7ce2,
            0xd9a1812b8270945f,
        ],
    ),
    (
        "echo",
        "torus4x5",
        "cut",
        [
            0xfd6720cedfb0d19d,
            0xfd6720cedfb0d19d,
            0xfd6720cedfb0d19d,
            0xcd7e65b08fe1b3ae,
            0xfbbe927d123b4315,
            0x953a2dba18e74bc1,
        ],
    ),
    (
        "echo",
        "torus4x5",
        "crash-early",
        [
            0x6bcbe0c281fee41b,
            0x6bcbe0c281fee41b,
            0x6bcbe0c281fee41b,
            0x805a5465ef41892e,
            0x99ae29b4f1f6338a,
            0xf4e91afcf78a1cf5,
        ],
    ),
    (
        "echo",
        "regular24",
        "none",
        [
            0x3eb387eb176ba71f,
            0x3eb387eb176ba71f,
            0x3eb387eb176ba71f,
            0x00e0db14aac203da,
            0x62a6de554f3d5c2c,
            0x4c91a01bbd1b7108,
        ],
    ),
    (
        "echo",
        "regular24",
        "drop",
        [
            0x7e3fdf0c6184e89f,
            0x7e3fdf0c6184e89f,
            0x7e3fdf0c6184e89f,
            0x00e0db14aac203da,
            0x273142ac96ae3e59,
            0x920df9bc0a2afdc6,
        ],
    ),
    (
        "echo",
        "regular24",
        "delay",
        [
            0x00e0db14aac203da,
            0x00e0db14aac203da,
            0x00e0db14aac203da,
            0xeb88242c493c733c,
            0x5a774628056ffb3b,
            0xf3aefc726d8cbf08,
        ],
    ),
    (
        "echo",
        "regular24",
        "delay-crash",
        [
            0x7fff1b6a5efa8a76,
            0x7fff1b6a5efa8a76,
            0x7fff1b6a5efa8a76,
            0xa798375b8585ec27,
            0x4cf012c15cb22702,
            0x3a637adffe9ff6a3,
        ],
    ),
    (
        "echo",
        "regular24",
        "cut",
        [
            0x3eb387eb176ba71f,
            0x3eb387eb176ba71f,
            0x3eb387eb176ba71f,
            0x00e0db14aac203da,
            0x62a6de554f3d5c2c,
            0x4c91a01bbd1b7108,
        ],
    ),
    (
        "echo",
        "regular24",
        "crash-early",
        [
            0x322ba4c80dab5d32,
            0x322ba4c80dab5d32,
            0x322ba4c80dab5d32,
            0xf0ad8f00c8a19c83,
            0x5621a6b8ee4ad60b,
            0x0b83c84e94dd5a06,
        ],
    ),
    (
        "bfswave",
        "ring12",
        "none",
        [
            0x52ec40fcd9b8ca18,
            0x52ec40fcd9b8ca18,
            0x52ec40fcd9b8ca18,
            0x8b4994ddcb114f8b,
            0x2cdcbfb0f4cd8930,
            0x5ea16f044438fa1e,
        ],
    ),
    (
        "bfswave",
        "ring12",
        "drop",
        [
            0x06c88f4574265eac,
            0x06c88f4574265eac,
            0x06c88f4574265eac,
            0xb4e2c1eba21ea74a,
            0xe7edc0807f84c966,
            0x0713734d0decae30,
        ],
    ),
    (
        "bfswave",
        "ring12",
        "delay",
        [
            0x8b4994ddcb114f8b,
            0x8b4994ddcb114f8b,
            0x8b4994ddcb114f8b,
            0xc658be5b658bd6b9,
            0x67ae0b62da927bfb,
            0x99376e489a83d5a3,
        ],
    ),
    (
        "bfswave",
        "ring12",
        "delay-crash",
        [
            0x1b518714cf9aa783,
            0x1b518714cf9aa783,
            0x1b518714cf9aa783,
            0x5d1ac20f8837925b,
            0x70bc10f477fd4454,
            0x09f166be70513df3,
        ],
    ),
    (
        "bfswave",
        "ring12",
        "cut",
        [
            0x52ec40fcd9b8ca18,
            0x52ec40fcd9b8ca18,
            0x52ec40fcd9b8ca18,
            0x8cb66729c1444828,
            0xb351e1a515863219,
            0x6dfef3ac4ebf005c,
        ],
    ),
    (
        "bfswave",
        "ring12",
        "crash-early",
        [
            0x1a9bc41bddd3b463,
            0x1a9bc41bddd3b463,
            0x1a9bc41bddd3b463,
            0x2c9f3de764060893,
            0x275aa87d53e8b7da,
            0xe5e615990880fd4f,
        ],
    ),
    (
        "bfswave",
        "torus4x5",
        "none",
        [
            0x56587224d9375189,
            0x56587224d9375189,
            0x56587224d9375189,
            0x68613881f5f58447,
            0x0553a522992457aa,
            0x17c4cf515d2777dd,
        ],
    ),
    (
        "bfswave",
        "torus4x5",
        "drop",
        [
            0x723ebfefdcf6bd29,
            0x723ebfefdcf6bd29,
            0x723ebfefdcf6bd29,
            0x9b6235e31572b65e,
            0x565f96925275b4cf,
            0x346cb90a29411a59,
        ],
    ),
    (
        "bfswave",
        "torus4x5",
        "delay",
        [
            0x68613881f5f58447,
            0x68613881f5f58447,
            0x68613881f5f58447,
            0xd9fea184fd36d197,
            0x9b13060053f95e6d,
            0xfb85264afbbf20d2,
        ],
    ),
    (
        "bfswave",
        "torus4x5",
        "delay-crash",
        [
            0xfe344c9a34fdd205,
            0xfe344c9a34fdd205,
            0xfe344c9a34fdd205,
            0x542c92b40c1fd3d2,
            0xda515886100e25d5,
            0x1f38efe8201d1785,
        ],
    ),
    (
        "bfswave",
        "torus4x5",
        "cut",
        [
            0x73a081d93af3aa49,
            0x73a081d93af3aa49,
            0x73a081d93af3aa49,
            0x306a080d67f60eb8,
            0x062e3ced2a7a51a9,
            0x4327983dbea49ca2,
        ],
    ),
    (
        "bfswave",
        "torus4x5",
        "crash-early",
        [
            0x3e7e533bd3bdb9ec,
            0x3e7e533bd3bdb9ec,
            0x3e7e533bd3bdb9ec,
            0x87e3060827c21513,
            0xa53314a5d03b3917,
            0x507cd5f34d06d562,
        ],
    ),
    (
        "bfswave",
        "regular24",
        "none",
        [
            0xae574c30ed637b37,
            0xae574c30ed637b37,
            0xae574c30ed637b37,
            0x4ee8ad5c1e13fc2d,
            0x8802ad4e7b7d27ef,
            0xc74505e0665ffb3a,
        ],
    ),
    (
        "bfswave",
        "regular24",
        "drop",
        [
            0x358bc2b4b44555c9,
            0x358bc2b4b44555c9,
            0x358bc2b4b44555c9,
            0x9ecf36f874ea0459,
            0x9e3431120e6cdfb2,
            0x8022650d51a49de5,
        ],
    ),
    (
        "bfswave",
        "regular24",
        "delay",
        [
            0x4ee8ad5c1e13fc2d,
            0x4ee8ad5c1e13fc2d,
            0x4ee8ad5c1e13fc2d,
            0x17ca128ef08324c5,
            0x9e94369377d15384,
            0x8e254b8f49bdf299,
        ],
    ),
    (
        "bfswave",
        "regular24",
        "delay-crash",
        [
            0x992b9d7b7550fcf2,
            0x992b9d7b7550fcf2,
            0x992b9d7b7550fcf2,
            0x7731cad09ce5192d,
            0xe3b84eb327920f0f,
            0x59d9566a26ad7335,
        ],
    ),
    (
        "bfswave",
        "regular24",
        "cut",
        [
            0xa4adc9796c1c283d,
            0xa4adc9796c1c283d,
            0xa4adc9796c1c283d,
            0xec90591a0c68e0eb,
            0x25bc4a12de38c68e,
            0x08d2fc2d93656279,
        ],
    ),
    (
        "bfswave",
        "regular24",
        "crash-early",
        [
            0x156bc24dd4b9f01c,
            0x156bc24dd4b9f01c,
            0x156bc24dd4b9f01c,
            0xa76c5103e73cdbee,
            0x59931fccefceff19,
            0x202ec8733af78f39,
        ],
    ),
];

#[test]
fn executions_match_their_pins() {
    let mut got = Vec::new();
    for (pi, proto) in ["floodmax", "echo", "bfswave"].into_iter().enumerate() {
        for (gi, (gname, g)) in graphs().into_iter().enumerate() {
            for (fi, (fname, plan)) in fault_settings().into_iter().enumerate() {
                let seed = 0x5EED ^ ((pi * 100 + gi * 10 + fi) as u64);
                let mut row = [0u64; 6];
                for (slot, (_, exe)) in row.iter_mut().zip(executors()) {
                    let plan = plan.as_ref();
                    *slot = match proto {
                        "floodmax" => fingerprint(&g, seed, plan, exe, 0, |i| {
                            FloodMax::new((i as u64).wrapping_mul(131) % 97)
                        }),
                        "echo" => fingerprint(&g, seed, plan, exe, 0, |i| Echo::new(i % 3 == 0)),
                        _ => fingerprint(&g, seed, plan, exe, 0, |i| BfsWave::new(i == 0)),
                    };
                }
                got.push((proto, gname, fname, row));
            }
        }
    }
    let table: String = got
        .iter()
        .map(|(p, g, f, row)| {
            let hashes: Vec<String> = row.iter().map(|h| format!("0x{h:016x}")).collect();
            format!("    ({p:?}, {g:?}, {f:?}, [{}]),\n", hashes.join(", "))
        })
        .collect();
    assert_eq!(got.len(), PINS.len(), "case count; actual table:\n{table}");
    let mut drifted = Vec::new();
    for (pin, (p, g, f, row)) in PINS.iter().zip(&got) {
        assert_eq!((pin.0, pin.1, pin.2), (*p, *g, *f), "case order");
        for (k, (want, have)) in pin.3.iter().zip(row).enumerate() {
            if want != have {
                drifted.push(format!("{p}/{g}/{f} on {}", executors()[k].0));
            }
        }
    }
    assert!(
        drifted.is_empty(),
        "executions drifted from their pins: {drifted:?}\nactual table:\n{table}"
    );
}

/// Signals each [`signalled_executions_match_their_pins`] run receives.
const SIGNALS: u64 = 4;

/// A protocol that moves only when signalled. Each signal draws from
/// the node's RNG, may start a flood of a fresh value (so signal sends
/// cross the wire and count in `sent_by_node`) and may ask for a wake-up
/// at the current round (which the engine clamps to the next one).
/// Floods spread the largest value seen; a woken node re-sends it on
/// port 0. The phase tag is the number of signals seen, so each
/// signal's tag must land in the sample of the round after it.
struct Beacon {
    id: u64,
    best: u64,
    signals: u8,
    wake: Option<u64>,
}

impl Beacon {
    fn new(i: usize) -> Self {
        Beacon {
            id: (i as u64).wrapping_mul(37) % 101,
            best: 0,
            signals: 0,
            wake: None,
        }
    }

    fn flood(&self, ctx: &mut Context<'_, u64>) {
        for p in 0..ctx.degree() {
            ctx.send(Port::new(p), self.best);
        }
    }
}

impl Protocol for Beacon {
    type Msg = u64;

    fn on_round(&mut self, ctx: &mut Context<'_, u64>, inbox: &mut Vec<(Port, u64)>) {
        let before = self.best;
        for (_, v) in inbox.drain(..) {
            self.best = self.best.max(v);
        }
        if self.best > before {
            self.flood(ctx);
        }
        if self.wake.is_some_and(|w| ctx.round() > w) && ctx.degree() > 0 {
            self.wake = None;
            ctx.send(Port::new(0), self.best);
        }
    }

    fn on_signal(&mut self, ctx: &mut Context<'_, u64>, signal: Signal) {
        self.signals += 1;
        let coin: u64 = ctx.rng().random::<u64>() % 6;
        if coin < 3 {
            self.best = self.best.max(((signal + 1) << 16) | (self.id << 4) | coin);
            self.flood(ctx);
        }
        if coin.is_multiple_of(2) {
            self.wake = Some(ctx.round());
            ctx.wake_at(ctx.round());
        }
    }

    fn phase_tag(&self) -> Option<u8> {
        Some(self.signals)
    }
}

/// The fault settings of [`signalled_executions_match_their_pins`]:
/// those of [`fault_settings`] but "crash-early", plus one whose
/// crashes are sure to land among the signals (the fractional crashes
/// of "delay-crash" pick no node of these graphs).
fn signal_fault_settings() -> impl Iterator<Item = (&'static str, Option<FaultPlan>)> {
    let crash = FaultPlan::new(45).crash(3, 4).crash(7, 12);
    fault_settings()
        .into_iter()
        .filter(|(name, _)| *name != "crash-early")
        .chain([("crash", Some(crash))])
}

/// Pins as `(graph, fault setting, one hash per executor in the order
/// of [`executors`])` for [`Beacon`] runs given [`SIGNALS`] signals,
/// captured before the protocol phase was shared between executors.
const SIGNAL_PINS: [(&str, &str, [u64; 6]); 18] = [
    (
        "ring12",
        "none",
        [
            0x6dabfc1dffd0cbd4,
            0x6dabfc1dffd0cbd4,
            0x6dabfc1dffd0cbd4,
            0x83143c2362b39227,
            0x15ea8dbda92131c2,
            0xf825ebf7f4f0d4c0,
        ],
    ),
    (
        "ring12",
        "drop",
        [
            0xa99ec115ebb8ad01,
            0xa99ec115ebb8ad01,
            0xa99ec115ebb8ad01,
            0x4c1babdd985b2b8f,
            0xc408294b8d6c97fd,
            0xdc4e5ce35620509c,
        ],
    ),
    (
        "ring12",
        "delay",
        [
            0x0aaf14965efa9dae,
            0x0aaf14965efa9dae,
            0x0aaf14965efa9dae,
            0x2f69fe0b539aa844,
            0xfd77eb78f8b98a08,
            0xea4287b2b3642409,
        ],
    ),
    (
        "ring12",
        "delay-crash",
        [
            0x7afb4c0d4a91d6a2,
            0x7afb4c0d4a91d6a2,
            0x7afb4c0d4a91d6a2,
            0xc27d7f5a81cdc9ca,
            0x79a29156e1ef781c,
            0x65ef98b3f1d3c697,
        ],
    ),
    (
        "ring12",
        "cut",
        [
            0x2f4ed8e5515d8e71,
            0x2f4ed8e5515d8e71,
            0x2f4ed8e5515d8e71,
            0xbc69b7ba271b8f5f,
            0xe25ede3ddce72c73,
            0x7def51be3f28d159,
        ],
    ),
    (
        "ring12",
        "crash",
        [
            0x4e77f6923f938ebf,
            0x4e77f6923f938ebf,
            0x4e77f6923f938ebf,
            0x6e8fb8c61b60716b,
            0xd11ff73c08b30c5f,
            0x3ad272379ae6340f,
        ],
    ),
    (
        "torus4x5",
        "none",
        [
            0x5ec6e8da48453b1f,
            0x5ec6e8da48453b1f,
            0x5ec6e8da48453b1f,
            0xf3667efc6cbe213e,
            0x2229631f91017e29,
            0x56fc1dc01caa1d31,
        ],
    ),
    (
        "torus4x5",
        "drop",
        [
            0x210d15d63ee85718,
            0x210d15d63ee85718,
            0x210d15d63ee85718,
            0xb556ba8bb64ab735,
            0x17b212ec6bc7c073,
            0xd7fa9725465e1dbb,
        ],
    ),
    (
        "torus4x5",
        "delay",
        [
            0xa442a3a7c998ae49,
            0xa442a3a7c998ae49,
            0xa442a3a7c998ae49,
            0x83c447dc0f5c5b42,
            0xd80b4b4d7d77f10f,
            0x60c3e7a5f368dbd3,
        ],
    ),
    (
        "torus4x5",
        "delay-crash",
        [
            0x85826e62f17e3a45,
            0x85826e62f17e3a45,
            0x85826e62f17e3a45,
            0x84a41614f3d69847,
            0x7be5b548f8e41c29,
            0xa4ac916eda370021,
        ],
    ),
    (
        "torus4x5",
        "cut",
        [
            0xd530b29dfda473e1,
            0xd530b29dfda473e1,
            0xd530b29dfda473e1,
            0x9205cfd7938bcfb8,
            0x21ea375dbaafd440,
            0x1e001d93f0c7bc1b,
        ],
    ),
    (
        "torus4x5",
        "crash",
        [
            0x1e5a191bcd282e91,
            0x1e5a191bcd282e91,
            0x1e5a191bcd282e91,
            0x42ef702c7f868bb5,
            0xaa46078ff844a7c2,
            0x2b1415eba06d5e35,
        ],
    ),
    (
        "regular24",
        "none",
        [
            0x9ed1eba7466f77ae,
            0x9ed1eba7466f77ae,
            0x9ed1eba7466f77ae,
            0xeb68e4e29e595ec0,
            0x101d588f3d63b8e8,
            0xc7dc16f9fc16e6d9,
        ],
    ),
    (
        "regular24",
        "drop",
        [
            0x4e355b31b3eb2410,
            0x4e355b31b3eb2410,
            0x4e355b31b3eb2410,
            0x3ab020732b59fc0e,
            0xa96151e5b5c19dbc,
            0x1880984bd5d1ec82,
        ],
    ),
    (
        "regular24",
        "delay",
        [
            0xc9bbd7d30706fa41,
            0xc9bbd7d30706fa41,
            0xc9bbd7d30706fa41,
            0x5a091a47bffbf7c3,
            0x4666a8f084f8d3a1,
            0x79ac2963e9996309,
        ],
    ),
    (
        "regular24",
        "delay-crash",
        [
            0xb665461458c54db8,
            0xb665461458c54db8,
            0xb665461458c54db8,
            0xc1b9deac39b4986b,
            0x618bf7bb16f04acf,
            0x510f73189db9e973,
        ],
    ),
    (
        "regular24",
        "cut",
        [
            0xee64ec4af7512572,
            0xee64ec4af7512572,
            0xee64ec4af7512572,
            0xfb494c5365063325,
            0x17110fe17b636e21,
            0x34594e77b7a61f8e,
        ],
    ),
    (
        "regular24",
        "crash",
        [
            0x3320274c608d8659,
            0x3320274c608d8659,
            0x3320274c608d8659,
            0xafdd840454a5ab1c,
            0x0ba1ee6858159093,
            0xc923e66c2014bbb7,
        ],
    ),
];

#[test]
fn signalled_executions_match_their_pins() {
    let mut got = Vec::new();
    for (gi, (gname, g)) in graphs().into_iter().enumerate() {
        for (fi, (fname, plan)) in signal_fault_settings().enumerate() {
            let seed = 0x516 ^ ((gi * 10 + fi) as u64);
            let mut row = [0u64; 6];
            for (slot, (_, exe)) in row.iter_mut().zip(executors()) {
                *slot = fingerprint(&g, seed, plan.as_ref(), exe, SIGNALS, Beacon::new);
            }
            got.push((gname, fname, row));
        }
    }
    let table: String = got
        .iter()
        .map(|(g, f, row)| {
            let hashes: Vec<String> = row.iter().map(|h| format!("0x{h:016x}")).collect();
            format!("    ({g:?}, {f:?}, [{}]),\n", hashes.join(", "))
        })
        .collect();
    assert_eq!(
        got.len(),
        SIGNAL_PINS.len(),
        "case count; actual table:\n{table}"
    );
    let mut drifted = Vec::new();
    for (pin, (g, f, row)) in SIGNAL_PINS.iter().zip(&got) {
        assert_eq!((pin.0, pin.1), (*g, *f), "case order");
        for (k, (want, have)) in pin.2.iter().zip(row).enumerate() {
            if want != have {
                drifted.push(format!("{g}/{f} on {}", executors()[k].0));
            }
        }
    }
    assert!(
        drifted.is_empty(),
        "signalled executions drifted from their pins: {drifted:?}\nactual table:\n{table}"
    );
}
