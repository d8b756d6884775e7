//! Configuration and derived parameters of the election algorithm.

use welle_congest::bits_for;

use crate::error::ConfigError;

/// Message-size regime (Lemma 12 analyses both).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum MsgSizeMode {
    /// Standard CONGEST: `O(log n)` bits per message ("each O(log n)
    /// sized message contains the information of the id of a node and
    /// some additional O(1) bits"); id sets travel four ids per message,
    /// a constant, so every message stays within `O(log n)` bits.
    #[default]
    Congest,
    /// The paper's relaxed variant: `O(log³ n)`-bit messages, whole id
    /// sets in one message — message complexity drops to
    /// `O(√n log^{3/2} n · t_mix)`.
    Large,
}

/// How segment boundaries are realized. Every epoch of Algorithm 1 is
/// five segments in a fixed order (walk, R1, R2, R3, wait; see
/// [`Phase`]), and the paper times them on a round clock all nodes
/// share. `FixedT` simulates that clock: each segment owns a budget of
/// rounds whether or not it needs them. `Adaptive` ends a segment when
/// the network falls quiescent (nothing in flight, no wake-up pending),
/// and the election's runner then broadcasts the advance signal that
/// opens the next one.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum SyncMode {
    /// Paper-faithful fixed budgets: epoch `e` reserves
    /// `T_e = ⌈c_T·2^e·ln²n⌉` rounds per segment; nodes act on the shared
    /// round clock. Use this when measuring *time* (Theorem 13's
    /// `O(t_mix log² n)`).
    #[default]
    FixedT,
    /// Segments advance when the simulator observes quiescence (driver
    /// broadcasts an advance signal). Identical message complexity;
    /// reported rounds are the rounds actually consumed. Use for large
    /// sweeps.
    Adaptive,
}

/// Ids per `I1` unit in CONGEST mode: the most a unit carries under
/// [`congest_cap`] at every id width. A unit of `k` ids of `b` bits costs
/// at most `3 + b + 7 + k·b` bits (tag, origin, an epoch below 64, the
/// ids), so four ids fit whenever `b ≤ 86`, and ids have at most 64 bits.
const CONGEST_FRAG: usize = 4;

/// The CONGEST per-message bit cap for ids of `id_bits` bits.
fn congest_cap(id_bits: usize) -> usize {
    4 * id_bits + 96
}

/// User-facing tuning knobs of Algorithm 1 + 2.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ElectionConfig {
    /// The paper's `c1`: contender probability is `c1·ln n / n` and the
    /// intersection threshold is `(3/4)·c1·ln n` (Lemma 1).
    pub c1: f64,
    /// The paper's `c2 ≥ 2`: each contender runs `c2·√n·ln n` walks and
    /// needs `(c2/2)·√n·ln n` distinct proxies (Distinctness Property).
    pub c2: f64,
    /// Schedule multiplier: segment budget `T = ⌈c_T · t_u · ln² n⌉`
    /// (the paper's `T = (25/16)c1·t_u·log² n` up to the constant).
    pub c_t: f64,
    /// Message-size regime.
    pub msg_size: MsgSizeMode,
    /// Segment-boundary realization.
    pub sync: SyncMode,
    /// Walk-length cap: guessing stops (and the run is declared failed)
    /// once `t_u` would exceed this. `None` derives `4·n²` (covers
    /// `t_mix` of every family used here except pathological lollipops).
    pub max_walk_len: Option<u32>,
    /// `Some(L)` switches to the Kutten et al. \[25\] baseline: a single
    /// phase with known walk length `L ≈ c3·t_mix`, no guess-and-double.
    pub fixed_walk_len: Option<u32>,
    /// Enforce the per-message bit cap inside the engine (panics on
    /// protocol bugs that exceed the budget).
    pub enforce_bandwidth: bool,
}

impl Default for ElectionConfig {
    fn default() -> Self {
        ElectionConfig {
            c1: 3.0,
            c2: 2.0,
            c_t: 1.0,
            msg_size: MsgSizeMode::Congest,
            sync: SyncMode::FixedT,
            max_walk_len: None,
            fixed_walk_len: None,
            enforce_bandwidth: true,
        }
    }
}

impl ElectionConfig {
    /// A configuration tuned for simulation-scale networks
    /// (n in the hundreds to low thousands): `c1 = 4` (denser contender
    /// sets concentrate better at small `n`), `c2 = 1` (keeps the walk
    /// budget in the paper's `√n·log n ≪ n` regime), adaptive segment
    /// advancement, and a walk-length cap of `max(256, 16·ln²n)` — far
    /// above the `t_mix` of any well-connected family, so only genuinely
    /// failing runs give up early instead of simulating `4n²`-step walks.
    ///
    /// Use [`ElectionConfig::default`] for the paper-faithful constants.
    pub fn tuned_for_simulation(n: usize) -> Self {
        let ln = (n as f64).ln().max(1.0);
        ElectionConfig {
            c1: 4.0,
            c2: 1.0,
            sync: SyncMode::Adaptive,
            max_walk_len: Some(((16.0 * ln * ln) as u32).max(256)),
            ..ElectionConfig::default()
        }
    }

    /// Checks the configuration against a network of `n` nodes without
    /// deriving anything.
    ///
    /// # Errors
    ///
    /// Returns the first [`ConfigError`] found: a non-finite or
    /// non-positive tuning constant, a zero walk cap, or `n < 2`.
    pub fn validate(&self, n: usize) -> Result<(), ConfigError> {
        for (name, value) in [("c1", self.c1), ("c2", self.c2), ("c_t", self.c_t)] {
            if !value.is_finite() || value <= 0.0 {
                return Err(ConfigError::BadConstant { name, value });
            }
        }
        if self.max_walk_len == Some(0) {
            return Err(ConfigError::ZeroWalkCap);
        }
        if self.fixed_walk_len == Some(0) {
            return Err(ConfigError::ZeroFixedWalk);
        }
        if n < 2 {
            return Err(ConfigError::TooFewNodes { n });
        }
        Ok(())
    }
}

/// The five segments of one guess-and-double epoch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Random walks spread (`[S, S+T)`).
    Walk,
    /// Proxies reply with id, distinctness bit and `I1` (`[S+T, S+2T)`).
    R1,
    /// Contenders broadcast `I2` to their proxies (`[S+2T, S+3T)`).
    R2,
    /// Proxies reply with `I3` (`[S+3T, S+4T)`).
    R3,
    /// Contenders decide; winner/stop waves propagate (`[S+4T, S+6T)`).
    Wait,
}

impl Phase {
    /// Every phase, in segment order — the telemetry layer's bucket
    /// order for per-phase tables.
    pub const ALL: [Phase; 5] = [Phase::Walk, Phase::R1, Phase::R2, Phase::R3, Phase::Wait];

    /// Phase from a global segment index (5 per epoch).
    pub fn of_segment(seg: u64) -> Phase {
        match seg % 5 {
            0 => Phase::Walk,
            1 => Phase::R1,
            2 => Phase::R2,
            3 => Phase::R3,
            _ => Phase::Wait,
        }
    }

    /// The stable numeric tag published through
    /// [`Protocol::phase_tag`](welle_congest::Protocol::phase_tag):
    /// the phase's position in the segment cycle, so
    /// `Phase::of_segment(s).tag() == (s % 5) as u8`.
    pub fn tag(self) -> u8 {
        match self {
            Phase::Walk => 0,
            Phase::R1 => 1,
            Phase::R2 => 2,
            Phase::R3 => 3,
            Phase::Wait => 4,
        }
    }

    /// Inverse of [`Phase::tag`]; `None` for tags outside `0..5`.
    pub fn from_tag(tag: u8) -> Option<Phase> {
        Phase::ALL.get(tag as usize).copied()
    }

    /// Short human-readable name (phase-table and round-log output).
    pub fn name(self) -> &'static str {
        match self {
            Phase::Walk => "walk",
            Phase::R1 => "r1",
            Phase::R2 => "r2",
            Phase::R3 => "r3",
            Phase::Wait => "wait",
        }
    }
}

/// All derived quantities, shared read-only by every node (they are a pure
/// function of `(n, config)`, so "all nodes know `n`" gives them to
/// everyone for free).
#[derive(Clone, Debug)]
pub struct Params {
    /// Network size.
    pub n: usize,
    /// The source configuration.
    pub cfg: ElectionConfig,
    /// `ln n` (the paper's `log n`; constants absorb the base).
    pub ln_n: f64,
    /// Contender probability `min(1, c1·ln n / n)`.
    pub contender_prob: f64,
    /// Walks per contender `K = max(1, ⌈c2·√n·ln n⌉)`.
    pub walks_per_contender: u32,
    /// Intersection threshold `max(1, ⌊(3/4)·c1·ln n⌋)`.
    pub tau_intersection: usize,
    /// Distinctness threshold `max(1, ⌈(c2/2)·√n·ln n⌉)`.
    pub tau_distinct: usize,
    /// Ids are drawn uniformly from `[1, id_max]` with `id_max = n⁴`
    /// (saturating at `u64::MAX`).
    pub id_max: u64,
    /// Number of guess-and-double epochs before giving up.
    pub max_epochs: u32,
    /// Ids per `I1` unit: four in CONGEST mode, the most the cap fits at
    /// every id width; in Large mode, four times the expected contender
    /// count.
    pub frag: usize,
    /// Engine-level per-message bit cap, if enforcement is on.
    pub bandwidth_bits: Option<usize>,
    epoch_starts: Vec<u64>,
}

impl Params {
    /// Derives all parameters for a network of `n` nodes.
    ///
    /// # Panics
    ///
    /// Panics on any configuration [`ElectionConfig::validate`] rejects
    /// (notably `n < 2`). Fallible callers — the [`Election`] builder
    /// among them — use [`Params::try_derive`].
    ///
    /// [`Election`]: crate::Election
    pub fn derive(n: usize, cfg: ElectionConfig) -> Params {
        Params::try_derive(n, cfg).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Derives all parameters for a network of `n` nodes, reporting
    /// invalid configurations as a typed error instead of panicking.
    ///
    /// # Errors
    ///
    /// Returns whatever [`ElectionConfig::validate`] rejects.
    pub fn try_derive(n: usize, cfg: ElectionConfig) -> Result<Params, ConfigError> {
        cfg.validate(n)?;
        let ln_n = (n as f64).ln().max(1.0);
        let contender_prob = (cfg.c1 * ln_n / n as f64).min(1.0);
        // Small-n regularization: the paper's asymptotic regime has
        // √n·log n = o(n); below n ≈ (c2/0.45)²·ln²n the unclamped
        // budget would exceed n·ln 2 walks, at which point the
        // Distinctness Property (≥ K/2 *distinct* endpoints among n
        // bins) cannot hold for any walk length. Clamping K at 0.45·n
        // keeps the property satisfiable without touching the
        // asymptotics.
        let unclamped = (cfg.c2 * (n as f64).sqrt() * ln_n).ceil().max(1.0);
        let walks_per_contender = unclamped.min((0.45 * n as f64).ceil().max(1.0)) as u32;
        let tau_intersection = ((0.75 * cfg.c1 * ln_n).floor() as usize).max(1);
        let tau_distinct = (walks_per_contender as usize).div_ceil(2);
        let id_max = (n as u128).pow(4).min(u64::MAX as u128) as u64;

        let max_walk_len = cfg
            .fixed_walk_len
            .or(cfg.max_walk_len)
            .unwrap_or_else(|| ((4 * n * n) as u64).min(u32::MAX as u64) as u32)
            .max(1);
        let max_epochs = if cfg.fixed_walk_len.is_some() {
            1
        } else {
            // Smallest e with 2^e >= max_walk_len, inclusive.
            let mut e = 0u32;
            while (1u64 << e) < max_walk_len as u64 {
                e += 1;
            }
            e + 1
        };

        // Expected contender count is c1·ln n; allow 4x slack for the I1
        // caps used in Large-mode sizing.
        let i1_cap = ((4.0 * cfg.c1 * ln_n).ceil() as usize).max(4);
        let frag = match cfg.msg_size {
            MsgSizeMode::Congest => CONGEST_FRAG,
            MsgSizeMode::Large => i1_cap,
        };
        let id_bits = bits_for(id_max);
        let bandwidth_bits = if cfg.enforce_bandwidth {
            Some(match cfg.msg_size {
                MsgSizeMode::Congest => congest_cap(id_bits),
                MsgSizeMode::Large => (i1_cap + 2) * id_bits + 96,
            })
        } else {
            None
        };

        let mut params = Params {
            n,
            cfg,
            ln_n,
            contender_prob,
            walks_per_contender,
            tau_intersection,
            tau_distinct,
            id_max,
            max_epochs,
            frag,
            bandwidth_bits,
            epoch_starts: Vec::new(),
        };
        let mut starts = Vec::with_capacity(max_epochs as usize + 1);
        let mut acc = 0u64;
        starts.push(0);
        for e in 0..max_epochs {
            acc += 6 * params.segment_budget(e);
            starts.push(acc);
        }
        params.epoch_starts = starts;
        Ok(params)
    }

    /// Walk length `t_u` of epoch `e` (`2^e`, or the fixed baseline
    /// length).
    pub fn walk_len(&self, epoch: u32) -> u32 {
        match self.cfg.fixed_walk_len {
            Some(l) => l.max(1),
            None => 1u32 << epoch.min(31),
        }
    }

    /// Segment budget `T_e = max(t_u + 2, ⌈c_T·t_u·ln²n⌉)` rounds.
    pub fn segment_budget(&self, epoch: u32) -> u64 {
        let l = self.walk_len(epoch) as f64;
        let t = (self.cfg.c_t * l * self.ln_n * self.ln_n).ceil() as u64;
        t.max(self.walk_len(epoch) as u64 + 2)
    }

    /// Total number of segments (5 per epoch).
    pub fn total_segments(&self) -> u64 {
        5 * self.max_epochs as u64
    }

    /// Round at which global segment `seg` begins, in [`SyncMode::FixedT`].
    /// `seg == total_segments()` gives the end of the schedule.
    pub fn segment_boundary(&self, seg: u64) -> u64 {
        let epoch = (seg / 5).min(self.max_epochs as u64);
        if epoch == self.max_epochs as u64 {
            return self.epoch_starts[self.max_epochs as usize];
        }
        let t = self.segment_budget(epoch as u32);
        self.epoch_starts[epoch as usize] + (seg % 5) * t
    }

    /// Last round of the schedule plus drain slack — the engine run limit.
    pub fn round_limit(&self) -> u64 {
        self.segment_boundary(self.total_segments()) + 10 * self.segment_budget(self.max_epochs - 1)
    }
}

#[cfg(test)]
mod tests {
    use welle_congest::Payload;

    use super::*;
    use crate::msg::{ElectionMsg, RevItem};

    #[test]
    fn defaults_are_sane() {
        let p = Params::derive(1024, ElectionConfig::default());
        assert!(p.contender_prob > 0.0 && p.contender_prob < 0.05);
        // K = 2 * 32 * ln(1024) ≈ 443
        assert!(p.walks_per_contender >= 400 && p.walks_per_contender <= 500);
        // tau_int = 0.75 * 3 * 6.93 ≈ 15
        assert_eq!(p.tau_intersection, 15);
        assert_eq!(
            p.tau_distinct as u64,
            p.walks_per_contender as u64 / 2 + p.walks_per_contender as u64 % 2
        );
        assert_eq!(p.id_max, 1u64 << 40);
        assert_eq!(p.frag, 4);
    }

    #[test]
    fn packed_units_fit_the_cap_at_every_id_width() {
        for id_bits in 1..=64 {
            let widest = u64::MAX >> (64 - id_bits);
            assert_eq!(bits_for(widest), id_bits);
            let ids = [widest; CONGEST_FRAG];
            let unit = ElectionMsg::rev(widest, 63, RevItem::KnownContenders { ids: &ids });
            let cap = congest_cap(id_bits);
            assert!(
                unit.bit_size() <= cap,
                "{id_bits}-bit ids: {} > {cap}",
                unit.bit_size()
            );
        }
    }

    #[test]
    fn small_n_clamps() {
        let p = Params::derive(4, ElectionConfig::default());
        assert!(p.contender_prob <= 1.0);
        assert!(p.tau_intersection >= 1);
        assert!(p.tau_distinct >= 1);
        assert!(p.walks_per_contender >= 1);
    }

    #[test]
    fn walk_lengths_double() {
        let p = Params::derive(64, ElectionConfig::default());
        assert_eq!(p.walk_len(0), 1);
        assert_eq!(p.walk_len(3), 8);
        // Cap 4n² = 16384: epochs up to 2^14.
        assert_eq!(p.max_epochs, 15);
    }

    #[test]
    fn fixed_walk_len_gives_single_epoch() {
        let cfg = ElectionConfig {
            fixed_walk_len: Some(12),
            ..ElectionConfig::default()
        };
        let p = Params::derive(64, cfg);
        assert_eq!(p.max_epochs, 1);
        assert_eq!(p.walk_len(0), 12);
        assert_eq!(p.walk_len(7), 12);
    }

    #[test]
    fn boundaries_are_monotone_and_consistent() {
        let p = Params::derive(128, ElectionConfig::default());
        let mut prev = 0;
        for seg in 0..=p.total_segments() {
            let b = p.segment_boundary(seg);
            assert!(b >= prev, "boundaries must be nondecreasing");
            prev = b;
        }
        // Epoch e spans 6 budgets: boundary(5(e+1)) - boundary(5e) = 6T_e.
        for e in 0..p.max_epochs as u64 - 1 {
            let span = p.segment_boundary(5 * (e + 1)) - p.segment_boundary(5 * e);
            assert_eq!(span, 6 * p.segment_budget(e as u32));
        }
        // Within an epoch, the first 4 boundaries are T apart.
        let t = p.segment_budget(2);
        for ph in 0..4 {
            assert_eq!(
                p.segment_boundary(10 + ph + 1) - p.segment_boundary(10 + ph),
                t
            );
        }
        assert!(p.round_limit() > p.segment_boundary(p.total_segments()));
    }

    #[test]
    fn phase_of_segment_cycles() {
        assert_eq!(Phase::of_segment(0), Phase::Walk);
        assert_eq!(Phase::of_segment(1), Phase::R1);
        assert_eq!(Phase::of_segment(2), Phase::R2);
        assert_eq!(Phase::of_segment(3), Phase::R3);
        assert_eq!(Phase::of_segment(4), Phase::Wait);
        assert_eq!(Phase::of_segment(5), Phase::Walk);
    }

    #[test]
    fn phase_tags_round_trip_in_segment_order() {
        for (i, p) in Phase::ALL.into_iter().enumerate() {
            assert_eq!(p.tag() as usize, i);
            assert_eq!(Phase::from_tag(p.tag()), Some(p));
            assert_eq!(Phase::of_segment(i as u64), p);
            assert!(!p.name().is_empty());
        }
        assert_eq!(Phase::from_tag(5), None);
        assert_eq!(Phase::from_tag(255), None);
    }

    #[test]
    fn large_mode_widens_messages() {
        let congest = Params::derive(256, ElectionConfig::default());
        let large = Params::derive(
            256,
            ElectionConfig {
                msg_size: MsgSizeMode::Large,
                ..ElectionConfig::default()
            },
        );
        assert!(large.frag > congest.frag);
        assert!(large.bandwidth_bits.unwrap() > congest.bandwidth_bits.unwrap());
    }

    #[test]
    #[should_panic(expected = "at least two nodes")]
    fn rejects_tiny_n() {
        let _ = Params::derive(1, ElectionConfig::default());
    }

    #[test]
    fn try_derive_rejects_bad_constants() {
        for (patch, name) in [
            (
                ElectionConfig {
                    c1: f64::NAN,
                    ..ElectionConfig::default()
                },
                "c1",
            ),
            (
                ElectionConfig {
                    c1: 0.0,
                    ..ElectionConfig::default()
                },
                "c1",
            ),
            (
                ElectionConfig {
                    c2: -1.0,
                    ..ElectionConfig::default()
                },
                "c2",
            ),
            (
                ElectionConfig {
                    c2: f64::INFINITY,
                    ..ElectionConfig::default()
                },
                "c2",
            ),
            (
                ElectionConfig {
                    c_t: 0.0,
                    ..ElectionConfig::default()
                },
                "c_t",
            ),
        ] {
            match Params::try_derive(64, patch) {
                Err(ConfigError::BadConstant { name: got, .. }) => assert_eq!(got, name),
                other => panic!("{name}: expected BadConstant, got {other:?}"),
            }
        }
    }

    #[test]
    fn try_derive_rejects_zero_walk_caps_and_tiny_n() {
        let zero_cap = ElectionConfig {
            max_walk_len: Some(0),
            ..ElectionConfig::default()
        };
        assert_eq!(
            Params::try_derive(64, zero_cap).unwrap_err(),
            ConfigError::ZeroWalkCap
        );
        let zero_fixed = ElectionConfig {
            fixed_walk_len: Some(0),
            ..ElectionConfig::default()
        };
        assert_eq!(
            Params::try_derive(64, zero_fixed).unwrap_err(),
            ConfigError::ZeroFixedWalk
        );
        assert_eq!(
            Params::try_derive(1, ElectionConfig::default()).unwrap_err(),
            ConfigError::TooFewNodes { n: 1 }
        );
        assert!(Params::try_derive(2, ElectionConfig::default()).is_ok());
    }
}
