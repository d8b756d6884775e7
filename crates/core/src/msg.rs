//! Wire messages of the election protocol, with bit-exact size
//! accounting (Lemma 12's message taxonomy).
//!
//! # Packed representation
//!
//! [`ElectionMsg`] is a single 32-byte struct, not a tree of enums: a
//! 64-bit `origin`, a 64-bit payload `word`, a 64-bit packed `meta`
//! header, and an optional interned id run. At `n = 10⁶` the engine
//! holds millions of these in its arena slots simultaneously, so the
//! layout is chosen to make the common case allocation-free:
//!
//! * `meta` packs `tag(4) | epoch(6) | aux(32) | cnt(22)`. `aux` is the
//!   walk's `remaining` counter, or a round-1 tally's reply count (zero
//!   on other routed units, which find their way from each relay's trail
//!   alone); `cnt` is the walk multiplicity, the tally's single-walk
//!   count, or an id-set length.
//!   `epoch ≤ 33` always (guess-and-double caps at `2^e ≥ 4n²`) and the
//!   walk count `K = ⌈c2·√n·ln n⌉` stays below `2²²` for every
//!   `u32`-representable `n` at the default `c2`; a tally counts at most
//!   `K` proxies. These bounds are asserted with descriptive panics at
//!   construction.
//! * An `I1` fragment of one id inlines it in `word`. Longer fragments
//!   intern the run once, shared by all hops of a relay instead of
//!   re-cloned per hop: in CONGEST mode a fragment holds up to four ids,
//!   which the interned run holds in place, so each `I1` unit of two to
//!   four ids costs one allocation, and every other election message is
//!   heap-free. A tally carries its ids the same way, with a flag in
//!   `aux` marking one inline id. Rounds 2 and 3 carry only a maximum
//!   id (the decision reads `I4` through its maximum), always inline.
//!
//! The packing is an in-memory concern only: [`Payload::bit_size`]
//! still charges the analytical wire cost of the unpacked fields, so
//! bandwidth accounting is unchanged.

use std::sync::Arc;

use welle_congest::{bits_for, Payload};

use crate::config::CONGEST_FRAG;

/// Tag bits distinguishing message variants on the wire (the charged
/// cost; the in-memory tag spends 4 bits of `meta` to leave room for a
/// reserved all-zero "void" state used by recycled arena slots).
const TAG_BITS: usize = 3;

const TAG_SHIFT: u32 = 60;
const EPOCH_SHIFT: u32 = 54;
const AUX_SHIFT: u32 = 22;
const EPOCH_MAX: u64 = (1 << 6) - 1;
const CNT_MAX: u64 = (1 << 22) - 1;
/// Set in a tally's `aux` when its one id sits inline in `word`.
const ONE_ID: u32 = 1 << 31;

const TAG_WALK: u64 = 1;
const TAG_REV_REPLIES: u64 = 2;
const TAG_REV_KNOWN: u64 = 3;
const TAG_REV_I3_MAX: u64 = 4;
const TAG_REV_WINNER: u64 = 5;
const TAG_FWD_I2_MAX: u64 = 6;
const TAG_FWD_STOP: u64 = 7;
const TAG_FWD_WINNER: u64 = 8;

fn pack(tag: u64, epoch: u32, aux: u32, cnt: u64) -> u64 {
    assert!(
        u64::from(epoch) <= EPOCH_MAX,
        "epoch {epoch} exceeds the packed 6-bit budget (max {EPOCH_MAX})"
    );
    assert!(
        cnt <= CNT_MAX,
        "count {cnt} exceeds the packed 22-bit budget (max {CNT_MAX})"
    );
    (tag << TAG_SHIFT) | (u64::from(epoch) << EPOCH_SHIFT) | (u64::from(aux) << AUX_SHIFT) | cnt
}

/// A message of Algorithm 2, bit-packed (see the module docs).
///
/// Three routing classes, inspected through [`ElectionMsg::view`]:
/// `Walk` tokens advance the random walks; `Rev` units travel
/// *backwards* along recorded trails (proxy → contender: rounds 1 and
/// 3, winner notifications); `Fwd` units travel *forwards* (contender →
/// proxies: round 2, stop commitments, winner announcements).
///
/// The `Default` value is a reserved "void" message (tag 0) that only
/// fills recycled engine arena slots; it is never constructed by the
/// protocol and never transmitted.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ElectionMsg {
    origin: u64,
    /// Variant payload: proxy/winner id, a maximum id, or a single
    /// inlined set id.
    word: u64,
    /// Packed header: `tag(4) | epoch(6) | aux(32) | cnt(22)`.
    meta: u64,
    /// Interned id run for id sets longer than one id.
    run: Option<Arc<Run>>,
}

/// An interned id run: one allocation for every CONGEST-mode run, and a
/// thin pointer, so [`ElectionMsg`] stays four words.
#[derive(Debug, PartialEq, Eq)]
enum Run {
    /// Two to [`CONGEST_FRAG`] ids, in place; the rest are zero.
    Short { ids: [u64; CONGEST_FRAG], len: Len },
    /// A longer run (Large mode).
    Long(Box<[u64]>),
}

/// The length of a short run. An enum, so that [`Run`] keeps its tag in
/// the values no length takes: 40 bytes where a `usize` length made it
/// 48, and a 48-byte run read slower in the election benchmarks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Len {
    Two = 2,
    Three,
    Four,
}

const _: () = assert!(CONGEST_FRAG == Len::Four as usize);

impl Run {
    fn new(ids: &[u64]) -> Self {
        let len = match ids.len() {
            2 => Len::Two,
            3 => Len::Three,
            4 => Len::Four,
            _ => return Run::Long(ids.into()),
        };
        let mut short = [0; CONGEST_FRAG];
        short[..ids.len()].copy_from_slice(ids);
        Run::Short { ids: short, len }
    }

    fn ids(&self) -> &[u64] {
        match self {
            Run::Short { ids, len } => &ids[..*len as usize],
            Run::Long(ids) => ids,
        }
    }
}

/// Borrowed decode of an [`ElectionMsg`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MsgView<'a> {
    /// Aggregated walk token `⟨u, t_u⟩` with a multiplicity (Lemma 12's
    /// "one token and the count").
    Walk {
        /// Originating contender id.
        origin: u64,
        /// Guess-and-double epoch.
        epoch: u32,
        /// Steps left; the receiving holder is a proxy when this is 0.
        remaining: u32,
        /// Number of parallel walks bundled here.
        count: u32,
    },
    /// Reverse-routed unit.
    Rev {
        /// Walk origin whose trail is followed.
        origin: u64,
        /// Epoch of that trail.
        epoch: u32,
        /// Payload.
        item: RevItem<'a>,
    },
    /// Forward-routed unit.
    Fwd {
        /// Walk origin whose trail is followed.
        origin: u64,
        /// Epoch of that trail.
        epoch: u32,
        /// Payload.
        item: FwdItem,
    },
    /// The reserved default message filling recycled arena slots.
    Void,
}

/// Payloads travelling towards a contender.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RevItem<'a> {
    /// Round-1 tally: how many proxies replied, and how many of them
    /// hold a single walk of the origin (are *distinct*). A proxy sends
    /// `(1, count == 1)` and no ids; a relay merges the tallies it
    /// passes on and adds up to [`Params::frag`]` − 1` of the `I1` ids
    /// it holds.
    ///
    /// [`Params::frag`]: crate::config::Params::frag
    Replies {
        /// Proxies counted.
        replies: u32,
        /// Those among them that hold one walk.
        singles: u32,
        /// Ids from the proxies' `I1` sets.
        ids: &'a [u64],
    },
    /// Round-1 set fragment: ids from the proxy's `I1` (other contenders
    /// it serves).
    KnownContenders {
        /// Fragment of `I1` (up to four ids in CONGEST mode).
        ids: &'a [u64],
    },
    /// Round-3 unit: the largest id in the proxy's `I3`.
    I3Max {
        /// `max(I3)`.
        id: u64,
    },
    /// A winner notification relayed towards a contender.
    Winner {
        /// The leader's id.
        id: u64,
    },
}

/// Payloads travelling from a contender towards its proxies.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FwdItem {
    /// Round-2 unit: the largest id in the contender's `I2 ∪ {u}`.
    I2Max {
        /// `max(I2 ∪ {u})`.
        id: u64,
    },
    /// The contender committed to this epoch as its final guess
    /// (Fidelity note 5: the proxies and relays on its reply tree
    /// finalize their records). The winner sends no stop mark: its own
    /// [`FwdItem::Winner`] unit commits the same way.
    StopMark,
    /// Winner announcement flowing to proxies. The winner's own unit,
    /// whose `id` is its origin, also does the winner's stop mark's job.
    Winner {
        /// The leader's id.
        id: u64,
    },
}

impl ElectionMsg {
    /// A walk token: `count` bundled walks of `origin` with `remaining`
    /// steps left in `epoch`.
    pub fn walk(origin: u64, epoch: u32, remaining: u32, count: u32) -> Self {
        ElectionMsg {
            origin,
            word: 0,
            meta: pack(TAG_WALK, epoch, remaining, u64::from(count)),
            run: None,
        }
    }

    /// A reverse-routed unit.
    ///
    /// # Panics
    ///
    /// Panics when a tally counts `2²²` replies or more.
    pub fn rev(origin: u64, epoch: u32, item: RevItem<'_>) -> Self {
        match item {
            RevItem::Replies {
                replies,
                singles,
                ids,
            } => {
                assert!(
                    u64::from(replies) <= CNT_MAX,
                    "tally of {replies} replies exceeds the packed 22-bit budget (max {CNT_MAX})"
                );
                let mut m = Self::with_ids(TAG_REV_REPLIES, origin, epoch, ids);
                let one = if ids.len() == 1 { ONE_ID } else { 0 };
                m.meta = pack(TAG_REV_REPLIES, epoch, replies | one, u64::from(singles));
                m
            }
            RevItem::KnownContenders { ids } => Self::with_ids(TAG_REV_KNOWN, origin, epoch, ids),
            RevItem::I3Max { id } => Self::with_word(TAG_REV_I3_MAX, origin, epoch, id),
            RevItem::Winner { id } => Self::with_word(TAG_REV_WINNER, origin, epoch, id),
        }
    }

    /// A forward-routed unit.
    pub fn fwd(origin: u64, epoch: u32, item: FwdItem) -> Self {
        match item {
            FwdItem::I2Max { id } => Self::with_word(TAG_FWD_I2_MAX, origin, epoch, id),
            FwdItem::StopMark => Self::with_word(TAG_FWD_STOP, origin, epoch, 0),
            FwdItem::Winner { id } => Self::with_word(TAG_FWD_WINNER, origin, epoch, id),
        }
    }

    /// A unit whose whole payload is the single `word`.
    fn with_word(tag: u64, origin: u64, epoch: u32, word: u64) -> Self {
        ElectionMsg {
            origin,
            word,
            meta: pack(tag, epoch, 0, 0),
            run: None,
        }
    }

    /// Canonical id-set encoding: empty sets carry nothing, single ids
    /// inline in `word`, longer runs intern once in an `Arc` (shared by
    /// every relayed copy), in place up to [`CONGEST_FRAG`] ids. Derived
    /// equality is therefore structural *and* logical.
    fn with_ids(tag: u64, origin: u64, epoch: u32, ids: &[u64]) -> Self {
        match ids {
            [] => ElectionMsg {
                origin,
                word: 0,
                meta: pack(tag, epoch, 0, 0),
                run: None,
            },
            [id] => ElectionMsg {
                origin,
                word: *id,
                meta: pack(tag, epoch, 0, 1),
                run: None,
            },
            many => ElectionMsg {
                origin,
                word: 0,
                meta: pack(tag, epoch, 0, many.len() as u64),
                run: Some(Arc::new(Run::new(many))),
            },
        }
    }

    /// The walk origin whose trail this message follows.
    pub fn origin(&self) -> u64 {
        self.origin
    }

    /// The guess-and-double epoch.
    pub fn epoch(&self) -> u32 {
        ((self.meta >> EPOCH_SHIFT) & EPOCH_MAX) as u32
    }

    /// The packed `aux` field: `remaining` for walk tokens.
    fn aux(&self) -> u32 {
        ((self.meta >> AUX_SHIFT) & 0xFFFF_FFFF) as u32
    }

    /// Whether this is a reverse-routed unit.
    pub fn is_rev(&self) -> bool {
        matches!(self.tag(), TAG_REV_REPLIES..=TAG_REV_WINNER)
    }

    /// Whether this is a round-1 unit: a tally or an `I1` fragment.
    pub fn is_round1(&self) -> bool {
        matches!(self.tag(), TAG_REV_REPLIES | TAG_REV_KNOWN)
    }

    fn tag(&self) -> u64 {
        self.meta >> TAG_SHIFT
    }

    fn cnt(&self) -> u64 {
        self.meta & CNT_MAX
    }

    /// The id-set payload of an `I1` fragment, whose `cnt` is its length,
    /// or of a tally, whose flag marks one inline id.
    fn ids(&self) -> &[u64] {
        let one = match self.tag() {
            TAG_REV_REPLIES => self.aux() & ONE_ID != 0,
            _ => self.cnt() == 1,
        };
        match &self.run {
            Some(run) => run.ids(),
            None if one => std::slice::from_ref(&self.word),
            None => &[],
        }
    }

    /// Decodes the packed fields into the logical message.
    pub fn view(&self) -> MsgView<'_> {
        let origin = self.origin;
        let epoch = self.epoch();
        match self.tag() {
            TAG_WALK => MsgView::Walk {
                origin,
                epoch,
                remaining: self.aux(),
                count: self.cnt() as u32,
            },
            TAG_REV_REPLIES => MsgView::Rev {
                origin,
                epoch,
                item: RevItem::Replies {
                    replies: self.aux() & !ONE_ID,
                    singles: self.cnt() as u32,
                    ids: self.ids(),
                },
            },
            TAG_REV_KNOWN => MsgView::Rev {
                origin,
                epoch,
                item: RevItem::KnownContenders { ids: self.ids() },
            },
            TAG_REV_I3_MAX => MsgView::Rev {
                origin,
                epoch,
                item: RevItem::I3Max { id: self.word },
            },
            TAG_REV_WINNER => MsgView::Rev {
                origin,
                epoch,
                item: RevItem::Winner { id: self.word },
            },
            TAG_FWD_I2_MAX => MsgView::Fwd {
                origin,
                epoch,
                item: FwdItem::I2Max { id: self.word },
            },
            TAG_FWD_STOP => MsgView::Fwd {
                origin,
                epoch,
                item: FwdItem::StopMark,
            },
            TAG_FWD_WINNER => MsgView::Fwd {
                origin,
                epoch,
                item: FwdItem::Winner { id: self.word },
            },
            _ => MsgView::Void,
        }
    }
}

impl RevItem<'_> {
    fn payload_bits(&self) -> usize {
        match self {
            RevItem::Replies {
                replies,
                singles,
                ids,
            } => bits_for(u64::from(*replies)) + bits_for(u64::from(*singles)) + ids_bits(ids),
            RevItem::KnownContenders { ids } => ids_bits(ids),
            RevItem::I3Max { id } | RevItem::Winner { id } => bits_for(*id),
        }
    }
}

fn ids_bits(ids: &[u64]) -> usize {
    ids.iter().map(|&id| bits_for(id)).sum()
}

impl FwdItem {
    fn payload_bits(&self) -> usize {
        match self {
            FwdItem::StopMark => 1,
            FwdItem::I2Max { id } | FwdItem::Winner { id } => bits_for(*id),
        }
    }
}

impl Payload for ElectionMsg {
    fn bit_size(&self) -> usize {
        let head = TAG_BITS + bits_for(self.origin) + bits_for(u64::from(self.epoch()) + 1);
        match self.view() {
            MsgView::Walk {
                remaining, count, ..
            } => head + bits_for(u64::from(remaining) + 1) + bits_for(u64::from(count)),
            // Routed units carry no route: each relay's trail names the
            // next hop.
            MsgView::Rev { item, .. } => head + item.payload_bits(),
            MsgView::Fwd { item, .. } => head + item.payload_bits(),
            // Void messages only fill recycled arena slots; they are
            // never transmitted, so they occupy no wire budget.
            MsgView::Void => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn message_is_four_words() {
        assert_eq!(std::mem::size_of::<ElectionMsg>(), 32);
    }

    #[test]
    fn walk_token_is_logarithmic() {
        // id from [1, 1024⁴]
        let m = ElectionMsg::walk(1 << 39, 5, 32, 443);
        // 3 + 40 + 3 + 6 + 9 = 61 bits: O(log n) for n = 1024.
        assert_eq!(m.bit_size(), 3 + 40 + 3 + 6 + 9);
        assert_eq!(
            m.view(),
            MsgView::Walk {
                origin: 1 << 39,
                epoch: 5,
                remaining: 32,
                count: 443
            }
        );
    }

    #[test]
    fn congest_fragments_fit_small_budget() {
        let m = ElectionMsg::rev(u64::MAX, 30, RevItem::KnownContenders { ids: &[u64::MAX] });
        // Even with worst-case ids: 3 + 64 + 5 + 64 = 136 bits, and no
        // route field however long the walk was.
        assert_eq!(m.bit_size(), 3 + 64 + 5 + 64);
    }

    #[test]
    fn large_sets_scale_with_content() {
        let small = ElectionMsg::rev(7, 0, RevItem::KnownContenders { ids: &[1] });
        let big = ElectionMsg::rev(
            7,
            0,
            RevItem::KnownContenders {
                ids: &[u64::MAX; 20],
            },
        );
        assert!(big.bit_size() > small.bit_size() + 19 * 32);
    }

    #[test]
    fn maxima_are_one_inline_id() {
        let id = (1u64 << 40) - 1;
        let fwd = ElectionMsg::fwd(7, 0, FwdItem::I2Max { id });
        let rev = ElectionMsg::rev(7, 0, RevItem::I3Max { id });
        let one = ElectionMsg::rev(7, 0, RevItem::KnownContenders { ids: &[id] });
        assert!(fwd.run.is_none() && rev.run.is_none());
        assert_eq!(fwd.bit_size(), one.bit_size());
        assert_eq!(rev.bit_size(), one.bit_size());
        let MsgView::Fwd { item: fwd_item, .. } = fwd.view() else {
            panic!("decoded as non-Fwd")
        };
        let MsgView::Rev { item: rev_item, .. } = rev.view() else {
            panic!("decoded as non-Rev")
        };
        assert_eq!(fwd_item, FwdItem::I2Max { id });
        assert_eq!(rev_item, RevItem::I3Max { id });
    }

    #[test]
    fn stopmark_is_tiny() {
        let m = ElectionMsg::fwd(5, 1, FwdItem::StopMark);
        // Tag, origin, epoch and the one-bit mark: 3 + 3 + 2 + 1.
        assert_eq!(m.bit_size(), 9);
    }

    #[test]
    fn fields_round_trip_through_the_packing() {
        let m = ElectionMsg::rev(
            0xDEAD_BEEF,
            33,
            RevItem::Replies {
                replies: CNT_MAX as u32,
                singles: 42,
                ids: &[],
            },
        );
        assert_eq!(m.origin(), 0xDEAD_BEEF);
        assert_eq!(m.epoch(), 33);
        assert!(m.is_rev());
        let walk = ElectionMsg::walk(0xDEAD_BEEF, 33, u32::MAX, CNT_MAX as u32);
        assert_eq!(
            walk.view(),
            MsgView::Walk {
                origin: 0xDEAD_BEEF,
                epoch: 33,
                remaining: u32::MAX,
                count: CNT_MAX as u32
            }
        );
        let MsgView::Rev { item, .. } = m.view() else {
            panic!("decoded as non-Rev");
        };
        assert_eq!(
            item,
            RevItem::Replies {
                replies: CNT_MAX as u32,
                singles: 42,
                ids: &[]
            }
        );
    }

    #[test]
    fn tallies_round_trip_with_their_ids() {
        let widest = [u64::MAX; CONGEST_FRAG];
        for ids in [&[][..], &[7], &[1, 2, 3], &widest[..3]] {
            for (replies, singles) in [(1, 0), (1, 1), (5, 2), (CNT_MAX as u32, CNT_MAX as u32)] {
                let item = RevItem::Replies {
                    replies,
                    singles,
                    ids,
                };
                let m = ElectionMsg::rev(0xDEAD_BEEF, 63, item);
                assert!(m.is_rev());
                assert_eq!(
                    m.view(),
                    MsgView::Rev {
                        origin: 0xDEAD_BEEF,
                        epoch: 63,
                        item
                    }
                );
                assert_eq!(m.run.is_some(), ids.len() > 1, "{ids:?}");
                // Tag, origin, epoch, the two counts and the ids.
                let counts = bits_for(u64::from(replies)) + bits_for(u64::from(singles));
                let head = 3 + 32 + bits_for(64);
                assert_eq!(m.bit_size(), head + counts + ids_bits(ids));
            }
        }
        // A proxy's own reply is two bits of payload.
        let own = ElectionMsg::rev(
            9,
            0,
            RevItem::Replies {
                replies: 1,
                singles: 1,
                ids: &[],
            },
        );
        assert_eq!(own.bit_size(), 3 + 4 + 1 + 2);
    }

    #[test]
    fn a_run_is_one_allocation_in_congest_mode() {
        assert_eq!(std::mem::size_of::<Run>(), 40);
        let short = ElectionMsg::rev(1, 0, RevItem::KnownContenders { ids: &[5, 6] });
        assert!(matches!(
            short.run.as_deref(),
            Some(Run::Short { len: Len::Two, .. })
        ));
        let ids: Vec<u64> = (1..=CONGEST_FRAG as u64 + 1).collect();
        let long = ElectionMsg::rev(1, 0, RevItem::KnownContenders { ids: &ids });
        assert!(matches!(long.run.as_deref(), Some(Run::Long(_))));
        let MsgView::Rev {
            item: RevItem::KnownContenders { ids: got },
            ..
        } = long.view()
        else {
            panic!("decoded as non-Rev");
        };
        assert_eq!(got, &ids[..]);
    }

    #[test]
    #[should_panic(expected = "22-bit budget")]
    fn oversized_tally_panics() {
        let tally = RevItem::Replies {
            replies: 1 << 22,
            singles: 0,
            ids: &[],
        };
        let _ = ElectionMsg::rev(1, 0, tally);
    }

    #[test]
    fn single_ids_inline_and_runs_intern() {
        let one = ElectionMsg::rev(1, 0, RevItem::KnownContenders { ids: &[99] });
        assert!(one.run.is_none(), "single id must not allocate");
        assert_eq!(
            one.view(),
            MsgView::Rev {
                origin: 1,
                epoch: 0,
                item: RevItem::KnownContenders { ids: &[99] }
            }
        );
        let many = ElectionMsg::rev(1, 0, RevItem::KnownContenders { ids: &[5, 6, 7] });
        let MsgView::Rev {
            item: RevItem::KnownContenders { ids },
            ..
        } = many.view()
        else {
            panic!("decoded as non-Rev");
        };
        assert_eq!(ids, &[5, 6, 7]);
        // A relayed copy shares the interned run instead of cloning it.
        let relayed = many.clone();
        assert_eq!(relayed, many);
        assert!(Arc::ptr_eq(
            many.run.as_ref().unwrap(),
            relayed.run.as_ref().unwrap()
        ));
        let none = ElectionMsg::rev(1, 0, RevItem::KnownContenders { ids: &[] });
        assert!(none.run.is_none());
        assert_eq!(
            none.view(),
            MsgView::Rev {
                origin: 1,
                epoch: 0,
                item: RevItem::KnownContenders { ids: &[] }
            }
        );
    }

    #[test]
    fn default_is_the_void_message() {
        let v = ElectionMsg::default();
        assert_eq!(v.view(), MsgView::Void);
        assert_eq!(v.bit_size(), 0);
        assert!(!v.is_rev());
    }

    #[test]
    #[should_panic(expected = "6-bit budget")]
    fn oversized_epoch_panics() {
        let _ = ElectionMsg::walk(1, 64, 0, 1);
    }

    #[test]
    #[should_panic(expected = "22-bit budget")]
    fn oversized_count_panics() {
        let _ = ElectionMsg::walk(1, 0, 0, 1 << 22);
    }
}
