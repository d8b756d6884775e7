//! Per-node protocol state: roles, per-epoch bookkeeping, and the
//! per-origin table ([`Origins`]) every handled message searches once.

use std::collections::BTreeSet;

use welle_graph::Port;

use crate::msg::{ElectionMsg, FwdItem, RevItem};
use crate::trails::{ReverseRoute, Trail};

/// Final verdict of a node (Algorithm 1 line 4 / Algorithm 2 lines 5+9).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Decision {
    /// The node raised its flag: it is the unique leader (w.h.p.).
    Leader,
    /// The node declared itself non-leader.
    NonLeader,
}

/// What a contender measured in one epoch (drives the E2/E3 experiment
/// tables).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EpochRecord {
    /// Epoch index.
    pub epoch: u32,
    /// Walk length `t_u` guessed in this epoch.
    pub walk_len: u32,
    /// Proxies that replied in round 1.
    pub proxy_replies: usize,
    /// Distinct proxies among them (`count == 1`).
    pub distinct_proxies: usize,
    /// `|I2|`: other contenders discovered adjacent.
    pub i2_len: usize,
    /// Whether both properties held at the decide point.
    pub satisfied: bool,
}

/// Mutable state of a contender across epochs.
#[derive(Clone, Debug, Default)]
pub struct ContenderState {
    /// Still guessing-and-doubling (has not stopped).
    pub active: bool,
    /// Round-1 tally of the current epoch: the proxies that replied.
    pub replies: usize,
    /// Those among them that hold a single walk (the *distinct* ones).
    pub singles: usize,
    /// `I2`: union of received `I1` fragments (other contenders' ids).
    pub i2: BTreeSet<u64>,
    /// Round-3 data: the largest id received, i.e. `max(I4)`. The
    /// decision reads `I4` only through its maximum.
    pub i4_max: Option<u64>,
    /// The epoch at which this contender stopped, once it has.
    pub stopped_epoch: Option<u32>,
    /// Hit the walk-length cap without satisfying the properties.
    pub gave_up: bool,
    /// Per-epoch measurements.
    pub history: Vec<EpochRecord>,
}

impl ContenderState {
    /// Fresh, active contender state.
    pub fn new() -> Self {
        ContenderState {
            active: true,
            ..ContenderState::default()
        }
    }

    /// Clears the per-epoch accumulators at an epoch start.
    pub fn begin_epoch(&mut self) {
        self.replies = 0;
        self.singles = 0;
        self.i2.clear();
        self.i4_max = None;
    }

    /// Number of distinct proxies reported this epoch.
    pub fn distinct_proxies(&self) -> usize {
        self.singles
    }
}

/// Diagnostic counters (all zero in healthy runs; surfaced in reports).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NodeStats {
    /// Walk tokens dropped because their trail was stale or finalized
    /// elsewhere.
    pub dropped_tokens: u64,
    /// Reverse/forward routing lookups that found no trail.
    pub broken_routes: u64,
}

/// Inserts `x` at `at`, growing a full `v` by a quarter of its length
/// and at least one element. At `n = 10⁶` most nodes hold one or two
/// origins, and `Vec`'s first allocation of four, or its doubling,
/// would leave much of the memory unused.
fn insert_tight<T>(v: &mut Vec<T>, at: usize, x: T) {
    if v.len() == v.capacity() {
        v.reserve_exact((v.len() / 4).max(1));
    }
    v.insert(at, x);
}

/// Everything a node keeps about one walk origin, so that a walk token,
/// a reverse unit or a forward unit costs one search.
#[derive(Debug)]
pub(crate) struct OriginEntry {
    /// The breadcrumb trail of the origin's walks through this node,
    /// with how many of them ended here.
    pub(crate) trail: Option<Trail>,
    /// What this node relayed towards the origin (reverse filter).
    pub(crate) relayed: Relayed,
    /// The origin's forward items this node has handled since the epoch
    /// began ("filtering and forwarding"). Dedup is keyed by item alone,
    /// so a stale unit that repeats an item is dropped.
    forwarded: Vec<Handled>,
}

/// One forward item a node handled, with the unit's epoch and whether
/// the item was passed on along a trail of that epoch. 16 bytes, the
/// size of the [`FwdItem`] alone, where `(FwdItem, Option<u32>)` takes
/// 24: at `n = 10⁶` nodes hold millions of these.
#[derive(Clone, Copy, Debug)]
struct Handled {
    /// The item's id; zero for a stop mark.
    id: u64,
    epoch: u32,
    kind: FwdKind,
    passed_on: bool,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum FwdKind {
    I2Max,
    StopMark,
    Winner,
}

impl Handled {
    fn key(item: FwdItem) -> (FwdKind, u64) {
        match item {
            FwdItem::I2Max { id } => (FwdKind::I2Max, id),
            FwdItem::StopMark => (FwdKind::StopMark, 0),
            FwdItem::Winner { id } => (FwdKind::Winner, id),
        }
    }

    fn item(self) -> FwdItem {
        match self.kind {
            FwdKind::I2Max => FwdItem::I2Max { id: self.id },
            FwdKind::StopMark => FwdItem::StopMark,
            FwdKind::Winner => FwdItem::Winner { id: self.id },
        }
    }
}

impl OriginEntry {
    /// The epoch and route of the round-1 data the entry holds, if it
    /// holds any: the way home of the trail of that epoch.
    pub(crate) fn held_route(&self) -> Option<(u32, ReverseRoute)> {
        if !self.relayed.holds() {
            return None;
        }
        let epoch = self.relayed.epoch;
        let trail = self.trail.as_ref().filter(|t| t.epoch() == epoch);
        Some((
            epoch,
            trail.map_or(ReverseRoute::Broken, Trail::reverse_route),
        ))
    }

    /// Whether a reverse unit of `epoch` arriving over `port` makes it a
    /// new reply child of the trail that [`OriginEntry::adopt_child`]
    /// sends forward items it missed.
    pub(crate) fn is_late_child(&self, epoch: u32, port: Port) -> bool {
        let trail = self.trail.as_ref().filter(|t| t.epoch() == epoch);
        let passed = |h: &Handled| h.passed_on && h.epoch == epoch;
        self.forwarded.iter().any(passed)
            && trail.is_some_and(|t| t.children().binary_search(&port).is_err())
    }

    /// Records a forward `item` of `epoch`; `false` if it was handled
    /// before. It is passed on only if the node holds a trail of
    /// `epoch`, and only then can a late child be sent it.
    pub(crate) fn first_forward(&mut self, epoch: u32, item: FwdItem) -> bool {
        let key = Handled::key(item);
        if self.forwarded.iter().any(|h| (h.kind, h.id) == key) {
            return false;
        }
        let (kind, id) = key;
        let passed_on = self.trail.as_ref().is_some_and(|t| t.epoch() == epoch);
        let end = self.forwarded.len();
        let handled = Handled {
            id,
            epoch,
            kind,
            passed_on,
        };
        insert_tight(&mut self.forwarded, end, handled);
        true
    }

    /// Makes `port` a reply child of the trail of `epoch`, if the node
    /// holds that trail. A child seen for the first time missed the
    /// forward items already passed on along the trail: they are
    /// returned, for the caller to send it with that epoch.
    pub(crate) fn adopt_child(
        &mut self,
        epoch: u32,
        port: Port,
    ) -> impl Iterator<Item = FwdItem> + '_ {
        let new = self
            .trail
            .as_mut()
            .filter(|t| t.epoch() == epoch)
            .is_some_and(|t| t.record_child(port));
        self.forwarded
            .iter()
            .filter(move |h| new && h.passed_on && h.epoch == epoch)
            .map(|h| h.item())
    }
}

/// A node's per-origin state: the origins' ids, sorted, and at the same
/// index each one's [`OriginEntry`]. It iterates in origin order, as
/// ordered maps do, so seeded-path output never depends on hash order
/// (`welle-lint: no-hash-iter`).
#[derive(Debug, Default)]
pub(crate) struct Origins {
    /// The ids apart from the entries, so a binary search reads
    /// contiguous ids: probing the 120-byte entries themselves costs a
    /// cache line per probe, and a node holds a few dozen origins at
    /// `n = 2·10⁴`.
    keys: Vec<u64>,
    entries: Vec<OriginEntry>,
    /// Which entries hold round-1 data: bit `i` for `entries[i]`, and
    /// the top bit for every entry from index [`SPILL`] on. A release
    /// visits these entries only: scanning every entry at each release
    /// cost `expander-128` about 5% of its time.
    held: u64,
}

/// The index from which one bit of [`Origins::held`] stands for all
/// entries.
const SPILL: u32 = 63;

/// The bit of [`Origins::held`] that stands for `entries[i]`.
fn held_bit(i: usize) -> u64 {
    1 << i.min(SPILL as usize)
}

impl Origins {
    fn search(&self, origin: u64) -> Result<usize, usize> {
        self.keys.binary_search(&origin)
    }

    /// The entry of `origin`, if the node holds one.
    pub(crate) fn get(&self, origin: u64) -> Option<&OriginEntry> {
        self.search(origin).ok().map(|i| &self.entries[i])
    }

    /// The entry of `origin`, if the node holds one.
    #[cfg(test)]
    pub(crate) fn get_mut(&mut self, origin: u64) -> Option<&mut OriginEntry> {
        self.search(origin).ok().map(|i| &mut self.entries[i])
    }

    /// The index of `origin`'s entry, if the node holds one; it stays
    /// valid until an entry is added or an epoch begins.
    pub(crate) fn position(&self, origin: u64) -> Option<usize> {
        self.search(origin).ok()
    }

    /// The entry at index `i` (see [`Origins::position`]).
    pub(crate) fn at(&mut self, i: usize) -> &mut OriginEntry {
        &mut self.entries[i]
    }

    /// Whether any entry holds round-1 data.
    pub(crate) fn holds(&self) -> bool {
        self.held != 0
    }

    /// Holds, in the entry at index `i`, a round-1 unit of `epoch` that
    /// arrived to be relayed (see [`Relayed::hold`]).
    pub(crate) fn hold(&mut self, i: usize, epoch: u32, item: &RevItem<'_>) {
        let relayed = &mut self.entries[i].relayed;
        relayed.hold(epoch, item);
        if relayed.holds() {
            self.held |= held_bit(i);
        }
    }

    /// Calls `visit` on every entry that holds round-1 data, with its
    /// origin, in origin order; `visit` may pass the data on.
    pub(crate) fn visit_held(&mut self, mut visit: impl FnMut(u64, &mut OriginEntry)) {
        let mut bits = self.held;
        while bits != 0 {
            let bit = bits.trailing_zeros();
            bits &= bits - 1;
            let first = bit as usize;
            let end = if bit == SPILL {
                self.entries.len()
            } else {
                first + 1
            };
            let mut still = false;
            for i in first..end {
                let e = &mut self.entries[i];
                if e.relayed.holds() {
                    visit(self.keys[i], e);
                    still |= e.relayed.holds();
                }
            }
            if !still {
                self.held &= !(1 << bit);
            }
        }
    }

    /// The entry of `origin`, created empty if the node holds none.
    pub(crate) fn entry(&mut self, origin: u64) -> &mut OriginEntry {
        let i = match self.search(origin) {
            Ok(i) => i,
            Err(at) => {
                let empty = OriginEntry {
                    trail: None,
                    relayed: Relayed::default(),
                    forwarded: Vec::new(),
                };
                insert_tight(&mut self.keys, at, origin);
                insert_tight(&mut self.entries, at, empty);
                // The entries from `at` on moved up by one.
                let below = held_bit(at) - 1;
                let moved = self.held & !below;
                self.held = (self.held & below) | (moved << 1) | (moved & held_bit(usize::MAX));
                at
            }
        };
        &mut self.entries[i]
    }

    /// `(origin, trail)` pairs in origin order, for the origins this
    /// node is a proxy of: those with walks that ended here.
    pub(crate) fn proxies(&self) -> impl Iterator<Item = (u64, &Trail)> + '_ {
        self.keys
            .iter()
            .zip(&self.entries)
            .filter_map(|(&o, e)| Some((o, e.trail.as_ref().filter(|t| t.ended > 0)?)))
    }

    /// The epoch-start rules, field by field: a trail is kept if it is
    /// finalized or of an epoch `≥ epoch`; the relay filter and the
    /// forward-dedup record are cleared for every origin. An entry goes
    /// with its trail.
    pub(crate) fn begin_epoch(&mut self, epoch: u32) {
        debug_assert!(!self.holds(), "held data dropped at an epoch start");
        let mut kept = 0;
        for i in 0..self.entries.len() {
            let e = &mut self.entries[i];
            Trail::gc(&mut e.trail, epoch);
            e.relayed = Relayed::default();
            e.forwarded = Vec::new();
            if e.trail.is_some() {
                self.keys.swap(kept, i);
                self.entries.swap(kept, i);
                kept += 1;
            }
        }
        self.keys.truncate(kept);
        self.entries.truncate(kept);
    }
}

/// What one relay passed on towards one origin in one epoch, and the
/// round-1 data it holds to pass on merged: the reverse-path twin of the
/// forward-dedup record (see the protocol's module docs). 48 bytes, so
/// an [`OriginEntry`] stays at 120.
#[derive(Debug, Default)]
pub(crate) struct Relayed {
    /// `I1` ids of the epoch, each once: `i1[..sent]` were passed on and
    /// are sorted, for a binary search; the rest are held, in arrival
    /// order.
    i1: Vec<u64>,
    /// Largest `I3` maximum relayed; 0 for none (ids are positive).
    i3_max: u64,
    /// Held reply tally: proxies counted, and those among them that hold
    /// a single walk.
    replies: u32,
    singles: u32,
    epoch: u32,
    /// The watermark of `i1`.
    sent: u16,
    /// Whether a winner notice was relayed.
    winner: bool,
}

impl Relayed {
    /// Starts the record over for a unit of `epoch`, if it is of another.
    /// Held data spans no epoch change: a relay passes it on before the
    /// trail it follows is replaced or dropped.
    fn enter(&mut self, epoch: u32) {
        if self.epoch != epoch {
            debug_assert!(!self.holds(), "held data of epoch {} dropped", self.epoch);
            *self = Relayed {
                epoch,
                ..Relayed::default()
            };
        }
    }

    /// Whether round-1 data is held.
    pub(crate) fn holds(&self) -> bool {
        self.replies > 0 || usize::from(self.sent) < self.i1.len()
    }

    /// Records `id` unless it was passed on or held before; `true` if it
    /// is new. A new id is held, or passed on when `passed_on`.
    fn record_id(&mut self, id: u64, passed_on: bool) -> bool {
        let sent = usize::from(self.sent);
        let Err(at) = self.i1[..sent].binary_search(&id) else {
            return false;
        };
        if self.i1[sent..].contains(&id) {
            return false;
        }
        assert!(
            self.i1.len() < usize::from(u16::MAX),
            "more than {} contender ids relayed towards one origin",
            u16::MAX
        );
        if passed_on {
            self.i1.insert(at, id);
            self.sent += 1;
        } else {
            self.i1.push(id);
        }
        true
    }

    /// Holds the tally and the new `I1` ids of a round-1 unit of `epoch`
    /// that arrived to be relayed, for [`Relayed::pass_on`].
    pub(crate) fn hold(&mut self, epoch: u32, item: &RevItem<'_>) {
        self.enter(epoch);
        let ids = match *item {
            RevItem::Replies {
                replies,
                singles,
                ids,
            } => {
                self.replies += replies;
                self.singles += singles;
                ids
            }
            RevItem::KnownContenders { ids } => ids,
            RevItem::I3Max { .. } | RevItem::Winner { .. } => &[],
        };
        for &id in ids {
            self.record_id(id, false);
        }
    }

    /// Passes on everything held, through `send`, as units of `origin`
    /// and the record's epoch: the tally with up to `frag − 1` ids, then
    /// units of `frag` ids.
    pub(crate) fn pass_on(&mut self, origin: u64, frag: usize, mut send: impl FnMut(ElectionMsg)) {
        let mut ids = &self.i1[usize::from(self.sent)..];
        if self.replies > 0 {
            let (first, rest) = ids.split_at(ids.len().min(frag - 1));
            let tally = RevItem::Replies {
                replies: self.replies,
                singles: self.singles,
                ids: first,
            };
            send(ElectionMsg::rev(origin, self.epoch, tally));
            ids = rest;
        }
        for chunk in ids.chunks(frag) {
            let unit = RevItem::KnownContenders { ids: chunk };
            send(ElectionMsg::rev(origin, self.epoch, unit));
        }
        self.replies = 0;
        self.singles = 0;
        // Into the sorted prefix, one by one: a release passes on few ids.
        for held in usize::from(self.sent)..self.i1.len() {
            let id = self.i1[held];
            let at = self.i1[..held].partition_point(|&x| x < id);
            self.i1[at..=held].rotate_right(1);
        }
        // `record_id` keeps the length within `u16`.
        self.sent = u16::try_from(self.i1.len()).unwrap_or(u16::MAX);
    }

    /// Whether `item`, of `epoch`, sent at once rather than held, can
    /// still change what the contender computes; records it as passed on
    /// if so. A tally always can.
    pub(crate) fn admit(&mut self, epoch: u32, item: &RevItem<'_>) -> bool {
        self.enter(epoch);
        match *item {
            RevItem::Replies { ids, .. } => {
                for &id in ids {
                    self.record_id(id, true);
                }
                true
            }
            RevItem::KnownContenders { ids } => {
                let mut fresh = false;
                for &id in ids {
                    fresh |= self.record_id(id, true);
                }
                fresh
            }
            RevItem::I3Max { id } => {
                let fresh = id > self.i3_max;
                if fresh {
                    self.i3_max = id;
                }
                fresh
            }
            RevItem::Winner { .. } => !std::mem::replace(&mut self.winner, true),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trails::Hop;

    #[test]
    fn proxy_record_validity() {
        // A proxy's record is its trail: valid during its epoch while
        // tentative, and for good once its origin committed to it.
        let mut slot = None;
        let trail = Trail::enter_epoch(&mut slot, 3).unwrap();
        trail.ended = 2;
        assert!(trail.valid_at(3));
        assert!(!trail.valid_at(4));
        trail.finalize(3);
        assert!(trail.valid_at(7));
    }

    #[test]
    fn origins_iterate_in_origin_order_and_grow_one_by_one() {
        let mut t = Origins::default();
        for o in [30, 10, 20, 40] {
            Trail::enter_epoch(&mut t.entry(o).trail, 0);
        }
        for o in [30, 10, 20] {
            t.get_mut(o).unwrap().trail.as_mut().unwrap().ended = 1;
        }
        let order: Vec<u64> = t.proxies().map(|(o, _)| o).collect();
        assert_eq!(order, [10, 20, 30], "a trail no walk ended on is no proxy");
        assert_eq!((t.keys.capacity(), t.entries.capacity()), (4, 4));
        assert!(t.get(20).is_some() && t.get(25).is_none());
    }

    #[test]
    fn begin_epoch_applies_each_rule_to_its_own_field() {
        let mut t = Origins::default();
        // Origin 1: stale finalized proxy trail.
        let e = t.entry(1);
        let trail = Trail::enter_epoch(&mut e.trail, 0).unwrap();
        trail.ended = 1;
        trail.finalize(0);
        // Origin 2: stale tentative proxy trail.
        let e = t.entry(2);
        Trail::enter_epoch(&mut e.trail, 1).unwrap().ended = 1;
        // Origin 3: current trail, relay and forward records.
        let e = t.entry(3);
        Trail::enter_epoch(&mut e.trail, 2);
        assert!(e.relayed.admit(2, &RevItem::Winner { id: 9 }));
        assert!(e.first_forward(2, FwdItem::StopMark));
        // Origin 4: forward record only.
        assert!(t.entry(4).first_forward(2, FwdItem::StopMark));

        t.begin_epoch(2);
        let e = t.get_mut(1).unwrap();
        assert!(e.trail.as_ref().is_some_and(|t| t.ended == 1));
        assert!(t.get(2).is_none() && t.get(4).is_none());
        let e = t.get_mut(3).unwrap();
        assert!(e.trail.is_some());
        assert!(
            e.relayed.admit(2, &RevItem::Winner { id: 9 }),
            "relay filter cleared"
        );
        assert!(
            e.first_forward(2, FwdItem::StopMark),
            "forward record cleared"
        );
    }

    #[test]
    fn forward_dedup_is_exact_per_item_without_epoch() {
        let mut t = Origins::default();
        let e = t.entry(5);
        assert!(e.first_forward(0, FwdItem::I2Max { id: 7 }));
        assert!(e.first_forward(0, FwdItem::I2Max { id: 8 }));
        assert!(e.first_forward(0, FwdItem::Winner { id: 7 }));
        assert!(e.first_forward(0, FwdItem::Winner { id: 8 }));
        assert!(e.first_forward(0, FwdItem::StopMark));
        for item in [
            FwdItem::I2Max { id: 7 },
            FwdItem::I2Max { id: 8 },
            FwdItem::Winner { id: 8 },
            FwdItem::StopMark,
        ] {
            assert!(!e.first_forward(0, item), "{item:?} repeated");
            assert!(!e.first_forward(1, item), "{item:?} repeated, stale");
        }
        assert!(
            t.entry(6).first_forward(0, FwdItem::StopMark),
            "keyed per origin"
        );
    }

    #[test]
    fn a_forward_record_is_as_small_as_its_item() {
        assert_eq!(std::mem::size_of::<Handled>(), 16);
        assert_eq!(std::mem::size_of::<FwdItem>(), 16);
    }

    #[test]
    fn an_origin_entry_is_120_bytes() {
        // Trail with its walk count (48), relay filter (48) and forward
        // record (24): a node at n = 10⁶ holds about three.
        assert_eq!(std::mem::size_of::<OriginEntry>(), 120);
    }

    #[test]
    fn a_late_child_gets_what_was_passed_on_along_its_trail() {
        let mut t = Origins::default();
        let e = t.entry(5);
        // Handled with no trail of its epoch: never passed on.
        assert!(e.first_forward(1, FwdItem::Winner { id: 9 }));
        Trail::enter_epoch(&mut e.trail, 1);
        assert!(e.first_forward(1, FwdItem::I2Max { id: 3 }));
        // A walk of epoch 2 replaces the trail of epoch 1.
        Trail::enter_epoch(&mut e.trail, 2);
        assert!(e.first_forward(2, FwdItem::I2Max { id: 7 }));
        assert!(e.first_forward(1, FwdItem::Winner { id: 4 }), "stale");
        assert!(e.first_forward(2, FwdItem::StopMark));
        let missed: Vec<FwdItem> = e.adopt_child(2, Port::new(3)).collect();
        assert_eq!(missed, [FwdItem::I2Max { id: 7 }, FwdItem::StopMark]);
        assert_eq!(e.adopt_child(2, Port::new(3)).count(), 0, "adopted twice");
        // A unit of another epoch adopts no child and is sent nothing.
        assert_eq!(e.adopt_child(1, Port::new(4)).count(), 0);
        assert_eq!(e.trail.as_ref().unwrap().children(), &[Port::new(3)]);
        // A later item goes to the children directly; a second new
        // child is sent everything passed on so far.
        assert!(e.first_forward(2, FwdItem::Winner { id: 8 }));
        let missed: Vec<FwdItem> = e.adopt_child(2, Port::new(1)).collect();
        assert_eq!(
            missed,
            [
                FwdItem::I2Max { id: 7 },
                FwdItem::StopMark,
                FwdItem::Winner { id: 8 }
            ]
        );
        assert_eq!(
            t.entry(6).adopt_child(2, Port::new(1)).count(),
            0,
            "no trail, no child"
        );
    }

    fn tally(replies: u32, singles: u32, ids: &[u64]) -> RevItem<'_> {
        RevItem::Replies {
            replies,
            singles,
            ids,
        }
    }

    /// What `relayed` passes on towards origin 5 in units of four ids.
    fn passed_on(relayed: &mut Relayed) -> Vec<ElectionMsg> {
        let mut out = Vec::new();
        relayed.pass_on(5, 4, |m| out.push(m));
        out
    }

    #[test]
    fn relayed_tallies_add_up() {
        let mut r = Relayed::default();
        assert!(!r.holds());
        r.hold(2, &tally(1, 1, &[]));
        r.hold(2, &tally(1, 0, &[]));
        r.hold(2, &tally(3, 2, &[7]));
        assert!(r.holds());
        assert_eq!(
            passed_on(&mut r),
            [ElectionMsg::rev(5, 2, tally(5, 3, &[7]))]
        );
        assert!(!r.holds());
        assert_eq!(passed_on(&mut r), [], "a tally goes on once");
        // A tally takes up to three ids; the rest go on four at a time.
        let ids = [11, 12, 13, 14, 15, 16, 17, 18];
        r.hold(2, &RevItem::KnownContenders { ids: &ids[..4] });
        r.hold(2, &tally(2, 1, &ids[4..]));
        assert_eq!(
            passed_on(&mut r),
            [
                ElectionMsg::rev(5, 2, tally(2, 1, &ids[..3])),
                ElectionMsg::rev(5, 2, RevItem::KnownContenders { ids: &ids[3..7] }),
                ElectionMsg::rev(5, 2, RevItem::KnownContenders { ids: &ids[7..] }),
            ]
        );
    }

    #[test]
    fn relayed_ids_held_or_passed_on_once_are_never_held_again() {
        let mut r = Relayed::default();
        r.hold(0, &RevItem::KnownContenders { ids: &[9, 3] });
        r.hold(0, &RevItem::KnownContenders { ids: &[3, 8] });
        assert_eq!(r.i1, [9, 3, 8], "held once each, in arrival order");
        // A unit the node sends itself goes on at once; its new ids are
        // recorded as passed on, ahead of the held ones.
        assert!(r.admit(0, &RevItem::KnownContenders { ids: &[8, 4] }));
        assert!(!r.admit(0, &RevItem::KnownContenders { ids: &[4, 9] }));
        assert_eq!((r.i1.as_slice(), r.sent), (&[4, 9, 3, 8][..], 1));
        let ids = [9, 3, 8];
        let unit = RevItem::KnownContenders { ids: &ids };
        assert_eq!(passed_on(&mut r), [ElectionMsg::rev(5, 0, unit)]);
        for ids in [&[3, 4][..], &[8, 9], &[4]] {
            r.hold(0, &RevItem::KnownContenders { ids });
            r.hold(0, &tally(1, 1, ids));
        }
        assert_eq!(
            passed_on(&mut r),
            [ElectionMsg::rev(5, 0, tally(3, 3, &[]))]
        );
    }

    #[test]
    fn relayed_data_of_an_older_epoch_is_passed_on_before_a_newer_one() {
        let mut t = Origins::default();
        let e = t.entry(5);
        let trail = Trail::enter_epoch(&mut e.trail, 1).unwrap();
        trail.record_in(1, Hop::Via(Port::new(2)));
        let at = t.position(5).unwrap();
        t.hold(at, 1, &tally(1, 1, &[7]));
        // A walk of epoch 2 is about to replace the trail: the node reads
        // where the held data goes and passes it on first.
        let e = t.at(at);
        let route = ReverseRoute::Forward(Port::new(2));
        assert_eq!(e.held_route(), Some((1, route)));
        let sent = passed_on(&mut e.relayed);
        assert_eq!(sent, [ElectionMsg::rev(5, 1, tally(1, 1, &[7]))]);
        Trail::enter_epoch(&mut e.trail, 2).unwrap();
        assert_eq!(e.held_route(), None);
        // The newer epoch's record starts over: id 7 is new to it.
        e.relayed.hold(2, &tally(1, 0, &[7]));
        assert_eq!(
            passed_on(&mut e.relayed),
            [ElectionMsg::rev(5, 2, tally(1, 0, &[7]))]
        );
    }

    #[test]
    fn relayed_watermark_survives_several_releases() {
        let mut r = Relayed::default();
        let mut all = Vec::new();
        for (round, ids) in [&[40, 10][..], &[30, 10, 20], &[50], &[20, 60, 5]]
            .iter()
            .enumerate()
        {
            r.hold(3, &RevItem::KnownContenders { ids });
            let fresh: Vec<u64> = ids.iter().copied().filter(|id| !all.contains(id)).collect();
            let unit = RevItem::KnownContenders { ids: &fresh };
            assert_eq!(
                passed_on(&mut r),
                [ElectionMsg::rev(5, 3, unit)],
                "release {round}"
            );
            all.extend(fresh);
            // Everything passed on stays below the watermark, sorted.
            let mut sorted = all.clone();
            sorted.sort_unstable();
            assert_eq!(
                (r.i1.as_slice(), usize::from(r.sent)),
                (&sorted[..], all.len())
            );
        }
        r.hold(3, &RevItem::KnownContenders { ids: &all });
        assert!(!r.holds());
    }

    #[test]
    fn relayed_entries_are_visited_only_when_they_hold() {
        let mut t = Origins::default();
        // Seventy origins, 10, 20, …: past the spill index, where one bit
        // stands for many entries.
        for o in 1..=70 {
            Trail::enter_epoch(&mut t.entry(10 * o).trail, 0);
        }
        let held = [30, 410, 660, 700];
        for o in held {
            let at = t.position(o).unwrap();
            t.hold(at, 0, &tally(1, 1, &[]));
        }
        // An entry added in front moves every bit up by one.
        Trail::enter_epoch(&mut t.entry(5).trail, 0);
        let mut seen = Vec::new();
        t.visit_held(|o, _| seen.push(o));
        assert_eq!(seen, held);
        // Passing on clears the bits; an entry left holding is visited
        // again.
        t.visit_held(|o, e| {
            if o != 660 {
                e.relayed.pass_on(o, 4, drop);
            }
        });
        seen.clear();
        t.visit_held(|o, e| {
            seen.push(o);
            e.relayed.pass_on(o, 4, drop);
        });
        assert_eq!(seen, [660]);
        assert!(!t.holds());
    }

    #[test]
    fn distinct_proxy_counting() {
        let mut c = ContenderState::new();
        c.replies = 3;
        c.singles = 2;
        assert_eq!(c.distinct_proxies(), 2);
        c.begin_epoch();
        assert_eq!(c.distinct_proxies(), 0);
        assert!(c.active);
    }

    #[test]
    fn begin_epoch_keeps_history() {
        let mut c = ContenderState::new();
        c.history.push(EpochRecord {
            epoch: 0,
            walk_len: 1,
            proxy_replies: 5,
            distinct_proxies: 5,
            i2_len: 0,
            satisfied: false,
        });
        c.i2.insert(42);
        c.begin_epoch();
        assert_eq!(c.history.len(), 1);
        assert!(c.i2.is_empty());
    }
}
