//! Per-node protocol state: roles, per-epoch bookkeeping, and the
//! per-origin table ([`Origins`]) every handled message searches once.

use std::collections::{BTreeMap, BTreeSet};

use welle_graph::Port;

use crate::msg::{FwdItem, RevItem};
use crate::trails::Trail;

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
    /// Round-1 data of the current epoch: proxy id → walk count there.
    /// Ordered container: `distinct_proxies` iterates it, and seeded-path
    /// iteration order must be deterministic (`welle-lint: no-hash-iter`).
    pub proxy_counts: BTreeMap<u64, u32>,
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
        self.proxy_counts.clear();
        self.i2.clear();
        self.i4_max = None;
    }

    /// Number of distinct proxies reported this epoch.
    pub fn distinct_proxies(&self) -> usize {
        self.proxy_counts.values().filter(|&&c| c == 1).count()
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
    pub(crate) fn get_mut(&mut self, origin: u64) -> Option<&mut OriginEntry> {
        self.search(origin).ok().map(|i| &mut self.entries[i])
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

/// What one relay already sent towards one origin in one epoch: the
/// reverse-path twin of the forward-dedup record (see the protocol's
/// module docs).
#[derive(Debug, Default)]
pub(crate) struct Relayed {
    epoch: u32,
    /// `I1` ids relayed, sorted.
    i1: Vec<u64>,
    /// Largest `I3` maximum relayed.
    i3_max: Option<u64>,
    /// Whether a winner notice was relayed.
    winner: bool,
}

impl Relayed {
    /// Whether `item`, of `epoch`, can still change what the contender
    /// computes; records it if so. A unit of another epoch starts over.
    pub(crate) fn admit(&mut self, epoch: u32, item: &RevItem<'_>) -> bool {
        if self.epoch != epoch {
            *self = Relayed {
                epoch,
                ..Relayed::default()
            };
        }
        match *item {
            RevItem::ProxyInfo { .. } => true,
            RevItem::KnownContenders { ids } => {
                let mut fresh = false;
                for &id in ids {
                    if let Err(at) = self.i1.binary_search(&id) {
                        self.i1.insert(at, id);
                        fresh = true;
                    }
                }
                fresh
            }
            RevItem::I3Max { id } => {
                let fresh = self.i3_max.is_none_or(|m| id > m);
                if fresh {
                    self.i3_max = Some(id);
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

    #[test]
    fn distinct_proxy_counting() {
        let mut c = ContenderState::new();
        c.proxy_counts.insert(10, 1);
        c.proxy_counts.insert(11, 3);
        c.proxy_counts.insert(12, 1);
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
