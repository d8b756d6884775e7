//! Breadcrumb trails for routing along completed random-walk paths.
//!
//! Algorithm 2 requires three kinds of traffic to follow the walks after
//! they complete: proxy replies travel *backwards* to the contender
//! (rounds 1 and 3, winner notices), contender broadcasts travel
//! *forwards* to the proxies (round 2, winner messages, stop
//! commitments). Each node therefore keeps, per `(origin, epoch)`, two
//! facts about the walk tokens that passed it:
//!
//! * the **earliest arrival**: the lowest step at which a token reached
//!   the node, and the hop it came by (the first recorded on a tie);
//! * the sorted set of **out-ports** over which tokens ever left.
//!
//! **Backwards**, every unit leaves by the earliest arrival's in-port.
//! A token is at node `v` at step `s` only if it was at the neighbour
//! behind its in-port at step `s − 1`, so that neighbour's earliest step
//! is at most `s − 1`. The earliest step therefore falls at every hop:
//! a route never meets a node twice, and it ends at the one node whose
//! earliest arrival is step 0, the origin. The earliest arrival is never
//! a lazy stay, since a stay at step `s` needs a visit at `s − 1`. Every
//! unit a node sends towards one origin takes the same path home, which
//! is what lets relays drop repeats (see `welle-core`'s protocol).
//!
//! **Forwards**, a unit follows every recorded out-port, with per-wave
//! dedup at each node (the paper's "filtering and forwarding"), and so
//! reaches every proxy.
//!
//! Routes count hops along recorded trail edges, as the paper's bounds
//! do; the earliest-arrival route is never longer than the walk.
//! Memory per trail is one arrival plus at most one entry per port.

use std::collections::BTreeMap;

use welle_graph::Port;

/// One hop of a walk trail as seen from a node.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Hop {
    /// The walk started here (only at step 0 on the origin itself).
    Origin,
    /// The walk stayed here for a lazy step.
    Stay,
    /// The walk crossed the edge behind this local port.
    Via(Port),
}

/// The recorded passage of one origin's walks through one node during one
/// epoch.
#[derive(Clone, Debug)]
pub struct Trail {
    epoch: u32,
    finalized: bool,
    /// The earliest recorded arrival `(step, hop)`: lowest step, first
    /// recorded on a tie.
    earliest: Option<(u32, Hop)>,
    /// Distinct ports over which tokens left, sorted.
    out_ports: Vec<Port>,
}

impl Trail {
    fn new(epoch: u32) -> Self {
        Trail {
            epoch,
            finalized: false,
            earliest: None,
            out_ports: Vec::new(),
        }
    }

    /// Epoch this trail belongs to.
    pub fn epoch(&self) -> u32 {
        self.epoch
    }

    /// Whether the trail has no recorded hops at all.
    pub fn is_empty(&self) -> bool {
        self.earliest.is_none() && self.out_ports.is_empty()
    }

    /// Whether the origin committed to this epoch as its final guess.
    pub fn is_finalized(&self) -> bool {
        self.finalized
    }

    /// Records that step-`step` tokens arrived here via `hop`; only an
    /// arrival earlier than every recorded one is kept.
    pub fn record_in(&mut self, step: u32, hop: Hop) {
        if self.earliest.is_none_or(|(s, _)| step < s) {
            self.earliest = Some((step, hop));
        }
    }

    /// Records that tokens left here over `port` (deduplicated).
    pub fn record_out(&mut self, port: Port) {
        if let Err(at) = self.out_ports.binary_search(&port) {
            self.out_ports.insert(at, port);
        }
    }

    /// The earliest recorded arrival `(step, hop)`, if any.
    pub fn earliest(&self) -> Option<(u32, Hop)> {
        self.earliest
    }

    /// The reverse-routing decision: leave by the earliest arrival's
    /// in-port (see the module docs for why this always reaches the
    /// origin without revisiting a node).
    pub fn reverse_route(&self) -> ReverseRoute {
        match self.earliest {
            Some((_, Hop::Origin)) => ReverseRoute::AtOrigin,
            Some((step, Hop::Via(p))) => {
                debug_assert!(step > 0, "in-edge recorded at step 0");
                ReverseRoute::Forward(p)
            }
            // A stay needs an earlier visit; only a trail rebuilt from
            // a stale token can start with one.
            Some((_, Hop::Stay)) | None => ReverseRoute::Broken,
        }
    }

    /// Distinct ports over which tokens ever left this node, sorted.
    /// Forward waves (round 2, stop marks, winner messages) are relayed
    /// over exactly these ports once per item — the paper's "filtering
    /// and forwarding": every path segment of the walk DAG is covered,
    /// and per-node dedup keeps one copy per edge.
    pub fn distinct_out_ports(&self) -> &[Port] {
        &self.out_ports
    }
}

/// Outcome of a reverse-routing lookup.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReverseRoute {
    /// This node *is* the origin: deliver locally.
    AtOrigin,
    /// Send over the port; the receiver's earliest step is below this
    /// node's.
    Forward(Port),
    /// No usable trail information (protocol bug or stale GC) — callers
    /// treat this as a dropped reply.
    Broken,
}

/// Per-node store of trails, keyed by origin id.
///
/// Epoch discipline (Fidelity note 5 of DESIGN.md): non-finalized trails
/// of an older epoch are replaced when the origin starts a new epoch;
/// finalized trails persist for the rest of the execution (their origin
/// stopped and keeps its proxies).
///
/// Ordered map: [`TrailStore::iter`] walks the store, and seeded-path
/// iteration order must be deterministic (`welle-lint: no-hash-iter`).
#[derive(Clone, Debug, Default)]
pub struct TrailStore {
    trails: BTreeMap<u64, Trail>,
}

impl TrailStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        TrailStore::default()
    }

    /// Number of tracked origins.
    pub fn len(&self) -> usize {
        self.trails.len()
    }

    /// Whether the store tracks no origin.
    pub fn is_empty(&self) -> bool {
        self.trails.is_empty()
    }

    /// The trail for `origin` usable at `epoch`: creates or resets it if
    /// the stored one is older and not finalized. Returns `None` if the
    /// stored trail is finalized with a different epoch (walks of a
    /// stopped contender cannot restart) or newer than `epoch` (stale
    /// token arriving late — dropped).
    pub fn enter_epoch(&mut self, origin: u64, epoch: u32) -> Option<&mut Trail> {
        match self.trails.get(&origin) {
            Some(t) if t.finalized => {
                if t.epoch == epoch {
                    return self.trails.get_mut(&origin);
                }
                return None;
            }
            Some(t) if t.epoch > epoch => return None,
            Some(t) if t.epoch == epoch => return self.trails.get_mut(&origin),
            _ => {}
        }
        self.trails.insert(origin, Trail::new(epoch));
        self.trails.get_mut(&origin)
    }

    /// The trail for `origin` at exactly `epoch`, if present.
    pub fn at_epoch(&self, origin: u64, epoch: u32) -> Option<&Trail> {
        self.trails.get(&origin).filter(|t| t.epoch == epoch)
    }

    /// The current trail of `origin`, whatever its epoch.
    pub fn current(&self, origin: u64) -> Option<&Trail> {
        self.trails.get(&origin)
    }

    /// Marks `origin`'s trail at `epoch` as final (the contender stopped
    /// with this guess); ignored if the stored epoch differs.
    pub fn finalize(&mut self, origin: u64, epoch: u32) {
        if let Some(t) = self.trails.get_mut(&origin) {
            if t.epoch == epoch {
                t.finalized = true;
            }
        }
    }

    /// Drops non-finalized trails older than `current_epoch` (their
    /// origins moved on; the records can never be used again).
    pub fn gc(&mut self, current_epoch: u32) {
        self.trails
            .retain(|_, t| t.finalized || t.epoch >= current_epoch);
    }

    /// Iterates over `(origin, trail)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &Trail)> {
        self.trails.iter().map(|(&o, t)| (o, t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_dedup() {
        let mut t = Trail::new(2);
        t.record_in(3, Hop::Via(Port::new(0)));
        t.record_in(1, Hop::Via(Port::new(2)));
        // A tie keeps the first recorded hop; later steps never replace.
        t.record_in(1, Hop::Via(Port::new(5)));
        t.record_in(2, Hop::Stay);
        assert_eq!(t.earliest(), Some((1, Hop::Via(Port::new(2)))));
        t.record_out(Port::new(4));
        t.record_out(Port::new(1));
        t.record_out(Port::new(4));
        assert_eq!(t.distinct_out_ports(), &[Port::new(1), Port::new(4)]);
    }

    #[test]
    fn no_preallocation_for_long_walks() {
        let mut store = TrailStore::new();
        let t = store.enter_epoch(1, 20).unwrap();
        assert!(t.is_empty());
        assert!(t.distinct_out_ports().is_empty());
    }

    #[test]
    fn reverse_route_skips_stays() {
        let mut t = Trail::new(0);
        // Tokens arrived at step 1 via port 3, stayed for steps 2 and
        // 3, and came back at step 4 via port 0.
        t.record_in(1, Hop::Via(Port::new(3)));
        t.record_in(2, Hop::Stay);
        t.record_in(3, Hop::Stay);
        t.record_in(4, Hop::Via(Port::new(0)));
        assert_eq!(t.reverse_route(), ReverseRoute::Forward(Port::new(3)));
    }

    #[test]
    fn reverse_route_at_origin() {
        let mut t = Trail::new(0);
        t.record_in(0, Hop::Origin);
        t.record_in(1, Hop::Stay);
        t.record_in(2, Hop::Via(Port::new(1)));
        assert_eq!(t.reverse_route(), ReverseRoute::AtOrigin);
    }

    #[test]
    fn reverse_route_broken_without_records() {
        let mut t = Trail::new(0);
        assert_eq!(t.reverse_route(), ReverseRoute::Broken);
        t.record_in(2, Hop::Stay);
        assert_eq!(t.reverse_route(), ReverseRoute::Broken);
    }

    #[test]
    fn epoch_replacement_rules() {
        let mut store = TrailStore::new();
        store.enter_epoch(7, 0).unwrap().record_in(0, Hop::Origin);
        // Same epoch: same trail.
        assert_eq!(
            store.enter_epoch(7, 0).unwrap().earliest(),
            Some((0, Hop::Origin))
        );
        // Newer epoch replaces a non-finalized trail.
        let t = store.enter_epoch(7, 1).unwrap();
        assert!(t.is_empty());
        assert_eq!(t.epoch(), 1);
        // Stale (older-epoch) token is rejected.
        assert!(store.enter_epoch(7, 0).is_none());
    }

    #[test]
    fn finalized_trails_are_immutable_across_epochs() {
        let mut store = TrailStore::new();
        store.enter_epoch(9, 2).unwrap();
        store.finalize(9, 2);
        assert!(store.current(9).unwrap().is_finalized());
        // A finalized trail refuses other epochs but accepts its own.
        assert!(store.enter_epoch(9, 3).is_none());
        assert!(store.enter_epoch(9, 2).is_some());
        // GC keeps finalized trails forever.
        store.gc(10);
        assert!(store.current(9).is_some());
    }

    #[test]
    fn gc_drops_stale_unfinalized() {
        let mut store = TrailStore::new();
        store.enter_epoch(1, 0);
        store.enter_epoch(2, 5);
        store.gc(3);
        assert!(store.current(1).is_none());
        assert!(store.current(2).is_some());
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn finalize_wrong_epoch_is_ignored() {
        let mut store = TrailStore::new();
        store.enter_epoch(4, 1);
        store.finalize(4, 0);
        assert!(!store.current(4).unwrap().is_finalized());
    }
}
