//! Breadcrumb trails for routing along completed random-walk paths.
//!
//! Algorithm 2 requires three kinds of traffic to follow the walks after
//! they complete: proxy replies travel *backwards* to the contender
//! (rounds 1 and 3, winner notices), contender broadcasts travel
//! *forwards* to the proxies (round 2, winner messages, stop
//! commitments). Each node therefore keeps, per `(origin, epoch)`, two
//! facts:
//!
//! * the **earliest arrival**: the lowest step at which a walk token
//!   reached the node, and the hop it came by (the first recorded on a
//!   tie);
//! * the sorted set of **reply children**: the ports over which reverse
//!   units of that origin and epoch reached the node.
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
//! **Forwards**, a unit follows every reply child, with per-wave dedup
//! at each node (the paper's "filtering and forwarding"). The routes
//! home of all proxies that replied form a tree rooted at the origin,
//! and each node on it records the hops the replies came by, so a
//! forward unit crosses each tree edge once and reaches every proxy
//! that replied. A child's earliest arrival crossed the edge to its
//! parent, so every tree edge is a walk step: forward units still
//! follow the walk paths, only not all of them.
//!
//! Routes count hops along recorded trail edges, as the paper's bounds
//! do; the earliest-arrival route is never longer than the walk.
//! Memory per trail is one arrival plus one entry per reply child, at
//! most one per port.
//!
//! **Epochs.** A node keeps at most one trail per origin, in an
//! `Option<Trail>` slot ([`Trail::enter_epoch`]). A walk of a newer epoch
//! replaces a trail that is not finalized; a token of an older epoch
//! than the stored trail is stale and dropped. A finalized trail belongs
//! to an origin that stopped at that epoch: it keeps serving that
//! epoch's traffic for the rest of the execution and refuses every other
//! epoch. At the start of epoch `e`, [`Trail::gc`] drops a trail that is
//! neither finalized nor of an epoch `≥ e`, since its origin has moved on.

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
    /// Reply children: distinct ports over which reverse units arrived,
    /// sorted.
    children: Vec<Port>,
}

impl Trail {
    /// An empty trail of `epoch`.
    pub fn new(epoch: u32) -> Self {
        Trail {
            epoch,
            finalized: false,
            earliest: None,
            children: Vec::new(),
        }
    }

    /// Epoch this trail belongs to.
    pub fn epoch(&self) -> u32 {
        self.epoch
    }

    /// Whether the trail has recorded neither an arrival nor a child.
    pub fn is_empty(&self) -> bool {
        self.earliest.is_none() && self.children.is_empty()
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

    /// Records that a reverse unit arrived over `port`, making it a reply
    /// child; returns whether it was not one before.
    pub fn record_child(&mut self, port: Port) -> bool {
        let Err(at) = self.children.binary_search(&port) else {
            return false;
        };
        self.children.insert(at, port);
        true
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

    /// The reply children, sorted. Forward waves (round 2, stop marks,
    /// winner messages) are relayed over exactly these ports once per
    /// item — the paper's "filtering and forwarding" along the tree the
    /// replies came by (see the module docs).
    pub fn children(&self) -> &[Port] {
        &self.children
    }

    /// The trail in `slot` usable at `epoch`: creates it, or resets it if
    /// the stored one is older and not finalized. Returns `None` if the
    /// stored trail is finalized with a different epoch (walks of a
    /// stopped contender cannot restart) or newer than `epoch` (a stale
    /// token arriving late — dropped).
    pub fn enter_epoch(slot: &mut Option<Trail>, epoch: u32) -> Option<&mut Trail> {
        match slot {
            Some(t) if t.finalized && t.epoch != epoch => return None,
            Some(t) if t.epoch > epoch => return None,
            Some(t) if t.epoch == epoch => {}
            _ => *slot = Some(Trail::new(epoch)),
        }
        slot.as_mut()
    }

    /// Empties `slot` at the start of `current_epoch` if its trail is not
    /// finalized and older (its origin moved on; the records can never
    /// be used again).
    pub fn gc(slot: &mut Option<Trail>, current_epoch: u32) {
        slot.take_if(|t| !t.finalized && t.epoch < current_epoch);
    }

    /// Marks the trail as final (its origin stopped with this guess);
    /// ignored if the trail's epoch differs.
    pub fn finalize(&mut self, epoch: u32) {
        if self.epoch == epoch {
            self.finalized = true;
        }
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
        // Children stay sorted and distinct; only a new one reports true.
        assert!(t.record_child(Port::new(4)));
        assert!(t.record_child(Port::new(1)));
        assert!(!t.record_child(Port::new(4)));
        assert!(t.record_child(Port::new(3)));
        assert!(!t.record_child(Port::new(1)));
        assert_eq!(t.children(), &[Port::new(1), Port::new(3), Port::new(4)]);
    }

    #[test]
    fn trail_is_48_bytes() {
        // A node holds one per origin whose walks passed it: about three
        // per node at n = 10⁶.
        assert_eq!(std::mem::size_of::<Trail>(), 48);
    }

    #[test]
    fn no_preallocation_for_long_walks() {
        let mut slot = None;
        let t = Trail::enter_epoch(&mut slot, 20).unwrap();
        assert!(t.is_empty());
        assert!(t.children().is_empty());
        assert_eq!(t.children.capacity(), 0);
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
        let mut slot = None;
        Trail::enter_epoch(&mut slot, 0)
            .unwrap()
            .record_in(0, Hop::Origin);
        // Same epoch: same trail.
        assert_eq!(
            Trail::enter_epoch(&mut slot, 0).unwrap().earliest(),
            Some((0, Hop::Origin))
        );
        // Newer epoch replaces a non-finalized trail.
        let t = Trail::enter_epoch(&mut slot, 1).unwrap();
        assert!(t.is_empty());
        assert_eq!(t.epoch(), 1);
        // Stale (older-epoch) token is rejected.
        assert!(Trail::enter_epoch(&mut slot, 0).is_none());
    }

    #[test]
    fn finalized_trails_are_immutable_across_epochs() {
        let mut slot = None;
        Trail::enter_epoch(&mut slot, 2).unwrap().finalize(2);
        assert!(slot.as_ref().unwrap().is_finalized());
        // A finalized trail refuses other epochs but accepts its own.
        assert!(Trail::enter_epoch(&mut slot, 3).is_none());
        assert!(Trail::enter_epoch(&mut slot, 2).is_some());
        // GC keeps finalized trails forever.
        Trail::gc(&mut slot, 10);
        assert!(slot.is_some());
    }

    #[test]
    fn gc_drops_stale_unfinalized() {
        let (mut old, mut new) = (None, None);
        Trail::enter_epoch(&mut old, 0);
        Trail::enter_epoch(&mut new, 5);
        Trail::gc(&mut old, 3);
        Trail::gc(&mut new, 3);
        assert!(old.is_none());
        assert!(new.is_some());
        // The current epoch survives.
        Trail::gc(&mut new, 5);
        assert!(new.is_some());
    }

    #[test]
    fn finalize_wrong_epoch_is_ignored() {
        let mut slot = None;
        Trail::enter_epoch(&mut slot, 1).unwrap().finalize(0);
        assert!(!slot.unwrap().is_finalized());
    }
}
