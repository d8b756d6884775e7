//! Breadcrumb trails for routing along completed random-walk paths.
//!
//! Algorithm 2 requires three kinds of traffic to follow the walks after
//! they complete: proxy replies travel *backwards* to the contender
//! (rounds 1 and 3, winner notices), contender broadcasts travel
//! *forwards* to the proxies (round 2, winner messages, stop
//! commitments). Each node therefore keeps, per `(origin, epoch)`, three
//! facts:
//!
//! * the **earliest arrival**: the lowest step at which a walk token
//!   reached the node, and the hop it came by (the first recorded on a
//!   tie);
//! * how many of the walks **ended** at the node. The paper's proxies of
//!   an origin are "the nodes where the random walks generated by `u`
//!   complete `t_u` steps", so the node is a proxy of the trail's epoch
//!   exactly when this count is positive, and a *distinct* proxy (the
//!   Distinctness Property) when it is one;
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
//! is what lets relays drop repeats (see the protocol's module docs).
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
//! Memory per trail is one arrival, one count, and one entry per reply
//! child, at most one per port.
//!
//! **Epochs.** A node keeps at most one trail per origin, in an
//! `Option<Trail>` slot ([`Trail::enter_epoch`]). A walk of a newer epoch
//! replaces a trail that is not finalized; a token of an older epoch
//! than the stored trail is stale and dropped. A finalized trail belongs
//! to an origin that stopped at that epoch (its proxies hold the
//! origin's *final* guess, the rest a *current* one): it keeps serving
//! that epoch's traffic for the rest of the execution and refuses every
//! other epoch. At the start of epoch `e`, [`Trail::gc`] drops a trail
//! that is neither finalized nor of an epoch `≥ e`, since its origin has
//! moved on.

use welle_graph::Port;

/// One hop of a walk trail as seen from a node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Hop {
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
pub(crate) struct Trail {
    epoch: u32,
    finalized: bool,
    /// How many of the epoch's walks ended here: the node is the
    /// origin's proxy exactly when this is positive.
    pub(crate) ended: u32,
    /// The earliest recorded arrival `(step, hop)`: lowest step, first
    /// recorded on a tie.
    earliest: Option<(u32, Hop)>,
    /// Reply children: distinct ports over which reverse units arrived,
    /// sorted.
    children: Vec<Port>,
}

impl Trail {
    /// An empty trail of `epoch`.
    fn new(epoch: u32) -> Self {
        Trail {
            epoch,
            finalized: false,
            ended: 0,
            earliest: None,
            children: Vec::new(),
        }
    }

    /// Epoch this trail belongs to.
    pub(crate) fn epoch(&self) -> u32 {
        self.epoch
    }

    /// Whether the origin committed to this epoch as its final guess.
    pub(crate) fn is_finalized(&self) -> bool {
        self.finalized
    }

    /// Whether this trail takes part in the exchange of `current_epoch`:
    /// a finalized one always does, a tentative one only during its
    /// epoch.
    pub(crate) fn valid_at(&self, current_epoch: u32) -> bool {
        self.finalized || self.epoch == current_epoch
    }

    /// Records that step-`step` tokens arrived here via `hop`; only an
    /// arrival earlier than every recorded one is kept.
    pub(crate) fn record_in(&mut self, step: u32, hop: Hop) {
        if self.earliest.is_none_or(|(s, _)| step < s) {
            self.earliest = Some((step, hop));
        }
    }

    /// Records that a reverse unit arrived over `port`, making it a reply
    /// child; returns whether it was not one before.
    pub(crate) fn record_child(&mut self, port: Port) -> bool {
        let Err(at) = self.children.binary_search(&port) else {
            return false;
        };
        self.children.insert(at, port);
        true
    }

    /// The reverse-routing decision: leave by the earliest arrival's
    /// in-port (see the module docs for why this always reaches the
    /// origin without revisiting a node).
    pub(crate) fn reverse_route(&self) -> ReverseRoute {
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
    pub(crate) fn children(&self) -> &[Port] {
        &self.children
    }

    /// The trail in `slot` usable at `epoch`: creates it, or resets it if
    /// the stored one is older and not finalized. Returns `None` if the
    /// stored trail is finalized with a different epoch (walks of a
    /// stopped contender cannot restart) or newer than `epoch` (a stale
    /// token arriving late — dropped).
    pub(crate) fn enter_epoch(slot: &mut Option<Trail>, epoch: u32) -> Option<&mut Trail> {
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
    pub(crate) fn gc(slot: &mut Option<Trail>, current_epoch: u32) {
        slot.take_if(|t| !t.finalized && t.epoch < current_epoch);
    }

    /// Marks the trail as final (its origin stopped with this guess);
    /// ignored if the trail's epoch differs.
    pub(crate) fn finalize(&mut self, epoch: u32) {
        if self.epoch == epoch {
            self.finalized = true;
        }
    }
}

/// Outcome of a reverse-routing lookup.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum ReverseRoute {
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
    use std::collections::BTreeMap;

    use proptest::prelude::*;
    use rand::{rngs::StdRng, SeedableRng};
    use welle_graph::{gen, Graph, NodeId};
    use welle_walks::split_lazy;

    use super::*;

    #[test]
    fn record_and_dedup() {
        let mut t = Trail::new(2);
        t.record_in(3, Hop::Via(Port::new(0)));
        t.record_in(1, Hop::Via(Port::new(2)));
        // A tie keeps the first recorded hop; later steps never replace.
        t.record_in(1, Hop::Via(Port::new(5)));
        t.record_in(2, Hop::Stay);
        assert_eq!(t.earliest, Some((1, Hop::Via(Port::new(2)))));
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
        assert!(t.earliest.is_none() && t.ended == 0);
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
        let t = Trail::enter_epoch(&mut slot, 0).unwrap();
        t.record_in(0, Hop::Origin);
        t.ended = 2;
        // Same epoch: same trail.
        let t = Trail::enter_epoch(&mut slot, 0).unwrap();
        assert_eq!((t.earliest, t.ended), (Some((0, Hop::Origin)), 2));
        // Newer epoch replaces a non-finalized trail, count and all.
        let t = Trail::enter_epoch(&mut slot, 1).unwrap();
        assert!(t.earliest.is_none() && t.ended == 0);
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

    /// Walks `walks` lazy walks of `len` steps from `origin`, step by step,
    /// recording every node's trail as the protocol does, and returns the
    /// per-node trails.
    fn simulate_trails(
        g: &Graph,
        origin: usize,
        walks: u32,
        len: u32,
        rng: &mut StdRng,
    ) -> Vec<Option<Trail>> {
        let mut trails: Vec<Option<Trail>> = vec![None; g.n()];
        let record = |trails: &mut [Option<Trail>], v: NodeId, step: u32, hop: Hop| {
            Trail::enter_epoch(&mut trails[v.index()], 0)
                .expect("one epoch")
                .record_in(step, hop);
        };
        record(&mut trails, NodeId::new(origin), 0, Hop::Origin);
        // Token bundles at the current step, by node in index order.
        let mut at: BTreeMap<usize, u32> = BTreeMap::from([(origin, walks)]);
        for step in 0..len {
            let mut next: BTreeMap<usize, u32> = BTreeMap::new();
            for (&u, &count) in &at {
                let u = NodeId::new(u);
                let mut moves = vec![0; g.degree(u)];
                let stay = split_lazy(count, rng, &mut moves);
                if stay > 0 {
                    record(&mut trails, u, step + 1, Hop::Stay);
                    *next.entry(u.index()).or_default() += stay;
                }
                for (port, &moved) in moves.iter().enumerate().filter(|&(_, &c)| c > 0) {
                    let port = Port::new(port);
                    let v = g.neighbor(u, port);
                    record(&mut trails, v, step + 1, Hop::Via(g.reverse_port(u, port)));
                    *next.entry(v.index()).or_default() += moved;
                }
            }
            at = next;
        }
        trails
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// From every node the walks reached, reverse routing over the
        /// graph's ports reaches the origin within the walk length, the
        /// earliest step falling at every hop and no node repeating. Every
        /// hop makes its in-port a reply child of the node it reaches, as
        /// the election's relays do, and the children then form a tree from
        /// the origin over edges the walks crossed, holding every node the
        /// walks reached exactly once.
        #[test]
        fn trail_reverse_route_terminates(
            seed in any::<u64>(),
            n in 4usize..24,
            walks in 1u32..64,
            len in 1u32..16,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let g = gen::gnp_connected(n, 0.3, &mut rng).unwrap();
            let origin = (seed % n as u64) as usize;
            let mut trails = simulate_trails(&g, origin, walks, len, &mut rng);
            for start in 0..n {
                let Some(trail) = &trails[start] else {
                    continue;
                };
                let (mut step, _) = trail.earliest.expect("a trail holds an arrival");
                let mut at = NodeId::new(start);
                let mut seen = vec![false; n];
                seen[start] = true;
                let mut hops = 0u32;
                loop {
                    let here = trails[at.index()].as_ref().expect("routes stay on the trail");
                    match here.reverse_route() {
                        ReverseRoute::AtOrigin => {
                            prop_assert_eq!(at.index(), origin, "only the origin answers AtOrigin");
                            break;
                        }
                        ReverseRoute::Forward(port) => {
                            let child = g.reverse_port(at, port);
                            at = g.neighbor(at, port);
                            trails[at.index()]
                                .as_mut()
                                .expect("routes stay on the trail")
                                .record_child(child);
                            hops += 1;
                            prop_assert!(hops <= len, "route from {} is longer than the walk", start);
                            prop_assert!(!seen[at.index()], "route from {} revisits {}", start, at.index());
                            seen[at.index()] = true;
                            let next = trails[at.index()]
                                .as_ref()
                                .and_then(|t| t.earliest)
                                .map(|(s, _)| s);
                            prop_assert!(next.is_some_and(|s| s < step),
                                "earliest step did not fall: {} then {:?}", step, next);
                            step = next.unwrap_or(0);
                        }
                        ReverseRoute::Broken => prop_assert!(false, "broken route from {}", start),
                    }
                }
            }
            let mut reached = vec![false; n];
            reached[origin] = true;
            let mut stack = vec![NodeId::new(origin)];
            while let Some(u) = stack.pop() {
                let trail = trails[u.index()].as_ref().expect("tree nodes hold trails");
                for &port in trail.children() {
                    let v = g.neighbor(u, port);
                    let back = trails[v.index()].as_ref().map(Trail::reverse_route);
                    prop_assert_eq!(back, Some(ReverseRoute::Forward(g.reverse_port(u, port))),
                        "child {} of {} was not reached over that edge", v.index(), u.index());
                    prop_assert!(!reached[v.index()], "node {} has two parents", v.index());
                    reached[v.index()] = true;
                    stack.push(v);
                }
            }
            let held: Vec<bool> = trails.iter().map(Option::is_some).collect();
            prop_assert_eq!(reached, held, "the tree must hold exactly the trail nodes");
        }
    }
}
