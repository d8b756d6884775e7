//! The node protocol implementing Algorithms 1 and 2 of the paper.
//!
//! Life of an epoch `e` (walk length `t_u = 2^e`, segment budget `T_e`):
//!
//! 1. **Walk** — active contenders launch `c2·√n·ln n` aggregated walk
//!    tokens; every node forwards token batches one lazy step per round,
//!    recording breadcrumb trails. Tokens with `remaining = 0` end on the
//!    trail they reach, and a node where an origin's walks end is its
//!    proxy.
//! 2. **R1** — proxies send each current-epoch origin its id, walk count
//!    (the distinctness bit `d`), the set `I1` of other contenders they
//!    serve, in units of [`Params::frag`] ids (four in CONGEST mode), and
//!    any known winner — reverse-routed along the trails: every node
//!    passes a unit on by its earliest recorded arrival of the origin's
//!    walks, so the way home never revisits a node and is never longer
//!    than the walk (see the `trails` module).
//! 3. **R2** — contenders send `max(I2 ∪ {u})` (`I2` is the union of the
//!    received `I1`s) forward to their proxies: one unit per contender,
//!    passed down the tree that the round-1 replies came by. Each node
//!    records, as its reply children, the ports that reverse units of
//!    the origin's epoch arrived over, and relays forward units over
//!    those ports only. Every current-epoch proxy replies in round 1,
//!    so the tree holds every proxy and every relay on its way home.
//! 4. **R3** — proxies reverse-route `max(I3)` (`I3` is the union of the
//!    received `I2`s) to their current-epoch contenders: one unit per
//!    (proxy, contender). The decision below reads `I4` only through its
//!    maximum, so the maxima decide exactly as the paper's full sets do,
//!    with one id per message and one message per trail hop.
//! 5. **Decide + wait (2T)** — contenders check the Intersection and
//!    Distinctness properties; on success they stop and commit their
//!    trails with a `StopMark` wave down the reply tree. A contender
//!    that holds the largest id in `I4` and has heard no winner declares
//!    leadership instead, and its winner wave commits the trails as a
//!    stop mark would, so it sends one wave, not two. Proxies
//!    reverse-route a winner notice to all their contenders, which pass
//!    it down their own reply trees.
//!
//! **Relay filter.** A node's reverse route towards an origin is fixed
//! once the walks are done, so every unit it relays towards that origin
//! follows the first one home. Relays therefore pass on only what the
//! contender can still use, per `(origin, epoch)`:
//!
//! * an `I1` id once (a fragment of several ids goes on, unchanged,
//!   while any of its ids is new) — the contender reads `I1` only as a
//!   set, through `|I2|` and its maximum;
//! * an `I3` maximum only if it exceeds every one relayed before — the
//!   contender reads `I4` only through its maximum;
//! * the first winner notice — a contender acts on the first only;
//! * every proxy's `(id, count)` reply.
//!
//! In a fault-free run whose traffic drains within each segment, the
//! contender therefore receives the same sets and maxima as without the
//! filter, and decides the same.
//!
//! **Per-origin state.** A node keeps all it knows of one walk origin in
//! one entry of a table sorted by origin: the trail with its reply
//! children and the count of walks that ended on it, the relay filter and
//! the forward-dedup record. The trail is the one record of an origin
//! epoch: the node is the origin's proxy when walks ended on it, and the
//! origin committed to that epoch when it is finalized. A walk token, a
//! reverse unit or a forward unit costs one binary search, and entries
//! iterate in origin order, so sends go out in the same order at every
//! run. Forward dedup ("filtering and forwarding") is exact: the entry
//! lists the items it handled since the epoch began — `I2` maxima and
//! winner ids by value, and the stop mark — each with the epoch of the
//! trail it was passed on along. Dedup reads the item alone, so a stale
//! unit that repeats an item is dropped too. A child that registers after
//! a wave has passed (its reply was lost, or the contender heard of a
//! winner while its children were still arriving) is sent the items
//! already passed on along that trail, with the trail's epoch, so what a
//! wave reaches does not depend on arrival order.

use std::sync::Arc;

use rand::RngExt;
use welle_congest::{Context, Protocol, Signal};
use welle_graph::Port;
use welle_walks::{split_lazy, with_port_counts};

use crate::config::{Params, Phase, SyncMode};
use crate::msg::{ElectionMsg, FwdItem, MsgView, RevItem};
use crate::state::{ContenderState, Decision, EpochRecord, NodeStats, Origins};
use crate::trails::{Hop, ReverseRoute, Trail};

/// The signal value the adaptive driver broadcasts to advance one segment.
pub const SIGNAL_ADVANCE: Signal = 1;

/// One anonymous node running the election (Algorithm 1 + 2).
#[derive(Debug)]
pub struct ElectionNode {
    params: Arc<Params>,
    id: u64,
    /// Boxed: only about `c1·ln n` of the `n` nodes are contenders.
    contender: Option<Box<ContenderState>>,
    decided: Option<Decision>,
    decided_round: Option<u64>,
    /// Trail, relay filter and forward dedup per origin.
    origins: Origins,
    /// Lazy-step holdovers: `(origin, epoch, remaining, count)` to process
    /// next round. Released whenever a round leaves it empty, so a node
    /// holds no buffer once its walks have passed.
    pending_stays: Vec<(u64, u32, u32, u32)>,
    /// `max(I3)`: the largest id received this epoch while acting as
    /// proxy.
    i3_max: Option<u64>,
    winner_heard: Option<u64>,
    winner_relayed_as_proxy: bool,
    /// Next unfired global segment index.
    seg_idx: u64,
    cur_epoch: u32,
    /// Phase of the most recently fired segment — published through
    /// [`Protocol::phase_tag`] for the telemetry layer. Segment firing
    /// is driven by the shared round clock (FixedT) or the broadcast
    /// advance signal (Adaptive), so every node that fires in a round
    /// publishes the same phase regardless of executor or callback
    /// order.
    cur_phase: Phase,
    stats: NodeStats,
}

impl ElectionNode {
    /// Creates a node sharing the derived parameters.
    pub fn new(params: Arc<Params>) -> Self {
        ElectionNode {
            params,
            id: 0,
            contender: None,
            decided: None,
            decided_round: None,
            origins: Origins::default(),
            pending_stays: Vec::new(),
            i3_max: None,
            winner_heard: None,
            winner_relayed_as_proxy: false,
            seg_idx: 0,
            cur_epoch: 0,
            cur_phase: Phase::Walk,
            stats: NodeStats::default(),
        }
    }

    /// The node's random id in `[1, n⁴]` (drawn at start).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Whether the node designated itself contender.
    pub fn is_contender(&self) -> bool {
        self.contender.is_some()
    }

    /// The contender-side state, if any.
    pub fn contender_state(&self) -> Option<&ContenderState> {
        self.contender.as_deref()
    }

    /// The node's final decision, once made.
    pub fn decision(&self) -> Option<Decision> {
        self.decided
    }

    /// Round at which the decision was made.
    pub fn decided_round(&self) -> Option<u64> {
        self.decided_round
    }

    /// Winner id this node has heard of, if any.
    pub fn winner_heard(&self) -> Option<u64> {
        self.winner_heard
    }

    /// Diagnostic counters.
    pub fn stats(&self) -> NodeStats {
        self.stats
    }

    // ------------------------------------------------------------------
    // Segment machinery
    // ------------------------------------------------------------------

    fn fire_due_segments(&mut self, ctx: &mut Context<'_, ElectionMsg>) {
        if self.params.cfg.sync != SyncMode::FixedT {
            return;
        }
        while self.seg_idx < self.params.total_segments()
            && self.params.segment_boundary(self.seg_idx) <= ctx.round()
        {
            let seg = self.seg_idx;
            self.seg_idx += 1;
            self.fire_segment(ctx, seg);
        }
    }

    fn schedule_next_wake(&mut self, ctx: &mut Context<'_, ElectionMsg>) {
        if self.params.cfg.sync != SyncMode::FixedT {
            return;
        }
        if self.seg_idx >= self.params.total_segments() {
            return;
        }
        if self.has_segment_role() {
            let next = self.params.segment_boundary(self.seg_idx);
            ctx.wake_at(next);
        }
    }

    /// Does this node need to act at upcoming segment boundaries?
    fn has_segment_role(&self) -> bool {
        if let Some(c) = &self.contender {
            if c.active {
                return true;
            }
        }
        self.origins
            .proxies()
            .any(|(_, t)| t.epoch() == self.cur_epoch && !t.is_finalized())
    }

    fn fire_segment(&mut self, ctx: &mut Context<'_, ElectionMsg>, seg: u64) {
        let epoch = (seg / 5) as u32;
        self.cur_epoch = epoch;
        self.cur_phase = Phase::of_segment(seg);
        match Phase::of_segment(seg) {
            Phase::Walk => self.begin_epoch(ctx, epoch),
            Phase::R1 => self.emit_r1(ctx, epoch),
            Phase::R2 => self.emit_r2(ctx, epoch),
            Phase::R3 => self.emit_r3(ctx, epoch),
            Phase::Wait => self.decide(ctx, epoch),
        }
    }

    fn begin_epoch(&mut self, ctx: &mut Context<'_, ElectionMsg>, epoch: u32) {
        // GC: tentative trails of older epochs can never be used again.
        self.origins.begin_epoch(epoch);
        self.i3_max = None;

        let launch = match &mut self.contender {
            Some(c) if c.active => {
                c.begin_epoch();
                true
            }
            _ => false,
        };
        if launch {
            let len = self.params.walk_len(epoch);
            let count = self.params.walks_per_contender;
            self.handle_walk_tokens(ctx, self.id, epoch, len, count, Hop::Origin);
        }
    }

    fn emit_r1(&mut self, ctx: &mut Context<'_, ElectionMsg>, epoch: u32) {
        // Proxies answer the *current-epoch* contenders (stopped
        // contenders no longer evaluate properties, so no reply needed;
        // their ids still flow inside I1).
        let emissions: Vec<(u64, u32)> = self
            .origins
            .proxies()
            .filter(|(_, t)| t.epoch() == epoch && !t.is_finalized())
            .map(|(o, t)| (o, t.ended))
            .collect();
        for (origin, count) in emissions {
            self.send_reverse(
                ctx,
                origin,
                epoch,
                RevItem::ProxyInfo {
                    proxy_id: self.id,
                    count,
                },
            );
            let i1: Vec<u64> = self
                .origins
                .proxies()
                .filter(|&(o2, t2)| o2 != origin && t2.valid_at(epoch))
                .map(|(o2, _)| o2)
                .collect();
            for chunk in i1.chunks(self.params.frag) {
                self.send_reverse(ctx, origin, epoch, RevItem::KnownContenders { ids: chunk });
            }
            if let Some(w) = self.winner_heard {
                self.send_reverse(ctx, origin, epoch, RevItem::Winner { id: w });
            }
        }
    }

    fn emit_r2(&mut self, ctx: &mut Context<'_, ElectionMsg>, epoch: u32) {
        let id = match &self.contender {
            // I2 plus our own id: strictly more information than the
            // paper's I2 (our id reaches I3/I4 anyway through shared
            // proxies whenever it matters); can only reduce the
            // multi-leader risk, never the at-least-one guarantee.
            Some(c) if c.active => c.i2.last().map_or(self.id, |&m| m.max(self.id)),
            _ => return,
        };
        let m = ElectionMsg::fwd(self.id, epoch, FwdItem::I2Max { id });
        self.process_forward(ctx, m);
    }

    fn emit_r3(&mut self, ctx: &mut Context<'_, ElectionMsg>, epoch: u32) {
        let Some(id) = self.i3_max else {
            return;
        };
        let origins: Vec<u64> = self
            .origins
            .proxies()
            .filter(|(_, t)| t.epoch() == epoch && !t.is_finalized())
            .map(|(o, _)| o)
            .collect();
        for origin in origins {
            self.send_reverse(ctx, origin, epoch, RevItem::I3Max { id });
        }
    }

    fn decide(&mut self, ctx: &mut Context<'_, ElectionMsg>, epoch: u32) {
        let Some(c) = &mut self.contender else {
            return;
        };
        if !c.active {
            return;
        }
        let distinct = c.distinct_proxies();
        let inter = c.i2.len();
        let satisfied =
            inter >= self.params.tau_intersection && distinct >= self.params.tau_distinct;
        // The known-t_mix baseline stops unconditionally after its single
        // phase (Kutten et al. [25] assume the guarantee holds).
        let baseline_stop = self.params.cfg.fixed_walk_len.is_some();
        let last_epoch = epoch + 1 >= self.params.max_epochs;
        c.history.push(EpochRecord {
            epoch,
            walk_len: self.params.walk_len(epoch),
            proxy_replies: c.proxy_counts.len(),
            distinct_proxies: distinct,
            i2_len: inter,
            satisfied,
        });

        if satisfied || baseline_stop || last_epoch {
            c.active = false;
            c.stopped_epoch = Some(epoch);
            c.gave_up = !(satisfied || baseline_stop);
            // Winning condition: largest id in I4 (∪ I2 ∪ {self}) and no
            // winner heard.
            let max_known = c
                .i4_max
                .max(c.i2.last().copied())
                .map_or(self.id, |m| m.max(self.id));
            let wins = !c.gave_up && self.winner_heard.is_none() && max_known == self.id;
            self.decided = Some(if wins {
                Decision::Leader
            } else {
                Decision::NonLeader
            });
            self.decided_round = Some(ctx.round());
            // Commit: the proxies and relays on the reply tree keep
            // serving this epoch's records (Fidelity note 5). The
            // winner's own notice commits as the stop mark does, so the
            // winner sends one wave, not two.
            let item = if wins {
                self.winner_heard = Some(self.id);
                FwdItem::Winner { id: self.id }
            } else {
                FwdItem::StopMark
            };
            self.process_forward(ctx, ElectionMsg::fwd(self.id, epoch, item));
        }
        // Otherwise stay active; the next Walk segment doubles the guess.
    }

    // ------------------------------------------------------------------
    // Walk forwarding
    // ------------------------------------------------------------------

    fn handle_walk_tokens(
        &mut self,
        ctx: &mut Context<'_, ElectionMsg>,
        origin: u64,
        epoch: u32,
        remaining: u32,
        count: u32,
        via: Hop,
    ) {
        let step = self.params.walk_len(epoch).saturating_sub(remaining);
        let entry = self.origins.entry(origin);
        let Some(trail) = Trail::enter_epoch(&mut entry.trail, epoch) else {
            self.stats.dropped_tokens += count as u64;
            return;
        };
        trail.record_in(step, via);
        if remaining == 0 {
            trail.ended += count;
            return;
        }
        with_port_counts(ctx.degree(), |counts| {
            let stay = split_lazy(count, ctx.rng(), counts);
            if stay > 0 {
                self.pending_stays
                    .push((origin, epoch, remaining - 1, stay));
                let next = ctx.round() + 1;
                ctx.wake_at(next);
            }
            for (port, &cnt) in counts.iter().enumerate().filter(|&(_, &c)| c > 0) {
                let port = Port::new(port);
                ctx.send(port, ElectionMsg::walk(origin, epoch, remaining - 1, cnt));
            }
        });
    }

    // ------------------------------------------------------------------
    // Reverse routing (proxy → contender)
    // ------------------------------------------------------------------

    fn send_reverse(
        &mut self,
        ctx: &mut Context<'_, ElectionMsg>,
        origin: u64,
        epoch: u32,
        item: RevItem<'_>,
    ) {
        self.route_reverse(ctx, None, ElectionMsg::rev(origin, epoch, item));
    }

    /// Routes a reverse unit one hop: deliver at the origin, relay it
    /// unchanged along the trail if the contender can still use it, or
    /// drop. A unit that arrived over port `from` makes it a reply child
    /// of the trail; a new child is sent the forward items it missed.
    fn route_reverse(
        &mut self,
        ctx: &mut Context<'_, ElectionMsg>,
        from: Option<Port>,
        msg: ElectionMsg,
    ) {
        let MsgView::Rev {
            origin,
            epoch,
            item,
            ..
        } = msg.view()
        else {
            return;
        };
        let Some(entry) = self.origins.get_mut(origin) else {
            self.stats.broken_routes += 1;
            return;
        };
        if let Some(child) = from {
            for missed in entry.adopt_child(epoch, child) {
                ctx.send(child, ElectionMsg::fwd(origin, epoch, missed));
            }
        }
        let route = entry
            .trail
            .as_ref()
            .filter(|t| t.epoch() == epoch)
            .map_or(ReverseRoute::Broken, Trail::reverse_route);
        match route {
            ReverseRoute::AtOrigin => {
                if self.id == origin {
                    self.deliver_to_contender(ctx, epoch, item);
                } else {
                    self.stats.broken_routes += 1;
                }
            }
            ReverseRoute::Forward(port) => {
                if entry.relayed.admit(epoch, &item) {
                    ctx.send(port, msg);
                }
            }
            ReverseRoute::Broken => self.stats.broken_routes += 1,
        }
    }

    fn deliver_to_contender(
        &mut self,
        ctx: &mut Context<'_, ElectionMsg>,
        epoch: u32,
        item: RevItem<'_>,
    ) {
        match item {
            RevItem::ProxyInfo { proxy_id, count } => {
                if let Some(c) = &mut self.contender {
                    if c.active && epoch == self.cur_epoch {
                        c.proxy_counts.insert(proxy_id, count);
                    }
                }
            }
            RevItem::KnownContenders { ids } => {
                if let Some(c) = &mut self.contender {
                    if c.active && epoch == self.cur_epoch {
                        c.i2.extend(ids.iter().copied());
                    }
                }
            }
            RevItem::I3Max { id } => {
                if let Some(c) = &mut self.contender {
                    if c.active && epoch == self.cur_epoch {
                        c.i4_max = c.i4_max.max(Some(id));
                    }
                }
            }
            RevItem::Winner { id } => self.hear_winner_as_contender(ctx, id),
        }
    }

    /// Rule 7: the first time a contender hears of a winner, it forwards
    /// the message to all its proxies (and never elects itself).
    fn hear_winner_as_contender(&mut self, ctx: &mut Context<'_, ElectionMsg>, winner: u64) {
        if self.winner_heard.is_some() {
            return;
        }
        self.winner_heard = Some(winner);
        if self.contender.is_some() {
            if let Some(trail) = self.origins.get(self.id).and_then(|e| e.trail.as_ref()) {
                let epoch = trail.epoch();
                let m = ElectionMsg::fwd(self.id, epoch, FwdItem::Winner { id: winner });
                self.process_forward(ctx, m);
            }
        }
    }

    // ------------------------------------------------------------------
    // Forward routing (contender → proxies)
    // ------------------------------------------------------------------

    fn process_forward(&mut self, ctx: &mut Context<'_, ElectionMsg>, msg: ElectionMsg) {
        let MsgView::Fwd {
            origin,
            epoch,
            item,
        } = msg.view()
        else {
            return;
        };
        // Dedup before the trail lookup: a repeated unit with no trail
        // counts one broken route, not two.
        let entry = self.origins.entry(origin);
        if !entry.first_forward(epoch, item) {
            return;
        }
        let Some(trail) = entry.trail.as_mut().filter(|t| t.epoch() == epoch) else {
            self.stats.broken_routes += 1;
            return;
        };
        let is_proxy = trail.ended > 0;
        for &port in trail.children() {
            ctx.send(port, msg.clone());
        }
        // The winner's own notice commits in place of its stop mark.
        if item == FwdItem::StopMark || item == (FwdItem::Winner { id: origin }) {
            trail.finalize(epoch);
        }
        match item {
            FwdItem::I2Max { id } if is_proxy => {
                self.i3_max = self.i3_max.max(Some(id));
            }
            FwdItem::Winner { id } if is_proxy => {
                self.hear_winner_as_proxy(ctx, id);
            }
            _ => {}
        }
    }

    /// Rule 6: the first time a proxy receives a winner message, it sends
    /// it to all its contenders.
    fn hear_winner_as_proxy(&mut self, ctx: &mut Context<'_, ElectionMsg>, winner: u64) {
        if self.winner_heard.is_none() {
            self.winner_heard = Some(winner);
        }
        if self.winner_relayed_as_proxy {
            return;
        }
        self.winner_relayed_as_proxy = true;
        let targets: Vec<(u64, u32)> = self
            .origins
            .proxies()
            .filter(|(_, t)| t.valid_at(self.cur_epoch))
            .map(|(o, t)| (o, t.epoch()))
            .collect();
        for (origin, epoch) in targets {
            if origin == self.id {
                continue;
            }
            self.send_reverse(ctx, origin, epoch, RevItem::Winner { id: winner });
        }
    }

    fn handle_message(&mut self, ctx: &mut Context<'_, ElectionMsg>, port: Port, msg: ElectionMsg) {
        if let MsgView::Walk {
            origin,
            epoch,
            remaining,
            count,
        } = msg.view()
        {
            self.handle_walk_tokens(ctx, origin, epoch, remaining, count, Hop::Via(port));
            return;
        }
        if msg.is_rev() {
            self.route_reverse(ctx, Some(port), msg);
        } else {
            self.process_forward(ctx, msg);
        }
    }
}

impl Protocol for ElectionNode {
    type Msg = ElectionMsg;

    fn on_start(&mut self, ctx: &mut Context<'_, ElectionMsg>) {
        // Algorithm 1: random id in [1, n⁴]; contender with prob c1·ln n/n.
        self.id = ctx.rng().random_range(1..=self.params.id_max);
        let is_contender = ctx.rng().random_bool(self.params.contender_prob);
        if is_contender {
            self.contender = Some(Box::new(ContenderState::new()));
        } else {
            // Non-contenders declare non-leader immediately (line 4).
            self.decided = Some(Decision::NonLeader);
            self.decided_round = Some(0);
        }
        // Epoch 0 begins now, in both sync modes.
        self.seg_idx = 1;
        self.fire_segment(ctx, 0);
        self.schedule_next_wake(ctx);
    }

    fn on_round(
        &mut self,
        ctx: &mut Context<'_, ElectionMsg>,
        inbox: &mut Vec<(Port, ElectionMsg)>,
    ) {
        // Lazy-step holdovers from last round first; the stays they make
        // go on the end.
        let held = self.pending_stays.len();
        for i in 0..held {
            let (origin, epoch, remaining, count) = self.pending_stays[i];
            self.handle_walk_tokens(ctx, origin, epoch, remaining, count, Hop::Stay);
        }
        self.pending_stays.drain(..held);
        for (port, msg) in inbox.drain(..) {
            self.handle_message(ctx, port, msg);
        }
        if self.pending_stays.is_empty() {
            self.pending_stays = Vec::new();
        }
        self.fire_due_segments(ctx);
        self.schedule_next_wake(ctx);
    }

    fn on_signal(&mut self, ctx: &mut Context<'_, ElectionMsg>, signal: Signal) {
        if signal == SIGNAL_ADVANCE
            && self.params.cfg.sync == SyncMode::Adaptive
            && self.seg_idx < self.params.total_segments()
        {
            let seg = self.seg_idx;
            self.seg_idx += 1;
            self.fire_segment(ctx, seg);
        }
    }

    fn is_done(&self) -> bool {
        self.decided.is_some()
    }

    fn phase_tag(&self) -> Option<u8> {
        Some(self.cur_phase.tag())
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use rand::{rngs::StdRng, SeedableRng};
    use welle_congest::{Engine, EngineConfig, RunOutcome};
    use welle_graph::{analysis, gen, Graph, NodeId};

    use super::*;
    use crate::config::ElectionConfig;

    #[test]
    fn node_is_at_most_three_cache_lines() {
        // Every one of the n nodes carries this inline; contender state
        // and per-origin records live behind pointers.
        assert!(std::mem::size_of::<ElectionNode>() <= 192);
    }

    #[test]
    fn node_construction_defaults() {
        let params = Arc::new(Params::derive(64, ElectionConfig::default()));
        let node = ElectionNode::new(params);
        assert_eq!(node.id(), 0);
        assert!(!node.is_contender());
        assert!(node.decision().is_none());
        assert_eq!(node.stats(), NodeStats::default());
    }

    /// A serial engine running a fault-free Adaptive election on `g`.
    fn adaptive_engine(g: &Arc<Graph>, seed: u64) -> (Engine<ElectionNode>, Arc<Params>) {
        let cfg = ElectionConfig::tuned_for_simulation(g.n());
        let params = Arc::new(Params::derive(g.n(), cfg));
        let engine_cfg = EngineConfig {
            seed,
            bandwidth_bits: params.bandwidth_bits,
        };
        let engine = Engine::from_fn(Arc::clone(g), engine_cfg, |_| {
            ElectionNode::new(Arc::clone(&params))
        });
        (engine, params)
    }

    /// Drives `engine` as the runner drives an Adaptive election: to
    /// quiescence, then an advance signal, until every segment has
    /// fired. `drained` sees the nodes once the traffic of segment `seg`
    /// has drained, before the next segment fires.
    fn drive_adaptive(
        engine: &mut Engine<ElectionNode>,
        params: &Params,
        mut drained: impl FnMut(u64, &[ElectionNode]),
    ) {
        for seg in 0..params.total_segments() {
            if !matches!(engine.run(u64::MAX / 4), RunOutcome::Quiescent { .. }) {
                break;
            }
            drained(seg, engine.nodes());
            engine.signal(SIGNAL_ADVANCE);
        }
    }

    /// The trail `node` holds of `origin`'s walks in `epoch`, if any.
    fn trail_of(node: &ElectionNode, origin: u64, epoch: u32) -> Option<&Trail> {
        let trail = node.origins.get(origin)?.trail.as_ref()?;
        (trail.epoch() == epoch).then_some(trail)
    }

    #[test]
    fn the_winners_notice_commits_its_reply_tree() {
        let mut rng = StdRng::seed_from_u64(3);
        let g = Arc::new(gen::random_regular(64, 4, &mut rng).unwrap());
        let (mut engine, params) = adaptive_engine(&g, 5);
        drive_adaptive(&mut engine, &params, |_, _| {});
        let nodes = engine.nodes();
        let leaders: Vec<&ElectionNode> = nodes
            .iter()
            .filter(|v| v.decision() == Some(Decision::Leader))
            .collect();
        let [leader] = leaders[..] else {
            panic!("{} leaders", leaders.len());
        };
        let epoch = leader.contender_state().unwrap().stopped_epoch.unwrap();
        // The winner sends its notice and no stop mark; the notice alone
        // must commit every node on its reply tree, and only those.
        let mut proxies = 0;
        for v in nodes {
            let Some(trail) = trail_of(v, leader.id(), epoch) else {
                continue;
            };
            let proxy = trail.ended > 0;
            if proxy {
                assert!(
                    trail.is_finalized(),
                    "a proxy of the winner kept a tentative trail"
                );
                proxies += 1;
            }
            let on_tree = v.id() == leader.id() || proxy || !trail.children().is_empty();
            assert_eq!(trail.is_finalized(), on_tree, "node {:x}", v.id());
        }
        assert!(proxies > 0, "no proxy of the winner's final epoch");
    }

    /// Proxy records checked end to end on fault-free Adaptive elections.
    /// Once a walk segment drains, every walk of every active contender
    /// has ended exactly once, within its walk length of the contender.
    /// At the end, every contender's epoch record counts exactly the
    /// proxies and single-walk proxies its walks ended at, so every
    /// proxy's reply reached it, and no node counted a dropped token or
    /// a broken route. FixedT is left out: its walk segment can end on
    /// the clock before its walks do.
    #[test]
    fn proxy_records_account_for_every_walk_and_reply() {
        let mut rng = StdRng::seed_from_u64(1);
        let graphs = [
            gen::random_regular(128, 4, &mut rng).unwrap(),
            gen::hypercube(6).unwrap(),
            gen::torus2d(8, 8).unwrap(),
            gen::clique(24).unwrap(),
        ];
        let mut checked = 0;
        for g in graphs.map(Arc::new) {
            for seed in 1..=5 {
                let (mut engine, params) = adaptive_engine(&g, seed);
                // (contender index, epoch) → (proxies, single-walk proxies).
                let mut walked: BTreeMap<(usize, u32), (usize, usize)> = BTreeMap::new();
                drive_adaptive(&mut engine, &params, |seg, nodes| {
                    if Phase::of_segment(seg) != Phase::Walk {
                        return;
                    }
                    let epoch = (seg / 5) as u32;
                    let len = params.walk_len(epoch);
                    for (u, contender) in nodes.iter().enumerate() {
                        if !contender.contender_state().is_some_and(|c| c.active) {
                            continue;
                        }
                        let dist = analysis::bfs(&g, NodeId::new(u));
                        let (mut ended, mut proxies, mut singles) = (0, 0, 0);
                        for (v, node) in nodes.iter().enumerate() {
                            let Some(trail) =
                                trail_of(node, contender.id(), epoch).filter(|t| t.ended > 0)
                            else {
                                continue;
                            };
                            assert!(
                                dist[v] <= len,
                                "seed {seed}: proxy {v} of {u} is {} hops away, walks {len}",
                                dist[v]
                            );
                            ended += trail.ended;
                            proxies += 1;
                            singles += usize::from(trail.ended == 1);
                        }
                        assert_eq!(
                            ended, params.walks_per_contender,
                            "seed {seed}: walks of {u} in epoch {epoch}"
                        );
                        walked.insert((u, epoch), (proxies, singles));
                    }
                });
                let mut records = 0;
                for (u, node) in engine.nodes().iter().enumerate() {
                    assert_eq!(node.stats(), NodeStats::default(), "seed {seed}: node {u}");
                    let Some(c) = node.contender_state() else {
                        continue;
                    };
                    for r in &c.history {
                        assert_eq!(
                            walked.get(&(u, r.epoch)),
                            Some(&(r.proxy_replies, r.distinct_proxies)),
                            "seed {seed}: replies to {u} in epoch {}",
                            r.epoch
                        );
                        records += 1;
                    }
                }
                assert_eq!(
                    records,
                    walked.len(),
                    "seed {seed}: an epoch left no record"
                );
                checked += records;
            }
        }
        assert!(checked > 1_000, "{checked} contender-epochs checked");
    }

    // Full protocol behaviour is exercised through the runner tests in
    // `runner.rs` and the integration tests at the workspace root.
}
