//! Per-directed-edge FIFO queues implementing the CONGEST discipline:
//! at most one message crosses each directed edge per round.
//!
//! The storage is a single flat arena shared by every directed edge
//! rather than one `VecDeque` per edge: each queue is an intrusive
//! linked list of pool slots (`head`/`tail` indexed by
//! [`welle_graph::Graph::directed_index`], `next` links inside the
//! pool, freed slots recycled through a free list). This keeps the
//! common case — a burst of `k ≤ 1` messages per edge per round —
//! allocation-free after warm-up and cache-friendly at `n ≥ 10⁵`,
//! where two million per-edge `VecDeque`s would each heap-allocate on
//! first use.
//!
//! Two layout decisions keep the arena at `n = 10⁶` scale:
//!
//! * **Struct-of-arrays pool.** Messages and their intrusive `next`
//!   links live in parallel `Vec<M>` / `Vec<u32>` arrays; a free slot
//!   holds `M::default()` instead of an `Option` discriminant, so a
//!   slot costs exactly `size_of::<M>() + 4` bytes and the transmit
//!   scan walks densely packed data. (This is why [`Payload`] requires
//!   `Default`.)
//! * **One pass per round, no batch.** [`EdgeQueues::pop_heads`] hands
//!   each backed-up edge's head straight to the caller's crossing as it
//!   pops it, with its pool slot already freed: a round with two
//!   million active edges materializes nothing, and popped slots
//!   recycle within the round.
//!
//! [`Payload`]: crate::message::Payload

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

/// Sentinel for "no slot" in the intrusive lists.
const NIL: u32 = u32::MAX;

/// A struct-of-arrays batch of `(directed_index, message)` pairs: the
/// engines' transmission currency. Splitting the `u32` indices from the
/// messages avoids the padding of a `(u32, M)` tuple (8 bytes per entry
/// for a 32-byte message) and keeps the index scan dense.
#[derive(Debug, Default)]
pub(crate) struct DirBatch<M> {
    dirs: Vec<u32>,
    msgs: Vec<M>,
}

impl<M> DirBatch<M> {
    pub(crate) fn new() -> Self {
        DirBatch {
            dirs: Vec::new(),
            msgs: Vec::new(),
        }
    }

    /// Appends one `(directed_index, message)` entry.
    #[inline]
    pub(crate) fn push(&mut self, dir: u32, msg: M) {
        self.dirs.push(dir);
        self.msgs.push(msg);
    }

    pub(crate) fn len(&self) -> usize {
        debug_assert_eq!(self.dirs.len(), self.msgs.len());
        self.dirs.len()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.dirs.is_empty()
    }

    /// The directed indices of the entries from `start` on.
    pub(crate) fn dirs_from(&self, start: usize) -> &[u32] {
        &self.dirs[start..]
    }

    /// Entries the batch can hold without re-allocating (arena budget
    /// accounting; see [`crate::Engine::arena_capacity`]).
    pub(crate) fn capacity(&self) -> usize {
        self.dirs.capacity()
    }

    pub(crate) fn clear(&mut self) {
        self.dirs.clear();
        self.msgs.clear();
    }

    /// Drains the batch front to back, preserving push order.
    pub(crate) fn drain(&mut self) -> impl Iterator<Item = (u32, M)> + '_ {
        self.dirs.drain(..).zip(self.msgs.drain(..))
    }

    /// Empties the batch for reuse on a graph of `directed_edges`,
    /// dropping its backing arrays instead when they are oversized for
    /// that graph, by the rule [`EdgeQueues::shrink_for`] applies.
    pub(crate) fn recycle(&mut self, directed_edges: usize) {
        if self.capacity() > shrink_limit(directed_edges) {
            *self = DirBatch::new();
        } else {
            self.clear();
        }
    }
}

/// Message queues keyed by directed edge index (`Graph::directed_index`).
///
/// All operations are keyed by the directed index directly; callers
/// resolve `(node, port)` to an index once per send, and
/// [`EdgeQueues::pop_heads`] hands indices back so delivery never
/// recomputes them.
#[derive(Debug)]
pub(crate) struct EdgeQueues<M> {
    /// Head slot of each directed edge's queue (`NIL` when empty).
    head: Vec<u32>,
    /// Tail slot of each directed edge's queue (`NIL` when empty).
    tail: Vec<u32>,
    /// Arena of messages (struct-of-arrays with `next`); free slots hold
    /// `M::default()` and are threaded through the free list.
    pool: Vec<M>,
    /// `next[slot]` links queue slots; also threads the free list.
    next: Vec<u32>,
    /// Head of the free list inside `pool`.
    free: u32,
    /// Directed edges with at least one queued message, by index.
    active: Vec<u32>,
    total_queued: u64,
    /// Queue length per directed edge. Shared, so that a run on several
    /// threads can hand it to the protocol phase (see
    /// [`EdgeQueues::backlog`]); only the transmission phase writes it,
    /// while no callback runs, so relaxed loads and stores suffice.
    backlog: Arc<[AtomicU32]>,
}

impl<M: Default> EdgeQueues<M> {
    pub(crate) fn new(directed_edges: usize) -> Self {
        EdgeQueues {
            head: vec![NIL; directed_edges],
            tail: vec![NIL; directed_edges],
            pool: Vec::new(),
            next: Vec::new(),
            free: NIL,
            active: Vec::new(),
            total_queued: 0,
            backlog: zeroed(directed_edges),
        }
    }

    /// Queues a message on the directed edge with index `dir`, returning
    /// the edge's queue length after the push (for backlog metrics).
    pub(crate) fn push_dir(&mut self, dir: usize, msg: M) -> u64 {
        let slot = if self.free != NIL {
            let s = self.free;
            self.free = self.next[s as usize];
            self.pool[s as usize] = msg;
            s
        } else {
            let s = crate::idx32(self.pool.len());
            self.pool.push(msg);
            self.next.push(NIL);
            s
        };
        self.next[slot as usize] = NIL;
        if self.tail[dir] == NIL {
            self.head[dir] = slot;
            self.active.push(crate::idx32(dir));
        } else {
            self.next[self.tail[dir] as usize] = slot;
        }
        self.tail[dir] = slot;
        debug_assert!(
            self.total_queued < u64::MAX,
            "in-flight message counter at capacity"
        );
        self.total_queued += 1;
        let backlog = &self.backlog[dir];
        let len = backlog.load(Ordering::Relaxed);
        debug_assert!(len < u32::MAX, "per-edge backlog counter at capacity");
        backlog.store(len + 1, Ordering::Relaxed);
        u64::from(len + 1)
    }

    /// Number of messages currently queued across all edges.
    pub(crate) fn in_flight(&self) -> u64 {
        self.total_queued
    }

    /// Messages queued on each directed edge, by index: what a sender
    /// still has in its output buffer (see
    /// [`Context::queued`](crate::Context::queued)). A handle, so a run on
    /// several threads can share it with its workers.
    pub(crate) fn backlog(&self) -> &Arc<[AtomicU32]> {
        &self.backlog
    }

    /// Restores the empty state for a (possibly different) edge set while
    /// keeping the slot arena: every pool slot is cleared and rethreaded
    /// onto the free list, so a reset-and-reused queue set never
    /// re-allocates for traffic the previous run already paid for.
    /// (Oversized arenas are released first — see
    /// [`EdgeQueues::shrink_for`].)
    pub(crate) fn reset(&mut self, directed_edges: usize) {
        self.shrink_for(directed_edges);
        self.head.clear();
        self.head.resize(directed_edges, NIL);
        self.tail.clear();
        self.tail.resize(directed_edges, NIL);
        self.free = NIL;
        for i in (0..self.pool.len()).rev() {
            self.pool[i] = M::default();
            self.next[i] = self.free;
            self.free = crate::idx32(i);
        }
        self.active.clear();
        self.total_queued = 0;
        if self.backlog.len() == directed_edges {
            for b in self.backlog.iter() {
                b.store(0, Ordering::Relaxed);
            }
        } else {
            self.backlog = zeroed(directed_edges);
        }
    }

    /// Releases the slot arena when it is oversized for the target edge
    /// set: a pool grown by an `n = 10⁶` run would otherwise pin its
    /// memory for the lifetime of a pooled engine that has moved on to
    /// `n = 10³` scenarios. "Oversized" means past the high-water ratio
    /// [`SHRINK_RATIO`]`× directed_edges` (with the [`SHRINK_FLOOR`]
    /// keeping small-graph churn tests allocation-stable); anything
    /// under that is kept, so same-scale reuse stays warm.
    fn shrink_for(&mut self, directed_edges: usize) {
        if self.pool.capacity() > shrink_limit(directed_edges) {
            self.pool = Vec::new();
            self.next = Vec::new();
            self.active = Vec::new();
        }
    }

    /// Slots the message arena can hold without re-allocating
    /// (diagnostic: pooling tests assert a reset keeps this).
    pub(crate) fn arena_capacity(&self) -> usize {
        self.pool.capacity()
    }

    /// High-water mark of simultaneously queued messages: the arena only
    /// grows a slot when the free list is empty and never shrinks
    /// mid-run, so its length *is* the peak occupancy since the last
    /// reset.
    pub(crate) fn peak_slots(&self) -> usize {
        self.pool.len()
    }

    /// One round's pass over the backlog: pops the head of every active
    /// directed edge, in active-list order, and hands it to
    /// `f(directed_index, msg)` as it goes. The head's slot is back on
    /// the free list before `f` sees its message, and an edge still
    /// backed up keeps its place in the active list for the next round.
    pub(crate) fn pop_heads(&mut self, mut f: impl FnMut(u32, M)) {
        let mut kept = 0;
        for scan in 0..self.active.len() {
            let dir = self.active[scan];
            let d = dir as usize;
            let slot = self.head[d];
            debug_assert!(slot != NIL, "active directed edge has a queued message");
            let msg = std::mem::take(&mut self.pool[slot as usize]);
            self.head[d] = self.next[slot as usize];
            if self.head[d] == NIL {
                self.tail[d] = NIL;
            } else {
                // Still backed up: stays in the active list.
                self.active[kept] = dir;
                kept += 1;
            }
            self.next[slot as usize] = self.free;
            self.free = slot;
            self.total_queued -= 1;
            let backlog = &self.backlog[d];
            backlog.store(backlog.load(Ordering::Relaxed) - 1, Ordering::Relaxed);
            f(dir, msg);
        }
        self.active.truncate(kept);
    }
}

/// A backlog of `directed_edges` empty queues.
fn zeroed(directed_edges: usize) -> Arc<[AtomicU32]> {
    (0..directed_edges).map(|_| AtomicU32::new(0)).collect()
}

/// Reset keeps an arena only while its capacity is at most this many
/// times the target graph's directed-edge count (see
/// [`EdgeQueues::shrink_for`]).
const SHRINK_RATIO: usize = 8;

/// Arenas below this slot count are never shrunk: releasing kilobytes
/// buys nothing and would defeat the warm-reuse guarantee on small
/// graphs.
const SHRINK_FLOOR: usize = 1 << 13;

/// The capacity past which a reset for `directed_edges` releases a
/// buffer rather than keep it.
fn shrink_limit(directed_edges: usize) -> usize {
    SHRINK_RATIO
        .saturating_mul(directed_edges)
        .max(SHRINK_FLOOR)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;
    use welle_graph::{gen, NodeId, Port};

    /// One round's pass over the backlog, collected in pop order.
    fn pass(q: &mut EdgeQueues<u64>) -> Vec<(u32, u64)> {
        let mut out = Vec::new();
        q.pop_heads(|dir, msg| out.push((dir, msg)));
        out
    }

    #[test]
    fn fifo_one_per_round() {
        let g = gen::path(2).unwrap();
        let mut q: EdgeQueues<u64> = EdgeQueues::new(g.directed_edge_count());
        let dir = g.directed_index(NodeId::new(0), Port::new(0));
        assert_eq!(q.push_dir(dir, 1), 1);
        assert_eq!(q.push_dir(dir, 2), 2);
        assert_eq!(q.push_dir(dir, 3), 3);
        assert_eq!(q.in_flight(), 3);

        assert_eq!(pass(&mut q), vec![(dir as u32, 1)]);
        let mut msgs: Vec<u64> = pass(&mut q).iter().map(|&(_, m)| m).collect();
        msgs.extend(pass(&mut q).iter().map(|&(_, m)| m));
        assert_eq!(msgs, vec![2, 3]);
        assert_eq!(q.in_flight(), 0);

        // An idle pass is a no-op.
        assert!(pass(&mut q).is_empty());
    }

    #[test]
    fn parallel_edges_transmit_in_the_same_round() {
        let g = gen::star(4).unwrap();
        let mut q: EdgeQueues<u64> = EdgeQueues::new(g.directed_edge_count());
        let hub = NodeId::new(0);
        for port in 0..3 {
            q.push_dir(g.directed_index(hub, Port::new(port)), port as u64);
        }
        let mut msgs: Vec<u64> = pass(&mut q).iter().map(|&(_, m)| m).collect();
        msgs.sort_unstable();
        assert_eq!(msgs, vec![0, 1, 2]);
    }

    #[test]
    fn directions_are_independent() {
        let g = gen::path(2).unwrap();
        let mut q: EdgeQueues<u64> = EdgeQueues::new(g.directed_edge_count());
        q.push_dir(g.directed_index(NodeId::new(0), Port::new(0)), 10);
        q.push_dir(g.directed_index(NodeId::new(1), Port::new(0)), 20);
        let mut got: Vec<(usize, u64)> = pass(&mut q)
            .iter()
            .map(|&(dir, m)| (g.directed_source(dir as usize).0.index(), m))
            .collect();
        got.sort_unstable();
        assert_eq!(got, vec![(0, 10), (1, 20)]);
    }

    #[test]
    fn arena_recycles_slots() {
        let g = gen::path(2).unwrap();
        let mut q: EdgeQueues<u64> = EdgeQueues::new(g.directed_edge_count());
        let dir = g.directed_index(NodeId::new(0), Port::new(0));
        let mut total = 0usize;
        for round in 0..100u64 {
            q.push_dir(dir, round);
            total += pass(&mut q).len();
        }
        assert_eq!(total, 100);
        // Steady-state traffic of one in-flight message reuses one slot.
        assert_eq!(q.pool.len(), 1);
    }

    /// A naive model of the queues that shares no code with the arena:
    /// one `VecDeque` per directed edge, and the busy edges in the order
    /// they became busy.
    struct Model {
        fifo: Vec<VecDeque<u64>>,
        busy: Vec<usize>,
    }

    impl Model {
        fn push(&mut self, dir: usize, msg: u64) -> u64 {
            if self.fifo[dir].is_empty() {
                self.busy.push(dir);
            }
            self.fifo[dir].push_back(msg);
            self.fifo[dir].len() as u64
        }

        /// Pops every busy edge's head in order. An edge that empties
        /// leaves the order, and rejoins at the back when it refills.
        fn pass(&mut self) -> Vec<(u32, u64)> {
            let mut heads = Vec::new();
            for &dir in &self.busy {
                heads.push((dir as u32, self.fifo[dir].pop_front().unwrap()));
            }
            let fifo = &self.fifo;
            self.busy.retain(|&dir| !fifo[dir].is_empty());
            heads
        }

        fn queued(&self) -> u64 {
            self.fifo.iter().map(|f| f.len() as u64).sum()
        }
    }

    /// Slots on the free list, walked link by link.
    fn free_slots(q: &EdgeQueues<u64>) -> u64 {
        let (mut slot, mut count) = (q.free, 0u64);
        while slot != NIL {
            count += 1;
            assert!(count <= q.pool.len() as u64, "the free list loops");
            slot = q.next[slot as usize];
        }
        count
    }

    #[test]
    fn passes_match_a_deque_per_edge_model() {
        let g = gen::clique(6).unwrap();
        let edges = g.directed_edge_count();
        let mut q: EdgeQueues<u64> = EdgeQueues::new(edges);
        let mut model = Model {
            fifo: vec![VecDeque::new(); edges],
            busy: Vec::new(),
        };
        // Mixed depths: some edges idle, some backed up.
        for dir in 0..edges {
            for copy in 0..(dir % 4) {
                let msg = (dir * 10 + copy) as u64;
                assert_eq!(q.push_dir(dir, msg), model.push(dir, msg));
            }
        }
        for round in 0..8u64 {
            assert_eq!(pass(&mut q), model.pass(), "round {round}");
            assert_eq!(q.in_flight(), model.queued(), "round {round}");
            // Every slot is queued or free: none leaks.
            let slots = free_slots(&q) + q.in_flight();
            assert_eq!(slots, q.pool.len() as u64, "round {round}");
            // A send between passes: an idle edge rejoins at the back.
            let dir = (round as usize * 7) % edges;
            let msg = 1_000 + round;
            assert_eq!(q.push_dir(dir, msg), model.push(dir, msg));
        }
        loop {
            let want = model.pass();
            assert_eq!(pass(&mut q), want);
            assert_eq!(free_slots(&q) + q.in_flight(), q.pool.len() as u64);
            if want.is_empty() {
                break;
            }
        }
        assert_eq!(q.in_flight(), 0);
    }

    #[test]
    fn reset_shrinks_oversized_arenas_only() {
        let g = gen::path(2).unwrap();
        let mut q: EdgeQueues<u64> = EdgeQueues::new(g.directed_edge_count());
        let dir = g.directed_index(NodeId::new(0), Port::new(0));
        // Small growth stays under the floor: reset keeps the arena.
        for i in 0..64 {
            q.push_dir(dir, i);
        }
        let small = q.arena_capacity();
        q.reset(g.directed_edge_count());
        assert_eq!(q.arena_capacity(), small, "under the floor: kept");
        // Blow past the floor and the ratio for this tiny graph: the
        // arena is released on reset.
        for i in 0..(SHRINK_FLOOR as u64 + 1) {
            q.push_dir(dir, i);
        }
        assert!(q.arena_capacity() > SHRINK_FLOOR);
        q.reset(g.directed_edge_count());
        assert_eq!(q.arena_capacity(), 0, "oversized arena released");
        // And the queue still works after the release.
        q.push_dir(dir, 7);
        assert_eq!(pass(&mut q), vec![(dir as u32, 7)]);
    }
}
