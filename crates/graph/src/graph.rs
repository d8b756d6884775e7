//! The CSR port-numbered undirected graph.

use rand::seq::SliceRandom;
use rand::Rng;

use crate::types::{EdgeId, NodeId, Port};

/// An immutable, compressed-sparse-row undirected graph with port numbering.
///
/// This is the network of the paper's model (§1): `n` anonymous nodes, `m`
/// undirected edges, each node owning ports `0..deg(u)`. Port mappings are
/// **asymmetric**: if `u` reaches `v` via port `i`, `v` generally reaches
/// `u` via a different port `j`; [`Graph::reverse_port`] resolves `j` so the
/// simulator can deliver replies without protocols ever learning ids.
///
/// ```
/// use welle_graph::{gen, NodeId, Port};
/// let g = gen::ring(5).unwrap();
/// let u = NodeId::new(0);
/// let p = Port::new(0);
/// let v = g.neighbor(u, p);
/// let q = g.reverse_port(u, p);
/// assert_eq!(g.neighbor(v, q), u); // round-trip through the edge
/// ```
#[derive(Clone, Debug)]
pub struct Graph {
    /// CSR offsets: `offsets[u]..offsets[u + 1]` indexes `u`'s adjacency.
    /// Stored as `u32` — construction asserts `2m ≤ u32::MAX`, so the
    /// offset table is half the size of a `usize` layout and an
    /// `n = 10⁷` sparse graph's CSR fits comfortably in memory.
    offsets: Vec<u32>,
    /// Flattened neighbour lists; `neighbors[offsets[u] + p]` is the node
    /// behind `u`'s port `p`.
    neighbors: Vec<NodeId>,
    /// `rev_ports[offsets[u] + p]` is the port on the *neighbour's* side of
    /// the same edge.
    rev_ports: Vec<Port>,
    /// Undirected edge id of the edge behind each slot.
    edge_ids: Vec<EdgeId>,
    /// Owner of each slot: `srcs[offsets[u] + p] == u`. The only derived
    /// column the struct-of-arrays layout keeps: it resolves a
    /// [`Graph::directed_index`] back to its source node in `O(1)`, and
    /// the source port falls out as `dir - offsets[src]`. Together with
    /// the three columns above this replaces the former 20-byte packed
    /// per-directed-edge record cache at 4 bytes per directed edge, and
    /// it survives port shuffles unchanged (shuffles permute slots only
    /// within each node's own range).
    srcs: Vec<NodeId>,
    /// Endpoints of each undirected edge (canonical order: smaller first).
    endpoints: Vec<(NodeId, NodeId)>,
}

/// Everything a simulator needs about one directed edge, assembled from
/// the graph's struct-of-arrays columns by [`Graph::directed_info`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DirInfo {
    /// Source node (the sender).
    pub src: NodeId,
    /// Port on the source side.
    pub src_port: Port,
    /// Target node (the receiver).
    pub dst: NodeId,
    /// Arrival port on the target side.
    pub dst_port: Port,
    /// Undirected edge id behind this directed edge.
    pub edge: EdgeId,
}

impl Graph {
    /// Builds from edges that were already validated by
    /// [`crate::GraphBuilder`] (in-range, no loops, no duplicates).
    pub(crate) fn from_validated_edges(n: usize, edges: Vec<(u32, u32)>) -> Self {
        let m = edges.len();
        assert!(
            n <= u32::MAX as usize,
            "graph has {n} nodes; node indices must fit the u32 CSR index space"
        );
        assert!(
            m.checked_mul(2).is_some_and(|t| t <= u32::MAX as usize),
            "graph has {m} edges; the directed-edge count 2m must fit the u32 CSR index space"
        );
        let mut degree = vec![0u32; n];
        for &(u, v) in &edges {
            degree[u as usize] += 1;
            degree[v as usize] += 1;
        }
        let mut offsets = Vec::with_capacity(n + 1);
        let mut acc = 0u32;
        offsets.push(0u32);
        for &d in &degree {
            acc += d; // cannot overflow: 2m ≤ u32::MAX asserted above
            offsets.push(acc);
        }
        let total = acc as usize;
        let mut neighbors = vec![NodeId::default(); total];
        let mut rev_ports = vec![Port::default(); total];
        let mut edge_ids = vec![EdgeId::default(); total];
        let mut srcs = vec![NodeId::default(); total];
        let mut endpoints = Vec::with_capacity(m);
        let mut cursor: Vec<u32> = offsets[..n].to_vec();

        for (idx, &(u, v)) in edges.iter().enumerate() {
            let eid = EdgeId::new(idx);
            let su = cursor[u as usize] as usize;
            let sv = cursor[v as usize] as usize;
            cursor[u as usize] += 1;
            cursor[v as usize] += 1;
            neighbors[su] = NodeId::from(v);
            neighbors[sv] = NodeId::from(u);
            edge_ids[su] = eid;
            edge_ids[sv] = eid;
            rev_ports[su] = Port::new(sv - offsets[v as usize] as usize);
            rev_ports[sv] = Port::new(su - offsets[u as usize] as usize);
            srcs[su] = NodeId::from(u);
            srcs[sv] = NodeId::from(v);
            let (a, b) = if u <= v { (u, v) } else { (v, u) };
            endpoints.push((NodeId::from(a), NodeId::from(b)));
        }

        Graph {
            offsets,
            neighbors,
            rev_ports,
            edge_ids,
            srcs,
            endpoints,
        }
    }

    /// CSR offset of node `u` as a slice index.
    #[inline]
    fn off(&self, u: usize) -> usize {
        self.offsets[u] as usize
    }

    /// Number of nodes.
    #[inline]
    pub fn n(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges.
    #[inline]
    pub fn m(&self) -> usize {
        self.endpoints.len()
    }

    /// Degree of node `u` (also the number of its ports).
    #[inline]
    pub fn degree(&self, u: NodeId) -> usize {
        self.off(u.index() + 1) - self.off(u.index())
    }

    /// Total volume `Σ_v deg(v) = 2m` (§2's `Vol(V)`).
    #[inline]
    pub fn volume(&self) -> usize {
        2 * self.m()
    }

    /// The node behind `u`'s port `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p >= deg(u)`.
    #[inline]
    pub fn neighbor(&self, u: NodeId, p: Port) -> NodeId {
        let slot = self.slot(u, p);
        self.neighbors[slot]
    }

    /// The port on the far side of the edge behind `u`'s port `p`
    /// (i.e. the `j` such that `neighbor(v, j) == u`).
    ///
    /// # Panics
    ///
    /// Panics if `p >= deg(u)`.
    #[inline]
    pub fn reverse_port(&self, u: NodeId, p: Port) -> Port {
        let slot = self.slot(u, p);
        self.rev_ports[slot]
    }

    /// Undirected edge id of the edge behind `u`'s port `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p >= deg(u)`.
    #[inline]
    pub fn edge_id(&self, u: NodeId, p: Port) -> EdgeId {
        let slot = self.slot(u, p);
        self.edge_ids[slot]
    }

    /// Endpoints of an undirected edge, smaller node first.
    ///
    /// # Panics
    ///
    /// Panics if `e >= m`.
    #[inline]
    pub fn endpoints(&self, e: EdgeId) -> (NodeId, NodeId) {
        self.endpoints[e.index()]
    }

    /// Slice of `u`'s neighbours in port order.
    #[inline]
    pub fn neighbors(&self, u: NodeId) -> &[NodeId] {
        &self.neighbors[self.off(u.index())..self.off(u.index() + 1)]
    }

    /// Iterator over all node ids `0..n`.
    pub fn nodes(&self) -> NeighborIter {
        NeighborIter {
            next: 0,
            end: self.n(),
        }
    }

    /// Iterator over `u`'s ports `0..deg(u)`.
    pub fn ports(&self, u: NodeId) -> PortIter {
        PortIter {
            next: 0,
            end: self.degree(u),
        }
    }

    /// Iterator over all undirected edges as `(EdgeId, u, v)`.
    pub fn edges(&self) -> impl Iterator<Item = (EdgeId, NodeId, NodeId)> + '_ {
        self.endpoints
            .iter()
            .enumerate()
            .map(|(i, &(u, v))| (EdgeId::new(i), u, v))
    }

    /// Returns `true` if the undirected edge `(u, v)` exists.
    ///
    /// Linear in `min(deg(u), deg(v))`.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        let (a, b) = if self.degree(u) <= self.degree(v) {
            (u, v)
        } else {
            (v, u)
        };
        self.neighbors(a).contains(&b)
    }

    /// Degree statistics over all nodes.
    pub fn degree_stats(&self) -> DegreeStats {
        let mut min = usize::MAX;
        let mut max = 0usize;
        let mut sum = 0usize;
        for u in self.nodes() {
            let d = self.degree(u);
            min = min.min(d);
            max = max.max(d);
            sum += d;
        }
        DegreeStats {
            min,
            max,
            mean: sum as f64 / self.n() as f64,
        }
    }

    /// Returns `true` if every node has degree exactly `d`.
    pub fn is_regular(&self, d: usize) -> bool {
        self.nodes().all(|u| self.degree(u) == d)
    }

    /// Dense index of the *directed* edge `(u, port p)` in `0..2m`.
    ///
    /// Each undirected edge contributes two directed indices (one per
    /// direction); simulators use this to key per-direction message queues.
    ///
    /// # Panics
    ///
    /// Panics if `p >= deg(u)`.
    #[inline]
    pub fn directed_index(&self, u: NodeId, p: Port) -> usize {
        self.slot(u, p)
    }

    /// Number of directed edges (`2m`), the exclusive upper bound of
    /// [`Graph::directed_index`].
    #[inline]
    pub fn directed_edge_count(&self) -> usize {
        self.neighbors.len()
    }

    /// Source `(node, port)` of the directed edge with index `dir` —
    /// the inverse of [`Graph::directed_index`], in `O(1)`: the owner
    /// comes from the `srcs` column and the port from the slot's offset
    /// within the owner's contiguous range.
    ///
    /// # Panics
    ///
    /// Panics if `dir >= directed_edge_count()`.
    #[inline]
    pub fn directed_source(&self, dir: usize) -> (NodeId, Port) {
        let src = self.srcs[dir];
        (src, Port::new(dir - self.off(src.index())))
    }

    /// Target `(node, arrival port)` of the directed edge with index
    /// `dir`: the node that receives a message sent along `dir`, and the
    /// port on which it arrives.
    ///
    /// # Panics
    ///
    /// Panics if `dir >= directed_edge_count()`.
    #[inline]
    pub fn directed_target(&self, dir: usize) -> (NodeId, Port) {
        (self.neighbors[dir], self.rev_ports[dir])
    }

    /// Undirected edge id behind the directed edge with index `dir`.
    ///
    /// # Panics
    ///
    /// Panics if `dir >= directed_edge_count()`.
    #[inline]
    pub fn directed_edge_id(&self, dir: usize) -> EdgeId {
        self.edge_ids[dir]
    }

    /// The full record of the directed edge with index `dir`: source
    /// and target `(node, port)` plus the undirected edge id. This is
    /// the simulator's per-message delivery primitive, assembled on the
    /// fly from the struct-of-arrays columns — each column is an
    /// independent 4-byte array, so hot paths that only need some of
    /// the fields (say the target) pull only those columns into cache.
    ///
    /// # Panics
    ///
    /// Panics if `dir >= directed_edge_count()`.
    #[inline]
    pub fn directed_info(&self, dir: usize) -> DirInfo {
        let src = self.srcs[dir];
        DirInfo {
            src,
            src_port: Port::new(dir - self.off(src.index())),
            dst: self.neighbors[dir],
            dst_port: self.rev_ports[dir],
            edge: self.edge_ids[dir],
        }
    }

    /// First directed index of node `u` (its port-0 slot); `u`'s ports
    /// occupy `directed_base(u)..directed_base(u) + degree(u)`
    /// contiguously, so `directed_index(u, p) == directed_base(u) + p`.
    /// Hot paths that send through many ports of one node use this to
    /// compute the directed index once per node instead of once per send.
    #[inline]
    pub fn directed_base(&self, u: NodeId) -> usize {
        self.off(u.index())
    }

    /// Permutes every node's port numbering uniformly at random.
    ///
    /// The lower-bound arguments (Lemma 18) require inter-clique ports to be
    /// indistinguishable from intra-clique ones; generators call this after
    /// structured construction so port numbers carry no information.
    pub fn shuffle_ports<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        // new_slot_of[old slot] -> new slot (global): each node's range of
        // the identity map, shuffled in place.
        let mut new_slot_of: Vec<usize> = (0..self.neighbors.len()).collect();
        for u in 0..self.n() {
            new_slot_of[self.off(u)..self.off(u + 1)].shuffle(rng);
        }
        let old_neighbors = self.neighbors.clone();
        let old_edge_ids = self.edge_ids.clone();
        let old_rev_ports = self.rev_ports.clone();
        for (old_slot, &new_slot) in new_slot_of.iter().enumerate() {
            // The far end's slot of the same edge moved within the
            // neighbour's own range; shuffling permutes slots only within
            // each node's range, so the `srcs` column needs no rebuild.
            let v = old_neighbors[old_slot];
            let v_base = self.off(v.index());
            let far = new_slot_of[v_base + old_rev_ports[old_slot].index()];
            self.neighbors[new_slot] = v;
            self.edge_ids[new_slot] = old_edge_ids[old_slot];
            self.rev_ports[new_slot] = Port::new(far - v_base);
        }
    }

    #[inline]
    fn slot(&self, u: NodeId, p: Port) -> usize {
        let d = self.degree(u);
        assert!(
            p.index() < d,
            "port {p} out of range for node {u} with degree {d}"
        );
        self.off(u.index()) + p.index()
    }
}

/// Min/max/mean node degree, from [`Graph::degree_stats`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DegreeStats {
    /// Minimum degree.
    pub min: usize,
    /// Maximum degree.
    pub max: usize,
    /// Mean degree (`2m / n`).
    pub mean: f64,
}

/// Iterator over node ids, returned by [`Graph::nodes`].
#[derive(Clone, Debug)]
pub struct NeighborIter {
    next: usize,
    end: usize,
}

impl Iterator for NeighborIter {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        if self.next < self.end {
            let id = NodeId::new(self.next);
            self.next += 1;
            Some(id)
        } else {
            None
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.end - self.next;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for NeighborIter {}

/// Iterator over a node's ports, returned by [`Graph::ports`].
#[derive(Clone, Debug)]
pub struct PortIter {
    next: usize,
    end: usize,
}

impl Iterator for PortIter {
    type Item = Port;

    fn next(&mut self) -> Option<Port> {
        if self.next < self.end {
            let p = Port::new(self.next);
            self.next += 1;
            Some(p)
        } else {
            None
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.end - self.next;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for PortIter {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::from_edges;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn square() -> Graph {
        from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap()
    }

    #[test]
    fn csr_basic_shape() {
        let g = square();
        assert_eq!(g.n(), 4);
        assert_eq!(g.m(), 4);
        assert_eq!(g.volume(), 8);
        for u in g.nodes() {
            assert_eq!(g.degree(u), 2);
        }
        assert!(g.is_regular(2));
        assert!(!g.is_regular(3));
    }

    #[test]
    fn reverse_ports_round_trip() {
        let g = square();
        for u in g.nodes() {
            for p in g.ports(u) {
                let v = g.neighbor(u, p);
                let q = g.reverse_port(u, p);
                assert_eq!(g.neighbor(v, q), u, "rev port leads back");
                assert_eq!(g.reverse_port(v, q), p, "rev of rev is identity");
                assert_eq!(g.edge_id(u, p), g.edge_id(v, q), "same edge id both sides");
            }
        }
    }

    #[test]
    fn endpoints_match_slots() {
        let g = square();
        for (e, u, v) in g.edges() {
            assert!(u <= v);
            assert!(g.has_edge(u, v));
            assert_eq!(g.endpoints(e), (u, v));
        }
        assert!(!g.has_edge(NodeId::new(0), NodeId::new(2)));
    }

    #[test]
    fn shuffle_ports_preserves_structure() {
        let mut g = from_edges(
            6,
            &[
                (0, 1),
                (0, 2),
                (0, 3),
                (1, 2),
                (2, 3),
                (3, 4),
                (4, 5),
                (5, 0),
            ],
        )
        .unwrap();
        let degrees: Vec<usize> = g.nodes().map(|u| g.degree(u)).collect();
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..5 {
            g.shuffle_ports(&mut rng);
            let new_degrees: Vec<usize> = g.nodes().map(|u| g.degree(u)).collect();
            assert_eq!(degrees, new_degrees);
            // Adjacency as a set is unchanged; reverse ports still valid.
            for u in g.nodes() {
                for p in g.ports(u) {
                    let v = g.neighbor(u, p);
                    let q = g.reverse_port(u, p);
                    assert_eq!(g.neighbor(v, q), u);
                    assert_eq!(g.edge_id(u, p), g.edge_id(v, q));
                }
            }
        }
    }

    #[test]
    fn shuffle_actually_permutes_eventually() {
        // With 8 ports on node 0, at least one shuffle changes the order.
        let mut g = from_edges(
            9,
            &[
                (0, 1),
                (0, 2),
                (0, 3),
                (0, 4),
                (0, 5),
                (0, 6),
                (0, 7),
                (0, 8),
            ],
        )
        .unwrap();
        let before: Vec<NodeId> = g.neighbors(NodeId::new(0)).to_vec();
        let mut rng = StdRng::seed_from_u64(1);
        let mut changed = false;
        for _ in 0..10 {
            g.shuffle_ports(&mut rng);
            if g.neighbors(NodeId::new(0)) != before.as_slice() {
                changed = true;
                break;
            }
        }
        assert!(changed, "shuffling should change port order w.h.p.");
    }

    #[test]
    fn degree_stats() {
        let g = from_edges(4, &[(0, 1), (0, 2), (0, 3)]).unwrap();
        let s = g.degree_stats();
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 3);
        assert!((s.mean - 1.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "port")]
    fn bad_port_panics() {
        let g = square();
        let _ = g.neighbor(NodeId::new(0), Port::new(2));
    }

    #[test]
    fn directed_accessors_invert_directed_index() {
        let mut g = from_edges(
            6,
            &[
                (0, 1),
                (0, 2),
                (0, 3),
                (1, 2),
                (2, 3),
                (3, 4),
                (4, 5),
                (5, 0),
            ],
        )
        .unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..3 {
            for u in g.nodes() {
                for p in g.ports(u) {
                    let dir = g.directed_index(u, p);
                    assert_eq!(dir, g.directed_base(u) + p.index());
                    assert_eq!(g.directed_source(dir), (u, p));
                    assert_eq!(
                        g.directed_target(dir),
                        (g.neighbor(u, p), g.reverse_port(u, p))
                    );
                    assert_eq!(g.directed_edge_id(dir), g.edge_id(u, p));
                    let info = g.directed_info(dir);
                    assert_eq!((info.src, info.src_port), (u, p));
                    assert_eq!((info.dst, info.dst_port), g.directed_target(dir));
                    assert_eq!(info.edge, g.edge_id(u, p));
                }
            }
            g.shuffle_ports(&mut rng);
        }
    }

    #[test]
    fn isolated_node_slot_owner() {
        // Regression guard for owner_of_slot with zero-degree nodes.
        let mut g = from_edges(5, &[(0, 2), (2, 4)]).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        g.shuffle_ports(&mut rng);
        for u in g.nodes() {
            for p in g.ports(u) {
                let v = g.neighbor(u, p);
                let q = g.reverse_port(u, p);
                assert_eq!(g.neighbor(v, q), u);
            }
        }
    }
}
