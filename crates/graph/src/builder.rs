//! Incremental construction of [`Graph`]s from edge lists.

use std::collections::HashSet;

use crate::error::GraphError;
use crate::graph::Graph;

/// Builder collecting undirected edges before freezing them into a CSR
/// [`Graph`].
///
/// The builder validates the paper's model constraints eagerly: no
/// self-loops, no parallel edges, endpoints in range. Connectivity is *not*
/// enforced here (some experiments intentionally build disconnected parts);
/// use [`crate::analysis::is_connected`] where required.
///
/// # Example
///
/// ```
/// use welle_graph::GraphBuilder;
///
/// # fn main() -> Result<(), welle_graph::GraphError> {
/// let mut b = GraphBuilder::new(3);
/// b.add_edge(0, 1)?;
/// b.add_edge(1, 2)?;
/// let g = b.build()?;
/// assert_eq!(g.n(), 3);
/// assert_eq!(g.m(), 2);
/// assert_eq!(g.degree(welle_graph::NodeId::new(1)), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct GraphBuilder {
    n: usize,
    edges: Vec<(u32, u32)>,
    seen: HashSet<(u32, u32)>,
}

impl GraphBuilder {
    /// Creates a builder for a graph on `n` nodes (indices `0..n`).
    pub fn new(n: usize) -> Self {
        GraphBuilder {
            n,
            edges: Vec::new(),
            seen: HashSet::new(),
        }
    }

    /// Creates a builder with pre-allocated capacity for `m` edges.
    pub fn with_capacity(n: usize, m: usize) -> Self {
        GraphBuilder {
            n,
            edges: Vec::with_capacity(m),
            seen: HashSet::with_capacity(m),
        }
    }

    /// Number of nodes the resulting graph will have.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of edges added so far.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Returns `true` if the undirected edge `(u, v)` has been added.
    pub fn has_edge(&self, u: usize, v: usize) -> bool {
        let key = Self::key(narrow(u), narrow(v));
        self.seen.contains(&key)
    }

    /// Adds the undirected edge `(u, v)`.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::SelfLoop`] if `u == v`,
    /// [`GraphError::NodeOutOfRange`] if an endpoint is `>= n`, and
    /// [`GraphError::DuplicateEdge`] if the edge already exists.
    pub fn add_edge(&mut self, u: usize, v: usize) -> Result<(), GraphError> {
        if u >= self.n {
            return Err(GraphError::NodeOutOfRange { node: u, n: self.n });
        }
        if v >= self.n {
            return Err(GraphError::NodeOutOfRange { node: v, n: self.n });
        }
        if u == v {
            return Err(GraphError::SelfLoop { node: u });
        }
        let (u32u, u32v) = (narrow(u), narrow(v));
        let key = Self::key(u32u, u32v);
        if !self.seen.insert(key) {
            return Err(GraphError::DuplicateEdge { u, v });
        }
        self.edges.push((u32u, u32v));
        Ok(())
    }

    /// Removes the undirected edge `(u, v)` if present; returns whether it
    /// was removed. Used by generators that post-process (e.g. the §4.1
    /// lower-bound construction removes two intra-clique edges to keep node
    /// degrees uniform).
    pub fn remove_edge(&mut self, u: usize, v: usize) -> bool {
        let key = Self::key(narrow(u), narrow(v));
        if self.seen.remove(&key) {
            let pos = self
                .edges
                .iter()
                .position(|&(a, b)| Self::key(a, b) == key)
                // welle-lint: allow(no-lib-unwrap) — invariant: `seen` and `edges` are mutated in lockstep by add_edge/remove_edge only
                .expect("edge present in seen-set is present in list");
            self.edges.swap_remove(pos);
            true
        } else {
            false
        }
    }

    /// Freezes the accumulated edges into a CSR [`Graph`].
    ///
    /// Port numbers follow insertion order of each node's incident edges;
    /// call [`Graph::shuffle_ports`] afterwards for the uniformly random
    /// port assignment the lower-bound arguments (§4, Lemma 18) rely on.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::Empty`] if `n == 0`.
    pub fn build(self) -> Result<Graph, GraphError> {
        if self.n == 0 {
            return Err(GraphError::Empty);
        }
        Ok(Graph::from_validated_edges(self.n, self.edges))
    }

    #[inline]
    fn key(u: u32, v: u32) -> (u32, u32) {
        if u < v {
            (u, v)
        } else {
            (v, u)
        }
    }
}

/// Narrows a node index into the `u32` edge-list domain.
///
/// Callers range-check indices against `n` before narrowing, and CSR
/// construction independently asserts the whole index space fits `u32`,
/// so the checked conversion only fires on graphs the CSR layout could
/// not represent anyway.
#[inline]
pub(crate) fn narrow(x: usize) -> u32 {
    // welle-lint: allow(no-lib-unwrap) — documented invariant: node indices are bounded by the u32 CSR index-space assert at graph construction
    u32::try_from(x).expect("node index fits in u32")
}

/// Freezes a *structurally valid* edge list straight into CSR form:
/// endpoints `< n`, no self-loops, no duplicates — guaranteed by the
/// calling generator's construction, not re-checked in release builds.
///
/// This is the structured generators' path to writing CSR directly: it
/// skips [`GraphBuilder`]'s per-edge hash-set bookkeeping, so building an
/// `n = 10⁷` family allocates the CSR columns plus one 8-byte-per-edge
/// staging list and nothing else. Debug builds re-verify the invariants.
///
/// # Errors
///
/// Returns [`GraphError::Empty`] if `n == 0`.
pub(crate) fn from_structured_edges(n: usize, edges: Vec<(u32, u32)>) -> Result<Graph, GraphError> {
    if n == 0 {
        return Err(GraphError::Empty);
    }
    #[cfg(debug_assertions)]
    {
        let mut seen = HashSet::with_capacity(edges.len());
        for &(u, v) in &edges {
            debug_assert!(u != v, "structured generator produced self-loop at v{u}");
            debug_assert!(
                (u as usize) < n && (v as usize) < n,
                "structured generator produced out-of-range edge (v{u}, v{v}) for n = {n}"
            );
            debug_assert!(
                seen.insert(GraphBuilder::key(u, v)),
                "structured generator produced duplicate edge (v{u}, v{v})"
            );
        }
    }
    Ok(Graph::from_validated_edges(n, edges))
}

/// Convenience: builds a graph directly from an edge list.
///
/// # Errors
///
/// Propagates the same validation errors as [`GraphBuilder::add_edge`] and
/// [`GraphBuilder::build`].
///
/// ```
/// let g = welle_graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap();
/// assert_eq!(g.m(), 4);
/// ```
pub fn from_edges(n: usize, edges: &[(usize, usize)]) -> Result<Graph, GraphError> {
    let mut b = GraphBuilder::with_capacity(n, edges.len());
    for &(u, v) in edges {
        b.add_edge(u, v)?;
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::NodeId;

    #[test]
    fn rejects_self_loop() {
        let mut b = GraphBuilder::new(3);
        assert_eq!(b.add_edge(1, 1), Err(GraphError::SelfLoop { node: 1 }));
    }

    #[test]
    fn rejects_out_of_range() {
        let mut b = GraphBuilder::new(3);
        assert_eq!(
            b.add_edge(0, 3),
            Err(GraphError::NodeOutOfRange { node: 3, n: 3 })
        );
        assert_eq!(
            b.add_edge(7, 0),
            Err(GraphError::NodeOutOfRange { node: 7, n: 3 })
        );
    }

    #[test]
    fn rejects_duplicate_in_both_orientations() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1).unwrap();
        assert_eq!(
            b.add_edge(0, 1),
            Err(GraphError::DuplicateEdge { u: 0, v: 1 })
        );
        assert_eq!(
            b.add_edge(1, 0),
            Err(GraphError::DuplicateEdge { u: 1, v: 0 })
        );
    }

    #[test]
    fn rejects_empty_graph() {
        assert_eq!(GraphBuilder::new(0).build().unwrap_err(), GraphError::Empty);
    }

    #[test]
    fn remove_edge_round_trip() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1).unwrap();
        b.add_edge(2, 3).unwrap();
        assert!(b.has_edge(1, 0));
        assert!(b.remove_edge(1, 0));
        assert!(!b.has_edge(0, 1));
        assert!(!b.remove_edge(0, 1));
        // re-adding after removal is fine
        b.add_edge(0, 1).unwrap();
        assert_eq!(b.edge_count(), 2);
    }

    #[test]
    fn build_produces_correct_degrees() {
        let g = from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4)]).unwrap();
        assert_eq!(g.degree(NodeId::new(0)), 4);
        for i in 1..5 {
            assert_eq!(g.degree(NodeId::new(i)), 1);
        }
        assert_eq!(g.m(), 4);
    }

    #[test]
    fn isolated_nodes_allowed() {
        let g = from_edges(3, &[(0, 1)]).unwrap();
        assert_eq!(g.degree(NodeId::new(2)), 0);
    }
}
