//! Structural graph analysis: traversal, connectivity, diameter, bridges.
//!
//! The conductance and spectral tools of §2 of the paper live in the
//! [`mod@crate::analysis`] submodules and are re-exported here.

mod cuts;
mod spectral;

pub use cuts::{
    conductance_exact, cut_conductance, cut_edge_count, cut_edge_expansion, edge_expansion_exact,
    middle_cut_conductance, volume, MAX_EXACT_CONDUCTANCE_N,
};
pub use spectral::{
    cheeger_bounds, conductance_sweep, lazy_second_eigenvalue, lazy_spectral_gap,
    stationary_distribution, SpectralOptions,
};

use std::collections::{HashSet, VecDeque};

use crate::graph::Graph;
use crate::types::{EdgeId, NodeId};

/// Distance marker for unreachable nodes in [`bfs`].
pub const UNREACHABLE: u32 = u32::MAX;

/// Breadth-first distances from `src`; unreachable nodes get
/// [`UNREACHABLE`].
pub fn bfs(g: &Graph, src: NodeId) -> Vec<u32> {
    let mut dist = vec![UNREACHABLE; g.n()];
    let mut queue = VecDeque::new();
    dist[src.index()] = 0;
    queue.push_back(src);
    while let Some(u) = queue.pop_front() {
        let du = dist[u.index()];
        for &v in g.neighbors(u) {
            if dist[v.index()] == UNREACHABLE {
                dist[v.index()] = du + 1;
                queue.push_back(v);
            }
        }
    }
    dist
}

/// Whether the graph is connected (single component containing all nodes).
pub fn is_connected(g: &Graph) -> bool {
    if g.n() == 0 {
        return false;
    }
    bfs(g, NodeId::new(0)).iter().all(|&d| d != UNREACHABLE)
}

/// Number of connected components.
pub fn component_count(g: &Graph) -> usize {
    let mut comp = vec![usize::MAX; g.n()];
    let mut count = 0;
    for start in g.nodes() {
        if comp[start.index()] != usize::MAX {
            continue;
        }
        let mut queue = VecDeque::new();
        comp[start.index()] = count;
        queue.push_back(start);
        while let Some(u) = queue.pop_front() {
            for &v in g.neighbors(u) {
                if comp[v.index()] == usize::MAX {
                    comp[v.index()] = count;
                    queue.push_back(v);
                }
            }
        }
        count += 1;
    }
    count
}

/// Exact diameter via all-pairs BFS (`O(n·m)`); `None` if disconnected.
///
/// Suitable for the simulation sizes in this repo (n up to a few tens of
/// thousands on sparse graphs); prefer [`diameter_double_sweep`] when an
/// estimate suffices.
pub fn diameter_exact(g: &Graph) -> Option<u32> {
    let mut best = 0u32;
    for u in g.nodes() {
        let dist = bfs(g, u);
        for &d in &dist {
            if d == UNREACHABLE {
                return None;
            }
            best = best.max(d);
        }
    }
    Some(best)
}

/// Double-sweep diameter lower bound (exact on trees, excellent in
/// practice): BFS from node 0, then BFS from the farthest node found.
/// `None` if disconnected.
pub fn diameter_double_sweep(g: &Graph) -> Option<u32> {
    let d0 = bfs(g, NodeId::new(0));
    let (far, &dmax) = d0
        .iter()
        .enumerate()
        .max_by_key(|&(_, &d)| if d == UNREACHABLE { 0 } else { d })?;
    if d0.contains(&UNREACHABLE) {
        return None;
    }
    let _ = dmax;
    let d1 = bfs(g, NodeId::new(far));
    d1.iter().copied().max()
}

/// Bridge edges (cut edges) via iterative Tarjan low-link.
///
/// Used by the dumbbell generator to pick an edge whose removal keeps the
/// base copy connected.
pub fn bridges(g: &Graph) -> HashSet<EdgeId> {
    let n = g.n();
    let mut disc = vec![0u32; n];
    let mut low = vec![0u32; n];
    let mut visited = vec![false; n];
    let mut result = HashSet::new();
    let mut timer = 1u32;

    // Iterative DFS storing (node, parent_edge, next_port_to_try).
    for start in 0..n {
        if visited[start] {
            continue;
        }
        let mut stack: Vec<(usize, Option<EdgeId>, usize)> = vec![(start, None, 0)];
        visited[start] = true;
        disc[start] = timer;
        low[start] = timer;
        timer += 1;
        while let Some(&mut (u, parent_edge, ref mut next_port)) = stack.last_mut() {
            let node = NodeId::new(u);
            if *next_port < g.degree(node) {
                let p = crate::types::Port::new(*next_port);
                *next_port += 1;
                let e = g.edge_id(node, p);
                if Some(e) == parent_edge {
                    continue;
                }
                let v = g.neighbor(node, p).index();
                if visited[v] {
                    low[u] = low[u].min(disc[v]);
                } else {
                    visited[v] = true;
                    disc[v] = timer;
                    low[v] = timer;
                    timer += 1;
                    stack.push((v, Some(e), 0));
                }
            } else {
                stack.pop();
                if let Some(&(parent, _, _)) = stack.last() {
                    low[parent] = low[parent].min(low[u]);
                    if low[u] > disc[parent] {
                        // The tree edge (parent, u) is a bridge; find its id.
                        if let Some(e) = parent_edge {
                            result.insert(e);
                        }
                    }
                }
            }
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::from_edges;
    use crate::gen;

    #[test]
    fn bfs_distances_on_path() {
        let g = gen::path(5).unwrap();
        let d = bfs(&g, NodeId::new(0));
        assert_eq!(d, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn bfs_unreachable() {
        let g = from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        let d = bfs(&g, NodeId::new(0));
        assert_eq!(d[2], UNREACHABLE);
        assert!(!is_connected(&g));
        assert_eq!(component_count(&g), 2);
    }

    #[test]
    fn diameter_methods_agree_on_trees() {
        let g = gen::binary_tree(31).unwrap();
        assert_eq!(diameter_exact(&g), diameter_double_sweep(&g));
    }

    #[test]
    fn double_sweep_never_exceeds_exact() {
        for n in [5usize, 9, 16] {
            let g = gen::torus2d(3, n).unwrap();
            let exact = diameter_exact(&g).unwrap();
            let sweep = diameter_double_sweep(&g).unwrap();
            assert!(sweep <= exact);
        }
    }

    #[test]
    fn bridges_on_path_are_all_edges() {
        let g = gen::path(6).unwrap();
        assert_eq!(bridges(&g).len(), 5);
    }

    #[test]
    fn ring_has_no_bridges() {
        let g = gen::ring(6).unwrap();
        assert!(bridges(&g).is_empty());
    }

    #[test]
    fn barbell_bridge_detected() {
        let g = gen::barbell(4).unwrap();
        let b = bridges(&g);
        assert_eq!(b.len(), 1);
        let e = *b.iter().next().unwrap();
        let (u, v) = g.endpoints(e);
        assert_eq!((u.index(), v.index()), (3, 4));
    }

    #[test]
    fn bridges_mixed_graph() {
        // Triangle 0-1-2 with a pendant path 2-3-4.
        let g = from_edges(5, &[(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)]).unwrap();
        let b = bridges(&g);
        assert_eq!(b.len(), 2);
        let pairs: HashSet<(usize, usize)> = b
            .iter()
            .map(|&e| {
                let (u, v) = g.endpoints(e);
                (u.index(), v.index())
            })
            .collect();
        assert!(pairs.contains(&(2, 3)));
        assert!(pairs.contains(&(3, 4)));
    }
}
