//! The §4.1 lower-bound graph `G`: a random 4-regular *super-node graph*
//! `G_S` (Figure 1) whose super-nodes are expanded into cliques (Figure 2),
//! with two intra-clique edges removed per clique so that all node degrees
//! are uniform.
//!
//! For a target size `n` and parameter `ε = log(1/α) / (2 log n)`, the
//! construction yields `N ≈ n^{1-ε}` cliques of size `s ≈ n^ε` and a graph
//! of conductance `φ = Θ(α) = Θ(1/n^{2ε})` with high probability
//! (Lemma 16).

use rand::seq::SliceRandom;
use rand::Rng;

use crate::builder::{narrow, GraphBuilder};
use crate::error::GraphError;
use crate::gen::random::random_regular;
use crate::graph::Graph;
use crate::types::{EdgeId, NodeId};

/// Degree of the super-node graph (the paper fixes it to 4).
pub const SUPER_DEGREE: usize = 4;

/// Parameters of the lower-bound construction.
///
/// `epsilon` plays the role of the paper's `ε`; the resulting conductance
/// target is `α = n^{-2ε}`. The paper requires
/// `1/n² < α < 1/144`, i.e. `ε` small enough that cliques have at least
/// [`SUPER_DEGREE`] nodes and large enough that there are ≥ 5 cliques.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CliqueOfCliquesParams {
    /// Target total number of nodes (the realized `n` is `N·s ≈ n`).
    pub target_n: usize,
    /// Exponent `ε ∈ (0, 1)`: clique size `s ≈ n^ε`.
    pub epsilon: f64,
}

impl CliqueOfCliquesParams {
    /// Convenience constructor.
    pub fn new(target_n: usize, epsilon: f64) -> Self {
        CliqueOfCliquesParams { target_n, epsilon }
    }

    /// The clique size `s = max(4, round(n^ε))` this parameterization yields.
    pub fn clique_size(&self) -> usize {
        let s = (self.target_n as f64).powf(self.epsilon).round() as usize;
        s.max(SUPER_DEGREE)
    }

    /// The number of cliques `N = max(5, round(n / s))`.
    pub fn num_cliques(&self) -> usize {
        (self.target_n as f64 / self.clique_size() as f64)
            .round()
            .max(5.0) as usize
    }
}

/// The constructed lower-bound graph with its clique structure.
///
/// Keeps both the expanded graph and the super-node graph `G_S`, plus the
/// node→clique map that the lower-bound experiments (clique communication
/// graph, Lemma 18 probing) need to classify every transmitted message as
/// intra- or inter-clique.
#[derive(Clone, Debug)]
pub struct CliqueOfCliques {
    graph: Graph,
    super_graph: Graph,
    clique_of: Vec<u32>,
    clique_size: usize,
    inter_edge_flags: Vec<bool>,
    epsilon: f64,
}

impl CliqueOfCliques {
    /// Builds the §4.1 graph.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InvalidParameters`] if the derived clique size
    /// is below 4, `ε ∉ (0, 1)`, or the derived clique count is below 5;
    /// generation errors from the 4-regular super-graph are propagated.
    ///
    /// ```
    /// use rand::{SeedableRng, rngs::StdRng};
    /// use welle_graph::gen::{CliqueOfCliques, CliqueOfCliquesParams};
    ///
    /// let mut rng = StdRng::seed_from_u64(1);
    /// let lb = CliqueOfCliques::build(CliqueOfCliquesParams::new(500, 0.3), &mut rng).unwrap();
    /// let s = lb.clique_size();
    /// assert!(lb.graph().is_regular(s - 1)); // uniform degrees (Fig. 2)
    /// ```
    pub fn build<R: Rng + ?Sized>(
        params: CliqueOfCliquesParams,
        rng: &mut R,
    ) -> Result<Self, GraphError> {
        if !(params.epsilon > 0.0 && params.epsilon < 1.0) {
            return Err(GraphError::InvalidParameters {
                reason: format!("epsilon must be in (0, 1), got {}", params.epsilon),
            });
        }
        let s = params.clique_size();
        let num_cliques = params.num_cliques();
        if s < SUPER_DEGREE {
            return Err(GraphError::InvalidParameters {
                reason: format!("clique size {s} < {SUPER_DEGREE}; increase target_n or epsilon"),
            });
        }
        if num_cliques < SUPER_DEGREE + 1 {
            return Err(GraphError::InvalidParameters {
                reason: format!(
                    "need at least {} cliques for a 4-regular super-graph, got {num_cliques}",
                    SUPER_DEGREE + 1
                ),
            });
        }

        let super_graph = random_regular(num_cliques, SUPER_DEGREE, rng)?;
        let n = num_cliques * s;
        let mut b = GraphBuilder::with_capacity(n, num_cliques * s * (s - 1) / 2 + 2 * num_cliques);

        // Choose 4 distinct external nodes per clique, in super-port order:
        // external_of[c][p] answers "which node of clique c terminates the
        // super-edge behind super-port p".
        let mut external_of: Vec<Vec<usize>> = Vec::with_capacity(num_cliques);
        for c in 0..num_cliques {
            let mut members: Vec<usize> = (c * s..(c + 1) * s).collect();
            members.shuffle(rng);
            members.truncate(SUPER_DEGREE);
            external_of.push(members);
        }

        // Intra-clique edges: complete graph within each clique, minus the
        // two edges pairing up the four external nodes (degree uniformity).
        for (c, ext) in external_of.iter().enumerate() {
            let base = c * s;
            for i in 0..s {
                for j in (i + 1)..s {
                    b.add_edge(base + i, base + j)?;
                }
            }
            let removed1 = b.remove_edge(ext[0], ext[1]);
            let removed2 = b.remove_edge(ext[2], ext[3]);
            debug_assert!(removed1 && removed2, "external pairing edges existed");
        }

        // Inter-clique edges: one per super-edge, between the external
        // nodes assigned to the corresponding super-ports.
        for cu in super_graph.nodes() {
            for p in super_graph.ports(cu) {
                let cv = super_graph.neighbor(cu, p);
                if cu < cv {
                    let q = super_graph.reverse_port(cu, p);
                    let a = external_of[cu.index()][p.index()];
                    let bb = external_of[cv.index()][q.index()];
                    b.add_edge(a, bb)?;
                }
            }
        }

        let mut graph = b.build()?;
        // Randomize ports: Lemma 18 requires inter-clique ports to be
        // uniformly placed among each clique's ~s² ports.
        graph.shuffle_ports(rng);

        let clique_of: Vec<u32> = (0..n).map(|u| narrow(u / s)).collect();
        let inter_edge_flags = graph
            .edges()
            .map(|(_, u, v)| clique_of[u.index()] != clique_of[v.index()])
            .collect();

        Ok(CliqueOfCliques {
            graph,
            super_graph,
            clique_of,
            clique_size: s,
            inter_edge_flags,
            epsilon: params.epsilon,
        })
    }

    /// The expanded lower-bound graph `G`.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The 4-regular super-node graph `G_S` (Figure 1).
    pub fn super_graph(&self) -> &Graph {
        &self.super_graph
    }

    /// Consumes `self`, returning the expanded graph.
    pub fn into_graph(self) -> Graph {
        self.graph
    }

    /// Clique index of a node.
    pub fn clique_of(&self, u: NodeId) -> usize {
        self.clique_of[u.index()] as usize
    }

    /// Number of cliques `N`.
    pub fn num_cliques(&self) -> usize {
        self.super_graph.n()
    }

    /// Clique size `s` (all cliques have the same size).
    pub fn clique_size(&self) -> usize {
        self.clique_size
    }

    /// The `ε` used to build this graph.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// The conductance scale `α = n^{-2ε}` the construction targets
    /// (Lemma 16 proves `φ = Θ(α)` w.h.p.).
    pub fn alpha(&self) -> f64 {
        (self.graph.n() as f64).powf(-2.0 * self.epsilon)
    }

    /// Nodes of clique `c` (they are laid out contiguously).
    pub fn clique_nodes(&self, c: usize) -> impl Iterator<Item = NodeId> + '_ {
        (c * self.clique_size..(c + 1) * self.clique_size).map(NodeId::new)
    }

    /// Whether an edge crosses between two cliques.
    pub fn is_inter_clique_edge(&self, e: EdgeId) -> bool {
        self.inter_edge_flags[e.index()]
    }

    /// Number of inter-clique edges (`= |E(G_S)| = 2N`).
    pub fn inter_edge_count(&self) -> usize {
        self.inter_edge_flags.iter().filter(|&&f| f).count()
    }

    /// Conductance of the cut that keeps every clique whole and splits the
    /// super-graph along `super_cut` (a boolean side-assignment per clique).
    ///
    /// Claim 17 shows the optimal cut of `G` has this form, so minimizing
    /// this quantity over super-cuts gives `φ(G)` exactly (up to the
    /// super-graph cut search, done by sweep in the experiments).
    pub fn clique_respecting_cut_conductance(&self, super_cut: &[bool]) -> Option<f64> {
        if super_cut.len() != self.num_cliques() {
            return None;
        }
        let node_cut: Vec<bool> = (0..self.graph.n())
            .map(|u| super_cut[self.clique_of[u] as usize])
            .collect();
        crate::analysis::cut_conductance(&self.graph, &node_cut)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn build(n: usize, eps: f64, seed: u64) -> CliqueOfCliques {
        let mut rng = StdRng::seed_from_u64(seed);
        CliqueOfCliques::build(CliqueOfCliquesParams::new(n, eps), &mut rng).unwrap()
    }

    #[test]
    fn degrees_are_uniform() {
        let lb = build(400, 0.3, 7);
        let s = lb.clique_size();
        assert!(s >= 4);
        assert!(
            lb.graph().is_regular(s - 1),
            "all degrees must equal clique_size - 1"
        );
    }

    #[test]
    fn connected_and_sized() {
        let lb = build(600, 0.25, 3);
        assert!(analysis::is_connected(lb.graph()));
        assert_eq!(lb.graph().n(), lb.num_cliques() * lb.clique_size());
    }

    #[test]
    fn inter_edges_match_super_graph() {
        let lb = build(500, 0.3, 11);
        assert_eq!(lb.inter_edge_count(), lb.super_graph().m());
        assert_eq!(lb.super_graph().m(), 2 * lb.num_cliques());
    }

    #[test]
    fn clique_of_is_consistent() {
        let lb = build(300, 0.35, 1);
        for c in 0..lb.num_cliques() {
            for u in lb.clique_nodes(c) {
                assert_eq!(lb.clique_of(u), c);
            }
        }
    }

    #[test]
    fn middle_cut_conductance_scales_like_alpha() {
        // Lemma 16: phi = Theta(alpha). Check a balanced clique-respecting
        // cut is within a constant factor of alpha.
        let lb = build(800, 0.3, 5);
        let ncliques = lb.num_cliques();
        let cut: Vec<bool> = (0..ncliques).map(|c| c < ncliques / 2).collect();
        let phi = lb.clique_respecting_cut_conductance(&cut).unwrap();
        let alpha = lb.alpha();
        // Conductance of the cut is (#crossing super edges) / (cliques *
        // clique volume); crossing edges <= 2N so ratio is O(alpha) up to
        // the super-graph's constant conductance.
        assert!(phi > 0.0);
        assert!(
            phi < 40.0 * alpha,
            "cut conductance {phi} should be O(alpha = {alpha})"
        );
    }

    #[test]
    fn rejects_bad_epsilon() {
        let mut rng = StdRng::seed_from_u64(0);
        assert!(CliqueOfCliques::build(CliqueOfCliquesParams::new(100, 0.0), &mut rng).is_err());
        assert!(CliqueOfCliques::build(CliqueOfCliquesParams::new(100, 1.0), &mut rng).is_err());
    }

    #[test]
    fn params_accessors() {
        let p = CliqueOfCliquesParams::new(1000, 0.25);
        // 1000^0.25 ≈ 5.6 → 6
        assert_eq!(p.clique_size(), 6);
        assert_eq!(p.num_cliques(), (1000f64 / 6.0).round() as usize);
    }

    #[test]
    fn every_clique_has_exactly_four_inter_edges() {
        let lb = build(500, 0.3, 13);
        let mut count = vec![0usize; lb.num_cliques()];
        for (e, u, v) in lb.graph().edges() {
            if lb.is_inter_clique_edge(e) {
                count[lb.clique_of(u)] += 1;
                count[lb.clique_of(v)] += 1;
            }
        }
        for (c, k) in count.iter().enumerate() {
            assert_eq!(*k, SUPER_DEGREE, "clique {c} must touch 4 inter edges");
        }
    }
}
