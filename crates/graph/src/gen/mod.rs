//! Graph generators for every family the paper discusses.
//!
//! Deterministic families ([`ring`], [`path`], [`clique`], [`star`],
//! [`hypercube`], [`torus2d`], [`grid2d`], [`binary_tree`], [`barbell`],
//! [`lollipop`]) take sizes; randomized families ([`gnp`],
//! [`random_regular`], [`random_tree`]) take an [`rand::Rng`].
//!
//! The two constructions specific to the paper's lower bounds live in
//! [`clique_of_cliques`] (§4.1, Figures 1 and 2) and [`dumbbell()`] (§5).
//!
//! All randomized generators finish with [`crate::Graph::shuffle_ports`] so
//! port numbers carry no structural information, as the model requires.

mod barbell;
mod basic;
mod circulant;
pub mod clique_of_cliques;
pub mod dumbbell;
mod hypercube;
mod random;
mod torus;

pub use barbell::{barbell, lollipop};
pub use basic::{binary_tree, clique, path, random_tree, ring, star};
pub use circulant::circulant;
pub use clique_of_cliques::{CliqueOfCliques, CliqueOfCliquesParams, SUPER_DEGREE};
pub use dumbbell::{dumbbell, Dumbbell};
pub use hypercube::hypercube;
pub use random::{gnp, gnp_connected, random_regular};
pub use torus::{grid2d, torus2d};
