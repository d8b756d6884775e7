//! Pins `random_regular` output slot for slot. The generator feeds every
//! expander election and golden row, so a faster build must reproduce
//! the same graph from the same RNG stream: same neighbour, reverse port
//! and edge id at every `(node, port)` slot.

use rand::{rngs::StdRng, SeedableRng};
use welle_graph::gen::random_regular;
use welle_graph::Graph;

/// FNV-1a over `(neighbour, reverse port, edge id)` of every slot, in
/// node-then-port order.
fn fingerprint(g: &Graph) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |v: usize| {
        h ^= v as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    };
    for u in g.nodes() {
        for p in g.ports(u) {
            mix(g.neighbor(u, p).index());
            mix(g.reverse_port(u, p).index());
            mix(g.edge_id(u, p).index());
        }
    }
    h
}

#[test]
fn random_regular_graphs_are_pinned() {
    // (n, d, seed, fingerprint): the `rr48x4` golden-row graph, the
    // benchmark's 128-node expander (graph seed 1 ^ 0xF00D), and a
    // denser graph whose pairing needs many swap repairs.
    let cases: [(usize, usize, u64, u64); 3] = [
        (48, 4, 11, 0x985d_0ed8_61d0_0c01),
        (128, 4, 1 ^ 0xF00D, 0x5366_d1e1_712d_5223),
        (1024, 6, 5, 0x5f94_6dd6_1dd5_0095),
    ];
    for (n, d, seed, want) in cases {
        let g = random_regular(n, d, &mut StdRng::seed_from_u64(seed)).unwrap();
        assert_eq!(
            fingerprint(&g),
            want,
            "random_regular({n}, {d}), seed {seed}"
        );
    }
}
