//! Regenerates the e5_lb_graph experiment table; the claim it tests is
//! stated in `experiments/e5_lb_graph.rs`. Pass `--quick` for a reduced
//! sweep.

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let tables = welle_bench::experiments::e5_lb_graph::run(quick);
    welle_bench::experiments::emit("e5_lb_graph", &tables);
}
