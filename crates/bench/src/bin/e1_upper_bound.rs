//! Regenerates the e1_upper_bound experiment table; the claim it tests
//! is stated in `experiments/e1_upper_bound.rs`. Pass `--quick` for a
//! reduced sweep.

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let tables = welle_bench::experiments::e1_upper_bound::run(quick);
    welle_bench::experiments::emit("e1_upper_bound", &tables);
}
