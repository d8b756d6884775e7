//! Regenerates the e2_contenders experiment table; the claim it tests
//! is stated in `experiments/e2_contenders.rs`. Pass `--quick` for a
//! reduced sweep.

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let tables = welle_bench::experiments::e2_contenders::run(quick);
    welle_bench::experiments::emit("e2_contenders", &tables);
}
