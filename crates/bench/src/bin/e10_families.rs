//! Regenerates the e10_families experiment table; the claim it tests is
//! stated in `experiments/e10_families.rs`. Pass `--quick` for a
//! reduced sweep.

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let tables = welle_bench::experiments::e10_families::run(quick);
    welle_bench::experiments::emit("e10_families", &tables);
}
