//! Regenerates the e7_sandwich experiment table; the claim it tests is
//! stated in `experiments/e7_sandwich.rs`. Pass `--quick` for a reduced
//! sweep.

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let tables = welle_bench::experiments::e7_sandwich::run(quick);
    welle_bench::experiments::emit("e7_sandwich", &tables);
}
