//! Regenerates the e8_dumbbell experiment table; the claim it tests is
//! stated in `experiments/e8_dumbbell.rs`. Pass `--quick` for a reduced
//! sweep.

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let tables = welle_bench::experiments::e8_dumbbell::run(quick);
    welle_bench::experiments::emit("e8_dumbbell", &tables);
}
