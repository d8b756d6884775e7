//! Regenerates the e13_ablations experiment tables; the study it runs
//! is described in `experiments/e13_ablations.rs`. Pass `--quick` for a
//! reduced sweep.

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let tables = welle_bench::experiments::e13_ablations::run(quick);
    welle_bench::experiments::emit("e13_ablations", &tables);
}
