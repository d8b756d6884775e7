//! Regenerates the e4_uniqueness experiment table; the claim it tests
//! is stated in `experiments/e4_uniqueness.rs`. Pass `--quick` for a
//! reduced sweep.

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let tables = welle_bench::experiments::e4_uniqueness::run(quick);
    welle_bench::experiments::emit("e4_uniqueness", &tables);
}
