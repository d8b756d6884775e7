//! Regenerates the e9_explicit experiment table; the claim it tests is
//! stated in `experiments/e9_explicit.rs`. Pass `--quick` for a reduced
//! sweep.

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let tables = welle_bench::experiments::e9_explicit::run(quick);
    welle_bench::experiments::emit("e9_explicit", &tables);
}
