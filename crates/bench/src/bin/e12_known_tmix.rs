//! Regenerates the e12_known_tmix experiment table; the claim it tests
//! is stated in `experiments/e12_known_tmix.rs`. Pass `--quick` for a
//! reduced sweep.

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let tables = welle_bench::experiments::e12_known_tmix::run(quick);
    welle_bench::experiments::emit("e12_known_tmix", &tables);
}
