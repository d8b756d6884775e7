//! Regenerates the e3_guess_double experiment table; the claim it tests
//! is stated in `experiments/e3_guess_double.rs`. Pass `--quick` for a
//! reduced sweep.

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let tables = welle_bench::experiments::e3_guess_double::run(quick);
    welle_bench::experiments::emit("e3_guess_double", &tables);
}
