//! Regenerates the e6_first_contact experiment table; the claim it
//! tests is stated in `experiments/e6_first_contact.rs`. Pass `--quick`
//! for a reduced sweep.

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let tables = welle_bench::experiments::e6_first_contact::run(quick);
    welle_bench::experiments::emit("e6_first_contact", &tables);
}
