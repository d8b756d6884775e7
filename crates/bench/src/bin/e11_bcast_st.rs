//! Regenerates the e11_bcast_st experiment table; the claim it tests is
//! stated in `experiments/e11_bcast_st.rs`. Pass `--quick` for a
//! reduced sweep.

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let tables = welle_bench::experiments::e11_bcast_st::run(quick);
    welle_bench::experiments::emit("e11_bcast_st", &tables);
}
