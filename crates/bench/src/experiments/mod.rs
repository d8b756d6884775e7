//! One module per experiment, E1–E14. Each module's docs state the
//! paper claim it tests, and each exposes `run(quick: bool) ->
//! Vec<Table>`; `quick` shrinks sweeps for smoke tests and CI.

pub mod e10_families;
pub mod e11_bcast_st;
pub mod e12_known_tmix;
pub mod e13_ablations;
pub mod e14_resilience;
pub mod e1_upper_bound;
pub mod e2_contenders;
pub mod e3_guess_double;
pub mod e4_uniqueness;
pub mod e5_lb_graph;
pub mod e6_first_contact;
pub mod e7_sandwich;
pub mod e8_dumbbell;
pub mod e9_explicit;

use crate::table::Table;

/// Prints each table and writes it as CSV under `results/`.
pub fn emit(name: &str, tables: &[Table]) {
    for (i, t) in tables.iter().enumerate() {
        t.print();
        println!();
        let path = format!("results/{name}_{i}.csv");
        if let Err(e) = t.write_csv(&path) {
            eprintln!("warning: could not write {path}: {e}");
        }
    }
}
