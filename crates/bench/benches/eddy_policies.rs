//! EXP-H — adaptive query processing with eddies (§4.2.2): operator
//! invocations for the same conjunctive filter query under static good/bad
//! orders and eddy routing policies.
//!
//! Run with `cargo bench -p pier-bench --bench eddy_policies`.
//! `tests/paper_tables.rs` compares what this prints with
//! `docs/baselines/tables/eddy_policies.txt`.

fn main() {
    print!("{}", pier_harness::adaptivity::eddy_policies_table());
}
