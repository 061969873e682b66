//! EXP-K — recursive reachability queries evaluated as rounds of distributed
//! index joins (§3.3.2, declarative-routing workload).
//!
//! Run with `cargo bench -p pier-bench --bench recursive_queries`.
//! `tests/paper_tables.rs` compares what this prints with
//! `docs/baselines/tables/recursive_queries.txt`.

fn main() {
    print!("{}", pier_harness::recursion::recursive_queries_table());
}
