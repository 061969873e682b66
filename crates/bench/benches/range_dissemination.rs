//! EXP-G — range-predicate dissemination (§3.3.3 "Range Index Substrate"):
//! a range scan answered by broadcasting to every node vs by shipping the
//! opgraph only to the PHT-style buckets overlapping the range.
//!
//! Run with `cargo bench -p pier-bench --bench range_dissemination`.
//! `tests/paper_tables.rs` compares what this prints with
//! `docs/baselines/tables/range_dissemination.txt`.

fn main() {
    print!("{}", pier_harness::indexes::range_dissemination_table());
}
