//! EXP-B — hierarchical vs flat (direct-to-root) aggregation: the maximum
//! per-node in-bandwidth hot spot and total traffic (§3.3.4).
//!
//! Run with `cargo bench -p pier-bench --bench hier_aggregation`.
//! `tests/paper_tables.rs` compares what this prints with
//! `docs/baselines/tables/hier_aggregation.txt`.

fn main() {
    print!("{}", pier_harness::experiments::hier_aggregation_table());
}
