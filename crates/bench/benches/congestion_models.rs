//! EXP-F — congestion-model comparison (§3.1.4): completion latency of the
//! Figure-2 aggregation query under the simulator's three congestion models.
//!
//! Run with `cargo bench -p pier-bench --bench congestion_models`.
//! `tests/paper_tables.rs` compares what this prints with
//! `docs/baselines/tables/congestion_models.txt`.

fn main() {
    print!("{}", pier_harness::experiments::congestion_models_table());
}
