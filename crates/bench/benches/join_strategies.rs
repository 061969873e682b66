//! EXP-A — join-strategy ablation (§3.3.4 and [32]): Symmetric Hash join via
//! DHT rehash vs Fetch Matches (distributed index) join: result counts,
//! bytes shipped, first-result latency.
//!
//! Run with `cargo bench -p pier-bench --bench join_strategies`.
//! `tests/paper_tables.rs` compares what this prints with
//! `docs/baselines/tables/join_strategies.txt`.

fn main() {
    print!("{}", pier_harness::experiments::join_strategies_table());
}
