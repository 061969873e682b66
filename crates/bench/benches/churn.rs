//! EXP-E — churn resilience: query recall after failing a fraction of the
//! network (soft state and routing resilience, §2.1.1, §3.2.3).
//!
//! Run with `cargo bench -p pier-bench --bench churn`.
//! `tests/paper_tables.rs` compares what this prints with
//! `docs/baselines/tables/churn.txt`.

fn main() {
    print!("{}", pier_harness::experiments::churn_table());
}
