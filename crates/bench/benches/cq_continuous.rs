//! EXP-L — the continuous-query subsystem (`pier-cq`): sustained ingest
//! and per-window result latency for a standing sliding-window netmon
//! aggregate, in steady state and under churn.
//!
//! Run with `cargo bench -p pier-bench --bench cq_continuous`.
//! `tests/paper_tables.rs` compares what this prints with
//! `docs/baselines/tables/cq_continuous.txt`.

fn main() {
    print!("{}", pier_harness::continuous::cq_continuous_table());
}
