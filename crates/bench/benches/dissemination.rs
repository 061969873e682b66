//! EXP-C — query dissemination: messages used by the broadcast tree vs the
//! equality index (§3.3.3), for identical answers.
//!
//! Run with `cargo bench -p pier-bench --bench dissemination`.
//! `tests/paper_tables.rs` compares what this prints with
//! `docs/baselines/tables/dissemination.txt`.

fn main() {
    print!("{}", pier_harness::experiments::dissemination_table());
}
