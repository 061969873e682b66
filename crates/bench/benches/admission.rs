//! Admission benchmark: the accuracy of shed-mode (sampled) results against
//! full-rate ground truth.
//!
//! Runs `many_tenants` at full rate, then again under per-tenant budgets
//! that force 1-in-4 sampling; scales the sampled per-window counts back up
//! by the modulus and reports the mean relative error — the price of the
//! graceful-degradation path, measured, not assumed.  (What a static
//! admission decision costs in time is the end-to-end benchmark's
//! `analyze.cost.analyze_us` probe and its `query_churn` workload.)
//!
//! Run with `cargo bench -p pier-bench --bench admission`.
//! `tests/paper_tables.rs` compares what this prints with
//! `docs/baselines/tables/admission.txt`.

fn main() {
    print!("{}", pier_harness::tenants::admission_table());
}
