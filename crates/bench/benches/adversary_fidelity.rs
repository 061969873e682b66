//! EXP-I — result fidelity under an adversary (§4.1.1/§4.1.2): relative
//! result error and suppressed-source fraction for the undefended
//! aggregation tree vs the redundancy defenses, plus the spot-checking
//! detection-rate study.
//!
//! Run with `cargo bench -p pier-bench --bench adversary_fidelity`.
//! `tests/paper_tables.rs` compares what this prints with
//! `docs/baselines/tables/adversary_fidelity.txt`.

fn main() {
    print!("{}", pier_harness::robustness::adversary_fidelity_table());
}
