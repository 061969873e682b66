//! FIG2 — reproduce Figure 2 of the paper: the top-10 sources of firewall
//! log events across the deployment, computed by a single distributed
//! aggregation query with hierarchical (in-network) combining.
//!
//! Run with `cargo bench -p pier-bench --bench fig2_netmon`.
//! `tests/paper_tables.rs` compares what this prints with
//! `docs/baselines/tables/fig2_netmon.txt`.

fn main() {
    print!("{}", pier_harness::experiments::fig2_netmon_table());
}
