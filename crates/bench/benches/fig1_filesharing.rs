//! FIG1 — reproduce Figure 1 of the paper: CDF of first-result latency for
//! PIER file-sharing search on rare keywords vs a Gnutella-style flooding
//! baseline (all queries and rare queries).
//!
//! Run with `cargo bench -p pier-bench --bench fig1_filesharing`.
//! `tests/paper_tables.rs` compares what this prints with
//! `docs/baselines/tables/fig1_filesharing.txt`.

fn main() {
    print!("{}", pier_harness::experiments::fig1_filesharing_table());
}
