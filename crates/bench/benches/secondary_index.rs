//! EXP-J — secondary indexes (§3.3.3): an equality lookup on a
//! non-partitioning column answered by a broadcast scan of the base table vs
//! by the secondary-index semi-join (index partition → Fetch Matches into
//! the base table).
//!
//! Run with `cargo bench -p pier-bench --bench secondary_index`.
//! `tests/paper_tables.rs` compares what this prints with
//! `docs/baselines/tables/secondary_index.txt`.

fn main() {
    print!("{}", pier_harness::indexes::secondary_index_table());
}
