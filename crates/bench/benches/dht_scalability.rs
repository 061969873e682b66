//! EXP-D — DHT routing scalability: mean and tail lookup hop counts as the
//! network grows (§3.2.2: per-operation overheads grow logarithmically).
//!
//! Run with `cargo bench -p pier-bench --bench dht_scalability`.
//! `tests/paper_tables.rs` compares what this prints with
//! `docs/baselines/tables/dht_scalability.txt`.

fn main() {
    print!("{}", pier_harness::experiments::dht_scalability_table());
}
