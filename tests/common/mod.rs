//! Helpers shared by the integration tests (`mod common;`).

/// Mix the CI seed matrix into a test's default seed: `PIER_SEED`, when
/// set, perturbs the seed so the suites that assert structural properties —
/// equal multisets between execution strategies, byte-identical replays,
/// trace reconciliation — are exercised over distinct topologies and fault
/// realisations (every such assertion must hold for *any* seed).
pub fn seeded(default: u64) -> u64 {
    match std::env::var("PIER_SEED") {
        Ok(s) => default ^ s.trim().parse::<u64>().expect("PIER_SEED must be a u64"),
        Err(_) => default,
    }
}
