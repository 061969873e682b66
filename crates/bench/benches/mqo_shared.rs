//! Multi-query sharing benchmark (`pier-mqo`): N constant-varied standing
//! queries executed shared vs independent.
//!
//! `many_tenants` runs 64 constant-varied continuous queries over a live
//! simulated cluster twice from one seed, through share groups and
//! independently.  Standard output is the pair's traffic and result
//! latency — virtual time, so exact: `tests/paper_tables.rs` compares it
//! with `docs/baselines/tables/mqo_shared.txt`.  Standard error carries
//! what only this binary can measure and no file records: the pair's
//! aggregate ingest throughput in rows per wall-clock second, with the ≥2x
//! shared-vs-independent bar asserted (the benchmark's `tenants_shared`
//! workload times the shared path alone, not the ratio), and the
//! allocations the shared [`PredicateIndex`] scan makes per row, counted by
//! a counting allocator.  What the index scan costs in time is the
//! benchmark's `mqo.index.eval_ns_per_row` probe.
//!
//! Run with `cargo bench -p pier-bench --bench mqo_shared`.

use pier_bench::{allocations, CountingAlloc};
use pier_core::{Expr, Tuple, TupleBatch, Value};
use pier_harness::metric_line;
use pier_harness::tenants::{many_tenants, mqo_shared_table, ManyTenantsConfig};
use pier_mqo::PredicateIndex;

/// Smoke mode (`PIER_BENCH_SMOKE=1`, used by CI) shrinks the scan count and
/// the cluster run while still running every assertion — including the
/// sharing bar.
fn smoke() -> bool {
    std::env::var_os("PIER_BENCH_SMOKE").is_some()
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn main() {
    let tenants = 64usize;
    // What this binary measures goes to standard error, leaving standard
    // output to the recorded table.
    let measured = |metric, value| eprintln!("{}", metric_line("mqo_shared", metric, value));

    // ---- allocations of the shared predicate-index scan -----------------
    let rows: Vec<Tuple> = (0..1024i64)
        .map(|i| {
            Tuple::new(
                "packets",
                vec![
                    (
                        "src",
                        Value::Str(format!("10.0.{}.{}", (i / 256) % 4, i % 256).into()),
                    ),
                    ("port", Value::Int(i % 1024)),
                    ("len", Value::Int(40 + i % 1400)),
                ],
            )
        })
        .collect();
    let batch = TupleBatch::new(rows);
    let chunk = &batch.chunks()[0];
    let mut index = PredicateIndex::new();
    for t in 0..tenants {
        let src = format!("10.0.{}.{}", (t / 256) % 4, t % 256);
        index.insert(t as u64, Expr::eq("src", src.as_str()));
    }
    index.eval_chunk(chunk); // warm the per-schema compilation
    let scans: u64 = if smoke() { 20 } else { 500 };
    let mut hits = 0u64;
    let before = allocations();
    for _ in 0..scans {
        index.eval_chunk(chunk);
        for t in 0..tenants {
            hits += index.member_mask(t as u64).expect("member").count() as u64;
        }
    }
    let allocs_per_row = (allocations() - before) as f64 / (scans * chunk.rows() as u64) as f64;
    assert_eq!(
        hits,
        scans * tenants as u64,
        "each member's source occurs once in the chunk"
    );
    measured("predindex_shared_allocs_per_row", allocs_per_row);
    assert!(
        allocs_per_row < 0.5,
        "the shared scan must not allocate per row ({allocs_per_row:.3} allocs/row)"
    );

    // ---- many_tenants end-to-end ---------------------------------------
    let (nodes, run_secs) = if smoke() { (6, 6) } else { (12, 15) };
    let mut cfg = ManyTenantsConfig::new(nodes, tenants, run_secs, 29);
    cfg.events_per_node_per_sec = if smoke() { 8 } else { 16 };
    cfg.sharing = true;
    let mut shared = many_tenants(&cfg);
    cfg.sharing = false;
    let mut independent = many_tenants(&cfg);
    assert_eq!(
        shared.events, independent.events,
        "both runs must stream the same workload"
    );
    assert!(
        shared.max_shared_groups >= 1,
        "the tenants must actually form a share group"
    );
    assert_eq!(
        (shared.residual_groups, shared.residual_members),
        (0, 0),
        "no share group may outlive its members"
    );
    print!("{}", mqo_shared_table(&mut shared, &mut independent));

    let shared_rps = shared.rows_per_wall_sec();
    let independent_rps = independent.rows_per_wall_sec();
    let throughput_speedup = shared_rps / independent_rps.max(1e-9);
    measured("tenants_shared_rows_per_wall_sec", shared_rps);
    measured("tenants_independent_rows_per_wall_sec", independent_rps);
    measured("tenants_throughput_speedup", throughput_speedup);
    // The acceptance bar is ≥2x at full scale; the smoke run is too short
    // for stable wall-clock ratios (measured ~2.6x), so CI asserts a softer
    // floor that still catches a sharing regression.
    let bar = if smoke() { 1.5 } else { 2.0 };
    assert!(
        throughput_speedup >= bar,
        "shared execution of {tenants} constant-varied queries must sustain \
         ≥{bar}x independent throughput, got {throughput_speedup:.2}x"
    );
}
