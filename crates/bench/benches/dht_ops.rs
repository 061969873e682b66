//! Micro-measurements of the query-processor hot paths that the end-to-end
//! benchmark has no probe for: tuple hashing, zero-copy tuple cloning, the
//! columnar scan against the row-major interpreted one, and — through a
//! counting global allocator, so allocation-freedom claims are *measured*,
//! not asserted — the allocations per row of the gather join, the chunked
//! pipeline scan and `Tuple::clone`.
//!
//! What the router, the object manager, the pipeline scan and the join push
//! cost in *time* is measured by the benchmark's probes
//! (`dht.router.next_hop_ns`, `dht.object_manager.put_get_ns`,
//! `core.operators.pipeline_ns_per_row`, `core.operators.join_ns_per_row`)
//! and what enabled telemetry costs by its
//! `telemetry.hub.enabled_overhead_share`; `compare` holds those to their
//! bounds.  Nothing printed here is recorded in a file: the timings are
//! this machine's, and the allocation counts are asserted below.
//!
//! Run with `cargo bench -p pier-bench --bench dht_ops`.

use pier_bench::{allocations, emit_metric, CountingAlloc};
use pier_core::{
    CmpOp, Expr, JoinSide, LocalOperator, Pipeline, Projection, Selection, SymmetricHashJoin,
    Tuple, TupleBatch, Value,
};
use pier_runtime::WireSize;
use std::time::Instant;

/// Smoke mode (`PIER_BENCH_SMOKE=1`, used by CI) shrinks every iteration
/// count so the bench finishes in well under a second while still running
/// every correctness/allocation assertion.
fn smoke() -> bool {
    std::env::var_os("PIER_BENCH_SMOKE").is_some()
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Run `op` `iters` times: nanoseconds and allocations per run.
fn measure(iters: u64, mut op: impl FnMut(u64)) -> (f64, f64) {
    let (before, t0) = (allocations(), Instant::now());
    for i in 0..iters {
        op(i);
    }
    let per = |total: u128| total as f64 / iters as f64;
    (
        per(t0.elapsed().as_nanos()),
        per(u128::from(allocations() - before)),
    )
}

fn main() {
    println!("# micro-measurements: query-processor hot paths");
    let report = |metric, value| emit_metric("dht_ops", metric, value);
    let iters: u64 = if smoke() { 2_000 } else { 200_000 };

    let tuple = Tuple::new(
        "events",
        vec![
            ("src", Value::Str("10.1.2.3".into())),
            ("port", Value::Int(443)),
        ],
    );
    let cols = vec!["src".to_string(), "port".to_string()];
    let (key_ns, _) = measure(iters, |_| {
        std::hint::black_box(std::hint::black_box(&tuple).partition_key(&cols));
    });
    report("tuple_partition_key_ns_per_op", key_ns);

    // Zero-copy values: cloning a tuple (schema + values both behind Arcs,
    // string/bytes payloads shared) must be allocation-free.
    let heavy = Tuple::new(
        "events",
        vec![
            ("src", Value::str("10.200.30.40")),
            ("payload", Value::bytes(vec![0u8; 256])),
            ("port", Value::Int(443)),
        ],
    );
    let (clone_ns, clone_allocs) = measure(iters, |_| {
        std::hint::black_box(heavy.clone());
    });
    report("tuple_clone_ns_per_op", clone_ns);
    report("tuple_clone_allocs_per_op", clone_allocs);
    assert!(clone_allocs == 0.0, "Tuple::clone must not allocate");

    // Symmetric-hash-join push over pre-built 64-row probe chunks (the
    // default `batch_max_tuples`): left rows carry even key residues and
    // right rows odd ones, so the loop measures the steady-state
    // probe+insert without an ever-growing result set, and the join is
    // restarted every 512 pushes to bound its state.  The output is
    // *gathered* into joined typed chunks — no per-row tuple is ever built —
    // and the allocation count is what shows it: the only steady-state
    // allocations are the per-push output columns and table growth,
    // amortised over the chunk.
    const JOIN_CHUNK_ROWS: i64 = 64;
    let join_chunks: Vec<(JoinSide, pier_core::tuple::ColumnChunk)> = (0..64i64)
        .map(|c| {
            let rows = (c * JOIN_CHUNK_ROWS..(c + 1) * JOIN_CHUNK_ROWS).map(|i| i * 2 + c % 2);
            let (side, rows): (JoinSide, Vec<Tuple>) = if c % 2 == 0 {
                let row =
                    |i| Tuple::new("r", vec![("a", Value::Int(i)), ("b", Value::Int(i % 64))]);
                (JoinSide::Left, rows.map(row).collect())
            } else {
                let row =
                    |i| Tuple::new("s", vec![("b", Value::Int(i % 64)), ("c", Value::Int(i))]);
                (JoinSide::Right, rows.map(row).collect())
            };
            (side, TupleBatch::new(rows).chunks()[0].clone())
        })
        .collect();
    let key = vec!["b".to_string()];
    let mut join = SymmetricHashJoin::new(key.clone(), key.clone(), "rs");
    let (_, join_allocs) = measure(iters + iters / 20, |i| {
        if i % 512 == 0 {
            join = SymmetricHashJoin::new(key.clone(), key.clone(), "rs");
        }
        let (side, chunk) = &join_chunks[(i % join_chunks.len() as u64) as usize];
        std::hint::black_box(join.push_chunk_batch(*side, chunk).len());
    });
    let join_allocs_per_row = join_allocs / JOIN_CHUNK_ROWS as f64;
    report(
        "symmetric_hash_join_push_allocs_per_row",
        join_allocs_per_row,
    );
    assert!(
        join_allocs_per_row < 4.0,
        "gather join must not materialise per-row tuples"
    );

    // Columnar batch scan vs row-major per-tuple dispatch: evaluate one
    // selection predicate over a 1024-row batch.  The row-major baseline
    // walks materialised tuples through the interpreted `Expr::matches`
    // (per-row name resolution); the columnar path compiles the predicate
    // against the chunk schema once and scans the columns by index.
    let rows: Vec<Tuple> = (0..1024i64)
        .map(|i| {
            Tuple::new(
                "events",
                vec![
                    (
                        "src",
                        Value::Str(format!("10.0.{}.{}", i % 4, i % 256).into()),
                    ),
                    ("port", Value::Int(i % 1024)),
                    ("len", Value::Int(40 + i % 1400)),
                ],
            )
        })
        .collect();
    let batch = TupleBatch::new(rows.clone());
    let pred = Expr::all(vec![
        Expr::cmp(CmpOp::Ge, Expr::col("port"), Expr::lit(256i64)),
        Expr::cmp(CmpOp::Lt, Expr::col("len"), Expr::lit(1200i64)),
    ]);
    let scans: u64 = if smoke() { 50 } else { 2_000 };
    let per_row = |per_scan: f64| per_scan / rows.len() as f64;
    let mut hits_row = 0u64;
    let (row_major_ns, _) = measure(scans, |_| {
        hits_row += rows.iter().filter(|t| pred.matches(t)).count() as u64;
    });
    let chunk = &batch.chunks()[0];
    let compiled = pred.compile(chunk.schema());
    let mut hits_col = 0u64;
    let (columnar_ns, _) = measure(scans, |_| {
        let hit = |r: &usize| compiled.matches_row(chunk, *r);
        hits_col += (0..chunk.rows()).filter(hit).count() as u64;
    });
    assert_eq!(hits_row, hits_col, "both scans must agree");
    report("batch_scan_row_major_ns_per_row", per_row(row_major_ns));
    report("batch_scan_columnar_ns_per_row", per_row(columnar_ns));
    report("batch_scan_columnar_speedup", row_major_ns / columnar_ns);

    // Chunk-to-chunk pipeline scan: selection → projection over the same
    // 1024-row single-schema batch, the selection emitting one filtered
    // chunk per input chunk and the projection gathering whole columns.
    // The chunked survivor path materialises zero per-row tuples, so its
    // allocations per row are a small constant divided by the batch size.
    let mut pipeline = Pipeline::new(vec![
        Box::new(Selection::new(pred.clone())) as Box<dyn LocalOperator + Send>,
        Box::new(Projection::new(vec!["src".into(), "len".into()])),
    ]);
    let mut survivors = 0u64;
    let (_, pipeline_allocs) = measure(scans, |_| {
        survivors += pipeline.push_batch(&batch).len() as u64;
    });
    assert_eq!(survivors, hits_row, "the pipeline keeps what the scan kept");
    report(
        "pipeline_batch_scan_allocs_per_row",
        per_row(pipeline_allocs),
    );
    assert!(
        per_row(pipeline_allocs) < 0.25,
        "chunked survivor path must not materialise per-row tuples"
    );

    // Wire accounting of a 32-tuple batch vs the same tuples shipped
    // individually (the schema-amortisation the columnar batching buys).
    let batch = TupleBatch::new(
        (0..32)
            .map(|i| {
                Tuple::new(
                    "events",
                    vec![
                        ("src", Value::Str(format!("10.0.0.{i}").into())),
                        ("port", Value::Int(i)),
                    ],
                )
            })
            .collect(),
    );
    let unbatched: usize = batch.iter().map(|t| t.wire_size()).sum();
    report(
        "tuple_batch_wire_ratio_32",
        unbatched as f64 / batch.wire_size() as f64,
    );
}
