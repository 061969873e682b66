//! Allocation bars of the hot paths, counted by a counting allocator:
//! cloning a tuple and recording telemetry allocate nothing; a streamed
//! row allocates nothing on its way into a pane — the ingest stage refills
//! the chunk it kept, and a known group's accumulator holds its one
//! partial inline — and neither does a relayed partial for a group its
//! pane holds; the gather join, the chunked selection → projection scan
//! and the shared predicate-index scan allocate per chunk, never per row.
//! A count is a function of the code, so each bar is a fixed threshold in
//! debug and release builds alike; what the same paths cost in time is the
//! end-to-end benchmark's probes.

// The counting allocator delegates to the system allocator verbatim and
// only adds to a thread-local counter, so the alloc/dealloc contracts are
// inherited.
#![allow(unsafe_code)]

use pier::cq::{CqBudget, WindowSpec, WindowStore};
use pier::mqo::PredicateIndex;
use pier::qp::window_engine::QUERY_NAMES;
use pier::qp::{
    AggFunc, AggState, CmpOp, ColumnChunk, EngineSpec, Expr, GroupAgg, JoinSide, LocalOperator,
    PartialCodec, Pipeline, Projection, Selection, SpanRecord, SymmetricHashJoin, Telemetry,
    TelemetryConfig, Tuple, TupleBatch, Value, WindowEngine,
};
use pier::telemetry::SPAN_SLOTS;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    /// Allocations this thread has made (tests run on parallel threads).
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded to the system allocator unchanged (the
// default `realloc` allocates through `alloc`, so it is counted); the
// counter is a `const`-initialised thread-local `Cell` without a destructor,
// so touching it neither allocates nor outlives the thread.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Run `op` `iters` times; the allocations it made per run.
fn allocs_per_run(iters: u64, mut op: impl FnMut(u64)) -> f64 {
    let before = ALLOCATIONS.with(Cell::get);
    (0..iters).for_each(&mut op);
    (ALLOCATIONS.with(Cell::get) - before) as f64 / iters as f64
}

/// One 1024-row chunk of `table(src, port, len)`, `src` drawn from `src(i)`.
fn packets(table: &str, src: impl Fn(i64) -> String) -> TupleBatch {
    let row = |i| {
        let len = Value::Int(40 + i % 1400);
        let cols = [
            ("src", Value::Str(src(i).into())),
            ("port", Value::Int(i % 1024)),
            ("len", len),
        ];
        Tuple::new(table, cols.into())
    };
    TupleBatch::new((0..1024).map(row).collect())
}

/// Schema and values sit behind `Arc`s and payloads are shared.
#[test]
fn tuple_clone_does_not_allocate() {
    let cols = [
        ("src", Value::str("10.2.3.4")),
        ("payload", Value::bytes(vec![0; 256])),
    ];
    let heavy = Tuple::new("events", cols.into());
    let allocs = allocs_per_run(2_000, |_| {
        std::hint::black_box(heavy.clone());
    });
    assert!(allocs == 0.0, "Tuple::clone must not allocate ({allocs})");
}

/// A record is plain numbers: once the ring is full, recording an event or
/// a span evicts the oldest into the slot it frees.
#[test]
fn recording_an_event_or_a_span_on_a_full_ring_does_not_allocate() {
    let tel = Telemetry::from_config(&TelemetryConfig {
        capacity: 64,
        ..TelemetryConfig::enabled()
    });
    let event = |i| {
        let names = &["queries", "attempt", "delay"];
        SpanRecord::event("lease.backoff", 7, names, [2, i, 3_000_000])
    };
    let span = |i| SpanRecord {
        start: i,
        end: i,
        ordinal: 0,
        trace_id: 9,
        span_id: 100 + i,
        parent: 9,
        query_id: 7,
        stage: "window.flush",
        names: SPAN_SLOTS,
        values: [i, 64, 1],
    };
    (0..64).for_each(|i| tel.record(event(i)));
    let events = allocs_per_run(2_000, |i| {
        tel.set_now(i);
        tel.record(event(i));
    });
    let spans = allocs_per_run(2_000, |i| tel.record(span(i)));
    assert_eq!(tel.with(|h| h.dropped()), Some(4_000));
    assert!(events == 0.0, "an event allocated {events} times");
    assert!(spans == 0.0, "a span allocated {spans} times");
}

const SEC: u64 = 1_000_000;

/// Row `i` of a stream of `packets(src, ts, len)`: sixteen sources, event
/// time `ts`.
fn packet(i: i64, ts: u64) -> Tuple {
    let cols = [
        ("src", Value::Str(format!("10.0.0.{}", i % 16).into())),
        ("ts", Value::Int(ts as i64)),
        ("len", Value::Int(40 + i % 1400)),
    ];
    Tuple::new("packets", cols.into())
}

/// What `PierNode::ingest` does to its stage between drains: a cleared
/// batch keeps its chunk's typed columns (the dictionary's index too), and
/// refilling it with rows of that shape grows nothing.
#[test]
fn refilling_a_cleared_stage_of_one_schema_does_not_allocate() {
    let fills: Vec<Vec<Tuple>> = (0..8)
        .map(|f| (0..64).map(|i| packet(i + f, i as u64)).collect())
        .collect();
    let mut stage = TupleBatch::default();
    fills[0].iter().for_each(|t| stage.push_tuple(t.clone()));
    let allocs = allocs_per_run(200, |f| {
        stage.clear();
        let fill = &fills[f as usize % fills.len()];
        fill.iter().for_each(|t| stage.push_tuple(t.clone()));
    });
    assert_eq!(stage.len(), 64);
    assert!(allocs == 0.0, "a refill allocated {allocs} times");
}

/// `SELECT src, COUNT(*) FROM packets GROUP BY src WINDOW 2s SLIDE 1s` on
/// event time `ts`: one aggregate.
fn count_by_src() -> EngineSpec {
    EngineSpec {
        tag: "q7".to_string(),
        namespace: "q7.windows".to_string(),
        root_key: "q7.root".to_string(),
        window: WindowSpec::sliding(2 * SEC, SEC),
        budget: CqBudget::default(),
        group_cols: vec!["src".to_string()],
        aggs: vec![AggFunc::Count],
        time_col: Some("ts".to_string()),
        min_lifetime: 0,
        names: QUERY_NAMES,
        emit_once: false,
        flat: false,
    }
}

/// A chunk of the pane that starts at second `pane` reaches groups the
/// store holds in the pane before: each group enters the new pane with an
/// accumulator whose one partial is inline, and the pane opens in the
/// buffers of the one the last tick closed.
#[test]
fn absorbing_known_groups_into_a_new_pane_does_not_allocate() {
    let chunk = |pane: u64| {
        let rows = (0..64).map(|i| packet(i, pane * SEC + i as u64)).collect();
        TupleBatch::new(rows).chunks()[0].clone()
    };
    let chunks: Vec<ColumnChunk> = (0..40).map(chunk).collect();
    let mut engine = WindowEngine::new(count_by_src());
    for (pane, chunk) in chunks[..3].iter().enumerate() {
        engine.absorb(chunk, None, pane as u64 * SEC);
    }
    assert_eq!(
        engine.tick(2 * SEC, false).panes,
        2,
        "the first window closes"
    );
    let mut allocs = 0.0;
    for pane in 3..chunks.len() as u64 {
        let chunk = &chunks[pane as usize];
        allocs += allocs_per_run(1, |_| engine.absorb(chunk, None, pane * SEC));
        // Close the pane before; its groups live on in this one.
        assert_eq!(engine.tick(pane * SEC, false).panes, 1);
    }
    assert!(
        allocs == 0.0,
        "absorbing into new panes allocated {allocs} times"
    );
}

/// A relayed partial for a group its pane already holds merges in place:
/// the layout is resolved, the group key goes into the codec's buffer,
/// and nothing is refused.
#[test]
fn absorbing_partials_of_held_groups_does_not_allocate() {
    let mut codec = PartialCodec::new("q7.wp".into(), vec!["src".into()], vec![AggFunc::Count]);
    let mut partials = codec.encoder();
    for g in 0..16 {
        let vals = [Value::Str(format!("10.0.0.{g}").into())];
        partials.push(3, &vals, &[AggState::Count(g + 1)]);
    }
    let chunk = partials.finish().expect("sixteen groups");
    let mut store: WindowStore<GroupAgg> =
        WindowStore::new(WindowSpec::tumbling(SEC), CqBudget::default());
    assert!(codec.absorb(&chunk, &mut store).is_empty());
    let allocs = allocs_per_run(200, |_| {
        assert!(codec.absorb(&chunk, &mut store).is_empty());
    });
    assert!(
        allocs == 0.0,
        "merging held groups allocated {allocs} times"
    );
    assert_eq!(store.total_groups(), 16);
}

/// The join gathers its output into typed chunks and builds no per-row
/// tuple.  Left keys are even and right keys odd, so each 64-row push
/// probes and inserts without a growing result; the join restarts every
/// 512 pushes to bound its state.
#[test]
fn gather_join_push_allocates_less_than_four_per_row() {
    let sides = [(JoinSide::Left, "r", "a"), (JoinSide::Right, "s", "c")];
    let chunks: Vec<_> = (0..64i64)
        .map(|c| {
            let (side, table, other) = sides[c as usize % 2];
            let row = |i: i64| {
                let cols = [(other, Value::Int(i)), ("b", Value::Int(i % 64))];
                Tuple::new(table, cols.into())
            };
            let rows = (c * 64..(c + 1) * 64).map(|i| row(i * 2 + c % 2));
            (side, TupleBatch::new(rows.collect()).chunks()[0].clone())
        })
        .collect();
    let key = vec!["b".to_string()];
    let mut join = SymmetricHashJoin::new(key.clone(), key.clone(), "rs");
    let allocs = allocs_per_run(2_100, |i| {
        if i % 512 == 0 {
            join = SymmetricHashJoin::new(key.clone(), key.clone(), "rs");
        }
        let (side, chunk) = &chunks[i as usize % chunks.len()];
        std::hint::black_box(join.push_chunk_batch(*side, chunk).len());
    });
    let per_row = allocs / 64.0;
    assert!(per_row < 4.0, "gather join: {per_row:.3} allocs/row");
}

/// The selection emits one filtered chunk and the projection gathers whole
/// columns; the pipeline keeps exactly what the compiled predicate keeps.
#[test]
fn chunked_pipeline_scan_allocates_less_than_a_quarter_per_row() {
    let batch = packets("events", |i| format!("10.0.{}.{}", i % 4, i % 256));
    let pred = Expr::all(vec![
        Expr::cmp(CmpOp::Ge, Expr::col("port"), Expr::lit(256i64)),
        Expr::cmp(CmpOp::Lt, Expr::col("len"), Expr::lit(1200i64)),
    ]);
    let chunk = &batch.chunks()[0];
    let compiled = pred.compile(chunk.schema());
    let hits = (0..1024)
        .filter(|r| compiled.matches_row(chunk, *r))
        .count();
    let mut pipeline = Pipeline::new(vec![
        Box::new(Selection::new(pred)) as Box<dyn LocalOperator + Send>,
        Box::new(Projection::new(vec!["src".into(), "len".into()])),
    ]);
    let mut kept = 0;
    let allocs = allocs_per_run(50, |_| kept += pipeline.push_batch(&batch).len());
    assert_eq!(kept, 50 * hits, "the pipeline keeps what the scan kept");
    let per_row = allocs / 1024.0;
    assert!(per_row < 0.25, "chunked scan: {per_row:.3} allocs/row");
}

/// One scan answers all 64 members and reuses its masks once the chunk's
/// schema is compiled.
#[test]
fn shared_predicate_index_scan_allocates_less_than_half_per_row() {
    let addr = |i: i64| format!("10.0.{}.{}", (i / 256) % 4, i % 256);
    let batch = packets("packets", addr);
    let chunk = &batch.chunks()[0];
    let mut index = PredicateIndex::new();
    for member in 0..64 {
        index.insert(member, Expr::eq("src", addr(member as i64).as_str()));
    }
    index.eval_chunk(chunk);
    let mut hits = 0;
    let allocs = allocs_per_run(20, |_| {
        index.eval_chunk(chunk);
        for member in 0..64 {
            hits += index.member_mask(member).expect("a member").count();
        }
    });
    assert_eq!(hits, 20 * 64, "each member's source occurs once");
    let per_row = allocs / 1024.0;
    assert!(per_row < 0.5, "shared scan: {per_row:.3} allocs/row");
}
