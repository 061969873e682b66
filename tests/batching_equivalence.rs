//! Batched transfer, held to exact answers.  Every hop ships coalesced
//! rows — `TupleBatch` / `PutBatch` on the rehash path, one numbered pane
//! shipment per tick on the aggregation path — and the netmon workload
//! still answers with what an oracle built here from the rows it added
//! says: the snapshot aggregate's per-`src` counts, the rehash join's hash
//! join of the published tables, the continuous query's per-window totals.
//! The rehash buffer flushes every `rehash::MAX_TUPLES` rows however the
//! rows were chunked, and the operators see no chunk boundaries (arrival
//! batches against one-row arrivals, chunk-wise join probes, gather joins).
//!
//! Eight constant-varied tenants sharing one group are held against the
//! same tenants run independently in `tests/mqo_sharing.rs`.

use pier::harness::continuous::{continuous_netmon, ContinuousNetmonConfig};
use pier::harness::{Cluster, ClusterConfig};
use pier::qp::{sqlish, JoinSpec, OpGraph, PlanBuilder, SinkSpec, SourceSpec, Tuple, Value};
use std::collections::{BTreeMap, HashMap};

mod common;
use common::seeded;

/// Sorted display strings — a canonical multiset representation.
fn multiset(tuples: &[Tuple]) -> Vec<String> {
    let mut rows: Vec<String> = tuples
        .iter()
        .map(std::string::ToString::to_string)
        .collect();
    rows.sort();
    rows
}

/// The Figure-2 snapshot query (per-source counts via hierarchical
/// aggregation) over node-local event logs counts every row the test
/// added, per `src`.
#[test]
fn netmon_snapshot_counts_every_added_row_per_src() {
    let mut cluster = Cluster::start(&ClusterConfig::lan(14, seeded(707)));
    // Enough distinct sources that every flush ships a real pile of
    // per-group partials in its one shipment per hop.
    let mut added: BTreeMap<String, i64> = BTreeMap::new();
    for i in 0..cluster.len() {
        for j in 0..24 {
            let src = format!("10.0.0.{}", j % 12);
            *added.entry(src.clone()).or_default() += 1;
            let addr = cluster.addr(i);
            cluster.add_local_row(
                addr,
                "events",
                Tuple::new(
                    "events",
                    vec![
                        ("src", Value::Str(src.into())),
                        ("port", Value::Int((i * 24 + j) as i64)),
                    ],
                ),
            );
        }
    }
    let proxy = cluster.addr(1);
    let plan = sqlish::compile(
        "SELECT src, COUNT(*) FROM events GROUP BY src",
        proxy,
        20_000_000,
    )
    .expect("snapshot netmon query must compile");
    let outcome = cluster.run_query(proxy, plan);
    let mut counted: Vec<(String, i64)> = outcome
        .tuples()
        .iter()
        .map(|t| {
            let src = t.get("src").and_then(Value::as_str).expect("a src");
            let count = t.get("count").and_then(Value::as_i64).expect("a count");
            (src.to_string(), count)
        })
        .collect();
    counted.sort();
    let added: Vec<(String, i64)> = added.into_iter().collect();
    assert_eq!(counted, added, "one row per src, counting every added row");
}

/// A rehash (Put/Exchange) symmetric-hash join answers with exactly the
/// hash join of the published `r` and `s`, built here.
#[test]
fn rehash_join_equals_a_hash_join_of_the_published_tables() {
    let mut cluster = Cluster::start(&ClusterConfig::lan(12, seeded(909)));
    let key = vec!["b".to_string()];
    let r: Vec<Tuple> = (0..40i64)
        .map(|i| Tuple::new("r", vec![("a", Value::Int(i)), ("b", Value::Int(i % 8))]))
        .collect();
    let s: Vec<Tuple> = (0..30i64)
        .map(|i| {
            let fields = vec![("b", Value::Int(i % 8)), ("c", Value::Int(i * 10))];
            Tuple::new("s", fields)
        })
        .collect();
    for (i, row) in r.iter().enumerate() {
        let from = cluster.addr(i % cluster.len());
        cluster.publish(from, "r", &key, row.clone());
    }
    for (i, row) in s.iter().enumerate() {
        let from = cluster.addr((i + 5) % cluster.len());
        cluster.publish(from, "s", &key, row.clone());
    }
    cluster.settle(3_000_000);
    let proxy = cluster.addr(0);
    let ns = "q.join".to_string();
    let rehash = |id: u32, table: &str| OpGraph {
        id,
        source: SourceSpec::Table {
            namespace: table.into(),
        },
        join: None,
        ops: vec![],
        sink: SinkSpec::Rehash {
            namespace: ns.clone(),
            key_cols: key.clone(),
        },
    };
    let plan = PlanBuilder::new(proxy)
        .timeout(20_000_000)
        .opgraph(rehash(0, "r"))
        .opgraph(rehash(1, "s"))
        .opgraph(OpGraph {
            id: 2,
            source: SourceSpec::Table {
                namespace: ns.clone(),
            },
            join: Some(JoinSpec {
                left_table: "r".into(),
                right_table: "s".into(),
                left_key: key.clone(),
                right_key: key.clone(),
                output_table: "r_s".into(),
            }),
            ops: vec![],
            sink: SinkSpec::ToProxy,
        })
        .build();
    let outcome = cluster.run_query(proxy, plan);

    // The oracle: build on `s`, probe with `r`.
    let b = |t: &Tuple| t.get("b").and_then(Value::as_i64).expect("a b");
    let mut build: HashMap<i64, Vec<&Tuple>> = HashMap::new();
    for row in &s {
        build.entry(b(row)).or_default().push(row);
    }
    let joined: Vec<Tuple> = (r.iter())
        .flat_map(|l| {
            build
                .get(&b(l))
                .into_iter()
                .flatten()
                .map(|r| l.join_with(r, "r_s"))
        })
        .collect();
    assert_eq!(
        joined.len(),
        150,
        "every `b` matches 5 rows of r and 3–4 of s"
    );
    assert_eq!(multiset(&outcome.tuples()), multiset(&joined));
}

/// The continuous (standing) netmon query: every window the stream
/// generated rows into — the half-filled first and last ones too — totals
/// exactly those rows, and no other window is emitted.
#[test]
fn continuous_netmon_windows_total_what_was_generated() {
    let out = continuous_netmon(&ContinuousNetmonConfig::steady(10, 12, seeded(42)));
    let emitted: Vec<_> = out.windows.keys().collect();
    assert_eq!(emitted, out.generated.keys().collect::<Vec<_>>());
    assert!(emitted.len() >= 12, "a 12 s stream, 1 s slide: {emitted:?}");
    for (&window, &generated) in &out.generated {
        let delivered = out.total_for(window);
        assert_eq!(delivered, generated as i64, "window {window:?}");
    }
}

/// The rehash buffer's policy is stated per appended row, so a plan installed
/// on a node that already holds N rows — scanned as **one** chunk — ships
/// them exactly as N single-row feeds would: a flush the moment the buffer
/// holds `rehash::MAX_TUPLES`, the remainder left behind one armed
/// `BatchFlush`.  Driven by hand on a bare node: its ring peer owns every
/// rehash key, so each flush is one DHT put message whose rows can be counted.
#[test]
fn an_install_time_scan_flushes_the_rehash_buffer_every_batch_max_tuples() {
    use pier::dht::{DhtMessage, Id, NodeRef};
    use pier::qp::rehash::MAX_TUPLES as MAX;
    use pier::qp::{Dissemination, PierConfig, PierMsg, PierNode, PierTimer};
    use pier::runtime::{Action, Context, NodeAddr, Program};

    // Rows carried by each DHT put message among `actions`, in send order,
    // and the number of `BatchFlush` timers armed.
    fn puts_and_flush_timers<O>(
        actions: Vec<Action<PierMsg, PierTimer, O>>,
    ) -> (Vec<usize>, usize) {
        let mut puts = Vec::new();
        let mut timers = 0;
        for action in actions {
            match action {
                Action::Send {
                    msg: PierMsg::Dht(DhtMessage::PutBatch { entries, .. }),
                    ..
                } => puts.push(entries.iter().map(|(_, v, _)| v.tuple_count()).sum()),
                Action::Send {
                    msg: PierMsg::Dht(DhtMessage::PutRequest { value, .. }),
                    ..
                } => puts.push(value.tuple_count()),
                Action::SetTimer {
                    timer: PierTimer::BatchFlush,
                    ..
                } => timers += 1,
                _ => {}
            }
        }
        (puts, timers)
    }

    // `me` owns the single identifier 1; the peer owns the rest of the ring.
    let me = NodeRef {
        id: Id(1),
        addr: NodeAddr(0),
    };
    let peer = NodeRef {
        id: Id(0),
        addr: NodeAddr(1),
    };
    for held in [0, 1, MAX - 1, MAX, MAX + 1, 200] {
        let mut node = PierNode::with_static_ring(me, &[me, peer], PierConfig::default());
        for i in 0..held as i64 {
            let row = Tuple::new("r", vec![("a", Value::Int(i)), ("b", Value::Int(i % 8))]);
            node.add_local_row("r", row);
        }
        let plan = PlanBuilder::new(me.addr)
            .dissemination(Dissemination::Local)
            .opgraph(OpGraph {
                id: 0,
                source: SourceSpec::Table {
                    namespace: "r".into(),
                },
                join: None,
                ops: vec![],
                sink: SinkSpec::Rehash {
                    namespace: "q.join".into(),
                    key_cols: vec!["b".into()],
                },
            })
            .build();
        let mut ctx = Context::new(1_000_000, me.addr);
        node.submit_query(&mut ctx, plan);
        let (early, armed) = puts_and_flush_timers(ctx.into_actions());
        assert_eq!(
            early,
            vec![MAX; held / MAX],
            "{held} rows held: every early flush ships exactly {MAX}"
        );
        assert_eq!(armed, usize::from(held > 0), "{held} rows held");

        // The remainder waits for the tick, and is all the tick ships.
        let mut ctx = Context::new(1_050_000, me.addr);
        node.on_timer(&mut ctx, PierTimer::BatchFlush);
        let (late, _) = puts_and_flush_timers(ctx.into_actions());
        let remainder: Vec<usize> = Some(held % MAX).filter(|r| *r > 0).into_iter().collect();
        assert_eq!(late, remainder, "{held} rows held");
    }
}

/// The netmon event stream used by the operator-level equivalence test.
fn netmon_stream(n: i64) -> Vec<Tuple> {
    (0..n)
        .map(|i| {
            Tuple::new(
                "events",
                vec![
                    ("src", Value::Str(format!("10.0.0.{}", i % 9).into())),
                    ("port", Value::Int(i % 1024)),
                    ("len", Value::Int(40 + (i * 37) % 1400)),
                ],
            )
        })
        .collect()
}

/// Chunk boundaries are invisible to the operator path: the netmon workload
/// arriving in DHT-transfer-sized batches yields exactly the rows it yields
/// arriving one tuple at a time (one-row batches — what a lone published
/// row delivers) — filter, project and aggregate alike.
#[test]
fn arrival_batches_match_single_tuple_arrivals_on_the_operator_path() {
    use pier::qp::{
        AggFunc, CmpOp, Expr, GroupBy, LocalOperator, Pipeline, Projection, Selection, TupleBatch,
    };
    let rows = netmon_stream(2_000);
    let mk = || {
        Pipeline::new(vec![
            Box::new(Selection::new(Expr::cmp(
                CmpOp::Lt,
                Expr::col("port"),
                Expr::lit(768i64),
            ))) as Box<dyn LocalOperator + Send>,
            Box::new(Projection::new(vec!["src".into(), "len".into()])),
            Box::new(GroupBy::new(
                vec!["src".into()],
                vec![AggFunc::Count, AggFunc::Sum("len".into())],
                "per_src",
            )),
        ])
    };
    let mut per_tuple = mk();
    let mut batched = mk();
    let mut streamed = Vec::new();
    for t in rows.iter().cloned() {
        streamed.extend(
            per_tuple
                .push_batch(&TupleBatch::new(vec![t]))
                .into_tuples(),
        );
    }
    // Feed the same stream as DHT-arrival-sized batches (64,
    // `rehash::MAX_TUPLES`), as the executor's PutBatch receive path would.
    let mut batch_out = Vec::new();
    for window in rows.chunks(64) {
        batch_out.extend(
            batched
                .push_batch(&TupleBatch::new(window.to_vec()))
                .into_tuples(),
        );
    }
    assert_eq!(multiset(&batch_out), multiset(&streamed));
    let flushed_batched = batched.flush();
    assert!(!flushed_batched.is_empty(), "group-by must produce groups");
    assert_eq!(multiset(&flushed_batched), multiset(&per_tuple.flush()));
}

/// Multi-stage chunk-to-chunk execution over **mixed-schema** batches: the
/// stream interleaves two shapes of `events` rows (one with an extra
/// column) plus rows of an unrelated table that the selection must discard
/// for lacking the filtered column — exercising the per-run row-major
/// escape hatch between every stage.  48-row arrival batches + `flush` must
/// equal one-row arrival batches + `flush` exactly.
#[test]
fn multi_stage_pipeline_is_chunking_invariant_on_mixed_schema_batches() {
    use pier::qp::{
        AggFunc, CmpOp, Expr, GroupBy, LocalOperator, Pipeline, Projection, Selection, TupleBatch,
    };
    let rows: Vec<Tuple> = (0..900)
        .map(|i| match i % 4 {
            0 => Tuple::new(
                "events",
                vec![
                    ("src", Value::Str(format!("10.0.0.{}", i % 6).into())),
                    ("port", Value::Int(i % 1024)),
                    ("len", Value::Int(40 + (i * 13) % 1400)),
                    ("flagged", Value::Bool(i % 5 == 0)),
                ],
            ),
            3 => Tuple::new("audit", vec![("note", Value::Str("skip".into()))]),
            _ => Tuple::new(
                "events",
                vec![
                    ("src", Value::Str(format!("10.0.0.{}", i % 6).into())),
                    ("port", Value::Int(i % 1024)),
                    ("len", Value::Int(40 + (i * 13) % 1400)),
                ],
            ),
        })
        .collect();
    let mk = || {
        Pipeline::new(vec![
            Box::new(Selection::new(Expr::cmp(
                CmpOp::Lt,
                Expr::col("port"),
                Expr::lit(700i64),
            ))) as Box<dyn LocalOperator + Send>,
            Box::new(Projection::new(vec!["src".into(), "len".into()])),
            Box::new(GroupBy::new(
                vec!["src".into()],
                vec![AggFunc::Count, AggFunc::Avg("len".into())],
                "per_src",
            )),
        ])
    };
    let mut per_tuple = mk();
    let mut chunked = mk();
    let mut streamed = Vec::new();
    for t in rows.iter().cloned() {
        streamed.extend(
            per_tuple
                .push_batch(&TupleBatch::new(vec![t]))
                .into_tuples(),
        );
    }
    let mut batch_out = Vec::new();
    for window in rows.chunks(48) {
        let batch = TupleBatch::new(window.to_vec());
        assert!(
            batch.chunks().len() > 1,
            "the workload must actually interleave schemas"
        );
        batch_out.extend(chunked.push_batch(&batch).into_tuples());
    }
    assert_eq!(multiset(&batch_out), multiset(&streamed));
    let flushed = chunked.flush();
    assert!(!flushed.is_empty());
    assert_eq!(multiset(&flushed), multiset(&per_tuple.flush()));
}

/// Chunk-wise probes of the symmetric-hash join (the rehash-join arrival
/// batches) produce the same join-result multiset as single-tuple probes —
/// the nested-loop reference's — under interleaved mixed-table arrival
/// batches.
#[test]
fn join_chunk_probe_matches_single_tuple_probe_on_netmon_rehash() {
    use pier::qp::{nested_loop_join, JoinSide, SymmetricHashJoin, TupleBatch};
    let flows: Vec<Tuple> = (0..300)
        .map(|i| {
            Tuple::new(
                "flows",
                vec![
                    ("src", Value::Str(format!("10.0.0.{}", i % 9).into())),
                    ("bytes", Value::Int(i * 10)),
                ],
            )
        })
        .collect();
    let blocked: Vec<Tuple> = (0..60)
        .map(|i| {
            Tuple::new(
                "blocked",
                vec![("src", Value::Str(format!("10.0.0.{}", i % 12).into()))],
            )
        })
        .collect();
    let key = vec!["src".to_string()];
    let mut per_tuple = SymmetricHashJoin::new(key.clone(), key.clone(), "hits");
    let mut chunked = SymmetricHashJoin::new(key.clone(), key.clone(), "hits");
    let mut expected = Vec::new();
    for t in &flows {
        expected.extend(push_one(&mut per_tuple, JoinSide::Left, t));
    }
    for t in &blocked {
        expected.extend(push_one(&mut per_tuple, JoinSide::Right, t));
    }
    assert_eq!(
        multiset(&expected),
        multiset(&nested_loop_join(&flows, &blocked, &key, &key, "hits"))
    );
    // Mixed-schema batches: runs of flows and blocked interleave, so the
    // columnar batch degrades to per-run chunks — the escape hatch path.
    let mut mixed: Vec<(JoinSide, Tuple)> = Vec::new();
    for (i, t) in flows.iter().enumerate() {
        mixed.push((JoinSide::Left, t.clone()));
        if i % 5 == 0 && i / 5 < blocked.len() {
            mixed.push((JoinSide::Right, blocked[i / 5].clone()));
        }
    }
    let mut got = Vec::new();
    for window in mixed.chunks(50) {
        // Within a window, group contiguous same-side runs as the executor's
        // per-destination buffers would.
        let mut run: Vec<Tuple> = Vec::new();
        let mut run_side = None;
        for (side, t) in window {
            match run_side {
                Some(s) if s == *side => run.push(t.clone()),
                Some(s) => {
                    for chunk in TupleBatch::new(std::mem::take(&mut run)).chunks() {
                        got.extend(chunked.push_chunk_batch(s, chunk).into_tuples());
                    }
                    run_side = Some(*side);
                    run.push(t.clone());
                }
                None => {
                    run_side = Some(*side);
                    run.push(t.clone());
                }
            }
        }
        if let Some(s) = run_side {
            for chunk in TupleBatch::new(run).chunks() {
                got.extend(chunked.push_chunk_batch(s, chunk).into_tuples());
            }
        }
    }
    assert_eq!(multiset(&got), multiset(&expected));
    assert!(!got.is_empty());
    assert_eq!(chunked.state_size(), per_tuple.state_size());
}

/// The gather-based `push_chunk_batch`, which emits joined **typed chunks**
/// directly instead of materialising row tuples, produces the same result
/// multiset fed 64-row chunks as fed one-row chunks on the netmon rehash
/// workload, and its output chunks stay columnar:
/// every chunk carries the cached joined schema and the gathered key column
/// keeps its dictionary layout end to end (no degrade to the reference
/// layout mid-join).
#[test]
fn gather_join_is_chunking_invariant_and_stays_typed() {
    use pier::qp::tuple::ColumnChunk;
    use pier::qp::{JoinSide, SymmetricHashJoin, TupleBatch};
    // Netmon rehash shape: flows keyed by a low-cardinality source address
    // (dictionary column) joined against a blocked-source watchlist.
    let flows: Vec<Tuple> = (0..400)
        .map(|i| {
            Tuple::new(
                "flows",
                vec![
                    ("src", Value::Str(format!("10.0.0.{}", i % 11).into())),
                    ("bytes", Value::Int(i * 7)),
                ],
            )
        })
        .collect();
    let blocked: Vec<Tuple> = (0..40)
        .map(|i| {
            Tuple::new(
                "blocked",
                vec![
                    ("src", Value::Str(format!("10.0.0.{}", i % 14).into())),
                    ("rule", Value::Int(i % 5)),
                ],
            )
        })
        .collect();
    let key = vec!["src".to_string()];
    let mut per_tuple = SymmetricHashJoin::new(key.clone(), key.clone(), "hits");
    let mut gathered = SymmetricHashJoin::new(key.clone(), key, "hits");
    let mut expected = Vec::new();
    for t in &flows {
        expected.extend(push_one(&mut per_tuple, JoinSide::Left, t));
    }
    for t in &blocked {
        expected.extend(push_one(&mut per_tuple, JoinSide::Right, t));
    }
    let mut got: Vec<Tuple> = Vec::new();
    let mut out_chunks: Vec<ColumnChunk> = Vec::new();
    for (side, rows) in [(JoinSide::Left, &flows), (JoinSide::Right, &blocked)] {
        for window in rows.chunks(64) {
            for chunk in TupleBatch::new(window.to_vec()).chunks() {
                let out = gathered.push_chunk_batch(side, chunk);
                got.extend(out.iter());
                out_chunks.extend(out.chunks().iter().cloned());
            }
        }
    }
    assert_eq!(multiset(&got), multiset(&expected));
    assert!(!got.is_empty());
    assert_eq!(gathered.state_size(), per_tuple.state_size());
    // Typed all the way through: each emitted chunk shares one joined
    // schema and its gathered key column is still dictionary-encoded.
    let joined_schema = out_chunks[0].schema().clone();
    for chunk in &out_chunks {
        assert!(
            std::sync::Arc::ptr_eq(chunk.schema(), &joined_schema),
            "joined schema must be cached and shared across output chunks"
        );
        let key_idx = chunk
            .schema()
            .position("src")
            .expect("joined schema keeps the key column");
        assert_eq!(
            chunk.col(key_idx).layout_name(),
            "dict",
            "gathering a dictionary column must preserve its layout"
        );
    }
}

/// Same equivalence on the mqo **shared-workload** shape: many tenants'
/// per-flow streams share one join against a slowly-changing reference
/// table, with mixed column types (ints, floats with nulls, dictionary
/// strings).  100-row probe chunks must produce the multiset one-row probe
/// chunks produce, even when they match rows spread over many stored
/// chunks.
#[test]
fn gather_join_is_chunking_invariant_on_mqo_shared_workload() {
    use pier::qp::{JoinSide, SymmetricHashJoin, TupleBatch};
    let packets: Vec<Tuple> = (0..500)
        .map(|i| {
            let mut cols = vec![
                ("flow", Value::Int(i % 23)),
                (
                    "proto",
                    Value::Str(["tcp", "udp", "icmp"][i as usize % 3].into()),
                ),
            ];
            // Sparse measurement column: nulls interleave with floats.
            if i % 4 == 0 {
                cols.push(("rtt", Value::Null));
            } else {
                cols.push(("rtt", Value::Float(i as f64 / 8.0)));
            }
            Tuple::new("packets", cols)
        })
        .collect();
    let flows: Vec<Tuple> = (0..23)
        .map(|i| {
            Tuple::new(
                "flowinfo",
                vec![("flow", Value::Int(i)), ("tenant", Value::Int(i % 4))],
            )
        })
        .collect();
    let key = vec!["flow".to_string()];
    let mut per_tuple = SymmetricHashJoin::new(key.clone(), key.clone(), "enriched");
    let mut gathered = SymmetricHashJoin::new(key.clone(), key, "enriched");
    let mut expected = Vec::new();
    let mut got = Vec::new();
    // Interleave small reference-table updates between probe batches so
    // probe chunks hit stored chunks on both sides.
    let mut fi = flows.iter().cloned();
    for (round, window) in packets.chunks(100).enumerate() {
        if round % 2 == 0 {
            for t in fi.by_ref().take(8) {
                expected.extend(push_one(&mut per_tuple, JoinSide::Right, &t));
                got.extend(push_one(&mut gathered, JoinSide::Right, &t));
            }
        }
        for t in window {
            expected.extend(push_one(&mut per_tuple, JoinSide::Left, t));
        }
        for chunk in TupleBatch::new(window.to_vec()).chunks() {
            got.extend(
                gathered
                    .push_chunk_batch(JoinSide::Left, chunk)
                    .into_tuples(),
            );
        }
    }
    assert_eq!(multiset(&got), multiset(&expected));
    assert!(!got.is_empty());
    assert_eq!(gathered.state_size(), per_tuple.state_size());
}

/// A single-tuple arrival at the join: a one-row chunk.
fn push_one(
    join: &mut pier::qp::SymmetricHashJoin,
    side: pier::qp::JoinSide,
    t: &Tuple,
) -> Vec<Tuple> {
    let chunk = pier::qp::tuple::ColumnChunk::from_tuple(t);
    join.push_chunk_batch(side, &chunk).into_tuples()
}
