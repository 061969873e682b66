//! Property-based tests (proptest) on the core data structures and
//! invariants: ring-interval arithmetic, soft-state lifetimes, join and
//! aggregation equivalence with reference implementations, and PHT
//! range-query correctness.

use pier::cq::{
    CqBudget, SegmentLog, SegmentRecord, WindowAccumulator, WindowSegment, WindowSpec, WindowStore,
};
use pier::dht::id::Id;
use pier::dht::{ObjectManager, ObjectName};
use pier::pht::{MemoryStore, Pht};
use pier::qp::{
    nested_loop_join, AggFunc, AggState, GroupAgg, GroupBy, JoinSide, LocalOperator, PartialCodec,
    SymmetricHashJoin, Tuple, TupleBatch, Value, ValueRef,
};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// The piece lengths a drawn partition cuts its input at: empty pieces,
/// single rows, and the lengths around the eddy's re-draw stride (32) and
/// the ingest stage / `rehash::MAX_TUPLES` (64).
const PIECES: [usize; 7] = [0, 1, 31, 32, 33, 64, 65];

/// Cut `rows` into consecutive batches whose lengths are `PIECES[cuts[i]]`
/// (cycled).
fn cut(rows: &[Tuple], cuts: &[usize]) -> Vec<TupleBatch> {
    let mut out = Vec::new();
    let mut rest = rows;
    for &c in cuts.iter().cycle() {
        if rest.is_empty() {
            break;
        }
        let (piece, tail) = rest.split_at(PIECES[c].min(rest.len()));
        out.push(TupleBatch::new(piece.to_vec()));
        rest = tail;
    }
    out
}

/// The same rows as one batch, as all one-row batches, and cut by `cuts`.
fn chunkings(rows: &[Tuple], cuts: &[usize]) -> [Vec<TupleBatch>; 3] {
    // All-empty pieces would never consume the input: end each cycle with
    // a one-row piece.
    let mut cuts = cuts.to_vec();
    cuts.push(1);
    [
        vec![TupleBatch::new(rows.to_vec())],
        rows.iter()
            .map(|t| TupleBatch::new(vec![t.clone()]))
            .collect(),
        cut(rows, &cuts),
    ]
}

/// Toy mergeable sum used by the window-state properties.
#[derive(Debug, Clone, PartialEq)]
struct PSum(i64);

impl WindowAccumulator for PSum {
    fn merge(&mut self, other: &Self) {
        self.0 += other.0;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Ring-interval membership: exactly one of `x ∈ (a, b]` and `x ∈ (b, a]`
    /// holds whenever a ≠ b (the two arcs partition the ring), and the
    /// clockwise distances around the ring sum to 2^64 (i.e. 0 in wrapping
    /// arithmetic).
    #[test]
    fn ring_arcs_partition_the_identifier_space(a: u64, b: u64, x: u64) {
        prop_assume!(a != b);
        let (ia, ib, ix) = (Id(a), Id(b), Id(x));
        let in_ab = ix.in_interval(ia, ib);
        let in_ba = ix.in_interval(ib, ia);
        if x == a || x == b {
            // Endpoints belong to exactly one closed end.
            prop_assert!(in_ab ^ in_ba);
        } else {
            prop_assert!(in_ab ^ in_ba, "x must be in exactly one arc");
        }
        prop_assert_eq!(ia.distance_to(ib).wrapping_add(ib.distance_to(ia)), 0u64.wrapping_sub(0));
    }

    /// Soft state: an object is visible until its (clamped) lifetime expires
    /// and invisible afterwards; renewing an expired object always fails.
    #[test]
    fn soft_state_lifetimes_are_respected(lifetime in 1u64..10_000, max in 1u64..10_000, probe in 0u64..30_000) {
        let mut om: ObjectManager<u32> = ObjectManager::new(max);
        let name = ObjectName::new("t", "k", 1);
        let expires = om.put(name.clone(), 7, lifetime, 0);
        prop_assert_eq!(expires, lifetime.min(max));
        let visible = !om.get("t", "k", probe).is_empty();
        prop_assert_eq!(visible, probe <= expires);
        if probe > expires {
            prop_assert!(!om.renew(&name, 1_000, probe));
        }
    }

    /// The streaming Symmetric Hash join produces exactly the result
    /// multiset of a nested-loop reference join and holds every input row,
    /// however the two sides' arrivals are cut into chunks and interleaved.
    #[test]
    fn symmetric_hash_join_matches_nested_loop(
        left_keys in proptest::collection::vec(0i64..8, 0..160),
        right_keys in proptest::collection::vec(0i64..8, 0..160),
        cuts in proptest::collection::vec(0usize..7, 1..12),
    ) {
        let key = vec!["b".to_string()];
        let left: Vec<Tuple> = left_keys
            .iter()
            .enumerate()
            .map(|(i, b)| Tuple::new("r", vec![("a", Value::Int(i as i64)), ("b", Value::Int(*b))]))
            .collect();
        let right: Vec<Tuple> = right_keys
            .iter()
            .enumerate()
            .map(|(i, b)| Tuple::new("s", vec![("b", Value::Int(*b)), ("c", Value::Int(i as i64))]))
            .collect();
        let canon = |v: &[Tuple]| {
            let mut rows: Vec<String> = v.iter().map(Tuple::to_string).collect();
            rows.sort();
            rows
        };
        let reference = canon(&nested_loop_join(&left, &right, &key, &key, "rs"));
        for (l, r) in chunkings(&left, &cuts).into_iter().zip(chunkings(&right, &cuts)) {
            let mut join = SymmetricHashJoin::new(key.clone(), key.clone(), "rs");
            let mut streamed = Vec::new();
            let mut l = l.iter();
            let mut r = r.iter();
            loop {
                let (lb, rb) = (l.next(), r.next());
                if lb.is_none() && rb.is_none() {
                    break;
                }
                for (side, batch) in [(JoinSide::Left, lb), (JoinSide::Right, rb)] {
                    for chunk in batch.map_or(&[][..], TupleBatch::chunks) {
                        streamed.extend(join.push_chunk_batch(side, chunk).into_tuples());
                    }
                }
            }
            prop_assert_eq!(&canon(&streamed), &reference);
            prop_assert_eq!(join.state_size(), (left.len(), right.len()));
        }
    }

    /// Merging per-partition partial aggregates equals aggregating all the
    /// data at one site, however the data is partitioned and in whichever
    /// order the partitions arrive (the invariant that makes hierarchical
    /// aggregation correct): each partition is one pane chunk a
    /// `PartialCodec` encodes, and the root absorbs them into its store.
    #[test]
    fn partial_aggregate_merge_is_partition_invariant(
        values in proptest::collection::vec((0i64..5, -100i64..100), 1..60),
        split in 1usize..4,
        reversed in any::<bool>(),
    ) {
        let aggs = vec![AggFunc::Count, AggFunc::Sum("v".into()), AggFunc::Avg("v".into())];
        let mut reference = GroupBy::new(vec!["g".into()], aggs.clone(), "out");
        let mut parts: Vec<BTreeMap<i64, Vec<AggState>>> = vec![BTreeMap::new(); split];
        for (i, (g, v)) in values.iter().enumerate() {
            let t = TupleBatch::new(vec![Tuple::new(
                "t",
                vec![("g", Value::Int(*g)), ("v", Value::Int(*v))],
            )]);
            reference.push_batch(&t);
            let init = || aggs.iter().map(AggFunc::init).collect();
            let states = parts[i % split].entry(*g).or_insert_with(init);
            for (agg, state) in aggs.iter().zip(states) {
                state.update_ref(agg, Some(ValueRef::Int(*v)));
            }
        }
        if reversed {
            parts.reverse();
        }
        let mut codec = PartialCodec::new("out.wp".into(), vec!["g".into()], aggs.clone());
        let mut root = WindowStore::new(WindowSpec::tumbling(10), CqBudget::default());
        for part in &parts {
            let mut pane = codec.encoder();
            for (g, states) in part {
                pane.push(0, &[Value::Int(*g)], states);
            }
            if let Some(chunk) = pane.finish() {
                prop_assert!(codec.absorb(&chunk, &mut root).is_empty());
            }
        }
        let mut expect = reference.flush();
        let key = |t: &Tuple| t.get("g").unwrap().key_string();
        expect.sort_by_key(key);
        let merged: Vec<GroupAgg> = root
            .close_due(u64::MAX)
            .into_iter()
            .flat_map(|(_, groups)| groups.into_iter().map(|(_, acc)| acc))
            .collect();
        prop_assert_eq!(expect.len(), merged.len());
        for (a, b) in expect.iter().zip(&merged) {
            prop_assert_eq!(a.get("g"), b.vals.first());
            let finished: Vec<Value> = b.states.iter().map(AggState::finish).collect();
            prop_assert_eq!(a.get("count"), finished.first());
            prop_assert_eq!(a.get("sum_v"), finished.get(1));
            prop_assert_eq!(a.get("avg_v"), finished.get(2));
        }
    }

    /// Window-state merge is order-insensitive: merging the same partials
    /// in any two interleavings yields identical per-window, per-group
    /// state — the invariant that lets closed-window partials combine at
    /// arbitrary upcall hops in arbitrary arrival orders.
    #[test]
    fn window_state_merge_is_order_insensitive(
        partials in proptest::collection::vec((0u64..6, 0u64..4, -50i64..50), 1..80),
        swap_seed in proptest::collection::vec(0usize..80, 0..40),
    ) {
        let spec = WindowSpec::sliding(20, 10);
        let mut shuffled = partials.clone();
        // Deterministic permutation driven by the generated swap indices.
        for (i, s) in swap_seed.iter().enumerate() {
            let a = i % shuffled.len();
            let b = s % shuffled.len();
            shuffled.swap(a, b);
        }
        let run = |items: &[(u64, u64, i64)]| {
            let mut store: WindowStore<PSum> = WindowStore::new(spec, CqBudget::default());
            for (wid, group, v) in items {
                store.accept_refinement(*wid, &format!("g{group}"), PSum(*v));
            }
            let mut closed = store.close_due(10_000);
            for (_, groups) in &mut closed {
                groups.sort_by(|a, b| a.0.cmp(&b.0));
            }
            closed
        };
        prop_assert_eq!(run(&partials), run(&shuffled));
    }

    /// Expired window state is actually dropped: streaming through 1 000
    /// tumbling windows with periodic closes leaves no residue, and the
    /// open-window count never exceeds the budget cap at any point.
    #[test]
    fn expired_window_state_is_dropped_across_1k_windows(
        events_per_window in 1u64..6,
        groups in 1u64..5,
        close_every in 1u64..40,
    ) {
        let budget = CqBudget {
            max_open_windows: 8,
            ..CqBudget::default()
        };
        let mut store: WindowStore<PSum> = WindowStore::new(WindowSpec::tumbling(10), budget);
        let mut drained = 0u64;
        for w in 0..1_000u64 {
            for e in 0..events_per_window {
                let t = w * 10 + (e % 10);
                store.push(t, &format!("g{}", e % groups), None, || PSum(0), |a| a.0 += 1);
            }
            prop_assert!(store.open_windows() <= 8, "cap violated at window {}", w);
            if w % close_every == 0 {
                drained += store.close_due(w * 10) .len() as u64;
            }
        }
        drained += store.close_due(1_000_000).len() as u64;
        // Everything closed, nothing retained.
        prop_assert_eq!(store.open_windows(), 0);
        prop_assert_eq!(store.total_groups(), 0);
        // Every window either drained with its data or was evicted by the
        // open-window cap; none lingers.
        let stats = store.stats();
        prop_assert_eq!(drained + stats.evicted_windows, 1_000);
    }

    /// Schema-interned tuples behave exactly like the naive self-describing
    /// representation they replaced: `get` returns the first occurrence of
    /// a (possibly duplicated) column, `project` keeps the requested shape
    /// with NULL fill, and `partition_key` is the `|`-joined canonical key
    /// of the named columns (or None when any is missing).
    #[test]
    fn interned_tuples_match_naive_self_describing_reference(
        col_picks in proptest::collection::vec(0usize..6, 1..10),
        vals in proptest::collection::vec(-50i64..50, 10..11),
        probes in proptest::collection::vec(0usize..8, 1..5),
    ) {
        const POOL: [&str; 8] = ["a", "b", "c", "d", "e", "f", "g", "h"];
        // The naive representation: owned (column, value) pairs, linear scans.
        let fields: Vec<(String, Value)> = col_picks
            .iter()
            .enumerate()
            .map(|(i, &p)| {
                let v = if vals[i % vals.len()] % 3 == 0 {
                    Value::Str(format!("s{}", vals[i % vals.len()]).into())
                } else {
                    Value::Int(vals[i % vals.len()])
                };
                (POOL[p].to_string(), v)
            })
            .collect();
        let naive_get = |col: &str| -> Option<&Value> {
            fields.iter().find(|(c, _)| c == col).map(|(_, v)| v)
        };
        let tuple = Tuple::new(
            "t",
            fields.iter().map(|(c, v)| (c.as_str(), v.clone())).collect(),
        );
        prop_assert_eq!(tuple.table(), "t");
        prop_assert_eq!(tuple.arity(), fields.len());
        let probe_cols: Vec<String> = probes.iter().map(|&p| POOL[p].to_string()).collect();
        // get: first occurrence, None for absent columns.
        for col in &probe_cols {
            prop_assert_eq!(tuple.get(col), naive_get(col));
        }
        // partition_key: canonical '|'-joined key strings, all-or-nothing.
        let naive_key: Option<String> = probe_cols
            .iter()
            .map(|c| naive_get(c).map(Value::key_string))
            .collect::<Option<Vec<_>>>()
            .map(|ks| ks.join("|"));
        prop_assert_eq!(tuple.partition_key(&probe_cols), naive_key);
        // project: requested columns in order, NULL fill for absent ones.
        let projected = tuple.project(&probe_cols);
        prop_assert_eq!(projected.table(), "t");
        prop_assert_eq!(projected.columns(), probe_cols.as_slice());
        let naive_projected: Vec<Value> = probe_cols
            .iter()
            .map(|c| naive_get(c).cloned().unwrap_or(Value::Null))
            .collect();
        prop_assert_eq!(projected.values(), naive_projected.as_slice());
        // Same shape re-interns to the same schema; cloning shares it.
        let again = Tuple::new(
            "t",
            fields.iter().map(|(c, v)| (c.as_str(), v.clone())).collect(),
        );
        prop_assert!(std::sync::Arc::ptr_eq(tuple.schema(), again.schema()));
        prop_assert_eq!(&tuple.clone(), &tuple);
    }

    /// Columnar↔row-major round trip: packing tuples into a columnar
    /// `TupleBatch` and unpacking preserves every tuple bit-for-bit — same
    /// order, same interned schema (pointer identity), same values (floats
    /// compared by bit pattern) — across arbitrarily interleaved schemas.
    #[test]
    fn columnar_round_trip_preserves_tuples_bit_for_bit(
        shape_picks in proptest::collection::vec(0usize..4, 0..40),
        ints in proptest::collection::vec(-1_000i64..1_000, 8..9),
        floats in proptest::collection::vec(-1e6f64..1e6, 4..5),
    ) {
        let rows: Vec<Tuple> = shape_picks
            .iter()
            .enumerate()
            .map(|(i, &pick)| {
                let n = ints[i % ints.len()];
                let f = floats[i % floats.len()];
                match pick {
                    0 => Tuple::new(
                        "events",
                        vec![
                            ("src", Value::Str(format!("10.0.0.{}", n.rem_euclid(16)).into())),
                            ("port", Value::Int(n)),
                        ],
                    ),
                    1 => Tuple::new(
                        "metrics",
                        vec![
                            ("load", Value::Float(f)),
                            ("up", Value::Bool(n % 2 == 0)),
                            ("note", Value::Null),
                        ],
                    ),
                    2 => Tuple::new(
                        "blobs",
                        vec![("digest", Value::bytes(n.to_le_bytes()))],
                    ),
                    _ => Tuple::new("empty", vec![]),
                }
            })
            .collect();
        let batch = TupleBatch::new(rows.clone());
        prop_assert_eq!(batch.len(), rows.len());
        let back = batch.clone().into_tuples();
        prop_assert_eq!(back.len(), rows.len());
        for (orig, round) in rows.iter().zip(&back) {
            // Schema identity survives (not just equality): interning means
            // the unpacked tuple shares the original's schema allocation.
            prop_assert!(std::sync::Arc::ptr_eq(orig.schema(), round.schema()));
            prop_assert_eq!(orig.values().len(), round.values().len());
            for (a, b) in orig.values().iter().zip(round.values()) {
                match (a, b) {
                    // Bit-for-bit for floats (PartialEq would also accept
                    // 0.0 == -0.0 and reject NaN == NaN).
                    (Value::Float(x), Value::Float(y)) => {
                        prop_assert_eq!(x.to_bits(), y.to_bits());
                    }
                    _ => prop_assert_eq!(a, b),
                }
            }
        }
        // Iteration agrees with consumption, and chunk row counts add up.
        prop_assert_eq!(batch.iter().collect::<Vec<_>>(), back);
        let chunk_rows: usize = batch.chunks().iter().map(pier::qp::ColumnChunk::rows).sum();
        prop_assert_eq!(chunk_rows, rows.len());
    }

    /// Compiled (positional) expression evaluation agrees with interpreted
    /// (name-resolving) evaluation on every outcome — values, missing
    /// columns and type mismatches alike — for every `Expr` form.
    #[test]
    fn compiled_expr_agrees_with_interpreted_expr(
        a in -100i64..100,
        b in -100f64..100.0,
        threshold in -100i64..100,
        pick in 0usize..7,
    ) {
        use pier::qp::{CmpOp, Expr};
        let tuple = Tuple::new(
            "t",
            vec![
                ("a", Value::Int(a)),
                ("b", Value::Float(b)),
                ("name", Value::Str(format!("n{a}").into())),
            ],
        );
        let expr = match pick {
            0 => Expr::cmp(CmpOp::Ge, Expr::col("a"), Expr::lit(threshold)),
            1 => Expr::cmp(CmpOp::Lt, Expr::col("b"), Expr::col("a")),
            2 => Expr::all(vec![
                Expr::cmp(CmpOp::Gt, Expr::col("a"), Expr::lit(threshold)),
                Expr::cmp(CmpOp::Le, Expr::col("b"), Expr::lit(50.0)),
            ]),
            3 => Expr::eq("missing", threshold),
            4 => Expr::cmp(CmpOp::Eq, Expr::col("name"), Expr::lit(threshold)),
            // A comparison of a comparison: the row-at-a-time shape.
            5 => Expr::cmp(
                CmpOp::Eq,
                Expr::cmp(CmpOp::Lt, Expr::col("a"), Expr::lit(threshold)),
                Expr::lit(true),
            ),
            _ => Expr::col("a"),
        };
        let compiled = expr.compile(tuple.schema());
        prop_assert_eq!(compiled.eval(tuple.values()), expr.eval(&tuple));
        prop_assert_eq!(compiled.matches(tuple.values()), expr.matches(&tuple));
    }

    /// Chunk boundaries are invisible: an arbitrary filter → projection →
    /// tail stack — the filter a selection or an eddy under any of its three
    /// policies, the tail a stateful operator or a streaming selection — yields
    /// the same rows in the same order, and the same `flush`, whether an
    /// arbitrarily mixed-schema stream arrives as one batch, as one-row
    /// batches, or cut at a drawn sequence of 0/1/31/32/33/64/65-row pieces
    /// — including shapes that lack the filtered column (discarded by the
    /// best-effort policy) and the per-run row-major escape hatch for
    /// interleaved schemas.
    #[test]
    fn chunk_boundaries_are_invisible_to_a_pipeline_stack(
        threshold in -20i64..20,
        head in 0usize..4,
        tail in 0usize..3,
        cuts in proptest::collection::vec(0usize..7, 1..12),
        shape_picks in proptest::collection::vec(0usize..3, 1..300),
        vals in proptest::collection::vec(-30i64..30, 8..9),
    ) {
        use pier::qp::{CmpOp, Eddy, Expr, Pipeline, Projection, RoutingPolicy, Selection, TopK};
        let rows: Vec<Tuple> = shape_picks
            .iter()
            .enumerate()
            .map(|(i, &pick)| {
                let v = vals[i % vals.len()] + (i as i64 % 7);
                match pick {
                    0 => Tuple::new(
                        "t",
                        vec![("g", Value::Int(v.rem_euclid(4))), ("x", Value::Int(v))],
                    ),
                    1 => Tuple::new(
                        "t",
                        vec![
                            ("g", Value::Int(v.rem_euclid(4))),
                            ("x", Value::Int(v)),
                            ("extra", Value::Bool(v % 2 == 0)),
                        ],
                    ),
                    // No `x`: the filter must discard these wholesale.
                    _ => Tuple::new("u", vec![("g", Value::Int(v.rem_euclid(4)))]),
                }
            })
            .collect();
        let mk = || {
            let pred = Expr::cmp(CmpOp::Ge, Expr::col("x"), Expr::lit(threshold));
            let filter: Box<dyn LocalOperator + Send> = if head == 0 {
                Box::new(Selection::new(pred))
            } else {
                let policy = [
                    RoutingPolicy::Fixed,
                    RoutingPolicy::RoundRobin,
                    RoutingPolicy::Lottery,
                ][head - 1];
                let low_group = Expr::cmp(CmpOp::Lt, Expr::col("g"), Expr::lit(3i64));
                let preds = vec![("x".to_string(), pred), ("g".to_string(), low_group)];
                Box::new(Eddy::over_predicates(preds, policy, 9))
            };
            let tail: Box<dyn LocalOperator + Send> = match tail {
                0 => Box::new(GroupBy::new(
                    vec!["g".into()],
                    vec![
                        AggFunc::Count,
                        AggFunc::Sum("x".into()),
                        AggFunc::Avg("x".into()),
                    ],
                    "out",
                )),
                1 => Box::new(TopK::new(5, "x")),
                _ => Box::new(Selection::new(Expr::cmp(
                    CmpOp::Ne,
                    Expr::col("g"),
                    Expr::lit(1i64),
                ))),
            };
            Pipeline::new(vec![
                filter,
                Box::new(Projection::new(vec!["g".into(), "x".into()])),
                tail,
            ])
        };
        let [whole, single, drawn] = chunkings(&rows, &cuts).map(|batches| {
            let mut p = mk();
            let mut streamed = Vec::new();
            for b in &batches {
                streamed.extend(p.push_batch(b).into_tuples());
            }
            (streamed, p.flush())
        });
        prop_assert_eq!(&single, &whole);
        prop_assert_eq!(&drawn, &whole);
    }

    /// PHT range queries return exactly the keys a sorted scan would.
    #[test]
    fn pht_range_matches_sorted_scan(
        keys in proptest::collection::btree_set(0u64..100_000, 0..150),
        lo in 0u64..100_000,
        width in 0u64..50_000,
    ) {
        let hi = lo.saturating_add(width);
        let mut pht = Pht::new(MemoryStore::default(), 4);
        for &k in &keys {
            pht.insert(k, format!("v{k}"));
        }
        let got: Vec<u64> = pht.range(lo, hi).into_iter().map(|(k, _)| k).collect();
        let expected: Vec<u64> = keys.iter().copied().filter(|k| (lo..=hi).contains(k)).collect();
        prop_assert_eq!(got, expected);
    }

    /// Durable window segments: encode → scan → re-encode is byte-for-byte
    /// stable for arbitrary window contents, and every record survives the
    /// round trip intact (the rehydrate path sees exactly what was written).
    #[test]
    fn segment_log_round_trip_is_byte_stable(
        ids in proptest::collection::vec(0u64..1_000, 1..8),
        raw_groups in proptest::collection::vec((0u32..40, proptest::collection::vec(0u8..255, 0..12)), 0..16),
        raw_seen in proptest::collection::vec(0u32..40, 0..10),
        tuples in 0u64..100_000,
        dirty: bool,
        closed in 0u64..50,
        retired in 0u64..50,
    ) {
        // Window segments store group and dedup keys sorted (that is the
        // byte-stability contract the store upholds on encode).
        let mut groups: Vec<(String, Vec<u8>)> = raw_groups
            .iter()
            .map(|(k, v)| (format!("g{k:03}"), v.clone()))
            .collect();
        groups.sort();
        groups.dedup_by(|a, b| a.0 == b.0);
        let mut seen: Vec<String> = raw_seen.iter().map(|k| format!("d{k:03}")).collect();
        seen.sort();
        seen.dedup();

        let mut log = SegmentLog::new();
        let mut written = Vec::new();
        for &id in &ids {
            written.push(SegmentRecord::Window(WindowSegment {
                id,
                tuples,
                dirty,
                groups: groups.clone(),
                seen: seen.clone(),
            }));
        }
        written.push(SegmentRecord::Watermark {
            closed_through: (closed > 0).then_some(closed),
            retired_through: (retired > 0).then_some(retired),
        });
        for rec in &written {
            log.append(rec);
        }

        let scan = log.scan();
        prop_assert!(!scan.torn_tail);
        prop_assert_eq!(&scan.records, &written);
        prop_assert_eq!(scan.valid_len, log.len());

        // Re-encoding the scanned records reproduces the log byte-for-byte.
        let mut reencoded = SegmentLog::new();
        for rec in &scan.records {
            reencoded.append(rec);
        }
        prop_assert_eq!(reencoded.as_bytes(), log.as_bytes());
    }

    /// Tearing any number of bytes off a record's tail (a crash mid-append)
    /// is always detected: the scan recovers exactly the clean prefix, and
    /// truncation leaves a log that scans clean.
    #[test]
    fn segment_torn_tail_is_detected_and_truncated(
        n_clean in 0usize..5,
        state in proptest::collection::vec(0u8..255, 1..24),
        tear_frac in 0.0f64..1.0,
    ) {
        let rec = |id: u64| SegmentRecord::Window(WindowSegment {
            id,
            tuples: state.len() as u64,
            dirty: true,
            groups: vec![("k".to_string(), state.clone())],
            seen: Vec::new(),
        });
        let mut log = SegmentLog::new();
        for i in 0..n_clean {
            log.append(&rec(i as u64));
        }
        let clean_len = log.len();
        log.append(&rec(99));
        let last_len = log.len() - clean_len;
        // Drop between 1 byte and the entire last record.
        let drop = 1 + ((last_len - 1) as f64 * tear_frac) as usize;
        log.tear_tail(drop);

        let scan = log.scan();
        prop_assert!(scan.torn_tail, "a partial record must be flagged");
        prop_assert_eq!(scan.records.len(), n_clean);
        prop_assert_eq!(scan.valid_len, clean_len);

        let removed = log.truncate_torn_tail();
        prop_assert_eq!(removed, last_len - drop);
        let after = log.scan();
        prop_assert!(!after.torn_tail);
        prop_assert_eq!(after.records.len(), n_clean);
        prop_assert_eq!(log.len(), clean_len);
    }
}
