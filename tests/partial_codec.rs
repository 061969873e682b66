//! Differential tests for [`PartialCodec`], the one chunk-native path of
//! closed-window partials.
//!
//! The per-tuple `encode` / `decode` the codec replaced lives on here as the
//! oracle: one `Tuple` per closed group out ([`encode_ref`]), one
//! name-resolved accumulator per arriving tuple in ([`decode_ref`], built on
//! [`AggState::from_partial_tuple`]) merged with
//! [`WindowStore::accept_refinement`].  Against it:
//!
//! * `encode` equals `TupleBatch::new(reference tuples)` chunk for chunk —
//!   same column layouts, same body bytes, same `wire_size` — across every
//!   aggregate, NULL and mixed-type group values, multi-column groups, the
//!   dictionary → arena spill boundary and multi-window catch-up flushes;
//! * `absorb` leaves a store in the state per-tuple merging leaves its twin
//!   (`write_segments` bytes and `close_due` output), refusing the same
//!   rows;
//! * refused rows come back by index, re-ship with `gather`, and reach the
//!   root;
//! * malformed input — a foreign schema, a wrong-typed cell, arbitrary
//!   chunks — is refused without a panic and without mutating the group it
//!   would have hit.

use pier::cq::{CqBudget, SegmentLog, WindowId, WindowSpec, WindowStore};
use pier::qp::tuple::ColumnChunk;
use pier::qp::{
    AggFunc, AggState, GroupAgg, PartialCodec, Schema, SchemaRegistry, Tuple, TupleBatch, Value,
};
use pier::runtime::WireSize;
use proptest::prelude::*;
use std::sync::Arc;

type Closed = Vec<(WindowId, Vec<(String, GroupAgg)>)>;

// ----- the per-tuple oracle ---------------------------------------------------

/// The historical partial shape: `_w`, the group columns, one column per
/// aggregate, AVG followed by its `_sum` / `_count` companions.
fn partial_schema(table: &str, group_cols: &[String], aggs: &[AggFunc]) -> Arc<Schema> {
    let mut columns = vec!["_w".to_string()];
    columns.extend(group_cols.iter().cloned());
    for agg in aggs {
        let col = agg.output_column();
        if matches!(agg, AggFunc::Avg(_)) {
            columns.push(col.clone());
            columns.push(format!("{col}_sum"));
            columns.push(format!("{col}_count"));
        } else {
            columns.push(col);
        }
    }
    SchemaRegistry::global().intern_owned(table.to_string(), columns)
}

/// One closed group as the tuple the executors used to ship.
fn encode_ref(schema: &Arc<Schema>, wid: WindowId, acc: &GroupAgg) -> Tuple {
    let mut values = vec![Value::Int(wid as i64)];
    values.extend(acc.vals.iter().cloned());
    for state in acc.states.iter() {
        values.push(state.finish());
        if let AggState::Avg { sum, count } = state {
            values.push(Value::Float(*sum));
            values.push(Value::Int(*count as i64));
        }
    }
    Tuple::from_schema(Arc::clone(schema), values)
}

/// One arriving tuple as the `(window, group key, accumulator)` the
/// executors used to rebuild, columns resolved by name; `None` = malformed.
fn decode_ref(
    group_cols: &[String],
    aggs: &[AggFunc],
    tuple: &Tuple,
) -> Option<(WindowId, String, GroupAgg)> {
    let wid = tuple.get("_w")?.as_i64()?;
    let idxs: Vec<usize> = group_cols
        .iter()
        .map(|c| tuple.schema().position(c))
        .collect::<Option<_>>()?;
    let vals = idxs.iter().map(|&i| tuple.values()[i].clone()).collect();
    let states = aggs
        .iter()
        .map(|a| AggState::from_partial_tuple(a, tuple))
        .collect::<Option<Vec<_>>>()?;
    Some((
        wid.max(0) as u64,
        tuple.key_at(&idxs),
        GroupAgg {
            vals,
            states: states.into(),
        },
    ))
}

/// Per-tuple absorb of a whole chunk: the refused row indices.
fn absorb_ref(
    group_cols: &[String],
    aggs: &[AggFunc],
    chunk: &ColumnChunk,
    store: &mut WindowStore<GroupAgg>,
) -> Vec<u32> {
    let mut refused = Vec::new();
    for (r, tuple) in chunk.iter_rows().enumerate() {
        let accepted = match decode_ref(group_cols, aggs, &tuple) {
            Some((wid, key, acc)) => store.accept_refinement(wid, &key, acc),
            None => false,
        };
        if !accepted {
            refused.push(r as u32);
        }
    }
    refused
}

// ----- scenarios ---------------------------------------------------------------

/// Deterministic SplitMix64 stream (the proptest shim samples one `u64`
/// per case; everything else derives from it).
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound.max(1)
    }
}

/// The shape of one standing query's partials.
struct Shape {
    table: &'static str,
    group_cols: Vec<String>,
    aggs: Vec<AggFunc>,
}

impl Shape {
    fn new(table: &'static str, group_cols: &[&str], aggs: Vec<AggFunc>) -> Shape {
        Shape {
            table,
            group_cols: group_cols.iter().map(|c| (*c).to_string()).collect(),
            aggs,
        }
    }

    fn codec(&self) -> PartialCodec {
        PartialCodec::new(
            self.table.to_string(),
            self.group_cols.clone(),
            self.aggs.clone(),
        )
    }

    fn schema(&self) -> Arc<Schema> {
        partial_schema(self.table, &self.group_cols, &self.aggs)
    }
}

fn all_aggs() -> Vec<AggFunc> {
    vec![
        AggFunc::Count,
        AggFunc::Sum("len".into()),
        AggFunc::Min("len".into()),
        AggFunc::Max("host".into()),
        AggFunc::Avg("len".into()),
    ]
}

/// A group value of the given flavour: strings (dictionary or arena, by
/// cardinality), ints, NULLs, or a per-row mix of types that degrades the
/// column to the fallback layout.
fn group_value(flavour: u64, g: u64) -> Value {
    match flavour {
        0 => Value::str(format!("10.0.{}.{}", g / 250, g % 250)),
        1 => Value::Int(g as i64 - 3),
        2 if g.is_multiple_of(3) => Value::Null,
        2 => Value::str(format!("h{g}")),
        _ => match g % 4 {
            0 => Value::Int(g as i64),
            1 => Value::Float(g as f64 + 0.5),
            2 => Value::Bool(g % 8 == 2),
            _ => Value::str(format!("m{g}")),
        },
    }
}

/// An accumulator as ingest would have left it after `n` rows of group `g`
/// (MIN/MAX left empty for every seventh group, AVG for every fifth: their
/// NULL `finish` is part of the wire shape).
fn states_for(aggs: &[AggFunc], g: u64, n: u64) -> Vec<AggState> {
    aggs.iter()
        .map(|agg| match agg {
            AggFunc::Count => AggState::Count(n),
            AggFunc::Sum(_) => AggState::Sum(n as f64 * 40.5 + g as f64),
            AggFunc::Min(_) => {
                AggState::Min((!g.is_multiple_of(7)).then_some(Value::Int(g as i64 % 11)))
            }
            AggFunc::Max(_) => AggState::Max(
                (!g.is_multiple_of(7)).then(|| Value::str(format!("host-{}", g % 90))),
            ),
            AggFunc::Avg(_) if g.is_multiple_of(5) => AggState::Avg { sum: 0.0, count: 0 },
            AggFunc::Avg(_) => AggState::Avg {
                sum: n as f64 * 1.25,
                count: n,
            },
        })
        .collect()
}

/// Fill a store with `groups` distinct groups in each of `windows`
/// consecutive windows and drain it: exactly what a tick hands `encode`.
fn closed_windows(shape: &Shape, flavours: &[u64], groups: u64, windows: u64, salt: u64) -> Closed {
    let mut store = roomy_store();
    for wid in 0..windows {
        for g in 0..groups {
            let vals: Vec<Value> = flavours
                .iter()
                .enumerate()
                .map(|(c, f)| group_value(*f, g + c as u64 * 17))
                .collect();
            let mut key = String::new();
            for (i, v) in vals.iter().enumerate() {
                if i > 0 {
                    key.push('|');
                }
                v.write_key(&mut key);
            }
            let acc = GroupAgg {
                vals,
                states: states_for(&shape.aggs, g + salt, 1 + (g + wid) % 9).into(),
            };
            assert!(store.accept_refinement(wid, &key, acc));
        }
    }
    store.close_due(u64::MAX / 2)
}

/// A budget no scenario here exhausts.
const ROOMY: CqBudget = CqBudget {
    max_open_windows: 64,
    max_groups_per_window: 1 << 20,
    max_tuples_per_window: u64::MAX,
};

fn roomy_store() -> WindowStore<GroupAgg> {
    WindowStore::new(WindowSpec::tumbling(1_000_000), ROOMY)
}

/// Canonical content of a store: its segment bytes, then everything it
/// drains (group values and accumulator states compared exactly).
#[allow(clippy::type_complexity)]
fn state_of(
    store: &mut WindowStore<GroupAgg>,
) -> (Vec<u8>, Vec<(WindowId, String, Vec<Value>, Vec<AggState>)>) {
    let bytes = segment_bytes(store);
    let drained = store
        .close_due(u64::MAX / 2)
        .into_iter()
        .flat_map(|(wid, groups)| {
            groups
                .into_iter()
                .map(move |(key, acc)| (wid, key, acc.vals, acc.states.to_vec()))
        })
        .collect();
    (bytes, drained)
}

fn body_bytes(chunk: &ColumnChunk) -> Vec<u8> {
    let mut buf = Vec::new();
    chunk.encode_body(&mut buf);
    buf
}

/// `encode` must be the chunk batching the reference tuples builds: same
/// schema, same layout per column, same bytes, same accounted size.
fn assert_encode_matches_reference(shape: &Shape, closed: &Closed, what: &str) {
    let schema = shape.schema();
    let reference = TupleBatch::new(
        closed
            .iter()
            .flat_map(|(wid, groups)| groups.iter().map(|(_, acc)| encode_ref(&schema, *wid, acc)))
            .collect(),
    );
    let encoded = shape.codec().encode(closed);
    let Some(encoded) = encoded else {
        assert!(reference.is_empty(), "{what}: encode dropped rows");
        return;
    };
    assert_eq!(reference.chunks().len(), 1, "{what}: one schema, one chunk");
    let expected = &reference.chunks()[0];
    assert!(
        Arc::ptr_eq(encoded.schema(), expected.schema()),
        "{what}: schema"
    );
    assert_eq!(encoded.rows(), expected.rows(), "{what}: rows");
    for c in 0..schema.arity() {
        assert_eq!(
            encoded.col(c).layout_name(),
            expected.col(c).layout_name(),
            "{what}: layout of column {}",
            schema.columns()[c]
        );
    }
    assert_eq!(body_bytes(&encoded), body_bytes(expected), "{what}: bytes");
    assert_eq!(
        TupleBatch::from_chunks(vec![encoded.clone()]).wire_size(),
        reference.wire_size(),
        "{what}: wire_size"
    );
    // Read back row by row, as a shipment hands out its tuples, the rows
    // are the reference tuples.
    let rows: Vec<Tuple> = encoded.iter_rows().collect();
    assert_eq!(rows, reference.into_tuples(), "{what}: rows as tuples");
}

/// `absorb` must leave `store` as per-tuple merging leaves its twin, and
/// refuse the same rows.
fn assert_absorb_matches_reference(
    shape: &Shape,
    chunks: &[ColumnChunk],
    budget: CqBudget,
    what: &str,
) {
    let window = WindowSpec::tumbling(1_000_000);
    let mut codec = shape.codec();
    let mut chunked = WindowStore::new(window, budget);
    let mut per_tuple = WindowStore::new(window, budget);
    for (i, chunk) in chunks.iter().enumerate() {
        let refused = codec.absorb(chunk, &mut chunked);
        let expected = absorb_ref(&shape.group_cols, &shape.aggs, chunk, &mut per_tuple);
        assert_eq!(refused, expected, "{what}: refused rows of chunk {i}");
    }
    assert_eq!(chunked.stats(), per_tuple.stats(), "{what}: store counters");
    assert_eq!(
        state_of(&mut chunked),
        state_of(&mut per_tuple),
        "{what}: state"
    );
}

// ----- encode -------------------------------------------------------------------

#[test]
fn encode_equals_batched_reference_tuples_for_every_shape() {
    let shapes = [
        Shape::new("pc_count.wp", &["src"], vec![AggFunc::Count]),
        Shape::new("pc_all.wp", &["src"], all_aggs()),
        Shape::new("pc_multi.wp", &["src", "dst", "port"], all_aggs()),
        Shape::new(
            "pc_global.wp",
            &[],
            vec![AggFunc::Count, AggFunc::Avg("len".into())],
        ),
    ];
    for shape in &shapes {
        // Every group-value flavour per column, across the dictionary →
        // arena boundary (64 distinct strings fit the dictionary, 65 spill).
        for flavour in 0..4u64 {
            for groups in [1u64, 64, 65, 1_000] {
                if shape.group_cols.is_empty() && groups > 1 {
                    continue; // a global aggregate has one group per window
                }
                let flavours: Vec<u64> = (0..shape.group_cols.len() as u64)
                    .map(|c| (flavour + c) % 4)
                    .collect();
                let closed = closed_windows(shape, &flavours, groups, 1, flavour);
                let what = format!("{} flavour {flavour} groups {groups}", shape.table);
                assert_encode_matches_reference(shape, &closed, &what);
            }
        }
    }
}

#[test]
fn encode_bundles_a_catch_up_flush_of_several_windows_in_order() {
    let shape = Shape::new("pc_catchup.wp", &["src"], all_aggs());
    // Five windows of 30 string groups: 150 rows but 30 distinct strings,
    // so the group column stays a dictionary across windows.
    let closed = closed_windows(&shape, &[0], 30, 5, 0);
    assert_eq!(closed.len(), 5);
    assert_encode_matches_reference(&shape, &closed, "catch-up flush");
    let chunk = shape.codec().encode(&closed).expect("150 rows");
    assert_eq!(chunk.rows(), 150);
    // A non-root tick concatenates two stores' drains: the same window may
    // appear twice, and rows keep the order given.
    let mut twice = closed.clone();
    twice.extend(closed_windows(&shape, &[0], 7, 2, 3));
    assert_encode_matches_reference(&shape, &twice, "local + relayed drains");
    assert!(shape.codec().encode(&[]).is_none());
    assert!(shape.codec().encode(&[(4, Vec::new())]).is_none());
}

// ----- absorb -------------------------------------------------------------------

#[test]
fn absorb_equals_per_tuple_accept_refinement() {
    let shapes = [
        Shape::new("pa_count.wp", &["src"], vec![AggFunc::Count]),
        Shape::new("pa_all.wp", &["src"], all_aggs()),
        Shape::new("pa_multi.wp", &["src", "dst"], all_aggs()),
    ];
    for shape in &shapes {
        for flavour in 0..4u64 {
            let flavours: Vec<u64> = (0..shape.group_cols.len() as u64)
                .map(|c| (flavour + c) % 4)
                .collect();
            // Three senders with overlapping groups over three windows, one
            // of them a single partial shipped as a bare tuple.
            let codec = shape.codec();
            let mut chunks: Vec<ColumnChunk> = [(40u64, 3u64, 0u64), (70, 2, 1), (25, 3, 2)]
                .iter()
                .map(|&(groups, windows, salt)| {
                    codec
                        .encode(&closed_windows(shape, &flavours, groups, windows, salt))
                        .expect("non-empty")
                })
                .collect();
            chunks.push(ColumnChunk::from_tuple(&chunks[0].row(5)));
            let what = format!("{} flavour {flavour}", shape.table);
            assert_absorb_matches_reference(shape, &chunks, ROOMY, &what);
            // A tight budget sheds groups and evicts windows; both paths
            // must shed and evict the same ones.
            let tight = CqBudget {
                max_open_windows: 2,
                max_groups_per_window: 30,
                max_tuples_per_window: u64::MAX,
            };
            assert_absorb_matches_reference(shape, &chunks, tight, &format!("{what} (tight)"));
        }
    }
}

#[test]
fn refused_rows_come_back_by_index_reship_and_reach_the_root() {
    let shape = Shape::new(
        "pr_relay.wp",
        &["src"],
        vec![AggFunc::Count, AggFunc::Sum("len".into())],
    );
    let closed = closed_windows(&shape, &[0], 50, 2, 0);
    let sent = shape.codec().encode(&closed).expect("100 rows");
    // The relay's budget holds 20 groups per window: 30 rows of each window
    // are refused, by index.
    let mut relay_codec = shape.codec();
    let mut relay = WindowStore::new(
        WindowSpec::tumbling(1_000_000),
        CqBudget {
            max_groups_per_window: 20,
            ..CqBudget::default()
        },
    );
    let refused = relay_codec.absorb(&sent, &mut relay);
    assert_eq!(refused.len(), 60);
    assert_eq!(relay.stats().shed_groups, 60);
    assert_eq!(refused[..30], (20..50).collect::<Vec<u32>>()[..]);
    // The relay re-ships the refused rows and later forwards what it kept;
    // the root ends up where absorbing the original chunk would leave it.
    let reshipped = sent.gather(&refused);
    assert_eq!(
        reshipped.iter_rows().collect::<Vec<_>>(),
        refused
            .iter()
            .map(|&r| sent.row(r as usize))
            .collect::<Vec<_>>()
    );
    let forwarded = relay_codec
        .encode(&relay.close_due(u64::MAX / 2))
        .expect("40 absorbed rows");
    let mut root_codec = shape.codec();
    let mut via_relay = roomy_store();
    assert!(root_codec.absorb(&reshipped, &mut via_relay).is_empty());
    assert!(root_codec.absorb(&forwarded, &mut via_relay).is_empty());
    let mut direct = roomy_store();
    assert!(root_codec.absorb(&sent, &mut direct).is_empty());
    assert_eq!(state_of(&mut via_relay), state_of(&mut direct));
}

// ----- malformed input ------------------------------------------------------------

/// A store holding one group per window 0..3 that malformed rows would hit,
/// and its segment bytes.
fn preloaded(shape: &Shape) -> (WindowStore<GroupAgg>, Vec<u8>) {
    let mut store = roomy_store();
    let seed = shape
        .codec()
        .encode(&closed_windows(shape, &[0], 4, 3, 0))
        .expect("12 rows");
    assert!(shape.codec().absorb(&seed, &mut store).is_empty());
    let bytes = segment_bytes(&store);
    (store, bytes)
}

fn segment_bytes(store: &WindowStore<GroupAgg>) -> Vec<u8> {
    let mut log = SegmentLog::new();
    store.write_segments(&mut log);
    log.as_bytes().to_vec()
}

#[test]
fn foreign_schemas_and_wrong_typed_cells_are_refused_without_mutation() {
    let shape = Shape::new("pm_bad.wp", &["src"], all_aggs());
    let (mut store, before) = preloaded(&shape);
    let mut codec = shape.codec();
    let good = codec
        .encode(&closed_windows(&shape, &[0], 6, 1, 9))
        .expect("6 rows");

    // A chunk of some other relation: no `_w`, every row refused.
    let foreign = TupleBatch::new(
        (0..5)
            .map(|i| {
                Tuple::new(
                    "packets",
                    vec![("src", group_value(0, i)), ("count", Value::Int(1))],
                )
            })
            .collect(),
    );
    assert_eq!(
        codec.absorb(&foreign.chunks()[0], &mut store),
        [0, 1, 2, 3, 4]
    );
    assert_eq!(segment_bytes(&store), before);

    // The right shape with one cell of each row corrupted: `_w` a string,
    // COUNT a float, SUM a string, AVG's `_count` NULL, COUNT and AVG's
    // `_count` below zero (which would wrap to a count near 2^64).  No row
    // may touch the group it names.
    let schema = shape.schema();
    let pos = |c: &str| schema.position(c).expect("column");
    let corruptions = [
        (pos("_w"), Value::str("zero")),
        (pos("count"), Value::Float(2.0)),
        (pos("sum_len"), Value::str("many")),
        (pos("avg_len_count"), Value::Null),
        (pos("count"), Value::Int(-1)),
        (pos("avg_len_count"), Value::Int(-1)),
    ];
    let bad: Vec<Tuple> = good
        .iter_rows()
        .zip(&corruptions)
        .map(|(row, (at, v))| {
            let mut values = row.values().to_vec();
            values[*at] = v.clone();
            Tuple::from_schema(Arc::clone(&schema), values)
        })
        .collect();
    let bad = TupleBatch::new(bad);
    assert_eq!(
        codec.absorb(&bad.chunks()[0], &mut store),
        [0, 1, 2, 3, 4, 5]
    );
    assert_eq!(segment_bytes(&store), before, "refused rows must not merge");

    // The codec still accepts well-formed rows afterwards (the layout cache
    // re-keys per schema).
    assert!(codec.absorb(&good, &mut store).is_empty());
    assert_ne!(segment_bytes(&store), before);
}

proptest! {
    /// Arbitrary chunks — random schemas drawn from the partial shape's own
    /// column names and strangers, random cell types — never panic, and do
    /// to the store exactly what the per-tuple oracle does (in particular:
    /// nothing, for every refused row).
    #[test]
    fn arbitrary_chunks_are_absorbed_or_refused_like_the_oracle(seed in any::<u64>()) {
        let shape = Shape::new("pm_fuzz.wp", &["src"], all_aggs());
        let mut rng = Gen(seed);
        let own = shape.schema();
        let mut names: Vec<String> = own.columns().to_vec();
        names.extend(["len", "host", "x"].map(String::from));
        let cell = |rng: &mut Gen| match rng.below(7) {
            0 => Value::Null,
            1 => Value::Int(rng.below(6) as i64 - 1),
            2 => Value::Float(rng.below(100) as f64 / 4.0),
            3 => Value::Bool(rng.below(2) == 0),
            4 => Value::bytes([rng.below(256) as u8]),
            _ => group_value(0, rng.below(6)),
        };
        let mut chunks = Vec::new();
        for _ in 0..1 + rng.below(4) {
            // Mostly the partial schema itself (so rows reach the cell
            // checks), sometimes a random subset in random order.
            let columns: Vec<String> = if rng.below(3) > 0 {
                own.columns().to_vec()
            } else {
                let mut pick = names.clone();
                for i in (1..pick.len()).rev() {
                    pick.swap(i, rng.below(i as u64 + 1) as usize);
                }
                pick.truncate(rng.below(names.len() as u64 + 1) as usize);
                pick
            };
            let rows = 1 + rng.below(12) as usize;
            let tuples: Vec<Tuple> = (0..rows)
                .map(|_| {
                    let values = columns
                        .iter()
                        .map(|c| match c.as_str() {
                            // Keep most `_w` / `count` cells plausible so
                            // hits on the preloaded groups are common.
                            "_w" if rng.below(5) > 0 => Value::Int(rng.below(4) as i64),
                            "count" if rng.below(5) > 0 => Value::Int(rng.below(9) as i64),
                            "src" if rng.below(5) > 0 => group_value(0, rng.below(6)),
                            _ => cell(&mut rng),
                        })
                        .collect();
                    Tuple::from_parts("pm_fuzz.wp", columns.clone(), values)
                })
                .collect();
            chunks.extend(TupleBatch::new(tuples).chunks().iter().cloned());
        }
        let (mut chunked, before) = preloaded(&shape);
        let (mut per_tuple, _) = preloaded(&shape);
        let mut codec = shape.codec();
        let mut all_refused = true;
        for chunk in &chunks {
            let refused = codec.absorb(chunk, &mut chunked);
            let expected = absorb_ref(&shape.group_cols, &shape.aggs, chunk, &mut per_tuple);
            prop_assert_eq!(&refused, &expected);
            all_refused &= refused.len() == chunk.rows();
        }
        if all_refused {
            prop_assert_eq!(segment_bytes(&chunked), before);
        }
        prop_assert_eq!(state_of(&mut chunked), state_of(&mut per_tuple));
    }
}
