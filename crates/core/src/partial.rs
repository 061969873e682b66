//! Closed-window partials: the accumulator a window store keeps per group
//! and the one codec that moves it between stores.
//!
//! A continuous query's closed panes travel toward the window root as
//! *partials* — `_w` (the id of the pane, or of the window of a store kept
//! per window: an integer either way), the group values, and each
//! aggregate's mergeable state — and combine hop by hop through DHT upcalls
//! (§3.2.4, §3.3.4).  Between [`WindowStore::close_due`] at the sender and
//! the merge into a [`WindowStore`] at a relay or the root, the only
//! representation of those partials is a [`ColumnChunk`] of the interned
//! partial schema (`q{id}.wp` for a query, `g{fp}.wp` for a share group):
//! a [`PartialEncoder`] pushes the groups a closing store lends straight
//! into typed columns, [`PartialCodec::absorb`] merges a chunk's rows into a
//! store in place.  The per-query executor ([`crate::node`]) and the share-group
//! executor (`pier-mqo`) both use it, so the wire shape, the validation
//! rules and the refusal semantics exist once.

use crate::aggregate::{AggFunc, AggState, PartialDecoder};
use crate::column::Column;
use crate::tuple::{ColumnChunk, Schema, SchemaRegistry};
use crate::value::{Value, ValueRef};
use pier_cq::{SegmentCodec, WindowAccumulator, WindowId, WindowStore};
use std::sync::Arc;

/// One group's mergeable window accumulator: the grouping values plus one
/// partial [`AggState`] per aggregate — the window engine of `pier-cq`
/// parameterised with `pier-core`'s aggregate machinery.  Inside a
/// [`WindowStore`] the values are the group's *identity*: kept once in the
/// store's directory, empty in the per-window accumulators.
#[derive(Debug, Clone)]
pub struct GroupAgg {
    /// The grouping-column values identifying this group.
    pub vals: Vec<Value>,
    /// One mergeable partial per aggregate.
    pub states: AggStates,
}

/// The partials of one group's aggregates, read as a slice of
/// [`AggState`]s.  One state is held inline, so the accumulator of a
/// one-aggregate plan owns no heap block: a known group entering a pane,
/// a relayed partial's new group and a root's merge allocate nothing.
#[derive(Clone, Default)]
pub struct AggStates(Held);

/// At most one state in place, more on the heap (never fewer than two).
#[derive(Clone)]
enum Held {
    One(Option<AggState>),
    Many(Vec<AggState>),
}

impl Default for Held {
    fn default() -> Self {
        Held::One(None)
    }
}

impl std::ops::Deref for AggStates {
    type Target = [AggState];

    fn deref(&self) -> &[AggState] {
        match &self.0 {
            Held::One(state) => state.as_slice(),
            Held::Many(states) => states,
        }
    }
}

impl std::ops::DerefMut for AggStates {
    fn deref_mut(&mut self) -> &mut [AggState] {
        match &mut self.0 {
            Held::One(state) => state.as_mut_slice(),
            Held::Many(states) => states,
        }
    }
}

impl FromIterator<AggState> for AggStates {
    fn from_iter<I: IntoIterator<Item = AggState>>(iter: I) -> Self {
        let mut iter = iter.into_iter().fuse();
        AggStates(match (iter.next(), iter.next()) {
            (first, None) => Held::One(first),
            (Some(first), Some(second)) => {
                let mut states = Vec::with_capacity(2 + iter.size_hint().0);
                states.extend([first, second]);
                states.extend(iter);
                Held::Many(states)
            }
            (None, Some(_)) => unreachable!("a fused iterator stays exhausted"),
        })
    }
}

impl From<Vec<AggState>> for AggStates {
    fn from(mut states: Vec<AggState>) -> Self {
        AggStates(if states.len() < 2 {
            Held::One(states.pop())
        } else {
            Held::Many(states)
        })
    }
}

impl PartialEq for AggStates {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl std::fmt::Debug for AggStates {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl WindowAccumulator for GroupAgg {
    fn merge(&mut self, other: &Self) {
        merge_states(&mut self.states, &other.states);
    }

    fn take_identity(&mut self) -> Option<Self> {
        Some(GroupAgg {
            vals: std::mem::take(&mut self.vals),
            states: AggStates::default(),
        })
    }

    fn set_identity(&mut self, identity: &Self) {
        self.vals.clone_from(&identity.vals);
    }
}

fn merge_states(mine: &mut [AggState], theirs: &[AggState]) {
    for (mine, theirs) in mine.iter_mut().zip(theirs) {
        mine.merge(theirs);
    }
}

// Lossless little-endian byte codec for the durable window segments of
// `pier-cq`: floats are persisted as raw IEEE-754 bits, so a rehydrated
// accumulator is *exactly* the one that was snapshotted and re-encoding it
// reproduces identical bytes (the round-trip contract of [`SegmentCodec`]).
// Scalars serialise through the shared wire codec ([`Value::encode`]) — one
// tagged-LE value format for DHT messages and durable segments alike.

fn seg_put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn seg_put_opt_value(buf: &mut Vec<u8>, v: &Option<Value>) {
    match v {
        None => buf.push(0),
        Some(v) => {
            buf.push(1);
            v.encode(buf);
        }
    }
}

fn seg_put_state(buf: &mut Vec<u8>, state: &AggState) {
    match state {
        AggState::Count(n) => {
            buf.push(0);
            seg_put_u64(buf, *n);
        }
        AggState::Sum(s) => {
            buf.push(1);
            seg_put_u64(buf, s.to_bits());
        }
        AggState::Min(v) => {
            buf.push(2);
            seg_put_opt_value(buf, v);
        }
        AggState::Max(v) => {
            buf.push(3);
            seg_put_opt_value(buf, v);
        }
        AggState::Avg { sum, count } => {
            buf.push(4);
            seg_put_u64(buf, sum.to_bits());
            seg_put_u64(buf, *count);
        }
    }
}

struct SegReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl SegReader<'_> {
    fn u8(&mut self) -> Option<u8> {
        let b = *self.bytes.get(self.pos)?;
        self.pos += 1;
        Some(b)
    }

    fn u64(&mut self) -> Option<u64> {
        let end = self.pos.checked_add(8)?;
        let raw: [u8; 8] = self.bytes.get(self.pos..end)?.try_into().ok()?;
        self.pos = end;
        Some(u64::from_le_bytes(raw))
    }

    fn value(&mut self) -> Option<Value> {
        let (v, used) = Value::decode(self.bytes.get(self.pos..)?)?;
        self.pos += used;
        Some(v)
    }

    fn opt_value(&mut self) -> Option<Option<Value>> {
        Some(match self.u8()? {
            0 => None,
            1 => Some(self.value()?),
            _ => return None,
        })
    }

    fn state(&mut self) -> Option<AggState> {
        Some(match self.u8()? {
            0 => AggState::Count(self.u64()?),
            1 => AggState::Sum(f64::from_bits(self.u64()?)),
            2 => AggState::Min(self.opt_value()?),
            3 => AggState::Max(self.opt_value()?),
            4 => AggState::Avg {
                sum: f64::from_bits(self.u64()?),
                count: self.u64()?,
            },
            _ => return None,
        })
    }
}

impl SegmentCodec for GroupAgg {
    fn encode_state(&self, buf: &mut Vec<u8>) {
        self.encode_split(self, buf);
    }

    fn encode_split(&self, identity: &Self, buf: &mut Vec<u8>) {
        seg_put_u64(buf, identity.vals.len() as u64);
        for v in &identity.vals {
            v.encode(buf);
        }
        seg_put_u64(buf, self.states.len() as u64);
        for s in self.states.iter() {
            seg_put_state(buf, s);
        }
    }

    fn decode_state(bytes: &[u8]) -> Option<Self> {
        let mut r = SegReader { bytes, pos: 0 };
        let nv = usize::try_from(r.u64()?).ok()?;
        if nv > bytes.len() {
            return None; // length prefix cannot exceed the payload
        }
        let mut vals = Vec::with_capacity(nv);
        for _ in 0..nv {
            vals.push(r.value()?);
        }
        let ns = usize::try_from(r.u64()?).ok()?;
        if ns > bytes.len() {
            return None;
        }
        let mut states = Vec::with_capacity(ns);
        for _ in 0..ns {
            states.push(r.state()?);
        }
        if r.pos != bytes.len() {
            return None; // trailing garbage: not a clean snapshot
        }
        Some(GroupAgg {
            vals,
            states: states.into(),
        })
    }
}

/// Where a partial's cells sit within one chunk schema: `_w`, the group
/// columns, and one [`PartialDecoder`] per aggregate.
#[derive(Debug)]
struct PartialLayout {
    w: usize,
    groups: Vec<usize>,
    aggs: Vec<PartialDecoder>,
}

/// The codec of one query's (or share group's) closed-window partials.
#[derive(Debug)]
pub struct PartialCodec {
    /// Interned shape of the partials this codec ships.
    schema: Arc<Schema>,
    group_cols: Vec<String>,
    aggs: Vec<AggFunc>,
    /// The layout of the last chunk schema absorbed (single entry, keyed by
    /// pointer — sound because schemas are interned).  `None` inside means
    /// the schema cannot carry this query's partials: every row of that
    /// shape is refused without re-resolving names.
    layout: Option<(Arc<Schema>, Option<PartialLayout>)>,
    /// Group key of the row being absorbed (one buffer for every row).
    key: String,
    /// Validated aggregate cells of the row being absorbed.
    states: Vec<AggState>,
}

impl PartialCodec {
    /// The codec for partials of `aggs` grouped by `group_cols`, shipped
    /// under the schema `table` (`_w`, the group columns, then one column
    /// per aggregate — AVG also carries its `_sum`/`_count` companions).
    /// The schema interns once here, not once per shipped partial.
    pub fn new(table: String, group_cols: Vec<String>, aggs: Vec<AggFunc>) -> PartialCodec {
        let mut columns = vec!["_w".to_string()];
        columns.extend(group_cols.iter().cloned());
        for agg in &aggs {
            let col = agg.output_column();
            if matches!(agg, AggFunc::Avg(_)) {
                columns.push(col.clone());
                columns.push(format!("{col}_sum"));
                columns.push(format!("{col}_count"));
            } else {
                columns.push(col);
            }
        }
        PartialCodec {
            schema: SchemaRegistry::global().intern_owned(table, columns),
            group_cols,
            aggs,
            layout: None,
            key: String::new(),
            states: Vec::new(),
        }
    }

    /// The aggregates whose partials this codec carries.
    pub fn aggs(&self) -> &[AggFunc] {
        &self.aggs
    }

    /// An encoder of this codec's partials, to be fed group by group.
    pub fn encoder(&self) -> PartialEncoder<'_> {
        PartialEncoder {
            codec: self,
            cols: Vec::new(),
            rows: 0,
        }
    }

    /// Encode drained windows (the output of [`WindowStore::close_due`],
    /// possibly of several stores back to back) as one chunk, one row per
    /// group in the order given; `None` when there is no group to ship.
    pub fn encode(&self, closed: &[(WindowId, Vec<(String, GroupAgg)>)]) -> Option<ColumnChunk> {
        let mut enc = self.encoder();
        for (wid, groups) in closed {
            for (_, acc) in groups {
                enc.push(*wid, &acc.vals, &acc.states);
            }
        }
        enc.finish()
    }

    /// Merge every row of an arriving chunk into `store` as a refinement
    /// and return the indices of the rows that were **refused**: rows the
    /// store's budget or retirement horizon turned away, and malformed rows
    /// (a chunk whose schema lacks `_w`, a group or an aggregate column; a
    /// cell of the wrong type) — best effort, as everywhere.  A refused row
    /// leaves the store untouched.  The layout resolves once per chunk
    /// schema; a row for a group its window holds merges in place and
    /// allocates nothing (`tests/alloc_bars.rs`), and a group new to the
    /// window builds an accumulator whose one inline state, in a
    /// one-aggregate plan, allocates nothing either — only a group new to
    /// the store allocates, for its values.
    pub fn absorb(&mut self, chunk: &ColumnChunk, store: &mut WindowStore<GroupAgg>) -> Vec<u32> {
        let schema = chunk.schema();
        if !self
            .layout
            .as_ref()
            .is_some_and(|(cached, _)| Arc::ptr_eq(cached, schema))
        {
            let compiled = (|| {
                Some(PartialLayout {
                    w: schema.position("_w")?,
                    groups: self
                        .group_cols
                        .iter()
                        .map(|c| schema.position(c))
                        .collect::<Option<_>>()?,
                    aggs: self
                        .aggs
                        .iter()
                        .map(|a| PartialDecoder::compile(a, schema))
                        .collect::<Option<_>>()?,
                })
            })();
            self.layout = Some((Arc::clone(schema), compiled));
        }
        let PartialCodec {
            layout,
            aggs,
            key,
            states,
            ..
        } = self;
        let Some((_, Some(layout))) = layout.as_ref() else {
            return (0..chunk.rows() as u32).collect();
        };
        let mut refused = Vec::new();
        for r in 0..chunk.rows() {
            let wid = chunk.col(layout.w).value_ref(r).as_i64();
            states.clear();
            states.extend(
                layout
                    .aggs
                    .iter()
                    .zip(aggs.iter())
                    .map_while(|(decoder, agg)| decoder.decode(agg, chunk, r)),
            );
            let accepted = match wid {
                Some(wid) if states.len() == aggs.len() => {
                    key.clear();
                    chunk.write_key_at(&layout.groups, r, key);
                    store.refine_with(
                        wid.max(0) as u64,
                        key,
                        |acc| merge_states(&mut acc.states, states),
                        |new| GroupAgg {
                            // Only a group new to the store keeps its values.
                            vals: if new {
                                let vals = layout.groups.iter();
                                vals.map(|&i| chunk.col(i).value(r)).collect()
                            } else {
                                Vec::new()
                            },
                            states: states.iter().cloned().collect(),
                        },
                    )
                }
                _ => false,
            };
            if !accepted {
                refused.push(r as u32);
            }
        }
        refused
    }
}

/// Builds one chunk of closed-window partials, a row per pushed group.
/// Cells go straight into typed columns — the chunk equals, layout for
/// layout, what batching the per-group tuples would have inferred.
#[derive(Debug)]
pub struct PartialEncoder<'c> {
    codec: &'c PartialCodec,
    cols: Vec<Column>,
    rows: usize,
}

impl PartialEncoder<'_> {
    /// Append the partial of window `wid` for the group valued `vals` with
    /// aggregate partials `states`.
    pub fn push(&mut self, wid: WindowId, vals: &[Value], states: &[AggState]) {
        let (codec, cols) = (self.codec, &mut self.cols);
        if cols.is_empty() {
            cols.resize_with(codec.schema.arity(), Column::new);
        }
        self.rows += 1;
        cols[0].push_ref(ValueRef::Int(wid as i64));
        // The shape is the plan's, whatever the accumulator holds (a
        // segment rehydrated under a reused query id may be another
        // plan's): every column gets exactly one cell per row, NULL
        // where the accumulator has none.
        let mut c = 1;
        for g in 0..codec.group_cols.len() {
            match vals.get(g) {
                Some(v) => cols[c].push_value(v),
                None => cols[c].push_null(),
            }
            c += 1;
        }
        for (a, agg) in codec.aggs.iter().enumerate() {
            let state = states.get(a);
            cols[c].push_value(&state.map_or(Value::Null, AggState::finish));
            c += 1;
            if matches!(agg, AggFunc::Avg(_)) {
                if let Some(AggState::Avg { sum, count }) = state {
                    cols[c].push_ref(ValueRef::Float(*sum));
                    cols[c + 1].push_ref(ValueRef::Int(*count as i64));
                } else {
                    cols[c].push_null();
                    cols[c + 1].push_null();
                }
                c += 2;
            }
        }
    }

    /// The chunk; `None` when no group was pushed.
    pub fn finish(self) -> Option<ColumnChunk> {
        (self.rows > 0).then(|| {
            ColumnChunk::from_columns(Arc::clone(&self.codec.schema), self.cols, self.rows)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple::TupleBatch;
    use pier_cq::{CqBudget, WindowSpec};
    use pier_runtime::WireSize;

    fn codec() -> PartialCodec {
        PartialCodec::new(
            "partial_unit.wp".to_string(),
            vec!["src".to_string()],
            vec![AggFunc::Count, AggFunc::Avg("len".to_string())],
        )
    }

    fn store() -> WindowStore<GroupAgg> {
        WindowStore::new(WindowSpec::tumbling(10), CqBudget::default())
    }

    fn group(src: &str, count: u64, sum: f64) -> (String, GroupAgg) {
        (
            src.to_string(),
            GroupAgg {
                vals: vec![Value::str(src)],
                states: [AggState::Count(count), AggState::Avg { sum, count }]
                    .into_iter()
                    .collect(),
            },
        )
    }

    #[test]
    fn encode_lays_out_one_row_per_group_in_the_order_given() {
        let c = codec();
        assert!(c.encode(&[]).is_none(), "nothing closed, nothing shipped");
        let chunk = c
            .encode(&[
                (3, vec![group("a", 2, 10.0), group("b", 1, 4.0)]),
                (4, vec![group("a", 5, 0.0)]),
            ])
            .expect("three groups");
        assert_eq!(chunk.schema().table(), "partial_unit.wp");
        assert_eq!(
            chunk.schema().columns(),
            [
                "_w",
                "src",
                "count",
                "avg_len",
                "avg_len_sum",
                "avg_len_count"
            ]
        );
        let rows: Vec<crate::Tuple> = chunk.iter_rows().collect();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].get("_w"), Some(&Value::Int(3)));
        assert_eq!(rows[0].get("avg_len"), Some(&Value::Float(5.0)));
        assert_eq!(rows[1].get("src"), Some(&Value::str("b")));
        assert_eq!(rows[2].get("_w"), Some(&Value::Int(4)));
        assert_eq!(rows[2].get("avg_len_sum"), Some(&Value::Float(0.0)));
        assert_eq!(rows[2].get("avg_len_count"), Some(&Value::Int(5)));
        // Chunk for chunk what batching the same rows would have built.
        let batch = TupleBatch::new(chunk.iter_rows().collect());
        assert_eq!(batch.chunks(), std::slice::from_ref(&chunk));
        assert_eq!(
            batch.wire_size(),
            TupleBatch::from_chunks(vec![chunk]).wire_size()
        );
    }

    #[test]
    fn absorb_merges_hits_in_place_and_returns_refused_rows_by_index() {
        let mut c = codec();
        let chunk = c
            .encode(&[(
                0,
                vec![group("a", 2, 10.0), group("b", 1, 4.0), group("a", 3, 5.0)],
            )])
            .expect("three rows");
        // A budget of one group per window: "b" is refused, both "a" rows
        // land in one accumulator.
        let mut s = WindowStore::new(
            WindowSpec::tumbling(10),
            CqBudget {
                max_groups_per_window: 1,
                ..CqBudget::default()
            },
        );
        assert_eq!(c.absorb(&chunk, &mut s), [1]);
        let closed = s.close_due(1_000);
        assert_eq!(closed.len(), 1);
        let (key, acc) = &closed[0].1[0];
        assert_eq!(key, "s:a", "the canonical group key");
        assert_eq!(
            acc.states[..],
            [
                AggState::Count(5),
                AggState::Avg {
                    sum: 15.0,
                    count: 5
                }
            ]
        );
        assert_eq!(s.stats().shed_groups, 1);
    }

    #[test]
    fn malformed_chunks_and_cells_are_refused_without_touching_the_store() {
        let mut c = codec();
        let mut s = store();
        let good = c
            .encode(&[(0, vec![group("a", 2, 10.0)])])
            .expect("one row");
        assert!(c.absorb(&good, &mut s).is_empty());
        // A schema without `_w`: every row refused.
        let foreign = TupleBatch::new(vec![
            crate::Tuple::new(
                "other",
                vec![("src", Value::str("a")), ("count", Value::Int(1))]
            );
            2
        ]);
        assert_eq!(c.absorb(&foreign.chunks()[0], &mut s), [0, 1]);
        // The right schema with a wrong-typed COUNT cell in one row.
        let bad_row = |count: Value| {
            crate::Tuple::from_schema(
                Arc::clone(good.schema()),
                vec![
                    Value::Int(0),
                    Value::str("a"),
                    count,
                    Value::Float(1.0),
                    Value::Float(1.0),
                    Value::Int(1),
                ],
            )
        };
        let mixed = TupleBatch::new(vec![bad_row(Value::str("two")), bad_row(Value::Int(1))]);
        assert_eq!(c.absorb(&mixed.chunks()[0], &mut s), [0]);
        let closed = s.close_due(1_000);
        assert_eq!(
            closed[0].1[0].1.states[..],
            [
                AggState::Count(3),
                AggState::Avg {
                    sum: 11.0,
                    count: 3
                }
            ],
            "only the two well-formed rows merged"
        );
    }

    #[test]
    fn group_agg_segment_codec_round_trips_every_variant() {
        let agg = GroupAgg {
            vals: vec![
                Value::Null,
                Value::Bool(true),
                Value::Int(-5),
                Value::Float(2.5),
                Value::str("host-α"),
                Value::bytes([0u8, 255, 7]),
            ],
            states: vec![
                AggState::Count(3),
                AggState::Sum(1.5),
                AggState::Min(Some(Value::Int(-9))),
                AggState::Max(None),
                AggState::Avg { sum: 2.0, count: 4 },
            ]
            .into(),
        };
        let mut buf = Vec::new();
        agg.encode_state(&mut buf);
        let back = GroupAgg::decode_state(&buf).expect("clean bytes decode");
        assert_eq!(back.vals, agg.vals);
        assert_eq!(back.states, agg.states);
        // Byte-for-byte: re-encoding the decoded state reproduces the bytes.
        let mut again = Vec::new();
        back.encode_state(&mut again);
        assert_eq!(buf, again);
        // A truncated payload is rejected, not half-decoded.
        assert!(GroupAgg::decode_state(&buf[..buf.len() - 1]).is_none());
        // Trailing garbage is rejected too.
        let mut padded = buf.clone();
        padded.push(0);
        assert!(GroupAgg::decode_state(&padded).is_none());
    }
}
