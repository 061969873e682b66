//! Physical query operators.
//!
//! PIER's local dataflow (§3.3.5) pushes tuples from children to parents
//! through simple function calls; operators either pass a (possibly
//! transformed) tuple on, absorb it into state (joins, group-by, top-k), or
//! drop it (selection).  Here the unit of that call is the
//! columnar chunk — a lone tuple is a one-row chunk — so there is exactly
//! one way into an operator.  Stateful operators emit their
//! buffered results when the dataflow is *flushed*: a root's finisher
//! ([`crate::plan::finish_rows`]) flushes its [`TopK`]; the [`GroupBy`]
//! here is the oracle the window engine's aggregates are checked against.
//!
//! The [`LocalOperator`] trait captures that contract.  The distributed
//! operators of the paper — Put/Exchange (rehashing through the DHT),
//! Fetch Matches index joins, hierarchical aggregation — are coordinated by
//! the [`executor`](crate::node) because they need the overlay; the
//! symmetric-hash join state they use lives here so it can be tested
//! exhaustively in isolation.

use crate::aggregate::{AggFunc, AggState};
use crate::column::Column;
use crate::expr::{CompiledPredicate, Expr};
use crate::tuple::{
    ColumnChunk, ColumnRef, ColumnResolver, Schema, SchemaRegistry, Tuple, TupleBatch,
};
use crate::value::Value;
use pier_telemetry::Telemetry;
use std::collections::HashMap;
use std::sync::Arc;

/// A push-based local operator.
pub trait LocalOperator: std::fmt::Debug {
    /// Push a [`TupleBatch`] in — the operator's only data entry; a lone
    /// tuple arrives as a one-row chunk.  The survivors come back as a
    /// **re-chunked batch** (same-schema runs preserved), so a stack of
    /// stages passes columnar chunks from one to the next without ever
    /// exploding into per-tuple dispatch: implementations resolve columns
    /// once per [`ColumnChunk`] and scan — or mask-filter — the chunk's
    /// columns directly.  How the rows were cut into chunks and batches must
    /// be invisible: any partition of the same row sequence yields the same
    /// output rows in the same order, and the same [`LocalOperator::flush`]
    /// (the chunking-invariance tests pin this).
    fn push_batch(&mut self, batch: &TupleBatch) -> TupleBatch;

    /// Emit whatever the operator has been buffering (group-by results,
    /// top-k heaps, …).  Pass-through operators return nothing.
    fn flush(&mut self) -> Vec<Tuple> {
        Vec::new()
    }

    /// Short stable tag naming the operator kind; keys the per-operator
    /// telemetry counters (`op.<name>.rows_in` / `rows_out` / `chunks_in`).
    fn name(&self) -> &'static str {
        "op"
    }
}

/// Selection: drop tuples that do not satisfy the predicate.  Tuples the
/// predicate cannot be evaluated against (missing column, type mismatch) are
/// dropped too — the best-effort policy of §3.3.4.
///
/// The predicate is compiled against each input schema once
/// ([`CompiledPredicate`]) and evaluates straight over a chunk's columns;
/// only the surviving rows are copied out.
#[derive(Debug)]
pub struct Selection {
    predicate: CompiledPredicate,
}

impl Selection {
    /// Create a selection with the given predicate.
    pub fn new(predicate: Expr) -> Self {
        Selection {
            predicate: CompiledPredicate::new(predicate),
        }
    }
}

impl LocalOperator for Selection {
    fn name(&self) -> &'static str {
        "selection"
    }

    fn push_batch(&mut self, batch: &TupleBatch) -> TupleBatch {
        // Mask-and-filter: the predicate evaluates **column-at-a-time**
        // ([`CompiledExpr::eval_column`] — type-specialised loops over each
        // referenced column, masks combined bitwise) and the survivors are
        // copied out as one whole chunk per input chunk — zero per-row
        // `Tuple` materialisations and no per-row expression-tree walk.
        let mut out = TupleBatch::default();
        for chunk in batch.chunks() {
            let compiled = self.predicate.for_schema(chunk.schema());
            let mask = compiled.eval_column(chunk);
            out.push_chunk(chunk.filter(&mask));
        }
        out
    }
}

/// `(input schema, projected schema, per-output-column source index)`.
type ProjectionCache = (Arc<Schema>, Arc<Schema>, Vec<Option<usize>>);

/// Projection onto a fixed list of columns.  The projected schema and the
/// per-column source indices are resolved once per input schema, not once
/// per tuple.
#[derive(Debug)]
pub struct Projection {
    columns: Vec<String>,
    cache: Option<ProjectionCache>,
}

impl Projection {
    /// Create a projection.
    pub fn new(columns: Vec<String>) -> Self {
        Projection {
            columns,
            cache: None,
        }
    }

    /// Resolve the projected schema and source indices for `schema`
    /// (single-entry cache keyed by schema pointer).
    fn ensure(&mut self, schema: &Arc<Schema>) -> &ProjectionCache {
        let hit = self
            .cache
            .as_ref()
            .is_some_and(|(input, _, _)| Arc::ptr_eq(input, schema));
        if !hit {
            let names: Vec<&str> = self.columns.iter().map(String::as_str).collect();
            let out = SchemaRegistry::global().intern(schema.table(), &names);
            let srcs = self.columns.iter().map(|c| schema.position(c)).collect();
            self.cache = Some((Arc::clone(schema), out, srcs));
        }
        self.cache.as_ref().expect("cache populated above")
    }
}

impl LocalOperator for Projection {
    fn name(&self) -> &'static str {
        "projection"
    }

    fn push_batch(&mut self, batch: &TupleBatch) -> TupleBatch {
        // Column gather: each projected output column is the source column's
        // typed buffer cloned whole (or a NULL run) — the output chunk is
        // assembled without materialising a single row or value.
        let mut outputs = TupleBatch::default();
        for chunk in batch.chunks() {
            let (_, out, srcs) = self.ensure(chunk.schema());
            let out = Arc::clone(out);
            let columns: Vec<Column> = srcs
                .iter()
                .map(|src| match src {
                    Some(i) => chunk.col(*i).clone(),
                    None => Column::from_values(vec![Value::Null; chunk.rows()]),
                })
                .collect();
            outputs.push_chunk(ColumnChunk::from_columns(out, columns, chunk.rows()));
        }
        outputs
    }
}

/// Grouped aggregation.  Emits one tuple per group on flush with the group
/// columns plus one output column per aggregate.
///
/// The group columns and every aggregate's input column are resolved to
/// schema indices once per input schema, and the output shape is interned
/// once at construction, so the per-row work is index lookups only.
#[derive(Debug)]
pub struct GroupBy {
    group_cols: ColumnResolver,
    aggs: Vec<AggFunc>,
    /// Per-aggregate input column resolver (`None` for `COUNT(*)`).
    agg_inputs: Vec<Option<ColumnRef>>,
    groups: HashMap<String, (Vec<Value>, Vec<AggState>)>,
    out_schema: Arc<Schema>,
}

impl GroupBy {
    /// Create a group-by with the given grouping columns and aggregates.
    pub fn new(
        group_cols: Vec<String>,
        aggs: Vec<AggFunc>,
        output_table: impl Into<String>,
    ) -> Self {
        GroupBy {
            out_schema: Self::output_schema(&group_cols, &aggs, &output_table.into()),
            agg_inputs: aggs
                .iter()
                .map(|a| a.input_column().map(ColumnRef::new))
                .collect(),
            group_cols: ColumnResolver::new(group_cols),
            aggs,
            groups: HashMap::new(),
        }
    }

    /// The fixed shape of this operator's output tuples: the group columns,
    /// then one column per aggregate.
    fn output_schema(group_cols: &[String], aggs: &[AggFunc], output_table: &str) -> Arc<Schema> {
        let mut columns: Vec<String> = group_cols.to_vec();
        columns.extend(aggs.iter().map(AggFunc::output_column));
        SchemaRegistry::global().intern_owned(output_table.to_string(), columns)
    }

    fn group_tuple(&self, values: &[Value], states: &[AggState]) -> Tuple {
        let finished = states.iter().map(AggState::finish);
        let out: Vec<Value> = values.iter().cloned().chain(finished).collect();
        Tuple::from_schema(Arc::clone(&self.out_schema), out)
    }
}

impl LocalOperator for GroupBy {
    fn name(&self) -> &'static str {
        "groupby"
    }

    fn push_batch(&mut self, batch: &TupleBatch) -> TupleBatch {
        // Absorb chunk-at-a-time: group columns and aggregate inputs resolve
        // once per chunk, the inner loop is column indexing only.
        for chunk in batch.chunks() {
            let schema = chunk.schema();
            let Some(group_idxs) = self.group_cols.indices_for(schema) else {
                continue; // malformed chunk for this operator: discard
            };
            let group_idxs = group_idxs.to_vec();
            let agg_idxs: Vec<Option<usize>> = self
                .agg_inputs
                .iter_mut()
                .map(|input| input.as_mut().and_then(|c| c.index_for(schema)))
                .collect();
            for r in 0..chunk.rows() {
                let key = chunk.key_at(&group_idxs, r);
                let entry = match self.groups.entry(key) {
                    std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
                    std::collections::hash_map::Entry::Vacant(e) => {
                        let vals = group_idxs.iter().map(|&i| chunk.col(i).value(r)).collect();
                        e.insert((vals, self.aggs.iter().map(AggFunc::init).collect()))
                    }
                };
                for ((agg, idx), state) in self.aggs.iter().zip(&agg_idxs).zip(entry.1.iter_mut()) {
                    let value = idx.map(|i| chunk.col(i).value_ref(r));
                    state.update_ref(agg, value);
                }
            }
        }
        TupleBatch::default()
    }

    fn flush(&mut self) -> Vec<Tuple> {
        // Flush drains the accumulated groups: a subsequent flush only emits
        // data that arrived in between (important for the periodic partial
        // flushes of hierarchical aggregation, which must not re-send what
        // has already travelled up the tree).
        let groups = std::mem::take(&mut self.groups);
        let mut out: Vec<Tuple> = groups
            .values()
            .map(|(vals, states)| self.group_tuple(vals, states))
            .collect();
        // Deterministic output order helps tests and clients (cached keys:
        // one render per row, not two per comparison).
        out.sort_by_cached_key(std::string::ToString::to_string);
        out
    }
}

/// Keep the `k` tuples with the largest value in `order_col` (used for the
/// firewall-monitoring "top ten sources" query of Figure 2).
#[derive(Debug)]
pub struct TopK {
    k: usize,
    order_col: ColumnRef,
    buffer: Vec<Tuple>,
}

impl TopK {
    /// Create a top-k operator ordered descending by `order_col`.
    pub fn new(k: usize, order_col: impl Into<String>) -> Self {
        TopK {
            k,
            order_col: ColumnRef::new(order_col.into()),
            buffer: Vec::new(),
        }
    }
}

impl LocalOperator for TopK {
    fn name(&self) -> &'static str {
        "topk"
    }

    fn push_batch(&mut self, batch: &TupleBatch) -> TupleBatch {
        // The order column resolves once per chunk; only rows that must be
        // buffered (numeric order value) are materialised — buffering needs
        // owned tuples by design.
        for chunk in batch.chunks() {
            let Some(idx) = self.order_col.index_for(chunk.schema()) else {
                continue; // chunk lacks the order column: discard
            };
            for r in 0..chunk.rows() {
                if chunk.col(idx).value_ref(r).as_f64().is_some() {
                    self.buffer.push(chunk.row(r));
                }
            }
        }
        TupleBatch::default()
    }

    fn flush(&mut self) -> Vec<Tuple> {
        let order_col = self.order_col.column().to_string();
        self.buffer.sort_by(|a, b| {
            let av = a
                .get(&order_col)
                .and_then(Value::as_f64)
                .unwrap_or(f64::MIN);
            let bv = b
                .get(&order_col)
                .and_then(Value::as_f64)
                .unwrap_or(f64::MIN);
            bv.partial_cmp(&av).unwrap_or(std::cmp::Ordering::Equal)
        });
        self.buffer.drain(..).take(self.k).collect()
    }
}

/// One side's state in the chunk-native Symmetric Hash join: arrived rows
/// stay inside their typed [`ColumnChunk`]s and the hash table maps join
/// keys to `(chunk, row)` locations instead of owned tuples.
#[derive(Debug, Default)]
struct JoinSideState {
    /// Every chunk pushed on this side, in arrival order (a single-tuple
    /// arrival is a one-row chunk).
    chunks: Vec<ColumnChunk>,
    /// `join key → stored (chunk, row) locations`, in arrival order (which
    /// is ascending `(chunk, row)` — chunks are appended, rows scanned in
    /// order).
    table: HashMap<String, Vec<(u32, u32)>>,
    /// Total stored rows (sum of the table's bucket lengths).
    rows: usize,
}

/// Symmetric Hash join [Wilschut & Apers]: rows are inserted into their
/// side's hash table and probe the opposite side's table as they arrive, so
/// results stream out without blocking.
///
/// The state is **chunk-native**: each side keeps its arrived
/// [`ColumnChunk`]s intact (typed buffers and all) plus a hash table of
/// `key → (chunk, row)` match locations.  A probing chunk collects its match
/// indices per stored chunk and emits joined output via
/// [`ColumnChunk::gather`] — whole typed chunks, no per-row `Tuple`
/// materialisation.  Key columns resolve to schema indices once per side
/// schema, and the joined output schema is interned once per (left, right)
/// schema pair.
/// Parallel (probe row, stored row) gather index lists for one stored chunk.
type GatherPair = (Vec<u32>, Vec<u32>);

#[derive(Debug)]
pub struct SymmetricHashJoin {
    left_key: ColumnResolver,
    right_key: ColumnResolver,
    left: JoinSideState,
    right: JoinSideState,
    output_table: String,
    /// `(left schema, right schema) → joined schema` single-entry cache.
    out_schema: Option<(Arc<Schema>, Arc<Schema>, Arc<Schema>)>,
}

/// Which side of a symmetric hash join a tuple belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinSide {
    /// The left (build/probe) side.
    Left,
    /// The right (build/probe) side.
    Right,
}

impl SymmetricHashJoin {
    /// Create a symmetric hash join on `left_key = right_key`.
    pub fn new(
        left_key: Vec<String>,
        right_key: Vec<String>,
        output_table: impl Into<String>,
    ) -> Self {
        SymmetricHashJoin {
            left_key: ColumnResolver::new(left_key),
            right_key: ColumnResolver::new(right_key),
            left: JoinSideState::default(),
            right: JoinSideState::default(),
            output_table: output_table.into(),
            out_schema: None,
        }
    }

    /// Number of rows currently held on each side.
    pub fn state_size(&self) -> (usize, usize) {
        (self.left.rows, self.right.rows)
    }

    /// Insert a columnar chunk arriving on `side` (a single tuple is a
    /// one-row chunk) and emit the joined rows as typed chunks.
    ///
    /// The key columns resolve against the chunk's schema once; every row is
    /// keyed by direct column indexing, records its `(chunk, row)` location
    /// in this side's table, and collects the opposite side's match
    /// locations.  Matches are grouped per stored chunk and both sides are
    /// emitted via [`ColumnChunk::gather`] — one joined typed chunk per
    /// (probe chunk, stored chunk) pair, never a per-row tuple build.
    ///
    /// However the arrivals were chunked, the joined rows are the same
    /// multiset (what [`nested_loop_join`] produces); only their order
    /// depends on chunking — output is grouped stored-chunk-major, then
    /// probe-row order within a group.
    pub fn push_chunk_batch(&mut self, side: JoinSide, chunk: &ColumnChunk) -> TupleBatch {
        if chunk.rows() == 0 {
            return TupleBatch::default();
        }
        let key_cols = match side {
            JoinSide::Left => &mut self.left_key,
            JoinSide::Right => &mut self.right_key,
        };
        let Some(idxs) = key_cols.indices_for(chunk.schema()) else {
            return TupleBatch::default(); // malformed chunk: discard
        };
        let idxs = idxs.to_vec();
        let (own, other) = match side {
            JoinSide::Left => (&mut self.left, &self.right),
            JoinSide::Right => (&mut self.right, &self.left),
        };
        let chunk_id = own.chunks.len() as u32;
        // Per stored opposite-side chunk: parallel (probe row, stored row)
        // gather indices, accumulated while this chunk's rows are keyed.
        let mut matched: HashMap<u32, GatherPair> = HashMap::new();
        let mut key = String::new();
        for r in 0..chunk.rows() as u32 {
            key.clear();
            chunk.write_key_at(&idxs, r as usize, &mut key);
            if let Some(hits) = other.table.get(key.as_str()) {
                for &(c, sr) in hits {
                    let (probe, stored) = matched.entry(c).or_default();
                    probe.push(r);
                    stored.push(sr);
                }
            }
            match own.table.get_mut(key.as_str()) {
                Some(bucket) => bucket.push((chunk_id, r)),
                None => {
                    own.table.insert(key.clone(), vec![(chunk_id, r)]);
                }
            }
            own.rows += 1;
        }
        own.chunks.push(chunk.clone());

        let mut out = TupleBatch::default();
        if matched.is_empty() {
            return out;
        }
        // Deterministic emission order: stored chunks in arrival order.
        let mut groups: Vec<(u32, GatherPair)> = matched.into_iter().collect();
        groups.sort_unstable_by_key(|(c, _)| *c);
        for (c, (probe_rows, stored_rows)) in groups {
            let stored = &other.chunks[c as usize];
            let (left_chunk, left_rows, right_chunk, right_rows) = match side {
                JoinSide::Left => (chunk, &probe_rows, stored, &stored_rows),
                JoinSide::Right => (stored, &stored_rows, chunk, &probe_rows),
            };
            let joined = Self::joined_schema(
                &mut self.out_schema,
                &self.output_table,
                left_chunk.schema(),
                right_chunk.schema(),
            );
            let rows = probe_rows.len();
            let mut columns: Vec<Column> = Vec::with_capacity(joined.arity());
            for i in 0..left_chunk.schema().arity() {
                columns.push(left_chunk.col(i).gather(left_rows));
            }
            for i in 0..right_chunk.schema().arity() {
                columns.push(right_chunk.col(i).gather(right_rows));
            }
            out.push_chunk(ColumnChunk::from_columns(joined, columns, rows));
        }
        out
    }

    /// `(left schema, right schema) → joined schema` through the
    /// single-entry cache (an associated fn so callers holding side borrows
    /// can still reach it).
    fn joined_schema(
        cache: &mut Option<(Arc<Schema>, Arc<Schema>, Arc<Schema>)>,
        output_table: &str,
        left: &Arc<Schema>,
        right: &Arc<Schema>,
    ) -> Arc<Schema> {
        let hit = cache
            .as_ref()
            .is_some_and(|(l, r, _)| Arc::ptr_eq(l, left) && Arc::ptr_eq(r, right));
        if !hit {
            let joined = Tuple::join_schema(left, right, output_table);
            *cache = Some((Arc::clone(left), Arc::clone(right), joined));
        }
        Arc::clone(&cache.as_ref().expect("cache populated above").2)
    }
}

/// Reference nested-loop join used to validate the hash join in tests.
pub fn nested_loop_join(
    left: &[Tuple],
    right: &[Tuple],
    left_key: &[String],
    right_key: &[String],
    output_table: &str,
) -> Vec<Tuple> {
    let mut out = Vec::new();
    for l in left {
        for r in right {
            match (l.partition_key(left_key), r.partition_key(right_key)) {
                (Some(a), Some(b)) if a == b => out.push(l.join_with(r, output_table)),
                _ => {}
            }
        }
    }
    out
}

/// Pre-composed counter keys for one instrumented pipeline stage, so the
/// hot path increments by string lookup without formatting.
#[derive(Debug)]
struct StageMeter {
    rows_in: String,
    rows_out: String,
    chunks_in: String,
}

/// A pipeline of local operators: batches pushed in flow through every
/// stage; flush drains stateful stages in order.
///
/// With a telemetry hub attached ([`Pipeline::set_telemetry`]) every stage
/// accumulates `op.<name>.rows_in`, `op.<name>.rows_out` and
/// `op.<name>.chunks_in` counters — for a [`Selection`] the
/// rows-out/rows-in ratio is exactly the compiled predicate's observed
/// selectivity.  Counters are keyed by operator kind, so pipelines of many
/// queries aggregate into one per-node view.
#[derive(Debug, Default)]
pub struct Pipeline {
    stages: Vec<Box<dyn LocalOperator + Send>>,
    meters: Option<(Telemetry, Vec<StageMeter>)>,
}

impl Pipeline {
    /// Create an empty (pass-through) pipeline.
    pub fn new(stages: Vec<Box<dyn LocalOperator + Send>>) -> Self {
        Pipeline {
            stages,
            meters: None,
        }
    }

    /// Attach (or, with a disabled handle, detach) per-stage telemetry.
    pub fn set_telemetry(&mut self, tel: &Telemetry) {
        if !tel.is_enabled() {
            self.meters = None;
            return;
        }
        let meters = self
            .stages
            .iter()
            .map(|s| {
                let name = s.name();
                StageMeter {
                    rows_in: format!("op.{name}.rows_in"),
                    rows_out: format!("op.{name}.rows_out"),
                    chunks_in: format!("op.{name}.chunks_in"),
                }
            })
            .collect();
        self.meters = Some((tel.clone(), meters));
    }

    /// Push a batch through the pipeline **chunk-to-chunk**: every stage
    /// consumes the previous stage's re-chunked survivor batch via
    /// [`LocalOperator::push_batch`], so a selection→projection→group-by
    /// stack stays columnar end to end — a single-schema batch travels as
    /// one chunk per stage and no stage boundary materialises per-row
    /// tuples.
    pub fn push_batch(&mut self, batch: &TupleBatch) -> TupleBatch {
        let Some((first, rest)) = self.stages.split_first_mut() else {
            return batch.clone(); // pass-through pipeline
        };
        let mut current = first.push_batch(batch);
        if let Some((tel, meters)) = &self.meters {
            let m = &meters[0];
            tel.add(&m.rows_in, batch.len() as u64);
            tel.add(&m.chunks_in, batch.chunks().len() as u64);
            tel.add(&m.rows_out, current.len() as u64);
        }
        for (i, stage) in rest.iter_mut().enumerate() {
            if current.is_empty() {
                break;
            }
            let rows_in = current.len();
            let chunks_in = current.chunks().len();
            let next = stage.push_batch(&current);
            if let Some((tel, meters)) = &self.meters {
                let m = &meters[i + 1];
                tel.add(&m.rows_in, rows_in as u64);
                tel.add(&m.chunks_in, chunks_in as u64);
                tel.add(&m.rows_out, next.len() as u64);
            }
            current = next;
        }
        current
    }

    /// Flush every stage, cascading buffered tuples downstream through
    /// `push_batch` (a stateful stage's emissions form same-schema runs, so
    /// downstream stages consume them as chunks).
    pub fn flush(&mut self) -> Vec<Tuple> {
        let mut carried = TupleBatch::default();
        for i in 0..self.stages.len() {
            let rows_in = carried.len();
            let chunks_in = carried.chunks().len();
            // Tuples released by upstream flushes still have to traverse the
            // remaining stages.
            let mut released = if carried.is_empty() {
                TupleBatch::default()
            } else {
                self.stages[i].push_batch(&carried)
            };
            for t in self.stages[i].flush() {
                released.push_tuple(t);
            }
            if let Some((tel, meters)) = &self.meters {
                let m = &meters[i];
                tel.add(&m.rows_in, rows_in as u64);
                tel.add(&m.chunks_in, chunks_in as u64);
                tel.add(&m.rows_out, released.len() as u64);
            }
            carried = released;
        }
        carried.into_tuples()
    }

    /// Number of stages.
    pub fn len(&self) -> usize {
        self.stages.len()
    }

    /// True when the pipeline has no stages.
    pub fn is_empty(&self) -> bool {
        self.stages.is_empty()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::expr::CmpOp;

    fn row(table: &str, id: i64, category: &str, amount: i64) -> Tuple {
        Tuple::new(
            table,
            vec![
                ("id", Value::Int(id)),
                ("category", Value::Str(category.into())),
                ("amount", Value::Int(amount)),
            ],
        )
    }

    /// A lone tuple the way it enters an operator: a one-row batch.
    pub(crate) fn one(t: Tuple) -> TupleBatch {
        TupleBatch::new(vec![t])
    }

    #[test]
    fn selection_filters_and_discards_malformed() {
        let mut sel = Selection::new(Expr::cmp(CmpOp::Gt, Expr::col("amount"), Expr::lit(10i64)));
        assert_eq!(sel.push_batch(&one(row("t", 1, "a", 50))).len(), 1);
        assert_eq!(sel.push_batch(&one(row("t", 2, "a", 5))).len(), 0);
        // Malformed: no amount column.
        let malformed = Tuple::new("t", vec![("id", Value::Int(3))]);
        assert_eq!(sel.push_batch(&one(malformed)).len(), 0);
    }

    #[test]
    fn projection_keeps_the_named_columns() {
        let mut proj = Projection::new(vec!["id".into()]);
        let out = proj.push_batch(&one(row("t", 7, "x", 1))).into_tuples();
        assert_eq!(out[0].columns(), &["id".to_string()]);
    }

    #[test]
    fn group_by_counts_and_sums() {
        let mut g = GroupBy::new(
            vec!["category".into()],
            vec![AggFunc::Count, AggFunc::Sum("amount".into())],
            "out",
        );
        for (cat, amount) in [("a", 10), ("b", 5), ("a", 20), ("a", 30), ("b", 5)] {
            assert!(g.push_batch(&one(row("t", 0, cat, amount))).is_empty());
        }
        let out = g.flush();
        assert_eq!(out.len(), 2);
        let a = out
            .iter()
            .find(|t| t.get("category") == Some(&Value::Str("a".into())))
            .unwrap();
        assert_eq!(a.get("count"), Some(&Value::Int(3)));
        assert_eq!(a.get("sum_amount"), Some(&Value::Float(60.0)));
    }

    #[test]
    fn top_k_orders_descending() {
        let mut t = TopK::new(2, "count");
        for (src, n) in [("a", 5), ("b", 50), ("c", 20)] {
            t.push_batch(&one(Tuple::new(
                "g",
                vec![("src", Value::Str(src.into())), ("count", Value::Int(n))],
            )));
        }
        let out = t.flush();
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].get("src"), Some(&Value::Str("b".into())));
        assert_eq!(out[1].get("src"), Some(&Value::Str("c".into())));
    }

    fn join_inputs(left: i64, right: i64) -> (Vec<Tuple>, Vec<Tuple>) {
        let left = (0..left)
            .map(|i| row("r", i, ["a", "b", "c"][(i % 3) as usize], i))
            .collect();
        let right = (0..right)
            .map(|i| {
                Tuple::new(
                    "s",
                    vec![
                        (
                            "category",
                            Value::Str(["a", "b", "c", "d"][(i % 4) as usize].into()),
                        ),
                        ("weight", Value::Int(i * 10)),
                    ],
                )
            })
            .collect();
        (left, right)
    }

    #[test]
    fn symmetric_hash_join_equals_nested_loop() {
        let (left, right) = join_inputs(20, 15);
        let key = vec!["category".to_string()];
        let mut shj = SymmetricHashJoin::new(key.clone(), key.clone(), "rs");
        let mut streamed = Vec::new();
        // Interleave single-tuple arrivals, as the network would.
        let mut l = left.iter();
        let mut r = right.iter();
        loop {
            match (l.next(), r.next()) {
                (None, None) => break,
                (lt, rt) => {
                    for (side, t) in [(JoinSide::Left, lt), (JoinSide::Right, rt)] {
                        if let Some(t) = t {
                            let chunk = ColumnChunk::from_tuple(t);
                            streamed.extend(shj.push_chunk_batch(side, &chunk).into_tuples());
                        }
                    }
                }
            }
        }
        let reference = nested_loop_join(&left, &right, &key, &key, "rs");
        assert_eq!(streamed.len(), reference.len());
        assert!(!streamed.is_empty());
        let (ls, rs) = shj.state_size();
        assert_eq!(ls, 20);
        assert_eq!(rs, 15);
    }

    #[test]
    fn pipeline_composes_and_flushes() {
        let mut p = Pipeline::new(vec![
            Box::new(Selection::new(Expr::cmp(
                CmpOp::Ge,
                Expr::col("amount"),
                Expr::lit(10i64),
            ))),
            Box::new(GroupBy::new(
                vec!["category".into()],
                vec![AggFunc::Count],
                "out",
            )),
            Box::new(TopK::new(1, "count")),
        ]);
        for (cat, amount) in [("a", 10), ("a", 20), ("b", 100), ("b", 1), ("c", 3)] {
            assert!(p.push_batch(&one(row("t", 0, cat, amount))).is_empty());
        }
        let out = p.flush();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].get("category"), Some(&Value::Str("a".into())));
        assert_eq!(out[0].get("count"), Some(&Value::Int(2)));
        assert_eq!(p.len(), 3);
    }

    #[test]
    fn empty_pipeline_is_pass_through() {
        let mut p = Pipeline::new(vec![]);
        assert!(p.is_empty());
        assert_eq!(p.push_batch(&one(row("t", 1, "a", 1))).len(), 1);
        assert!(p.flush().is_empty());
    }

    /// Netmon events with, every eleventh row, an `audit` row of another
    /// shape (no `port`, no `len`, no `src`), so every cut of the stream has
    /// mixed-schema runs to carry.
    fn netmon_rows(n: i64) -> Vec<Tuple> {
        (0..n)
            .map(|i| {
                if i % 11 == 10 {
                    return Tuple::new("audit", vec![("note", Value::Int(i))]);
                }
                Tuple::new(
                    "events",
                    vec![
                        ("src", Value::Str(format!("10.0.0.{}", i % 7).into())),
                        ("port", Value::Int(i % 1024)),
                        ("len", Value::Int(40 + i % 1400)),
                    ],
                )
            })
            .collect()
    }

    /// Piece lengths the chunking-invariance checks cut their input at,
    /// cycled: empty pieces, single rows, and the lengths around the eddy's
    /// re-draw stride (32) and the ingest stage / `rehash::MAX_TUPLES` (64).
    const PIECES: [usize; 7] = [0, 1, 31, 32, 33, 64, 65];

    /// Cut `rows` into consecutive batches of the given lengths (cycled).
    fn cut(rows: &[Tuple], pieces: &[usize]) -> Vec<TupleBatch> {
        let mut out = Vec::new();
        let mut rest = rows;
        for len in pieces.iter().cycle() {
            if rest.is_empty() {
                break;
            }
            let (piece, tail) = rest.split_at((*len).min(rest.len()));
            out.push(TupleBatch::new(piece.to_vec()));
            rest = tail;
        }
        out
    }

    /// The three ways every invariance check feeds the same rows: as one
    /// batch, as all one-row batches, and cut at [`PIECES`].
    pub(crate) fn chunkings(rows: &[Tuple]) -> [Vec<TupleBatch>; 3] {
        [
            vec![TupleBatch::new(rows.to_vec())],
            rows.iter().cloned().map(one).collect(),
            cut(rows, &PIECES),
        ]
    }

    /// Chunk boundaries are invisible: however `rows` are cut, the pipeline
    /// `mk` builds streams the same rows in the same order and flushes the
    /// same rows.  Returns that `(streamed, flushed)` pair.
    fn assert_chunking_invisible(
        mk: impl Fn() -> Vec<Box<dyn LocalOperator + Send>>,
        rows: &[Tuple],
    ) -> (Vec<Tuple>, Vec<Tuple>) {
        let [whole, single, pieces] = chunkings(rows).map(|batches| {
            let mut p = Pipeline::new(mk());
            let mut streamed = Vec::new();
            for b in &batches {
                streamed.extend(p.push_batch(b).into_tuples());
            }
            (streamed, p.flush())
        });
        assert_eq!(single, whole, "one-row chunks vs one chunk");
        assert_eq!(pieces, whole, "cut at {PIECES:?} vs one chunk");
        whole
    }

    #[test]
    fn selection_chunking_is_invisible() {
        let rows = netmon_rows(200);
        let mk = || {
            let pred = Expr::cmp(CmpOp::Ge, Expr::col("port"), Expr::lit(100i64));
            vec![Box::new(Selection::new(pred)) as Box<dyn LocalOperator + Send>]
        };
        let (streamed, flushed) = assert_chunking_invisible(mk, &rows);
        let expected: Vec<Tuple> = rows
            .iter()
            .filter(|t| {
                t.get("port")
                    .and_then(Value::as_i64)
                    .is_some_and(|p| p >= 100)
            })
            .cloned()
            .collect();
        assert_eq!(streamed, expected);
        assert!(!streamed.is_empty() && flushed.is_empty());
        // Single-schema survivors of one chunk stay one chunk.
        let events: Vec<Tuple> = rows.into_iter().filter(|t| t.table() == "events").collect();
        let got = Pipeline::new(mk()).push_batch(&TupleBatch::new(events));
        assert_eq!(got.chunks().len(), 1);
    }

    #[test]
    fn projection_chunking_is_invisible() {
        let rows = netmon_rows(50);
        let cols = vec!["src".to_string(), "missing".to_string()];
        let mk = || vec![Box::new(Projection::new(cols.clone())) as Box<dyn LocalOperator + Send>];
        let (streamed, _) = assert_chunking_invisible(mk, &rows);
        let expected: Vec<Tuple> = rows.iter().map(|t| t.project(&cols)).collect();
        assert_eq!(streamed, expected);
    }

    #[test]
    fn group_by_chunking_is_invisible() {
        let rows = netmon_rows(300);
        let mk = || {
            vec![Box::new(GroupBy::new(
                vec!["src".into()],
                vec![AggFunc::Count, AggFunc::Sum("len".into())],
                "out",
            )) as Box<dyn LocalOperator + Send>]
        };
        let (streamed, flushed) = assert_chunking_invisible(mk, &rows);
        assert!(streamed.is_empty());
        assert_eq!(flushed.len(), 7, "seven sources; audit rows are discarded");
        let counted: i64 = flushed
            .iter()
            .map(|t| t.get("count").and_then(Value::as_i64).unwrap())
            .sum();
        assert_eq!(counted, 300 - 300 / 11);
    }

    #[test]
    fn join_chunking_is_invisible() {
        let (left, right) = join_inputs(130, 70);
        let key = vec!["category".to_string()];
        let canon = |v: &[Tuple]| {
            let mut s: Vec<String> = v.iter().map(std::string::ToString::to_string).collect();
            s.sort();
            s
        };
        let expected = canon(&nested_loop_join(&left, &right, &key, &key, "rs"));
        assert!(!expected.is_empty());
        for (l, r) in chunkings(&left).into_iter().zip(chunkings(&right)) {
            let mut join = SymmetricHashJoin::new(key.clone(), key.clone(), "rs");
            let mut got = Vec::new();
            // Alternate the sides piece by piece, so probes hit stored
            // chunks of every size on both sides.
            let mut l = l.iter();
            let mut r = r.iter();
            loop {
                let (lb, rb) = (l.next(), r.next());
                if lb.is_none() && rb.is_none() {
                    break;
                }
                for (side, batch) in [(JoinSide::Left, lb), (JoinSide::Right, rb)] {
                    for chunk in batch.map_or(&[][..], TupleBatch::chunks) {
                        got.extend(join.push_chunk_batch(side, chunk).into_tuples());
                    }
                }
            }
            assert_eq!(canon(&got), expected);
            assert_eq!(join.state_size(), (130, 70));
        }
    }

    #[test]
    fn pipeline_chunking_is_invisible() {
        let rows = netmon_rows(400);
        let mk = || {
            vec![
                Box::new(Selection::new(Expr::cmp(
                    CmpOp::Lt,
                    Expr::col("port"),
                    Expr::lit(900i64),
                ))) as Box<dyn LocalOperator + Send>,
                Box::new(Projection::new(vec!["src".into(), "len".into()])),
                Box::new(GroupBy::new(
                    vec!["src".into()],
                    vec![AggFunc::Count, AggFunc::Avg("len".into())],
                    "out",
                )),
            ]
        };
        let (streamed, flushed) = assert_chunking_invisible(mk, &rows);
        assert!(streamed.is_empty(), "the group-by tail absorbs everything");
        assert_eq!(flushed.len(), 7);
    }

    #[test]
    fn chunked_pipeline_stays_columnar_between_stages() {
        // selection → projection → selection over a single-schema batch: the
        // survivors leave every stage as one chunk (no per-tuple explosion).
        let rows: Vec<Tuple> = netmon_rows(110)
            .into_iter()
            .filter(|t| t.table() == "events")
            .collect();
        assert_eq!(rows.len(), 100);
        let mut p = Pipeline::new(vec![
            Box::new(Selection::new(Expr::cmp(
                CmpOp::Lt,
                Expr::col("port"),
                Expr::lit(512i64),
            ))) as Box<dyn LocalOperator + Send>,
            Box::new(Projection::new(vec!["src".into()])),
            Box::new(Selection::new(Expr::cmp(
                CmpOp::Ne,
                Expr::col("src"),
                Expr::lit("10.0.0.0"),
            ))),
        ]);
        let out = p.push_batch(&TupleBatch::new(rows));
        assert_eq!(out.chunks().len(), 1, "one chunk through the whole stack");
        assert_eq!(
            out.len(),
            86,
            "ports below 512 from six of the seven sources"
        );
        for chunk in out.chunks() {
            assert_eq!(chunk.schema().columns(), &["src".to_string()]);
        }
    }

    #[test]
    fn top_k_chunking_is_invisible() {
        let rows = netmon_rows(150);
        let (streamed, flushed) =
            assert_chunking_invisible(|| vec![Box::new(TopK::new(5, "len")) as _], &rows);
        assert!(streamed.is_empty());
        let lens: Vec<i64> = flushed
            .iter()
            .map(|t| t.get("len").and_then(Value::as_i64).unwrap())
            .collect();
        assert_eq!(lens, [189, 188, 187, 186, 185]);
    }
}
