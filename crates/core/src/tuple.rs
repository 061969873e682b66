//! Self-describing tuples (§3.3.1) with interned schemas and columnar
//! batches.
//!
//! Because PIER keeps no system catalog, every tuple carries its table name,
//! its column names and its values.  Access methods convert source data into
//! this format; operators address fields by name and silently discard tuples
//! that lack an expected field or carry an incompatible type.
//!
//! The paper's "no catalog" stance is *logical*: every tuple is
//! self-describing **on the wire** and across trust domains.  It does not
//! force the in-memory representation to copy the table name and every
//! column name per tuple.  This module therefore splits a tuple into a
//! [`Schema`] (table + column names + a precomputed column→index map) shared
//! through an `Arc` via the process-wide [`SchemaRegistry`], and a shared
//! slice of [`Value`]s:
//!
//! * cloning a tuple bumps two reference counts (`Arc<Schema>` +
//!   `Arc<[Value]>`) — **allocation-free**, which `tests/alloc_bars.rs`
//!   pins with a counting allocator;
//! * [`Tuple::get`] resolves the column once against the schema instead of
//!   linearly comparing strings per access;
//! * operators resolve their column lists to indices **once per schema**
//!   (not once per tuple) through [`ColumnResolver`] / [`ColumnRef`], whose
//!   single-entry caches are keyed by schema identity (`Arc::ptr_eq`) —
//!   interning makes pointer equality a sound schema-equality check;
//! * [`TupleBatch`] groups same-destination tuples for a single overlay
//!   transfer and stores them **columnar**: consecutive same-schema tuples
//!   form a [`ColumnChunk`] holding one typed [`Column`] per column (native
//!   `i64`/`f64` buffers, dictionary/arena strings, validity bitmaps — see
//!   [`crate::column`]), so batch-at-a-time operators scan raw buffers
//!   contiguously and the wire accounting charges each self-describing
//!   schema once per chunk.  A batch of interleaved schemas stays
//!   columnar: every schema run becomes its own chunk.
//!
//! `Tuple::wire_size` still charges the full self-describing cost (schema +
//! values), exactly as in the paper — but only a *lone* tuple travels that
//! way (a single published row, a one-row rehash or partial).  Everywhere
//! rows travel in bulk — `PutBatch`, rehash, `*.wp` partials and, last,
//! the result messages — they are a [`TupleBatch`] and pay the header once
//! per chunk; a result becomes a `Tuple` again once, at the proxy, as the
//! client's `PierOut`.
//!
//! **Invariants.** Schemas are immutable once interned, and the registry
//! forgets only shapes nothing else holds (it prunes itself as it grows,
//! whatever the shapes are named; no caller tells it when); `Arc::ptr_eq`
//! on two *live* schema handles is therefore equivalent to deep equality —
//! a forgotten shape has no surviving handle to compare against.  A
//! `Tuple`'s value slice is parallel to its schema's columns (same arity),
//! and a `ColumnChunk`'s column vectors are parallel to its schema's columns
//! and all of equal length.

use crate::column::Column;
use crate::value::{Value, ValueRef};
use pier_runtime::WireSize;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex, OnceLock};

/// Column-count threshold below which name lookups linearly scan the column
/// list instead of hashing — faster for the short schemas that dominate.
const LINEAR_SCAN_MAX: usize = 6;

/// The shape of a tuple: its table (or result-set) name and column names,
/// plus a precomputed column→index map for wide schemas.  Schemas are
/// immutable and interned through the [`SchemaRegistry`], so two tuples with
/// the same shape share one allocation and can be compared by pointer.
#[derive(Debug)]
pub struct Schema {
    table: String,
    columns: Vec<String>,
    /// Column → index, built only past [`LINEAR_SCAN_MAX`] columns.
    index: Option<HashMap<String, usize>>,
}

impl Schema {
    fn build(table: String, columns: Vec<String>) -> Schema {
        let index = if columns.len() > LINEAR_SCAN_MAX {
            Some(
                columns
                    .iter()
                    .enumerate()
                    // `rev` keeps the *first* occurrence for duplicated
                    // names, matching a forward linear scan.
                    .rev()
                    .map(|(i, c)| (c.clone(), i))
                    .collect(),
            )
        } else {
            None
        };
        Schema {
            table,
            columns,
            index,
        }
    }

    /// The table (or result-set) name.
    pub fn table(&self) -> &str {
        &self.table
    }

    /// The column names, in tuple order.
    pub fn columns(&self) -> &[String] {
        &self.columns
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// Index of the named column (first occurrence), if present.
    pub fn position(&self, column: &str) -> Option<usize> {
        match &self.index {
            Some(map) => map.get(column).copied(),
            None => self.columns.iter().position(|c| c == column),
        }
    }
}

impl PartialEq for Schema {
    fn eq(&self, other: &Self) -> bool {
        std::ptr::eq(self, other) || (self.table == other.table && self.columns == other.columns)
    }
}

impl WireSize for Schema {
    fn wire_size(&self) -> usize {
        // The self-describing header: table name plus every column name.
        self.table.wire_size() + self.columns.iter().map(WireSize::wire_size).sum::<usize>()
    }
}

fn schema_hash<'a>(table: &str, columns: impl Iterator<Item = &'a str>) -> u64 {
    let mut h = DefaultHasher::new();
    table.hash(&mut h);
    for c in columns {
        c.hash(&mut h);
    }
    h.finish()
}

/// Entry count below which the registry never prunes.
const PRUNE_FLOOR: usize = 256;

/// Process-wide interner mapping (table, columns) shapes to shared
/// [`Schema`]s.  Lookups hash borrowed names, so repeated construction of
/// same-shaped tuples performs no string allocation at all.
///
/// The registry alone decides how long a shape lives: it forgets what
/// nothing else holds.  When an insert brings the entry count to twice what
/// the last prune kept (at least a floor of 256), every shape whose only
/// `Arc` is the registry's is dropped — amortised O(1) per insert, and the
/// registry stays within `max(256, 2 × live shapes)` whatever the
/// shapes are named (`q{id}.agg`, `g{fp}.wp`, a projection of a user
/// table, …).  A held shape is never dropped, so two live handles of one
/// shape stay one allocation.
#[derive(Debug, Default)]
pub struct SchemaRegistry {
    shapes: Mutex<Shapes>,
}

#[derive(Debug, Default)]
struct Shapes {
    by_hash: HashMap<u64, Vec<Arc<Schema>>>,
    /// Entries across all buckets.
    len: usize,
    /// Entries the last prune kept.
    kept: usize,
}

impl Shapes {
    /// Record `schema` in `hash`'s bucket and prune if the count reached
    /// its threshold; the caller holds the returned handle, so the new
    /// shape itself always survives.
    fn insert(&mut self, hash: u64, schema: Schema) -> Arc<Schema> {
        let schema = Arc::new(schema);
        self.by_hash
            .entry(hash)
            .or_default()
            .push(Arc::clone(&schema));
        self.len += 1;
        if self.len >= (2 * self.kept).max(PRUNE_FLOOR) {
            // Under the registry lock a strong count of 1 cannot grow: every
            // other handle is gone, and a new one comes only from `intern`.
            self.by_hash.retain(|_, bucket| {
                bucket.retain(|s| Arc::strong_count(s) > 1);
                !bucket.is_empty()
            });
            self.len = self.by_hash.values().map(Vec::len).sum();
            self.kept = self.len;
        }
        schema
    }
}

impl SchemaRegistry {
    /// The process-wide registry used by [`Tuple`] constructors.
    pub fn global() -> &'static SchemaRegistry {
        static GLOBAL: OnceLock<SchemaRegistry> = OnceLock::new();
        GLOBAL.get_or_init(SchemaRegistry::default)
    }

    /// Number of schemas interned (held or not yet pruned).
    pub fn len(&self) -> usize {
        self.shapes.lock().unwrap().len
    }

    /// True when the registry holds no schema.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Intern a shape given by borrowed parts; allocation-free when the
    /// shape is already known.
    pub fn intern(&self, table: &str, columns: &[&str]) -> Arc<Schema> {
        let hash = schema_hash(table, columns.iter().copied());
        let mut shapes = self.shapes.lock().unwrap();
        if let Some(existing) = shapes.by_hash.get(&hash).and_then(|bucket| {
            bucket.iter().find(|s| {
                s.table == table
                    && s.columns.len() == columns.len()
                    && s.columns
                        .iter()
                        .map(String::as_str)
                        .eq(columns.iter().copied())
            })
        }) {
            return Arc::clone(existing);
        }
        shapes.insert(
            hash,
            Schema::build(
                table.to_string(),
                columns
                    .iter()
                    .map(std::string::ToString::to_string)
                    .collect(),
            ),
        )
    }

    /// Intern a shape whose parts are already owned (the owned strings are
    /// dropped when the shape is known).
    pub fn intern_owned(&self, table: String, columns: Vec<String>) -> Arc<Schema> {
        let hash = schema_hash(&table, columns.iter().map(String::as_str));
        let mut shapes = self.shapes.lock().unwrap();
        if let Some(existing) = shapes.by_hash.get(&hash).and_then(|bucket| {
            bucket
                .iter()
                .find(|s| s.table == table && s.columns == columns)
        }) {
            return Arc::clone(existing);
        }
        shapes.insert(hash, Schema::build(table, columns))
    }
}

/// A self-describing relational tuple: an interned schema plus the values,
/// parallel to the schema's columns.  Both halves are `Arc`s, so `clone` is
/// two reference-count bumps and no allocation.
#[derive(Debug, Clone)]
pub struct Tuple {
    schema: Arc<Schema>,
    values: Arc<[Value]>,
}

impl Tuple {
    /// Create a tuple from `(column, value)` pairs.
    pub fn new(table: impl AsRef<str>, fields: Vec<(&str, Value)>) -> Self {
        let mut names: Vec<&str> = Vec::with_capacity(fields.len());
        let mut values = Vec::with_capacity(fields.len());
        for (c, v) in fields {
            names.push(c);
            values.push(v);
        }
        Tuple {
            schema: SchemaRegistry::global().intern(table.as_ref(), &names),
            values: values.into(),
        }
    }

    /// Create a tuple directly from an interned schema and parallel values
    /// (the allocation-minimal path used by operators that emit a fixed
    /// output shape).  `values` is a `Vec<Value>`, or — one allocation
    /// instead of two — an exact-size iterator collected straight into an
    /// `Arc<[Value]>`.  Panics in debug builds when the arity mismatches.
    pub fn from_schema(schema: Arc<Schema>, values: impl Into<Arc<[Value]>>) -> Self {
        let values = values.into();
        debug_assert_eq!(schema.arity(), values.len(), "schema/value arity mismatch");
        Tuple { schema, values }
    }

    /// Create a tuple from owned column names and parallel values, interning
    /// the shape once (cheaper than [`Tuple::empty`] + repeated pushes).
    pub fn from_parts(table: impl Into<String>, columns: Vec<String>, values: Vec<Value>) -> Self {
        debug_assert_eq!(columns.len(), values.len(), "column/value arity mismatch");
        Tuple {
            schema: SchemaRegistry::global().intern_owned(table.into(), columns),
            values: values.into(),
        }
    }

    /// Create an empty tuple for a table (columns added via [`Tuple::push`]).
    pub fn empty(table: impl AsRef<str>) -> Self {
        Tuple {
            schema: SchemaRegistry::global().intern(table.as_ref(), &[]),
            values: Vec::new().into(),
        }
    }

    /// The tuple's interned schema.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// The table (or result-set) this tuple belongs to.
    pub fn table(&self) -> &str {
        &self.schema.table
    }

    /// Column names, parallel to [`Tuple::values`].
    pub fn columns(&self) -> &[String] {
        &self.schema.columns
    }

    /// Column values, parallel to [`Tuple::columns`].
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Append a column.  Re-interns the extended shape and rebuilds the
    /// shared value slice; building a tuple of known shape with
    /// [`Tuple::from_schema`]/[`Tuple::from_parts`] is cheaper on hot paths.
    pub fn push(&mut self, column: impl AsRef<str>, value: Value) {
        let mut names: Vec<&str> = Vec::with_capacity(self.schema.columns.len() + 1);
        names.extend(self.schema.columns.iter().map(String::as_str));
        names.push(column.as_ref());
        self.schema = SchemaRegistry::global().intern(&self.schema.table, &names);
        let mut values: Vec<Value> = Vec::with_capacity(self.values.len() + 1);
        values.extend(self.values.iter().cloned());
        values.push(value);
        self.values = values.into();
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.schema.arity()
    }

    /// Value of the named column, if present.
    pub fn get(&self, column: &str) -> Option<&Value> {
        self.schema.position(column).map(|i| &self.values[i])
    }

    /// Canonical partitioning-key string for a set of hashing attributes.
    /// Returns `None` when any attribute is missing.
    pub fn partition_key(&self, columns: &[String]) -> Option<String> {
        let mut out = String::with_capacity(12 * columns.len());
        for (i, c) in columns.iter().enumerate() {
            let idx = self.schema.position(c)?;
            if i > 0 {
                out.push('|');
            }
            self.values[idx].write_key(&mut out);
        }
        Some(out)
    }

    /// Canonical key string over pre-resolved column indices (see
    /// [`ColumnResolver`]); the per-tuple cost of key extraction once the
    /// operator has resolved its columns against the schema.
    pub fn key_at(&self, indices: &[usize]) -> String {
        let mut out = String::with_capacity(12 * indices.len());
        for (i, &idx) in indices.iter().enumerate() {
            if i > 0 {
                out.push('|');
            }
            self.values[idx].write_key(&mut out);
        }
        out
    }

    /// Project onto a subset of columns (missing columns become NULL so the
    /// output shape is predictable for the client).
    pub fn project(&self, columns: &[String]) -> Tuple {
        let names: Vec<&str> = columns.iter().map(String::as_str).collect();
        let schema = SchemaRegistry::global().intern(&self.schema.table, &names);
        let values: Vec<Value> = columns
            .iter()
            .map(|c| self.get(c).cloned().unwrap_or(Value::Null))
            .collect();
        Tuple {
            schema,
            values: values.into(),
        }
    }

    /// The schema a [`Tuple::join_with`] of these two schemas produces:
    /// left columns, then right columns with collisions prefixed by the
    /// right table name.  Operators cache the result per input-schema pair
    /// (pointer identity) so streaming joins intern once, not per output.
    pub fn join_schema(left: &Schema, right: &Schema, result_table: &str) -> Arc<Schema> {
        let mut names: Vec<String> = Vec::with_capacity(left.columns.len() + right.columns.len());
        names.extend(left.columns.iter().cloned());
        for c in &right.columns {
            if names.iter().any(|n| n == c) {
                names.push(format!("{}.{}", right.table, c));
            } else {
                names.push(c.clone());
            }
        }
        SchemaRegistry::global().intern_owned(result_table.to_string(), names)
    }

    /// Concatenate two tuples (used by join operators).  Columns of the
    /// right tuple are prefixed with its table name when they would collide.
    pub fn join_with(&self, other: &Tuple, result_table: &str) -> Tuple {
        let schema = Tuple::join_schema(&self.schema, &other.schema, result_table);
        self.join_with_schema(other, schema)
    }

    /// [`Tuple::join_with`] with the output schema already resolved (the
    /// per-output cost is then just concatenating the values).
    pub fn join_with_schema(&self, other: &Tuple, schema: Arc<Schema>) -> Tuple {
        debug_assert_eq!(schema.arity(), self.values.len() + other.values.len());
        let mut values = Vec::with_capacity(self.values.len() + other.values.len());
        values.extend(self.values.iter().cloned());
        values.extend(other.values.iter().cloned());
        Tuple {
            schema,
            values: values.into(),
        }
    }
}

impl PartialEq for Tuple {
    fn eq(&self, other: &Self) -> bool {
        (Arc::ptr_eq(&self.schema, &other.schema) || self.schema == other.schema)
            && self.values == other.values
    }
}

impl WireSize for Tuple {
    fn wire_size(&self) -> usize {
        // Self-describing: the table name and every column name travel with
        // the tuple, exactly as in the paper.
        self.schema.wire_size() + self.values.iter().map(WireSize::wire_size).sum::<usize>() + 8
    }
}

impl std::fmt::Display for Tuple {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}(", self.table())?;
        for (i, (c, v)) in self.columns().iter().zip(self.values.iter()).enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{c}={v}")?;
        }
        write!(f, ")")
    }
}

/// A run of same-schema tuples stored column-wise: one typed [`Column`] per
/// schema column, all of equal length — native `i64`/`f64` buffers,
/// dictionary or arena strings, validity bitmaps for nulls, with a
/// `Vec<Value>` fallback for mixed-type columns.  Batch-at-a-time operators
/// resolve their columns against [`ColumnChunk::schema`] once and then scan
/// the relevant [`ColumnChunk::col`]s' raw buffers contiguously — no per-row
/// schema dispatch, no per-row name lookup, no per-element enum tag on the
/// typed layouts.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnChunk {
    schema: Arc<Schema>,
    /// `columns[c]` holds column `c`'s rows; the vector is parallel to
    /// `schema.columns()` and every column has [`ColumnChunk::rows`] rows.
    columns: Vec<Column>,
    rows: usize,
}

impl ColumnChunk {
    fn with_capacity(schema: Arc<Schema>, _capacity: usize) -> Self {
        let columns = (0..schema.arity()).map(|_| Column::new()).collect();
        ColumnChunk {
            schema,
            columns,
            rows: 0,
        }
    }

    fn push_row(&mut self, tuple: &Tuple) {
        debug_assert!(Arc::ptr_eq(&self.schema, tuple.schema()));
        for (col, v) in self.columns.iter_mut().zip(tuple.values()) {
            col.push_value(v);
        }
        self.rows += 1;
    }

    /// Build a one-row chunk holding just `tuple` (how single-tuple pushes
    /// enter chunk-native operator state, e.g. the symmetric hash join's).
    pub fn from_tuple(tuple: &Tuple) -> Self {
        let mut chunk = ColumnChunk::with_capacity(Arc::clone(tuple.schema()), 1);
        chunk.push_row(tuple);
        chunk
    }

    /// Assemble a chunk directly from pre-built typed columns (the way
    /// batch-at-a-time operators emit their output without ever
    /// materialising a row).  `rows` disambiguates the row count for
    /// zero-column schemas; every column must have exactly that length and
    /// the vector must be parallel to the schema's columns.
    pub fn from_columns(schema: Arc<Schema>, columns: Vec<Column>, rows: usize) -> Self {
        debug_assert_eq!(
            schema.arity(),
            columns.len(),
            "schema/column arity mismatch"
        );
        debug_assert!(
            columns.iter().all(|c| c.len() == rows),
            "column lengths must equal the row count"
        );
        ColumnChunk {
            schema,
            columns,
            rows,
        }
    }

    /// [`ColumnChunk::from_columns`] without its checks: what a buggy or
    /// hostile peer can put on the wire.  A receiver that did not build a
    /// chunk asks [`ColumnChunk::is_well_formed`] before reading it; tests
    /// build the malformed ones through this.
    #[doc(hidden)]
    pub fn from_parts_unchecked(schema: Arc<Schema>, columns: Vec<Column>, rows: usize) -> Self {
        ColumnChunk {
            schema,
            columns,
            rows,
        }
    }

    /// True when the chunk holds its invariant — one column per schema
    /// column, each of [`ColumnChunk::rows`] rows — which
    /// [`ColumnChunk::from_columns`] asserts in debug builds only.  Reading
    /// a row of a chunk that does not is a panic.
    pub fn is_well_formed(&self) -> bool {
        self.columns.len() == self.schema.arity()
            && self.columns.iter().all(|c| c.len() == self.rows)
    }

    /// [`ColumnChunk::from_columns`] from row-major `Vec<Value>` columns,
    /// running layout inference on each (the ingest path tests and the
    /// differential oracle build reference chunks through this).
    pub fn from_value_columns(schema: Arc<Schema>, columns: Vec<Vec<Value>>, rows: usize) -> Self {
        ColumnChunk::from_columns(
            schema,
            columns.into_iter().map(Column::from_values).collect(),
            rows,
        )
    }

    /// The shared schema of every row in this chunk.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// One column's typed buffer, contiguous across the chunk's rows.
    pub fn col(&self, idx: usize) -> &Column {
        &self.columns[idx]
    }

    /// Materialise row `r` as a [`Tuple`] (one slice allocation; dictionary
    /// strings are shared with the chunk, arena strings are copied out).
    pub fn row(&self, r: usize) -> Tuple {
        let values: Arc<[Value]> = self.columns.iter().map(|c| c.value(r)).collect();
        Tuple::from_schema(Arc::clone(&self.schema), values)
    }

    /// Borrow row `r` as a [`ChunkRow`] — the allocation-free counterpart of
    /// [`ColumnChunk::row`] for operators that only need to *read* the row.
    pub fn row_view(&self, r: usize) -> ChunkRow<'_> {
        debug_assert!(r < self.rows);
        ChunkRow { chunk: self, r }
    }

    /// Copy the rows selected by `mask` (parallel to the chunk's rows) into
    /// a new chunk of the same schema.  The survivor indices are computed
    /// once and every column is gathered through its typed layout — emitting
    /// a whole filtered chunk costs `O(columns)` allocations regardless of
    /// the row count, never a per-row `Tuple` materialisation.
    pub fn filter(&self, mask: &[bool]) -> ColumnChunk {
        debug_assert_eq!(mask.len(), self.rows, "mask must be parallel to rows");
        let kept: Vec<u32> = mask
            .iter()
            .enumerate()
            .filter(|(_, m)| **m)
            .map(|(r, _)| r as u32)
            .collect();
        self.gather(&kept)
    }

    /// Gather the given rows (in order, duplicates allowed) into a new chunk
    /// of the same schema — the building block of filters and of the
    /// chunk-native join's match-index output path.
    pub fn gather(&self, idx: &[u32]) -> ColumnChunk {
        ColumnChunk {
            schema: Arc::clone(&self.schema),
            columns: self.columns.iter().map(|c| c.gather(idx)).collect(),
            rows: idx.len(),
        }
    }

    /// Canonical key string for row `r` over pre-resolved column indices —
    /// the chunk-level counterpart of [`Tuple::key_at`].
    pub fn key_at(&self, indices: &[usize], r: usize) -> String {
        let mut out = String::with_capacity(12 * indices.len());
        self.write_key_at(indices, r, &mut out);
        out
    }

    /// Write the key of [`ColumnChunk::key_at`] into a caller-owned buffer,
    /// so per-row key loops can reuse one allocation.
    pub fn write_key_at(&self, indices: &[usize], r: usize, out: &mut String) {
        for (i, &idx) in indices.iter().enumerate() {
            if i > 0 {
                out.push('|');
            }
            self.columns[idx].value_ref(r).write_key(out);
        }
    }

    /// Iterate the chunk's rows as materialised tuples.
    pub fn iter_rows(&self) -> impl Iterator<Item = Tuple> + '_ {
        (0..self.rows).map(|r| self.row(r))
    }
}

impl ColumnChunk {
    /// Wire bytes of the chunk body: exactly the length of
    /// [`ColumnChunk::encode_body`]'s output, computed without encoding.
    /// The self-describing schema header itself is charged by the containing
    /// batch, once per *distinct* schema (chunks of an interleaved batch
    /// share one dictionary entry).
    fn body_wire_size(&self) -> usize {
        2 + 4 + self.columns.iter().map(Column::encoded_len).sum::<usize>()
    }

    /// Append the chunk body's byte encoding: a `u16` column count, a `u32`
    /// row count, then each column's typed encoding (dictionary pages, byte
    /// arenas, packed validity words — see [`Column::encode_body`]).  The
    /// schema is *not* encoded; it travels (or is persisted) separately and
    /// is required to decode.
    pub fn encode_body(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&(self.columns.len() as u16).to_le_bytes());
        buf.extend_from_slice(&(self.rows as u32).to_le_bytes());
        for col in &self.columns {
            col.encode_body(buf);
        }
    }

    /// Decode a chunk body for `schema` from the front of `buf`, returning
    /// the chunk and the bytes consumed.  `None` on truncated input or a
    /// column count that does not match the schema's arity.
    pub fn decode_body(schema: Arc<Schema>, buf: &[u8]) -> Option<(ColumnChunk, usize)> {
        let ncols = u16::from_le_bytes(buf.get(..2)?.try_into().ok()?) as usize;
        if ncols != schema.arity() {
            return None;
        }
        let rows = u32::from_le_bytes(buf.get(2..6)?.try_into().ok()?) as usize;
        let mut at = 6;
        // Nothing is reserved before the first column has decoded.
        let columns = (0..ncols)
            .map(|_| {
                let (col, used) = Column::decode_body(rows, buf.get(at..)?)?;
                at += used;
                Some(col)
            })
            .collect::<Option<Vec<_>>>()?;
        Some((
            ColumnChunk {
                schema,
                columns,
                rows,
            },
            at,
        ))
    }
}

impl WireSize for ColumnChunk {
    fn wire_size(&self) -> usize {
        // A chunk on its own carries its schema header plus the body.
        self.schema.wire_size() + self.body_wire_size()
    }
}

/// A borrowed view of one row of a [`ColumnChunk`]: positional access to the
/// row's values without materialising a [`Tuple`] (no `Arc<[Value]>`, no
/// value clones).  This is what selection masks, eddy filters and compiled
/// expressions ([`crate::expr::CompiledExpr::eval_view`]) read on the
/// survivor hot path.
#[derive(Debug, Clone, Copy)]
pub struct ChunkRow<'a> {
    chunk: &'a ColumnChunk,
    r: usize,
}

impl<'a> ChunkRow<'a> {
    /// The schema shared by every row of the underlying chunk.
    pub fn schema(&self) -> &'a Arc<Schema> {
        &self.chunk.schema
    }

    /// The chunk this row belongs to.
    pub fn chunk(&self) -> &'a ColumnChunk {
        self.chunk
    }

    /// This row's index within its chunk.
    pub fn index(&self) -> usize {
        self.r
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.chunk.schema.arity()
    }

    /// The value of column `idx` — positional, the resolved-index access
    /// every per-schema cache ([`ColumnResolver`], compiled expressions)
    /// boils down to.  Returns a borrowed [`ValueRef`] (the typed layouts
    /// have no stored [`Value`] to point at); the view is copy-free on every
    /// layout.
    pub fn get(&self, idx: usize) -> ValueRef<'a> {
        self.chunk.columns[idx].value_ref(self.r)
    }

    /// Canonical key string over pre-resolved column indices — identical to
    /// [`Tuple::key_at`] on the materialised row.
    pub fn key_at(&self, indices: &[usize]) -> String {
        self.chunk.key_at(indices, self.r)
    }
}

/// A batch of tuples coalesced for one overlay transfer (the unit the
/// executor's rehash/exchange and partial-aggregate paths ship; see
/// `pier_dht::DhtMessage::PutBatch` for the per-destination grouping).
///
/// Internally the batch is **columnar**: consecutive same-schema tuples are
/// grouped into [`ColumnChunk`]s.  A single-schema batch — the common case,
/// since batches are keyed by destination namespace — is exactly one chunk;
/// a pathologically interleaved mixed-schema batch degrades to one chunk per
/// row, which is the row-major layout (the escape hatch costs nothing
/// extra).  Row order is preserved across the columnar round-trip:
/// `TupleBatch::new(rows).into_tuples() == rows`, which the property tests
/// pin bit-for-bit.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TupleBatch {
    chunks: Vec<ColumnChunk>,
    len: usize,
}

impl TupleBatch {
    /// Wrap a set of tuples headed for the same destination, grouping
    /// consecutive same-schema runs into columnar chunks.
    pub fn new(tuples: Vec<Tuple>) -> Self {
        let len = tuples.len();
        let mut chunks: Vec<ColumnChunk> = Vec::new();
        let mut i = 0;
        while i < len {
            // Measure the same-schema run first (pointer compares), so each
            // chunk's column vectors are allocated at exactly the run
            // length — an interleaved mixed-schema batch costs one exact
            // allocation per column per run, never `len`-sized reserves.
            let schema = tuples[i].schema();
            let mut end = i + 1;
            while end < len && Arc::ptr_eq(tuples[end].schema(), schema) {
                end += 1;
            }
            let mut chunk = ColumnChunk::with_capacity(Arc::clone(schema), end - i);
            for t in &tuples[i..end] {
                chunk.push_row(t);
            }
            chunks.push(chunk);
            i = end;
        }
        TupleBatch { chunks, len }
    }

    /// Assemble a batch directly from columnar chunks, preserving their
    /// order (empty chunks are dropped).  The chunk-to-chunk stage interface
    /// builds its outputs this way — survivors never pass through a
    /// row-major `Vec<Tuple>` in between.
    pub fn from_chunks(chunks: Vec<ColumnChunk>) -> Self {
        let mut batch = TupleBatch::default();
        for chunk in chunks {
            batch.push_chunk(chunk);
        }
        batch
    }

    /// Append a whole chunk to the batch (no-op for empty chunks).
    pub fn push_chunk(&mut self, chunk: ColumnChunk) {
        if chunk.rows() == 0 {
            return;
        }
        self.len += chunk.rows();
        self.chunks.push(chunk);
    }

    /// Append one tuple, extending the last chunk when the schema matches
    /// (so incrementally built batches still form same-schema runs).
    pub fn push_tuple(&mut self, tuple: Tuple) {
        match self.chunks.last_mut() {
            Some(last) if Arc::ptr_eq(&last.schema, tuple.schema()) => last.push_row(&tuple),
            _ => {
                let mut chunk = ColumnChunk::with_capacity(Arc::clone(tuple.schema()), 1);
                chunk.push_row(&tuple);
                self.chunks.push(chunk);
            }
        }
        self.len += 1;
    }

    /// Append every row of `other` after this batch's rows.
    pub fn append(&mut self, other: TupleBatch) {
        for chunk in other.chunks {
            self.push_chunk(chunk);
        }
    }

    /// The columnar chunks, in row order.
    pub fn chunks(&self) -> &[ColumnChunk] {
        &self.chunks
    }

    /// True when every chunk [`ColumnChunk::is_well_formed`] — what a
    /// receiver asks of a batch it did not build before reading its rows.
    pub fn is_well_formed(&self) -> bool {
        self.chunks.iter().all(ColumnChunk::is_well_formed)
    }

    /// Consume the batch into its chunks, in row order.
    pub fn into_chunks(self) -> Vec<ColumnChunk> {
        self.chunks
    }

    /// Iterate the batched tuples in their original order (rows are
    /// materialised on the fly; the values are shared, not copied).
    pub fn iter(&self) -> impl Iterator<Item = Tuple> + '_ {
        self.chunks.iter().flat_map(ColumnChunk::iter_rows)
    }

    /// Consume the batch back into row-major tuples.
    pub fn into_tuples(self) -> Vec<Tuple> {
        let mut out = Vec::with_capacity(self.len);
        out.extend(self.iter());
        out
    }

    /// Number of tuples in the batch.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the batch holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl WireSize for TupleBatch {
    fn wire_size(&self) -> usize {
        // 4-byte chunk count plus the columnar chunk bodies, with every
        // *distinct* schema's self-describing header charged once per batch
        // (a shared dictionary, so interleaved-schema batches do not pay
        // the header once per run).
        let mut seen: Vec<*const Schema> = Vec::new();
        let mut size = 4;
        for chunk in &self.chunks {
            let ptr = Arc::as_ptr(&chunk.schema);
            if !seen.contains(&ptr) {
                seen.push(ptr);
                size += chunk.schema.wire_size();
            }
            size += chunk.body_wire_size();
        }
        size
    }
}

/// A multi-column resolver caching the column→index mapping per schema.
/// Operators construct one per column list and resolve **once per schema**
/// instead of once per tuple; the interned-schema pointer is the cache key.
#[derive(Debug, Clone)]
pub struct ColumnResolver {
    columns: Vec<String>,
    cached_schema: Option<Arc<Schema>>,
    /// `None` while `cached_schema` is `None`, or when the cached schema is
    /// missing at least one of the columns (the tuple is then malformed for
    /// this operator and discarded, per §3.3.4).
    cached: Option<Vec<usize>>,
}

impl ColumnResolver {
    /// A resolver for the given column list.
    pub fn new(columns: Vec<String>) -> Self {
        ColumnResolver {
            columns,
            cached_schema: None,
            cached: None,
        }
    }

    /// The column list being resolved.
    pub fn columns(&self) -> &[String] {
        &self.columns
    }

    fn ensure(&mut self, schema: &Arc<Schema>) {
        if self
            .cached_schema
            .as_ref()
            .is_some_and(|s| Arc::ptr_eq(s, schema))
        {
            return;
        }
        self.cached = self.columns.iter().map(|c| schema.position(c)).collect();
        self.cached_schema = Some(Arc::clone(schema));
    }

    /// The indices of the columns in `schema`; `None` when any is missing
    /// (discard the data).  The chunk-level entry point of the resolver —
    /// batch operators call this once per [`ColumnChunk`].
    pub fn indices_for(&mut self, schema: &Arc<Schema>) -> Option<&[usize]> {
        self.ensure(schema);
        self.cached.as_deref()
    }

    /// The indices of the columns in `tuple`'s schema; `None` when any is
    /// missing (discard the tuple).
    pub fn indices(&mut self, tuple: &Tuple) -> Option<&[usize]> {
        self.indices_for(tuple.schema())
    }

    /// Canonical partition/group key over the resolved columns.
    pub fn key(&mut self, tuple: &Tuple) -> Option<String> {
        self.ensure(tuple.schema());
        Some(tuple.key_at(self.cached.as_deref()?))
    }

    /// Cloned values of the resolved columns, in column-list order.
    pub fn values(&mut self, tuple: &Tuple) -> Option<Vec<Value>> {
        self.ensure(tuple.schema());
        let idxs = self.cached.as_deref()?;
        Some(idxs.iter().map(|&i| tuple.values()[i].clone()).collect())
    }
}

/// A single-column [`ColumnResolver`]: resolves one column per schema and
/// hands back the value (or `None` when the column is absent).
#[derive(Debug, Clone)]
pub struct ColumnRef {
    column: String,
    cached_schema: Option<Arc<Schema>>,
    cached: Option<usize>,
}

impl ColumnRef {
    /// A resolver for one column.
    pub fn new(column: impl Into<String>) -> Self {
        ColumnRef {
            column: column.into(),
            cached_schema: None,
            cached: None,
        }
    }

    /// The column being resolved.
    pub fn column(&self) -> &str {
        &self.column
    }

    /// The column's index in `schema`, if present — the chunk-level entry
    /// point (batch operators call this once per [`ColumnChunk`]).
    pub fn index_for(&mut self, schema: &Arc<Schema>) -> Option<usize> {
        if !self
            .cached_schema
            .as_ref()
            .is_some_and(|s| Arc::ptr_eq(s, schema))
        {
            self.cached = schema.position(&self.column);
            self.cached_schema = Some(Arc::clone(schema));
        }
        self.cached
    }

    /// The column's value in `tuple`, if present.
    pub fn get<'t>(&mut self, tuple: &'t Tuple) -> Option<&'t Value> {
        self.index_for(tuple.schema()).map(|i| &tuple.values()[i])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn t() -> Tuple {
        Tuple::new(
            "events",
            vec![
                ("src", Value::Str("10.0.0.1".into())),
                ("port", Value::Int(443)),
                ("blocked", Value::Bool(true)),
            ],
        )
    }

    #[test]
    fn get_by_name() {
        let tup = t();
        assert_eq!(tup.get("port"), Some(&Value::Int(443)));
        assert_eq!(tup.get("missing"), None);
        assert_eq!(tup.arity(), 3);
    }

    #[test]
    fn same_shape_shares_one_interned_schema() {
        let a = t();
        let b = t();
        assert!(Arc::ptr_eq(a.schema(), b.schema()));
        // Cloning shares too, and push re-interns to a distinct shape.
        let c = a.clone();
        assert!(Arc::ptr_eq(a.schema(), c.schema()));
        let mut d = a.clone();
        d.push("extra", Value::Int(1));
        assert!(!Arc::ptr_eq(a.schema(), d.schema()));
        assert_eq!(d.arity(), 4);
        // The same extended shape interns back to one schema.
        let mut e = b.clone();
        e.push("extra", Value::Int(2));
        assert!(Arc::ptr_eq(d.schema(), e.schema()));
    }

    #[test]
    fn clone_shares_schema_and_values() {
        let a = t();
        let b = a.clone();
        assert!(Arc::ptr_eq(a.schema(), b.schema()));
        assert!(std::ptr::eq(a.values().as_ptr(), b.values().as_ptr()));
    }

    #[test]
    fn wide_schemas_use_the_index_map() {
        let fields: Vec<(String, Value)> =
            (0..12).map(|i| (format!("c{i}"), Value::Int(i))).collect();
        let tup = Tuple::new(
            "wide",
            fields
                .iter()
                .map(|(c, v)| (c.as_str(), v.clone()))
                .collect(),
        );
        for i in 0..12 {
            assert_eq!(tup.get(&format!("c{i}")), Some(&Value::Int(i)));
        }
        assert_eq!(tup.get("c99"), None);
    }

    #[test]
    fn partition_key_is_canonical_and_requires_all_columns() {
        let tup = t();
        let k1 = tup.partition_key(&["src".to_string()]).unwrap();
        let k2 = tup.partition_key(&["src".to_string()]).unwrap();
        assert_eq!(k1, k2);
        assert!(tup
            .partition_key(&["src".to_string(), "missing".to_string()])
            .is_none());
        let multi = tup
            .partition_key(&["src".to_string(), "port".to_string()])
            .unwrap();
        assert!(multi.contains('|'));
    }

    #[test]
    fn resolver_key_matches_partition_key_across_schemas() {
        let cols = vec!["src".to_string(), "port".to_string()];
        let mut resolver = ColumnResolver::new(cols.clone());
        let a = t();
        assert_eq!(resolver.key(&a), a.partition_key(&cols));
        // A different schema re-resolves correctly.
        let b = Tuple::new(
            "other",
            vec![
                ("port", Value::Int(80)),
                ("src", Value::Str("10.9.9.9".into())),
            ],
        );
        assert_eq!(resolver.key(&b), b.partition_key(&cols));
        // Malformed tuples resolve to None (and that is cached too).
        let c = Tuple::new("other", vec![("port", Value::Int(80))]);
        assert_eq!(resolver.key(&c), None);
        assert_eq!(resolver.key(&c), None);
        assert_eq!(resolver.values(&a).unwrap().len(), 2);
    }

    #[test]
    fn column_ref_resolves_per_schema() {
        let mut port = ColumnRef::new("port");
        assert_eq!(port.get(&t()), Some(&Value::Int(443)));
        let other = Tuple::new("x", vec![("a", Value::Int(1))]);
        assert_eq!(port.get(&other), None);
        assert_eq!(port.get(&t()), Some(&Value::Int(443)));
        assert_eq!(port.column(), "port");
    }

    #[test]
    fn projection_fills_missing_with_null() {
        let tup = t();
        let p = tup.project(&["port".to_string(), "nope".to_string()]);
        assert_eq!(p.values(), &[Value::Int(443), Value::Null]);
        assert_eq!(p.columns().len(), 2);
    }

    #[test]
    fn join_concatenates_and_disambiguates() {
        let left = Tuple::new("r", vec![("id", Value::Int(1)), ("x", Value::Int(10))]);
        let right = Tuple::new("s", vec![("id", Value::Int(1)), ("y", Value::Int(20))]);
        let joined = left.join_with(&right, "r_s");
        assert_eq!(joined.table(), "r_s");
        assert_eq!(joined.get("x"), Some(&Value::Int(10)));
        assert_eq!(joined.get("y"), Some(&Value::Int(20)));
        assert_eq!(joined.get("s.id"), Some(&Value::Int(1)));
        assert_eq!(joined.arity(), 4);
    }

    #[test]
    fn wire_size_counts_schema_and_values() {
        let tup = t();
        assert!(tup.wire_size() > 30);
        let bigger = {
            let mut b = tup.clone();
            b.push("payload", Value::bytes(vec![0u8; 500]));
            b
        };
        assert!(bigger.wire_size() > tup.wire_size() + 500);
    }

    #[test]
    fn single_schema_batch_is_one_columnar_chunk() {
        let tuples: Vec<Tuple> = (0..10)
            .map(|i| {
                Tuple::new(
                    "events",
                    vec![
                        ("src", Value::Str(format!("10.0.0.{i}").into())),
                        ("port", Value::Int(i)),
                    ],
                )
            })
            .collect();
        let batch = TupleBatch::new(tuples.clone());
        assert_eq!(batch.chunks().len(), 1);
        let chunk = &batch.chunks()[0];
        assert_eq!(chunk.rows(), 10);
        assert_eq!(
            chunk.col(1).to_values(),
            (0..10).map(Value::Int).collect::<Vec<_>>()
        );
        // Round trip preserves order and content.
        assert_eq!(batch.clone().into_tuples(), tuples);
    }

    #[test]
    fn mixed_schema_batch_degrades_to_per_run_chunks() {
        let a = Tuple::new("r", vec![("x", Value::Int(1))]);
        let b = Tuple::new("s", vec![("y", Value::Int(2))]);
        let rows = vec![a.clone(), a.clone(), b.clone(), a.clone()];
        let batch = TupleBatch::new(rows.clone());
        assert_eq!(batch.chunks().len(), 3, "runs of [a,a], [b], [a]");
        assert_eq!(batch.len(), 4);
        assert_eq!(batch.into_tuples(), rows);
    }

    #[test]
    fn batch_wire_size_charges_each_schema_once() {
        let tuples: Vec<Tuple> = (0..10)
            .map(|i| {
                Tuple::new(
                    "events",
                    vec![
                        ("src", Value::Str(format!("10.0.0.{i}").into())),
                        ("port", Value::Int(i)),
                    ],
                )
            })
            .collect();
        let unbatched: usize = tuples.iter().map(WireSize::wire_size).sum();
        let batch = TupleBatch::new(tuples.clone());
        assert_eq!(batch.len(), 10);
        assert!(!batch.is_empty());
        assert!(
            batch.wire_size() < unbatched,
            "batch {} must undercut {} unbatched bytes",
            batch.wire_size(),
            unbatched
        );
        // The saving is at least the schema header repeated 9 extra times
        // minus the chunk framing (the columnar layout additionally drops
        // the per-row overhead).
        let schema_bytes = tuples[0].schema().wire_size();
        assert!(batch.wire_size() <= unbatched - 9 * schema_bytes + 4 + 2 * 10);
        assert_eq!(batch.iter().count(), batch.clone().into_tuples().len());
    }

    #[test]
    fn interleaved_batch_charges_each_distinct_schema_once() {
        let a = Tuple::new("r", vec![("x", Value::Int(1))]);
        let b = Tuple::new("s", vec![("y", Value::Int(2))]);
        // 16 alternating rows: 16 runs but only 2 distinct schemas — the
        // wire dictionary must charge 2 headers, not 16.
        let rows: Vec<Tuple> = (0..16)
            .map(|i| if i % 2 == 0 { a.clone() } else { b.clone() })
            .collect();
        let batch = TupleBatch::new(rows.clone());
        assert_eq!(batch.chunks().len(), 16);
        let unbatched: usize = rows.iter().map(WireSize::wire_size).sum();
        assert!(
            batch.wire_size() < unbatched,
            "interleaved batch {} must still undercut {} unbatched bytes",
            batch.wire_size(),
            unbatched
        );
        let schema_bytes = a.schema().wire_size() + b.schema().wire_size();
        // Headers beyond the two dictionary entries would blow this bound.
        assert!(batch.wire_size() < schema_bytes + unbatched - 7 * schema_bytes / 2);
    }

    #[test]
    fn chunk_key_at_matches_tuple_key_at() {
        let tuples: Vec<Tuple> = (0..5)
            .map(|i| {
                Tuple::new(
                    "events",
                    vec![
                        ("src", Value::Str(format!("10.0.0.{i}").into())),
                        ("port", Value::Int(i)),
                    ],
                )
            })
            .collect();
        let batch = TupleBatch::new(tuples.clone());
        let chunk = &batch.chunks()[0];
        let indices = [1usize, 0usize];
        for (r, t) in tuples.iter().enumerate() {
            assert_eq!(chunk.key_at(&indices, r), t.key_at(&indices));
        }
    }

    /// Intern and drop fresh shapes until the registry prunes itself (its
    /// entry count falls); the shape that triggered the prune survives it.
    fn intern_until_prune(registry: &SchemaRegistry, tag: &str) {
        for i in 0..8 * PRUNE_FLOOR {
            let before = registry.len();
            drop(registry.intern(&format!("fill.{tag}{i}"), &["x"]));
            if registry.len() <= before {
                return;
            }
        }
        panic!("the registry never pruned itself");
    }

    #[test]
    fn sweep_evicts_unreferenced_query_scoped_schemas() {
        // A private registry so the test does not race other tests on the
        // process-wide one; the mechanics are identical.
        let registry = SchemaRegistry::default();
        // Install-and-drop 1k queries' worth of query-scoped shapes with no
        // teardown hook: the registry must stay bounded by its own pruning
        // instead of accumulating 3k schemas.
        let mut peak = 0;
        for q in 0..1_000 {
            let agg = registry.intern(&format!("q{q}.agg"), &["src", "count"]);
            let wp = registry.intern(&format!("q{q}.wp"), &["_w", "src", "count"]);
            let win = registry.intern(
                &format!("q{q}.win"),
                &["window_start", "window_end", "src", "count"],
            );
            peak = peak.max(registry.len());
            drop((agg, wp, win)); // query teardown releases the references
        }
        assert!(peak <= PRUNE_FLOOR, "peak {peak} above the prune floor");
        intern_until_prune(&registry, "end");
        assert_eq!(registry.len(), 1, "only the prune's trigger shape is left");
    }

    #[test]
    fn sweep_spares_referenced_schemas_until_released() {
        let registry = SchemaRegistry::default();
        let held = registry.intern("q7.agg", &["src"]);
        drop(registry.intern("q7.wp", &["_w", "src"]));
        // A user table whose name starts with 'q' is neither more nor less
        // likely to be forgotten: only whether it is held counts.
        let user = registry.intern("quotes.live", &["x"]);
        // The referenced shapes survive; the unreferenced one goes.
        intern_until_prune(&registry, "a");
        assert_eq!(registry.len(), 3, "q7.agg, quotes.live and the trigger");
        // Re-interning the held shape still hits the same allocation.
        let again = registry.intern("q7.agg", &["src"]);
        assert!(Arc::ptr_eq(&held, &again));
        assert_eq!(registry.len(), 3);
        // Once released, a later prune collects them.
        drop((held, again, user));
        intern_until_prune(&registry, "b");
        assert_eq!(registry.len(), 1, "only the prune's trigger shape is left");
    }

    proptest! {
        /// Any interleaving of intern, clone and drop, over query-scoped
        /// (`q{n}.agg`), share-scoped (`g{fp}.wp`) and plain names (a
        /// projection keeps its input's table name, a `GroupBy` takes a
        /// caller-chosen one): a held shape re-interns to its own `Arc`, and
        /// the registry never holds more than `max(PRUNE_FLOOR, 2 × the
        /// most live shapes seen)`.  A private registry, so the test does
        /// not race other tests on the process-wide one.
        #[test]
        fn the_registry_forgets_only_what_nothing_holds(
            ops in prop::collection::vec((0u8..8, 0u8..3, 0u16..600), 1..2_000),
        ) {
            let registry = SchemaRegistry::default();
            let mut held: Vec<Arc<Schema>> = Vec::new();
            let mut most_live = 0;
            for (kind, pool, n) in ops {
                let pick = usize::from(n) % held.len().max(1);
                match kind {
                    // Intern a name from one of the three pools.
                    0 | 1 => {
                        let table = match pool {
                            0 => format!("q{n}.agg"),
                            1 => format!("g{:016x}.wp", u64::from(n) * 0x9e37),
                            _ => format!("events{n}"),
                        };
                        let last = if n % 2 == 0 { "count" } else { "sum" };
                        held.push(registry.intern(&table, &["src", last]));
                    }
                    // Re-intern a held shape by name.
                    2 if !held.is_empty() => {
                        let s = &held[pick];
                        held.push(registry.intern_owned(s.table.clone(), s.columns.clone()));
                    }
                    3 if !held.is_empty() => held.push(Arc::clone(&held[pick])),
                    _ if !held.is_empty() => drop(held.swap_remove(pick)),
                    _ => {}
                }
                // However it was reached, a held shape is one allocation.
                let mut live: Vec<*const Schema> = held.iter().map(Arc::as_ptr).collect();
                live.sort_unstable();
                live.dedup();
                let shapes: std::collections::HashSet<(&str, &[String])> =
                    held.iter().map(|s| (s.table(), s.columns())).collect();
                prop_assert_eq!(live.len(), shapes.len(), "a held shape was re-allocated");
                most_live = most_live.max(live.len());
                prop_assert!(
                    registry.len() <= PRUNE_FLOOR.max(2 * most_live),
                    "{} entries with at most {most_live} live shapes",
                    registry.len()
                );
            }
        }
    }

    #[test]
    fn chunk_filter_and_row_view_match_materialised_rows() {
        let tuples: Vec<Tuple> = (0..10)
            .map(|i| {
                Tuple::new(
                    "events",
                    vec![
                        ("src", Value::Str(format!("10.0.0.{i}").into())),
                        ("port", Value::Int(i)),
                    ],
                )
            })
            .collect();
        let batch = TupleBatch::new(tuples.clone());
        let chunk = &batch.chunks()[0];
        // Row views read the same values positionally and by name.
        for (r, t) in tuples.iter().enumerate() {
            let view = chunk.row_view(r);
            assert_eq!(view.get(1), ValueRef::Int(r as i64));
            assert_eq!(Some(&view.get(0).to_value()), t.get("src"));
            assert_eq!(view.key_at(&[1, 0]), t.key_at(&[1, 0]));
            assert_eq!(chunk.row(r), *t);
            assert_eq!(view.arity(), 2);
            assert_eq!(view.index(), r);
            assert!(Arc::ptr_eq(view.schema(), t.schema()));
        }
        // Filtering by mask keeps exactly the selected rows, in order.
        let mask: Vec<bool> = (0..10).map(|r| r % 3 == 0).collect();
        let filtered = chunk.filter(&mask);
        assert_eq!(filtered.rows(), 4);
        assert!(Arc::ptr_eq(filtered.schema(), chunk.schema()));
        let expected: Vec<Tuple> = tuples
            .iter()
            .zip(&mask)
            .filter(|(_, m)| **m)
            .map(|(t, _)| t.clone())
            .collect();
        assert_eq!(filtered.iter_rows().collect::<Vec<_>>(), expected);
        // All-false and all-true masks degenerate correctly.
        assert_eq!(chunk.filter(&[false; 10]).rows(), 0);
        assert_eq!(chunk.filter(&[true; 10]), *chunk);
    }

    #[test]
    fn incremental_batch_builders_preserve_runs_and_order() {
        let a = Tuple::new("r", vec![("x", Value::Int(1))]);
        let b = Tuple::new("s", vec![("y", Value::Int(2))]);
        let mut batch = TupleBatch::default();
        assert!(batch.is_empty());
        batch.push_tuple(a.clone());
        batch.push_tuple(a.clone());
        batch.push_tuple(b.clone());
        batch.push_tuple(a.clone());
        // Same-schema neighbours coalesce into one chunk per run.
        assert_eq!(batch.chunks().len(), 3);
        assert_eq!(batch.len(), 4);
        assert_eq!(
            batch.clone().into_tuples(),
            vec![a.clone(), a.clone(), b.clone(), a.clone()]
        );
        // Appending another batch preserves its rows after ours.
        let mut other = TupleBatch::new(vec![b.clone(), b.clone()]);
        other.append(batch.clone());
        assert_eq!(other.len(), 6);
        assert_eq!(other.into_tuples()[..2], vec![b.clone(), b.clone()]);
        // from_chunks drops empties and keeps order.
        let rebuilt = TupleBatch::from_chunks(
            batch
                .chunks()
                .iter()
                .cloned()
                .chain(std::iter::once(batch.chunks()[0].filter(&[false, false])))
                .collect(),
        );
        assert_eq!(rebuilt.len(), 4);
        assert_eq!(rebuilt.chunks().len(), 3);
    }

    #[test]
    fn chunk_codec_round_trips_and_matches_wire_size() {
        let tuples: Vec<Tuple> = (0..20)
            .map(|i| {
                Tuple::new(
                    "events",
                    vec![
                        ("src", Value::str(format!("10.0.0.{}", i % 3))),
                        ("port", if i == 7 { Value::Null } else { Value::Int(i) }),
                        ("load", Value::Float(i as f64 / 2.0)),
                    ],
                )
            })
            .collect();
        let batch = TupleBatch::new(tuples.clone());
        let chunk = &batch.chunks()[0];
        let mut buf = Vec::new();
        chunk.encode_body(&mut buf);
        assert_eq!(buf.len(), chunk.body_wire_size());
        let (back, used) = ColumnChunk::decode_body(Arc::clone(chunk.schema()), &buf).unwrap();
        assert_eq!(used, buf.len());
        assert_eq!(&back, chunk);
        assert_eq!(back.iter_rows().collect::<Vec<_>>(), tuples);
        let mut again = Vec::new();
        back.encode_body(&mut again);
        assert_eq!(buf, again, "decode→re-encode must be bit-stable");
        // Truncated bodies and arity mismatches are rejected.
        assert!(
            ColumnChunk::decode_body(Arc::clone(chunk.schema()), &buf[..buf.len() - 1]).is_none()
        );
        let other = Tuple::new("x", vec![("a", Value::Int(1))]);
        assert!(ColumnChunk::decode_body(Arc::clone(other.schema()), &buf).is_none());
    }

    #[test]
    fn display_is_readable() {
        let s = t().to_string();
        assert!(s.starts_with("events("));
        assert!(s.contains("port=443"));
    }
}
