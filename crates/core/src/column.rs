//! Typed columnar buffers.
//!
//! The batch path used to be columnar in *shape* only: every
//! [`ColumnChunk`](crate::tuple::ColumnChunk) column was a `Vec<Value>`, so
//! each kernel paid the enum tag per element and the compiler could not
//! autovectorise the inner loops.  This module re-lays columns as native
//! buffers — `Vec<i64>` / `Vec<f64>` for numerics, dictionary codes for
//! low-cardinality strings, offsets into a shared byte arena for
//! high-cardinality strings — with a validity [`Bitmap`] for nulls, and a
//! `Vec<Value>` fallback layout for mixed-type columns so self-describing
//! best-effort semantics (§3.3.1, §3.3.4) are preserved exactly.
//!
//! **Layout inference happens at ingest.**  A fresh column starts in the
//! fallback layout; the first non-null value promotes it to the matching
//! typed layout, and any later type mismatch degrades it back to the
//! fallback by materialising.  Strings start dictionary-encoded and spill to
//! the arena layout once the dictionary exceeds [`DICT_MAX`] distinct
//! entries.  Every kernel therefore needs a fallback arm, and the
//! differential oracle suite (tests/columnar_oracle.rs) pins each typed arm
//! to the fallback arm over arbitrary mixed chunks with nulls: it builds
//! the reference side with [`Column::values_layout`], in the same process
//! as the typed side, so no build switch forces a layout.  A column
//! emptied by [`Column::clear`] keeps its layout for the next fill, and
//! the first value that layout does not fit starts it over, so it infers
//! what a fresh column would.
//!
//! **Wire format.**  [`Column::encode_body`] / [`Column::decode_body`] give
//! each layout a real byte encoding, used by the durable window snapshots
//! in `pier-cq` and charged, to the byte, by the wire accounting of every
//! message that carries chunks ([`Column::encoded_len`]).  A column is a
//! layout tag, a validity block (a presence byte, then packed `u64` words
//! when some row is NULL) and the layout's payload:
//!
//! | tag | layout | payload |
//! |---|---|---|
//! | 0 | fallback | one tagged [`Value`] a row |
//! | 1 | `Int`, plain | eight bytes a row |
//! | 6 | `Int`, frame of reference | `base: i64`, width `w ∈ {1, 2, 4, 8}`, then `w` bytes a row of `value − base` |
//! | 2 | `Float` | eight bytes a row |
//! | 3 | `Bool` | packed `u64` words |
//! | 4 | `Dict` | `u16` entry count, `u32`-length-prefixed entries, one code byte a row |
//! | 5 | `Str` | `u32` arena length, the arena, then `rows + 1` offsets of 1, 2 or 4 bytes — the fewest that hold the arena's length |
//!
//! An `Int` column goes as frame of reference when that is shorter than
//! plain, with `base` its minimum and `w` the fewest bytes that hold its
//! span (a NULL row counts as the zero it holds); plain wins ties.  The
//! decoder accepts only that choice, so `decode(encode(c))` re-encodes bit
//! for bit, and since `w` is never 0 a frame decodes to at most eight times
//! its length.  All integers are little-endian.

use crate::value::{Value, ValueRef};
use std::sync::Arc;

/// Maximum number of distinct dictionary entries before a string column
/// spills from dictionary encoding to the byte-arena layout.
pub const DICT_MAX: usize = 64;

/// Validity bitmap: bit `r` set ⇔ row `r` holds a (typed) value, clear ⇔ the
/// row is null.  Bits past `len` are always zero, so the packed words are a
/// canonical byte encoding.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Bitmap {
    words: Vec<u64>,
    len: usize,
}

impl Bitmap {
    /// Empty bitmap.
    pub fn new() -> Bitmap {
        Bitmap::default()
    }

    /// Bitmap of `len` bits, all set to `valid`.
    pub fn with_len(len: usize, valid: bool) -> Bitmap {
        let mut words = vec![if valid { u64::MAX } else { 0 }; len.div_ceil(64)];
        if valid {
            if let Some(last) = words.last_mut() {
                let tail = len % 64;
                if tail != 0 {
                    *last &= (1u64 << tail) - 1;
                }
            }
        }
        Bitmap { words, len }
    }

    /// Append one bit.
    pub fn push(&mut self, bit: bool) {
        if self.len.is_multiple_of(64) {
            self.words.push(0);
        }
        if bit {
            self.words[self.len / 64] |= 1u64 << (self.len % 64);
        }
        self.len += 1;
    }

    /// Bit `r` (panics when out of range).
    pub fn get(&self, r: usize) -> bool {
        assert!(r < self.len, "bitmap index {r} out of range {}", self.len);
        self.words[r / 64] >> (r % 64) & 1 == 1
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the bitmap holds no bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of set (valid) bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// The packed `u64` words (bits past [`len`](Bitmap::len) are zero).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Rebuild from packed words; `None` when the word count does not match
    /// `len` or a bit past `len` is set (non-canonical input is rejected so
    /// decode→re-encode is bit-stable).
    pub fn from_words(words: Vec<u64>, len: usize) -> Option<Bitmap> {
        if words.len() != len.div_ceil(64) {
            return None;
        }
        if let Some(last) = words.last() {
            let tail = len % 64;
            if tail != 0 && *last >> tail != 0 {
                return None;
            }
        }
        Some(Bitmap { words, len })
    }
}

/// The find-or-insert index of a dictionary column: content hash → code, so
/// a push costs one probe and one verifying compare instead of a scan of
/// the dictionary.  It is derived state — never encoded, not compared, and
/// a clone starts without one: whoever pushes to a decoded, gathered or
/// cloned column rebuilds it from the dictionary first.
#[derive(Debug, Default)]
pub struct DictIndex {
    /// Open-addressed, linearly probed, at most half full: `tag << 9 |
    /// code + 1`, 0 where vacant.  Empty until the first push.
    slots: Vec<u16>,
}

impl Clone for DictIndex {
    fn clone(&self) -> Self {
        DictIndex::default()
    }
}

impl DictIndex {
    /// Find `s` in `dict`, or append it (`arc` itself when given, so equal
    /// pushes share the entry) unless the dictionary already holds
    /// [`DICT_MAX`] entries — then `None`, the spill trigger.
    fn code(&mut self, dict: &mut Vec<Arc<str>>, s: &str, arc: Option<&Arc<str>>) -> Option<u8> {
        if self.slots.is_empty() {
            // 128 slots for a dictionary built here; a decoded one may hold
            // up to 256 entries (and repeat some: the first stays findable).
            self.slots = vec![0; (2 * dict.len().max(DICT_MAX)).next_power_of_two()];
            for (code, entry) in dict.iter().enumerate() {
                let hash = Self::hash(entry);
                if let Err(vacant) = self.probe(dict, entry, None, hash) {
                    self.slots[vacant] = Self::slot(hash, code);
                }
            }
        }
        let hash = Self::hash(s);
        match self.probe(dict, s, arc, hash) {
            Ok(code) => Some(code),
            Err(_) if dict.len() >= DICT_MAX => None,
            Err(vacant) => {
                self.slots[vacant] = Self::slot(hash, dict.len());
                dict.push(arc.map_or_else(|| Arc::from(s), Arc::clone));
                Some((dict.len() - 1) as u8)
            }
        }
    }

    /// Forget every entry, keeping the slots (zeroed) for the next fill.
    fn clear(&mut self) {
        self.slots.fill(0);
    }

    fn hash(s: &str) -> u64 {
        pier_runtime::fold_hash(0, s.as_bytes())
    }

    fn slot(hash: u64, code: usize) -> u16 {
        ((hash >> 57) as u16) << 9 | (code as u16 + 1)
    }

    /// The code of `s`, or the vacant slot its probe chain ends at.
    fn probe(
        &self,
        dict: &[Arc<str>],
        s: &str,
        arc: Option<&Arc<str>>,
        hash: u64,
    ) -> Result<u8, usize> {
        let mask = self.slots.len() - 1;
        let mut at = hash as usize & mask;
        loop {
            let slot = self.slots[at];
            if slot == 0 {
                return Err(at);
            }
            if slot >> 9 == (hash >> 57) as u16 {
                let code = usize::from(slot & 0x1FF) - 1;
                let entry = &dict[code];
                if arc.is_some_and(|a| Arc::ptr_eq(a, entry)) || entry.as_ref() == s {
                    return Ok(code as u8);
                }
            }
            at = (at + 1) & mask;
        }
    }
}

/// One column of a chunk, laid out as typed native buffers.
///
/// The variant fields are public so kernels (including the predicate-index
/// kernels in `pier-mqo`) can match on the layout and run over raw slices.
/// Invariants (maintained by every constructor in this crate, assumed by the
/// kernels):
///
/// - `validity`, when present, has exactly `len()` bits; `None` means all
///   rows valid.  Rows with a clear bit hold an unspecified (but encoded as
///   zero) slot in the data buffer.
/// - `Dict`: every code indexes `dict`; `dict.len() <= 256` (ingest caps it
///   at [`DICT_MAX`]); entries are unique, in first-seen order.
/// - `Str`: `offsets.len() == len() + 1`, monotone, `offsets[0] == 0`,
///   `offsets[len()] == arena.len()`; row `r`'s bytes are
///   `arena[offsets[r]..offsets[r+1]]` and are valid UTF-8.
#[derive(Debug, Clone)]
pub enum Column {
    /// Native `i64` buffer.
    Int {
        /// Row values (zero at null rows).
        data: Vec<i64>,
        /// Null rows, if any.
        validity: Option<Bitmap>,
    },
    /// Native `f64` buffer.
    Float {
        /// Row values (zero at null rows).
        data: Vec<f64>,
        /// Null rows, if any.
        validity: Option<Bitmap>,
    },
    /// Boolean buffer.
    Bool {
        /// Row values (false at null rows).
        data: Vec<bool>,
        /// Null rows, if any.
        validity: Option<Bitmap>,
    },
    /// Dictionary-encoded strings (low cardinality).
    Dict {
        /// Per-row dictionary codes (0 at null rows).
        codes: Vec<u8>,
        /// Distinct values, first-seen order.
        dict: Vec<Arc<str>>,
        /// Null rows, if any.
        validity: Option<Bitmap>,
        /// Find-or-insert index over `dict` (derived; see [`DictIndex`]).
        index: DictIndex,
    },
    /// Arena-encoded strings (high cardinality).
    Str {
        /// Concatenated UTF-8 bytes of all rows.
        arena: Vec<u8>,
        /// Row `r` spans `arena[offsets[r]..offsets[r+1]]`.
        offsets: Vec<u32>,
        /// Null rows, if any.
        validity: Option<Bitmap>,
    },
    /// Fallback layout: one tagged [`Value`] per row (mixed-type columns,
    /// byte payloads, and the differential oracle's reference).
    Values(
        /// Row values.
        Vec<Value>,
    ),
}

impl Default for Column {
    fn default() -> Self {
        Column::new()
    }
}

fn is_all_null(vals: &[Value]) -> bool {
    vals.iter().all(Value::is_null)
}

/// Build the validity bitmap for a promotion of `nulls` leading nulls plus
/// one valid row, or `None` when there are no leading nulls.
fn promo_validity(nulls: usize) -> Option<Bitmap> {
    if nulls == 0 {
        return None;
    }
    let mut v = Bitmap::with_len(nulls, false);
    v.push(true);
    Some(v)
}

fn validity_push(validity: &mut Option<Bitmap>, len: usize, bit: bool) {
    match validity {
        Some(v) => v.push(bit),
        None if bit => {}
        None => {
            let mut v = Bitmap::with_len(len, true);
            v.push(false);
            *validity = Some(v);
        }
    }
}

/// The fewest bytes of {1, 2, 4, 8} that hold `n`.
fn width_of(n: u64) -> usize {
    match n {
        0..=0xff => 1,
        0x100..=0xffff => 2,
        0x1_0000..=0xffff_ffff => 4,
        _ => 8,
    }
}

/// The frame-of-reference form of an integer buffer, when it is shorter
/// than the plain eight bytes a row: `(base, width)`, the smallest value
/// and the fewest bytes that hold every `value − base`.  (In an `Int`
/// column a null row counts with the zero it holds.)  Plain wins ties; an
/// empty buffer, a lone row and a span that needs all eight bytes are
/// shorter plain.  The column codec and the lease roster
/// ([`crate::proxy::encode_roster`]) both choose their layout by it.
pub(crate) fn int_frame(data: impl ExactSizeIterator<Item = i64> + Clone) -> Option<(i64, usize)> {
    let rows = data.len();
    let (min, max) = (data.clone().min()?, data.max()?);
    let width = width_of(max.abs_diff(min));
    (9 + rows * width < rows * 8).then_some((min, width))
}

/// Exact length of [`put_ints`]'s output for `rows` integers in layout
/// `frame` ([`int_frame`]'s answer).
pub(crate) fn ints_len(rows: usize, frame: Option<(i64, usize)>) -> usize {
    frame.map_or(rows * 8, |(_, width)| 9 + rows * width)
}

/// Append integers in layout `frame` ([`int_frame`]'s answer for them):
/// eight bytes each when plain, else `base`, the width byte and `width`
/// bytes each of `value − base`.
pub(crate) fn put_ints(
    buf: &mut Vec<u8>,
    data: impl Iterator<Item = i64>,
    frame: Option<(i64, usize)>,
) {
    match frame {
        None => {
            for v in data {
                buf.extend_from_slice(&v.to_le_bytes());
            }
        }
        Some((base, width)) => {
            buf.extend_from_slice(&base.to_le_bytes());
            buf.push(width as u8);
            for v in data {
                buf.extend_from_slice(&v.abs_diff(base).to_le_bytes()[..width]);
            }
        }
    }
}

/// Read the `rows` integers [`put_ints`] wrote at `*at`, framed or plain as
/// `framed` says, advancing past them.  `None` on truncated input and
/// unless the layout is the encoder's own choice: the base the minimum,
/// the width the fewest bytes that hold the span, and the frame shorter
/// than plain — or plain not longer than any frame.
pub(crate) fn take_ints(buf: &[u8], at: &mut usize, rows: usize, framed: bool) -> Option<Vec<i64>> {
    let (data, frame) = if framed {
        let base = i64::from_le_bytes(take(buf, at, 8)?.try_into().ok()?);
        let width = usize::from(take(buf, at, 1)?[0]);
        if ![1, 2, 4, 8].contains(&width) {
            return None;
        }
        let deltas = take(buf, at, rows.checked_mul(width)?)?;
        let data = deltas
            .chunks_exact(width)
            .map(|d| base.checked_add_unsigned(le_word(d)))
            .collect::<Option<Vec<i64>>>()?;
        (data, Some((base, width)))
    } else {
        let bytes = take(buf, at, rows.checked_mul(8)?)?;
        let data = bytes
            .chunks_exact(8)
            .map(|w| i64::from_le_bytes(w.try_into().expect("chunks_exact yields 8 bytes")))
            .collect();
        (data, None)
    };
    (int_frame(data.iter().copied()) == frame).then_some(data)
}

/// The `len` bytes at `*at`, advancing past them.
fn take<'a>(buf: &'a [u8], at: &mut usize, len: usize) -> Option<&'a [u8]> {
    let end = at.checked_add(len)?;
    let bytes = buf.get(*at..end)?;
    *at = end;
    Some(bytes)
}

/// The little-endian unsigned word in `bytes` (at most eight).
fn le_word(bytes: &[u8]) -> u64 {
    let mut word = [0; 8];
    word[..bytes.len()].copy_from_slice(bytes);
    u64::from_le_bytes(word)
}

impl Column {
    /// Fresh, empty column (fallback layout until the first value arrives).
    pub fn new() -> Column {
        Column::Values(Vec::new())
    }

    /// Force the `Vec<Value>` fallback layout — the reference path of the
    /// differential oracle suite.
    pub fn values_layout(vals: Vec<Value>) -> Column {
        Column::Values(vals)
    }

    /// Build a column from owned values, inferring the typed layout exactly
    /// as incremental ingest would.
    pub fn from_values(vals: Vec<Value>) -> Column {
        let mut col = Column::new();
        for v in vals {
            col.push_value(&v);
        }
        col
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            Column::Int { data, .. } => data.len(),
            Column::Float { data, .. } => data.len(),
            Column::Bool { data, .. } => data.len(),
            Column::Dict { codes, .. } => codes.len(),
            Column::Str { offsets, .. } => offsets.len() - 1,
            Column::Values(vals) => vals.len(),
        }
    }

    /// True when the column holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Empty the column, keeping its layout and its buffers' capacity (a
    /// dictionary column also keeps its index's slots, zeroed), so a
    /// refill of the same types allocates nothing once the buffers have
    /// grown.  A refilled column equals, layout for layout, a fresh one fed
    /// the same values: a first value the kept layout does not fit —
    /// another type, or a NULL — starts it over as [`Column::new`], and an
    /// arena column starts over at once, since a fresh string column is
    /// dictionary-encoded.
    pub fn clear(&mut self) {
        match self {
            Column::Int { data, validity } => {
                data.clear();
                *validity = None;
            }
            Column::Float { data, validity } => {
                data.clear();
                *validity = None;
            }
            Column::Bool { data, validity } => {
                data.clear();
                *validity = None;
            }
            Column::Dict {
                codes,
                dict,
                validity,
                index,
            } => {
                codes.clear();
                dict.clear();
                *validity = None;
                index.clear();
            }
            Column::Str { .. } => *self = Column::new(),
            Column::Values(vals) => vals.clear(),
        }
    }

    /// Short layout name (`int`, `float`, `bool`, `dict`, `str`, `values`)
    /// for tests and trace output.
    pub fn layout_name(&self) -> &'static str {
        match self {
            Column::Int { .. } => "int",
            Column::Float { .. } => "float",
            Column::Bool { .. } => "bool",
            Column::Dict { .. } => "dict",
            Column::Str { .. } => "str",
            Column::Values(_) => "values",
        }
    }

    /// The validity bitmap of a typed layout (`None` for all-valid typed
    /// columns and for the fallback layout, which carries nulls inline).
    pub fn validity(&self) -> Option<&Bitmap> {
        match self {
            Column::Int { validity, .. }
            | Column::Float { validity, .. }
            | Column::Bool { validity, .. }
            | Column::Dict { validity, .. }
            | Column::Str { validity, .. } => validity.as_ref(),
            Column::Values(_) => None,
        }
    }

    /// Borrowed view of row `r` — allocation-free on every layout.
    pub fn value_ref(&self, r: usize) -> ValueRef<'_> {
        match self {
            Column::Int { data, validity } => match validity {
                Some(v) if !v.get(r) => ValueRef::Null,
                _ => ValueRef::Int(data[r]),
            },
            Column::Float { data, validity } => match validity {
                Some(v) if !v.get(r) => ValueRef::Null,
                _ => ValueRef::Float(data[r]),
            },
            Column::Bool { data, validity } => match validity {
                Some(v) if !v.get(r) => ValueRef::Null,
                _ => ValueRef::Bool(data[r]),
            },
            Column::Dict {
                codes,
                dict,
                validity,
                ..
            } => match validity {
                Some(v) if !v.get(r) => ValueRef::Null,
                _ => ValueRef::Str(&dict[codes[r] as usize]),
            },
            Column::Str {
                arena,
                offsets,
                validity,
            } => match validity {
                Some(v) if !v.get(r) => ValueRef::Null,
                _ => {
                    let bytes = &arena[offsets[r] as usize..offsets[r + 1] as usize];
                    // Invariant: arena bytes are valid UTF-8 (pushed from &str).
                    ValueRef::Str(std::str::from_utf8(bytes).expect("arena holds UTF-8"))
                }
            },
            Column::Values(vals) => vals[r].as_ref(),
        }
    }

    /// Owned value of row `r`.  Allocation-free for every layout except
    /// arena strings (which must materialise an `Arc<str>`); dictionary rows
    /// hand out the shared entry with a reference-count bump.
    pub fn value(&self, r: usize) -> Value {
        match self {
            Column::Dict {
                codes,
                dict,
                validity,
                ..
            } => match validity {
                Some(v) if !v.get(r) => Value::Null,
                _ => Value::Str(Arc::clone(&dict[codes[r] as usize])),
            },
            Column::Values(vals) => vals[r].clone(),
            _ => self.value_ref(r).to_value(),
        }
    }

    /// Materialise every row (the reference representation).
    pub fn to_values(&self) -> Vec<Value> {
        (0..self.len()).map(|r| self.value(r)).collect()
    }

    /// Append a null row.
    pub fn push_null(&mut self) {
        let len = self.len();
        match self {
            Column::Values(vals) => vals.push(Value::Null),
            // A cleared typed column: a fresh one holds leading NULLs in
            // the fallback layout.
            _ if len == 0 => {
                *self = Column::new();
                self.push_null();
            }
            Column::Int { data, validity } => {
                data.push(0);
                validity_push(validity, len, false);
            }
            Column::Float { data, validity } => {
                data.push(0.0);
                validity_push(validity, len, false);
            }
            Column::Bool { data, validity } => {
                data.push(false);
                validity_push(validity, len, false);
            }
            Column::Dict {
                codes, validity, ..
            } => {
                codes.push(0);
                validity_push(validity, len, false);
            }
            Column::Str {
                offsets,
                validity,
                arena,
            } => {
                offsets.push(arena.len() as u32);
                validity_push(validity, len, false);
            }
        }
    }

    /// Append one owned value, promoting / degrading the layout as needed.
    /// String pushes get the dictionary's `Arc` pointer fast path.
    pub fn push_value(&mut self, v: &Value) {
        match v {
            Value::Str(s) => self.push_str_arc(s),
            other => self.push_ref(other.as_ref()),
        }
    }

    /// Append one borrowed value, promoting / degrading the layout as
    /// needed.
    pub fn push_ref(&mut self, v: ValueRef<'_>) {
        match v {
            ValueRef::Null => self.push_null(),
            ValueRef::Int(i) => self.push_int(i),
            ValueRef::Float(f) => self.push_float(f),
            ValueRef::Bool(b) => self.push_bool(b),
            ValueRef::Str(s) => self.push_str(s),
            ValueRef::Bytes(b) => {
                self.degrade();
                let Column::Values(vals) = self else {
                    unreachable!()
                };
                vals.push(Value::bytes(b));
            }
        }
    }

    fn push_int(&mut self, i: i64) {
        match self {
            Column::Int { data, validity } => {
                data.push(i);
                if let Some(v) = validity {
                    v.push(true);
                }
            }
            Column::Values(vals) if is_all_null(vals) => {
                let nulls = vals.len();
                let mut data = vec![0i64; nulls];
                data.push(i);
                *self = Column::Int {
                    data,
                    validity: promo_validity(nulls),
                };
            }
            // A cleared column of another layout: start over, as fresh.
            _ if self.is_empty() => {
                *self = Column::new();
                self.push_int(i);
            }
            _ => {
                self.degrade();
                let Column::Values(vals) = self else {
                    unreachable!()
                };
                vals.push(Value::Int(i));
            }
        }
    }

    fn push_float(&mut self, f: f64) {
        match self {
            Column::Float { data, validity } => {
                data.push(f);
                if let Some(v) = validity {
                    v.push(true);
                }
            }
            Column::Values(vals) if is_all_null(vals) => {
                let nulls = vals.len();
                let mut data = vec![0f64; nulls];
                data.push(f);
                *self = Column::Float {
                    data,
                    validity: promo_validity(nulls),
                };
            }
            _ if self.is_empty() => {
                *self = Column::new();
                self.push_float(f);
            }
            _ => {
                self.degrade();
                let Column::Values(vals) = self else {
                    unreachable!()
                };
                vals.push(Value::Float(f));
            }
        }
    }

    fn push_bool(&mut self, b: bool) {
        match self {
            Column::Bool { data, validity } => {
                data.push(b);
                if let Some(v) = validity {
                    v.push(true);
                }
            }
            Column::Values(vals) if is_all_null(vals) => {
                let nulls = vals.len();
                let mut data = vec![false; nulls];
                data.push(b);
                *self = Column::Bool {
                    data,
                    validity: promo_validity(nulls),
                };
            }
            _ if self.is_empty() => {
                *self = Column::new();
                self.push_bool(b);
            }
            _ => {
                self.degrade();
                let Column::Values(vals) = self else {
                    unreachable!()
                };
                vals.push(Value::Bool(b));
            }
        }
    }

    fn push_str(&mut self, s: &str) {
        self.push_str_inner(s, None);
    }

    fn push_str_arc(&mut self, s: &Arc<str>) {
        self.push_str_inner(s, Some(s));
    }

    fn push_str_inner(&mut self, s: &str, arc: Option<&Arc<str>>) {
        match self {
            Column::Dict {
                codes,
                dict,
                validity,
                index,
            } => match index.code(dict, s, arc) {
                Some(code) => {
                    codes.push(code);
                    if let Some(v) = validity {
                        v.push(true);
                    }
                }
                None => {
                    self.spill_dict_to_arena();
                    self.push_str_inner(s, arc);
                }
            },
            Column::Str {
                arena,
                offsets,
                validity,
            } => {
                arena.extend_from_slice(s.as_bytes());
                offsets.push(arena.len() as u32);
                if let Some(v) = validity {
                    v.push(true);
                }
            }
            Column::Values(vals) if is_all_null(vals) => {
                let nulls = vals.len();
                let (mut dict, mut index) = (Vec::new(), DictIndex::default());
                let code = index.code(&mut dict, s, arc).expect("fresh dict");
                let mut codes = vec![0u8; nulls];
                codes.push(code);
                *self = Column::Dict {
                    codes,
                    dict,
                    validity: promo_validity(nulls),
                    index,
                };
            }
            _ if self.is_empty() => {
                *self = Column::new();
                self.push_str_inner(s, arc);
            }
            _ => {
                self.degrade();
                let Column::Values(vals) = self else {
                    unreachable!()
                };
                vals.push(arc.map_or_else(|| Value::str(s), |a| Value::Str(Arc::clone(a))));
            }
        }
    }

    /// Convert a full dictionary column to the arena layout in place.
    fn spill_dict_to_arena(&mut self) {
        let Column::Dict {
            codes,
            dict,
            validity,
            ..
        } = self
        else {
            return;
        };
        let mut arena = Vec::new();
        let mut offsets = Vec::with_capacity(codes.len() + 1);
        offsets.push(0u32);
        for (r, &code) in codes.iter().enumerate() {
            let valid = validity.as_ref().is_none_or(|v| v.get(r));
            if valid {
                arena.extend_from_slice(dict[code as usize].as_bytes());
            }
            offsets.push(arena.len() as u32);
        }
        *self = Column::Str {
            arena,
            offsets,
            validity: validity.take(),
        };
    }

    /// Degrade to the `Vec<Value>` fallback layout in place (type-mismatch
    /// escape hatch; a no-op when already there).
    pub fn degrade(&mut self) {
        if !matches!(self, Column::Values(_)) {
            *self = Column::Values(self.to_values());
        }
    }

    /// Gather rows by index into a new column, preserving the layout
    /// (dictionary columns share their `Arc<str>` entries; arena columns
    /// rebuild a compact arena).  Panics on out-of-range indices.
    pub fn gather(&self, idx: &[u32]) -> Column {
        let gather_validity = |validity: &Option<Bitmap>| -> Option<Bitmap> {
            validity.as_ref().map(|v| {
                let mut out = Bitmap::new();
                for &i in idx {
                    out.push(v.get(i as usize));
                }
                out
            })
        };
        match self {
            Column::Int { data, validity } => Column::Int {
                data: idx.iter().map(|&i| data[i as usize]).collect(),
                validity: gather_validity(validity),
            },
            Column::Float { data, validity } => Column::Float {
                data: idx.iter().map(|&i| data[i as usize]).collect(),
                validity: gather_validity(validity),
            },
            Column::Bool { data, validity } => Column::Bool {
                data: idx.iter().map(|&i| data[i as usize]).collect(),
                validity: gather_validity(validity),
            },
            Column::Dict {
                codes,
                dict,
                validity,
                ..
            } => Column::Dict {
                codes: idx.iter().map(|&i| codes[i as usize]).collect(),
                dict: dict.clone(),
                validity: gather_validity(validity),
                index: DictIndex::default(),
            },
            Column::Str {
                arena,
                offsets,
                validity,
            } => {
                let mut out_arena = Vec::new();
                let mut out_offsets = Vec::with_capacity(idx.len() + 1);
                out_offsets.push(0u32);
                for &i in idx {
                    let (a, b) = (
                        offsets[i as usize] as usize,
                        offsets[i as usize + 1] as usize,
                    );
                    out_arena.extend_from_slice(&arena[a..b]);
                    out_offsets.push(out_arena.len() as u32);
                }
                Column::Str {
                    arena: out_arena,
                    offsets: out_offsets,
                    validity: gather_validity(validity),
                }
            }
            Column::Values(vals) => {
                Column::Values(idx.iter().map(|&i| vals[i as usize].clone()).collect())
            }
        }
    }

    /// Exact length in bytes of [`encode_body`](Column::encode_body)'s
    /// output, computed without encoding.
    pub fn encoded_len(&self) -> usize {
        let rows = self.len();
        let validity_len = |validity: &Option<Bitmap>| match validity {
            Some(_) => 1 + rows.div_ceil(64) * 8,
            None => 1,
        };
        1 + match self {
            Column::Int { data, validity } => {
                validity_len(validity) + ints_len(rows, int_frame(data.iter().copied()))
            }
            Column::Float { validity, .. } => validity_len(validity) + rows * 8,
            Column::Bool { validity, .. } => validity_len(validity) + rows.div_ceil(64) * 8,
            Column::Dict { dict, validity, .. } => {
                validity_len(validity) + 2 + dict.iter().map(|s| 4 + s.len()).sum::<usize>() + rows
            }
            Column::Str {
                arena, validity, ..
            } => {
                let offsets = (rows + 1) * width_of(arena.len() as u64);
                validity_len(validity) + 4 + arena.len() + offsets
            }
            Column::Values(vals) => vals
                .iter()
                .map(pier_runtime::WireSize::wire_size)
                .sum::<usize>(),
        }
    }

    /// Append this column's byte encoding: a layout tag, the validity block
    /// (presence byte + packed `u64` LE words), then the layout payload —
    /// raw LE buffers for floats, plain or frame-of-reference buffers for
    /// integers (whichever is shorter), packed words for bools, dictionary
    /// page (entry count + length-prefixed entries) + codes for
    /// dictionaries, arena bytes + offsets as wide as the arena needs for
    /// arena strings, tagged values for the fallback (the module docs have
    /// the table).  The row count is *not* encoded; it travels in the chunk
    /// header.
    pub fn encode_body(&self, buf: &mut Vec<u8>) {
        fn encode_validity(buf: &mut Vec<u8>, validity: &Option<Bitmap>) {
            match validity {
                None => buf.push(0),
                Some(v) => {
                    buf.push(1);
                    for w in v.words() {
                        buf.extend_from_slice(&w.to_le_bytes());
                    }
                }
            }
        }
        match self {
            Column::Int { data, validity } => {
                let frame = int_frame(data.iter().copied());
                buf.push(if frame.is_some() { 6 } else { 1 });
                encode_validity(buf, validity);
                put_ints(buf, data.iter().copied(), frame);
            }
            Column::Float { data, validity } => {
                buf.push(2);
                encode_validity(buf, validity);
                for v in data {
                    buf.extend_from_slice(&v.to_le_bytes());
                }
            }
            Column::Bool { data, validity } => {
                buf.push(3);
                encode_validity(buf, validity);
                let mut packed = Bitmap::new();
                for &b in data {
                    packed.push(b);
                }
                for w in packed.words() {
                    buf.extend_from_slice(&w.to_le_bytes());
                }
            }
            Column::Dict {
                codes,
                dict,
                validity,
                ..
            } => {
                buf.push(4);
                encode_validity(buf, validity);
                buf.extend_from_slice(&(dict.len() as u16).to_le_bytes());
                for entry in dict {
                    buf.extend_from_slice(&(entry.len() as u32).to_le_bytes());
                    buf.extend_from_slice(entry.as_bytes());
                }
                buf.extend_from_slice(codes);
            }
            Column::Str {
                arena,
                offsets,
                validity,
            } => {
                buf.push(5);
                encode_validity(buf, validity);
                buf.extend_from_slice(&(arena.len() as u32).to_le_bytes());
                buf.extend_from_slice(arena);
                let width = width_of(arena.len() as u64);
                for o in offsets {
                    buf.extend_from_slice(&o.to_le_bytes()[..width]);
                }
            }
            Column::Values(vals) => {
                buf.push(0);
                for v in vals {
                    v.encode(buf);
                }
            }
        }
    }

    /// Decode one column of `rows` rows from the front of `buf`, returning
    /// it and the bytes consumed.  `None` on truncated, non-canonical, or
    /// invariant-violating input.  `rows` comes off the wire: every buffer
    /// is sliced out of `buf` before anything is reserved for it, so a
    /// frame cannot make the decoder allocate more than a small multiple of
    /// its own length.
    pub fn decode_body(rows: usize, buf: &[u8]) -> Option<(Column, usize)> {
        /// `n` little-endian `W`-byte words at `*at`, advancing past them.
        fn words<const W: usize, T>(
            buf: &[u8],
            at: &mut usize,
            n: usize,
            from_le: fn([u8; W]) -> T,
        ) -> Option<Vec<T>> {
            let bytes = take(buf, at, n.checked_mul(W)?)?;
            Some(
                bytes
                    .chunks_exact(W)
                    .map(|w| from_le(w.try_into().expect("chunks_exact yields W bytes")))
                    .collect(),
            )
        }
        fn decode_validity(rows: usize, buf: &[u8], at: &mut usize) -> Option<Option<Bitmap>> {
            match take(buf, at, 1)?[0] {
                0 => Some(None),
                1 => {
                    let words = words(buf, at, rows.div_ceil(64), u64::from_le_bytes)?;
                    Some(Some(Bitmap::from_words(words, rows)?))
                }
                _ => None,
            }
        }
        let mut at = 0;
        let tag = take(buf, &mut at, 1)?[0];
        let column = match tag {
            0 => {
                // Every encoded value takes at least its tag byte.
                let mut vals = Vec::with_capacity(rows.min(buf.len()));
                for _ in 0..rows {
                    let (v, used) = Value::decode(buf.get(at..)?)?;
                    vals.push(v);
                    at += used;
                }
                Column::Values(vals)
            }
            1 | 6 => {
                let validity = decode_validity(rows, buf, &mut at)?;
                let data = take_ints(buf, &mut at, rows, tag == 6)?;
                Column::Int { data, validity }
            }
            2 => {
                let validity = decode_validity(rows, buf, &mut at)?;
                let data = words(buf, &mut at, rows, f64::from_le_bytes)?;
                Column::Float { data, validity }
            }
            3 => {
                let validity = decode_validity(rows, buf, &mut at)?;
                let words = words(buf, &mut at, rows.div_ceil(64), u64::from_le_bytes)?;
                let packed = Bitmap::from_words(words, rows)?;
                let data = (0..rows).map(|r| packed.get(r)).collect();
                Column::Bool { data, validity }
            }
            4 => {
                let validity = decode_validity(rows, buf, &mut at)?;
                let dict_len = u16::from_le_bytes(take(buf, &mut at, 2)?.try_into().ok()?) as usize;
                if dict_len > 256 {
                    return None;
                }
                // Every entry takes at least its four-byte length.
                let mut dict = Vec::with_capacity(dict_len.min((buf.len() - at) / 4));
                for _ in 0..dict_len {
                    let len = u32::from_le_bytes(take(buf, &mut at, 4)?.try_into().ok()?) as usize;
                    let s = std::str::from_utf8(take(buf, &mut at, len)?).ok()?;
                    dict.push(Arc::<str>::from(s));
                }
                let codes = take(buf, &mut at, rows)?.to_vec();
                if codes.iter().any(|&c| c as usize >= dict_len.max(1)) {
                    return None;
                }
                Column::Dict {
                    codes,
                    dict,
                    validity,
                    index: DictIndex::default(),
                }
            }
            5 => {
                let validity = decode_validity(rows, buf, &mut at)?;
                let arena_len =
                    u32::from_le_bytes(take(buf, &mut at, 4)?.try_into().ok()?) as usize;
                let arena = take(buf, &mut at, arena_len)?.to_vec();
                let width = width_of(arena_len as u64);
                let offsets = take(buf, &mut at, rows.checked_add(1)?.checked_mul(width)?)?;
                let offsets: Vec<u32> = offsets
                    .chunks_exact(width)
                    .map(|o| le_word(o) as u32)
                    .collect();
                if offsets[0] != 0
                    || offsets[rows] as usize != arena.len()
                    || offsets.windows(2).any(|w| w[0] > w[1])
                {
                    return None;
                }
                for w in offsets.windows(2) {
                    if std::str::from_utf8(&arena[w[0] as usize..w[1] as usize]).is_err() {
                        return None;
                    }
                }
                Column::Str {
                    arena,
                    offsets,
                    validity,
                }
            }
            _ => return None,
        };
        Some((column, at))
    }
}

/// Logical row-wise equality (same values in the same order, regardless of
/// layout) — matches the old `Vec<Value>` column equality, including its
/// float semantics (`NaN != NaN`).
impl PartialEq for Column {
    fn eq(&self, other: &Column) -> bool {
        self.len() == other.len()
            && (0..self.len()).all(|r| self.value_ref(r) == other.value_ref(r))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitmap_push_get_and_canonical_words() {
        let mut b = Bitmap::new();
        for i in 0..130 {
            b.push(i % 3 == 0);
        }
        assert_eq!(b.len(), 130);
        for i in 0..130 {
            assert_eq!(b.get(i), i % 3 == 0);
        }
        assert_eq!(b.count_ones(), (0..130).filter(|i| i % 3 == 0).count());
        let back = Bitmap::from_words(b.words().to_vec(), 130).unwrap();
        assert_eq!(back, b);
        // Non-canonical tail bit is rejected.
        let mut words = b.words().to_vec();
        let last = words.len() - 1;
        words[last] |= 1u64 << 63;
        assert!(Bitmap::from_words(words, 130).is_none());
        assert_eq!(Bitmap::with_len(70, true).count_ones(), 70);
        assert_eq!(Bitmap::with_len(70, false).count_ones(), 0);
    }

    #[test]
    fn ingest_infers_typed_layouts() {
        let ints = Column::from_values(vec![Value::Int(1), Value::Null, Value::Int(3)]);
        assert_eq!(ints.layout_name(), "int");
        assert_eq!(ints.validity().unwrap().count_ones(), 2);
        assert_eq!(
            ints.to_values(),
            vec![Value::Int(1), Value::Null, Value::Int(3)]
        );

        let strs = Column::from_values(vec![Value::str("a"), Value::str("b"), Value::str("a")]);
        assert_eq!(strs.layout_name(), "dict");
        assert_eq!(strs.value(2), Value::str("a"));

        // Leading nulls then a float: promotion keeps the nulls.
        let floats = Column::from_values(vec![Value::Null, Value::Float(2.5)]);
        assert_eq!(floats.layout_name(), "float");
        assert_eq!(floats.to_values(), vec![Value::Null, Value::Float(2.5)]);

        // Mixed types degrade to the fallback.
        let mixed = Column::from_values(vec![Value::Int(1), Value::str("x")]);
        assert_eq!(mixed.layout_name(), "values");
        assert_eq!(mixed.to_values(), vec![Value::Int(1), Value::str("x")]);

        // Bytes always use the fallback.
        let bytes = Column::from_values(vec![Value::bytes([1, 2])]);
        assert_eq!(bytes.layout_name(), "values");
    }

    #[test]
    fn dict_spills_to_arena_past_the_cap() {
        let vals: Vec<Value> = (0..DICT_MAX as i64 + 5)
            .map(|i| Value::str(format!("s{i}")))
            .collect();
        let col = Column::from_values(vals.clone());
        assert_eq!(col.layout_name(), "str");
        assert_eq!(col.to_values(), vals);
    }

    #[test]
    fn dict_push_shares_the_arc() {
        let s = Value::str("shared");
        let mut col = Column::new();
        col.push_value(&s);
        col.push_value(&s);
        match (&col.value(1), &s) {
            (Value::Str(a), Value::Str(b)) => assert!(Arc::ptr_eq(a, b)),
            _ => panic!("expected dict layout"),
        }
    }

    /// The dictionary of a dict-layout column.
    fn dict_of(col: &Column) -> Vec<String> {
        match col {
            Column::Dict { dict, .. } => dict.iter().map(ToString::to_string).collect(),
            other => panic!("expected dict layout, got {}", other.layout_name()),
        }
    }

    #[test]
    fn a_cloned_gathered_or_decoded_dict_column_reindexes_on_the_next_push() {
        // 40 distinct strings pushed twice: first-seen order, no repeats.
        let names: Vec<String> = (0..40).map(|i| format!("10.0.0.{i}")).collect();
        let mut col = Column::new();
        for n in names.iter().chain(names.iter().rev()) {
            col.push_ref(ValueRef::Str(n));
        }
        assert_eq!(dict_of(&col), names);
        let mut bytes = Vec::new();
        col.encode_body(&mut bytes);
        let (decoded, _) = Column::decode_body(col.len(), &bytes).expect("own bytes");
        for mut copy in [col.clone(), col.gather(&[5, 1]), decoded] {
            // Known strings find their codes, a new one takes the next.
            copy.push_ref(ValueRef::Str("10.0.0.7"));
            copy.push_ref(ValueRef::Str("fresh"));
            let rows = copy.len();
            assert_eq!(copy.value_ref(rows - 2), ValueRef::Str("10.0.0.7"));
            let mut expected = names.clone();
            expected.push("fresh".to_string());
            assert_eq!(dict_of(&copy), expected);
        }
        // A decoded dictionary may repeat an entry (decode checks codes,
        // not uniqueness): pushes find the first, as the scan did.
        let repeated = Column::Dict {
            codes: vec![0, 1],
            dict: vec!["a".into(), "a".into()],
            validity: None,
            index: DictIndex::default(),
        };
        let mut pushed = repeated.clone();
        pushed.push_ref(ValueRef::Str("a"));
        match pushed {
            Column::Dict { codes, dict, .. } => assert_eq!((codes, dict.len()), (vec![0, 1, 0], 2)),
            _ => panic!("expected dict layout"),
        }
    }

    #[test]
    fn gather_preserves_layout_and_values() {
        let vals = vec![Value::Int(10), Value::Null, Value::Int(30), Value::Int(40)];
        let col = Column::from_values(vals.clone());
        let picked = col.gather(&[3, 1, 0]);
        assert_eq!(picked.layout_name(), col.layout_name());
        assert_eq!(
            picked.to_values(),
            vec![Value::Int(40), Value::Null, Value::Int(10)]
        );

        let strs: Vec<Value> = (0..100).map(|i| Value::str(format!("v{i}"))).collect();
        let arena = Column::from_values(strs.clone());
        let picked = arena.gather(&[99, 0, 50]);
        assert_eq!(
            picked.to_values(),
            vec![strs[99].clone(), strs[0].clone(), strs[50].clone()]
        );
    }

    #[test]
    fn codec_round_trips_every_layout_bit_for_bit() {
        let columns = vec![
            Column::from_values(vec![Value::Int(1), Value::Null, Value::Int(-5)]),
            Column::from_values(vec![Value::Int(i64::MAX), Value::Int(i64::MAX - 70_000)]),
            Column::from_values((0..9).map(|i| Value::Int(i64::MIN + (i << 20))).collect()),
            Column::from_values(vec![Value::Float(0.5), Value::Float(-0.0)]),
            Column::from_values(vec![Value::Bool(true), Value::Null, Value::Bool(false)]),
            Column::from_values(vec![Value::str("a"), Value::str("b"), Value::Null]),
            Column::from_values(
                (0..DICT_MAX as i64 + 2)
                    .map(|i| Value::str(format!("s{i}")))
                    .collect(),
            ),
            Column::values_layout(vec![Value::Int(1), Value::bytes([9, 9]), Value::Null]),
            Column::new(),
        ];
        for col in &columns {
            let mut buf = Vec::new();
            col.encode_body(&mut buf);
            assert_eq!(buf.len(), col.encoded_len(), "{}", col.layout_name());
            let (back, used) = Column::decode_body(col.len(), &buf).unwrap();
            assert_eq!(used, buf.len());
            assert_eq!(&back, col, "{}", col.layout_name());
            let mut again = Vec::new();
            back.encode_body(&mut again);
            assert_eq!(buf, again, "{}", col.layout_name());
        }
    }

    #[test]
    fn an_int_column_ships_its_range_or_goes_plain() {
        let encode = |vals: &[i64]| {
            let col = Column::from_values(vals.iter().map(|&v| Value::Int(v)).collect());
            let mut buf = Vec::new();
            col.encode_body(&mut buf);
            assert_eq!(buf.len(), col.encoded_len());
            buf
        };
        // Tag, validity byte, base, width, then one byte a row above base.
        assert_eq!(
            encode(&[-3, 250, -1]),
            [&[6, 0][..], &(-3i64).to_le_bytes(), &[1, 0, 253, 2]].concat()
        );
        // The width is the fewest bytes that hold the span.
        assert_eq!(encode(&[0, 255, 7]).len(), 2 + 9 + 3);
        assert_eq!(encode(&[0, 256, 7]).len(), 2 + 9 + 3 * 2);
        assert_eq!(encode(&[5, 5 + (1 << 32) - 1, 5]).len(), 2 + 9 + 3 * 4);
        // Plain: a lone row, two rows a four-byte span apart (narrow would
        // be a byte longer), and a span of eight.
        for plain in [&[i64::MIN][..], &[0, 1 << 20], &[i64::MIN, i64::MAX, 0]] {
            let buf = encode(plain);
            assert_eq!((buf[0], buf.len()), (1, 2 + 8 * plain.len()));
        }
    }

    #[test]
    fn arena_offsets_take_the_arena_s_width() {
        // Past the dictionary cap, rows whose arena is `len` bytes: an
        // offset a row and one more, each as wide as `len` needs.
        for (len, width) in [(255, 1), (256, 2), (65_535, 2), (65_536, 4)] {
            let rows = 3 + DICT_MAX;
            let mut vals: Vec<Value> = (0..rows).map(|i| Value::str(format!("{i:03}"))).collect();
            vals.push(Value::str("x".repeat(len - 3 * rows)));
            let col = Column::from_values(vals);
            let mut buf = Vec::new();
            col.encode_body(&mut buf);
            assert_eq!(col.layout_name(), "str");
            assert_eq!(buf.len(), 2 + 4 + len + (rows + 2) * width, "{len}");
            assert_eq!(buf.len(), col.encoded_len());
            let (back, used) = Column::decode_body(rows + 1, &buf).unwrap();
            assert_eq!((used, back), (buf.len(), col));
        }
    }

    #[test]
    fn decode_rejects_torn_and_non_canonical_input() {
        let col = Column::from_values(vec![Value::Int(7), Value::Int(8)]);
        let mut buf = Vec::new();
        col.encode_body(&mut buf);
        assert!(Column::decode_body(2, &buf[..buf.len() - 1]).is_none());
        assert!(Column::decode_body(2, &[42]).is_none());
        // The same rows, plain: frame of reference is shorter.
        let plain = [&[1, 0][..], &7i64.to_le_bytes(), &8i64.to_le_bytes()].concat();
        assert!(Column::decode_body(2, &plain).is_none());
        // A dict code past the dictionary is rejected.
        let mut bad = Vec::new();
        Column::from_values(vec![Value::str("a")]).encode_body(&mut bad);
        let last = bad.len() - 1;
        bad[last] = 7;
        assert!(Column::decode_body(1, &bad).is_none());
    }

    #[test]
    fn logical_equality_crosses_layouts() {
        let vals = vec![Value::str("x"), Value::Null, Value::str("y")];
        let typed = Column::from_values(vals.clone());
        let reference = Column::values_layout(vals);
        assert_eq!(typed, reference);
        let other = Column::values_layout(vec![Value::str("x"), Value::Null, Value::str("z")]);
        assert_ne!(typed, other);
    }
}
