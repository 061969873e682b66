//! Hostile bytes into the decoders that read lengths off their input:
//! [`ColumnChunk::decode_body`] (the typed chunk wire format, every column
//! tag), [`decode_roster`] (a proxy's lease roster), [`decode_directory`]
//! (a results message's run directory) with the [`TraceContext`] it
//! carries, and [`SegmentLog::from_bytes`] → [`WindowStore::rehydrate_from`]
//! (a node's disk after a crash) — and the framings that carry those chunks
//! between nodes, which the program only prices (`DhtMessage::wire_size`):
//! the dictionary-coded `PutBatch` and the keyed `GetRequest` /
//! `GetResponse`.  The frame a price describes is written out and read back
//! here, so the price is held to bytes that exist and that a bounded
//! decoder can take apart.
//!
//! Frames are arbitrary bytes, and valid frames with one byte changed, a
//! count overwritten or the tail cut off — with a segment record's checksum
//! recomputed, so the damage reaches the payload decoder.  Whatever arrives,
//! a decoder never panics, never asks the allocator for more than a small
//! multiple of the frame's length (a counting allocator measures the
//! requests), and whatever it accepts it writes back as the same bytes.

// The counting allocator delegates to the system allocator verbatim and
// only adds to a thread-local counter, so the alloc/dealloc contracts are
// inherited.
#![allow(unsafe_code)]

use pier::cq::{CqBudget, SegmentLog, WindowAccumulator, WindowSpec, WindowStore};
use pier::dht::{DhtMessage, ObjectName, StoredObject};
use pier::qp::proxy::{
    decode_directory, decode_roster, directory_len, encode_directory, encode_roster, roster_len,
};
use pier::qp::tuple::ColumnChunk;
use pier::qp::{
    Column, Directory, GroupAgg, MemberRun, Schema, SchemaRegistry, Value, WindowRuns, DICT_MAX,
};
use pier::runtime::{NodeAddr, WireSize};
use pier::trace::TraceContext;
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

struct CountingAlloc;

thread_local! {
    /// Bytes this thread has requested (tests run on parallel threads).
    static REQUESTED: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded to the system allocator unchanged; the
// counter is a `const`-initialised thread-local `Cell` without a destructor,
// so touching it neither allocates nor outlives the thread.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        REQUESTED.with(|r| r.set(r.get() + layout.size()));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        REQUESTED.with(|r| r.set(r.get() + new_size));
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Run `f`; return its result and the bytes it asked the allocator for.
fn requested_by<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let before = REQUESTED.with(Cell::get);
    let out = f();
    (out, REQUESTED.with(Cell::get) - before)
}

/// The most a decoder may request for a frame of `len` bytes.  The widest
/// honest expansions are a one-byte `Null` into a 24-byte `Value`, one
/// validity bit into a `bool`, and a short group record into its directory
/// entry and accumulator; the slack covers the fixed parts of a store.
fn allowance(len: usize) -> usize {
    64 * len + 4_096
}

struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }

    fn bytes(&mut self, len: usize) -> Vec<u8> {
        (0..len).map(|_| self.next() as u8).collect()
    }
}

/// Damage a valid frame: flip one byte, overwrite a little-endian `u32`
/// somewhere (a count or a length, with luck) with a huge or a small value,
/// cut the tail off — or leave it alone.
fn damage(rng: &mut Gen, mut frame: Vec<u8>) -> Vec<u8> {
    match rng.below(5) {
        0 if !frame.is_empty() => {
            let at = rng.below(frame.len());
            frame[at] = rng.next() as u8;
        }
        1 if frame.len() >= 4 => {
            let at = rng.below(frame.len() - 3);
            let v = [u32::MAX, u32::MAX / 2, 1 << 24, 65_537, 3, 0][rng.below(6)];
            frame[at..at + 4].copy_from_slice(&v.to_le_bytes());
        }
        2 => frame.truncate(rng.below(frame.len() + 1)),
        _ => {}
    }
    frame
}

// ----- ColumnChunk::decode_body -----------------------------------------------

fn schema_of(arity: usize) -> Arc<Schema> {
    let columns = (0..arity).map(|i| format!("c{i}")).collect();
    SchemaRegistry::global().intern_owned("fuzz".to_string(), columns)
}

/// `rows` cells of `value(rng, row)`, one in five of them NULL.
fn cells(rng: &mut Gen, rows: usize, value: impl Fn(&mut Gen, usize) -> Value) -> Vec<Value> {
    let cell = |rng: &mut Gen, i| {
        let v = value(rng, i);
        if rng.below(5) == 0 {
            Value::Null
        } else {
            v
        }
    };
    (0..rows).map(|i| cell(rng, i)).collect()
}

/// A column of `rows` rows of one layout (0 the tagged `Values` fallback,
/// 1 `Int`, 2 `Float`, 3 `Bool`, 4 `Dict`, 5 arena `Str`), NULLs mixed in.
/// `Int` values span less than 2⁸, 2¹⁶ or 2³², or the whole of `i64`, from
/// a base of any sign and size, so they encode in either `Int` layout and
/// at every width.  An arena holds just under or just over 256 or 65,536
/// bytes, so its offsets take every width; it has no NULLs, and more rows
/// than a dictionary page holds.
fn column(rng: &mut Gen, tag: usize, rows: usize) -> Column {
    match tag {
        0 => Column::values_layout(cells(rng, rows, |_, i| match i % 5 {
            0 => Value::Int(i as i64),
            1 => Value::bytes([i as u8, 7]),
            2 => Value::Bool(i % 2 == 0),
            3 => Value::str(format!("v{i}")),
            _ => Value::Float(i as f64 / 4.0),
        })),
        1 => {
            let span = [1u64 << 8, 1 << 16, 1 << 32, 0][rng.below(4)];
            let base = rng.next() as i64 >> rng.below(64);
            Column::from_values(cells(rng, rows, |rng, _| {
                let delta = rng.next().checked_rem(span).unwrap_or_else(|| rng.next());
                Value::Int(base.wrapping_add(delta as i64))
            }))
        }
        2 => Column::from_values(cells(rng, rows, |_, i| Value::Float(i as f64 / 8.0))),
        3 => Column::from_values(cells(rng, rows, |_, i| Value::Bool(i % 3 == 0))),
        4 => Column::from_values(cells(rng, rows, |_, i| Value::str(format!("k{}", i % 7)))),
        _ => {
            let rows = rows.max(DICT_MAX + 2);
            let arena = [256, 65_536][rng.below(2)] + rng.below(9) - 4;
            let row = |i: usize| {
                let pad = arena / rows - 3 + usize::from(i == 0) * (arena % rows);
                Value::str(format!("{i:03}{}", "x".repeat(pad)))
            };
            Column::from_values((0..rows).map(row).collect())
        }
    }
}

/// A valid chunk body and its schema: one to three columns of random tags.
fn chunk_frame(rng: &mut Gen) -> (Arc<Schema>, Vec<u8>) {
    let arity = 1 + rng.below(3);
    let tags: Vec<usize> = (0..arity).map(|_| rng.below(6)).collect();
    let rows = if tags.contains(&5) {
        DICT_MAX + 2 + rng.below(8)
    } else {
        rng.below(70)
    };
    let schema = schema_of(arity);
    let columns = tags.iter().map(|&t| column(rng, t, rows)).collect();
    let mut frame = Vec::new();
    ColumnChunk::from_columns(Arc::clone(&schema), columns, rows).encode_body(&mut frame);
    (schema, frame)
}

/// Decode `frame` and hold the decoder to the three properties.
fn check_chunk(schema: &Arc<Schema>, frame: &[u8]) -> Result<(), TestCaseError> {
    let (decoded, requested) = requested_by(|| ColumnChunk::decode_body(Arc::clone(schema), frame));
    prop_assert!(
        requested <= allowance(frame.len()),
        "{requested} bytes requested for a {}-byte frame",
        frame.len()
    );
    if let Some((chunk, used)) = decoded {
        let mut again = Vec::new();
        chunk.encode_body(&mut again);
        prop_assert!(again[..] == frame[..used], "accepted but not canonical");
    }
    Ok(())
}

/// The frame ISSUE 17 found: one column, `u32::MAX` rows, an `Int` tag and a
/// validity byte — and nothing else.  Before the fix the decoder reserved
/// 32 GiB for the rows the header promised.
#[test]
fn a_row_count_the_frame_cannot_hold_is_refused_before_anything_is_reserved() {
    let frame = [1, 0, 0xff, 0xff, 0xff, 0xff, 1, 0];
    let schema = schema_of(1);
    let (decoded, requested) = requested_by(|| ColumnChunk::decode_body(schema, &frame));
    assert!(decoded.is_none());
    assert!(
        requested <= frame.len(),
        "{requested} bytes requested for an 8-byte frame"
    );
    // The same promise under each of the other tags, with and without a
    // validity block.
    for tag in 0..=6u8 {
        for validity in [0u8, 1] {
            let frame = [1, 0, 0xff, 0xff, 0xff, 0xff, tag, validity, 0, 0, 0, 0];
            let (decoded, requested) =
                requested_by(|| ColumnChunk::decode_body(schema_of(1), &frame));
            assert!(decoded.is_none(), "tag {tag}");
            assert!(
                requested <= allowance(frame.len()),
                "tag {tag}: {requested}"
            );
        }
    }
}

/// A one-column chunk frame of `rows` rows whose column is `column`.
fn one_column(rows: u32, column: &[u8]) -> Vec<u8> {
    [&1u16.to_le_bytes()[..], &rows.to_le_bytes(), column].concat()
}

/// The frame-of-reference `Int` column written by hand: tag 6, no NULLs,
/// `base`, `width`, then each delta in `width` bytes.
fn int_column(base: i64, width: u8, deltas: &[u64]) -> Vec<u8> {
    let mut column = vec![6, 0];
    column.extend(base.to_le_bytes());
    column.push(width);
    for d in deltas {
        column.extend(&d.to_le_bytes()[..usize::from(width).min(8)]);
    }
    column
}

/// The plain `Int` column: tag 1, no NULLs, eight bytes a row.
fn plain_column(values: &[i64]) -> Vec<u8> {
    let mut column = vec![1, 0];
    for v in values {
        column.extend(v.to_le_bytes());
    }
    column
}

/// The new layouts under the row count no frame can hold: a narrow `Int`
/// whose base and width are present, and arenas whose offsets are one and
/// two bytes wide.
#[test]
fn a_row_count_the_frame_cannot_hold_is_refused_under_the_narrow_layouts() {
    let arena = |len: usize| {
        let mut column = vec![5, 0];
        column.extend((len as u32).to_le_bytes());
        column.extend(vec![b'a'; len]);
        column.extend([0; 8]);
        column
    };
    for column in [int_column(-7, 1, &[0; 8]), arena(3), arena(300)] {
        let (frame, schema) = (one_column(u32::MAX, &column), schema_of(1));
        let (decoded, requested) = requested_by(|| ColumnChunk::decode_body(schema, &frame));
        assert!(decoded.is_none(), "tag {}", column[0]);
        assert!(
            requested <= frame.len(),
            "tag {}: {requested} bytes requested for a {}-byte frame",
            column[0],
            frame.len()
        );
    }
}

/// Only the encoder's own choice decodes.  Rows the frame-of-reference
/// layout writes shortest are refused in any other spelling — a wider
/// width, a base below the minimum, the plain layout — and the narrow
/// layout is refused where it is no shorter than plain.
/// Widths outside {1, 2, 4, 8} and a delta that overflows `i64` are
/// refused, and so are arena offsets wider than the arena needs.
#[test]
fn a_frame_that_is_not_the_encoder_s_choice_is_refused() {
    let decodes = |rows: u32, column: &[u8]| {
        ColumnChunk::decode_body(schema_of(1), &one_column(rows, column)).is_some()
    };
    assert!(decodes(3, &int_column(-3, 1, &[0, 253, 2])));
    assert!(!decodes(3, &int_column(-3, 2, &[0, 253, 2])));
    assert!(!decodes(3, &int_column(-4, 1, &[1, 254, 3])));
    assert!(!decodes(3, &plain_column(&[-3, 250, -1])));
    // Two rows a four-byte span apart are a byte shorter plain, and a
    // span of eight bytes is always shorter plain.
    assert!(decodes(2, &plain_column(&[0, 1 << 20])));
    assert!(!decodes(2, &int_column(0, 4, &[0, 1 << 20])));
    assert!(decodes(3, &plain_column(&[i64::MIN, -1, 0])));
    assert!(!decodes(
        3,
        &int_column(i64::MIN, 8, &[i64::MAX as u64, 0, 1 << 63])
    ));
    // A lone row is always plain.
    assert!(!decodes(1, &int_column(5, 1, &[0])));
    for width in [0, 3, 9, 255] {
        assert!(
            !decodes(3, &int_column(0, width, &[0, 1, 2])),
            "width {width}"
        );
    }
    assert!(!decodes(3, &int_column(i64::MAX - 1, 1, &[0, 1, 2])));
    // One row of a three-byte arena takes one-byte offsets, not four.
    let arena = |offsets: &[u8]| [&[5, 0, 3, 0, 0, 0, b'a', b'b', b'c'][..], offsets].concat();
    assert!(decodes(1, &arena(&[0, 3])));
    assert!(!decodes(1, &arena(&[0, 0, 0, 0, 3, 0, 0, 0])));
}

proptest! {
    /// Arbitrary bytes behind a plausible header (the right column count, a
    /// row count from tiny to `u32::MAX`, a valid tag).
    #[test]
    fn arbitrary_chunk_frames_never_panic_or_over_reserve(seed in any::<u64>()) {
        let mut rng = Gen(seed);
        let arity = 1 + rng.below(3);
        let mut frame = (arity as u16).to_le_bytes().to_vec();
        let rows = [rng.below(4) as u32, rng.below(300) as u32, rng.next() as u32, u32::MAX];
        frame.extend_from_slice(&rows[rng.below(4)].to_le_bytes());
        frame.push(rng.below(7) as u8);
        let tail = rng.below(200);
        frame.extend(rng.bytes(tail));
        check_chunk(&schema_of(arity), &frame)?;
        // And with no structure at all.
        let len = rng.below(64);
        check_chunk(&schema_of(arity), &rng.bytes(len))?;
    }

    /// Valid chunks of every layout, damaged.
    #[test]
    fn damaged_chunk_frames_never_panic_or_over_reserve(seed in any::<u64>()) {
        let mut rng = Gen(seed);
        let (schema, frame) = chunk_frame(&mut rng);
        check_chunk(&schema, &frame)?;
        let frame = damage(&mut rng, frame);
        check_chunk(&schema, &frame)?;
    }
}

// ----- decode_roster ----------------------------------------------------------

/// Decode a roster frame and hold the decoder to the three properties.
fn check_roster(frame: &[u8]) -> Result<(), TestCaseError> {
    let (decoded, requested) = requested_by(|| decode_roster(frame));
    prop_assert!(
        requested <= allowance(frame.len()),
        "{requested} bytes requested for a {}-byte roster",
        frame.len()
    );
    if let Some((ids, used)) = decoded {
        let mut again = Vec::new();
        encode_roster(&ids, &mut again);
        prop_assert!(again[..] == frame[..used], "accepted but not canonical");
    }
    Ok(())
}

/// `n` ids within `span` of a random base (the full range when `span` is
/// 0), as one proxy's `addr << 32 | sequence` ids are.
fn roster_ids(rng: &mut Gen, n: usize, span: u64) -> Vec<u64> {
    let base = rng.next();
    let mut ids: Vec<u64> = (0..n)
        .map(|_| match span {
            0 => rng.next(),
            span => base.wrapping_add(rng.next() % span),
        })
        .collect();
    ids.sort_unstable();
    ids
}

/// A roster written by hand: the count word (high bit for frame of
/// reference), then `base`, `width` and the deltas, or the plain ids.
fn framed_roster(base: i64, width: u8, deltas: &[u64]) -> Vec<u8> {
    let mut frame = (deltas.len() as u32 | 1 << 31).to_le_bytes().to_vec();
    frame.extend(base.to_le_bytes());
    frame.push(width);
    for d in deltas {
        frame.extend(&d.to_le_bytes()[..usize::from(width).min(8)]);
    }
    frame
}

fn plain_roster(ids: &[u64]) -> Vec<u8> {
    let mut frame = (ids.len() as u32).to_le_bytes().to_vec();
    for id in ids {
        frame.extend(id.to_le_bytes());
    }
    frame
}

/// A one-id roster is what it always was: the four-byte count and the
/// eight-byte id, plain — so a single standing query's renewal costs what
/// it did before rosters had a frame-of-reference layout.
#[test]
fn a_one_id_roster_is_twelve_plain_bytes() {
    let id = (7u64 << 32) | 3;
    assert_eq!(roster_len(&[id]), 4 + 8);
    let mut frame = Vec::new();
    encode_roster(&[id], &mut frame);
    assert_eq!(frame, plain_roster(&[id]));
    assert_eq!(decode_roster(&frame), Some((vec![id], 12)));
    assert_eq!(roster_len(&[]), 4, "an empty roster is its count");
}

/// Only the encoder's own choice decodes: a wider width than the span
/// needs, a base other than the minimum, the narrow layout where plain is
/// shorter, plain where the narrow layout is shorter.
#[test]
fn a_roster_that_is_not_the_encoder_s_choice_is_refused() {
    let p = 9u64 << 32;
    let ids = [p + 1, p + 2, p + 40];
    let base = (p + 1) as i64;
    let decodes = |frame: &[u8]| decode_roster(frame).map(|(ids, _)| ids);
    assert_eq!(
        decodes(&framed_roster(base, 1, &[0, 1, 39])),
        Some(ids.to_vec())
    );
    let mut encoded = Vec::new();
    encode_roster(&ids, &mut encoded);
    assert_eq!(encoded, framed_roster(base, 1, &[0, 1, 39]));
    // A wider width than needed.
    assert_eq!(decodes(&framed_roster(base, 2, &[0, 1, 39])), None);
    // A base below the minimum.
    assert_eq!(decodes(&framed_roster(base - 1, 1, &[1, 2, 40])), None);
    // Plain where the frame is shorter.
    assert_eq!(decodes(&plain_roster(&ids)), None);
    // Narrow where plain is shorter: two ids a four-byte span apart, and a
    // lone id.
    let apart = [p, p + (1 << 20)];
    assert_eq!(decodes(&plain_roster(&apart)), Some(apart.to_vec()));
    assert_eq!(decodes(&framed_roster(p as i64, 4, &[0, 1 << 20])), None);
    assert_eq!(decodes(&framed_roster(p as i64, 1, &[0])), None);
    // Widths outside {1, 2, 4, 8}, and a count no frame can hold.
    for width in [0, 3, 9, 255] {
        assert_eq!(decodes(&framed_roster(base, width, &[0, 1, 39])), None);
    }
    let (decoded, requested) = requested_by(|| decode_roster(&[0xff, 0xff, 0xff, 0x7f, 0, 0]));
    assert!(decoded.is_none() && requested <= 6, "{requested}");
}

proptest! {
    /// A roster's price is the length of its encoding, and its encoding
    /// decodes to it, for id sets spanning under 2^8, 2^16 and 2^32, and
    /// the full range.
    #[test]
    fn a_roster_costs_its_encoded_length(seed in any::<u64>()) {
        let mut rng = Gen(seed);
        for span in [1 << 8, 1 << 16, 1 << 32, 0] {
            let n = rng.below(40);
            let ids = roster_ids(&mut rng, n, span);
            let mut frame = Vec::new();
            encode_roster(&ids, &mut frame);
            prop_assert_eq!(roster_len(&ids), frame.len());
            prop_assert!(frame.len() <= 4 + 8 * ids.len(), "never longer than plain");
            prop_assert_eq!(decode_roster(&frame), Some((ids, frame.len())));
        }
    }

    /// Arbitrary bytes, and valid rosters damaged.
    #[test]
    fn hostile_rosters_never_panic_or_over_reserve(seed in any::<u64>()) {
        let mut rng = Gen(seed);
        let len = rng.below(80);
        check_roster(&rng.bytes(len))?;
        let span = [1 << 8, 1 << 16, 1 << 32, 0][rng.below(4)];
        let n = rng.below(40);
        let ids = roster_ids(&mut rng, n, span);
        let mut frame = Vec::new();
        encode_roster(&ids, &mut frame);
        check_roster(&frame)?;
        let frame = damage(&mut rng, frame);
        check_roster(&frame)?;
    }
}

// ----- decode_directory and TraceContext --------------------------------------

/// Decode a directory frame and hold the decoder to the three properties.
fn check_directory(frame: &[u8]) -> Result<(), TestCaseError> {
    let (decoded, requested) = requested_by(|| decode_directory(frame));
    prop_assert!(
        requested <= allowance(frame.len()),
        "{requested} bytes requested for a {}-byte directory",
        frame.len()
    );
    if let Some((directory, used)) = decoded {
        let mut again = Vec::new();
        encode_directory(&directory, &mut again);
        prop_assert!(again[..] == frame[..used], "accepted but not canonical");
    }
    Ok(())
}

/// A directory as a root builds one: up to four windows a slide apart,
/// each of one to eight runs with ids within `span` of one base (the full
/// range when `span` is 0), one run in four traced.
fn directory(rng: &mut Gen, span: u64) -> Directory {
    let ids = roster_ids(rng, 8, span);
    let mut start = rng.next() >> 20;
    let (mut windows, mut runs) = (Vec::new(), Vec::new());
    for _ in 0..rng.below(5) {
        let n = 1 + rng.below(8);
        windows.push(WindowRuns {
            window_start: start,
            window_end: start + 2_000_000,
            runs: n as u32,
        });
        start += 1_000_000;
        for &query_id in &ids[..n] {
            let trace = (rng.below(4) == 0).then(|| TraceContext {
                trace_id: rng.next(),
                span_id: rng.next(),
                query_id,
            });
            runs.push(MemberRun {
                query_id,
                retracts: rng.below(3) as u32,
                inserts: rng.below(300) as u32,
                trace,
            });
        }
    }
    Directory { windows, runs }
}

/// `n` seven bits a byte, low bits first, as a directory writes its
/// counts and lengths.
fn varint(mut n: u64) -> Vec<u8> {
    let mut bytes = Vec::new();
    while n >= 0x80 {
        bytes.push(n as u8 | 0x80);
        n >>= 7;
    }
    bytes.push(n as u8);
    bytes
}

/// A directory written by hand: the layout byte (bit 0 framed ids, bit 1
/// framed counts, bit 2 traced), the window and run counts, each window's
/// start, length and run count, the ids and the counts as given, then the
/// marks and the contexts.
fn hand_directory(d: &Directory, layout: u8, ids: &[u8], counts: &[u8], marks: &[u8]) -> Vec<u8> {
    let mut frame = vec![layout];
    frame.extend(varint(d.windows.len() as u64));
    frame.extend(varint(d.runs.len() as u64));
    for w in &d.windows {
        frame.extend(varint(w.window_start));
        frame.extend(varint(w.window_end - w.window_start));
        frame.extend(varint(u64::from(w.runs)));
    }
    frame.extend(ids);
    frame.extend(counts);
    frame.extend(marks);
    for trace in d.runs.iter().filter_map(|r| r.trace) {
        trace.encode(&mut frame);
    }
    frame
}

/// Integers plain: eight bytes each.
fn plain_ints(values: &[u64]) -> Vec<u8> {
    values.iter().flat_map(|v| v.to_le_bytes()).collect()
}

/// Integers frame of reference: `base`, `width`, then `width` bytes of
/// each delta.
fn framed_ints(base: u64, width: u8, deltas: &[u64]) -> Vec<u8> {
    let mut bytes = base.to_le_bytes().to_vec();
    bytes.push(width);
    for d in deltas {
        bytes.extend(&d.to_le_bytes()[..usize::from(width)]);
    }
    bytes
}

/// One window, one run: the layout byte, two one-byte counts, the window
/// (a four-byte start, a three-byte length, a one-byte run count), the id
/// plain (a frame of one is longer) and the two counts framed — and a
/// traced run adds its one mark byte and its context.
#[test]
fn a_one_run_directory_is_its_window_an_id_and_two_framed_counts() {
    let query_id = (7u64 << 32) | 3;
    let mut d = Directory {
        windows: vec![WindowRuns {
            window_start: 5_000_000,
            window_end: 7_000_000,
            runs: 1,
        }],
        runs: vec![MemberRun {
            query_id,
            retracts: 0,
            inserts: 2,
            trace: None,
        }],
    };
    let (id, counts) = (plain_ints(&[query_id]), framed_ints(0, 1, &[0, 2]));
    let mut frame = Vec::new();
    encode_directory(&d, &mut frame);
    assert_eq!(frame, hand_directory(&d, 0b10, &id, &counts, &[]));
    assert_eq!((frame.len(), directory_len(&d)), (30, 30));
    assert_eq!(decode_directory(&frame), Some((d.clone(), 30)));

    d.runs[0].trace = Some(TraceContext::root(query_id));
    let mut frame = Vec::new();
    encode_directory(&d, &mut frame);
    assert_eq!(frame, hand_directory(&d, 0b110, &id, &counts, &[1]));
    assert_eq!(directory_len(&d), 30 + 1 + 24);
    assert_eq!(decode_directory(&frame), Some((d, 55)));
}

/// Only the encoder's own choice decodes: plain where a frame is shorter
/// and a frame where plain is, an integer with a byte more than it needs,
/// marks with no run traced, a mark past the last run, and a layout bit
/// the encoder never sets.
#[test]
fn a_directory_that_is_not_the_encoder_s_choice_is_refused() {
    let p = 9u64 << 32;
    let run = |query_id, trace| MemberRun {
        query_id,
        retracts: 0,
        inserts: 4,
        trace,
    };
    let one = Directory {
        windows: vec![WindowRuns {
            window_start: 40,
            window_end: 42,
            runs: 1,
        }],
        runs: vec![run(p + 1, None)],
    };
    let decodes = |frame: &[u8]| decode_directory(frame).map(|(d, _)| d);
    let (id, counts) = (plain_ints(&[p + 1]), framed_ints(0, 1, &[0, 4]));
    let sound = hand_directory(&one, 0b10, &id, &counts, &[]);
    assert_eq!(decodes(&sound), Some(one.clone()));
    // A frame of one id; two counts plain.
    let framed_id = framed_ints(p + 1, 1, &[0]);
    assert_eq!(
        decodes(&hand_directory(&one, 0b11, &framed_id, &counts, &[])),
        None
    );
    let plain_counts = plain_ints(&[0, 4]);
    assert_eq!(
        decodes(&hand_directory(&one, 0, &id, &plain_counts, &[])),
        None
    );
    // A window count of one in two bytes.
    let mut overlong = vec![0b10, 0x81, 0x00];
    overlong.extend(&sound[2..]);
    assert_eq!(decodes(&overlong), None);
    // Three runs of one proxy: the encoder frames the ids, so plain ones
    // are refused.
    let mut three = one.clone();
    three.windows[0].runs = 3;
    three.runs = vec![run(p + 1, None), run(p + 2, None), run(p + 40, None)];
    let mut encoded = Vec::new();
    encode_directory(&three, &mut encoded);
    assert_eq!(encoded[0], 0b11, "ids and counts go framed");
    assert_eq!(decodes(&encoded), Some(three.clone()));
    let counts = framed_ints(0, 1, &[0, 0, 0, 4, 4, 4]);
    let ids = plain_ints(&[p + 1, p + 2, p + 40]);
    assert_eq!(
        decodes(&hand_directory(&three, 0b10, &ids, &counts, &[])),
        None
    );
    // Marks when no run is traced, and a mark past the last run.
    let counts = framed_ints(0, 1, &[0, 4]);
    assert_eq!(
        decodes(&hand_directory(&one, 0b110, &id, &counts, &[0])),
        None
    );
    let traced = Directory {
        runs: vec![run(p + 1, Some(TraceContext::root(p + 1)))],
        ..one.clone()
    };
    let marked = hand_directory(&traced, 0b110, &id, &counts, &[1]);
    assert_eq!(decodes(&marked), Some(traced.clone()));
    let mut stray = hand_directory(&traced, 0b110, &id, &counts, &[0b11]);
    stray.extend([0; 24]);
    assert_eq!(decodes(&stray), None);
    // A layout bit the encoder never sets.
    assert_eq!(
        decodes(&hand_directory(&one, 0b1010, &id, &counts, &[])),
        None
    );
    // Counts no frame can hold reserve nothing.
    let huge = [
        0, 0xff, 0xff, 0xff, 0xff, 0x0f, 0xff, 0xff, 0xff, 0xff, 0x0f, 0,
    ];
    let (decoded, requested) = requested_by(|| decode_directory(&huge));
    assert!(decoded.is_none() && requested <= huge.len(), "{requested}");
}

// A directory's price is the length of its encoding, and the encoding
// decodes to it: `pier-core`'s `proxy` tests hold that for arbitrary
// directories.

proptest! {
    /// Arbitrary bytes, and valid directories damaged.
    #[test]
    fn hostile_directories_never_panic_or_over_reserve(seed in any::<u64>()) {
        let mut rng = Gen(seed);
        let len = rng.below(160);
        check_directory(&rng.bytes(len))?;
        let span = [1 << 8, 1 << 16, 1 << 32, 0][rng.below(4)];
        let mut frame = Vec::new();
        encode_directory(&directory(&mut rng, span), &mut frame);
        check_directory(&frame)?;
        let frame = damage(&mut rng, frame);
        check_directory(&frame)?;
    }

    /// A trace context is its 24 bytes: any 24 decode, and re-encode to
    /// themselves; fewer decode to nothing.
    #[test]
    fn a_trace_context_is_its_twenty_four_bytes(seed in any::<u64>()) {
        let mut rng = Gen(seed);
        let len = rng.below(40);
        let frame = rng.bytes(len);
        let (decoded, requested) = requested_by(|| TraceContext::decode(&frame));
        prop_assert_eq!(requested, 0);
        prop_assert_eq!(decoded.is_some(), frame.len() >= TraceContext::WIRE_BYTES);
        if let Some(ctx) = decoded {
            let mut again = Vec::new();
            ctx.encode(&mut again);
            prop_assert_eq!(again.len(), ctx.wire_size());
            prop_assert!(again[..] == frame[..TraceContext::WIRE_BYTES]);
        }
    }
}

// ----- SegmentLog::from_bytes → WindowStore::rehydrate_from --------------------

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// Frame `payload` as a log record: `len | fnv1a64 | payload`.
fn record(payload: &[u8]) -> Vec<u8> {
    let mut out = (payload.len() as u32).to_le_bytes().to_vec();
    out.extend_from_slice(&fnv1a64(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// The payloads of a log a real store wrote: a few windows of a few
/// `GroupAgg` groups each, then the watermark.
fn store_payloads(rng: &mut Gen) -> Vec<Vec<u8>> {
    use pier::qp::AggState;
    let spec = WindowSpec::sliding(2_000_000, 1_000_000);
    let mut store: WindowStore<GroupAgg> = WindowStore::new(spec, CqBudget::default());
    for _ in 0..rng.below(40) {
        let key = format!("10.0.0.{}", rng.below(6));
        let acc = GroupAgg {
            vals: vec![Value::str(&key)],
            states: vec![
                AggState::Count(1),
                AggState::Min(Some(Value::Int(rng.below(9) as i64))),
            ]
            .into(),
        };
        let at = rng.below(5_000_000) as u64;
        store.push(at, &key, None, || acc.clone(), |a| a.merge(&acc));
    }
    let mut log = SegmentLog::new();
    store.write_segments(&mut log);
    let mut bytes = log.as_bytes();
    let mut payloads = Vec::new();
    while !bytes.is_empty() {
        let len = u32::from_le_bytes(bytes[..4].try_into().unwrap()) as usize;
        payloads.push(bytes[12..12 + len].to_vec());
        bytes = &bytes[12 + len..];
    }
    payloads
}

/// Adopt `bytes` as a log and rehydrate a fresh store from it, holding both
/// steps to the three properties.
fn check_log(bytes: Vec<u8>) -> Result<(), TestCaseError> {
    let len = bytes.len();
    let spec = WindowSpec::sliding(2_000_000, 1_000_000);
    let mut store: WindowStore<GroupAgg> = WindowStore::new(spec, CqBudget::default());
    let (log, requested) = requested_by(|| {
        let log = SegmentLog::from_bytes(bytes);
        store.rehydrate_from(&log);
        log
    });
    prop_assert!(
        requested <= allowance(len),
        "{requested} bytes requested for a {len}-byte log"
    );
    // What the scan accepts, it writes back as the same bytes.
    let scan = log.scan();
    let mut again = SegmentLog::new();
    for rec in &scan.records {
        again.append(rec);
    }
    prop_assert!(
        again.as_bytes() == &log.as_bytes()[..scan.valid_len],
        "accepted but not canonical"
    );
    // And what rehydrated is a fixed point of snapshot → rehydrate.
    let mut snapshot = SegmentLog::new();
    store.write_segments(&mut snapshot);
    let mut twin: WindowStore<GroupAgg> = WindowStore::new(spec, CqBudget::default());
    twin.rehydrate_from(&snapshot);
    let mut twin_snapshot = SegmentLog::new();
    twin.write_segments(&mut twin_snapshot);
    prop_assert!(
        twin_snapshot.as_bytes() == snapshot.as_bytes(),
        "a rehydrated store's snapshot does not rehydrate to itself"
    );
    Ok(())
}

proptest! {
    /// Arbitrary bytes as a log, and arbitrary payloads behind a valid
    /// length and checksum so they reach the record decoder.
    #[test]
    fn arbitrary_segment_logs_never_panic_or_over_reserve(seed in any::<u64>()) {
        let mut rng = Gen(seed);
        let len = rng.below(96);
        check_log(rng.bytes(len))?;
        let mut log = Vec::new();
        for _ in 0..1 + rng.below(3) {
            // A window or watermark tag, then noise.
            let mut payload = vec![1 + rng.below(2) as u8];
            let len = rng.below(80);
            payload.extend(rng.bytes(len));
            log.extend(record(&payload));
        }
        check_log(log)?;
    }

    /// A log a store wrote, one record's payload damaged and its checksum
    /// recomputed — or the raw log damaged, checksums and all.
    #[test]
    fn damaged_segment_logs_never_panic_or_over_reserve(seed in any::<u64>()) {
        let mut rng = Gen(seed);
        let mut payloads = store_payloads(&mut rng);
        let victim = rng.below(payloads.len());
        payloads[victim] = damage(&mut rng, std::mem::take(&mut payloads[victim]));
        let log: Vec<u8> = payloads.iter().flat_map(|p| record(p)).collect();
        check_log(log.clone())?;
        check_log(damage(&mut rng, log))?;
    }
}

// ----- DhtMessage framings -------------------------------------------------------

type Entry = (ObjectName, String, u64);

/// Strings are a `u32` length and their bytes, as `WireSize` has them.
fn put_string(buf: &mut Vec<u8>, s: &str) {
    buf.extend_from_slice(&(s.len() as u32).to_le_bytes());
    buf.extend_from_slice(s.as_bytes());
}

/// The next `n` bytes of `frame`, if it has them.
fn take<'a>(frame: &mut &'a [u8], n: usize) -> Option<&'a [u8]> {
    let (head, tail) = frame.split_at_checked(n)?;
    *frame = tail;
    Some(head)
}

fn take_word(frame: &mut &[u8]) -> Option<u64> {
    Some(u64::from_le_bytes(take(frame, 8)?.try_into().ok()?))
}

fn take_u32(frame: &mut &[u8]) -> Option<u32> {
    Some(u32::from_le_bytes(take(frame, 4)?.try_into().ok()?))
}

/// A string is sliced out of bytes that are there, never reserved from the
/// length the frame states.
fn take_string(frame: &mut &[u8]) -> Option<String> {
    let len = take_u32(frame)? as usize;
    String::from_utf8(take(frame, len)?.to_vec()).ok()
}

/// The frame `DhtMessage::PutBatch::wire_size` prices: a tag, the entry
/// count, the trace context when there is one, then per entry a two-byte
/// namespace reference (an index one past the dictionary announces a new
/// namespace, spelled out once), the key, the suffix, the lifetime and the
/// payload.
fn encode_put_batch(entries: &[Entry], trace: Option<TraceContext>) -> Vec<u8> {
    let string = put_string;
    let mut buf = vec![u8::from(trace.is_some())];
    buf.extend_from_slice(&(entries.len() as u32).to_le_bytes());
    if let Some(t) = trace {
        t.encode(&mut buf);
    }
    let mut namespaces: Vec<&str> = Vec::new();
    for (name, value, lifetime) in entries {
        let known = namespaces.iter().position(|ns| *ns == name.namespace);
        buf.extend_from_slice(&(known.unwrap_or(namespaces.len()) as u16).to_le_bytes());
        if known.is_none() {
            namespaces.push(&name.namespace);
            string(&mut buf, &name.namespace);
        }
        string(&mut buf, &name.key);
        buf.extend_from_slice(&name.suffix.to_le_bytes());
        buf.extend_from_slice(&lifetime.to_le_bytes());
        string(&mut buf, value);
    }
    buf
}

/// Read a frame back.  Nothing is reserved from a count the frame merely
/// states: entries are pushed as they are found.
fn decode_put_batch(frame: &[u8]) -> Option<(Vec<Entry>, Option<TraceContext>)> {
    let (word, string) = (take_word, take_string);
    let mut frame = frame;
    let traced = match take(&mut frame, 1)? {
        [0] => false,
        [1] => true,
        _ => return None,
    };
    let count = take_u32(&mut frame)?;
    let trace = if traced {
        Some(TraceContext::decode(take(
            &mut frame,
            TraceContext::WIRE_BYTES,
        )?)?)
    } else {
        None
    };
    let mut namespaces: Vec<String> = Vec::new();
    let mut entries = Vec::new();
    for _ in 0..count {
        let reference = u16::from_le_bytes(take(&mut frame, 2)?.try_into().ok()?) as usize;
        if reference == namespaces.len() {
            namespaces.push(string(&mut frame)?);
        }
        let namespace = namespaces.get(reference)?.clone();
        let key = string(&mut frame)?;
        let (suffix, lifetime) = (word(&mut frame)?, word(&mut frame)?);
        entries.push((
            ObjectName::new(namespace, key, suffix),
            string(&mut frame)?,
            lifetime,
        ));
    }
    frame.is_empty().then_some((entries, trace))
}

/// A batch as either caller builds one: a flush's entries share a namespace,
/// the puts released from behind an arc's refresh may mix several.
fn put_batch(rng: &mut Gen) -> (Vec<Entry>, Option<TraceContext>) {
    let namespaces = 1 + rng.below(3);
    let entries = (0..rng.below(24))
        .map(|i| {
            let name = ObjectName::new(
                format!("q{}.rehash", rng.below(namespaces)),
                format!("k{}", rng.below(1_000)),
                i as u64,
            );
            let payload = "x".repeat(rng.below(40));
            (name, payload, rng.next() % 600_000_000)
        })
        .collect();
    let trace = (rng.below(2) == 0).then(|| TraceContext::root(rng.next()));
    (entries, trace)
}

type GetKeys = (String, Vec<(String, u64)>, NodeAddr);
type GetAnswers = (String, Vec<(u64, String, Vec<StoredObject<String>>)>);

const GET_REQUEST: u8 = 2;
const GET_RESPONSE: u8 = 3;

/// The frame `DhtMessage::GetRequest::wire_size` prices: a tag, the
/// namespace once, the reply address (IPv4 and a port, which the simulator
/// leaves zero), a one-byte key count, then per key its string and token.
fn encode_get_request((namespace, keys, reply_to): &GetKeys) -> Vec<u8> {
    let mut buf = vec![GET_REQUEST];
    put_string(&mut buf, namespace);
    buf.extend_from_slice(&reply_to.0.to_le_bytes());
    buf.extend_from_slice(&[0, 0]);
    buf.push(u8::try_from(keys.len()).expect("at most 255 keys a request"));
    for (key, token) in keys {
        put_string(&mut buf, key);
        buf.extend_from_slice(&token.to_le_bytes());
    }
    buf
}

fn decode_get_request(frame: &[u8]) -> Option<GetKeys> {
    let mut frame = frame;
    if take(&mut frame, 1)? != [GET_REQUEST] {
        return None;
    }
    let namespace = take_string(&mut frame)?;
    let reply_to = NodeAddr(take_u32(&mut frame)?);
    if take(&mut frame, 2)? != [0, 0] {
        return None;
    }
    let count = take(&mut frame, 1)?[0];
    let mut keys = Vec::new();
    for _ in 0..count {
        keys.push((take_string(&mut frame)?, take_word(&mut frame)?));
    }
    frame.is_empty().then_some((namespace, keys, reply_to))
}

/// The frame `DhtMessage::GetResponse::wire_size` prices: a tag, the
/// namespace once, a one-byte answer count, then per answer its token, its
/// key and the objects found — a `u32` count, each object its full name,
/// its payload and its expiry.
fn encode_get_response((namespace, answers): &GetAnswers) -> Vec<u8> {
    let mut buf = vec![GET_RESPONSE];
    put_string(&mut buf, namespace);
    buf.push(u8::try_from(answers.len()).expect("at most 255 answers a response"));
    for (token, key, objects) in answers {
        buf.extend_from_slice(&token.to_le_bytes());
        put_string(&mut buf, key);
        buf.extend_from_slice(&(objects.len() as u32).to_le_bytes());
        for object in objects {
            put_string(&mut buf, &object.name.namespace);
            put_string(&mut buf, &object.name.key);
            buf.extend_from_slice(&object.name.suffix.to_le_bytes());
            put_string(&mut buf, &object.value);
            buf.extend_from_slice(&object.expires_at.to_le_bytes());
        }
    }
    buf
}

fn decode_get_response(frame: &[u8]) -> Option<GetAnswers> {
    let mut frame = frame;
    if take(&mut frame, 1)? != [GET_RESPONSE] {
        return None;
    }
    let namespace = take_string(&mut frame)?;
    let count = take(&mut frame, 1)?[0];
    let mut answers = Vec::new();
    for _ in 0..count {
        let (token, key) = (take_word(&mut frame)?, take_string(&mut frame)?);
        let mut objects = Vec::new();
        for _ in 0..take_u32(&mut frame)? {
            let (namespace, key) = (take_string(&mut frame)?, take_string(&mut frame)?);
            let name = ObjectName::new(namespace, key, take_word(&mut frame)?);
            let value = take_string(&mut frame)?;
            let expires_at = take_word(&mut frame)?;
            objects.push(StoredObject {
                name,
                value,
                expires_at,
            });
        }
        answers.push((token, key, objects));
    }
    frame.is_empty().then_some((namespace, answers))
}

/// A Fetch-Matches scan's request to one owner, and that owner's answer:
/// some keys match nothing, some several objects.
fn get_pair(rng: &mut Gen) -> (GetKeys, GetAnswers) {
    let namespace = format!("s{}", rng.below(4));
    let keys: Vec<(String, u64)> = (0..rng.below(80))
        .map(|_| (format!("k{}", rng.below(1_000)), rng.next()))
        .collect();
    let answers = keys
        .iter()
        .map(|(key, token)| {
            let objects = (0..rng.below(4))
                .map(|_| StoredObject {
                    name: ObjectName::new(namespace.clone(), key.clone(), rng.next()),
                    value: "x".repeat(rng.below(40)),
                    expires_at: rng.next() % 600_000_000,
                })
                .collect();
            (*token, key.clone(), objects)
        })
        .collect();
    let reply_to = NodeAddr(rng.below(1_024) as u32);
    ((namespace.clone(), keys, reply_to), (namespace, answers))
}

proptest! {
    /// The sizes the program charges for a `GetRequest` and its
    /// `GetResponse` are the lengths of their frames, and the frames read
    /// back as what was sent.
    #[test]
    fn the_get_frames_cost_what_they_write(seed in any::<u64>()) {
        let mut rng = Gen(seed);
        let (request, response) = get_pair(&mut rng);
        let frame = encode_get_request(&request);
        let (namespace, keys, reply_to) = request.clone();
        let msg: DhtMessage<String> = DhtMessage::GetRequest { namespace, keys, reply_to };
        prop_assert_eq!(msg.wire_size(), frame.len());
        let (decoded, requested) = requested_by(|| decode_get_request(&frame));
        prop_assert!(requested <= allowance(frame.len()));
        prop_assert_eq!(decoded, Some(request));

        let frame = encode_get_response(&response);
        let (namespace, answers) = response.clone();
        let msg = DhtMessage::GetResponse { namespace, answers };
        prop_assert_eq!(msg.wire_size(), frame.len());
        let (decoded, requested) = requested_by(|| decode_get_response(&frame));
        prop_assert!(requested <= allowance(frame.len()));
        let (namespace, answers) = decoded.expect("a frame just written");
        prop_assert_eq!(namespace, response.0);
        prop_assert_eq!(answers.len(), response.1.len());
        for (a, b) in answers.iter().zip(&response.1) {
            prop_assert!(a.0 == b.0 && a.1 == b.1 && a.2.len() == b.2.len(), "{a:?} != {b:?}");
            for (a, b) in a.2.iter().zip(&b.2) {
                prop_assert!(
                    a.name == b.name && a.value == b.value && a.expires_at == b.expires_at,
                    "{a:?} != {b:?}"
                );
            }
        }
    }

    /// Damaged and arbitrary get frames are refused or read, never trusted.
    #[test]
    fn damaged_get_frames_never_panic_or_over_reserve(seed in any::<u64>()) {
        let mut rng = Gen(seed);
        let (request, response) = get_pair(&mut rng);
        let len = rng.below(64);
        let frames = [
            damage(&mut rng, encode_get_request(&request)),
            damage(&mut rng, encode_get_response(&response)),
            rng.bytes(len),
        ];
        for frame in frames {
            let (request, requested) = requested_by(|| decode_get_request(&frame));
            let (response, more) = requested_by(|| decode_get_response(&frame));
            let requested = requested.max(more);
            prop_assert!(
                requested <= allowance(frame.len()),
                "{requested} bytes requested for a {}-byte frame",
                frame.len()
            );
            let request = request.map(|r| encode_get_request(&r));
            let response = response.map(|r| encode_get_response(&r));
            if let Some(written) = request.or(response) {
                prop_assert!(written == frame, "accepted but not canonical");
            }
        }
    }

    /// The size the program charges for a `PutBatch` is the length of the
    /// frame, and the frame reads back as the batch.
    #[test]
    fn a_put_batch_costs_what_its_frame_writes(seed in any::<u64>()) {
        let mut rng = Gen(seed);
        let (entries, trace) = put_batch(&mut rng);
        let frame = encode_put_batch(&entries, trace);
        let msg = DhtMessage::PutBatch { entries: entries.clone(), trace };
        prop_assert_eq!(msg.wire_size(), frame.len());
        let (decoded, requested) = requested_by(|| decode_put_batch(&frame));
        prop_assert!(requested <= allowance(frame.len()));
        let (back, back_trace) = decoded.expect("a frame just written");
        prop_assert_eq!(back_trace, trace);
        prop_assert_eq!(back.len(), entries.len());
        for (a, b) in back.iter().zip(&entries) {
            prop_assert!(a.0 == b.0 && a.1 == b.1 && a.2 == b.2, "{a:?} != {b:?}");
        }
    }

    /// Damaged and arbitrary frames are refused or read, never trusted: no
    /// panic, nothing reserved on a count's say-so, and what is accepted
    /// writes back as the bytes read.
    #[test]
    fn damaged_put_batch_frames_never_panic_or_over_reserve(seed in any::<u64>()) {
        let mut rng = Gen(seed);
        let (entries, trace) = put_batch(&mut rng);
        let len = rng.below(64);
        for frame in [damage(&mut rng, encode_put_batch(&entries, trace)), rng.bytes(len)] {
            let (decoded, requested) = requested_by(|| decode_put_batch(&frame));
            prop_assert!(
                requested <= allowance(frame.len()),
                "{requested} bytes requested for a {}-byte frame",
                frame.len()
            );
            if let Some((entries, trace)) = decoded {
                prop_assert!(encode_put_batch(&entries, trace) == frame, "accepted but not canonical");
            }
        }
    }
}
