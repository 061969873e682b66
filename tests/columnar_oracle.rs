//! Differential oracle suite for the typed columnar layout.
//!
//! Every property here pits the typed [`Column`] layouts (native `i64`/`f64`
//! buffers, dictionary and arena strings, validity bitmaps) against the
//! `Vec<Value>` **reference layout** over the same logical rows:
//!
//! * ingest inference reproduces the exact row values (bit-for-bit, NaNs
//!   included — values are compared through their byte encoding);
//! * the chunk body codec round-trips encode → decode → re-encode
//!   byte-identically, for every layout, and its length matches the wire
//!   accounting; an `Int` column over any range takes the shorter of its
//!   two layouts, and arena offsets the width the arena needs;
//! * every kernel — compiled predicate masks (`eval_column`), filter,
//!   gather, group-by aggregation, the `pier-mqo` predicate index, the
//!   chunk-native symmetric hash join — produces the same output over the
//!   typed chunk as over the reference chunk, which in turn matches per-row
//!   evaluation.
//!
//! The reference side is built with [`Column::values_layout`] in the same
//! process, so this suite alone guards every typed arm: breaking one arm of
//! a kernel, of the codec, of key writing or of the predicate index fails a
//! property here.  Chunks grow past `DICT_MAX` rows so arena-string columns
//! reach the predicate kernels too.

use pier::mqo::PredicateIndex;
use pier::qp::tuple::ColumnChunk;
use pier::qp::{
    AggFunc, CmpOp, Column, CompiledPredicate, Expr, GroupBy, JoinSide, LocalOperator, Schema,
    SchemaRegistry, SymmetricHashJoin, Tuple, TupleBatch, Value,
};
use pier::runtime::WireSize;
use proptest::prelude::*;
use std::sync::Arc;

/// Deterministic SplitMix64 stream turning one sampled `u64` into a whole
/// mixed-type chunk (the shim has no recursive value strategies).
struct Gen(u64);

impl Gen {
    fn new(seed: u64) -> Self {
        Gen(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            0
        } else {
            self.next() % bound
        }
    }

    fn chance(&mut self, percent: u64) -> bool {
        self.below(100) < percent
    }
}

/// Column shapes covering every typed layout plus the degradation paths.
const PROFILES: usize = 9;

fn gen_value(rng: &mut Gen, profile: usize) -> Value {
    match profile {
        // Pure ints, occasionally extreme.
        0 => Value::Int(if rng.chance(5) {
            i64::MIN + rng.below(3) as i64
        } else {
            rng.below(50) as i64 - 25
        }),
        // Ints with nulls (validity bitmap; leading nulls exercise the
        // deferred promotion).
        1 => {
            if rng.chance(30) {
                Value::Null
            } else {
                Value::Int(rng.below(1000) as i64)
            }
        }
        // Floats: fractional, integral (hash-kernel cast path), huge
        // integral (beyond 2^53), NaN, and ±0.
        2 => Value::Float(match rng.below(6) {
            0 => rng.below(100) as f64 + 0.5,
            1 => rng.below(100) as f64,
            2 => 9_007_199_254_740_993.0 + rng.below(4) as f64,
            3 => f64::NAN,
            4 => -0.0,
            _ => -(rng.below(50) as f64) * 1.25,
        }),
        // Floats with nulls.
        3 => {
            if rng.chance(25) {
                Value::Null
            } else {
                Value::Float(rng.below(40) as f64 / 4.0)
            }
        }
        // Bools with nulls.
        4 => match rng.below(3) {
            0 => Value::Null,
            1 => Value::Bool(false),
            _ => Value::Bool(true),
        },
        // Low-cardinality strings (dictionary layout), some nulls.
        5 => {
            if rng.chance(10) {
                Value::Null
            } else {
                Value::str(["alpha", "beta", "gamma", "delta"][rng.below(4) as usize])
            }
        }
        // High-cardinality strings: spills the dictionary into the arena.
        6 => Value::Str(format!("s{}-{}", rng.below(1 << 20), rng.below(97)).into()),
        // Bytes: always the reference layout.
        7 => Value::bytes(
            (0..rng.below(6))
                .map(|_| rng.next() as u8)
                .collect::<Vec<_>>(),
        ),
        // Mixed types: degrades a typed column back to the reference layout
        // mid-ingest.
        _ => match rng.below(5) {
            0 => Value::Int(rng.below(30) as i64),
            1 => Value::Float(rng.below(30) as f64 + 0.25),
            2 => Value::str("mixed"),
            3 => Value::Null,
            _ => Value::Bool(rng.chance(50)),
        },
    }
}

/// One generated chunk in both layouts over identical logical rows.
struct OraclePair {
    schema: Arc<Schema>,
    values: Vec<Vec<Value>>,
    typed: ColumnChunk,
    reference: ColumnChunk,
}

fn gen_pair(seed: u64, rows: usize, cols: usize) -> OraclePair {
    let mut rng = Gen::new(seed);
    let names: Vec<String> = (0..cols).map(|c| format!("c{c}")).collect();
    let name_refs: Vec<&str> = names.iter().map(String::as_str).collect();
    let schema = SchemaRegistry::global().intern("oracle", &name_refs);
    let values: Vec<Vec<Value>> = (0..cols)
        .map(|_| {
            let profile = rng.below(PROFILES as u64) as usize;
            (0..rows).map(|_| gen_value(&mut rng, profile)).collect()
        })
        .collect();
    let typed = ColumnChunk::from_value_columns(Arc::clone(&schema), values.clone(), rows);
    let reference = ColumnChunk::from_columns(
        Arc::clone(&schema),
        values.iter().cloned().map(Column::values_layout).collect(),
        rows,
    );
    OraclePair {
        schema,
        values,
        typed,
        reference,
    }
}

/// Byte encoding of a value — the NaN-proof equality used throughout (two
/// values are "the same" iff their wire encodings are identical).
fn bytes_of(v: &Value) -> Vec<u8> {
    let mut buf = Vec::new();
    v.encode(&mut buf);
    buf
}

fn chunk_rows_bytes(chunk: &ColumnChunk) -> Vec<Vec<Vec<u8>>> {
    (0..chunk.rows())
        .map(|r| {
            (0..chunk.schema().arity())
                .map(|c| bytes_of(&chunk.col(c).value(r)))
                .collect()
        })
        .collect()
}

/// Random predicates exercising every vectorised kernel shape against the
/// generated columns: `col op const` in both orientations, `col op col`
/// (now and then against a column the chunk lacks), bare boolean columns,
/// conjunctions, and a comparison of a comparison (the row-at-a-time
/// walk).  Half the constants are drawn from the column they test, so
/// equality kernels (the predicate index's hash lookups per layout) see
/// hits as well as misses.
fn gen_predicates(rng: &mut Gen, values: &[Vec<Value>]) -> Vec<Expr> {
    let cols = values.len();
    let ops = [
        CmpOp::Eq,
        CmpOp::Ne,
        CmpOp::Lt,
        CmpOp::Le,
        CmpOp::Gt,
        CmpOp::Ge,
    ];
    let mut out = Vec::new();
    for _ in 0..12 {
        let ci = rng.below(cols as u64) as usize;
        let c = format!("c{ci}");
        let op = ops[rng.below(6) as usize];
        let column = &values[ci];
        let constant = if !column.is_empty() && rng.chance(50) {
            column[rng.below(column.len() as u64) as usize].clone()
        } else {
            gen_value(
                &mut Gen::new(rng.next()),
                rng.below(PROFILES as u64) as usize,
            )
        };
        out.push(match rng.below(6) {
            0 => Expr::cmp(op, Expr::lit(constant), Expr::col(&c)),
            1 => {
                let c2 = format!("c{}", rng.below(cols as u64 + 1));
                Expr::cmp(op, Expr::col(&c), Expr::col(&c2))
            }
            2 => Expr::cmp(
                CmpOp::Eq,
                Expr::cmp(op, Expr::col(&c), Expr::lit(constant)),
                Expr::lit(true),
            ),
            3 => Expr::col(&c),
            4 => Expr::And(
                Box::new(Expr::cmp(op, Expr::col(&c), Expr::lit(constant))),
                Box::new(Expr::cmp(
                    CmpOp::Ge,
                    Expr::col(&format!("c{}", rng.below(cols as u64))),
                    Expr::lit(0i64),
                )),
            ),
            _ => Expr::cmp(op, Expr::col(&c), Expr::lit(constant)),
        });
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Ingest inference is lossless: every row of every typed column reads
    /// back bit-identical to the generated value, and identical to the
    /// reference layout's read of the same row.
    #[test]
    fn typed_ingest_is_lossless(seed: u64, rows in 0usize..40, cols in 1usize..7) {
        let pair = gen_pair(seed, rows, cols);
        for c in 0..cols {
            for r in 0..rows {
                let want = bytes_of(&pair.values[c][r]);
                prop_assert_eq!(&bytes_of(&pair.typed.col(c).value(r)), &want);
                prop_assert_eq!(&bytes_of(&pair.reference.col(c).value(r)), &want);
                prop_assert_eq!(
                    &bytes_of(&pair.typed.col(c).value_ref(r).to_value()),
                    &want
                );
            }
        }
    }

    /// The chunk body codec round-trips **bit-for-bit** for every layout
    /// (dictionary pages, byte arenas, packed validity words): decode of an
    /// encode re-encodes to the identical byte string, preserves all row
    /// values, and the encoded length matches the wire accounting.
    #[test]
    fn chunk_codec_round_trips_bit_for_bit(seed: u64, rows in 0usize..48, cols in 1usize..6) {
        let pair = gen_pair(seed, rows, cols);
        for chunk in [&pair.typed, &pair.reference] {
            let mut encoded = Vec::new();
            chunk.encode_body(&mut encoded);
            prop_assert_eq!(
                encoded.len(),
                chunk.wire_size() - pair.schema.wire_size(),
                "encoded body length must equal the accounted body wire size"
            );
            let (decoded, used) = ColumnChunk::decode_body(Arc::clone(&pair.schema), &encoded)
                .expect("own encoding must decode");
            prop_assert_eq!(used, encoded.len());
            prop_assert_eq!(chunk_rows_bytes(&decoded), chunk_rows_bytes(chunk));
            let mut re_encoded = Vec::new();
            decoded.encode_body(&mut re_encoded);
            prop_assert_eq!(&re_encoded, &encoded, "re-encode must be byte-identical");
        }
    }

    /// Compiled predicate masks over typed chunks equal the reference
    /// layout's masks, which equal per-row evaluation over materialised
    /// tuples — for arbitrary mixed-type chunks with nulls and arbitrary
    /// predicate shapes.
    #[test]
    fn predicate_kernels_match_reference(seed: u64, rows in 0usize..100, cols in 1usize..6) {
        let pair = gen_pair(seed, rows, cols);
        let mut rng = Gen::new(seed.wrapping_mul(0x5DEECE66D).wrapping_add(11));
        for expr in gen_predicates(&mut rng, &pair.values) {
            let mut pred = CompiledPredicate::new(expr.clone());
            let typed_mask = pred.for_schema(pair.typed.schema()).eval_column(&pair.typed);
            let ref_mask = pred
                .for_schema(pair.reference.schema())
                .eval_column(&pair.reference);
            prop_assert_eq!(&typed_mask, &ref_mask, "typed vs reference mask for {:?}", expr);
            for (r, &bit) in typed_mask.iter().enumerate() {
                let row = pair.typed.row(r);
                prop_assert_eq!(
                    bit,
                    pred.matches_tuple(&row),
                    "row {} of {:?}",
                    r,
                    expr
                );
            }
        }
    }

    /// `filter` and `gather` preserve rows bit-for-bit across layouts
    /// (duplicate and out-of-order gather indices included).
    #[test]
    fn filter_and_gather_match_reference(seed: u64, rows in 0usize..40, cols in 1usize..6) {
        let pair = gen_pair(seed, rows, cols);
        let mut rng = Gen::new(seed ^ 0xF00D);
        let mask: Vec<bool> = (0..rows).map(|_| rng.chance(55)).collect();
        prop_assert_eq!(
            chunk_rows_bytes(&pair.typed.filter(&mask)),
            chunk_rows_bytes(&pair.reference.filter(&mask))
        );
        let idx: Vec<u32> = if rows == 0 {
            Vec::new()
        } else {
            (0..rng.below(60))
                .map(|_| rng.below(rows as u64) as u32)
                .collect()
        };
        let typed_g = pair.typed.gather(&idx);
        prop_assert_eq!(typed_g.rows(), idx.len());
        prop_assert_eq!(
            chunk_rows_bytes(&typed_g),
            chunk_rows_bytes(&pair.reference.gather(&idx))
        );
    }

    /// Chunk-at-a-time group-by over the typed layout produces exactly the
    /// reference layout's groups and aggregates (rendered — NaN-tolerant).
    #[test]
    fn group_by_matches_reference(seed: u64, rows in 0usize..60) {
        let pair = gen_pair(seed, rows, 4);
        let mk = || {
            GroupBy::new(
                vec!["c0".into()],
                vec![
                    AggFunc::Count,
                    AggFunc::Sum("c1".into()),
                    AggFunc::Min("c2".into()),
                    AggFunc::Max("c3".into()),
                    AggFunc::Avg("c1".into()),
                ],
                "out",
            )
        };
        let render = |tuples: Vec<Tuple>| -> Vec<String> {
            tuples.iter().map(Tuple::to_string).collect()
        };
        let mut typed_gb = mk();
        let mut ref_gb = mk();
        let mut typed_batch = TupleBatch::default();
        typed_batch.push_chunk(pair.typed.clone());
        let mut ref_batch = TupleBatch::default();
        ref_batch.push_chunk(pair.reference.clone());
        prop_assert!(typed_gb.push_batch(&typed_batch).is_empty());
        prop_assert!(ref_gb.push_batch(&ref_batch).is_empty());
        prop_assert_eq!(render(typed_gb.flush()), render(ref_gb.flush()));
    }

    /// The shared predicate index computes identical member masks and union
    /// over typed and reference chunks (hash kernels and ordering kernels
    /// alike); a predicate with no atom form is refused.
    #[test]
    fn predicate_index_matches_reference(seed: u64, rows in 0usize..100, cols in 1usize..5) {
        let pair = gen_pair(seed, rows, cols);
        let mut rng = Gen::new(seed ^ 0xABCD);
        let mut index = PredicateIndex::new();
        let mut ids = Vec::new();
        for (id, expr) in gen_predicates(&mut rng, &pair.values).into_iter().enumerate() {
            let id = id as u64;
            let member = expr.atoms().is_some();
            prop_assert_eq!(index.insert(id, expr), member);
            if member {
                ids.push(id);
            }
        }
        index.eval_chunk(&pair.typed);
        let typed_masks: Vec<Vec<bool>> = ids
            .iter()
            .map(|id| index.member_mask(*id).expect("indexed").to_bools())
            .collect();
        let typed_union = index.union().to_bools();
        index.eval_chunk(&pair.reference);
        for (id, want) in ids.iter().zip(&typed_masks) {
            prop_assert_eq!(
                &index.member_mask(*id).expect("indexed").to_bools(),
                want,
                "member {} diverged between layouts",
                id
            );
        }
        prop_assert_eq!(&index.union().to_bools(), &typed_union);
    }

    /// The gather-based symmetric hash join emits, as a multiset, exactly
    /// the tuples the reference layout (and hence the per-tuple path) emits,
    /// and tracks identical state sizes.
    #[test]
    fn join_matches_reference(seed: u64, rows in 0usize..30) {
        let left = gen_pair(seed, rows, 3);
        let right = gen_pair(seed ^ 0x77, rows / 2 + 1, 2);
        // Re-home the right chunks under a different table name so join
        // schemas differ (column collision handling included).
        let rnames: Vec<&str> = vec!["c0", "k1"];
        let rschema = SchemaRegistry::global().intern("rhs", &rnames);
        let right_typed = ColumnChunk::from_value_columns(
            Arc::clone(&rschema),
            right.values.clone(),
            right.typed.rows(),
        );
        let right_ref = ColumnChunk::from_columns(
            Arc::clone(&rschema),
            right.values.iter().cloned().map(Column::values_layout).collect(),
            right.typed.rows(),
        );
        let key = vec!["c0".to_string()];
        let mut typed_join = SymmetricHashJoin::new(key.clone(), key.clone(), "j");
        let mut ref_join = SymmetricHashJoin::new(key.clone(), key, "j");
        let mut typed_out: Vec<String> = Vec::new();
        let mut ref_out: Vec<String> = Vec::new();
        typed_out.extend(
            typed_join
                .push_chunk_batch(JoinSide::Left, &left.typed)
                .iter()
                .map(|t| t.to_string()),
        );
        ref_out.extend(
            ref_join
                .push_chunk_batch(JoinSide::Left, &left.reference)
                .iter()
                .map(|t| t.to_string()),
        );
        typed_out.extend(
            typed_join
                .push_chunk_batch(JoinSide::Right, &right_typed)
                .iter()
                .map(|t| t.to_string()),
        );
        ref_out.extend(
            ref_join
                .push_chunk_batch(JoinSide::Right, &right_ref)
                .iter()
                .map(|t| t.to_string()),
        );
        typed_out.sort();
        ref_out.sort();
        prop_assert_eq!(typed_out, ref_out);
        prop_assert_eq!(typed_join.state_size(), ref_join.state_size());
    }
}

/// `rows` integers across one of seven ranges from a base of any sign and
/// size: spans reaching 2⁸, 2¹⁶ and 2³² and one past each (the first
/// and last values sit at the ends), and the whole of `i64`.  NULLs mixed
/// in at `nulls` percent.
fn ranged_ints(rng: &mut Gen, rows: usize, nulls: u64) -> Vec<Value> {
    let span = [1u64 << 8, 1 << 16, 1 << 32][rng.below(3) as usize] - rng.below(2);
    let whole = rng.chance(15);
    let base = (rng.next() as i64) >> rng.below(64);
    (0..rows)
        .map(|r| {
            let delta = match r {
                _ if whole => rng.next(),
                0 => 0,
                1 => span,
                _ => rng.below(span + 1),
            };
            match rng.chance(nulls) {
                true => Value::Null,
                false => Value::Int(base.wrapping_add(delta as i64)),
            }
        })
        .collect()
}

/// A column's encoding, checked against its price and read back: the
/// bytes, which decode to the same rows and re-encode to the same bytes.
fn encode_checked(col: &Column) -> Result<Vec<u8>, TestCaseError> {
    let mut bytes = Vec::new();
    col.encode_body(&mut bytes);
    prop_assert_eq!(col.encoded_len(), bytes.len(), "the price is the encoding");
    let (back, used) = Column::decode_body(col.len(), &bytes).expect("own encoding decodes");
    prop_assert_eq!(used, bytes.len());
    prop_assert_eq!(&back.to_values(), &col.to_values());
    let mut again = Vec::new();
    back.encode_body(&mut again);
    prop_assert_eq!(&again, &bytes, "re-encode must be byte-identical");
    Ok(bytes)
}

/// The fewest bytes of {1, 2, 4, 8} that hold `n`.
fn width(n: u64) -> usize {
    [1, 2, 4]
        .into_iter()
        .find(|w| n >> (8 * w) == 0)
        .unwrap_or(8)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// An `Int` column over any range costs exactly what it writes, reads
    /// back as itself, and takes the shorter of its two layouts: plain,
    /// eight bytes a row, or frame of reference — the minimum and the
    /// width of the span, then each row above the minimum in that width
    /// (a NULL row counts as the zero it holds).  Plain wins ties.
    #[test]
    fn an_int_column_takes_its_shortest_layout(seed: u64, rows in 0usize..48, nulls in 0u64..30) {
        let mut rng = Gen::new(seed);
        let vals = ranged_ints(&mut rng, rows, nulls);
        let col = Column::from_values(vals.clone());
        let bytes = encode_checked(&col)?;
        if col.layout_name() == "int" {
            let data: Vec<i64> = vals.iter().map(|v| v.as_i64().unwrap_or(0)).collect();
            let (min, max) = (data.iter().min().unwrap(), data.iter().max().unwrap());
            let head = 2 + vals.iter().any(Value::is_null) as usize * rows.div_ceil(64) * 8;
            let plain = head + 8 * rows;
            let narrow = head + 9 + width(max.abs_diff(*min)) * rows;
            let (tag, shortest) = if narrow < plain { (6, narrow) } else { (1, plain) };
            prop_assert_eq!((bytes[0], bytes.len()), (tag, shortest));
        }
    }

    /// An arena column's offsets are as wide as its arena needs — one byte
    /// up to 255 bytes of arena, two up to 65,535, else four — and the
    /// column costs exactly what it writes and reads back as itself.
    #[test]
    fn arena_offsets_take_the_arena_s_width(seed: u64, extra in 0usize..8, len in 0usize..4) {
        let mut rng = Gen::new(seed);
        let rows = pier::qp::DICT_MAX + 1 + extra;
        let arena = [256, 65_536, 3 * rows + 4, 300_000][len] + rng.below(9) as usize - 4;
        let vals: Vec<Value> = (0..rows)
            .map(|r| {
                let pad = arena / rows - 3 + usize::from(r == 0) * (arena % rows);
                Value::Str(format!("{r:03}{}", "y".repeat(pad)).into())
            })
            .collect();
        let col = Column::from_values(vals);
        prop_assert_eq!(col.layout_name(), "str");
        let bytes = encode_checked(&col)?;
        prop_assert_eq!(bytes.len(), 2 + 4 + arena + (rows + 1) * width(arena as u64));
    }
}

/// The dictionary layout spills to the arena past its cardinality cap and
/// both sides of the spill keep reading identically — a directed (non-random)
/// check that the oracle pair construction covers the spill boundary.
#[test]
fn dictionary_spill_boundary_reads_identically() {
    let rows = 4 * (pier::qp::DICT_MAX + 8);
    let vals: Vec<Value> = (0..rows)
        .map(|i| Value::Str(format!("k{}", i / 4).into()))
        .collect();
    let typed = Column::from_values(vals.clone());
    let reference = Column::values_layout(vals.clone());
    assert_eq!(typed.layout_name(), "str", "spill must land in the arena");
    for r in 0..rows {
        assert_eq!(bytes_of(&typed.value(r)), bytes_of(&reference.value(r)));
    }
    let mut enc = Vec::new();
    typed.encode_body(&mut enc);
    let (decoded, used) = Column::decode_body(rows, &enc).expect("decodes");
    assert_eq!(used, enc.len());
    let mut re_enc = Vec::new();
    decoded.encode_body(&mut re_enc);
    assert_eq!(re_enc, enc);
}

/// Equality members over an arena-string column (past `DICT_MAX` distinct
/// values, with nulls) select the same rows from the typed chunk as from
/// the reference chunk — a directed check of the predicate index's arena
/// arm, which random predicates reach only rarely.
#[test]
fn predicate_index_equality_over_an_arena_column_matches_reference() {
    let rows = 2 * (pier::qp::DICT_MAX + 8);
    let values = vec![(0..rows)
        .map(|i| {
            if i % 7 == 3 {
                Value::Null
            } else {
                Value::Str(format!("k{}", i / 2).into())
            }
        })
        .collect::<Vec<_>>()];
    let schema = SchemaRegistry::global().intern("oracle", &["c0"]);
    let typed = ColumnChunk::from_value_columns(Arc::clone(&schema), values.clone(), rows);
    assert_eq!(typed.col(0).layout_name(), "str", "past DICT_MAX: arena");
    let reference = ColumnChunk::from_columns(
        schema,
        values.into_iter().map(Column::values_layout).collect(),
        rows,
    );
    let mut index = PredicateIndex::new();
    let members = 8u64;
    for id in 0..members {
        let needle = Value::str(format!("k{}", id * 9));
        assert!(index.insert(id, Expr::cmp(CmpOp::Eq, Expr::col("c0"), Expr::lit(needle))));
    }
    index.eval_chunk(&typed);
    let typed_masks: Vec<Vec<bool>> = (0..members)
        .map(|id| index.member_mask(id).expect("indexed").to_bools())
        .collect();
    index.eval_chunk(&reference);
    for (id, want) in (0..members).zip(&typed_masks) {
        assert!(want.contains(&true), "member {id} selects a row");
        assert_eq!(
            &index.member_mask(id).expect("indexed").to_bools(),
            want,
            "member {id} diverged between layouts"
        );
    }
}
