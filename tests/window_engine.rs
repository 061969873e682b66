//! The one window executor, driven without a simulator.
//!
//! A [`WindowEngine`] is a plain struct — chunks and instants in, partial
//! chunks and emissions out — so what the node relies on can be pinned
//! directly:
//!
//! * an unshared query *is* a share group of one: in an engine of N
//!   constant-varied members plus one member without a predicate, that
//!   member gets exactly the rows a one-member engine gets from the same
//!   stream, however the stream is chunked;
//! * `persist → rehydrate` of a multi-member engine is byte-stable in its
//!   segment logs and equal in what the two stores then close and emit;
//! * a selection mask of all ones is the same as no mask, byte for byte in
//!   the shipped partials;
//! * per-member output state (the trackers `pier-cq`'s shared state used to
//!   keep): a late partial re-emits only to the members it affects, as
//!   retract + insert in delta mode, and retirement bounds every tracker;
//! * a relay ships each pane's groups in key order, so the group column
//!   front-codes on the wire;
//! * the root's member index changes cost, not answers: every member of a
//!   mixed engine — filed or scanned, joining and leaving between ticks —
//!   emits what it emits as the sole member of an engine of its own.

use pier::cq::{CqBudget, DeltaMode, DurableStore, WindowSpec};
use pier::qp::tuple::ColumnChunk;
use pier::qp::window_engine::QUERY_NAMES;
use pier::qp::{
    AggFunc, CmpOp, Emission, EngineSpec, Expr, MemberSpec, Tuple, TupleBatch, Value, WindowEngine,
};
use pier::runtime::NodeAddr;
use proptest::prelude::*;

const SEC: u64 = 1_000_000;

/// `SELECT src, COUNT(*), SUM(len) FROM packets GROUP BY src WINDOW 2s
/// SLIDE 1s` on event time `ts`, as engine `tag`.
fn spec(tag: &str) -> EngineSpec {
    EngineSpec {
        tag: tag.to_string(),
        namespace: format!("{tag}.windows"),
        root_key: format!("{tag}.root"),
        window: WindowSpec::sliding(2 * SEC, SEC),
        budget: CqBudget::default(),
        group_cols: vec!["src".to_string()],
        aggs: vec![AggFunc::Count, AggFunc::Sum("len".to_string())],
        time_col: Some("ts".to_string()),
        min_lifetime: 0,
        names: QUERY_NAMES,
        emit_once: false,
        flat: false,
    }
}

fn member(watch: Option<u8>, delta: DeltaMode) -> MemberSpec {
    MemberSpec {
        derive: watch.map(|h| Expr::eq("src", source(h).as_str())),
        proxy: NodeAddr(1),
        lease: 30 * SEC,
        delta,
        final_ops: Vec::new(),
    }
}

fn source(h: u8) -> String {
    format!("10.0.0.{h}")
}

fn packets(rows: &[(u8, u16, u64)]) -> Vec<Tuple> {
    rows.iter()
        .map(|&(h, len, ts)| {
            Tuple::new(
                "packets",
                vec![
                    ("src", Value::str(source(h))),
                    ("len", Value::Int(i64::from(len))),
                    ("ts", Value::Int(ts as i64)),
                ],
            )
        })
        .collect()
}

/// Cut `rows` into consecutive chunks of the drawn lengths (cycled).
fn cut(rows: &[Tuple], lens: &[usize]) -> Vec<ColumnChunk> {
    let mut out = Vec::new();
    let mut rest = rows;
    for &len in lens.iter().cycle() {
        if rest.is_empty() {
            break;
        }
        let (piece, tail) = rest.split_at(len.clamp(1, rest.len()));
        out.extend(TupleBatch::new(piece.to_vec()).chunks().iter().cloned());
        rest = tail;
    }
    out
}

/// One member's emissions, rendered: `(start, end, retracts, inserts)`, each
/// row as its `column=value` cells.  Rows are on the engine's own schema
/// (`{tag}.win`, asserted here), which is what differs between a share
/// group and a group of one; the proxy relabels both `q{id}.win`.
fn rendered(emissions: &[Emission], query_id: u64) -> Vec<(u64, u64, Vec<String>, Vec<String>)> {
    let cells = |row: &Tuple| {
        let text = row.to_string();
        let (table, cells) = text.split_once('(').expect("table(cells)");
        assert!(table.ends_with(".win") && !cells.contains("window_start"));
        cells.to_string()
    };
    let render = |rows: &[Tuple]| rows.iter().map(cells).collect();
    emissions
        .iter()
        .filter(|e| e.query_id == query_id)
        .map(|e| {
            (
                e.window_start,
                e.window_end,
                render(&e.retracts),
                render(&e.inserts),
            )
        })
        .collect()
}

fn body(chunk: &ColumnChunk) -> Vec<u8> {
    let mut buf = Vec::new();
    chunk.encode_body(&mut buf);
    buf
}

proptest! {
    /// (a) The always-true member of a many-member engine is served exactly
    /// like the sole member of its own engine — same windows, same rows,
    /// same order, same re-emissions — under arbitrary re-chunking and a
    /// root tick in mid-stream.
    #[test]
    fn a_member_without_a_predicate_is_a_group_of_one(
        rows in proptest::collection::vec((0u8..8, 0u16..1500, 0u64..10_000_000), 1..300),
        watched in proptest::collection::vec(0u8..10, 0..12),
        cuts_shared in proptest::collection::vec(1usize..70, 1..6),
        cuts_alone in proptest::collection::vec(1usize..70, 1..6),
        tick_at in 0usize..300,
    ) {
        const ALL: u64 = 500;
        let mut shared = WindowEngine::new(spec("g00000000000000aa"));
        for (i, h) in watched.iter().enumerate() {
            // Ids on both sides of ALL, so it is neither first nor last.
            let id = if i % 2 == 0 { 100 + i as u64 } else { 900 + i as u64 };
            shared.add_member(id, member(Some(*h), DeltaMode::Snapshot), false, 0);
        }
        shared.add_member(ALL, member(None, DeltaMode::Snapshot), false, 0);
        let mut alone = WindowEngine::new(spec("q500"));
        alone.add_member(ALL, member(None, DeltaMode::Snapshot), false, 0);

        let tuples = packets(&rows);
        let split = tick_at.min(tuples.len());
        let mut got = Vec::new();
        let mut want = Vec::new();
        for (part, now) in [(&tuples[..split], 5 * SEC), (&tuples[split..], 60 * SEC)] {
            for chunk in cut(part, &cuts_shared) {
                shared.absorb(&chunk, None, 0);
            }
            for chunk in cut(part, &cuts_alone) {
                alone.absorb(&chunk, None, 0);
            }
            got.extend(rendered(&shared.tick(now, true).emissions, ALL));
            want.extend(rendered(&alone.tick(now, true).emissions, ALL));
        }
        prop_assert!(!want.is_empty(), "the stream must close windows");
        prop_assert_eq!(&got, &want);
        // Both engines hold one store's worth of state, whatever the
        // member count.
        let (a, b) = (shared.diagnostics(ALL).unwrap(), alone.diagnostics(ALL).unwrap());
        prop_assert_eq!((a.local, a.root, a.total_groups), (b.local, b.root, b.total_groups));
        prop_assert_eq!(a.windows_emitted, b.windows_emitted);
    }

    /// (c) A mask of all ones is no mask: the shipped partials are the same
    /// bytes.
    #[test]
    fn an_all_ones_mask_equals_no_mask(
        rows in proptest::collection::vec((0u8..8, 0u16..1500, 0u64..10_000_000), 1..200),
        cuts in proptest::collection::vec(1usize..130, 1..5),
    ) {
        let mut masked = WindowEngine::new(spec("g00000000000000bb"));
        let mut plain = WindowEngine::new(spec("g00000000000000bb"));
        for chunk in cut(&packets(&rows), &cuts) {
            // Whole words of ones: bits past the chunk's rows select nothing.
            let ones = vec![u64::MAX; chunk.rows().div_ceil(64)];
            masked.absorb(&chunk, Some(&ones), 0);
            plain.absorb(&chunk, None, 0);
        }
        let a = masked.tick(60 * SEC, false);
        let b = plain.tick(60 * SEC, false);
        let (a, b) = (a.partials.expect("closed windows ship"), b.partials.expect("both"));
        prop_assert_eq!(body(&a), body(&b));
        prop_assert_eq!(a, b);
    }
}

/// [`fresh_members`], populated: local rows plus partials relayed from
/// another node's non-root tick.
fn populated() -> WindowEngine {
    let rows: Vec<(u8, u16, u64)> = (0..240u64)
        .map(|i| ((i % 7) as u8, (40 + i % 900) as u16, i * 40_000))
        .collect();
    let mut relay = WindowEngine::new(spec("g00000000000000cc"));
    for chunk in cut(&packets(&rows[..120]), &[50]) {
        relay.absorb(&chunk, None, 0);
    }
    let relayed = relay.tick(4 * SEC, false).partials.expect("relay ships");
    let mut engine = fresh_members();
    for chunk in cut(&packets(&rows[60..]), &[64]) {
        engine.absorb(&chunk, None, 0);
    }
    assert!(engine.absorb_panes(&relayed, true).is_empty());
    engine
}

/// Two constant-varied members, one of them in delta mode, and one member
/// watching everything.
fn fresh_members() -> WindowEngine {
    let mut engine = WindowEngine::new(spec("g00000000000000cc"));
    engine.add_member(1, member(Some(1), DeltaMode::Snapshot), false, 0);
    engine.add_member(2, member(Some(2), DeltaMode::Deltas), false, 0);
    engine.add_member(3, member(None, DeltaMode::Snapshot), false, 0);
    engine
}

/// (b) A multi-member engine restarts warm: its logs re-encode to the same
/// bytes and both stores then close and emit what the original's do.
#[test]
fn persist_then_rehydrate_is_byte_stable_and_closes_and_emits_alike() {
    let disk = DurableStore::new();
    populated().persist(&disk);
    let keys = disk.keys();
    assert_eq!(keys, ["g00000000000000cc.local", "g00000000000000cc.root"]);

    let mut warm = fresh_members();
    let report = warm.rehydrate(&disk).expect("segments were written");
    assert!(report.windows > 0 && report.groups > 0 && !report.torn_tail);
    assert_eq!(
        warm.diagnostics(2).expect("member").rehydrated_windows,
        report.windows as u64
    );
    let redisk = DurableStore::new();
    warm.persist(&redisk);
    for key in &keys {
        let (a, b) = (disk.get(key).unwrap(), redisk.get(key).unwrap());
        assert_eq!(a.as_bytes(), b.as_bytes(), "{key} re-encodes identically");
    }

    // close_due: away from the root both drain the same partial stream.
    let shipped = populated().tick(60 * SEC, false);
    let warm_shipped = warm.tick(60 * SEC, false);
    assert_eq!(shipped.panes, warm_shipped.panes);
    assert_eq!(
        body(&shipped.partials.expect("windows closed")),
        body(&warm_shipped.partials.expect("windows closed"))
    );
    // emit_due: at the root both derive the same rows for every member.
    let mut rewarmed = fresh_members();
    rewarmed.rehydrate(&disk).expect("segments were written");
    let emitted = populated().tick(60 * SEC, true).emissions;
    let warm_emitted = rewarmed.tick(60 * SEC, true).emissions;
    assert!(!emitted.is_empty());
    for id in 1..=3 {
        assert_eq!(rendered(&emitted, id), rendered(&warm_emitted, id));
    }
}

#[test]
fn a_late_partial_reemits_only_to_the_members_it_affects_and_deltas_retract() {
    let mut root = fresh_members();
    let mut relay = WindowEngine::new(spec("g00000000000000cc"));
    let ship = |relay: &mut WindowEngine, rows: &[(u8, u16, u64)], now| {
        relay.absorb(&TupleBatch::new(packets(rows)).chunks()[0], None, 0);
        relay.tick(now, false).partials.expect("relay ships")
    };
    // Window [0, 2s): source 1 once, source 2 twice.
    let first = ship(
        &mut relay,
        &[(1, 100, 10), (2, 100, 20), (2, 100, 30)],
        10 * SEC,
    );
    assert!(root.absorb_panes(&first, true).is_empty());
    let out = root.tick(10 * SEC, true);
    for id in 1..=3 {
        assert_eq!(rendered(&out.emissions, id).len(), 1, "member {id}");
    }
    // A straggler for source 2 only.  (The relay's window closed, so the
    // refinement is built on a second relay.)
    let mut relay = WindowEngine::new(spec("g00000000000000cc"));
    let late = ship(&mut relay, &[(2, 50, 40)], 10 * SEC);
    assert!(root.absorb_panes(&late, true).is_empty());
    let out = root.tick(11 * SEC, true);
    assert!(
        rendered(&out.emissions, 1).is_empty(),
        "member 1's answer did not change"
    );
    let deltas = rendered(&out.emissions, 2);
    assert_eq!(deltas.len(), 1);
    let (_, _, retracts, inserts) = &deltas[0];
    assert_eq!((retracts.len(), inserts.len()), (1, 1), "retract + insert");
    assert!(
        retracts[0].contains("count=2") && inserts[0].contains("count=3"),
        "{deltas:?}"
    );
    // The snapshot member watching everything gets the whole window again.
    let snapshot = rendered(&out.emissions, 3);
    assert_eq!(snapshot.len(), 1);
    assert!(snapshot[0].2.is_empty() && snapshot[0].3.len() == 2);
    assert_eq!(root.diagnostics(2).unwrap().windows_emitted, 2);
    assert_eq!(root.diagnostics(1).unwrap().windows_emitted, 1);
}

#[test]
fn retirement_bounds_the_root_store_and_every_members_tracker() {
    let mut root = fresh_members();
    // 200 one-row windows, each emitted as it closes.
    for w in 0..200u64 {
        let mut relay = WindowEngine::new(spec("g00000000000000cc"));
        let rows = [(1u8, 10u16, w * SEC + 1), (2, 10, w * SEC + 2)];
        relay.absorb(&TupleBatch::new(packets(&rows)).chunks()[0], None, 0);
        let partials = relay.tick((w + 10) * SEC, false).partials.unwrap();
        root.absorb_panes(&partials, true);
        root.tick((w + 4) * SEC, true);
    }
    // Sliding 2s/1s: two windows per event, so six are kept for refinement.
    for id in 1..=3 {
        let diag = root.diagnostics(id).expect("member");
        assert!(diag.windows_emitted >= 200, "{diag:?}");
        assert!(diag.tracked_emissions <= 8, "{diag:?}");
        assert!(diag.open_windows <= 8, "{diag:?}");
    }
    assert!(root.remove_member(2));
    assert!(root.diagnostics(2).is_none(), "no sink outlives its member");
}

/// A row folds into the one pane of its event time, however many windows
/// cover it: at 60 s / 1 s the local store accepts each row once (not sixty
/// times), holds a pane per second of rows, and a leaf ships each pane once.
#[test]
fn at_sixty_seconds_over_one_each_row_is_folded_once() {
    let mut spec = spec("q60");
    spec.window = WindowSpec::sliding(60 * SEC, SEC);
    let mut engine = WindowEngine::new(spec);
    engine.add_member(1, member(None, DeltaMode::Snapshot), false, 0);
    // One window's worth: 60 seconds of rows, 5 a second, 5 sources.
    let rows: Vec<(u8, u16, u64)> = (0..300u64)
        .map(|i| ((i % 5) as u8, 40, i * SEC / 5))
        .collect();
    for chunk in cut(&packets(&rows), &[64]) {
        engine.absorb(&chunk, None, 0);
    }
    let diag = engine.diagnostics(1).expect("member");
    assert_eq!(diag.local.accepted, 300, "one fold per row");
    assert_eq!((diag.open_windows, diag.total_groups), (60, 300));
    // Draining ships each (pane, group) once: 60 panes of 5 sources.
    let out = engine.tick(1_000 * SEC, false);
    assert_eq!(out.panes, 60);
    assert_eq!(out.partials.expect("panes ship").rows(), 300);
}

/// A relay ships each pane's groups in key order — its own rows and its
/// child's partials merged — whatever order they arrived in, so the chunk
/// codec front-codes the group column and a source costs the bytes it
/// does not share with the one before.  A drain in slot order would skip
/// the close's sort and give those bytes back: this test names that trade.
#[test]
fn a_relay_ships_its_partial_chunk_with_the_group_column_sorted() {
    // Two panes of rows, every source descending, half of them relayed.
    let rows: Vec<(u8, u16, u64)> = (0..2u64)
        .flat_map(|pane| (0..=255u8).rev().map(move |h| (h, 40, pane * SEC + 10)))
        .collect();
    let (own, child_rows): (Vec<_>, Vec<_>) = rows.iter().partition(|r| r.0 % 2 == 0);
    let mut child = WindowEngine::new(spec("g00000000000000dd"));
    child.absorb(&TupleBatch::new(packets(&child_rows)).chunks()[0], None, 0);
    let relayed = child.tick(10 * SEC, false).partials.expect("child ships");
    let mut relay = WindowEngine::new(spec("g00000000000000dd"));
    for chunk in cut(&packets(&own), &[64]) {
        relay.absorb(&chunk, None, 0);
    }
    assert!(relay.absorb_panes(&relayed, false).is_empty());
    let shipped = relay.tick(10 * SEC, false).partials.expect("relay ships");
    assert_eq!(shipped.schema().columns()[..2], ["_w", "src"]);
    let cells: Vec<(Value, Value)> = (0..shipped.rows())
        .map(|r| (shipped.col(0).value(r), shipped.col(1).value(r)))
        .collect();
    assert_eq!(cells.len(), 2 * 256, "every source of both panes, once");
    let mut sorted = cells.clone();
    sorted.sort_by_key(|(pane, src)| (pane.as_i64(), src.as_str().map(str::to_string)));
    assert_eq!(
        cells, sorted,
        "panes oldest first, each pane's sources in key order"
    );
    // The sources front-code: the group column costs under half its plain
    // price (its arena, the arena's length and 513 two-byte offsets).
    let arena: usize = cells
        .iter()
        .map(|(_, src)| src.as_str().unwrap().len())
        .sum();
    assert_eq!(arena, 4_900);
    assert!(2 * shipped.col(1).encoded_len() < 2 + 4 + arena + 513 * 2);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// (d) Segment compaction bounds the disk: over any schedule of absorb,
    /// tick and persist, each of the engine's two segment logs stays within
    /// [`WindowEngine::SEGMENT_COMPACT_BYTES`] plus the one snapshot the
    /// last persist appended, and a cold engine rehydrated from the logs
    /// holds the live engine's open windows and groups.  Absorbs spread
    /// over up to 256 sources make a snapshot tens of KB, so a persist
    /// burst crosses the 1 MiB bound and compaction runs inside the
    /// schedule.
    #[test]
    fn segment_logs_stay_bounded_and_rehydrate_the_live_state(
        ops in proptest::collection::vec((0u8..3, 0u16..1024), 4..24),
    ) {
        const TAG: &str = "g00000000000000dd";
        let keys = [format!("{TAG}.local"), format!("{TAG}.root")];
        let engine = || {
            let mut e = WindowEngine::new(spec(TAG));
            e.add_member(1, member(None, DeltaMode::Snapshot), false, 0);
            e
        };
        let mut live = engine();
        let disk = DurableStore::new();
        let len = |d: &DurableStore, key: &str| d.get(key).map_or(0, |log| log.len());
        let mut now = 0;
        for (kind, arg) in ops {
            match kind {
                0 => {
                    // 1..=1024 rows over the next two seconds of event time.
                    let n = u64::from(arg) + 1;
                    let rows: Vec<(u8, u16, u64)> = (0..n)
                        .map(|i| ((i * 7 + n) as u8, (i % 1500) as u16, now + i * 2 * SEC / n))
                        .collect();
                    for chunk in cut(&packets(&rows), &[256]) {
                        live.absorb(&chunk, None, now);
                    }
                }
                1 => {
                    now += u64::from(arg % 3) * SEC;
                    live.tick(now, (arg / 3) % 2 == 0);
                }
                _ => {
                    for _ in 0..=arg % 48 {
                        let snapshot = DurableStore::new();
                        live.persist(&snapshot);
                        live.persist(&disk);
                        for key in &keys {
                            let bound = WindowEngine::SEGMENT_COMPACT_BYTES + len(&snapshot, key);
                            prop_assert!(
                                len(&disk, key) <= bound,
                                "{key}: {} bytes past the bound {bound}",
                                len(&disk, key)
                            );
                        }
                    }
                    let mut cold = engine();
                    prop_assert!(cold.rehydrate(&disk).is_some());
                    let (c, l) = (cold.diagnostics(1).unwrap(), live.diagnostics(1).unwrap());
                    prop_assert_eq!(
                        (c.open_windows, c.total_groups),
                        (l.open_windows, l.total_groups)
                    );
                }
            }
        }
    }
}

const SOURCES: [&str; 4] = ["a", "b", "c", "d"];

/// [`spec`] grouped by drawn columns: `src` (text), `src, up` (text and a
/// flag) or `n` (numbers, among them both `5` and `5.0`).
fn mixed_spec(tag: &str, by: usize) -> EngineSpec {
    let group_cols: &[&str] = match by {
        0 => &["src"],
        1 => &["src", "up"],
        _ => &["n"],
    };
    EngineSpec {
        group_cols: group_cols.iter().map(ToString::to_string).collect(),
        ..spec(tag)
    }
}

/// Rows drawn as `(x, len, ts)`: source `x % 4`, number `x / 4 % 4`, flag
/// `x / 16 % 2`.
fn mixed_packets<'a>(rows: impl IntoIterator<Item = &'a (u8, u16, u64)>) -> Vec<Tuple> {
    let numbers = [
        Value::Int(5),
        Value::Float(5.0),
        Value::Int(6),
        Value::Float(2.5),
    ];
    rows.into_iter()
        .map(|&(x, len, ts)| {
            Tuple::new(
                "packets",
                vec![
                    ("src", Value::str(SOURCES[usize::from(x % 4)])),
                    ("up", Value::Bool(x / 16 % 2 == 1)),
                    ("n", numbers[usize::from(x / 4 % 4)].clone()),
                    ("len", Value::Int(i64::from(len))),
                    ("ts", Value::Int(ts as i64)),
                ],
            )
        })
        .collect()
}

/// Member predicate `draw % 9`, its constants and delta mode drawn from the
/// rest.  Filed on the GROUP BY that each pins whole (0–1 on `src`, 2–3 on
/// `src, up`); scanned otherwise: a partial pin, an `Int` constant, a
/// range, an inequality, a column pinned twice, and no predicate at all.
fn mixed_member(draw: u64) -> MemberSpec {
    let src = || Expr::col("src");
    let lit = |k: u64| Expr::lit(SOURCES[(k % 4) as usize]);
    let eq = |l, r| Expr::cmp(CmpOp::Eq, l, r);
    let and = |l, r| Expr::And(Box::new(l), Box::new(r));
    let (a, b, up) = (draw / 9, draw / 36, draw / 144 % 2 == 1);
    let derive = match draw % 9 {
        0 => Some(eq(src(), lit(a))),
        1 => Some(eq(lit(a), src())),
        2 => Some(and(eq(src(), lit(a)), Expr::eq("up", up))),
        3 => Some(and(Expr::eq("up", up), eq(lit(a), src()))),
        4 => Some(Expr::eq("n", 5i64)),
        5 => Some(Expr::cmp(CmpOp::Lt, src(), lit(a))),
        6 => Some(Expr::cmp(CmpOp::Ne, src(), lit(b))),
        7 => Some(and(eq(src(), lit(a)), eq(src(), lit(b)))),
        _ => None,
    };
    let delta = if draw / 288 % 2 == 1 {
        DeltaMode::Deltas
    } else {
        DeltaMode::Snapshot
    };
    MemberSpec {
        derive,
        ..member(None, delta)
    }
}

proptest! {
    /// (e) Each member of a mixed engine emits exactly what it emits as
    /// the sole member of its own engine, over any re-chunking of the
    /// stream, relayed partials that refine windows already emitted, both
    /// delta modes and members joining and leaving between root ticks (an
    /// id that leaves may come back with another predicate).  The lone
    /// member's predicate is `p AND TRUE`: the same groups as `p`, but
    /// never filed, so the reference is the plain per-group scan.
    #[test]
    fn each_member_of_a_mixed_engine_emits_what_it_emits_alone(
        by in 0usize..3,
        rows in proptest::collection::vec((0u8..64, 0u16..1500, 0u64..9_000_000), 1..240),
        first in proptest::collection::vec(0u64..576, 6..7),
        rounds in proptest::collection::vec((0u64..16, 0usize..6, 0u64..576), 1..10),
        cuts in proptest::collection::vec(1usize..70, 1..6),
        cuts_alone in proptest::collection::vec(1usize..70, 1..6),
    ) {
        let id = |slot: usize| 10 + 3 * slot as u64;
        let mut mixed = WindowEngine::new(mixed_spec("g00000000000000ee", by));
        let mut alone: Vec<WindowEngine> = (0..6)
            .map(|slot| WindowEngine::new(mixed_spec(&format!("q{}", id(slot)), by)))
            .collect();
        let mut relay = WindowEngine::new(mixed_spec("g00000000000000ef", by));
        let join = |slot: usize, draw: u64, mixed: &mut WindowEngine, alone: &mut WindowEngine| {
            let m = mixed_member(draw);
            let unfiled = MemberSpec {
                derive: m.derive.clone().map(|p| Expr::all(vec![p, Expr::lit(true)])),
                ..m.clone()
            };
            mixed.add_member(id(slot), m, false, 0);
            alone.add_member(id(slot), unfiled, false, 0);
        };
        for (slot, &draw) in first.iter().enumerate() {
            join(slot, draw, &mut mixed, &mut alone[slot]);
        }
        let mut live = [true; 6];

        let n = rounds.len() + 1;
        let mut now = 0;
        for k in 0..n {
            let round = &rows[k * rows.len() / n..(k + 1) * rows.len() / n];
            let (relayed, local): (Vec<_>, Vec<_>) =
                round.iter().partition(|&&(x, _, _)| x / 32 % 2 == 1);
            let (local, relayed) = (mixed_packets(local), mixed_packets(relayed));
            // The last round flushes everything; the others advance the
            // clock 0–3 s, the relay lagging it by 0–3 s.
            let (step, lag) = rounds.get(k).map_or((60, 0), |r| (r.0 % 4, r.0 / 4));
            now += step * SEC;
            for chunk in cut(&local, &cuts) {
                mixed.absorb(&chunk, None, now);
            }
            for engine in &mut alone {
                for chunk in cut(&local, &cuts_alone) {
                    engine.absorb(&chunk, None, now);
                }
            }
            for chunk in cut(&relayed, &cuts) {
                relay.absorb(&chunk, None, now);
            }
            if let Some(partials) = relay.tick(now.saturating_sub(lag * SEC), false).partials {
                let refused = mixed.absorb_panes(&partials, true);
                for engine in &mut alone {
                    prop_assert_eq!(&engine.absorb_panes(&partials, true), &refused);
                }
            }
            let got = mixed.tick(now, true).emissions;
            for (slot, engine) in alone.iter_mut().enumerate() {
                let want = engine.tick(now, true).emissions;
                prop_assert_eq!(rendered(&got, id(slot)), rendered(&want, id(slot)), "slot {}", slot);
                if live[slot] {
                    let (a, b) = (mixed.diagnostics(id(slot)), engine.diagnostics(id(slot)));
                    prop_assert_eq!(a.unwrap().windows_emitted, b.unwrap().windows_emitted);
                }
            }
            prop_assert!(got.iter().all(|e| (0..6).any(|s| live[s] && id(s) == e.query_id)));
            // Between root ticks one slot leaves, or (re)joins.
            if let Some(&(_, slot, draw)) = rounds.get(k) {
                if live[slot] {
                    prop_assert!(mixed.remove_member(id(slot)));
                    prop_assert!(alone[slot].remove_member(id(slot)));
                } else {
                    join(slot, draw, &mut mixed, &mut alone[slot]);
                }
                live[slot] = !live[slot];
            }
        }
    }
}
