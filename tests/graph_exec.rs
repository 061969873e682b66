//! The opgraph executor and the rehash buffer, driven without a simulator.
//!
//! A [`GraphExec`] is a plain struct — source chunks and probe answers in,
//! overlay effects and result chunks out — so what the node relies on can be
//! pinned directly, against `Overlay`s on a static ring whose `Send`s the
//! test carries across by hand:
//!
//! * what a rehash sink ships, and when it asks for the flush tick, is a
//!   function of the rows, not of how they were chunked on their way there;
//! * a shed plan keeps the same source rows however they were chunked, and
//!   query-scoped (derived) chunks pass untouched;
//! * Fetch-Matches issues one `get` per distinct key of a call, a key's
//!   completion joins every probe row that waited for it and reaches the
//!   proxy as one batch under the join's output table, and a query torn down
//!   with fetches in flight leaves nothing behind;
//! * a one-shot aggregate's engine wired by hand — leaf → relay → root —
//!   answers with the rows of one `GroupBy` over everything, on the answer
//!   columns, flat or hierarchical, and a tick re-sends nothing; its root
//!   keeps a pane per hold of the query's life, and no group cap drops a
//!   row of its answer.

mod common;

use common::seeded;
use pier::dht::{make_ring_refs, NodeRef, Overlay, OverlayConfig, OverlayEffect, OverlayEvent};
use pier::qp::{
    AggFunc, EngineSpec, ExecOut, GraphExec, GroupBy, LocalOperator, OpGraph, OperatorSpec,
    PierConfig, PlanBuilder, QpObject, QueryPlan, SinkSpec, SourceSpec, Telemetry, Tuple,
    TupleBatch, Value, WindowEngine, WindowSpec,
};
use pier::runtime::{NodeAddr, Rng64};
use proptest::prelude::*;

const QUERY: u64 = 7;
const PROXY: NodeAddr = NodeAddr(9);
const NOW: u64 = 1_000_000;

/// A one-graph plan reading `source` through `ops` into `sink`.
fn plan(source: &str, ops: Vec<OperatorSpec>, sink: SinkSpec) -> QueryPlan {
    let graph = OpGraph {
        id: 0,
        source: SourceSpec::Table {
            namespace: source.to_string(),
        },
        join: None,
        ops,
        sink,
    };
    let mut plan = PlanBuilder::new(PROXY).opgraph(graph).build();
    plan.query_id = QUERY;
    plan
}

fn installed(plan: QueryPlan) -> GraphExec {
    let mut exec = GraphExec::new(&PierConfig::default(), Telemetry::disabled());
    exec.install(plan);
    exec
}

/// The overlays of an `n`-node static ring.
fn ring_of(n: usize, seed: u64) -> Vec<Overlay<QpObject>> {
    let refs: Vec<NodeRef> = make_ring_refs(n, seed);
    let overlay = |me: &NodeRef| Overlay::with_static_ring(*me, &refs, OverlayConfig::default());
    refs.iter().map(overlay).collect()
}

/// Carry node `at`'s `effects` across the ring until only events are left:
/// every `(node, event)` raised on the way, in order.
fn carry(
    ring: &mut [Overlay<QpObject>],
    at: usize,
    effects: Vec<OverlayEffect<QpObject>>,
) -> Vec<(usize, OverlayEvent<QpObject>)> {
    let mut events = Vec::new();
    let mut work: Vec<_> = effects.into_iter().map(|e| (at, e)).collect();
    while !work.is_empty() {
        let mut next = Vec::new();
        for (node, effect) in work {
            match effect {
                OverlayEffect::Send { to, msg } => {
                    let from = ring[node].me().addr;
                    let to = to.index();
                    let arrived = ring[to].on_message(from, msg, NOW);
                    next.extend(arrived.into_iter().map(|e| (to, e)));
                }
                OverlayEffect::Event(event) => events.push((node, event)),
                OverlayEffect::SetTimer { .. } => {}
            }
        }
        work = next;
    }
    events
}

fn rows_of(table: &str, rows: &[(u8, u16)]) -> Vec<Tuple> {
    let row = |&(k, v): &(u8, u16)| {
        let fields = vec![
            ("k", Value::Int(i64::from(k))),
            ("v", Value::Int(i64::from(v))),
        ];
        Tuple::new(table, fields)
    };
    rows.iter().map(row).collect()
}

/// `rows` cut into consecutive `(offset, chunk)`s of the drawn lengths
/// (cycled).
fn cut(rows: &[Tuple], lens: &[usize]) -> Vec<(usize, TupleBatch)> {
    let (mut out, mut at) = (Vec::new(), 0);
    for len in lens.iter().cycle() {
        if at == rows.len() {
            break;
        }
        let end = (at + len).min(rows.len());
        out.push((at, TupleBatch::new(rows[at..end].to_vec())));
        at = end;
    }
    out
}

/// What a rehash sink did with a stream: every overlay effect, in order
/// (threshold flushes as they happened, then the tick's), the row ranges of
/// the calls that asked for the tick, and the RNG's next draw afterwards.
#[derive(Debug, PartialEq)]
struct Rehashed {
    effects: Vec<String>,
    armed: Vec<(usize, usize)>,
    next_draw: u64,
}

fn rehash(rows: &[Tuple], lens: &[usize], seed: u64) -> Rehashed {
    let sink = SinkSpec::Rehash {
        namespace: format!("q{QUERY}.rh"),
        key_cols: vec!["k".to_string()],
    };
    let mut exec = installed(plan("r", Vec::new(), sink));
    let mut ring = ring_of(2, seed);
    let overlay = &mut ring[0];
    let mut rng = Rng64::new(seed);
    let (mut effects, mut armed) = (Vec::new(), Vec::new());
    for (offset, chunk) in cut(rows, lens) {
        let out = exec.feed((QUERY, 0), &chunk, NOW, None, overlay, &mut rng);
        assert!(out.results.is_empty());
        effects.extend(out.effects.iter().map(|e| format!("{e:?}")));
        if out.arm_batch_flush {
            armed.push((offset, offset + chunk.len()));
        }
    }
    let tick = exec.flush_rehash(NOW, overlay, &mut rng);
    effects.extend(tick.iter().map(|e| format!("tick {e:?}")));
    assert!(exec.flush_rehash(NOW, overlay, &mut rng).is_empty());
    Rehashed {
        effects,
        armed,
        next_draw: rng.next_u64(),
    }
}

/// The rows the results of `outs` carry, as text.
fn result_rows(outs: &[ExecOut]) -> Vec<String> {
    let results = outs.iter().flat_map(|out| &out.results);
    let rows = results.flat_map(|(proxy, query, rows)| {
        assert_eq!((*proxy, *query), (PROXY, QUERY));
        rows.iter()
    });
    rows.map(|t| t.to_string()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// One chunk, row by row or any split: the same puts in the same order
    /// under the same names, and the flush tick asked for at the same row.
    /// Up to 399 rows, so the `rehash::MAX_TUPLES` threshold fires up to
    /// six times a case.
    #[test]
    fn rehash_does_not_see_chunk_boundaries(
        rows in proptest::collection::vec((0u8..12, any::<u16>()), 1..400),
        lens in proptest::collection::vec(1usize..40, 1..8),
    ) {
        let seed = seeded(0x5EED_0001);
        let rows = rows_of("r", &rows);
        let by_row = rehash(&rows, &[1], seed);
        prop_assert!(by_row.armed.len() <= 1);
        for lens in [&[rows.len()][..], &lens] {
            let split = rehash(&rows, lens, seed);
            prop_assert_eq!(&split.effects, &by_row.effects);
            prop_assert_eq!(split.next_draw, by_row.next_draw);
            // The call that asked for the tick holds the row that did.
            prop_assert_eq!(split.armed.len(), by_row.armed.len());
            for (call, row) in split.armed.iter().zip(&by_row.armed) {
                prop_assert!(call.0 <= row.0 && row.1 <= call.1, "{call:?} misses {row:?}");
            }
        }
    }

    /// A shed plan keeps source rows 0, k, 2k, … of what it has seen,
    /// wherever the chunk boundaries fall; derived rows are not thinned and
    /// do not advance the count.
    #[test]
    fn sampling_does_not_see_chunk_boundaries(
        rows in proptest::collection::vec((0u8..12, any::<u16>()), 1..160),
        lens in proptest::collection::vec(1usize..40, 1..8),
        every in 2u32..9,
        derived_at in 0usize..8,
    ) {
        let source = rows_of("events", &rows);
        let derived = TupleBatch::new(rows_of(&format!("q{QUERY}.rh"), &rows));
        let kept = source.iter().step_by(every as usize);
        let mut expected: Vec<String> = kept.map(Tuple::to_string).collect();
        expected.extend(derived.iter().map(|t| t.to_string()));
        for lens in [&[1][..], &[source.len()], &lens] {
            let mut shed = plan("events", Vec::new(), SinkSpec::ToProxy);
            shed.sample_every = every;
            let mut exec = installed(shed);
            let mut ring = ring_of(1, seeded(0x5EED_0002));
            let overlay = &mut ring[0];
            let mut rng = Rng64::new(1);
            let mut feed = |chunk: &TupleBatch| {
                exec.feed((QUERY, 0), chunk, NOW, None, overlay, &mut rng)
            };
            let chunks = cut(&source, lens);
            let derived_at = derived_at.min(chunks.len());
            let mut outs: Vec<ExecOut> = Vec::new();
            let mut passed = Vec::new();
            for (i, (_, chunk)) in chunks.iter().enumerate() {
                if i == derived_at {
                    passed.push(feed(&derived));
                }
                outs.push(feed(chunk));
            }
            if derived_at == chunks.len() {
                passed.push(feed(&derived));
            }
            outs.extend(passed);
            prop_assert!(outs.iter().all(|out| out.effects.is_empty()));
            prop_assert_eq!(result_rows(&outs), expected.clone());
        }
    }
}

/// The `GetResult`s among `events` raised at node 0.
fn answers(
    events: Vec<(usize, OverlayEvent<QpObject>)>,
) -> Vec<(u64, Vec<pier::dht::StoredObject<QpObject>>)> {
    let answer = |(node, event): (usize, OverlayEvent<QpObject>)| match event {
        OverlayEvent::GetResult {
            request_id,
            objects,
            ..
        } if node == 0 => Some((request_id, objects)),
        _ => None,
    };
    events.into_iter().filter_map(answer).collect()
}

#[test]
fn fetch_matches_probes_once_per_distinct_key_and_forgets_a_torn_down_query() {
    let mut ring = ring_of(2, seeded(0x5EED_0003));
    let mut rng = Rng64::new(seeded(3));
    // The inner relation, published from node 0 to wherever its keys live.
    for inner in rows_of("inner", &[(1, 10), (2, 20), (2, 21)]) {
        let key = inner.partition_key(&["k".to_string()]).expect("keyed");
        let name = pier::dht::ObjectName::new("inner", key, rng.next_u64());
        let put = ring[0].put(name, QpObject::Tuple(inner), 60_000_000, NOW);
        carry(&mut ring, 0, put);
    }
    let fetch = OperatorSpec::FetchMatches {
        inner_namespace: "inner".to_string(),
        probe_col: "k".to_string(),
        output_table: "oi".to_string(),
    };
    let join = plan("outer", vec![fetch], SinkSpec::ToProxy);
    let tel = Telemetry::attached();
    let mut exec = GraphExec::new(&PierConfig::default(), tel.clone());
    exec.install(join.clone());
    let probes = TupleBatch::new(rows_of("outer", &[(1, 1), (2, 2), (2, 3), (3, 4)]));

    // One get per distinct key, however many rows probe it; nothing
    // reaches the proxy before an answer.
    let out = exec.feed((QUERY, 0), &probes, NOW, None, &mut ring[0], &mut rng);
    assert!(out.results.is_empty() && !out.arm_batch_flush);
    assert_eq!(exec.pending(), 3);
    let counted = ["probes", "keys"].map(|c| tel.counter(&format!("query.fetch.{c}")));
    assert_eq!(counted, [4, 3]);
    let answers_in = answers(carry(&mut ring, 0, out.effects));
    assert_eq!(answers_in.len(), 3);
    // Each completion is one batch under the join's output table: every
    // probe row of the key with every inner row of it.
    let mut joined = Vec::new();
    for (request_id, objects) in &answers_in {
        let out = exec.fetched(*request_id, objects, NOW, &mut ring[0], &mut rng);
        assert!(out.effects.is_empty());
        for (proxy, query, rows) in &out.results {
            assert_eq!((*proxy, *query), (PROXY, QUERY));
            assert!(rows.iter().all(|t| t.table() == "oi"));
            let int = |t: &Tuple, col: &str| t.get(col).and_then(Value::as_i64);
            let pair = |t: Tuple| (int(&t, "k"), int(&t, "v"), int(&t, "inner.v"));
            let mut pairs: Vec<_> = rows.iter().map(pair).collect();
            pairs.sort_unstable();
            joined.push(pairs);
        }
        assert!(out.results.len() <= 1);
    }
    joined.sort_unstable();
    let k2 = [(2, 2, 20), (2, 2, 21), (2, 3, 20), (2, 3, 21)];
    let row = |&(k, v, inner): &(i64, i64, i64)| (Some(k), Some(v), Some(inner));
    assert_eq!(
        joined,
        [vec![row(&(1, 1, 10))], k2.iter().map(row).collect()],
        "k=1: one row by one; k=2: both probe rows by both inner rows; k=3: none"
    );
    assert_eq!(exec.pending(), 0);
    // An answer that comes twice finds nothing.
    let (request_id, objects) = &answers_in[0];
    let again = exec.fetched(*request_id, objects, NOW, &mut ring[0], &mut rng);
    assert!(again.results.is_empty() && again.effects.is_empty());

    // Torn down with fetches in flight: nothing is kept, and the late
    // answers — even to a re-installed query of the same id — yield nothing.
    let out = exec.feed((QUERY, 0), &probes, NOW, None, &mut ring[0], &mut rng);
    assert_eq!(exec.pending(), 3);
    assert_eq!(exec.uninstall(QUERY), Some(join.clone()));
    assert_eq!(exec.pending(), 0);
    exec.install(join);
    for (request_id, objects) in answers(carry(&mut ring, 0, out.effects)) {
        let late = exec.fetched(request_id, &objects, NOW, &mut ring[0], &mut rng);
        assert!(late.results.is_empty() && late.effects.is_empty());
    }
}

/// `rows` on the answer columns — the GROUP BY column, then every
/// aggregate's output — sorted.
fn answer_columns(rows: &[Tuple], aggs: &[AggFunc]) -> Vec<String> {
    let mut columns = vec!["k".to_string()];
    columns.extend(aggs.iter().map(AggFunc::output_column));
    let render = |t: &Tuple| -> Vec<String> {
        let cell = |c: &String| t.get(c).map_or("-".to_string(), Value::to_string);
        columns.iter().map(cell).collect()
    };
    let mut out: Vec<String> = rows.iter().map(|t| render(t).join(" ")).collect();
    out.sort();
    out
}

#[test]
fn one_shot_aggregation_by_hand_equals_one_group_by() {
    let aggs = vec![
        AggFunc::Count,
        AggFunc::Sum("v".to_string()),
        AggFunc::Avg("v".to_string()),
        AggFunc::Min("v".to_string()),
        AggFunc::Max("v".to_string()),
    ];
    let group_cols = vec!["k".to_string()];
    let mut draw = Rng64::new(seeded(0x5EED_0004));
    let mut site_rows = |n: usize| -> Vec<Tuple> {
        let row = |_| ((draw.next_u64() % 5) as u8, (draw.next_u64() % 1000) as u16);
        rows_of("readings", &(0..n).map(row).collect::<Vec<_>>())
    };
    let [leaf_rows, relay_rows, root_rows] = [site_rows(40), site_rows(25), site_rows(30)];
    let mut oracle = GroupBy::new(group_cols.clone(), aggs.clone(), format!("q{QUERY}.agg"));
    for rows in [&leaf_rows, &relay_rows, &root_rows] {
        oracle.push_batch(&TupleBatch::new(rows.clone()));
    }
    let expected = answer_columns(&oracle.flush(), &aggs);

    const HOLD: u64 = 2_000_000;
    for flat in [false, true] {
        let sink = SinkSpec::HierarchicalAgg {
            group_cols: group_cols.clone(),
            aggs: aggs.clone(),
            hold: HOLD,
            final_ops: Vec::new(),
            flat,
        };
        let plan = plan("readings", Vec::new(), sink);
        let (graph, spec, member) = EngineSpec::unshared(&plan).expect("an aggregating sink");
        assert_eq!(graph, 0);
        assert_eq!(spec.window, WindowSpec::tumbling(HOLD), "panes of the hold");
        assert!(spec.emit_once);
        assert_eq!(spec.flat, flat);
        let site = || {
            let mut engine = WindowEngine::new(spec.clone());
            engine.add_member(QUERY, member.clone(), false, NOW);
            (installed(plan.clone()), engine)
        };
        let [mut leaf, mut relay, mut root] = [site(), site(), site()];
        let mut overlay = ring_of(1, 1).remove(0);
        let mut rng = Rng64::new(seeded(4));
        // The pipeline's survivors go to the engine; nothing leaves.
        let mut feed = |(exec, engine): &mut (GraphExec, WindowEngine), rows: &[Tuple]| {
            let batch = TupleBatch::new(rows.to_vec());
            let out = exec.feed(
                (QUERY, 0),
                &batch,
                NOW,
                Some(engine),
                &mut overlay,
                &mut rng,
            );
            assert!(out.effects.is_empty() && out.results.is_empty());
        };
        feed(&mut leaf, &leaf_rows);
        feed(&mut relay, &relay_rows);
        feed(&mut root, &root_rows);

        // The leaf's pane closes at the tick after it ends and ships once.
        let tick = |engine: &mut WindowEngine, at: u64| {
            let out = engine.tick(at, false);
            assert!(out.emissions.is_empty());
            out.partials
        };
        let from_leaf = tick(&mut leaf.1, HOLD).expect("the leaf's pane");
        assert!(
            tick(&mut leaf.1, 2 * HOLD).is_none(),
            "a tick re-sends nothing"
        );
        let at_root = if flat {
            // Straight to the root, from both.
            vec![
                from_leaf,
                tick(&mut relay.1, HOLD).expect("the relay's pane"),
            ]
        } else {
            // Hop by hop: the relay folds the leaf's pane in at the upcall
            // and ships it merged with its own when the pane closes, one
            // partial per group.
            assert!(relay.1.absorb_panes(&from_leaf, false).is_empty());
            let merged = tick(&mut relay.1, HOLD).expect("the relay's pane");
            assert!(merged.rows() <= 5);
            assert!(tick(&mut relay.1, 2 * HOLD).is_none(), "shipped once");
            vec![merged]
        };
        let (_, engine) = &mut root;
        for chunk in &at_root {
            assert!(engine.absorb_panes(chunk, true).is_empty());
        }

        // The root's ticks only roll its own pane up; its answer is every
        // pane it holds, shaped as the windowed rows.
        for at in [HOLD, 2 * HOLD] {
            let out = engine.tick(at, true);
            assert!(out.partials.is_none() && out.emissions.is_empty());
        }
        let (proxy, rows) = engine.finish().expect("an answer");
        assert_eq!(proxy, PROXY);
        assert!(rows.iter().all(|t| t.table() == format!("q{QUERY}.win")));
        assert_eq!(answer_columns(&rows, &aggs), expected, "flat = {flat}");
    }
}

#[test]
fn a_one_shot_root_keeps_a_pane_per_hold_of_the_query_s_life() {
    // Five minutes of one row per 2 s pane: more panes than a windowed
    // query's default budget keeps open, all of them at the root.
    const HOLD: u64 = 2_000_000;
    const PANES: u64 = 140;
    let sink = SinkSpec::HierarchicalAgg {
        group_cols: vec!["k".to_string()],
        aggs: vec![AggFunc::Count],
        hold: HOLD,
        final_ops: Vec::new(),
        flat: false,
    };
    let mut plan = plan("readings", Vec::new(), sink);
    plan.timeout = 300_000_000;
    let (_, spec, member) = EngineSpec::unshared(&plan).expect("an aggregating sink");
    let mut root = WindowEngine::new(spec);
    root.add_member(QUERY, member, false, NOW);
    let row = TupleBatch::new(rows_of("readings", &[(1, 0)]));
    for pane in 0..PANES {
        root.absorb(&row.chunks()[0], None, pane * HOLD);
        let out = root.tick((pane + 1) * HOLD, true);
        assert!(out.partials.is_none() && out.emissions.is_empty());
    }
    let (_, rows) = root.finish().expect("an answer");
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0].get("count"), Some(&Value::Int(PANES as i64)));
}

#[test]
fn a_one_shot_aggregate_counts_past_a_windowed_query_s_group_cap() {
    // More groups on one leaf than a windowed query's default budget holds
    // in a pane (4,096): a one-shot answer is exact, so every row counts,
    // in the leaf's own store and in the root's.
    const HOLD: u64 = 2_000_000;
    const KEYS: i64 = 5_000;
    let sink = SinkSpec::HierarchicalAgg {
        group_cols: vec!["k".to_string()],
        aggs: vec![AggFunc::Count],
        hold: HOLD,
        final_ops: Vec::new(),
        flat: false,
    };
    let (_, spec, member) =
        EngineSpec::unshared(&plan("readings", Vec::new(), sink)).expect("an aggregating sink");
    let (mut leaf, mut root) = (WindowEngine::new(spec.clone()), WindowEngine::new(spec));
    root.add_member(QUERY, member, false, NOW);
    let rows = (0..2 * KEYS).map(|i| Tuple::new("readings", vec![("k", Value::Int(i % KEYS))]));
    let batch = TupleBatch::new(rows.collect());
    for chunk in batch.chunks() {
        leaf.absorb(chunk, None, NOW);
        root.absorb(chunk, None, NOW);
    }
    let shipped = leaf.tick(NOW + 2 * HOLD, false).partials.expect("a pane");
    assert!(
        root.absorb_panes(&shipped, true).is_empty(),
        "nothing refused"
    );
    let (_, rows) = root.finish().expect("an answer");
    assert_eq!(rows.len(), KEYS as usize);
    assert!(rows.iter().all(|r| r.get("count") == Some(&Value::Int(4))));
}
