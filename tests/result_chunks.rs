//! A result is a chunk.
//!
//! `PierMsg::Results` and `PierMsg::WindowResults` carry one `TupleBatch`
//! — the schema once per message, the window bounds in the directory only
//! — and the proxy turns its rows into the client's per-row `PierOut`s.
//! The row-coded per-window messages they replaced live on *here*, as the
//! reference:
//!
//! 1. round trip: whatever a root packs for one proxy in one tick
//!    ([`WindowBundle`], one to four windows) a [`Proxy`] delivers exactly
//!    as the row-coded messages, one per window, delivered it — order,
//!    `retract` flags, table and column names, values;
//! 2. size: a message with at least one row is never larger than its
//!    row-coded form, a batch's `wire_size` is its schema header plus the
//!    bytes `encode_body` writes, and a directory's is the bytes
//!    `encode_directory` writes;
//! 3. `Results`: a symmetric-hash join's output leaves the node as the
//!    chunks the join emitted; a Fetch-Matches plan whose outer rows repeat
//!    their keys — fetched once per key — still delivers the join's
//!    multiset, the symmetric-hash plan's; and what one handler invocation
//!    produces for a (proxy, query) is one message, a node that is its own
//!    proxy handed the rows with nothing counted as received;
//! 4. one message mixing a `DELTAS`, a snapshot and a `TOP k` member; a
//!    root tick that emits three windows answers each proxy with one
//!    message; a bundle whose directory does not describe it is dropped
//!    whole.

use pier::cq::{CqBudget, DeltaMode, WindowSpec};
use pier::dht::{routing_id, DhtMessage, Id, NodeRef, ObjectName, StoredObject};
use pier::harness::{Cluster, ClusterConfig};
use pier::qp::proxy::{decode_directory, directory_len, encode_directory};
use pier::qp::window_engine::QUERY_NAMES;
use pier::qp::{
    nested_loop_join, sqlish, AggFunc, Dissemination, EngineSpec, Expr, JoinSide, JoinSpec,
    MemberSpec, OpGraph, OperatorSpec, PierConfig, PierMsg, PierNode, PierOut, PierTimer,
    PlanBuilder, Proxy, QpObject, QueryPlan, Schema, SchemaRegistry, SinkSpec, SourceSpec,
    SymmetricHashJoin, TelemetryConfig, TraceContext, Tuple, TupleBatch, Value, WindowBundle,
    WindowEngine,
};
use pier::runtime::{Action, Context, NodeAddr, Program, Rng64, SimTime, WireSize};
use proptest::prelude::*;
use std::sync::Arc;

mod common;
use common::{emission, seeded};

const SEC: u64 = 1_000_000;

// ----- the generated message and its row-coded reference ----------------------

/// How a member's emissions are shaped: a `DELTAS` member retracts what it
/// supersedes, a snapshot member re-sends its rows, a `TOP k` member sends
/// at most `k`.
#[derive(Debug, Clone, Copy)]
enum Mode {
    Deltas,
    Snapshot,
    Top(u64),
}

/// One member's emission for a window, as rows of values on the engine's
/// columns.
#[derive(Debug, Clone)]
struct Emitted {
    query_id: u64,
    retracts: Vec<Vec<Value>>,
    inserts: Vec<Vec<Value>>,
    trace: Option<TraceContext>,
}

/// One window's emissions.
#[derive(Debug)]
struct Window {
    bounds: (SimTime, SimTime),
    members: Vec<Emitted>,
}

/// One (proxy, root tick) message's worth of emissions: windows ascending,
/// members ascending within each.
#[derive(Debug)]
struct Case {
    /// The engine's tag: `q{id}` (unshared) or `g{fp:016x}` (a share group).
    tag: String,
    columns: Vec<String>,
    windows: Vec<Window>,
}

/// What a column's values are drawn from.
#[derive(Debug, Clone, Copy)]
enum Kind {
    Int,
    Float,
    /// A handful of strings: stays a dictionary.
    FewStr,
    /// Mostly distinct strings: spills to the arena past 64 rows.
    ManyStr,
    Bool,
    /// Integers with holes.
    NullableInt,
    /// Anything, row by row: degrades to `Column::Values`.
    Mixed,
}

fn draw_value(kind: Kind, rng: &mut Rng64) -> Value {
    match kind {
        Kind::Int => Value::Int(rng.next_u64() as i64 >> rng.next_below(64)),
        Kind::Float => Value::Float((rng.f64() - 0.5) * 1e6),
        Kind::FewStr => Value::str(format!("10.0.0.{}", rng.next_below(5))),
        Kind::ManyStr => Value::str(format!("host-{}", rng.next_below(100_000))),
        Kind::Bool => Value::Bool(rng.chance(0.5)),
        Kind::NullableInt if rng.chance(0.3) => Value::Null,
        Kind::NullableInt => Value::Int(rng.next_below(1000) as i64),
        Kind::Mixed => {
            let kinds = [Kind::Int, Kind::Float, Kind::FewStr, Kind::Bool];
            match rng.next_below(5) {
                4 => Value::Null,
                k => draw_value(kinds[k as usize], rng),
            }
        }
    }
}

/// A message of one to four windows over up to five members — `DELTAS`,
/// snapshot and `TOP k` ones, one in five traced — each window naming at
/// least one of them with up to `max_rows` rows each way (at least
/// `min_inserts` inserted, a `TOP k` member at most `k`), over one or two
/// GROUP BY columns of any kind and one or two aggregate outputs.
fn draw_case(seed: u64, min_inserts: u64, max_rows: u64) -> Case {
    let mut rng = Rng64::new(seeded(seed));
    let group_kinds = [
        Kind::Int,
        Kind::Float,
        Kind::FewStr,
        Kind::ManyStr,
        Kind::Bool,
        Kind::NullableInt,
        Kind::Mixed,
    ];
    let mut kinds = Vec::new();
    let mut columns = Vec::new();
    for g in 0..1 + rng.next_below(2) {
        kinds.push(*rng.choose(&group_kinds));
        columns.push(format!("g{g}"));
    }
    kinds.push(Kind::Int);
    columns.push("count".to_string());
    if rng.chance(0.5) {
        // SUM over nothing is NULL.
        kinds.push(*rng.choose(&[Kind::Float, Kind::NullableInt]));
        columns.push("sum".to_string());
    }
    // Query ids as a node assigns them (`addr << 32 | seq`), and — a test
    // harness's, a first node's — small ones.
    let mut next_id = if rng.chance(0.5) {
        1 + rng.next_below(20)
    } else {
        (1 + rng.next_below(30)) << 32
    };
    let tag = if rng.chance(0.5) {
        format!("q{next_id}")
    } else {
        format!("g{:016x}", rng.next_u64())
    };
    let mut members = Vec::new();
    for _ in 0..1 + rng.next_below(5) {
        let mode = match rng.next_below(3) {
            0 => Mode::Deltas,
            1 => Mode::Snapshot,
            _ => Mode::Top(1 + rng.next_below(3)),
        };
        members.push((next_id, mode, rng.chance(0.2)));
        next_id += 1 + rng.next_below(3);
    }
    let rows = |n: u64, rng: &mut Rng64| -> Vec<Vec<Value>> {
        let row = |rng: &mut Rng64| kinds.iter().map(|k| draw_value(*k, rng)).collect();
        (0..n).map(|_| row(rng)).collect()
    };
    let mut start = rng.next_below(1000) * SEC;
    let mut windows = Vec::new();
    for _ in 0..1 + rng.next_below(4) {
        let mut emitted = Vec::new();
        let first = rng.index(members.len());
        for (i, &(query_id, mode, traced)) in members.iter().enumerate() {
            if i != first && rng.chance(0.3) {
                continue;
            }
            let (retracts, inserts) = match mode {
                Mode::Deltas if rng.chance(0.5) => (
                    rng.next_below(max_rows),
                    rng.range(min_inserts, max_rows + 1),
                ),
                Mode::Deltas | Mode::Snapshot => (0, rng.range(min_inserts, max_rows + 1)),
                Mode::Top(k) => (0, rng.range(min_inserts, k + 1)),
            };
            let trace = traced.then(|| TraceContext {
                trace_id: query_id ^ 0x5eed,
                span_id: rng.next_u64(),
                query_id,
            });
            emitted.push(Emitted {
                query_id,
                retracts: rows(retracts, &mut rng),
                inserts: rows(inserts, &mut rng),
                trace,
            });
        }
        windows.push(Window {
            bounds: (start, start + 2 * SEC),
            members: emitted,
        });
        start += (1 + rng.next_below(3)) * SEC;
    }
    Case {
        tag,
        columns,
        windows,
    }
}

impl Case {
    fn rows(&self) -> usize {
        let rows = |m: &Emitted| m.retracts.len() + m.inserts.len();
        let members = self.windows.iter().flat_map(|w| &w.members);
        members.map(rows).sum()
    }

    /// The message as a window root packs it.
    fn packed(&self) -> WindowBundle {
        let names: Vec<&str> = self.columns.iter().map(String::as_str).collect();
        let schema = SchemaRegistry::global().intern(&format!("{}.win", self.tag), &names);
        let tuples = |rows: &[Vec<Value>]| -> Vec<Tuple> {
            let tuple = |row: &Vec<Value>| Tuple::from_schema(Arc::clone(&schema), row.clone());
            rows.iter().map(tuple).collect()
        };
        let mut bundle = WindowBundle::default();
        for w in &self.windows {
            for m in &w.members {
                let e = emission(
                    m.query_id,
                    w.bounds,
                    tuples(&m.retracts),
                    tuples(&m.inserts),
                );
                bundle.push(e, m.trace);
            }
        }
        bundle
    }

    /// The row a client reads for one of `query_id`'s engine rows in
    /// `window` — the tuple the row-coded message carried as is.
    fn client_row(&self, query_id: u64, window: (SimTime, SimTime), row: &[Value]) -> Tuple {
        let mut names = vec!["window_start", "window_end"];
        names.extend(self.columns.iter().map(String::as_str));
        let schema = SchemaRegistry::global().intern(&format!("q{query_id}.win"), &names);
        let mut values = vec![Value::Int(window.0 as i64), Value::Int(window.1 as i64)];
        values.extend(row.iter().cloned());
        Tuple::from_schema(schema, values)
    }

    /// `wire_size` of the row-coded messages this one replaces, one per
    /// window: `PierMsg::WindowResults { window_start, window_end, members:
    /// Vec<MemberResults { query_id, retracts, inserts: Vec<Tuple>, trace
    /// }> }`.
    fn row_coded_wire_size(&self) -> usize {
        let window = |w: &Window| -> usize {
            let member = |m: &Emitted| -> usize {
                let rows = m.retracts.iter().chain(&m.inserts);
                let rows = rows.map(|r| self.client_row(m.query_id, w.bounds, r).wire_size());
                8 + rows.sum::<usize>() + m.trace.map_or(0, |t| t.wire_size())
            };
            1 + 16 + w.members.iter().map(member).sum::<usize>()
        };
        self.windows.iter().map(window).sum()
    }

    /// What the row-coded messages delivered, window by window, at a proxy
    /// where `live` says which members are still proxied: member by
    /// member, retractions before inserts.
    fn row_coded_delivery(&self, live: impl Fn(u64) -> bool) -> Vec<Delivered> {
        let mut out = Vec::new();
        for w in &self.windows {
            for m in w.members.iter().filter(|m| live(m.query_id)) {
                let rows = m.retracts.iter().map(|r| (true, r));
                for (retract, row) in rows.chain(m.inserts.iter().map(|r| (false, r))) {
                    let tuple = self.client_row(m.query_id, w.bounds, row);
                    out.push(delivered(m.query_id, w.bounds, retract, &tuple));
                }
            }
        }
        out
    }
}

/// A `PierOut::WindowResult`, spelled out for comparison.
type Delivered = (
    u64,
    (SimTime, SimTime),
    bool,
    String,
    Vec<String>,
    Vec<Value>,
);

fn delivered(query_id: u64, window: (SimTime, SimTime), retract: bool, t: &Tuple) -> Delivered {
    let table = t.table().to_string();
    (
        query_id,
        window,
        retract,
        table,
        t.columns().to_vec(),
        t.values().to_vec(),
    )
}

fn spelled_out(outs: Vec<PierOut>) -> Vec<Delivered> {
    outs.iter()
        .map(|out| match out {
            PierOut::WindowResult {
                query_id,
                window_start,
                window_end,
                retract,
                tuple,
            } => delivered(*query_id, (*window_start, *window_end), *retract, tuple),
            other => panic!("a window message delivers window results, got {other:?}"),
        })
        .collect()
}

/// A proxy with every one of `ids` submitted as a standing query.
fn proxy_of(ids: impl Iterator<Item = u64>) -> Proxy {
    let sql = "SELECT src, COUNT(*) FROM packets GROUP BY src WINDOW 2s SLIDE 1s";
    let mut plan = sqlish::compile(sql, NodeAddr(0), 600 * SEC).expect("compiles");
    let mut proxy = Proxy::default();
    for id in ids {
        plan.query_id = id;
        proxy.submit(&plan, 0);
    }
    proxy
}

fn chunk_bytes(rows: &TupleBatch) -> usize {
    let mut buf = Vec::new();
    for chunk in rows.chunks() {
        chunk.encode_body(&mut buf);
    }
    buf.len()
}

proptest! {
    /// (i) Packed at a root, received at a proxy: the row-coded per-window
    /// deliveries, exactly and in order — with one member in three already
    /// finished at the proxy.
    #[test]
    fn a_packed_window_message_delivers_what_the_row_coded_one_did(seed: u64, finish: u64) {
        // A root never sends an empty run; a proxy takes one all the same.
        let case = draw_case(seed, 0, 70);
        let live = |id: u64| !(id ^ finish).is_multiple_of(3);
        let ids = case.windows.iter().flat_map(|w| w.members.iter().map(|m| m.query_id));
        let mut proxy = proxy_of(ids.filter(|id| live(*id)));
        let bundle = case.packed();
        prop_assert_eq!(bundle.rows.len(), case.rows());
        prop_assert!(bundle.rows.chunks().len() <= 1, "one schema, one chunk");
        prop_assert_eq!(bundle.directory.windows.len(), case.windows.len(), "each window once");
        let outs = proxy.receive_window(&bundle);
        let outs = spelled_out(outs.expect("what a root packs is well-formed"));
        prop_assert_eq!(outs, case.row_coded_delivery(live));
        // A second tick reuses the members' cached client schemas.
        let again = proxy.receive_window(&bundle);
        prop_assert_eq!(again.expect("well-formed").len(), case.row_coded_delivery(live).len());
    }

    /// (ii) Never larger than the row-coded form, down to one row per
    /// member (a root names a member only when it has rows for it) — the
    /// property a chunk per *member* broke at one row (≈ 30 B of framing
    /// per chunk against a tuple's 12) — a batch is charged its schema
    /// header once plus exactly the bytes its chunks encode to, and a
    /// directory the bytes it encodes to.
    #[test]
    fn a_packed_window_message_is_no_larger_than_the_row_coded_one(seed: u64, small: bool) {
        let case = draw_case(seed, 1, if small { 1 } else { 40 });
        let bundle = case.packed();
        let header = bundle.rows.chunks().first().map_or(0, |c| c.schema().wire_size());
        prop_assert_eq!(bundle.rows.wire_size(), 4 + header + chunk_bytes(&bundle.rows));
        let mut directory = Vec::new();
        encode_directory(&bundle.directory, &mut directory);
        prop_assert_eq!(directory_len(&bundle.directory), directory.len());
        prop_assert_eq!(
            decode_directory(&directory),
            Some((bundle.directory.clone(), directory.len()))
        );
        let packed = PierMsg::WindowResults(bundle);
        let PierMsg::WindowResults(bundle) = &packed else {
            unreachable!()
        };
        prop_assert_eq!(packed.wire_size(), 1 + directory.len() + bundle.rows.wire_size());
        prop_assert!(
            packed.wire_size() <= case.row_coded_wire_size(),
            "{} B packed, {} B row-coded: {case:?}",
            packed.wire_size(),
            case.row_coded_wire_size()
        );
    }
}

// ----- (iii) `Results` ---------------------------------------------------------

fn r_row(a: i64, b: i64) -> Tuple {
    Tuple::new("r", vec![("a", Value::Int(a)), ("b", Value::Int(b))])
}

fn s_row(b: i64, c: i64) -> Tuple {
    Tuple::new("s", vec![("b", Value::Int(b)), ("c", Value::Int(c))])
}

fn multiset(rows: impl Iterator<Item = Tuple>) -> Vec<String> {
    let mut out: Vec<String> = rows.map(|t| t.to_string()).collect();
    out.sort();
    out
}

#[test]
fn a_joins_output_leaves_the_node_as_the_chunks_the_join_emitted() {
    let key = vec!["b".to_string()];
    // Both sides already sit in the rendezvous namespace of a node that is
    // not the proxy: runs of `r`, `s`, `r` rows, so the join emits twice.
    let mut arrivals: Vec<Tuple> = (0..40).map(|i| r_row(i, i % 8)).collect();
    arrivals.extend((0..30).map(|i| s_row(i % 8, i * 10)));
    arrivals.extend((40..50).map(|i| r_row(i, i % 8)));
    let me = NodeRef {
        id: Id(seeded(0x1234)),
        addr: NodeAddr(1),
    };
    let proxy = NodeAddr(0);
    let mut node = PierNode::with_static_ring(me, &[me], PierConfig::default());
    for t in &arrivals {
        node.add_local_row("q.join", t.clone());
    }
    let mut plan = PlanBuilder::new(proxy)
        .timeout(20 * SEC)
        .opgraph(OpGraph {
            id: 0,
            source: SourceSpec::Table {
                namespace: "q.join".into(),
            },
            join: Some(JoinSpec {
                left_table: "r".into(),
                right_table: "s".into(),
                left_key: key.clone(),
                right_key: key.clone(),
                output_table: "r_s".into(),
            }),
            ops: vec![],
            sink: SinkSpec::ToProxy,
        })
        .build();
    plan.query_id = 77;
    let mut ctx = Context::new(0, me.addr);
    node.on_message(&mut ctx, proxy, PierMsg::Plans { plans: vec![plan] });
    let sent: Vec<TupleBatch> = ctx
        .into_actions()
        .into_iter()
        .filter_map(|action| match action {
            Action::Send {
                to,
                msg: PierMsg::Results { query_id, rows },
            } => {
                assert_eq!((to, query_id), (proxy, 77));
                Some(rows)
            }
            _ => None,
        })
        .collect();
    let [rows] = &sent[..] else {
        panic!(
            "one arriving batch, one Results message; got {}",
            sent.len()
        );
    };

    // The same arrivals through a join of the test's own.
    let mut join = SymmetricHashJoin::new(key.clone(), key.clone(), "r_s");
    let mut emitted = TupleBatch::default();
    for chunk in TupleBatch::new(arrivals.clone()).chunks() {
        let side = match chunk.schema().table() {
            "r" => JoinSide::Left,
            _ => JoinSide::Right,
        };
        emitted.append(join.push_chunk_batch(side, chunk));
    }
    assert!(emitted.chunks().len() >= 2, "the join must emit in pieces");
    assert_eq!(rows, &emitted, "chunk for chunk what the join emitted");
    let joined: Arc<Schema> = Arc::clone(emitted.chunks()[0].schema());
    for chunk in rows.chunks() {
        assert!(Arc::ptr_eq(chunk.schema(), &joined), "the join's schema");
    }
    let (r, s): (Vec<Tuple>, Vec<Tuple>) = arrivals.into_iter().partition(|t| t.table() == "r");
    let reference = nested_loop_join(&r, &s, &key, &key, "r_s");
    assert_eq!(multiset(rows.iter()), multiset(reference.into_iter()));
    // One header for the whole message instead of one per row.
    let row_coded: usize = 1 + 8 + rows.iter().map(|t| t.wire_size()).sum::<usize>();
    let message = PierMsg::Results {
        query_id: 77,
        rows: rows.clone(),
    };
    assert!(message.wire_size() * 2 < row_coded);
}

/// `r ⋈ s` on `b`, probing `s` (its primary index) once per `r` row's key.
fn fetch_matches_plan(proxy: NodeAddr, source: &str) -> QueryPlan {
    PlanBuilder::new(proxy)
        .timeout(15 * SEC)
        .opgraph(OpGraph {
            id: 0,
            source: SourceSpec::Table {
                namespace: source.into(),
            },
            join: None,
            ops: vec![OperatorSpec::FetchMatches {
                inner_namespace: "s".into(),
                probe_col: "b".into(),
                output_table: "r_s".into(),
            }],
            sink: SinkSpec::ToProxy,
        })
        .build()
}

/// The same join, both sides rehashed on `b` into a rendezvous namespace.
fn symmetric_hash_plan(proxy: NodeAddr) -> QueryPlan {
    let key = vec!["b".to_string()];
    let rehash = |id: u32, table: &str| OpGraph {
        id,
        source: SourceSpec::Table {
            namespace: table.into(),
        },
        join: None,
        ops: vec![],
        sink: SinkSpec::Rehash {
            namespace: "q.rs".into(),
            key_cols: key.clone(),
        },
    };
    PlanBuilder::new(proxy)
        .timeout(15 * SEC)
        .opgraph(rehash(0, "r"))
        .opgraph(rehash(1, "s"))
        .opgraph(OpGraph {
            id: 2,
            source: SourceSpec::Table {
                namespace: "q.rs".into(),
            },
            join: Some(JoinSpec {
                left_table: "r".into(),
                right_table: "s".into(),
                left_key: key.clone(),
                right_key: key.clone(),
                output_table: "r_s".into(),
            }),
            ops: vec![],
            sink: SinkSpec::ToProxy,
        })
        .build()
}

#[test]
fn a_fetch_matches_completion_still_delivers_the_joins_multiset() {
    let mut cluster = Cluster::start(&ClusterConfig::lan(8, seeded(0x31)));
    let key = vec!["b".to_string()];
    // Five `r` rows a key, all at the key's owner: its install scan probes
    // every key five times over and fetches it once.
    let r: Vec<Tuple> = (0..40).map(|i| r_row(i, i % 8)).collect();
    let s: Vec<Tuple> = (0..18).map(|i| s_row(i % 6, i * 10)).collect();
    for (i, t) in r.iter().chain(&s).enumerate() {
        let from = cluster.addr(i % cluster.len());
        cluster.publish(from, t.table(), &key, t.clone());
    }
    cluster.settle(3 * SEC);
    let proxy = cluster.addr(1);
    let outcome = cluster.run_query(proxy, fetch_matches_plan(proxy, "r"));
    let reference = nested_loop_join(&r, &s, &key, &key, "r_s");
    assert_eq!(reference.len(), 30 * 3, "every probe row keeps its fan-out");
    let fetched = multiset(outcome.tuples().into_iter());
    assert_eq!(fetched, multiset(reference.into_iter()));
    let hashed = cluster.run_query(proxy, symmetric_hash_plan(proxy));
    assert_eq!(fetched, multiset(hashed.tuples().into_iter()));
}

/// The `Results` a handler invocation sent, as `(to, query, rows)`, and the
/// rows it handed its own client, as `(query, row)`.
type Posted = (Vec<(NodeAddr, u64, TupleBatch)>, Vec<(u64, Tuple)>);

fn posted(ctx: Context<PierMsg, pier::qp::PierTimer, PierOut>) -> Posted {
    let (mut sent, mut handed) = (Vec::new(), Vec::new());
    for action in ctx.into_actions() {
        match action {
            Action::Send {
                to,
                msg: PierMsg::Results { query_id, rows },
            } => sent.push((to, query_id, rows)),
            Action::Output(PierOut::Result { query_id, tuple }) => handed.push((query_id, tuple)),
            _ => {}
        }
    }
    (sent, handed)
}

#[test]
fn one_invocation_answers_each_proxy_once() {
    // A node of a two-node ring whose probes all go to the other node: three
    // Fetch-Matches queries over its local rows — two proxied by the other
    // node, one by itself.
    let node_at = |id: u64, addr: u32| NodeRef {
        id: Id(id),
        addr: NodeAddr(addr),
    };
    let refs = [node_at(0, 0), node_at(u64::MAX / 2, 1)];
    let (me, other) = (refs[0], refs[1]);
    let config = PierConfig {
        telemetry: TelemetryConfig::enabled(),
        ..PierConfig::default()
    };
    let mut node = PierNode::with_static_ring(me, &refs, config);
    let theirs = |b: &i64| {
        let id = routing_id("s", &Value::Int(*b).key_string());
        !node.overlay().router().is_responsible(id)
    };
    let keys: Vec<i64> = (0..200).filter(theirs).take(4).collect();
    assert_eq!(keys.len(), 4, "the other node owns some keys");
    // Two `r` rows a key.
    let r: Vec<Tuple> = (0..8).map(|i| r_row(i, keys[i as usize % 4])).collect();
    for table in ["r1", "r2", "r3"] {
        for row in &r {
            node.add_local_row(table, row.clone());
        }
    }
    let plan = |id: u64, source: &str| {
        let mut plan = fetch_matches_plan(other.addr, source);
        plan.query_id = id;
        plan
    };
    // The installs' scans ask the other node: one request per query, four
    // keys each, nothing to report yet.
    let mut ctx = Context::new(0, me.addr);
    let plans = vec![plan(101, "r1"), plan(102, "r2")];
    node.on_message(&mut ctx, other.addr, PierMsg::Plans { plans });
    let mut own = plan(0, "r3");
    own.dissemination = Dissemination::Local;
    let own = node.submit_query(&mut ctx, own);
    let mut asked: Vec<Vec<(String, u64)>> = Vec::new();
    for action in ctx.into_actions() {
        match action {
            Action::Send {
                to,
                msg: PierMsg::Dht(DhtMessage::GetRequest { keys, reply_to, .. }),
            } => {
                assert_eq!((to, reply_to), (other.addr, me.addr));
                asked.push(keys);
            }
            Action::Send {
                msg: PierMsg::Results { .. },
                ..
            }
            | Action::Output(PierOut::Result { .. }) => panic!("no answer yet"),
            _ => {}
        }
    }
    assert_eq!(asked.iter().map(Vec::len).collect::<Vec<_>>(), [4, 4, 4]);
    let counter = |node: &PierNode, name: &str| node.telemetry().counter(name);
    assert_eq!(counter(&node, "query.fetch.probes"), 24);
    assert_eq!(counter(&node, "query.fetch.keys"), 12);

    // What the other node would answer: two `s` rows a key.
    let response = |asked: &[(String, u64)]| {
        let answers = asked.iter().map(|(key, token)| {
            let b: i64 = key["i:".len()..].parse().expect("an integer key");
            let object = |c: i64| StoredObject {
                name: ObjectName::new("s", key.clone(), c as u64),
                value: QpObject::Tuple(s_row(b, c)),
                expires_at: 60 * SEC,
            };
            (*token, key.clone(), vec![object(1), object(2)])
        });
        PierMsg::Dht(DhtMessage::GetResponse {
            namespace: "s".to_string(),
            answers: answers.collect(),
        })
    };
    let s: Vec<Tuple> = keys
        .iter()
        .flat_map(|b| [s_row(*b, 1), s_row(*b, 2)])
        .collect();
    let key = vec!["b".to_string()];
    let joined = multiset(nested_loop_join(&r, &s, &key, &key, "r_s").into_iter());
    assert_eq!(joined.len(), 16);

    // One response completing a query's four fetches: ONE message to its
    // proxy, the union of the four joins.
    let mut ctx = Context::new(SEC, me.addr);
    node.on_message(&mut ctx, other.addr, response(&asked[0]));
    let (sent, handed) = posted(ctx);
    assert!(handed.is_empty());
    let [(to, query, rows)] = &sent[..] else {
        panic!("four fetches, one Results message; got {}", sent.len());
    };
    assert_eq!((*to, *query), (other.addr, 101));
    assert_eq!(multiset(rows.iter()), joined);
    assert_eq!(rows.chunks().len(), 4, "the chunks the fetches produced");
    assert_eq!(counter(&node, "query.results.staged"), 4);
    assert_eq!(counter(&node, "query.results.sent"), 1);

    // An invocation completing two queries' fetches: each proxy is answered
    // once, in first-result order — the other node by a message, this node
    // by its rows, which are not traffic.
    let mixed: Vec<(String, u64)> = asked[2].iter().chain(&asked[1]).cloned().collect();
    let received = counter(&node, "net.msgs_recv");
    let mut ctx = Context::new(2 * SEC, me.addr);
    node.on_message(&mut ctx, other.addr, response(&mixed));
    let (sent, handed) = posted(ctx);
    let [(to, query, rows)] = &sent[..] else {
        panic!("one remote proxy, one Results message; got {}", sent.len());
    };
    assert_eq!((*to, *query), (other.addr, 102));
    assert_eq!(multiset(rows.iter()), joined);
    assert!(handed.iter().all(|(query, _)| *query == own));
    assert_eq!(multiset(handed.into_iter().map(|(_, row)| row)), joined);
    assert_eq!(
        counter(&node, "net.msgs_recv"),
        received + 1,
        "the response, and nothing handed over locally"
    );
    assert_eq!(counter(&node, "query.results.staged"), 12);
    assert_eq!(counter(&node, "query.results.sent"), 3);
}

// ----- (iv) one message: three kinds of member, three windows ------------------

fn packets(rows: &[(u8, i64, u64)]) -> TupleBatch {
    let row = |&(h, len, ts): &(u8, i64, u64)| {
        Tuple::new(
            "packets",
            vec![
                ("src", Value::str(format!("10.0.0.{h}"))),
                ("len", Value::Int(len)),
                ("ts", Value::Int(ts as i64)),
            ],
        )
    };
    TupleBatch::new(rows.iter().map(row).collect())
}

#[test]
fn one_message_mixes_a_deltas_a_snapshot_and_a_top_k_member() {
    // `SELECT src, COUNT(*), SUM(len) … GROUP BY src WINDOW 2s SLIDE 2s` as
    // a share group of three members at one proxy.
    let tag = "g00000000000000d1";
    let mut root = WindowEngine::new(EngineSpec {
        tag: tag.to_string(),
        namespace: format!("{tag}.windows"),
        root_key: format!("{tag}.root"),
        window: WindowSpec::sliding(2 * SEC, 2 * SEC),
        budget: CqBudget::default(),
        group_cols: vec!["src".to_string()],
        aggs: vec![AggFunc::Count, AggFunc::Sum("len".to_string())],
        time_col: Some("ts".to_string()),
        min_lifetime: 0,
        names: QUERY_NAMES,
        emit_once: false,
        flat: false,
    });
    let member = |derive: Option<Expr>, delta, final_ops| MemberSpec {
        derive,
        proxy: NodeAddr(3),
        lease: 30 * SEC,
        delta,
        final_ops,
    };
    let (deltas, snapshot, top) = (11, 12, 13);
    let watch_two = Some(Expr::eq("src", "10.0.0.2"));
    root.add_member(
        deltas,
        member(watch_two, DeltaMode::Deltas, vec![]),
        false,
        0,
    );
    root.add_member(
        snapshot,
        member(None, DeltaMode::Snapshot, vec![]),
        false,
        0,
    );
    let top_one = vec![OperatorSpec::TopK {
        k: 1,
        order_col: "count".to_string(),
    }];
    root.add_member(top, member(None, DeltaMode::Snapshot, top_one), true, 0);

    // Window [0, 2s): source 1 once, source 2 twice; then a straggler for
    // source 2 relayed from another node, so the second tick refines every
    // member's answer.
    let first = packets(&[(1, 100, 10), (2, 100, 20), (2, 100, 30)]);
    root.absorb(&first.chunks()[0], None, 0);
    assert_eq!(root.tick(10 * SEC, true).emissions.len(), 3);
    let mut relay = WindowEngine::new(root.spec().clone());
    relay.absorb(&packets(&[(2, 50, 40)]).chunks()[0], None, 0);
    let late = relay.tick(10 * SEC, false).partials.expect("relay ships");
    assert!(root.absorb_panes(&late, true).is_empty());
    let emissions = root.tick(11 * SEC, true).emissions;
    assert_eq!(emissions.len(), 3, "every member's answer changed");

    let mut bundle = WindowBundle::default();
    for e in emissions {
        assert_eq!(
            (e.window_start, e.window_end, e.proxy),
            (0, 2 * SEC, NodeAddr(3))
        );
        for row in e.retracts.iter().chain(&e.inserts) {
            assert_eq!(row.table(), format!("{tag}.win"));
            assert_eq!(
                row.columns(),
                ["src", "count", "sum_len"],
                "no window bounds"
            );
        }
        let trace = e.trace.then_some(TraceContext {
            trace_id: 1,
            span_id: 2,
            query_id: e.query_id,
        });
        bundle.push(e, trace);
    }
    assert_eq!(bundle.rows.chunks().len(), 1, "one chunk per message");
    assert_eq!(bundle.directory.windows.len(), 1, "one window");
    let runs: Vec<(u64, u32, u32, bool)> = bundle
        .directory
        .runs
        .iter()
        .map(|m| (m.query_id, m.retracts, m.inserts, m.trace.is_some()))
        .collect();
    assert_eq!(
        runs,
        [
            (deltas, 1, 1, false),
            (snapshot, 0, 2, false),
            (top, 0, 1, true)
        ]
    );

    let mut proxy = proxy_of([deltas, snapshot, top].into_iter());
    let outs = proxy.receive_window(&bundle);
    let outs = spelled_out(outs.expect("well-formed"));
    let rendered: Vec<(u64, bool, String)> = outs
        .iter()
        .map(|(id, _, retract, table, columns, values)| {
            assert_eq!(table, &format!("q{id}.win"));
            assert_eq!(columns[..2], ["window_start", "window_end"]);
            assert_eq!(values[..2], [Value::Int(0), Value::Int(2 * SEC as i64)]);
            let cells = columns[2..].iter().zip(&values[2..]);
            let cells: Vec<String> = cells.map(|(c, v)| format!("{c}={v}")).collect();
            (*id, *retract, cells.join(" "))
        })
        .collect();
    let row = |id, retract, cells: &str| (id, retract, cells.to_string());
    assert_eq!(
        rendered,
        [
            row(deltas, true, "src=10.0.0.2 count=2 sum_len=200"),
            row(deltas, false, "src=10.0.0.2 count=3 sum_len=250"),
            row(snapshot, false, "src=10.0.0.1 count=1 sum_len=100"),
            row(snapshot, false, "src=10.0.0.2 count=3 sum_len=250"),
            row(top, false, "src=10.0.0.2 count=3 sum_len=250"),
        ]
    );
}

/// The `WindowResults` a handler invocation sent, as `(to, bundle)`, and
/// the window rows it handed its own client, as `(query, window_start)`.
type Answered = (Vec<(NodeAddr, WindowBundle)>, Vec<(u64, SimTime)>);

fn answered(ctx: Context<PierMsg, PierTimer, PierOut>) -> Answered {
    let (mut sent, mut handed) = (Vec::new(), Vec::new());
    for action in ctx.into_actions() {
        match action {
            Action::Send {
                to,
                msg: PierMsg::WindowResults(bundle),
            } => sent.push((to, bundle)),
            Action::Output(PierOut::WindowResult {
                query_id,
                window_start,
                ..
            }) => handed.push((query_id, window_start)),
            _ => {}
        }
    }
    (sent, handed)
}

#[test]
fn one_tick_answers_each_proxy_once() {
    // A share group of four tenants on a one-node ring, so this node is the
    // group's root: two tenants proxied by node 1, one by node 2, one by
    // this node.  `EVERY 3s` over 1 s windows: one tick emits three.
    let me = NodeRef {
        id: Id(seeded(0x77)),
        addr: NodeAddr(0),
    };
    let config = PierConfig {
        sharing: Some(pier::mqo::layer),
        ..PierConfig::default()
    };
    let mut node = PierNode::with_static_ring(me, &[me], config);
    let tenants = [
        (NodeAddr(1), 1),
        (NodeAddr(1), 2),
        (NodeAddr(2), 3),
        (me.addr, 4),
    ];
    let (mut armed, mut own) = (Vec::new(), 0);
    for (i, &(proxy, tenant)) in tenants.iter().enumerate() {
        let sql = format!(
            "SELECT src, COUNT(*) FROM packets WHERE src = '10.0.0.{tenant}' \
             GROUP BY src WINDOW 1s SLIDE 1s EVERY 3s"
        );
        let mut plan = sqlish::compile(&sql, proxy, 60 * SEC).expect("compiles");
        let mut ctx = Context::new(0, me.addr);
        if proxy == me.addr {
            own = node.submit_query(&mut ctx, plan);
        } else {
            plan.query_id = (u64::from(proxy.0) << 32) | (10 + i as u64);
            node.on_message(&mut ctx, proxy, PierMsg::Plans { plans: vec![plan] });
        }
        armed.extend(ctx.into_actions().into_iter().filter_map(|a| match a {
            Action::SetTimer {
                timer: timer @ PierTimer::ShareTick { .. },
                ..
            } => Some(timer),
            _ => None,
        }));
    }
    let [tick] = &armed[..] else {
        panic!("one share group, one tick chain; got {armed:?}");
    };
    // Rows for every tenant in each of windows [0, 1 s), [1 s, 2 s) and
    // [2 s, 3 s).
    for w in 0..3 {
        let at = w * SEC + SEC / 2;
        let mut ctx = Context::new(at, me.addr);
        for tenant in 1..=4 {
            let row = Tuple::new(
                "packets",
                vec![
                    ("src", Value::str(format!("10.0.0.{tenant}"))),
                    ("ts", Value::Int(at as i64)),
                ],
            );
            node.ingest(&mut ctx, "packets", row);
        }
        node.on_timer(&mut ctx, PierTimer::IngestFlush);
    }
    let mut ctx = Context::new(10 * SEC, me.addr);
    node.on_timer(&mut ctx, tick.clone());
    let (sent, handed) = answered(ctx);
    let to: Vec<NodeAddr> = sent.iter().map(|(to, _)| *to).collect();
    assert_eq!(
        to,
        [NodeAddr(1), NodeAddr(2)],
        "one message per remote proxy"
    );
    let starts = [0, SEC, 2 * SEC];
    for (proxy, bundle) in &sent {
        let windows: Vec<SimTime> = bundle
            .directory
            .windows
            .iter()
            .map(|w| w.window_start)
            .collect();
        assert_eq!(windows, starts, "{proxy:?}: every window of the tick, once");
        let ours = tenants.iter().filter(|(p, _)| p == proxy).count();
        assert_eq!(
            bundle.directory.runs.len(),
            3 * ours,
            "each tenant each window"
        );
        assert_eq!(bundle.rows.chunks().len(), 1, "one chunk");
    }
    // This node's own tenant is handed its three windows, not sent them.
    assert_eq!(handed, starts.map(|start| (own, start)));
}

#[test]
fn a_malformed_bundle_is_dropped_whole() {
    // Three windows of two one-row members each, under the engine schema.
    let schema = |table: &str| SchemaRegistry::global().intern(table, &["v"]);
    let row = |table: &str| Tuple::from_schema(schema(table), vec![Value::Int(1)]);
    let three = |second: &str| {
        let mut bundle = WindowBundle::default();
        for w in 0..3 {
            for (query_id, table) in [(1, "g0000000000000bad.win"), (2, second)] {
                let e = emission(query_id, (w * SEC, (w + 2) * SEC), vec![], vec![row(table)]);
                bundle.push(e, None);
            }
        }
        bundle
    };
    let mut proxy = proxy_of([1, 2].into_iter());
    let base = three("g0000000000000bad.win");
    assert_eq!(proxy.receive_window(&base).map(|o| o.len()), Some(6));
    type Damage = fn(&mut WindowBundle);
    let damaged: [(&str, Damage); 6] = [
        ("runs naming more rows than the batch has", |b| {
            b.directory.runs[5].inserts = 2;
        }),
        ("a window with no runs", |b| {
            b.directory.windows[1].runs = 0;
            b.directory.windows[2].runs = 4;
        }),
        ("windows out of order", |b| b.directory.windows.swap(0, 1)),
        ("a window repeated", |b| {
            b.directory.windows[1] = b.directory.windows[0];
        }),
        ("window counts not summing to the runs", |b| {
            b.directory.windows[2].runs = 3;
        }),
        ("a run dropped from the directory", |b| {
            b.directory.runs.pop();
            b.directory.runs[4].inserts = 2;
        }),
    ];
    for (what, damage) in damaged {
        let mut bundle = base.clone();
        damage(&mut bundle);
        assert!(proxy.receive_window(&bundle).is_none(), "{what}");
    }
    // A run crossing from the engine's schema into another one's.
    let mut crossing = three("q9.win");
    crossing.directory.runs[0].inserts = 2;
    crossing.directory.runs[1].inserts = 0;
    assert!(
        proxy.receive_window(&crossing).is_none(),
        "a run crossing schemas"
    );
}
