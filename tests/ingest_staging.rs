//! `PierNode::ingest` stages rows and drains them through the chunk path.
//! Staging must be invisible: however the rows are cut into drains, the
//! per-window results, their emission instants and the traffic are the
//! same, and a staged row is always windowed at the instant it was
//! ingested.
//!
//! The equivalence tests feed one generated stream twice.  *Row at a time*
//! hands every row over in its own `invoke` and lets the zero-delay
//! `IngestFlush` fire before the next, so every drain is a one-row chunk —
//! what the per-row path did before staging.  *Batched* hands a node's
//! whole tick over in one `invoke`, so the stage fills and drains in
//! stage-size chunks with a remainder left to the timer.
//!
//! The stage keeps its buffers between drains ([`TupleBatch::clear`]), so
//! a refilled stage must build the chunks a fresh one would, layout for
//! layout: the reuse property feeds one batch cleared between fills and a
//! fresh batch per fill the same rows, and compares their encodings.

use pier::harness::{Cluster, ClusterConfig};
use pier::qp::{sqlish, PierConfig, PierOut, PierTimer, QueryPlan, Tuple, TupleBatch, Value};
use pier::runtime::{Context, FaultPlan, NodeAddr, Program, Rng64, SimTime};
use proptest::prelude::*;

const SEC: u64 = 1_000_000;
const TICK: u64 = 250_000;
/// `PierNode::INGEST_STAGE_ROWS`; the straddle sizes below are built on it.
const STAGE: usize = 64;
const NETMON: &str = "SELECT src, COUNT(*) FROM packets GROUP BY src WINDOW 2s SLIDE 1s EVERY 5s";

#[derive(Clone, Copy)]
enum Feed {
    RowAtATime,
    Batched,
}

/// Everything a run delivered to clients — node, instant, query, window,
/// retraction flag and row, sorted — plus the stream's traffic and the rows
/// the nodes' window stores accepted for the first plan.
#[derive(Debug, PartialEq)]
struct Observed {
    results: Vec<String>,
    total_msgs: u64,
    total_bytes: u64,
    accepted: u64,
    /// Share-group members installed across the cluster (0 without sharing).
    shared_members: usize,
}

fn packet(table: &str, rng: &mut Rng64, sources: usize, now: SimTime) -> Tuple {
    Tuple::new(
        table,
        vec![
            (
                "src",
                Value::Str(format!("10.0.0.{}", rng.index(sources)).into()),
            ),
            ("ts", Value::Int(now as i64)),
            ("len", Value::Int(40 + rng.index(1400) as i64)),
        ],
    )
}

/// Submit `plans` round-robin over the nodes, stream `ticks` ticks in which
/// node `n` receives `rows_for(tick, n)` runs of `(table, rows)`, drain, and
/// collect what the clients saw.
fn run(
    pier: PierConfig,
    seed: u64,
    plans: &[QueryPlan],
    ticks: u64,
    rows_for: impl Fn(u64, usize) -> Vec<(&'static str, usize)>,
    feed: Feed,
) -> Observed {
    let mut cfg = ClusterConfig::lan(6, seed).with_liveness_timeout(3 * SEC);
    cfg.pier = PierConfig {
        overlay: cfg.pier.overlay,
        ..pier
    };
    let mut cluster = Cluster::start(&cfg);
    let mut first_query = 0;
    for (i, plan) in plans.iter().enumerate() {
        let plan = plan.clone();
        let proxy = cluster.addr(i % cluster.len());
        cluster.sim.invoke(proxy, |node, ctx| {
            let id = node.submit_query(ctx, plan);
            if i == 0 {
                first_query = id;
            }
        });
    }
    cluster.settle(SEC);
    cluster.reset_stats();
    let _ = cluster.sim.drain_outputs();

    let mut rng = Rng64::new(seed ^ 0xFEED);
    for tick in 0..ticks {
        let now = cluster.sim.now();
        for n in 0..cluster.len() {
            let addr = cluster.addr(n);
            let runs: Vec<(&str, Vec<Tuple>)> = rows_for(tick, n)
                .into_iter()
                .map(|(table, count)| {
                    let rows = (0..count)
                        .map(|_| packet(table, &mut rng, 12, now))
                        .collect();
                    (table, rows)
                })
                .collect();
            match feed {
                Feed::Batched => cluster.sim.invoke(addr, |node, ctx| {
                    for (table, rows) in runs {
                        for row in rows {
                            node.ingest(ctx, table, row);
                        }
                    }
                }),
                Feed::RowAtATime => {
                    for (table, rows) in runs {
                        for row in rows {
                            cluster
                                .sim
                                .invoke(addr, |node, ctx| node.ingest(ctx, table, row));
                            // Fires the zero-delay flush, nothing else: every
                            // other event due by `now` has already run.
                            cluster.sim.run_until(now);
                        }
                    }
                }
            }
        }
        cluster.sim.run_for(TICK);
    }
    cluster.sim.run_for(12 * SEC);

    let mut results: Vec<String> = cluster
        .sim
        .drain_outputs()
        .into_iter()
        .filter_map(|out| match out.value {
            PierOut::WindowResult {
                query_id,
                window_start,
                retract,
                tuple,
                ..
            } => Some(format!(
                "{} t={} q={query_id:x} w={window_start} r={retract} {tuple}",
                out.node, out.time
            )),
            _ => None,
        })
        .collect();
    results.sort();
    let accepted = (0..cluster.len())
        .filter_map(|n| {
            cluster
                .sim
                .node(cluster.addr(n))?
                .cq_diagnostics(first_query)
        })
        .map(|d| d.local.accepted)
        .sum();
    let shared_members = (0..cluster.len())
        .filter_map(|n| cluster.sim.node(cluster.addr(n))?.sharing_stats())
        .map(|s| s.members)
        .sum();
    Observed {
        results,
        total_msgs: cluster.sim.stats().total_msgs,
        total_bytes: cluster.sim.stats().total_bytes,
        accepted,
        shared_members,
    }
}

fn compile(sql: &str) -> QueryPlan {
    sqlish::compile(sql, NodeAddr(0), 60 * SEC).expect("test query compiles")
}

/// Rows per invoke that straddle the stage size: 0, 1, N−1, N, N+1 and a
/// multi-stage run, rotating over ticks and nodes.
fn straddle(tick: u64, node: usize) -> usize {
    const SIZES: [usize; 6] = [0, 1, STAGE - 1, STAGE, STAGE + 1, 2 * STAGE + 7];
    SIZES[(tick as usize + node) % SIZES.len()]
}

/// Run the stream both ways and require identical observations.
fn assert_equivalent(
    pier: PierConfig,
    seed: u64,
    plans: &[QueryPlan],
    rows: impl Fn(u64, usize) -> Vec<(&'static str, usize)> + Copy,
) -> Observed {
    let batched = run(pier.clone(), seed, plans, 24, rows, Feed::Batched);
    let row_wise = run(pier, seed, plans, 24, rows, Feed::RowAtATime);
    assert!(
        batched.results.len() > 20,
        "the stream must produce window results: {}",
        batched.results.len()
    );
    assert_eq!(batched, row_wise);
    batched
}

fn packets_only(tick: u64, node: usize) -> Vec<(&'static str, usize)> {
    vec![("packets", straddle(tick, node))]
}

#[test]
fn continuous_netmon_is_unchanged_by_how_rows_are_staged() {
    assert_equivalent(PierConfig::default(), 11, &[compile(NETMON)], packets_only);
}

fn tenant_plans() -> Vec<QueryPlan> {
    (0..8)
        .map(|t| {
            compile(&format!(
                "SELECT src, COUNT(*), SUM(len) FROM packets WHERE src = '10.0.0.{t}' \
                 GROUP BY src WINDOW 2s SLIDE 1s EVERY 5s"
            ))
        })
        .collect()
}

#[test]
fn shared_tenants_are_unchanged_by_how_rows_are_staged() {
    let pier = PierConfig {
        sharing: Some(pier::mqo::layer),
        ..PierConfig::default()
    };
    let seen = assert_equivalent(pier, 23, &tenant_plans(), packets_only);
    assert_eq!(
        seen.shared_members,
        8 * 6,
        "every tenant rides a share group"
    );
}

#[test]
fn independent_tenants_are_unchanged_by_how_rows_are_staged() {
    let seen = assert_equivalent(PierConfig::default(), 23, &tenant_plans(), packets_only);
    assert_eq!(seen.shared_members, 0);
}

#[test]
fn a_shed_plan_thins_identically_however_rows_are_staged() {
    let mut plan = compile(NETMON);
    plan.sample_every = 4;
    assert_equivalent(PierConfig::default(), 31, &[plan.clone()], packets_only);

    // And it does thin: every node keeps one source row in four.
    let rows = |_, _| vec![("packets", 2 * STAGE)];
    let accepted = |plan| run(PierConfig::default(), 31, &[plan], 8, rows, Feed::Batched).accepted;
    let (full, shed) = (accepted(compile(NETMON)), accepted(plan));
    assert!(full > 0, "the window stores must accept rows");
    assert_eq!(shed * 4, full);
}

#[test]
fn interleaved_tables_drain_in_call_order() {
    // Two standing queries over two tables; every invoke alternates runs of
    // both, so each switch of table forces a drain mid-invoke.
    let plans = [
        compile(NETMON),
        compile("SELECT src, COUNT(*) FROM flows GROUP BY src WINDOW 2s SLIDE 1s EVERY 5s"),
    ];
    let rows = |tick, node| {
        vec![
            ("packets", straddle(tick, node)),
            ("flows", 3),
            ("packets", 1),
            ("flows", straddle(tick + 2, node)),
        ]
    };
    let seen = assert_equivalent(PierConfig::default(), 47, &plans, rows);
    // Both queries delivered: result lines carry two distinct `q=` ids.
    let queries: std::collections::BTreeSet<&str> = seen
        .results
        .iter()
        .filter_map(|r| r.split(' ').find(|f| f.starts_with("q=")))
        .collect();
    assert_eq!(queries.len(), 2);
}

// ----- directed tests ----------------------------------------------------------

/// One node with one standing query installed; returns the cluster, the
/// node and the query id.
fn single_node(sql: &str, faults: Option<FaultPlan>) -> (Cluster, NodeAddr, u64) {
    let mut cluster = Cluster::start(&ClusterConfig::lan(1, 5));
    if let Some(plan) = faults {
        cluster.sim.set_fault_plan(plan);
    }
    let node = cluster.addr(0);
    let plan = sqlish::compile(sql, node, 600 * SEC).expect("test query compiles");
    let mut query = 0;
    cluster
        .sim
        .invoke(node, |n, ctx| query = n.submit_query(ctx, plan));
    cluster.settle(SEC);
    (cluster, node, query)
}

fn accepted_and_emitted(cluster: &Cluster, node: NodeAddr, query: u64) -> (u64, u64) {
    let d = cluster
        .sim
        .node(node)
        .and_then(|n| n.cq_diagnostics(query))
        .expect("query installed");
    (d.local.accepted, d.windows_emitted)
}

#[test]
fn a_window_tick_and_an_ingest_at_one_instant_see_each_other_in_call_order() {
    // 1 s event-time windows (sqlish reads event time from `ts`).  Both
    // handlers run by hand at one instant, 3 s past the simulator's clock;
    // the row is stamped inside a window that no real tick has closed yet
    // and that a tick at that instant does close (and, this node being
    // the root, emits).
    let sql = "SELECT src, COUNT(*) FROM packets GROUP BY src WINDOW 1s SLIDE 1s";
    for ingest_first in [true, false] {
        let (mut cluster, node, query) = single_node(sql, None);
        let at = cluster.sim.now() + 3 * SEC;
        let row = Tuple::new(
            "packets",
            vec![
                ("src", Value::str("a")),
                ("ts", Value::Int((cluster.sim.now() + SEC / 2) as i64)),
            ],
        );
        let before = accepted_and_emitted(&cluster, node, query);
        let tick = PierTimer::WindowTick { query_id: query };
        cluster
            .sim
            .with_node_mut(node, |n| {
                let mut ctx = Context::new(at, node);
                if ingest_first {
                    n.ingest(&mut ctx, "packets", row);
                    n.on_timer(&mut ctx, tick.clone());
                } else {
                    n.on_timer(&mut ctx, tick.clone());
                    n.ingest(&mut ctx, "packets", row);
                    n.on_timer(&mut ctx, PierTimer::IngestFlush);
                }
            })
            .expect("node alive");
        let after = accepted_and_emitted(&cluster, node, query);
        let (accepted, emitted) = (after.0 - before.0, after.1 - before.1);
        if ingest_first {
            // The tick drained the stage before closing: the row made it
            // into its open pane and out in the window's emission.
            assert_eq!((accepted, emitted), (1, 1));
        } else {
            // The tick closed the row's pane first: the row is late.  It
            // is not folded into an open pane, and the window it belongs
            // to had nothing to emit.
            assert_eq!((accepted, emitted), (0, 0));
            // It re-opened its pane as a refinement instead, which the
            // next tick rolls up: the window is emitted then, with it.
            cluster
                .sim
                .with_node_mut(node, |n| {
                    n.on_timer(&mut Context::new(at + SEC, node), tick);
                })
                .expect("node alive");
            let later = accepted_and_emitted(&cluster, node, query);
            assert_eq!((later.0 - before.0, later.1 - before.1), (0, 1));
        }
    }
}

#[test]
fn rows_staged_at_t_are_windowed_at_t_even_if_a_later_handler_drains_them() {
    // No event-time column: rows are windowed at the instant of ingest.
    // The node stalls from just before the ingest until 3 s later, so the
    // zero-delay flush (like every timer) is deferred to the stall's end
    // and the stage drains in a handler that runs at a later instant.
    let sql = "SELECT src, COUNT(*) FROM packets GROUP BY src WINDOW 1s SLIDE 1s";
    let stall_from = 7 * SEC + 100_000;
    let ingest_at = 7 * SEC + 400_000;
    let stall_to = 10 * SEC + 400_000;
    let faults = FaultPlan::new(9).with_stall(NodeAddr(0), stall_from, stall_to);
    let (mut cluster, node, query) = single_node(sql, Some(faults));
    assert!(cluster.sim.now() < stall_from, "install before the stall");
    cluster.sim.run_until(ingest_at);
    for _ in 0..5 {
        let row = Tuple::new("packets", vec![("src", Value::str("a"))]);
        cluster
            .sim
            .invoke(node, |n, ctx| n.ingest(ctx, "packets", row));
    }
    cluster.sim.run_until(stall_to - 1);
    assert_eq!(
        accepted_and_emitted(&cluster, node, query).0,
        0,
        "stalled: the flush timer has not fired"
    );
    cluster.sim.run_for(10 * SEC);

    let windows: Vec<(SimTime, i64)> = cluster
        .sim
        .drain_outputs()
        .into_iter()
        .filter_map(|out| match out.value {
            PierOut::WindowResult {
                window_start,
                retract: false,
                tuple,
                ..
            } => Some((window_start, tuple.get("count")?.as_i64()?)),
            _ => None,
        })
        .collect();
    assert_eq!(
        windows,
        vec![(7 * SEC, 5)],
        "all five rows belong to the window containing the ingest instant"
    );
}

/// The shapes a fill's rows take: two schemas of one table and another
/// table, so a fill switches schema now and then.
const SHAPES: [(&str, &[&str]); 3] = [
    ("packets", &["src", "len", "ts"]),
    ("packets", &["src", "len"]),
    ("flows", &["ts", "src"]),
];

/// One cell of kind `kind`: NULL, an integer, a float, a bool, a string
/// of eight or of 200 (more than `DICT_MAX`, so a long fill spills its
/// dictionary to the arena), or bytes.
fn cell(kind: usize, rng: &mut Rng64) -> Value {
    match kind {
        0 => Value::Null,
        1 => Value::Int(rng.next_below(1 << 40) as i64 - (1 << 39)),
        2 => Value::Float(rng.next_below(1_000) as f64 / 8.0),
        3 => Value::Bool(rng.chance(0.5)),
        4 => Value::str(format!("10.0.0.{}", rng.index(8))),
        5 => Value::str(format!("host-{}", rng.index(200))),
        _ => Value::bytes(vec![rng.index(256) as u8; rng.index(4)]),
    }
}

/// `rows` rows drawn from `seed`: each column keeps one kind — a fill's
/// layouts are mostly typed — but a tenth of the cells are of any kind.
fn fill(seed: u64, rows: usize) -> Vec<Tuple> {
    let mut rng = Rng64::new(seed);
    let kinds: Vec<usize> = (0..3).map(|_| rng.index(7)).collect();
    let mut shape = rng.index(SHAPES.len());
    (0..rows)
        .map(|_| {
            if rng.chance(1.0 / 16.0) {
                shape = rng.index(SHAPES.len());
            }
            let (table, columns) = SHAPES[shape];
            let fields = columns.iter().zip(&kinds).map(|(&column, &kind)| {
                let kind = if rng.chance(0.1) { rng.index(7) } else { kind };
                (column, cell(kind, &mut rng))
            });
            Tuple::new(table, fields.collect())
        })
        .collect()
}

/// Each chunk's schema, each column's layout and the chunk's encoding.
fn layouts(batch: &TupleBatch) -> Vec<(String, Vec<&'static str>, Vec<u8>)> {
    batch
        .chunks()
        .iter()
        .map(|chunk| {
            let schema = chunk.schema();
            let columns = (0..schema.arity()).map(|c| chunk.col(c).layout_name());
            let mut body = Vec::new();
            chunk.encode_body(&mut body);
            (
                format!("{}{:?}", schema.table(), schema.columns()),
                columns.collect(),
                body,
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A stage cleared and refilled builds, fill after fill, the chunks a
    /// fresh stage builds from the same rows: same runs, same layouts,
    /// same bytes — whatever layout the last fill left in its columns.
    #[test]
    fn a_refilled_stage_builds_the_chunks_a_fresh_one_does(
        fills in prop::collection::vec((any::<u64>(), 0usize..160), 1..8),
    ) {
        let mut kept = TupleBatch::default();
        for (seed, rows) in fills {
            let rows = fill(seed, rows);
            kept.clear();
            rows.iter().for_each(|t| kept.push_tuple(t.clone()));
            let fresh = TupleBatch::new(rows);
            prop_assert_eq!(kept.len(), fresh.len());
            prop_assert_eq!(layouts(&kept), layouts(&fresh));
            prop_assert!(kept == fresh);
        }
    }
}
