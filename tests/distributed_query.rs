//! End-to-end distributed query tests spanning every crate: SQL front end →
//! plan → dissemination → opgraph execution over the DHT → results at the
//! proxy, including failure injection and the malformed-tuple policy.

mod common;

use common::seeded;
use pier::dht::{make_ring_refs, routing_id, DhtMessage, Id, NodeRef};
use pier::harness::{Cluster, ClusterConfig};
use pier::qp::{
    sqlish, Expr, JoinSpec, OpGraph, PierConfig, PierMsg, PierNode, PierOut, PierTimer,
    PlanBuilder, SinkSpec, SourceSpec, Tuple, Value,
};
use pier::runtime::{Action, Context, NodeAddr, Program, SimConfig, SimTime, Simulator};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

const SEC: u64 = 1_000_000;

#[test]
fn sql_keyword_search_end_to_end() {
    let mut cluster = Cluster::start(&ClusterConfig::lan(20, seeded(101)));
    let key_cols = vec!["keyword".to_string()];
    for i in 0..8 {
        let kw = if i % 2 == 0 { "rust" } else { "java" };
        let tuple = Tuple::new(
            "files",
            vec![
                ("keyword", Value::Str(kw.into())),
                ("file", Value::Str(format!("f{i}").into())),
                ("size", Value::Int(i as i64 * 100)),
            ],
        );
        let from = cluster.addr(i % cluster.len());
        cluster.publish(from, "files", &key_cols, tuple);
    }
    cluster.settle(3_000_000);
    let proxy = cluster.addr(4);
    let plan = sqlish::compile(
        "SELECT file FROM files WHERE keyword = 'rust' AND size >= 200",
        proxy,
        10_000_000,
    )
    .unwrap();
    let outcome = cluster.run_query(proxy, plan);
    let mut files: Vec<String> = outcome
        .tuples()
        .iter()
        .filter_map(|t| t.get("file").and_then(|v| v.as_str().map(String::from)))
        .collect();
    files.sort();
    assert_eq!(files, vec!["f2", "f4", "f6"]);
}

#[test]
fn sql_aggregation_matches_ground_truth() {
    let mut cluster = Cluster::start(&ClusterConfig::lan(15, seeded(202)));
    // Each node logs a few events; "198.51.100.7" dominates.
    let mut expected_hot = 0i64;
    for i in 0..cluster.len() {
        for j in 0..4 {
            let src = if j < 3 { "198.51.100.7" } else { "203.0.113.9" };
            if j < 3 {
                expected_hot += 1;
            }
            let addr = cluster.addr(i);
            cluster.add_local_row(
                addr,
                "events",
                Tuple::new(
                    "events",
                    vec![("src", Value::Str(src.into())), ("port", Value::Int(j))],
                ),
            );
        }
    }
    let proxy = cluster.addr(2);
    let plan = sqlish::compile(
        "SELECT src, COUNT(*) FROM events GROUP BY src TOP 1 BY count",
        proxy,
        20_000_000,
    )
    .unwrap();
    let outcome = cluster.run_query(proxy, plan);
    assert_eq!(outcome.results.len(), 1, "TOP 1 must return a single group");
    let top = &outcome.tuples()[0];
    assert_eq!(top.get("src").unwrap().as_str().unwrap(), "198.51.100.7");
    assert_eq!(top.get("count").unwrap().as_i64().unwrap(), expected_hot);
}

#[test]
fn an_aggregate_with_an_equality_predicate_answers_its_count() {
    // Sent by key, the plan would reach only the owner of 'a', whose
    // partials go to a window root that never installed it: no answer.
    let mut cluster = Cluster::start(&ClusterConfig::lan(16, seeded(505)));
    let key_cols = vec!["src".to_string()];
    let srcs = ["a", "b", "c"];
    for i in 0..20 {
        let src = Value::Str(srcs[i % srcs.len()].into());
        let tuple = Tuple::new("events", vec![("src", src), ("port", Value::Int(i as i64))]);
        let from = cluster.addr(i % cluster.len());
        cluster.publish(from, "events", &key_cols, tuple);
    }
    let published = (0..20).filter(|i| i % srcs.len() == 0).count() as i64;
    cluster.settle(3_000_000);
    let proxy = cluster.addr(3);
    let sql = "SELECT src, COUNT(*) FROM events WHERE src = 'a' GROUP BY src";
    let plan = sqlish::compile(sql, proxy, 10_000_000).unwrap();
    let outcome = cluster.run_query(proxy, plan);
    let rows = outcome.tuples();
    assert_eq!(rows.len(), 1, "one group: {rows:?}");
    assert_eq!(rows[0].get("src").and_then(Value::as_str), Some("a"));
    assert_eq!(
        rows[0].get("count").and_then(Value::as_i64),
        Some(published)
    );
}

#[test]
fn a_short_one_shot_aggregate_counts_the_whole_tree() {
    // Partials climb about one hold per hop and the root answers one hold
    // before the timeout: an 8 s query must still hear every leaf, on 32
    // nodes and on a tree deep enough that a hold of an eighth of the
    // timeout missed some of 256.  On the transit-stub topology the
    // query's broadcast takes up to half a second to reach every node: no
    // leaf may ship before the root can take its partials.
    let configs = [
        ClusterConfig::lan(32, seeded(505)),
        ClusterConfig::lan(256, seeded(505)),
        ClusterConfig::internet(200, seeded(505)),
    ];
    for config in &configs {
        assert_eq!(
            one_shot_count(config, 8_000_000),
            10 * config.nodes as i64,
            "{} nodes",
            config.nodes
        );
    }
}

/// The rows `SELECT src, COUNT(*) FROM events GROUP BY src` counts within
/// `timeout` on a cluster of `config` whose nodes store ten rows each.
fn one_shot_count(config: &ClusterConfig, timeout: u64) -> i64 {
    let mut cluster = Cluster::start(config);
    for i in 0..cluster.len() {
        let addr = cluster.addr(i);
        for j in 0..10i64 {
            let src = Value::Str(format!("10.0.0.{}", (i as i64 + j) % 4).into());
            let tuple = Tuple::new("events", vec![("src", src), ("port", Value::Int(j))]);
            cluster.add_local_row(addr, "events", tuple);
        }
    }
    let proxy = cluster.addr(0);
    let sql = "SELECT src, COUNT(*) FROM events GROUP BY src";
    let plan = sqlish::compile(sql, proxy, timeout).unwrap();
    let outcome = cluster.run_query(proxy, plan);
    let counts = outcome
        .tuples()
        .into_iter()
        .map(|t| t.get("count")?.as_i64());
    counts.map(Option::unwrap).sum()
}

#[test]
fn rehash_symmetric_hash_join_produces_correct_join() {
    let mut cluster = Cluster::start(&ClusterConfig::lan(12, seeded(303)));
    let key = vec!["b".to_string()];
    // r(a, b) and s(b, c): the join result is known exactly.
    let r_rows = [(1, 10), (2, 20), (3, 10), (4, 30)];
    let s_rows = [(10, 100), (20, 200), (40, 400)];
    for (i, (a, b)) in r_rows.iter().enumerate() {
        let from = cluster.addr(i % cluster.len());
        cluster.publish(
            from,
            "r",
            &key,
            Tuple::new("r", vec![("a", Value::Int(*a)), ("b", Value::Int(*b))]),
        );
    }
    for (i, (b, c)) in s_rows.iter().enumerate() {
        let from = cluster.addr((i + 5) % cluster.len());
        cluster.publish(
            from,
            "s",
            &key,
            Tuple::new("s", vec![("b", Value::Int(*b)), ("c", Value::Int(*c))]),
        );
    }
    cluster.settle(3_000_000);
    let proxy = cluster.addr(0);
    let ns = "q.join".to_string();
    let plan = PlanBuilder::new(proxy)
        .timeout(20_000_000)
        .opgraph(OpGraph {
            id: 0,
            source: SourceSpec::Table {
                namespace: "r".into(),
            },
            join: None,
            ops: vec![],
            sink: SinkSpec::Rehash {
                namespace: ns.clone(),
                key_cols: key.clone(),
            },
        })
        .opgraph(OpGraph {
            id: 1,
            source: SourceSpec::Table {
                namespace: "s".into(),
            },
            join: None,
            ops: vec![],
            sink: SinkSpec::Rehash {
                namespace: ns.clone(),
                key_cols: key.clone(),
            },
        })
        .opgraph(OpGraph {
            id: 2,
            source: SourceSpec::Table { namespace: ns },
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
    let outcome = cluster.run_query(proxy, plan);
    // Expected: r tuples with b=10 (two of them) join s(10,100); r with b=20
    // joins s(20,200); r with b=30 has no partner.  Total 3 results.
    assert_eq!(outcome.results.len(), 3, "join result cardinality");
    for t in outcome.tuples() {
        let b = t.get("b").unwrap().as_i64().unwrap();
        let c = t.get("c").unwrap().as_i64().unwrap();
        assert_eq!(c, b * 10, "join produced a mismatched pair: {t}");
    }
}

#[test]
fn malformed_tuples_are_discarded_not_fatal() {
    let mut cluster = Cluster::start(&ClusterConfig::lan(8, seeded(404)));
    let key_cols = vec!["keyword".to_string()];
    // One well-formed tuple, one missing the filtered column, one with the
    // wrong type for it.
    let rows = vec![
        Tuple::new(
            "files",
            vec![
                ("keyword", Value::Str("k".into())),
                ("size", Value::Int(10)),
            ],
        ),
        Tuple::new("files", vec![("keyword", Value::Str("k".into()))]),
        Tuple::new(
            "files",
            vec![
                ("keyword", Value::Str("k".into())),
                ("size", Value::Str("huge".into())),
            ],
        ),
    ];
    for (i, t) in rows.into_iter().enumerate() {
        let from = cluster.addr(i % cluster.len());
        cluster.publish(from, "files", &key_cols, t);
    }
    cluster.settle(3_000_000);
    let proxy = cluster.addr(1);
    let plan = PlanBuilder::select(
        proxy,
        "files",
        Expr::cmp(pier::qp::CmpOp::Ge, Expr::col("size"), Expr::lit(5i64)),
        vec![],
        10_000_000,
    );
    let outcome = cluster.run_query(proxy, plan);
    assert_eq!(
        outcome.results.len(),
        1,
        "only the well-formed tuple satisfies the predicate; the others are silently discarded"
    );
}

#[test]
fn query_survives_minority_node_failures() {
    // Keyed by file, the rows spread over the ring. Not `seeded`: a node
    // that fails while it is only another node's finger can stay that
    // node's next hop for a minute or more, and a query routed through it
    // meanwhile reaches nobody. Many layouts hit that one second after the
    // failure; this one does not.
    let mut cluster = Cluster::start(&ClusterConfig::lan(20, 505));
    let key_cols = vec!["file".to_string()];
    for i in 0..30 {
        let from = cluster.addr(i % cluster.len());
        cluster.publish(
            from,
            "files",
            &key_cols,
            Tuple::new(
                "files",
                vec![
                    ("keyword", Value::Str("survivor".into())),
                    ("file", Value::Str(format!("f{i}").into())),
                ],
            ),
        );
    }
    cluster.settle(3_000_000);
    // Fail three nodes (but never the proxy).
    for i in 1..=3 {
        let addr = cluster.addr(i);
        let now = cluster.sim.now();
        cluster.sim.fail_node_at(addr, now);
    }
    cluster.settle(1_000_000);
    let proxy = cluster.addr(10);
    let plan = PlanBuilder::select(
        proxy,
        "files",
        Expr::eq("keyword", "survivor"),
        vec!["file".to_string()],
        15_000_000,
    );
    let outcome = cluster.run_query(proxy, plan);
    // Some rows may have lived on the failed nodes, but the query must still
    // complete, return most of the data, and return no row twice.
    let mut files: Vec<String> = outcome
        .tuples()
        .iter()
        .filter_map(|t| t.get("file").and_then(|v| v.as_str().map(String::from)))
        .collect();
    assert_eq!(
        files.len(),
        outcome.results.len(),
        "every row names its file"
    );
    files.sort_unstable();
    files.dedup();
    assert_eq!(files.len(), outcome.results.len(), "a row came back twice");
    assert!(
        outcome.results.len() >= 20,
        "expected most rows to survive, got {}",
        outcome.results.len()
    );
}

// ----- publishing: what one instant's publishes put on the wire ------------

type Ctx = Context<PierMsg, PierTimer, PierOut>;

/// One logged put or results message: when, from where, to whom, and how
/// many rows it carried.
#[derive(Debug, Clone, PartialEq)]
struct Sent {
    at: SimTime,
    from: NodeAddr,
    to: NodeAddr,
    kind: &'static str,
    rows: usize,
}

type Log = Rc<RefCell<Vec<Sent>>>;

/// A `PierNode` whose put and results messages are logged as it sends them.
struct Logged {
    node: PierNode,
    log: Log,
}

impl Logged {
    fn run(&mut self, ctx: &mut Ctx, f: impl FnOnce(&mut PierNode, &mut Ctx)) {
        let mut inner = Context::new(ctx.now(), ctx.me());
        f(&mut self.node, &mut inner);
        for action in inner.into_actions() {
            match action {
                Action::Send { to, msg } => {
                    let logged = match &msg {
                        PierMsg::Dht(DhtMessage::PutRequest { .. }) => Some(("put", 1)),
                        PierMsg::Dht(DhtMessage::PutBatch { entries, .. }) => {
                            Some(("put", entries.len()))
                        }
                        PierMsg::Results { rows, .. } => Some(("results", rows.len())),
                        _ => None,
                    };
                    if let Some((kind, rows)) = logged {
                        let (at, from) = (ctx.now(), ctx.me());
                        let sent = Sent {
                            at,
                            from,
                            to,
                            kind,
                            rows,
                        };
                        self.log.borrow_mut().push(sent);
                    }
                    ctx.send(to, msg);
                }
                Action::SetTimer { delay, timer } => ctx.set_timer(delay, timer),
                Action::Output(out) => ctx.output(out),
            }
        }
    }
}

impl Program for Logged {
    type Msg = PierMsg;
    type Timer = PierTimer;
    type Out = PierOut;

    fn on_start(&mut self, ctx: &mut Ctx) {
        self.run(ctx, Program::on_start);
    }

    fn on_message(&mut self, ctx: &mut Ctx, from: NodeAddr, msg: PierMsg) {
        self.run(ctx, |node, ctx| node.on_message(ctx, from, msg));
    }

    fn on_timer(&mut self, ctx: &mut Ctx, timer: PierTimer) {
        self.run(ctx, |node, ctx| node.on_timer(ctx, timer));
    }

    fn on_stop(&mut self, ctx: &mut Ctx) {
        self.run(ctx, Program::on_stop);
    }
}

/// A LAN of logged nodes on a converged ring, its distribution tree warm.
fn logged_lan(nodes: usize, seed: u64) -> (Simulator<Logged>, Vec<NodeRef>, Log) {
    let refs = make_ring_refs(nodes, seed);
    let log = Log::default();
    let mut sim = Simulator::new(SimConfig::lan(seed));
    for r in &refs {
        sim.add_node(Logged {
            node: PierNode::with_static_ring(*r, &refs, PierConfig::default()),
            log: Rc::clone(&log),
        });
    }
    sim.run_for(6 * SEC);
    (sim, refs, log)
}

/// The node whose arc covers `id` on the ring `refs`: the first at or
/// clockwise after it.
fn true_owner(refs: &[NodeRef], id: Id) -> NodeAddr {
    let owner = refs.iter().min_by_key(|r| id.distance_to(r.id));
    owner.expect("a ring has nodes").addr
}

/// A row of table `t` keyed by its `k` column.
fn keyed_row(key: &str, v: i64) -> Tuple {
    Tuple::new("t", vec![("k", Value::str(key)), ("v", Value::Int(v))])
}

fn key_cols() -> Vec<String> {
    vec!["k".to_string()]
}

/// The ring's owner of `keyed_row(key, _)` once published.
fn row_owner(refs: &[NodeRef], key: &str) -> NodeAddr {
    let partition = keyed_row(key, 0).partition_key(&key_cols()).expect("keyed");
    true_owner(refs, routing_id("t", &partition))
}

fn publish_rows(sim: &mut Simulator<Logged>, at: NodeAddr, keys: &[String]) {
    sim.invoke(at, |logged, ctx| {
        logged.run(ctx, |node, ctx| {
            for (i, key) in keys.iter().enumerate() {
                node.publish(ctx, "t", &key_cols(), keyed_row(key, i as i64));
            }
        });
    });
}

#[test]
fn rows_published_in_one_instant_leave_as_one_put_per_owner() {
    const OWNERS: usize = 6;
    const PER_OWNER: usize = 5;
    let (mut sim, refs, log) = logged_lan(16, seeded(0x51));
    let publisher = refs[0].addr;
    // Keys for six remote owners, five each.
    let mut keys: BTreeMap<NodeAddr, Vec<String>> = BTreeMap::new();
    for i in 0..1_000_000 {
        let key = format!("k{i}");
        let owner = row_owner(&refs, &key);
        let known = keys.contains_key(&owner);
        if owner == publisher || (!known && keys.len() == OWNERS) {
            continue;
        }
        let of = keys.entry(owner).or_default();
        if of.len() < PER_OWNER {
            of.push(key);
        }
        if keys.len() == OWNERS && keys.values().all(|k| k.len() == PER_OWNER) {
            break;
        }
    }
    assert!(keys.values().all(|k| k.len() == PER_OWNER), "{keys:?}");
    // The first key of each owner teaches the publisher that owner's arc;
    // the other four of each are published together, in one instant.
    let first: Vec<String> = keys.values().map(|k| k[0].clone()).collect();
    publish_rows(&mut sim, publisher, &first);
    sim.run_for(SEC);
    log.borrow_mut().clear();
    let rest: Vec<String> = keys.values().flat_map(|k| k[1..].to_vec()).collect();
    publish_rows(&mut sim, publisher, &rest);
    sim.run_for(2 * SEC);
    let puts: Vec<Sent> = log
        .borrow()
        .iter()
        .filter(|s| s.from == publisher && s.kind == "put")
        .cloned()
        .collect();
    assert!(
        puts.len() <= OWNERS,
        "{} rows for {OWNERS} owners took {} put messages: {puts:?}",
        rest.len(),
        puts.len()
    );
    assert_eq!(puts.iter().map(|s| s.rows).sum::<usize>(), rest.len());
    // Every row is stored once, at its true owner.
    let now = sim.now();
    for (owner, keys) in &keys {
        for key in keys {
            let partition = keyed_row(key, 0).partition_key(&key_cols()).unwrap();
            let holders: Vec<(NodeAddr, usize)> = refs
                .iter()
                .map(|r| {
                    let node = &sim.node(r.addr).expect("alive").node;
                    let held = node.overlay().objects().get("t", &partition, now);
                    (r.addr, held.len())
                })
                .filter(|(_, held)| *held > 0)
                .collect();
            assert_eq!(holders, [(*owner, 1)], "row {key}");
        }
    }
}

#[test]
fn a_node_s_own_query_counts_the_rows_it_published_in_the_same_instant() {
    let mut cluster = Cluster::start(&ClusterConfig::lan(16, seeded(0x52)));
    let proxy = cluster.addr(5);
    let key_cols = vec!["src".to_string()];
    for i in 0..40i64 {
        let src = Value::str(format!("10.0.0.{}", i % 8));
        let tuple = Tuple::new("events", vec![("src", src), ("port", Value::Int(i))]);
        cluster.publish(proxy, "events", &key_cols, tuple);
    }
    // No time passes: the query is submitted in the instant the rows were
    // published, at the node that published them.
    let sql = "SELECT src, COUNT(*) FROM events GROUP BY src";
    let plan = sqlish::compile(sql, proxy, 8 * SEC).unwrap();
    let outcome = cluster.run_query(proxy, plan);
    let rows = outcome.tuples();
    assert_eq!(rows.len(), 8, "one row per source: {rows:?}");
    for row in &rows {
        assert_eq!(row.get("count").and_then(Value::as_i64), Some(5), "{row:?}");
    }
}

#[test]
fn ingest_publish_ingest_in_one_instant_leave_in_call_order() {
    let (mut sim, refs, log) = logged_lan(12, seeded(0x53));
    let (proxy, node) = (refs[1].addr, refs[4].addr);
    let plan = sqlish::compile("SELECT src FROM packets", proxy, 30 * SEC).unwrap();
    sim.invoke(proxy, |logged, ctx| {
        logged.run(ctx, |n, ctx| {
            n.submit_query(ctx, plan);
        });
    });
    sim.run_for(2 * SEC);
    // A row owned by the node's successor, which it knows without asking.
    let successor = true_owner(&refs, Id(refs[4].id.0.wrapping_add(1)));
    let key = (0..)
        .map(|i| format!("k{i}"))
        .find(|k| row_owner(&refs, k) == successor)
        .unwrap();
    let packet = |src: &str| Tuple::new("packets", vec![("src", Value::str(src))]);
    log.borrow_mut().clear();
    let at = sim.now();
    sim.invoke(node, |logged, ctx| {
        logged.run(ctx, |n, ctx| {
            n.ingest(ctx, "packets", packet("10.0.0.1"));
            n.publish(ctx, "t", &key_cols(), keyed_row(&key, 0));
            n.ingest(ctx, "packets", packet("10.0.0.2"));
        });
    });
    sim.run_for(SEC);
    let sent: Vec<(SimTime, NodeAddr, &str, usize)> = log
        .borrow()
        .iter()
        .filter(|s| s.from == node)
        .map(|s| (s.at, s.to, s.kind, s.rows))
        .collect();
    assert_eq!(
        sent,
        [
            (at, proxy, "results", 1),
            (at, successor, "put", 1),
            (at, proxy, "results", 1),
        ]
    );
}
