//! A pane shipment lost on a hop is asked for again and resent
//! ([`pier::qp::pane_link`]): a cut shorter than the root's retention costs
//! the windows over it latency, not rows.  A shipment delivered twice is
//! absorbed once.
//!
//! The runs stream a known count per window through a 2 s / 1 s
//! `COUNT(*)` on eight nodes and compare every window the stream spans
//! with what was generated, exactly; a one-shot `COUNT(*)` over the same
//! stream, whose panes climb the same way, must count every row.

use pier::dht::routing_id;
use pier::harness::{Cluster, ClusterConfig};
use pier::qp::{sqlish, EngineSpec, PierOut, TelemetryConfig, Tuple, Value, WindowSpec};
use pier::runtime::sim::FaultPlan;
use pier::runtime::{NodeAddr, SimTime};
use std::collections::BTreeMap;

mod common;
use common::seeded;

const SEC: u64 = 1_000_000;
const NODES: usize = 8;

/// Per-window totals: `(start, end) → count`; a one-shot answer is the
/// one window the whole stream spans.
type Totals = BTreeMap<(SimTime, SimTime), i64>;

/// A query the stream runs through, and how long to let it settle once
/// the stream stops.
struct Query {
    sql: &'static str,
    timeout: SimTime,
    settle: SimTime,
}

/// The standing 2 s / 1 s netmon query.
const NETMON: Query = Query {
    sql: "SELECT src, COUNT(*) FROM packets GROUP BY src WINDOW 2s SLIDE 1s",
    timeout: 60 * SEC,
    settle: 12 * SEC,
};

/// A one-shot count over the whole stream: panes of a 2 s hold, answered
/// once, 28 s after it was submitted.
const ONE_SHOT: Query = Query {
    sql: "SELECT src, COUNT(*) FROM packets GROUP BY src",
    timeout: 30 * SEC,
    settle: 20 * SEC,
};

/// What a run delivered at the proxy and what it generated, over the
/// windows inside the stream; and the cluster-wide `cq.panes.*` sums
/// `(asked, resent, duplicates)`.
struct Run {
    delivered: Totals,
    generated: Totals,
    repair: (u64, u64, u64),
}

/// Stream 12 s of rows into `q` proxied at node 0; `faults` picks, once 4 s
/// of stream have flowed, a fault plan from the stream's start instant and
/// a bystander: the highest-indexed node that is neither the proxy nor the
/// query's root.
fn run(seed: u64, q: &Query, faults: impl FnOnce(SimTime, NodeAddr) -> FaultPlan) -> Run {
    let cfg = ClusterConfig::lan(NODES, seed).with_telemetry(TelemetryConfig {
        enabled: true,
        ..TelemetryConfig::default()
    });
    let mut cluster = Cluster::start(&cfg);
    let proxy = cluster.addr(0);
    let mut plan = sqlish::compile(q.sql, proxy, q.timeout).expect("the query compiles");
    let windowed = plan.windowed_sink().is_some();
    let submitted = plan.clone();
    let mut query = 0;
    cluster
        .sim
        .invoke(proxy, |node, ctx| query = node.submit_query(ctx, submitted));
    cluster.settle(SEC);
    let _ = cluster.sim.drain_outputs();
    // The root is where the engine's partials are routed to.
    plan.query_id = query;
    let (_, engine, _) = EngineSpec::unshared(&plan).expect("an aggregate");
    let root_id = routing_id(&engine.namespace, &engine.root_key);

    let spec = WindowSpec::sliding(2 * SEC, SEC);
    let begin = cluster.sim.now();
    let end = begin + 12 * SEC;
    let windows = |at: SimTime| -> Vec<(SimTime, SimTime)> {
        match windowed {
            true => spec
                .windows_containing(at)
                .map(|w| spec.bounds(w))
                .collect(),
            false => vec![(begin, end)],
        }
    };
    let mut generated = Totals::new();
    let mut faults = Some(faults);
    let mut row = 0i64;
    while cluster.sim.now() < end {
        let now = cluster.sim.now();
        if now >= begin + 4 * SEC {
            if let Some(faults) = faults.take() {
                let root = (0..NODES).find(|&i| {
                    let node = cluster.sim.node(cluster.addr(i));
                    node.is_some_and(|n| n.overlay().router().is_responsible(root_id))
                });
                let root = root.expect("a node is the root");
                let bystander = (1..NODES).rev().find(|&i| i != root);
                let bystander = cluster.addr(bystander.expect("eight nodes"));
                cluster.sim.set_fault_plan(faults(begin, bystander));
            }
        }
        for i in 0..NODES {
            for _ in 0..2 {
                row += 1;
                let tuple = Tuple::new(
                    "packets",
                    vec![
                        ("src", Value::Str(format!("10.0.0.{}", row % 5).into())),
                        ("ts", Value::Int(now as i64)),
                    ],
                );
                for w in windows(now) {
                    *generated.entry(w).or_default() += 1;
                }
                cluster.sim.invoke(cluster.addr(i), move |node, ctx| {
                    node.ingest(ctx, "packets", tuple);
                });
            }
        }
        cluster.sim.run_for(SEC / 4);
    }
    cluster.sim.run_for(q.settle);

    // The proxy's view: the latest row per (window, source).
    let mut latest: BTreeMap<((SimTime, SimTime), String), i64> = BTreeMap::new();
    for out in cluster.sim.drain_outputs() {
        let (query_id, window_start, window_end, retract, tuple) = match out.value {
            PierOut::WindowResult {
                query_id,
                window_start,
                window_end,
                retract,
                tuple,
            } => (query_id, window_start, window_end, retract, tuple),
            PierOut::Result { query_id, tuple } => (query_id, begin, end, false, tuple),
            _ => continue,
        };
        if query_id != query || out.node != proxy {
            continue;
        }
        let src = tuple.get("src").expect("src column").to_string();
        let count = tuple.get("count").and_then(Value::as_i64).expect("count");
        let at = ((window_start, window_end), src);
        if retract {
            latest.remove(&at);
        } else {
            latest.insert(at, count);
        }
    }
    let mut delivered = Totals::new();
    for ((window, _), count) in latest {
        *delivered.entry(window).or_default() += count;
    }
    let inside = |w: &(SimTime, SimTime)| w.0 >= begin && w.1 <= end;
    generated.retain(|w, _| inside(w));
    delivered.retain(|w, _| inside(w));
    let sum = |name: &str| {
        (0..NODES)
            .filter_map(|i| cluster.telemetry(cluster.addr(i)))
            .map(|t| t.counter(name))
            .sum::<u64>()
    };
    Run {
        delivered,
        generated,
        repair: (
            sum("cq.panes.asked"),
            sum("cq.panes.resent"),
            sum("cq.panes.duplicates"),
        ),
    }
}

#[test]
fn a_cut_shorter_than_retention_costs_no_rows() {
    let seed = seeded(61);
    let clean = run(seed, &NETMON, |_, _| FaultPlan::new(seed));
    assert_eq!(clean.delivered, clean.generated, "a clean run is exact");
    assert_eq!(clean.repair, (0, 0, 0), "and asks for nothing");

    // One relay or leaf is cut away for a second and a half: every pane
    // shipment to and from it in that time is dropped.
    let cut = run(seed, &NETMON, |begin, bystander| {
        let at = begin + 5 * SEC + SEC / 10;
        FaultPlan::new(seed).with_partition(at, at + 3 * SEC / 2, vec![bystander])
    });
    let (asked, resent, _) = cut.repair;
    assert!(asked > 0 && resent > 0, "the cut is noticed and repaired");
    assert_eq!(cut.delivered, cut.generated, "every row arrives");
}

#[test]
fn a_pane_shipment_delivered_twice_is_absorbed_once() {
    let seed = seeded(62);
    // Every message of six seconds is delivered twice.
    let doubled = run(seed, &NETMON, |begin, _| {
        FaultPlan::new(seed).with_duplication(begin + 4 * SEC, begin + 10 * SEC, 1.0)
    });
    assert!(doubled.repair.2 > 0, "copies arrived and were dropped");
    assert_eq!(doubled.delivered, doubled.generated);
}

#[test]
fn a_one_shot_aggregate_asks_for_a_lost_pane_shipment_again() {
    let seed = seeded(63);
    let clean = run(seed, &ONE_SHOT, |_, _| FaultPlan::new(seed));
    assert_eq!(
        clean.delivered, clean.generated,
        "a clean run counts every row"
    );
    assert_eq!(clean.repair, (0, 0, 0), "and asks for nothing");

    // One relay or leaf is cut away for one hold: exactly one of its own
    // pane shipments, and whatever its children send it then, is dropped.
    let cut = run(seed, &ONE_SHOT, |begin, bystander| {
        let at = begin + 5 * SEC + SEC / 10;
        FaultPlan::new(seed).with_partition(at, at + 2 * SEC, vec![bystander])
    });
    let (asked, resent, _) = cut.repair;
    assert!(asked > 0 && resent > 0, "the cut is noticed and repaired");
    assert_eq!(cut.delivered, cut.generated, "every row is counted");
}
