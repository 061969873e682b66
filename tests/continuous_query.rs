//! Integration tests for the continuous-query subsystem (`pier-cq`): a
//! standing sqlish windowed aggregate running in the simulator for dozens of
//! windows, surviving node churn, streaming per-window results to the proxy
//! and keeping per-node state bounded.

use pier::harness::continuous::{continuous_netmon, ContinuousNetmonConfig};
use pier::harness::{Cluster, ClusterConfig};
use pier::qp::{sqlish, CqBudget, DeltaMode, Dissemination, PierOut, SinkSpec, Tuple, Value};
use pier::runtime::{NodeAddr, Rng64, SimTime};
use std::collections::BTreeMap;

mod common;
use common::seeded;

#[test]
fn sqlish_window_clauses_compile_to_continuous_plans() {
    let plan = sqlish::compile(
        "SELECT src, COUNT(*) FROM packets GROUP BY src WINDOW 30s SLIDE 10s EVERY 20s DELTAS",
        NodeAddr(3),
        600_000_000,
    )
    .unwrap();
    assert!(plan.continuous);
    assert!(matches!(plan.dissemination, Dissemination::Broadcast));
    let cq = plan.cq.expect("windowed plans carry a lifecycle");
    assert_eq!(cq.renew_every, 20_000_000);
    assert_eq!(cq.lease, 60_000_000);
    match &plan.opgraphs[0].sink {
        SinkSpec::WindowedAgg { window, delta, .. } => {
            assert_eq!(window.size, 30_000_000);
            assert_eq!(window.slide, 10_000_000);
            assert_eq!(*delta, DeltaMode::Deltas);
        }
        other => panic!("expected a windowed sink, got {other:?}"),
    }
    // Tumbling default, seconds default unit, snapshot default mode.
    let plan = sqlish::compile(
        "SELECT src, COUNT(*) FROM packets GROUP BY src WINDOW 5",
        NodeAddr(0),
        60_000_000,
    )
    .unwrap();
    match &plan.opgraphs[0].sink {
        SinkSpec::WindowedAgg { window, delta, .. } => {
            assert!(window.is_tumbling());
            assert_eq!(window.size, 5_000_000);
            assert_eq!(*delta, DeltaMode::Snapshot);
        }
        other => panic!("expected a windowed sink, got {other:?}"),
    }
    // A window without an aggregate is rejected.
    assert!(sqlish::compile("SELECT src FROM packets WINDOW 5s", NodeAddr(0), 60_000_000).is_err());
    // A slide longer than its window would skip the rows between windows,
    // and a zero duration means nothing: both are errors, not a clamp.
    for clause in [
        "WINDOW 1s SLIDE 5s",
        "WINDOW 0s",
        "WINDOW 0ms SLIDE 0ms",
        "WINDOW 2s SLIDE 0s",
        "WINDOW 2s EVERY 0s",
    ] {
        let sql = format!("SELECT src, COUNT(*) FROM packets GROUP BY src {clause}");
        let err = sqlish::compile(&sql, NodeAddr(0), 60_000_000).expect_err(clause);
        assert!(
            err.0.contains("SLIDE") || err.0.contains("positive"),
            "{clause}: {err:?}"
        );
    }
    // A slide equal to the window tumbles; a shorter one slides.
    for (clause, tumbling) in [("WINDOW 2s SLIDE 2s", true), ("WINDOW 5s SLIDE 2s", false)] {
        let sql = format!("SELECT src, COUNT(*) FROM packets GROUP BY src {clause}");
        let plan = sqlish::compile(&sql, NodeAddr(0), 60_000_000).expect(clause);
        match &plan.opgraphs[0].sink {
            SinkSpec::WindowedAgg { window, .. } => assert_eq!(window.is_tumbling(), tumbling),
            other => panic!("expected a windowed sink, got {other:?}"),
        }
    }
}

#[test]
fn continuous_sliding_window_aggregate_runs_for_fifty_windows() {
    let mut cfg = ContinuousNetmonConfig::steady(10, 56, 42);
    cfg.sql =
        "SELECT src, COUNT(*) FROM packets GROUP BY src WINDOW 2s SLIDE 1s EVERY 5s".to_string();
    let outcome = continuous_netmon(&cfg);

    assert!(
        outcome.windows.len() >= 50,
        "expected ≥50 emitted windows, got {}",
        outcome.windows.len()
    );
    assert!(outcome.tuples_per_sec >= 50.0, "sustained ingest too low");

    // Per-window totals must track the generated ground truth closely in a
    // steady (churn-free) run.  Skip the ramp-up/tail windows.
    let mut checked = 0;
    for (&window, &generated) in &outcome.generated {
        let (start, end) = window;
        if start < 4_000_000 || end + 6_000_000 > 56_000_000 {
            continue;
        }
        let delivered = outcome.total_for(window);
        assert!(
            delivered as f64 >= 0.9 * generated as f64,
            "window [{start},{end}) delivered {delivered} of {generated}"
        );
        assert!(
            delivered as u64 <= generated,
            "window [{start},{end}) over-counted: {delivered} > {generated}"
        );
        checked += 1;
    }
    assert!(checked >= 40, "too few steady windows checked: {checked}");

    // Results arrive promptly after each window closes.
    assert!(
        outcome.mean_window_latency_secs < 6.0,
        "mean per-window latency {} too high",
        outcome.mean_window_latency_secs
    );

    // Per-node state stays bounded: open windows within the default budget,
    // and the delta tracker retains only the refinement horizon.
    let budget = CqBudget::default();
    let (open, groups, tracked) = outcome.max_node_state;
    assert!(open <= budget.max_open_windows as usize + 1, "open {open}");
    assert!(
        groups <= 2 * 64 * (budget.max_open_windows as usize + 1),
        "groups {groups}"
    );
    assert!(tracked <= 16, "tracked emissions {tracked}");
}

#[test]
fn continuous_query_survives_node_churn() {
    let mut cfg = ContinuousNetmonConfig::steady(12, 60, 7);
    // Kill 3 non-proxy nodes at t=25s and boot 2 fresh nodes.
    cfg.churn = Some((25, 3, 2));
    let outcome = continuous_netmon(&cfg);

    // Windows keep closing after the churn event...
    let after_churn: Vec<_> = outcome
        .windows
        .keys()
        .filter(|(start, _)| *start > 30_000_000)
        .collect();
    assert!(
        after_churn.len() >= 20,
        "only {} windows emitted after churn",
        after_churn.len()
    );
    // ...every window of the healing period still emits with bounded error
    // (killed nodes' in-flight state is lost and routes take a few seconds
    // of fail-stop detection to heal)...
    let mut healing = 0;
    for (&window, &generated) in &outcome.generated {
        let (start, end) = window;
        if !(22_000_000..40_000_000).contains(&start) {
            continue;
        }
        let delivered = outcome.total_for(window);
        assert!(
            delivered as f64 >= 0.2 * generated as f64,
            "healing window [{start},{end}) delivered {delivered} of {generated}"
        );
        assert!(delivered as u64 <= generated);
        healing += 1;
    }
    assert!(healing >= 15, "too few healing windows checked: {healing}");
    // ...and once routing heals, delivery returns to (near-)exact.
    let mut recovered = 0;
    for (&window, &generated) in &outcome.generated {
        let (start, end) = window;
        if start < 40_000_000 || end + 8_000_000 > 60_000_000 {
            continue;
        }
        let delivered = outcome.total_for(window);
        assert!(
            delivered as f64 >= 0.95 * generated as f64,
            "recovered window [{start},{end}) delivered {delivered} of {generated}"
        );
        assert!(delivered as u64 <= generated);
        recovered += 1;
    }
    assert!(
        recovered >= 10,
        "too few recovered windows checked: {recovered}"
    );
}

#[test]
fn delta_mode_retracts_refined_rows() {
    // Snapshot vs deltas on the same stream: delta mode may retract rows
    // when late partials refine a window; rows that survive must agree.
    let mut cfg = ContinuousNetmonConfig::steady(8, 20, 99);
    cfg.sql = "SELECT src, COUNT(*) FROM packets GROUP BY src WINDOW 2s SLIDE 1s EVERY 5s DELTAS"
        .to_string();
    let outcome = continuous_netmon(&cfg);
    assert!(outcome.windows.len() >= 15);
    // Every surviving row carries the window bounds and a count.
    for ((start, end), w) in &outcome.windows {
        for row in &w.rows {
            assert_eq!(
                row.get("window_start").and_then(Value::as_i64),
                Some(*start as i64)
            );
            assert_eq!(
                row.get("window_end").and_then(Value::as_i64),
                Some(*end as i64)
            );
            assert!(row.get("count").and_then(Value::as_i64).unwrap_or(0) > 0);
        }
    }
}

#[test]
fn on_a_quiet_lan_each_window_is_answered_once_right_after_it_closes() {
    // 16 nodes, each ingesting rows of eight sources every 250 ms for 20 s.
    // Every engine ticks at the window closes, each window's end, and a
    // relay or the root holds only until the children it heard last round
    // have shipped again: with nothing lost or late, the root emits each
    // window once, a few link latencies after its end, never as late as
    // the hold's bound of half a slide.
    const SEC: u64 = 1_000_000;
    const MS: u64 = 1_000;
    let mut cluster = Cluster::start(&ClusterConfig::lan(16, seeded(45)));
    let proxy = cluster.addr(0);
    let sql = "SELECT src, COUNT(*) FROM packets GROUP BY src WINDOW 2s SLIDE 1s";
    let plan = sqlish::compile(sql, proxy, 120 * SEC).expect("compiles");
    cluster.sim.invoke(proxy, |n, ctx| {
        n.submit_query(ctx, plan);
    });
    cluster.settle(SEC);
    let begin = cluster.sim.now();
    let mut rng = Rng64::new(seeded(46));
    while cluster.sim.now() < begin + 20 * SEC {
        let now = cluster.sim.now();
        for i in 0..cluster.len() {
            let addr = cluster.addr(i);
            for _ in 0..4 {
                let src = format!("10.0.0.{}", rng.next_below(8));
                let fields = vec![("src", Value::str(src)), ("ts", Value::Int(now as i64))];
                let row = Tuple::new("packets", fields);
                cluster
                    .sim
                    .invoke(addr, |n, ctx| n.ingest(ctx, "packets", row));
            }
        }
        cluster.sim.run_for(SEC / 4);
    }
    cluster.sim.run_for(5 * SEC);

    // The windows wholly inside the stream, past its first round (whose
    // children's partials land after everyone released at once).
    let steady = |start: SimTime, end: SimTime| start >= begin + 2 * SEC && end <= begin + 20 * SEC;
    let mut arrivals: BTreeMap<(SimTime, String), u32> = BTreeMap::new();
    for out in cluster.sim.drain_outputs() {
        let PierOut::WindowResult {
            window_start,
            window_end,
            retract: false,
            tuple,
            ..
        } = out.value
        else {
            continue;
        };
        if !steady(window_start, window_end) {
            continue;
        }
        let latency = out.time - window_end;
        assert!(
            latency <= 10 * MS,
            "window [{window_start}, {window_end}) answered {latency} µs after its end"
        );
        let src = tuple.get("src").and_then(Value::as_str).expect("a src");
        *arrivals.entry((window_start, src.to_string())).or_default() += 1;
    }
    let windows = arrivals.keys().map(|(start, _)| start);
    let windows = windows.collect::<std::collections::BTreeSet<_>>().len();
    assert!(windows >= 15, "only {windows} steady windows answered");
    let repeated: Vec<_> = arrivals.iter().filter(|(_, &n)| n != 1).collect();
    assert!(
        repeated.is_empty(),
        "rows answered more than once: {repeated:?}"
    );
}
