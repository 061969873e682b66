//! Proxy-side query state lives from `submit_query` to `Done` and no
//! longer: a finished query leaves nothing behind at its proxy, and neither
//! a result that straggles in after `Done` nor a pull for its plan
//! resurrects the entry.  And what a proxy is sent it does not trust: a
//! window message whose run directory does not describe its batch is
//! dropped whole — never half-delivered, never a panic.

use pier::harness::{Cluster, ClusterConfig};
use pier::qp::{
    sqlish, Column, ColumnChunk, Directory, MemberRun, PierMsg, PierNode, PierOut, Proxy,
    TelemetryConfig, Tuple, TupleBatch, Value, WindowBundle, WindowRuns,
};
use pier::runtime::{Action, Context, NodeAddr, Program};
use proptest::prelude::*;
use std::sync::Arc;

mod common;
use common::{emission, seeded};

const SEC: u64 = 1_000_000;

fn proxied(cluster: &Cluster) -> usize {
    (0..cluster.len())
        .filter_map(|i| cluster.sim.node(cluster.addr(i)))
        .map(PierNode::proxied_queries)
        .sum()
}

fn row() -> Tuple {
    Tuple::new("readings", vec![("v", Value::Int(1))])
}

/// One inserted row for each of `queries` in one window of a message, as a
/// window root would report them.
fn window_results(queries: &[u64]) -> PierMsg {
    let mut bundle = WindowBundle::default();
    for &query_id in queries {
        bundle.push(emission(query_id, (0, SEC), vec![], vec![row()]), None);
    }
    PierMsg::WindowResults(bundle)
}

fn done_count(cluster: &mut Cluster) -> usize {
    cluster
        .sim
        .drain_outputs()
        .iter()
        .filter(|o| matches!(o.value, PierOut::Done { .. }))
        .count()
}

#[test]
fn a_thousand_lifecycles_leave_no_proxy_state_behind() {
    let mut cluster = Cluster::start(&ClusterConfig::lan(4, 3));
    let _ = cluster.sim.drain_outputs();
    let (mut submitted, mut done) = (0usize, 0usize);
    // 20 submissions per 100 ms round, alternating one-shot and standing
    // queries, each living 2 s: some 400 are live at the plateau.
    for round in 0..50 {
        for i in 0..20 {
            let proxy = cluster.addr(i % cluster.len());
            let sql = if i % 2 == 0 {
                "SELECT * FROM readings"
            } else {
                "SELECT src, COUNT(*) FROM packets GROUP BY src WINDOW 1s SLIDE 1s EVERY 1s"
            };
            let plan = sqlish::compile(sql, proxy, 2 * SEC).expect("test query compiles");
            cluster.sim.invoke(proxy, |node, ctx| {
                node.submit_query(ctx, plan);
            });
            submitted += 1;
        }
        cluster.sim.run_for(SEC / 10);
        done += done_count(&mut cluster);
        assert_eq!(proxied(&cluster), submitted - done, "round {round}");
    }
    assert!(done > 0 && done < submitted, "the run must reach a plateau");
    cluster.sim.run_for(3 * SEC);
    done += done_count(&mut cluster);
    assert_eq!((submitted, done), (1000, 1000));
    assert_eq!(proxied(&cluster), 0, "every finished query's entry is gone");
}

#[test]
fn a_result_after_done_is_dropped_and_does_not_resurrect_the_entry() {
    let mut cluster = Cluster::start(&ClusterConfig::lan(3, 7));
    let proxy = cluster.addr(0);
    let plan = sqlish::compile("SELECT * FROM readings", proxy, SEC).expect("compiles");
    let mut query_id = 0;
    cluster
        .sim
        .invoke(proxy, |node, ctx| query_id = node.submit_query(ctx, plan));

    // Hand the proxy a snapshot result and a window result, as a remote
    // node would, and count what reaches the client.
    let deliver = |cluster: &mut Cluster| -> usize {
        let now = cluster.sim.now();
        cluster
            .sim
            .with_node_mut(proxy, |node| {
                let mut ctx = Context::new(now, proxy);
                let rows = TupleBatch::new(vec![row()]);
                node.on_message(&mut ctx, NodeAddr(1), PierMsg::Results { query_id, rows });
                node.on_message(&mut ctx, NodeAddr(1), window_results(&[query_id]));
                ctx.pending()
            })
            .expect("proxy alive")
    };
    assert_eq!(
        deliver(&mut cluster),
        2,
        "a live query's results are delivered"
    );

    cluster.sim.run_for(2 * SEC);
    assert_eq!(done_count(&mut cluster), 1);
    assert_eq!(deliver(&mut cluster), 0, "late results are suppressed");
    assert_eq!(proxied(&cluster), 0, "and the entry stays gone");
}

/// Two standing queries at one proxy, the shorter-lived already `Done`:
/// what the proxy does with a message naming both.
fn one_live_one_finished(seed: u64) -> (Cluster, NodeAddr, u64, u64) {
    let mut cluster = Cluster::start(&ClusterConfig::lan(3, seed));
    let proxy = cluster.addr(0);
    let sql = "SELECT src, COUNT(*) FROM packets GROUP BY src WINDOW 1s SLIDE 1s EVERY 1s";
    let mut ids = [0; 2];
    for (id, life) in ids.iter_mut().zip([SEC, 30 * SEC]) {
        let plan = sqlish::compile(sql, proxy, life).expect("compiles");
        cluster
            .sim
            .invoke(proxy, |node, ctx| *id = node.submit_query(ctx, plan));
    }
    cluster.sim.run_for(2 * SEC);
    assert_eq!(done_count(&mut cluster), 1, "the short query is done");
    (cluster, proxy, ids[0], ids[1])
}

#[test]
fn a_bundle_naming_a_finished_member_delivers_the_live_member_only() {
    let (mut cluster, proxy, finished, live) = one_live_one_finished(11);
    let now = cluster.sim.now();
    let outputs = cluster
        .sim
        .with_node_mut(proxy, |node| {
            let mut ctx = Context::new(now, proxy);
            node.on_message(&mut ctx, NodeAddr(1), window_results(&[finished, live]));
            ctx.into_actions()
        })
        .expect("proxy alive");
    let delivered: Vec<u64> = outputs
        .iter()
        .map(|action| match action {
            Action::Output(PierOut::WindowResult { query_id, .. }) => *query_id,
            other => panic!("only the live member's row is delivered, got {other:?}"),
        })
        .collect();
    assert_eq!(delivered, vec![live]);
    assert_eq!(
        proxied(&cluster),
        1,
        "no entry appears for the finished one"
    );
}

#[test]
fn a_pull_for_a_finished_query_is_not_answered() {
    let (mut cluster, proxy, finished, live) = one_live_one_finished(13);
    let now = cluster.sim.now();
    let mut pull = |queries: Vec<u64>| {
        cluster
            .sim
            .with_node_mut(proxy, |node| {
                let mut ctx = Context::new(now, proxy);
                node.on_message(&mut ctx, NodeAddr(1), PierMsg::PlanRequest { queries });
                ctx.into_actions()
            })
            .expect("proxy alive")
    };
    assert!(
        pull(vec![finished]).is_empty(),
        "nothing is sent for a finished query"
    );
    let reply = pull(vec![finished, live]);
    let [Action::Send {
        to,
        msg: PierMsg::Plans { plans },
    }] = &reply[..]
    else {
        panic!("one reply carrying plans, got {reply:?}");
    };
    assert_eq!(*to, NodeAddr(1));
    let served: Vec<u64> = plans.iter().map(|p| p.query_id).collect();
    assert_eq!(served, vec![live], "only the live query's plan is served");
    assert!(
        plans[0].timeout < 30 * SEC && plans[0].timeout >= 27 * SEC,
        "stamped with the remaining lifetime, got {}",
        plans[0].timeout
    );
}

// ----- a window message is data from the wire ----------------------------------

const LIVE: [u64; 2] = [1, 2];
const FINISHED: u64 = 3;

/// A proxy with queries 1 and 2 standing, 3 finished and 4 never heard of.
fn two_live_one_finished() -> Proxy {
    let sql = "SELECT src, COUNT(*) FROM packets GROUP BY src WINDOW 1s SLIDE 1s";
    let mut plan = sqlish::compile(sql, NodeAddr(0), 60 * SEC).expect("compiles");
    let mut proxy = Proxy::default();
    for id in [1, 2, FINISHED] {
        plan.query_id = id;
        proxy.submit(&plan, 0);
    }
    assert!(proxy.done(FINISHED));
    proxy
}

/// A chunk of `rows` rows of `v = tag` under one of two schemas; `broken`
/// gives it one column more than its schema has.
fn chunk(schema: bool, rows: usize, tag: i64, broken: bool) -> ColumnChunk {
    let table = if schema {
        "g00000000000000e1.win"
    } else {
        "q9.win"
    };
    let schema = Arc::clone(Tuple::new(table, vec![("v", Value::Int(0))]).schema());
    let column = || Column::from_values(vec![Value::Int(tag); rows]);
    let columns = if broken {
        vec![column(), column()]
    } else {
        vec![column()]
    };
    ColumnChunk::from_parts_unchecked(schema, columns, rows)
}

proptest! {
    /// Arbitrary directories over arbitrary batches: the proxy delivers all
    /// of a message or none of it, and says which by a model kept here —
    /// the windows ascend, none is empty, their runs are the directory's,
    /// the counts sum to the rows, every chunk is sound, no member's run
    /// crosses from one schema into another.
    #[test]
    fn a_malformed_window_message_is_dropped_whole(
        chunks in proptest::collection::vec(((any::<bool>(), 0usize..6), 0u8..8), 0..5),
        runs in proptest::collection::vec((1u64..5, 0u32..4, 0u32..6), 0..6),
        windows in proptest::collection::vec((0u64..4, 0u32..4), 0..4),
        exact: bool,
    ) {
        let mut rows = TupleBatch::default();
        let mut schema_of_row = Vec::new();
        let mut sound = true;
        for (i, ((schema, len), damage)) in chunks.into_iter().enumerate() {
            // One chunk in eight is broken (an empty one never travels).
            let broken = damage == 0 && len > 0;
            sound &= !broken;
            rows.push_chunk(chunk(schema, len, i as i64, broken));
            schema_of_row.extend(std::iter::repeat_n(schema, len));
        }
        let mut runs: Vec<MemberRun> = runs
            .into_iter()
            .map(|(query_id, retracts, inserts)| MemberRun { query_id, retracts, inserts, trace: None })
            .collect();
        let mut windows: Vec<WindowRuns> = windows
            .into_iter()
            .map(|(start, runs)| WindowRuns {
                window_start: start * SEC,
                window_end: (start + 2) * SEC,
                runs,
            })
            .collect();
        if exact {
            // Make the counts add up and the windows ascend, so the other
            // rules get exercised.
            let named: usize = runs.iter().map(|m| (m.retracts + m.inserts) as usize).sum();
            if named < rows.len() {
                let inserts = (rows.len() - named) as u32;
                runs.push(MemberRun { query_id: 2, retracts: 0, inserts, trace: None });
            }
            windows.sort_by_key(|w| w.window_start);
            windows.dedup_by_key(|w| w.window_start);
            if windows.is_empty() {
                windows.push(WindowRuns { window_start: 0, window_end: 2 * SEC, runs: 0 });
            }
            windows.truncate(runs.len());
            let spare = runs.len().saturating_sub(windows.len());
            for w in &mut windows {
                w.runs = 1;
            }
            if let Some(w) = windows.last_mut() {
                w.runs += spare as u32;
            }
        }
        let directory = Directory { windows, runs };
        let mut at = 0;
        let mut expected = Vec::new();
        let mut partitioned = true;
        for (w, m) in directory.windowed() {
            let run = at..at + (m.retracts + m.inserts) as usize;
            at = run.end;
            match schema_of_row.get(run) {
                Some(of) => partitioned &= of.windows(2).all(|w| w[0] == w[1]),
                None => partitioned = false,
            }
            if LIVE.contains(&m.query_id) {
                let rows = (m.retracts + m.inserts) as usize;
                expected.extend(std::iter::repeat_n((m.query_id, w.window_start), rows));
            }
        }
        let bounds = |w: &WindowRuns| (w.window_start, w.window_end);
        let counted: u32 = directory.windows.iter().map(|w| w.runs).sum();
        let shaped = directory.windows.windows(2).all(|p| bounds(&p[0]) < bounds(&p[1]))
            && directory.windows.iter().all(|w| w.runs > 0)
            && counted as usize == directory.runs.len();
        let well_formed = sound && shaped && partitioned && at == rows.len();

        let mut proxy = two_live_one_finished();
        let outs = proxy.receive_window(&WindowBundle { rows: rows.clone(), directory });
        prop_assert_eq!(outs.is_some(), well_formed);
        let outs = outs.unwrap_or_default();
        prop_assert!(outs.len() <= rows.len());
        let mut got = Vec::new();
        for out in &outs {
            let PierOut::WindowResult { query_id, window_start, window_end, tuple, .. } = out else {
                panic!("a window message delivers window results, got {out:?}");
            };
            prop_assert!(LIVE.contains(query_id));
            prop_assert_eq!(*window_end, window_start + 2 * SEC);
            prop_assert_eq!(tuple.table(), format!("q{query_id}.win"));
            prop_assert_eq!(tuple.columns(), ["window_start", "window_end", "v"]);
            got.push((*query_id, *window_start));
        }
        if well_formed {
            prop_assert_eq!(got, expected);
        }
        prop_assert_eq!(proxy.len(), 2, "no entry appears for anyone");
    }

    /// The mixed bundle, on `Proxy` alone: a well-formed message naming a
    /// finished member between two live ones drops exactly that member's
    /// rows, retractions and inserts, and keeps the others' in order.
    #[test]
    fn a_finished_members_run_is_skipped_and_nothing_else(
        counts in proptest::collection::vec((0u32..4, 0u32..5), 3..4),
    ) {
        let mut bundle = WindowBundle::default();
        let mut expected = Vec::new();
        for (&query_id, &(retracts, inserts)) in [1, FINISHED, 2].iter().zip(&counts) {
            let rows = |n: u32, tag: i64| -> Vec<Tuple> {
                let row = |i| Tuple::new("g00000000000000e1.win", vec![("v", Value::Int(tag + i))]);
                (0..i64::from(n)).map(row).collect()
            };
            let tag = query_id as i64 * 100;
            let e = emission(query_id, (0, SEC), rows(retracts, tag), rows(inserts, tag + 50));
            bundle.push(e, None);
            if query_id != FINISHED {
                expected.extend((0..i64::from(retracts)).map(|i| (query_id, true, tag + i)));
                expected.extend((0..i64::from(inserts)).map(|i| (query_id, false, tag + 50 + i)));
            }
        }
        let mut proxy = two_live_one_finished();
        let outs = proxy.receive_window(&bundle);
        let got: Vec<(u64, bool, i64)> = outs
            .expect("well-formed")
            .iter()
            .map(|out| match out {
                PierOut::WindowResult { query_id, retract, tuple, .. } => {
                    (*query_id, *retract, tuple.get("v").and_then(Value::as_i64).expect("v"))
                }
                other => panic!("got {other:?}"),
            })
            .collect();
        prop_assert_eq!(got, expected);
    }
}

#[test]
fn a_node_counts_a_malformed_message_and_delivers_nothing_of_it() {
    let cfg = ClusterConfig::lan(3, seeded(17)).with_telemetry(TelemetryConfig::enabled());
    let mut cluster = Cluster::start(&cfg);
    let proxy = cluster.addr(0);
    let sql = "SELECT src, COUNT(*) FROM packets GROUP BY src WINDOW 1s SLIDE 1s EVERY 1s";
    let plan = sqlish::compile(sql, proxy, 30 * SEC).expect("compiles");
    let mut query_id = 0;
    cluster
        .sim
        .invoke(proxy, |node, ctx| query_id = node.submit_query(ctx, plan));
    let now = cluster.sim.now();
    let counter = "proxy.malformed_results";
    assert!(common::metric_documented(counter));
    let pending = cluster
        .sim
        .with_node_mut(proxy, |node| {
            let mut ctx = Context::new(now, proxy);
            // Two rows, a directory that names three.
            let mut short = WindowBundle::default();
            short.push(
                emission(query_id, (0, SEC), vec![], vec![row(), row()]),
                None,
            );
            short.directory.runs[0].inserts = 3;
            // A chunk with a column its schema does not have, both ways.
            let broken = TupleBatch::from_chunks(vec![chunk(true, 2, 0, true)]);
            let directory = Directory {
                windows: vec![WindowRuns {
                    window_start: 0,
                    window_end: SEC,
                    runs: 1,
                }],
                runs: vec![MemberRun {
                    query_id,
                    retracts: 0,
                    inserts: 2,
                    trace: None,
                }],
            };
            for msg in [
                PierMsg::WindowResults(short),
                PierMsg::WindowResults(WindowBundle {
                    rows: broken.clone(),
                    directory,
                }),
                PierMsg::Results {
                    query_id,
                    rows: broken,
                },
            ] {
                node.on_message(&mut ctx, NodeAddr(1), msg);
            }
            assert_eq!(node.telemetry().counter(counter), 3);
            // A sound message still gets through afterwards.
            node.on_message(&mut ctx, NodeAddr(1), window_results(&[query_id]));
            assert_eq!(node.telemetry().counter(counter), 3);
            ctx.pending()
        })
        .expect("proxy alive");
    assert_eq!(
        pending, 1,
        "only the sound message's row reaches the client"
    );
}
