//! Proxy-side query state lives from `submit_query` to `Done` and no
//! longer: a finished query leaves nothing behind at its proxy, and neither
//! a result that straggles in after `Done` nor a pull for its plan
//! resurrects the entry.

use pier::harness::{Cluster, ClusterConfig};
use pier::qp::{sqlish, MemberResults, PierMsg, PierNode, PierOut, Tuple, Value};
use pier::runtime::{Action, Context, NodeAddr, Program};

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

/// One inserted row for `query_id`, as a window root would report it.
fn member(query_id: u64) -> MemberResults {
    MemberResults {
        query_id,
        retracts: vec![],
        inserts: vec![row()],
        trace: None,
    }
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
                let tuples = vec![row()];
                node.on_message(&mut ctx, NodeAddr(1), PierMsg::Results { query_id, tuples });
                node.on_message(
                    &mut ctx,
                    NodeAddr(1),
                    PierMsg::WindowResults {
                        window_start: 0,
                        window_end: SEC,
                        members: vec![member(query_id)],
                    },
                );
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
            let results = PierMsg::WindowResults {
                window_start: 0,
                window_end: SEC,
                members: vec![member(finished), member(live)],
            };
            node.on_message(&mut ctx, NodeAddr(1), results);
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
