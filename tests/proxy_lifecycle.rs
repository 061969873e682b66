//! Proxy-side query state lives from `submit_query` to `Done` and no
//! longer: a finished query leaves nothing behind at its proxy, and a
//! result that straggles in after `Done` is dropped without resurrecting
//! the entry.

use pier::harness::{Cluster, ClusterConfig};
use pier::qp::{sqlish, PierMsg, PierNode, PierOut, Tuple, Value};
use pier::runtime::{Context, NodeAddr, Program};

const SEC: u64 = 1_000_000;

fn proxied(cluster: &Cluster) -> usize {
    (0..cluster.len())
        .filter_map(|i| cluster.sim.node(cluster.addr(i)))
        .map(PierNode::proxied_queries)
        .sum()
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
        let row = || Tuple::new("readings", vec![("v", Value::Int(1))]);
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
                        query_id,
                        window_start: 0,
                        window_end: SEC,
                        retracts: vec![],
                        inserts: vec![row()],
                        trace: None,
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
