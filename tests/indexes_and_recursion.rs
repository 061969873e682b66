//! Integration tests for the distributed index types of §3.3.3 beyond the
//! equality index — the PHT-style range index and secondary indexes — and
//! for recursive (reachability) queries evaluated as rounds of distributed
//! index joins (§3.3.2).  All of them drive full simulated PIER deployments
//! through the public `pier` facade.

mod common;

use common::seeded;
use pier::harness::{recursion, Cluster, ClusterConfig};
use pier::qp::{
    range_index::range_scan_plan, secondary_index, Dissemination, Expr, PlanBuilder,
    RangeIndexConfig, Tuple, Value,
};

fn reading(i: i64, temp: i64) -> Tuple {
    Tuple::new(
        "readings",
        vec![
            ("sensor", Value::Str(format!("s{i}").into())),
            ("temp", Value::Int(temp)),
        ],
    )
}

#[test]
fn range_index_returns_exactly_the_rows_in_range() {
    let mut cluster = Cluster::start(&ClusterConfig::lan(24, seeded(31)));
    let config = RangeIndexConfig::new(5, 16);
    let mut expected = 0usize;
    for i in 0..300i64 {
        let temp = (i * 219) % 65_536;
        if (10_000..=20_000).contains(&temp) {
            expected += 1;
        }
        let from = cluster.addr((i as usize) % cluster.len());
        cluster.publish_range_indexed(from, "readings", "temp", config, reading(i, temp));
    }
    cluster.settle(4_000_000);
    let proxy = cluster.addr(2);
    let plan = range_scan_plan(
        proxy,
        "readings",
        "temp",
        10_000,
        20_000,
        config,
        vec!["sensor".into(), "temp".into()],
        12_000_000,
    );
    assert!(matches!(plan.dissemination, Dissemination::ByRange { .. }));
    let outcome = cluster.run_query(proxy, plan);
    assert_eq!(outcome.results.len(), expected, "range scan must be exact");
    for t in outcome.tuples() {
        let temp = t.get("temp").and_then(pier::qp::Value::as_i64).unwrap();
        assert!((10_000..=20_000).contains(&temp), "out-of-range row {t}");
    }
    assert!(
        expected > 0,
        "the workload must place rows inside the range"
    );
}

#[test]
fn range_queries_tolerate_malformed_rows() {
    let mut cluster = Cluster::start(&ClusterConfig::lan(12, seeded(8)));
    let config = RangeIndexConfig::new(4, 16);
    // Well-formed rows.
    for i in 0..20i64 {
        let from = cluster.addr((i as usize) % cluster.len());
        cluster.publish_range_indexed(from, "readings", "temp", config, reading(i, 1_000 + i));
    }
    // Malformed rows: missing or non-integer temp — silently not indexed.
    let from = cluster.addr(0);
    cluster.publish_range_indexed(
        from,
        "readings",
        "temp",
        config,
        Tuple::new("readings", vec![("sensor", Value::Str("broken".into()))]),
    );
    cluster.publish_range_indexed(
        from,
        "readings",
        "temp",
        config,
        Tuple::new("readings", vec![("temp", Value::Str("hot".into()))]),
    );
    cluster.settle(3_000_000);
    let proxy = cluster.addr(1);
    let outcome = cluster.run_query(
        proxy,
        range_scan_plan(
            proxy,
            "readings",
            "temp",
            0,
            65_535,
            config,
            vec![],
            10_000_000,
        ),
    );
    assert_eq!(
        outcome.results.len(),
        20,
        "only the well-formed rows are visible"
    );
}

#[test]
fn secondary_index_semi_join_matches_broadcast_scan() {
    let mut cluster = Cluster::start(&ClusterConfig::lan(20, seeded(17)));
    let key_cols = vec!["file".to_string()];
    let index_cols = vec!["keyword".to_string()];
    for i in 0..80usize {
        let keyword = if i % 10 == 0 { "needle" } else { "hay" };
        let tuple = Tuple::new(
            "files",
            vec![
                ("file", Value::Str(format!("f{i}").into())),
                ("keyword", Value::str(keyword)),
            ],
        );
        let from = cluster.addr(i % cluster.len());
        cluster.publish_with_secondary_indexes(from, "files", &key_cols, &index_cols, tuple);
    }
    cluster.settle(4_000_000);
    let proxy = cluster.addr(4);
    let scan = cluster.run_query(
        proxy,
        PlanBuilder::select(
            proxy,
            "files",
            Expr::eq("keyword", "needle"),
            vec![],
            10_000_000,
        ),
    );
    let via_index = cluster.run_query(
        proxy,
        secondary_index::lookup_plan(
            proxy,
            "files",
            "keyword",
            Value::Str("needle".into()),
            10_000_000,
        ),
    );
    assert_eq!(scan.results.len(), 8);
    assert_eq!(via_index.results.len(), 8);
    // The semi-join results carry the base table's columns.
    for t in via_index.tuples() {
        assert!(t.get("file").is_some(), "base columns must be present: {t}");
    }
}

#[test]
fn distributed_reachability_agrees_with_local_closure_across_seeds() {
    for seed in [1, 9] {
        let result = recursion::distributed_reachability(10, 16, 2, seeded(seed));
        assert!(
            result.matches_reference,
            "seed {seed}: distributed {} vs reference {}",
            result.reached_distributed, result.reached_reference
        );
    }
}
