//! Distributed-index experiments: the range index (EXP-G) and secondary
//! indexes (EXP-J).
//!
//! §3.3.3 describes three distributed indexes — the broadcast tree, the
//! equality index (the DHT itself) and the PHT range index — plus secondary
//! indexes built as `(index-key, tupleID)` tables.  The existing EXP-C
//! ablation covers broadcast vs equality; these drivers cover the remaining
//! two:
//!
//! * **EXP-G** — a range query answered by broadcasting to every node vs by
//!   disseminating only to the range-index buckets overlapping the
//!   predicate.  Both must return the same rows; the interesting metrics are
//!   messages and the number of nodes contacted.
//! * **EXP-J** — an equality lookup on a *non*-partitioning column answered
//!   by broadcasting a selection over the base table vs by the secondary
//!   index semi-join (index partition → Fetch Matches into the base table).

use crate::cluster::{Cluster, ClusterConfig};
use crate::{slug, Table};
use pier_core::{
    range_index::range_scan_plan, secondary_index, Expr, OpGraph, OperatorSpec, PlanBuilder,
    RangeIndexConfig, SinkSpec, SourceSpec, TelemetryConfig, Tuple, Value,
};
use pier_runtime::Rng64;

/// A LAN cluster whose nodes count what they send, so a query window's
/// stabilization traffic can be told from the query's.
fn measured(nodes: usize, seed: u64) -> ClusterConfig {
    ClusterConfig::lan(nodes, seed).with_telemetry(TelemetryConfig::enabled())
}

/// Let the ring and the distribution tree settle after the publishes, then
/// open the query window: traffic counters reset, and the stabilization
/// messages sent so far returned.
fn settle_for_query(cluster: &mut Cluster) -> u64 {
    cluster.settle(18_000_000);
    cluster.reset_stats();
    cluster.telemetry_summary().maintenance_msgs_sent
}

/// The messages of the query window opened by [`settle_for_query`] (which
/// returned `maintenance`) less the stabilization messages sent inside it.
fn query_msgs(cluster: &Cluster, maintenance: u64) -> u64 {
    let in_window = cluster.telemetry_summary().maintenance_msgs_sent - maintenance;
    cluster.sim.stats().total_msgs - in_window
}

/// One row of the EXP-G output.
#[derive(Debug, Clone)]
pub struct RangeDisseminationResult {
    /// Network size.
    pub nodes: usize,
    /// Fraction of the key domain the query's range covers.
    pub range_fraction: f64,
    /// "broadcast" or "range-index".
    pub strategy: String,
    /// Range-index buckets the query was shipped to (0 for broadcast).
    pub buckets: usize,
    /// Query-related messages: every message of the query window less the
    /// stabilization messages sent inside that same window.
    pub messages: u64,
    /// Nodes that had the opgraph installed just before the timeout.
    pub nodes_running_query: usize,
    /// Result rows returned.
    pub results: usize,
}

/// Run EXP-G: a range scan over a `readings(sensor, temp)` table published
/// through the range index, answered with and without range dissemination.
pub fn range_dissemination(
    nodes: usize,
    rows: usize,
    range_fraction: f64,
    seed: u64,
) -> Vec<RangeDisseminationResult> {
    let config = RangeIndexConfig::new(6, 16);
    let domain = 1u64 << config.domain_bits;
    let lo = (domain as f64 * 0.30) as i64;
    let hi = lo + (domain as f64 * range_fraction) as i64;
    let mut out = Vec::new();
    for strategy in ["broadcast", "range-index"] {
        let mut cluster = Cluster::start(&measured(nodes, seed));
        let mut rng = Rng64::new(seed ^ 0x6A17);
        for i in 0..rows {
            let temp = (rng.next_below(domain)) as i64;
            let tuple = Tuple::new(
                "readings",
                vec![
                    ("sensor", Value::Str(format!("sensor-{i}").into())),
                    ("temp", Value::Int(temp)),
                ],
            );
            let from = cluster.addr(i % cluster.len());
            cluster.publish_range_indexed(from, "readings", "temp", config, tuple);
        }
        let maintenance = settle_for_query(&mut cluster);
        let proxy = cluster.addr(1);
        let plan = if strategy == "range-index" {
            range_scan_plan(
                proxy,
                "readings",
                "temp",
                lo,
                hi,
                config,
                vec!["sensor".into(), "temp".into()],
                10_000_000,
            )
        } else {
            PlanBuilder::select(
                proxy,
                "readings",
                Expr::all(vec![
                    Expr::cmp(pier_core::CmpOp::Ge, Expr::col("temp"), Expr::lit(lo)),
                    Expr::cmp(pier_core::CmpOp::Le, Expr::col("temp"), Expr::lit(hi)),
                ]),
                vec!["sensor".into(), "temp".into()],
                10_000_000,
            )
        };
        let buckets = match &plan.dissemination {
            pier_core::Dissemination::ByRange { bucket_keys, .. } => bucket_keys.len(),
            _ => 0,
        };
        let (outcome, installed) = cluster.run_query_observed(proxy, plan);
        out.push(RangeDisseminationResult {
            nodes,
            range_fraction,
            strategy: strategy.to_string(),
            buckets,
            messages: query_msgs(&cluster, maintenance),
            nodes_running_query: installed,
            results: outcome.results.len(),
        });
    }
    out
}

/// The EXP-G table: 5 % and 20 % ranges on 32 to 128 nodes.
pub fn range_dissemination_table() -> String {
    let mut t = Table::new(
        "range_dissemination",
        "# EXP-G — range-index vs broadcast dissemination\n\
         # nodes  range%  strategy       buckets  messages  nodes_running_query  results",
    );
    for nodes in [32, 64, 128] {
        for fraction in [0.05, 0.20] {
            for row in range_dissemination(nodes, 400, fraction, 13) {
                t.line(format_args!(
                    "{:>6}  {:>5.0}%  {:<13} {:>7} {:>9} {:>19} {:>8}",
                    row.nodes,
                    row.range_fraction * 100.0,
                    row.strategy,
                    row.buckets,
                    row.messages,
                    row.nodes_running_query,
                    row.results
                ));
                if nodes == 128 {
                    let (strategy, pct) = (slug(&row.strategy), (fraction * 100.0) as u32);
                    t.metric(
                        &format!("messages_{strategy}_128_{pct}pct"),
                        row.messages as f64,
                    );
                }
            }
        }
    }
    t.finish()
}

/// One row of the EXP-J output.
#[derive(Debug, Clone)]
pub struct SecondaryIndexResult {
    /// Network size.
    pub nodes: usize,
    /// "broadcast-scan" or "secondary-index".
    pub strategy: String,
    /// Query-related messages (stabilization in the window subtracted).
    pub messages: u64,
    /// Nodes that had the opgraph installed just before the timeout.
    pub nodes_running_query: usize,
    /// Result rows returned.
    pub results: usize,
}

/// Run EXP-J: look up the files tagged with one keyword when the `files`
/// table is partitioned by file name, either by broadcasting the selection
/// or through the secondary index on `keyword`.
pub fn secondary_index_lookup(
    nodes: usize,
    files: usize,
    matching: usize,
    seed: u64,
) -> Vec<SecondaryIndexResult> {
    let key_cols = vec!["file".to_string()];
    let index_cols = vec!["keyword".to_string()];
    let mut out = Vec::new();
    for strategy in ["broadcast-scan", "secondary-index"] {
        let mut cluster = Cluster::start(&measured(nodes, seed));
        for i in 0..files {
            let keyword = if i < matching {
                "needle".to_string()
            } else {
                format!("kw-{}", i % 37)
            };
            let tuple = Tuple::new(
                "files",
                vec![
                    ("file", Value::Str(format!("file-{i}.dat").into())),
                    ("keyword", Value::Str(keyword.into())),
                    ("size", Value::Int((i as i64 % 900) + 100)),
                ],
            );
            let from = cluster.addr(i % cluster.len());
            cluster.publish_with_secondary_indexes(from, "files", &key_cols, &index_cols, tuple);
        }
        let maintenance = settle_for_query(&mut cluster);
        let proxy = cluster.addr(3);
        let plan = if strategy == "secondary-index" {
            secondary_index::lookup_plan(
                proxy,
                "files",
                "keyword",
                Value::Str("needle".into()),
                10_000_000,
            )
        } else {
            PlanBuilder::new(proxy)
                .timeout(10_000_000)
                .opgraph(OpGraph {
                    id: 0,
                    source: SourceSpec::Table {
                        namespace: "files".into(),
                    },
                    join: None,
                    ops: vec![OperatorSpec::Selection(Expr::eq("keyword", "needle"))],
                    sink: SinkSpec::ToProxy,
                })
                .build()
        };
        let (outcome, installed) = cluster.run_query_observed(proxy, plan);
        out.push(SecondaryIndexResult {
            nodes,
            strategy: strategy.to_string(),
            messages: query_msgs(&cluster, maintenance),
            nodes_running_query: installed,
            results: outcome.results.len(),
        });
    }
    out
}

/// The EXP-J table: both lookup strategies on 32 to 128 nodes.
pub fn secondary_index_table() -> String {
    let mut t = Table::new(
        "secondary_index",
        "# EXP-J — secondary-index semi-join vs broadcast scan\n\
         # nodes  strategy          messages  nodes_running_query  results",
    );
    for nodes in [32, 64, 128] {
        for row in secondary_index_lookup(nodes, 300, 12, 21) {
            t.line(format_args!(
                "{:>6}  {:<16} {:>9} {:>19} {:>8}",
                row.nodes, row.strategy, row.messages, row.nodes_running_query, row.results
            ));
            if nodes == 128 {
                let strategy = slug(&row.strategy);
                t.metric(&format!("messages_{strategy}_128"), row.messages as f64);
            }
        }
    }
    t.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn range_strategies_agree_on_the_answer() {
        let rows = range_dissemination(16, 60, 0.10, 11);
        assert_eq!(rows.len(), 2);
        assert_eq!(
            rows[0].results, rows[1].results,
            "broadcast and range dissemination must return the same rows: {rows:?}"
        );
        assert!(rows[1].buckets >= 1);
        assert!(rows[0].results > 0, "the range should select something");
    }

    #[test]
    fn secondary_index_finds_every_matching_file() {
        let rows = secondary_index_lookup(16, 40, 6, 5);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].results, 6, "broadcast scan finds the 6 needles");
        assert_eq!(rows[1].results, 6, "secondary index finds the 6 needles");
    }
}
