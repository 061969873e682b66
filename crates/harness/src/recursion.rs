//! EXP-K — recursive (reachability) queries evaluated as rounds of
//! distributed index joins (§3.3.2).
//!
//! The paper supports cyclic UFL opgraphs for recursive queries and points
//! at declarative routing \[42\] as the motivating application: computing
//! which nodes are reachable from a given node over a distributed `links`
//! table.  This driver evaluates that query semi-naively over a simulated
//! PIER cluster:
//!
//! * every edge `(src, dst)` is published into the DHT hashed on `src` —
//!   the primary index a Fetch Matches join needs,
//! * each round, the current frontier is materialised as a node-local table
//!   at the proxy and a `Dissemination::Local` opgraph issues one Fetch
//!   Matches probe per frontier node against the `links` table, and
//! * the fetched edges advance a [`pier_core::recursive::ReachabilityRound`]
//!   until the frontier is empty (the fixpoint).
//!
//! The result is validated against the purely local
//! [`pier_core::TransitiveClosure`] fixpoint over the same edge set.

use crate::cluster::{Cluster, ClusterConfig};
use crate::Table;
use pier_core::recursive::ReachabilityRound;
use pier_core::{
    Dissemination, OpGraph, OperatorSpec, PlanBuilder, SinkSpec, SourceSpec, TransitiveClosure,
    Tuple, Value,
};
use pier_runtime::Rng64;

/// The outcome of one distributed reachability evaluation.
#[derive(Debug, Clone)]
pub struct ReachabilityResult {
    /// Number of PIER nodes in the cluster.
    pub nodes: usize,
    /// Number of edges published.
    pub edges: usize,
    /// Nodes reachable from the start according to the distributed rounds.
    pub reached_distributed: usize,
    /// Nodes reachable according to the local reference fixpoint.
    pub reached_reference: usize,
    /// Distributed rounds executed (frontier expansions + the final empty one).
    pub rounds: usize,
    /// Total messages across the whole evaluation.
    pub messages: u64,
    /// True when the distributed and reference answers are identical sets.
    pub matches_reference: bool,
}

/// Generate a random directed graph over `graph_nodes` labels with out-degree
/// roughly `degree`.
fn random_edges(graph_nodes: usize, degree: usize, seed: u64) -> Vec<(String, String)> {
    let mut rng = Rng64::new(seed ^ 0x6EA9);
    let mut edges = Vec::new();
    for i in 0..graph_nodes {
        for _ in 0..degree {
            let j = rng.index(graph_nodes);
            if i != j {
                edges.push((format!("h{i}"), format!("h{j}")));
            }
        }
    }
    edges.sort();
    edges.dedup();
    edges
}

/// Run EXP-K: publish a random `links` graph into a `nodes`-node cluster and
/// compute reachability from `h0` by rounds of distributed Fetch Matches
/// joins.
pub fn distributed_reachability(
    nodes: usize,
    graph_nodes: usize,
    degree: usize,
    seed: u64,
) -> ReachabilityResult {
    let edges = random_edges(graph_nodes, degree, seed);
    let mut cluster = Cluster::start(&ClusterConfig::lan(nodes, seed));
    let key_cols = vec!["src".to_string()];
    let mut reference = TransitiveClosure::new();
    for (i, (src, dst)) in edges.iter().enumerate() {
        let tuple = Tuple::new(
            "links",
            vec![("src", Value::str(src)), ("dst", Value::str(dst))],
        );
        reference.add_edge(src.clone(), dst.clone());
        let from = cluster.addr(i % cluster.len());
        cluster.publish(from, "links", &key_cols, tuple);
    }
    cluster.settle(5_000_000);
    cluster.reset_stats();

    let proxy = cluster.addr(0);
    let start = "h0";
    let mut rounds = ReachabilityRound::new(start, "src", "dst");
    let mut round_no = 0usize;
    // Semi-naive loop: one distributed index join per frontier expansion.
    while !rounds.done() && round_no < graph_nodes + 2 {
        let frontier_table = format!("reach.frontier.{round_no}");
        let output_table = format!("reach.step.{round_no}");
        for node_name in rounds.frontier() {
            cluster.add_local_row(
                proxy,
                &frontier_table,
                Tuple::new(
                    frontier_table.as_str(),
                    vec![("node", Value::str(node_name))],
                ),
            );
        }
        let plan = PlanBuilder::new(proxy)
            .dissemination(Dissemination::Local)
            .timeout(8_000_000)
            .opgraph(OpGraph {
                id: 0,
                source: SourceSpec::Table {
                    namespace: frontier_table.clone(),
                },
                join: None,
                ops: vec![OperatorSpec::FetchMatches {
                    inner_namespace: "links".to_string(),
                    probe_col: "node".to_string(),
                    output_table,
                }],
                sink: SinkSpec::ToProxy,
            })
            .build();
        let outcome = cluster.run_query(proxy, plan);
        rounds.absorb(&outcome.tuples());
        round_no += 1;
    }

    let (mut reference_reached, _) = reference.reachable_from(start);
    let mut distributed = rounds.reached().clone();
    // The round evaluator always counts the start as explored; the reference
    // only reports it when a cycle leads back to it.  Compare the sets with
    // the start excluded from both so the two conventions agree.
    distributed.remove(start);
    reference_reached.remove(start);
    let matches_reference = distributed == reference_reached;
    ReachabilityResult {
        nodes,
        edges: edges.len(),
        reached_distributed: distributed.len(),
        reached_reference: reference_reached.len(),
        rounds: rounds.rounds(),
        messages: cluster.sim.stats().total_msgs,
        matches_reference,
    }
}

/// The EXP-K table: three cluster and graph sizes.
pub fn recursive_queries_table() -> String {
    let mut t = Table::new(
        "recursive_queries",
        "# EXP-K — distributed reachability (semi-naive rounds of Fetch Matches joins)\n\
         # pier_nodes  graph_nodes  edges  reached  rounds  messages  matches_reference",
    );
    for (pier_nodes, graph_nodes, degree) in [(16, 30, 2), (32, 60, 2), (32, 60, 3)] {
        let r = distributed_reachability(pier_nodes, graph_nodes, degree, 5);
        t.line(format_args!(
            "{:>11} {graph_nodes:>12} {:>6} {:>8} {:>7} {:>9} {:>18}",
            r.nodes, r.edges, r.reached_distributed, r.rounds, r.messages, r.matches_reference
        ));
        t.metric(
            &format!("messages_{pier_nodes}n_{graph_nodes}g_{degree}d"),
            r.messages as f64,
        );
    }
    t.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distributed_reachability_matches_the_local_fixpoint() {
        let result = distributed_reachability(12, 18, 2, 5);
        assert!(
            result.matches_reference,
            "distributed ({}) and reference ({}) answers differ",
            result.reached_distributed, result.reached_reference
        );
        assert!(result.reached_distributed > 0, "h0 should reach something");
        assert!(result.rounds >= 1);
    }

    #[test]
    fn random_graphs_are_deterministic_per_seed() {
        assert_eq!(random_edges(10, 2, 3), random_edges(10, 2, 3));
        assert_ne!(random_edges(10, 2, 3), random_edges(10, 2, 4));
    }
}
