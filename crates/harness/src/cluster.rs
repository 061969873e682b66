//! Boot and drive a PIER cluster under the Simulation Environment.

use pier_core::{
    PierConfig, PierNode, PierOut, QueryPlan, SpanRecord, Telemetry, TelemetryConfig, Tuple,
};
use pier_cq::DurableStore;
use pier_dht::{make_ring_refs, NodeRef};
use pier_runtime::sim::{CongestionKind, TopologyConfig};
use pier_runtime::{NodeAddr, SimConfig, SimTime, Simulator};

/// Cluster construction parameters.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of PIER nodes.
    pub nodes: usize,
    /// Seed controlling identifiers, topology and workloads.
    pub seed: u64,
    /// Network topology.
    pub topology: TopologyConfig,
    /// Congestion model.
    pub congestion: CongestionKind,
    /// Per-node configuration (overlay tuning, publish lifetimes).
    pub pier: PierConfig,
    /// Give every node its own [`DurableStore`] "disk" that survives
    /// crashes, so [`Cluster::restart_node_at`] brings the node back with warm
    /// window segments instead of empty continuous-query state.
    pub durable: bool,
}

impl ClusterConfig {
    /// A LAN-like cluster (fast, uncongested) — functional tests.
    pub fn lan(nodes: usize, seed: u64) -> Self {
        ClusterConfig {
            nodes,
            seed,
            topology: TopologyConfig::lan(),
            congestion: CongestionKind::None,
            pier: PierConfig::default(),
            durable: false,
        }
    }

    /// A wide-area transit-stub cluster with FIFO access-link queuing — the
    /// configuration used to reproduce the paper's figures.
    pub fn internet(nodes: usize, seed: u64) -> Self {
        ClusterConfig {
            nodes,
            seed,
            topology: TopologyConfig::internet_like(),
            congestion: CongestionKind::Fifo,
            pier: PierConfig::default(),
            durable: false,
        }
    }

    /// Tighten fail-stop detection to `micros` — continuous queries want
    /// routes to heal within a window slide, not the conservative default.
    pub fn with_liveness_timeout(mut self, micros: u64) -> Self {
        self.pier.overlay.router.liveness_timeout = micros;
        self
    }

    /// Enable self-monitoring telemetry on every node.
    pub fn with_telemetry(mut self, telemetry: TelemetryConfig) -> Self {
        self.pier.telemetry = telemetry;
        self
    }

    /// Enable per-node durable window segments (warm restarts).
    pub fn with_durable(mut self) -> Self {
        self.durable = true;
        self
    }
}

/// Cluster-wide telemetry sums (see [`Cluster::telemetry_summary`]): the
/// measured quantities the admission-soundness suite compares against the
/// static [`CostReport`](pier_core::admission) bounds.
#[derive(Debug, Clone, Copy, Default)]
pub struct ClusterTelemetrySummary {
    /// Sum over nodes of the `cq.accepted` gauge — rows accepted into
    /// window stores (local + root), cumulative over the run.
    pub cq_accepted: u64,
    /// Sum over nodes of the final `cq.state_bytes` gauge.
    pub cq_state_bytes: u64,
    /// Largest single-node `cq.state_bytes` gauge.
    pub max_node_state_bytes: u64,
    /// Sum over nodes of the `dht.put_batch.entries` counter.
    pub put_batch_entries: u64,
    /// Sum over nodes of the `dht.put_batch.flushes` counter.
    pub put_batch_flushes: u64,
    /// Sum over nodes of the `admission.admit` counter.
    pub admission_admit: u64,
    /// Sum over nodes of the `admission.shed` counter.
    pub admission_shed: u64,
    /// Sum over nodes of the `admission.reject` counter.
    pub admission_reject: u64,
    /// Sum over nodes of the stabilization messages sent:
    /// `dht.routing.sent.{get_neighbors,neighbors,notify}`.
    pub maintenance_msgs_sent: u64,
    /// Sum over nodes of the `op.selection.rows_in` counter — rows handed
    /// to per-query selections.
    pub selection_rows_in: u64,
    /// Sum over nodes of the `mqo.rows_scanned` counter — rows times share
    /// groups covered by the sharing layer's predicate-index scans.
    pub mqo_rows_scanned: u64,
    /// Sum over nodes of the `cq.member_installs` counter — standing
    /// queries that joined a live share group from their member form.
    pub member_installs: u64,
    /// Sum over nodes of the `cq.plan_pulls` counter — plan requests sent
    /// to proxies.
    pub plan_pulls: u64,
    /// Sum over nodes of ring drops — records (spans and events) the
    /// bounded rings evicted because an export ran too long between reads.
    /// Nonzero drops mean a merged export is incomplete; experiments that
    /// assert on trace contents check [`ClusterTelemetrySummary::has_trace_drops`].
    pub trace_dropped: u64,
}

impl ClusterTelemetrySummary {
    /// True when any node's bounded ring overflowed — the
    /// flag the harness surfaces so a truncated export is never mistaken
    /// for a complete one.
    pub fn has_trace_drops(&self) -> bool {
        self.trace_dropped > 0
    }
}

/// The outcome of a query run through [`Cluster::run_query`].
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    /// The query id assigned by the proxy.
    pub query_id: u64,
    /// Virtual time at which the query was submitted.
    pub submitted_at: SimTime,
    /// Result tuples with their arrival times at the proxy's client.
    pub results: Vec<(SimTime, Tuple)>,
}

impl QueryOutcome {
    /// Latency (seconds) until the first result reached the client, if any.
    pub fn first_result_latency_secs(&self) -> Option<f64> {
        self.results
            .iter()
            .map(|(t, _)| *t)
            .min()
            .map(|t| (t.saturating_sub(self.submitted_at)) as f64 / 1_000_000.0)
    }

    /// Just the result tuples, in arrival order.
    pub fn tuples(&self) -> Vec<Tuple> {
        self.results.iter().map(|(_, t)| t.clone()).collect()
    }
}

/// A simulated PIER deployment.
pub struct Cluster {
    /// The underlying simulator (exposed for custom experiment logic).
    pub sim: Simulator<PierNode>,
    /// The ring references of all nodes, index = node address.
    pub refs: Vec<NodeRef>,
    /// Per-node configuration, kept so crashed nodes restart identically.
    pier: PierConfig,
    /// Each node's durable "disk" (empty when the cluster is soft-only):
    /// it outlives the node's program, which is the whole point.
    durable: Vec<Option<DurableStore>>,
}

impl Cluster {
    /// Boot a cluster with pre-converged routing state and a warm
    /// distribution tree.
    pub fn start(config: &ClusterConfig) -> Self {
        let refs = make_ring_refs(config.nodes, config.seed);
        let sim_config = SimConfig {
            seed: config.seed,
            topology: config.topology.clone(),
            congestion: config.congestion,
            ..SimConfig::default()
        };
        let mut sim: Simulator<PierNode> = Simulator::new(sim_config);
        let mut durable = Vec::with_capacity(refs.len());
        for r in &refs {
            // One DurableStore per node: keys are query-scoped, so sharing
            // a store across nodes would collide their segment logs.
            let disk = config.durable.then(DurableStore::new);
            let mut pier = config.pier.clone();
            pier.durable = disk.clone();
            durable.push(disk);
            sim.add_node(PierNode::with_static_ring(*r, &refs, pier));
        }
        // Let start-up timers fire and the distribution tree form (tree
        // join announcements go out within the first refresh interval).
        sim.run_for(6_000_000);
        Cluster {
            sim,
            refs,
            pier: config.pier.clone(),
            durable,
        }
    }

    /// Crash node `i` at virtual time `at`: its program state (window
    /// stores, routing tables, installed queries) is lost; only its
    /// [`DurableStore`], held here, survives.
    pub fn crash_node_at(&mut self, i: usize, at: SimTime) {
        self.sim.fail_node_at(self.refs[i].addr, at);
    }

    /// Restart a crashed node `i` at virtual time `at` with a *cold*
    /// program but its original identity and durable disk: the overlay
    /// re-converges around the same ring position, and the plans it pulls
    /// after the next lease roster rehydrate warm windows from the
    /// surviving segment logs.
    pub fn restart_node_at(&mut self, i: usize, at: SimTime) {
        let mut pier = self.pier.clone();
        pier.durable = self.durable[i].clone();
        let program = PierNode::with_static_ring(self.refs[i], &self.refs, pier);
        self.sim.restart_node_at(self.refs[i].addr, program, at);
    }

    /// Node `i`'s durable store, when the cluster was started
    /// [`ClusterConfig::durable`] (for warm-restart assertions).
    pub fn durable_store(&self, i: usize) -> Option<&DurableStore> {
        self.durable[i].as_ref()
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.refs.len()
    }

    /// True when the cluster has no nodes.
    pub fn is_empty(&self) -> bool {
        self.refs.is_empty()
    }

    /// Address of node `i`.
    pub fn addr(&self, i: usize) -> NodeAddr {
        self.refs[i].addr
    }

    /// Publish a tuple into the DHT-partitioned primary index of `table`
    /// from node `from`, hashed on `key_cols`.
    pub fn publish(&mut self, from: NodeAddr, table: &str, key_cols: &[String], tuple: Tuple) {
        let table = table.to_string();
        let key_cols = key_cols.to_vec();
        self.sim.invoke(from, move |node, ctx| {
            node.publish(ctx, &table, &key_cols, tuple);
        });
    }

    /// Publish a tuple together with secondary-index entries on `index_cols`
    /// (§3.3.3) from node `from`.
    pub fn publish_with_secondary_indexes(
        &mut self,
        from: NodeAddr,
        table: &str,
        key_cols: &[String],
        index_cols: &[String],
        tuple: Tuple,
    ) {
        let table = table.to_string();
        let key_cols = key_cols.to_vec();
        let index_cols = index_cols.to_vec();
        self.sim.invoke(from, move |node, ctx| {
            node.publish_with_secondary_indexes(ctx, &table, &key_cols, &index_cols, tuple);
        });
    }

    /// Publish a tuple into the PHT-style range index of `table` on `column`
    /// from node `from` (§3.3.3 "Range Index Substrate").
    pub fn publish_range_indexed(
        &mut self,
        from: NodeAddr,
        table: &str,
        column: &str,
        config: pier_core::RangeIndexConfig,
        tuple: Tuple,
    ) {
        let table = table.to_string();
        let column = column.to_string();
        self.sim.invoke(from, move |node, ctx| {
            node.publish_range_indexed(ctx, &table, &column, config, tuple);
        });
    }

    /// Append a row to a node-local table at `node` (data that stays where
    /// it was produced, e.g. that node's firewall log).
    pub fn add_local_row(&mut self, node: NodeAddr, table: &str, tuple: Tuple) {
        let table = table.to_string();
        self.sim.with_node_mut(node, move |n| {
            n.add_local_row(&table, tuple);
        });
    }

    /// Let the network quiesce for `micros` of virtual time.
    pub fn settle(&mut self, micros: u64) {
        self.sim.run_for(micros);
    }

    /// Submit `plan` at `proxy`, run the simulation until the query's
    /// timeout has comfortably passed, and collect the results delivered to
    /// the proxy's client.
    pub fn run_query(&mut self, proxy: NodeAddr, plan: QueryPlan) -> QueryOutcome {
        self.run_query_observed(proxy, plan).0
    }

    /// Like [`Cluster::run_query`], but also reports how many nodes had the
    /// query's opgraphs installed shortly before the timeout — the
    /// "nodes running the query" metric of the dissemination ablations
    /// (§3.3.3), which is independent of background overlay maintenance
    /// traffic.
    pub fn run_query_observed(
        &mut self,
        proxy: NodeAddr,
        plan: QueryPlan,
    ) -> (QueryOutcome, usize) {
        let submitted_at = self.sim.now();
        let timeout = plan.timeout;
        // Drain previous outputs so this query's results are isolated.
        let _ = self.sim.drain_outputs();
        let mut issued = 0u64;
        self.sim.invoke(proxy, |node, ctx| {
            issued = node.submit_query(ctx, plan);
        });
        // Run to just before the timeout, observe where the query landed,
        // then let it finish.
        self.sim.run_for(timeout.saturating_sub(1_000_000));
        let installed = self
            .refs
            .iter()
            .filter(|r| {
                self.sim
                    .node(r.addr)
                    .is_some_and(|n| n.installed_queries() > 0)
            })
            .count();
        self.sim
            .run_for(timeout - timeout.saturating_sub(1_000_000) + 3_000_000);
        let results = self
            .sim
            .drain_outputs()
            .into_iter()
            .filter_map(|o| match o.value {
                PierOut::Result { query_id, tuple } if query_id == issued && o.node == proxy => {
                    Some((o.time, tuple))
                }
                _ => None,
            })
            .collect();
        (
            QueryOutcome {
                query_id: issued,
                submitted_at,
                results,
            },
            installed,
        )
    }

    /// Reset the per-node traffic counters (used between experiment phases).
    pub fn reset_stats(&mut self) {
        self.sim.stats_mut().reset();
    }

    /// A node's telemetry handle (a cheap clone of the shared hub; inert
    /// when the cluster runs without telemetry).
    pub fn telemetry(&self, node: NodeAddr) -> Option<Telemetry> {
        self.sim.node(node).map(|n| n.telemetry().clone())
    }

    /// Cluster-wide telemetry sums over all live nodes — the measured side
    /// of the admission-soundness comparison (all zeros when the cluster
    /// runs without telemetry).
    pub fn telemetry_summary(&self) -> ClusterTelemetrySummary {
        let mut s = ClusterTelemetrySummary::default();
        for addr in self.sim.alive_nodes() {
            let Some(tel) = self.telemetry(addr) else {
                continue;
            };
            let accepted = tel.gauge_value("cq.accepted").unwrap_or(0.0) as u64;
            let state_bytes = tel.gauge_value("cq.state_bytes").unwrap_or(0.0) as u64;
            s.cq_accepted += accepted;
            s.cq_state_bytes += state_bytes;
            s.max_node_state_bytes = s.max_node_state_bytes.max(state_bytes);
            s.put_batch_entries += tel.counter("dht.put_batch.entries");
            s.put_batch_flushes += tel.counter("dht.put_batch.flushes");
            s.admission_admit += tel.counter("admission.admit");
            s.admission_shed += tel.counter("admission.shed");
            s.admission_reject += tel.counter("admission.reject");
            s.maintenance_msgs_sent += ["get_neighbors", "neighbors", "notify"]
                .iter()
                .map(|kind| tel.counter(&format!("dht.routing.sent.{kind}")))
                .sum::<u64>();
            s.selection_rows_in += tel.counter("op.selection.rows_in");
            s.mqo_rows_scanned += tel.counter("mqo.rows_scanned");
            s.member_installs += tel.counter("cq.member_installs");
            s.plan_pulls += tel.counter("cq.plan_pulls");
            s.trace_dropped += tel.with(|h| h.dropped()).unwrap_or(0);
        }
        s
    }

    /// Every live node's records (spans and events), keyed by node
    /// address — the input shape [`pier_trace::merge_spans`] expects.  Nodes
    /// without telemetry contribute nothing; node order follows the ring
    /// (ascending address), though the merger's total order makes
    /// collection order irrelevant.
    pub fn node_spans(&self) -> Vec<(u32, Vec<SpanRecord>)> {
        let mut per_node = Vec::new();
        for r in &self.refs {
            let Some(records) = self
                .telemetry(r.addr)
                .and_then(|tel| tel.with(|h| h.records().copied().collect::<Vec<_>>()))
            else {
                continue;
            };
            if !records.is_empty() {
                per_node.push((r.addr.0, records));
            }
        }
        per_node
    }

    /// The cluster-wide record stream under the merger's total order
    /// (`(start, node, ordinal)` ascending — equal seeds ⇒ identical).
    pub fn merged_spans(&self) -> Vec<pier_trace::NodeSpan> {
        pier_trace::merge_spans(&self.node_spans())
    }

    /// The merged all-nodes export as JSONL (one span or event per line, a
    /// leading `"node"` key on each) — the cluster-wide form of a hub's
    /// `jsonl`.
    pub fn merged_span_jsonl(&self) -> String {
        pier_trace::merged_span_jsonl(&self.merged_spans())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pier_core::{Dissemination, Expr, PlanBuilder, Value};

    #[test]
    fn broadcast_selection_returns_matching_published_rows() {
        let mut cluster = Cluster::start(&ClusterConfig::lan(12, 5));
        // Publish an inverted-index style table hashed on keyword.
        let key_cols = vec!["keyword".to_string()];
        for (i, (kw, file)) in [("rock", "a.mp3"), ("rock", "b.mp3"), ("jazz", "c.mp3")]
            .iter()
            .enumerate()
        {
            let tuple = Tuple::new(
                "files",
                vec![("keyword", Value::str(kw)), ("file", Value::str(file))],
            );
            let from = cluster.addr(i % cluster.len());
            cluster.publish(from, "files", &key_cols, tuple);
        }
        cluster.settle(3_000_000);
        let proxy = cluster.addr(7);
        let plan = PlanBuilder::select(
            proxy,
            "files",
            Expr::eq("keyword", "rock"),
            vec!["file".to_string()],
            10_000_000,
        );
        let outcome = cluster.run_query(proxy, plan);
        let files: Vec<String> = outcome
            .tuples()
            .iter()
            .filter_map(|t| t.get("file").and_then(|v| v.as_str().map(String::from)))
            .collect();
        assert_eq!(
            outcome.results.len(),
            2,
            "exactly the two rock files: {files:?}"
        );
        assert!(files.contains(&"a.mp3".to_string()));
        assert!(files.contains(&"b.mp3".to_string()));
        assert!(outcome.first_result_latency_secs().unwrap() < 5.0);
    }

    #[test]
    fn bykey_dissemination_reaches_only_the_partition_and_answers() {
        let mut cluster = Cluster::start(&ClusterConfig::lan(16, 9));
        let key_cols = vec!["keyword".to_string()];
        for i in 0..10 {
            let tuple = Tuple::new(
                "files",
                vec![
                    ("keyword", Value::str("obscure")),
                    ("file", Value::Str(format!("rare-{i}.ogg").into())),
                ],
            );
            let from = cluster.addr(i % cluster.len());
            cluster.publish(from, "files", &key_cols, tuple);
        }
        cluster.settle(3_000_000);
        let proxy = cluster.addr(3);
        let plan = PlanBuilder::new(proxy)
            .dissemination(Dissemination::ByKey {
                namespace: "files".into(),
                key: Value::Str("obscure".into()).key_string(),
            })
            .timeout(10_000_000)
            .opgraph(pier_core::OpGraph {
                id: 0,
                source: pier_core::SourceSpec::Table {
                    namespace: "files".into(),
                },
                join: None,
                ops: vec![pier_core::OperatorSpec::Selection(Expr::eq(
                    "keyword", "obscure",
                ))],
                sink: pier_core::SinkSpec::ToProxy,
            })
            .build();
        let outcome = cluster.run_query(proxy, plan);
        assert_eq!(outcome.results.len(), 10);
    }

    #[test]
    fn hierarchical_count_group_by_matches_ground_truth() {
        let mut cluster = Cluster::start(&ClusterConfig::lan(10, 21));
        // Node-local event logs: source "10.0.0.1" appears 3x as often.
        let mut expected: std::collections::HashMap<&str, i64> = Default::default();
        for i in 0..cluster.len() {
            for j in 0..6 {
                let src = if j % 2 == 0 { "10.0.0.1" } else { "10.0.0.9" };
                *expected.entry(src).or_default() += 1;
                let tuple = Tuple::new(
                    "events",
                    vec![("src", Value::str(src)), ("port", Value::Int(j as i64))],
                );
                let addr = cluster.addr(i);
                cluster.add_local_row(addr, "events", tuple);
            }
        }
        let proxy = cluster.addr(0);
        let plan = PlanBuilder::top_k_group_count(proxy, "events", "src", 10, 20_000_000);
        let outcome = cluster.run_query(proxy, plan);
        assert!(
            !outcome.results.is_empty(),
            "aggregation query must return grouped counts"
        );
        for t in outcome.tuples() {
            let src = t.get("src").and_then(|v| v.as_str()).unwrap().to_string();
            let count = t.get("count").and_then(pier_core::Value::as_i64).unwrap();
            assert_eq!(count, expected[src.as_str()], "count for {src}");
        }
    }
}
