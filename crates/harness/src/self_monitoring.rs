//! The `self_monitoring` workload: PIER watching PIER.
//!
//! The dogfood loop of the telemetry layer: every node runs with
//! telemetry enabled and a publish interval, so each node periodically
//! materialises its hub as a tuple into the `system.metrics` DHT namespace
//! (node label, receive counters, DHT lookup latency percentiles, owner
//! cache hit/miss).  Two standing `sqlish` queries over that namespace —
//! installed everywhere by broadcast dissemination, exactly like any user
//! query — then monitor the cluster *through PIER itself*:
//!
//! ```sql
//! SELECT node, MAX(bytes_recv)     FROM system.metrics
//!     GROUP BY node WINDOW 4s SLIDE 2s EVERY 5s
//! SELECT node, MAX(lookup_p99_us) FROM system.metrics
//!     GROUP BY node WINDOW 4s SLIDE 2s EVERY 5s
//! ```
//!
//! A background packet stream keeps the DHT busy so the monitored metrics
//! move.  The driver collects both queries' per-window result streams at
//! the proxy and exports one node's structured event trace as JSONL — the
//! artifact the CI schema check validates — plus the merged, stably
//! ordered all-nodes trace and span exports (`pier-trace`'s merger).

use crate::cluster::{Cluster, ClusterConfig};
use crate::Table;
use pier_core::{sqlish, PierConfig, PierOut, TelemetryConfig, Tuple, Value};
use pier_runtime::{NodeAddr, Rng64, SimTime};
use std::collections::BTreeMap;

/// Configuration of a self-monitoring run.
#[derive(Debug, Clone)]
pub struct SelfMonitoringConfig {
    /// Number of nodes.
    pub nodes: usize,
    /// Determinism seed.
    pub seed: u64,
    /// How long the monitored stream runs (virtual seconds).
    pub run_secs: u64,
    /// How often each node publishes its hub into `system.metrics`
    /// (microseconds of virtual time).
    pub publish_interval: u64,
    /// Background packets published per node per virtual second (the DHT
    /// traffic the standing queries observe).
    pub events_per_node_per_sec: u64,
    /// Per-node configuration (the driver enables telemetry on it).
    pub pier: PierConfig,
}

impl SelfMonitoringConfig {
    /// A standard run: publish every virtual second, light packet stream.
    pub fn new(nodes: usize, run_secs: u64, seed: u64) -> Self {
        SelfMonitoringConfig {
            nodes,
            seed,
            run_secs,
            publish_interval: 1_000_000,
            events_per_node_per_sec: 4,
            pier: PierConfig::default(),
        }
    }
}

/// One emitted window of a monitoring query: per-node label → MAX value.
#[derive(Debug, Clone)]
pub struct MetricWindow {
    /// Window bounds (virtual time, inclusive/exclusive).
    pub window: (SimTime, SimTime),
    /// Node label (`n<addr>`) → the window's MAX of the monitored metric.
    pub per_node: BTreeMap<String, f64>,
}

/// Result of a self-monitoring run.
#[derive(Debug)]
pub struct SelfMonitoringOutcome {
    /// Per-window `MAX(bytes_recv)` per node, in window order.
    pub bytes_recv: Vec<MetricWindow>,
    /// Per-window `MAX(lookup_p99_us)` per node, in window order.
    pub lookup_p99: Vec<MetricWindow>,
    /// `telemetry.publishes` summed over all nodes (metrics tuples shipped
    /// into the DHT).
    pub publishes: u64,
    /// Node 0's structured event trace as JSONL (one event per line).
    pub trace_jsonl: String,
    /// Every node's event trace merged under the `(time, node, ordinal)`
    /// total order — the cluster-wide form of [`Self::trace_jsonl`]
    /// (each line gains a leading `"node"` key).
    pub merged_trace_jsonl: String,
    /// Every node's span ring merged the same way (empty when the run had
    /// tracing off — the default).
    pub merged_span_jsonl: String,
    /// Sum over nodes of trace/span ring drops; nonzero means the merged
    /// exports are incomplete.
    pub trace_dropped: u64,
    /// Cluster size.
    pub nodes: usize,
    /// Background packet rows published during the run.
    pub events: u64,
}

impl SelfMonitoringOutcome {
    /// Most nodes observed in any single `bytes_recv` window — the
    /// liveness measure the workload asserts on (every node publishes, so
    /// a healthy run sees them all).
    pub fn nodes_reporting(&self) -> usize {
        self.bytes_recv
            .iter()
            .map(|w| w.per_node.len())
            .max()
            .unwrap_or(0)
    }

    /// Largest per-node `MAX(bytes_recv)` seen in any window.
    pub fn peak_bytes_recv(&self) -> f64 {
        self.bytes_recv
            .iter()
            .flat_map(|w| w.per_node.values().copied())
            .fold(0.0, f64::max)
    }

    /// Largest per-node `MAX(lookup_p99_us)` seen in any window.
    pub fn peak_lookup_p99(&self) -> f64 {
        self.lookup_p99
            .iter()
            .flat_map(|w| w.per_node.values().copied())
            .fold(0.0, f64::max)
    }
}

/// Fold one query's `WindowResult` stream into ordered [`MetricWindow`]s.
fn collect_windows(
    outputs: &[(SimTime, NodeAddr, PierOut)],
    proxy: NodeAddr,
    query_id: u64,
    value_col: &str,
) -> Vec<MetricWindow> {
    let mut by_window: BTreeMap<(SimTime, SimTime), BTreeMap<String, f64>> = BTreeMap::new();
    for (_, node, out) in outputs {
        let PierOut::WindowResult {
            query_id: qid,
            window_start,
            window_end,
            retract,
            tuple,
        } = out
        else {
            continue;
        };
        if *qid != query_id || *node != proxy {
            continue;
        }
        let entry = by_window.entry((*window_start, *window_end)).or_default();
        let Some(label) = tuple.get("node").and_then(Value::as_str) else {
            continue;
        };
        if *retract {
            entry.remove(label);
            continue;
        }
        let value = tuple
            .get(value_col)
            .and_then(|v| v.as_f64().or_else(|| v.as_i64().map(|i| i as f64)))
            .unwrap_or(0.0);
        entry.insert(label.to_string(), value);
    }
    by_window
        .into_iter()
        .map(|(window, per_node)| MetricWindow { window, per_node })
        .collect()
}

/// Run the self-monitoring workload.
pub fn self_monitoring(cfg: &SelfMonitoringConfig) -> SelfMonitoringOutcome {
    let mut cluster_cfg = ClusterConfig::lan(cfg.nodes, cfg.seed);
    cluster_cfg.pier = cfg.pier.clone();
    cluster_cfg.pier.telemetry = TelemetryConfig::publishing(cfg.publish_interval);
    let mut cluster = Cluster::start(&cluster_cfg);
    let _ = cluster.sim.drain_outputs();

    // Install the two standing monitoring queries at node 0's proxy.
    let proxy = cluster.addr(0);
    let run_micros = cfg.run_secs * 1_000_000;
    let timeout = run_micros + 30_000_000;
    let mut submit = |sql: &str| -> u64 {
        let plan = sqlish::compile(sql, proxy, timeout).expect("monitoring query compiles");
        let mut query_id = 0u64;
        cluster.sim.invoke(proxy, |node, ctx| {
            query_id = node.submit_query(ctx, plan);
        });
        query_id
    };
    let q_bytes = submit(
        "SELECT node, MAX(bytes_recv) FROM system.metrics \
         GROUP BY node WINDOW 4s SLIDE 2s EVERY 5s",
    );
    let q_p99 = submit(
        "SELECT node, MAX(lookup_p99_us) FROM system.metrics \
         GROUP BY node WINDOW 4s SLIDE 2s EVERY 5s",
    );
    cluster.settle(1_000_000);

    // Background DHT traffic: every node keeps publishing packet rows, so
    // lookups, receive counters and latency histograms all move.
    let mut rng = Rng64::new(cfg.seed ^ 0x5E1F);
    let key_cols = vec!["src".to_string()];
    let tick = 500_000u64;
    let per_tick = (cfg.events_per_node_per_sec * tick / 1_000_000).max(1) as usize;
    let mut events = 0u64;
    let stream_end = cluster.sim.now() + run_micros;
    while cluster.sim.now() < stream_end {
        let now = cluster.sim.now();
        for addr in cluster.sim.alive_nodes() {
            for _ in 0..per_tick {
                let tuple = Tuple::new(
                    "packets",
                    vec![
                        (
                            "src",
                            Value::Str(format!("10.0.0.{}", rng.index(64)).into()),
                        ),
                        ("ts", Value::Int(now as i64)),
                        ("len", Value::Int(40 + rng.index(1400) as i64)),
                    ],
                );
                events += 1;
                cluster.publish(addr, "packets", &key_cols, tuple);
            }
        }
        cluster.sim.run_for(tick);
    }
    // Drain: the trailing windows close, travel to the root and reach the
    // proxy before both queries time out.
    cluster
        .sim
        .run_for(timeout.saturating_sub(run_micros) + 5_000_000);

    let outputs: Vec<(SimTime, NodeAddr, PierOut)> = cluster
        .sim
        .drain_outputs()
        .into_iter()
        .map(|o| (o.time, o.node, o.value))
        .collect();
    let bytes_recv = collect_windows(&outputs, proxy, q_bytes, "max_bytes_recv");
    let lookup_p99 = collect_windows(&outputs, proxy, q_p99, "max_lookup_p99_us");

    let mut publishes = 0u64;
    for addr in cluster.sim.alive_nodes() {
        if let Some(tel) = cluster.telemetry(addr) {
            publishes += tel.counter("telemetry.publishes");
        }
    }
    let trace_jsonl = cluster
        .telemetry(cluster.addr(0))
        .map(|tel| tel.trace_jsonl())
        .unwrap_or_default();
    let merged_trace_jsonl = cluster.merged_trace_jsonl();
    let merged_span_jsonl = cluster.merged_span_jsonl();
    let trace_dropped = cluster.telemetry_summary().trace_dropped;
    SelfMonitoringOutcome {
        bytes_recv,
        lookup_p99,
        publishes,
        trace_jsonl,
        merged_trace_jsonl,
        merged_span_jsonl,
        trace_dropped,
        nodes: cfg.nodes,
        events,
    }
}

/// The table the `self_monitoring` bench prints for one run: what the
/// monitoring queries saw and how many events the hubs recorded.  Virtual
/// time and per-node ordinals only, so it is a function of the
/// configuration; `docs/baselines/tables/self_monitoring.txt` records it.
pub fn self_monitoring_table(run: &SelfMonitoringOutcome) -> String {
    let mut t = Table::new(
        "self_monitoring",
        "# self-monitoring: standing queries over system.metrics",
    );
    t.line(format_args!(
        "self_monitoring                      {:>10.0} publishes  ({} windows, {}/{} nodes reporting)\n\
         self_monitoring_peaks                  bytes_recv {:>10.0}   lookup_p99 {:>8.0} us",
        run.publishes,
        run.bytes_recv.len(),
        run.nodes_reporting(),
        run.nodes,
        run.peak_bytes_recv(),
        run.peak_lookup_p99()
    ));
    for (metric, value) in [
        ("metrics_publishes", run.publishes as f64),
        ("bytes_recv_windows", run.bytes_recv.len() as f64),
        ("nodes_reporting", run.nodes_reporting() as f64),
        ("peak_bytes_recv", run.peak_bytes_recv()),
        ("peak_lookup_p99_us", run.peak_lookup_p99()),
        ("trace_events_node0", run.trace_jsonl.lines().count() as f64),
        (
            "trace_events_all_nodes",
            run.merged_trace_jsonl.lines().count() as f64,
        ),
        ("trace_dropped", run.trace_dropped as f64),
    ] {
        t.metric(metric, value);
    }
    t.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standing_queries_over_system_metrics_see_every_node() {
        let cfg = SelfMonitoringConfig::new(8, 12, 11);
        let out = self_monitoring(&cfg);
        assert!(out.publishes > 0, "nodes must publish metrics tuples");
        assert!(
            !out.bytes_recv.is_empty(),
            "the bytes_recv monitor must emit windows"
        );
        assert_eq!(
            out.nodes_reporting(),
            cfg.nodes,
            "every node's metrics must reach the monitoring query"
        );
        assert!(
            out.peak_bytes_recv() > 0.0,
            "received-bytes counters must move"
        );
        assert!(
            !out.lookup_p99.is_empty(),
            "the lookup-latency monitor must emit windows"
        );
        assert!(
            out.peak_lookup_p99() > 0.0,
            "lookup latency percentiles must move"
        );
    }
}
