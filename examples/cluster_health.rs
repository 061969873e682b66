//! Cluster health, dogfooded: PIER monitoring PIER.
//!
//! Boots a simulated cluster with telemetry publishing enabled, so every
//! node periodically materialises its metric hub as a tuple in the
//! `system.metrics` DHT namespace.  Two ordinary standing `sqlish` queries
//! over that namespace — windowed per-node `MAX(bytes_recv)` and
//! `MAX(lookup_p99_us)` — then watch the cluster through the query
//! processor itself, exactly the way a user query watches packet streams.
//!
//! ```text
//! cargo run --release --example cluster_health
//! ```

use pier::harness::{self_monitoring, SelfMonitoringConfig};

fn main() {
    let nodes = 16;
    let cfg = SelfMonitoringConfig::new(nodes, 20, 42);
    println!(
        "monitoring a {nodes}-node cluster through PIER itself for {}s of virtual time ...",
        cfg.run_secs
    );
    let out = self_monitoring(&cfg);

    println!(
        "\n{} metrics tuples published into system.metrics; {} background packet rows",
        out.publishes, out.events
    );

    // The last fully-populated window of each monitoring query, as a
    // per-node health table.
    let bytes = out
        .bytes_recv
        .iter()
        .rev()
        .find(|w| w.per_node.len() == nodes)
        .or_else(|| out.bytes_recv.last())
        .expect("the bytes_recv monitor emitted windows");
    let p99 = out
        .lookup_p99
        .iter()
        .rev()
        .find(|w| w.per_node.len() == nodes)
        .or_else(|| out.lookup_p99.last())
        .expect("the lookup-latency monitor emitted windows");
    println!(
        "\ncluster health at window [{:.1}s, {:.1}s) — {} of {} nodes reporting",
        bytes.window.0 as f64 / 1e6,
        bytes.window.1 as f64 / 1e6,
        bytes.per_node.len(),
        nodes
    );
    println!(
        "{:>6} {:>16} {:>18}",
        "node", "max bytes_recv", "lookup p99 (us)"
    );
    for (node, recv) in &bytes.per_node {
        let lat = p99.per_node.get(node).copied().unwrap_or(0.0);
        println!("{node:>6} {recv:>16.0} {lat:>18.0}");
    }

    // A taste of the records the same run kept: events, zero-duration spans.
    println!("\nfirst records on node 0 (sim-time-stamped, deterministic):");
    for line in out.trace.lines().take(5) {
        println!("  {line}");
    }
    println!(
        "({} records total; see docs/OBSERVABILITY.md for the schema)",
        out.trace.lines().count()
    );
}
