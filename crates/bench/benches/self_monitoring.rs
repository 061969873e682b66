//! Self-monitoring telemetry benchmark: the dogfood loop end to end.
//!
//! Runs the `self_monitoring` workload — every node publishes its
//! telemetry hub into the `system.metrics` DHT namespace and two standing
//! sqlish queries (per-node windowed `MAX(bytes_recv)` and
//! `MAX(lookup_p99_us)`) monitor the cluster through PIER itself — and
//! prints what the monitoring queries saw.  That they see every node is
//! asserted by the harness's own test of the workload; the exported
//! events' schema in `tests/telemetry_determinism.rs`.
//!
//! Run with `cargo bench -p pier-bench --bench self_monitoring`.
//! `tests/paper_tables.rs` compares what this prints with
//! `docs/baselines/tables/self_monitoring.txt`.  When `PIER_TRACE_OUT`
//! names a file, node 0's structured event trace is written there as JSONL;
//! `PIER_TRACE_MERGED_OUT` writes the merged all-nodes trace (stably
//! ordered, byte-reproducible under equal seeds), and `PIER_SPANS_OUT` the
//! merged all-nodes span export.

use pier_harness::self_monitoring::{self_monitoring, self_monitoring_table, SelfMonitoringConfig};

fn main() {
    let run = self_monitoring(&SelfMonitoringConfig::new(24, 30, 11));
    print!("{}", self_monitoring_table(&run));
    for (var, what, text) in [
        ("PIER_TRACE_OUT", "trace", &run.trace_jsonl),
        (
            "PIER_TRACE_MERGED_OUT",
            "merged trace",
            &run.merged_trace_jsonl,
        ),
        ("PIER_SPANS_OUT", "merged spans", &run.merged_span_jsonl),
    ] {
        if let Some(path) = std::env::var_os(var) {
            std::fs::write(&path, text).expect("write JSONL export");
            eprintln!("{what} written to {}", path.to_string_lossy());
        }
    }
}
