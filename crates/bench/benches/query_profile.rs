//! EXPLAIN ANALYZE benchmark: the distributed-tracing layer end to end.
//!
//! Runs the continuous netmon workload under `EXPLAIN ANALYZE` (tracing
//! forced on, every node's span ring merged into one stably ordered
//! stream) and prints the profile.  That the measured profile reconciles
//! under the static `pier-analyze` bounds, that the critical path ends at
//! the proxy's `result.emit` and that equal seeds export byte-identical
//! span JSONL are asserted in `tests/span_profile.rs`; what enabled
//! telemetry and tracing cost is the end-to-end benchmark's
//! `telemetry.hub.enabled_overhead_share`.
//!
//! Run with `cargo bench -p pier-bench --bench query_profile`.
//! `tests/paper_tables.rs` compares what this prints with
//! `docs/baselines/tables/query_profile.txt`.  When `PIER_SPANS_OUT` names
//! a file, the merged all-nodes span export is written there as JSONL;
//! `PIER_CHROME_OUT` writes the Chrome `trace_event` JSON profile.

use pier_harness::profile::{explain_analyze_netmon, query_profile_config, query_profile_table};

fn main() {
    let run = explain_analyze_netmon(&query_profile_config());
    print!("{}", query_profile_table(&run));
    for (var, what, text) in [
        ("PIER_SPANS_OUT", "merged spans", &run.span_jsonl),
        ("PIER_CHROME_OUT", "chrome profile", &run.chrome_json),
    ] {
        if let Some(path) = std::env::var_os(var) {
            std::fs::write(&path, text).expect("write profile export");
            eprintln!("{what} written to {}", path.to_string_lossy());
        }
    }
}
