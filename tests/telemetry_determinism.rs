//! Telemetry determinism and zero-interference guarantees.
//!
//! The observability layer stamps everything with virtual time and
//! per-node ordinals — never wall clock — so it must be *bit-for-bit
//! reproducible*: two runs of the same seeded workload produce identical
//! metric values and byte-identical trace JSONL.  And because metrics are
//! recorded off the query path (publishing aside), enabling telemetry
//! must not perturb query results: an enabled-but-not-publishing run
//! returns exactly the rows a telemetry-disabled run returns.

use pier::harness::tenants::{many_tenants, ManyTenantsConfig, TenantResult};
use pier::harness::{self_monitoring, SelfMonitoringConfig};
use pier::qp::TelemetryConfig;
use std::collections::BTreeMap;

mod common;
use common::{assert_export, catalogue, documented};

/// Canonical per-tenant window representation: sorted display strings per
/// window, keyed by (tenant src, window bounds).
fn window_map(tenants: &[TenantResult]) -> BTreeMap<(String, (u64, u64)), Vec<String>> {
    let mut map = BTreeMap::new();
    for t in tenants {
        for (window, rows) in &t.windows {
            let mut rendered: Vec<String> =
                rows.iter().map(std::string::ToString::to_string).collect();
            rendered.sort();
            map.insert((t.src.clone(), *window), rendered);
        }
    }
    map
}

#[test]
fn identical_seeds_produce_byte_identical_traces() {
    let cfg = SelfMonitoringConfig::new(6, 10, 23);
    let a = self_monitoring(&cfg);
    let b = self_monitoring(&cfg);

    // The structured event trace is the strongest artifact: every event
    // carries its sim time and per-node ordinal, so byte equality proves
    // the whole instrumented execution replayed identically.
    assert!(!a.trace.is_empty(), "the traced node must record events");
    assert_eq!(
        a.trace, b.trace,
        "same seed must yield a byte-identical trace JSONL"
    );

    // The monitoring queries' result streams must agree too — same
    // windows, same per-node values.
    assert_eq!(a.publishes, b.publishes);
    assert_eq!(a.events, b.events);
    assert_eq!(a.bytes_recv.len(), b.bytes_recv.len());
    for (wa, wb) in a.bytes_recv.iter().zip(&b.bytes_recv) {
        assert_eq!(wa.window, wb.window);
        assert_eq!(wa.per_node, wb.per_node);
    }
    assert_eq!(a.lookup_p99.len(), b.lookup_p99.len());
    for (wa, wb) in a.lookup_p99.iter().zip(&b.lookup_p99) {
        assert_eq!(wa.window, wb.window);
        assert_eq!(wa.per_node, wb.per_node);
    }
}

/// The export is what `docs/OBSERVABILITY.md` says it is: the documented
/// record catalogue is the one the suites check against, and every line
/// node 0 and the all-nodes merger export has integer stamps and ids, a
/// catalogued stage and that stage's values by name.
#[test]
fn exported_events_match_the_documented_schema() {
    assert_eq!(documented(), catalogue());
    let out = self_monitoring(&SelfMonitoringConfig::new(8, 12, 11));
    assert_export(&out.trace, false);
    assert_export(&out.merged_trace, true);
    assert!(
        out.merged_trace.lines().count() >= out.trace.lines().count(),
        "the merged all-nodes export must contain at least node 0's events"
    );
    assert_eq!(out.trace_dropped, 0, "the export must be complete");
}

#[test]
fn enabled_telemetry_does_not_perturb_query_results() {
    // Same seeded workload twice: telemetry disabled (the default), then
    // enabled with publishing OFF — recording only, no metrics tuples, no
    // extra DHT traffic, no extra rng draws.  Results must be identical.
    let mut cfg = ManyTenantsConfig::new(6, 8, 6, 71);
    cfg.events_per_node_per_sec = 6;

    let disabled = many_tenants(&cfg);
    cfg.pier.telemetry = TelemetryConfig::enabled();
    let enabled = many_tenants(&cfg);

    assert_eq!(
        disabled.events, enabled.events,
        "both runs must stream the same workload"
    );
    assert_eq!(
        (disabled.total_msgs, disabled.total_bytes),
        (enabled.total_msgs, enabled.total_bytes),
        "recording-only telemetry must not move a single extra byte"
    );
    let rows_disabled = window_map(&disabled.tenants);
    let rows_enabled = window_map(&enabled.tenants);
    assert!(
        rows_disabled.values().any(|rows| !rows.is_empty()),
        "the workload must produce result rows"
    );
    assert_eq!(
        rows_disabled, rows_enabled,
        "telemetry must be invisible to query results"
    );
}
