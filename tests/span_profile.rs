//! Distributed-tracing and EXPLAIN ANALYZE guarantees.
//!
//! The span layer inherits the workspace's determinism contract: spans are
//! stamped with virtual time and per-node ordinals (never wall clock), the
//! sampling decision is drawn once from the seeded RNG at the proxy, and
//! the cluster-wide export is merged under a total order — so equal seeds
//! must produce **byte-identical** merged span JSONL.  Tracing must also be
//! free when off (zero spans, zero wire-size change, identical results)
//! and honest when on: every `window.flush` span reconciles one-for-one
//! against the `cq.window_flushes` counters, and the measured profile must
//! stay under the static `pier-analyze` cost bounds.

use pier::harness::{
    continuous_netmon, continuous_netmon_observed, explain_analyze_netmon, Cluster, ClusterConfig,
    ContinuousNetmonConfig, ContinuousOutcome,
};
use pier::qp::{sqlish, PierOut, TelemetryConfig, TraceConfig, Tuple, Value};
use std::collections::BTreeMap;

mod common;
use common::{assert_export, catalogue, documented, seeded};

fn traced_cfg(nodes: usize, run_secs: u64, seed: u64) -> ContinuousNetmonConfig {
    let mut cfg = ContinuousNetmonConfig::steady(nodes, run_secs, seed);
    cfg.pier.telemetry = TelemetryConfig::enabled();
    cfg.pier.telemetry.capacity = 65_536;
    cfg.pier.trace = TraceConfig::sample_all();
    cfg
}

/// Canonical rendering of the per-window result rows (sorted strings per
/// window), so two runs' result streams can be compared exactly.
fn window_rows(out: &ContinuousOutcome) -> BTreeMap<(u64, u64), Vec<String>> {
    out.windows
        .iter()
        .map(|(w, e)| {
            let mut rows: Vec<String> = e.rows.iter().map(ToString::to_string).collect();
            rows.sort();
            (*w, rows)
        })
        .collect()
}

#[test]
fn equal_seeds_export_byte_identical_merged_span_jsonl() {
    let cfg = traced_cfg(8, 10, 17);
    let (a, cluster_a) = continuous_netmon_observed(&cfg);
    let (b, cluster_b) = continuous_netmon_observed(&cfg);
    let ja = cluster_a.merged_span_jsonl();
    let jb = cluster_b.merged_span_jsonl();
    assert!(!ja.is_empty(), "a traced run must record spans");
    assert_eq!(ja, jb, "equal seeds must export byte-identical span JSONL");
    assert_eq!(a.events, b.events);
    assert_eq!(window_rows(&a), window_rows(&b));
    // The merged Chrome profile is a pure function of the merged stream,
    // so it inherits the byte identity.
    assert_eq!(
        pier::trace::chrome_trace_json(&cluster_a.merged_spans()),
        pier::trace::chrome_trace_json(&cluster_b.merged_spans())
    );
}

#[test]
fn window_flush_spans_reconcile_one_for_one_against_cq_counters() {
    let cfg = traced_cfg(8, 10, 29);
    let (out, cluster) = continuous_netmon_observed(&cfg);
    assert_eq!(out.telemetry.trace_dropped, 0, "export must be complete");

    let mut flushes = 0u64;
    let mut partials = 0u64;
    for i in 0..cluster.len() {
        if let Some(tel) = cluster.telemetry(cluster.addr(i)) {
            flushes += tel.counter("cq.window_flushes");
            partials += tel.counter("cq.flush_partials");
        }
    }
    assert!(flushes > 0, "the standing query must flush windows");

    let merged = cluster.merged_spans();
    for s in merged.iter().map(|ns| &ns.span).filter(|s| !s.is_event()) {
        assert!(s.end >= s.start && s.trace_id > 0 && s.span_id > 0, "{s:?}");
    }
    let flush_spans: Vec<_> = merged
        .iter()
        .filter(|ns| ns.span.stage == "window.flush" && ns.span.query_id == out.query_id)
        .collect();
    // One traced query, sampled: every counted flush recorded exactly one
    // span, and the spans' row totals are the counted partials.
    assert_eq!(flush_spans.len() as u64, flushes);
    assert_eq!(
        flush_spans.iter().map(|ns| ns.span.values[0]).sum::<u64>(),
        partials
    );
}

#[test]
fn ingest_spans_are_one_per_drain_and_account_for_every_row() {
    // 10 rows per node per 250 ms tick: each node stages its tick's rows
    // and the zero-delay flush drains them as one chunk, so a sampled query
    // records one `ingest` span per node per tick — not one per row — and
    // the spans' row counts add up to the stream.
    let mut cfg = traced_cfg(6, 8, 83);
    cfg.events_per_node_per_sec = 40;
    let (out, cluster) = continuous_netmon_observed(&cfg);
    assert_eq!(out.telemetry.trace_dropped, 0, "export must be complete");
    let merged = cluster.merged_spans();
    let ingest: Vec<_> = merged
        .iter()
        .filter(|ns| ns.span.stage == "ingest" && ns.span.query_id == out.query_id)
        .collect();
    assert_eq!(
        ingest.iter().map(|ns| ns.span.values[0]).sum::<u64>(),
        out.events
    );
    assert!(
        ingest.iter().all(|ns| ns.span.values[0] == 10),
        "one tick's rows each"
    );
    // Stamped with the instant the rows were ingested: a tick boundary.
    assert!(ingest.iter().all(|ns| ns.span.start % 250_000 == 0));
}

#[test]
fn sampling_off_means_zero_spans_zero_wire_change_identical_results() {
    // Telemetry on, tracing off: no spans may be recorded and the wire
    // must look exactly like the plain untraced baseline.
    let mut off = ContinuousNetmonConfig::steady(8, 8, 41);
    off.pier.telemetry = TelemetryConfig::enabled();
    assert!(!off.pier.trace.enabled(), "tracing defaults off");
    let (out_off, cluster_off) = continuous_netmon_observed(&off);
    let records = cluster_off.merged_spans();
    assert!(!records.is_empty(), "events are recorded");
    assert!(
        records.iter().all(|ns| ns.span.is_event()),
        "no sampled queries, so no spans"
    );

    let plain = ContinuousNetmonConfig::steady(8, 8, 41);
    let out_plain = continuous_netmon(&plain);
    assert_eq!(
        out_off.total_bytes, out_plain.total_bytes,
        "tracing off must add zero wire bytes over the untraced baseline"
    );
    assert_eq!(out_off.total_msgs, out_plain.total_msgs);
    assert_eq!(window_rows(&out_off), window_rows(&out_plain));

    // Turning sampling on must not perturb the tenant's results either —
    // spans observe the dataflow, they never steer it.
    let (out_on, _cluster_on) = continuous_netmon_observed(&traced_cfg(8, 8, 41));
    assert_eq!(
        window_rows(&out_on),
        window_rows(&out_off),
        "tracing must not change what the query returns"
    );
}

#[test]
fn explain_analyze_profile_reconciles_measured_within_static_bounds() {
    let mut cfg = ContinuousNetmonConfig::steady(8, 12, 53);
    // A predicate puts a Selection stage in the pipeline, so the profile's
    // operator table (fed by the `op.*` meters) has something to show.
    cfg.sql = "SELECT src, COUNT(*) FROM packets WHERE port > 0 \
               GROUP BY src WINDOW 2s SLIDE 1s EVERY 5s"
        .to_string();
    let profiled = explain_analyze_netmon(&cfg);
    assert_eq!(profiled.trace_dropped, 0, "profile export must be complete");
    assert!(
        profiled.violations.is_empty(),
        "measured figures must stay under the static CostReport bounds: {:?}",
        profiled.violations
    );

    let p = &profiled.profile;
    assert!(p.total_spans > 0);
    assert!(p.windows_observed > 0);
    for stage in [
        "query.disseminate",
        "ingest",
        "window.flush",
        "window.emit",
        "result.emit",
    ] {
        assert!(p.stages.contains_key(stage), "missing stage {stage}");
    }
    // The critical path runs from somewhere upstream to the final result
    // delivery at the proxy.
    assert!(p.critical_path.len() >= 2, "{:?}", p.critical_path);
    assert_eq!(p.critical_path.last().unwrap().stage, "result.emit");
    assert!(
        !p.operators.is_empty(),
        "pipeline meters must fill the operator table"
    );

    // The rendered artifacts.
    assert!(profiled.explain.contains("EXPLAIN ANALYZE query"));
    assert!(profiled.explain.contains("critical path"));
    assert!(profiled
        .explain
        .contains("reconciliation: OK (measured <= static everywhere)"));
    // The merged export is what `docs/OBSERVABILITY.md` says it is.
    assert_eq!(documented(), catalogue());
    assert_export(&profiled.span_jsonl, true);
    assert!(profiled
        .chrome_json
        .starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
    assert!(profiled.chrome_json.ends_with("]}"));
}

#[test]
fn span_dogfood_standing_query_counts_stages_through_pier() {
    // Spans published into `system.spans` must be queryable by an ordinary
    // sqlish standing query — PIER monitoring its own tracing layer.
    let mut cluster_cfg = ClusterConfig::lan(6, seeded(67)).with_liveness_timeout(3_000_000);
    cluster_cfg.pier.telemetry = TelemetryConfig::publishing(1_000_000);
    cluster_cfg.pier.telemetry.capacity = 65_536;
    cluster_cfg.pier.trace = TraceConfig::publishing();
    let mut cluster = Cluster::start(&cluster_cfg);
    let proxy = cluster.addr(0);
    let _ = cluster.sim.drain_outputs();

    // The traced workload: a standing aggregate over a packet stream.
    let netmon = sqlish::compile(
        "SELECT src, COUNT(*) FROM packets GROUP BY src WINDOW 2s SLIDE 1s EVERY 5s",
        proxy,
        40_000_000,
    )
    .expect("netmon compiles");
    cluster.sim.invoke(proxy, |node, ctx| {
        node.submit_query(ctx, netmon);
    });
    // The monitor: per-node span counts read back out of the DHT.
    let monitor = sqlish::compile(
        "SELECT node, COUNT(*) FROM system.spans GROUP BY node WINDOW 6s SLIDE 3s EVERY 5s",
        proxy,
        40_000_000,
    )
    .expect("monitor compiles");
    let mut monitor_id = 0u64;
    cluster.sim.invoke(proxy, |node, ctx| {
        monitor_id = node.submit_query(ctx, monitor);
    });
    cluster.settle(1_000_000);

    for round in 0..48u64 {
        for i in 0..cluster.len() {
            let addr = cluster.addr(i);
            let tuple = Tuple::new(
                "packets",
                vec![
                    ("src", Value::Str(format!("10.0.0.{}", round % 7).into())),
                    ("ts", Value::Int(round as i64)),
                ],
            );
            cluster.sim.invoke(addr, move |node, ctx| {
                node.ingest(ctx, "packets", tuple);
            });
        }
        cluster.settle(250_000);
    }
    cluster.settle(12_000_000);

    let mut span_rows = 0i64;
    for out in cluster.sim.drain_outputs() {
        if let PierOut::WindowResult {
            query_id, tuple, ..
        } = out.value
        {
            if query_id == monitor_id && out.node == proxy {
                span_rows += tuple.get("count").and_then(Value::as_i64).unwrap_or(0);
            }
        }
    }
    assert!(
        span_rows > 0,
        "the standing query over system.spans must observe published spans"
    );
}

#[test]
fn span_ring_overflow_is_flagged_in_the_cluster_summary() {
    // A deliberately tiny span ring must overflow, and the harness summary
    // must flag the drop so a truncated export is never mistaken for a
    // complete trace.
    let mut cfg = traced_cfg(6, 8, 71);
    cfg.pier.telemetry.capacity = 2;
    let (out, _cluster) = continuous_netmon_observed(&cfg);
    assert!(out.telemetry.trace_dropped > 0);
    assert!(out.telemetry.has_trace_drops());
}
