//! The EXPLAIN ANALYZE driver: run a standing query with tracing on,
//! merge every node's span ring into one cluster-wide stream, and
//! reconcile the *measured* profile against the *static*
//! [`CostReport`] the planner produced before
//! the query ran.
//!
//! This is where the two halves of the observability story meet:
//! `pier-analyze` promises bounds ("no node will ship more than E entries
//! per flush"), `pier-trace` measures what actually happened, and
//! [`QueryProfileOutcome::violations`] is the contract check — an empty
//! list means every measured figure stayed under its static bound.

use crate::cluster::Cluster;
use crate::continuous::{continuous_netmon_observed, ContinuousNetmonConfig, ContinuousOutcome};
use crate::Table;
use pier_analyze::{analyze, CostReport, EnvModel};
use pier_core::{sqlish, TelemetryConfig, TraceConfig};
use pier_trace::{chrome_trace_json, OperatorStats, QueryProfile, StaticBounds};
use std::collections::BTreeMap;

/// Everything an EXPLAIN ANALYZE run produces.
#[derive(Debug)]
pub struct QueryProfileOutcome {
    /// The underlying workload result (windows, ground truth, telemetry).
    pub outcome: ContinuousOutcome,
    /// The measured profile assembled from the merged span stream.
    pub profile: QueryProfile,
    /// The static cost report the plan was admitted under.
    pub report: CostReport,
    /// The static bounds the measured profile was checked against.
    pub bounds: StaticBounds,
    /// Reconciliation failures (empty = measured ≤ static everywhere).
    pub violations: Vec<String>,
    /// The rendered `EXPLAIN ANALYZE` text: per-stage table, operator
    /// table, critical path, and the reconciliation verdict.
    pub explain: String,
    /// The merged all-nodes export of spans and events (JSONL, stably
    /// ordered).
    pub span_jsonl: String,
    /// The merged span stream as a Chrome `trace_event` JSON document.
    pub chrome_json: String,
    /// Sum of per-node ring drops (nonzero = incomplete export).
    pub trace_dropped: u64,
}

/// Aggregate every node's `op.<name>.{rows_in,rows_out,chunks_in}` pipeline
/// meters into per-operator totals — the operator rows/chunks section of
/// the profile.  Spans deliberately do not carry per-row operator work
/// (that would blow the ≤1% overhead budget); the meters already exist.
fn operator_stats(cluster: &Cluster) -> BTreeMap<String, OperatorStats> {
    let mut ops: BTreeMap<String, OperatorStats> = BTreeMap::new();
    for i in 0..cluster.len() {
        let Some(counters) = cluster.telemetry(cluster.addr(i)).and_then(|tel| {
            tel.with(|h| {
                h.counters()
                    .filter(|(name, _)| name.starts_with("op."))
                    .map(|(name, v)| (name.to_string(), v))
                    .collect::<Vec<_>>()
            })
        }) else {
            continue;
        };
        for (name, v) in counters {
            let Some(rest) = name.strip_prefix("op.") else {
                continue;
            };
            let Some((op, meter)) = rest.rsplit_once('.') else {
                continue;
            };
            let entry = ops.entry(op.to_string()).or_default();
            match meter {
                "rows_in" => entry.rows_in += v,
                "rows_out" => entry.rows_out += v,
                "chunks_in" => entry.chunks_in += v,
                _ => {}
            }
        }
    }
    ops
}

/// Lower the full [`CostReport`] onto the four figures spans can check.
fn bounds_of(report: &CostReport) -> StaticBounds {
    StaticBounds {
        rows_per_window_per_node: report.rows_per_window_per_node,
        entries_per_flush_per_node: report.entries_per_flush_per_node,
        root_fan_in: report.root_fan_in,
        state_bytes_per_node: report.state_bytes_per_node,
    }
}

/// Run the continuous netmon workload under `EXPLAIN ANALYZE`: tracing and
/// telemetry are forced on (sampling keeps every query so the profile is
/// complete), the query text gains the `EXPLAIN ANALYZE` prefix if it does
/// not already carry one, and the post-run cluster is mined for the merged
/// span stream, the operator meters and the reconciliation verdict.
pub fn explain_analyze_netmon(cfg: &ContinuousNetmonConfig) -> QueryProfileOutcome {
    let mut cfg = cfg.clone();
    if sqlish::strip_explain_analyze(&cfg.sql).is_none() {
        cfg.sql = format!("EXPLAIN ANALYZE {}", cfg.sql);
    }
    if !cfg.pier.telemetry.enabled {
        cfg.pier.telemetry = TelemetryConfig::enabled();
    }
    // A multi-window run records a few spans per node per slide; size the
    // ring so the export is complete rather than a sample.
    cfg.pier.telemetry.capacity = cfg.pier.telemetry.capacity.max(65_536);
    if !cfg.pier.trace.enabled() {
        cfg.pier.trace = TraceConfig::sample_all();
    }

    let (outcome, cluster) = continuous_netmon_observed(&cfg);

    let merged = cluster.merged_spans();
    let mut profile = QueryProfile::build(outcome.query_id, &merged);
    profile.operators = operator_stats(&cluster);

    // The static side: the same plan the proxy admitted, costed under the
    // environment the workload actually configured.
    let plan = sqlish::compile(&cfg.sql, cluster.addr(0), 1_000_000)
        .expect("profiled query compiled once already");
    let env = EnvModel {
        nodes: cfg.nodes as u64,
        events_per_node_per_sec: cfg.events_per_node_per_sec.max(1),
        ..EnvModel::default()
    };
    let report = analyze(&plan, &env);
    let bounds = bounds_of(&report);
    let violations = profile.reconcile(&bounds);

    let mut explain = profile.explain_analyze();
    explain.push_str(&format!(
        "  static bounds: rows/window/node={} entries/flush/node={} fan-in={} state-bytes/node={}\n",
        bounds.rows_per_window_per_node,
        bounds.entries_per_flush_per_node,
        bounds.root_fan_in,
        bounds.state_bytes_per_node
    ));
    if violations.is_empty() {
        explain.push_str("  reconciliation: OK (measured <= static everywhere)\n");
    } else {
        for v in &violations {
            explain.push_str(&format!("  reconciliation VIOLATION: {v}\n"));
        }
    }

    let span_jsonl = pier_trace::merged_span_jsonl(&merged);
    let chrome_json = chrome_trace_json(&merged);
    let trace_dropped = outcome.telemetry.trace_dropped;
    QueryProfileOutcome {
        outcome,
        profile,
        report,
        bounds,
        violations,
        explain,
        span_jsonl,
        chrome_json,
        trace_dropped,
    }
}

/// The run the `query_profile` table profiles: 16 nodes for 24 s, with a
/// predicate that puts a Selection stage in the pipeline so the profile's
/// operator table (fed by the `op.*` meters) has rows to show.
pub fn query_profile_config() -> ContinuousNetmonConfig {
    let mut cfg = ContinuousNetmonConfig::steady(16, 24, 53);
    cfg.sql = "SELECT src, COUNT(*) FROM packets WHERE port > 0 \
               GROUP BY src WINDOW 2s SLIDE 1s EVERY 5s"
        .to_string();
    cfg
}

/// The `query_profile` table for one profiled run: the `EXPLAIN ANALYZE`
/// text, then the profile's headline counts as metric lines.  Spans carry
/// virtual time only, so all of it is a function of the configuration;
/// `docs/baselines/tables/query_profile.txt` records it for
/// [`query_profile_config`].
pub fn query_profile_table(run: &QueryProfileOutcome) -> String {
    let p = &run.profile;
    let mut t = Table::new(
        "query_profile",
        "# query profile: EXPLAIN ANALYZE over continuous netmon",
    );
    t.line(format_args!("{}", run.explain.trim_end()));
    for (metric, value) in [
        ("spans_total", p.total_spans as f64),
        ("windows_observed", p.windows_observed as f64),
        ("result_latency_us", p.result_latency_us as f64),
        ("critical_path_hops", p.critical_path.len() as f64),
        (
            "flush_entries_per_window",
            p.max_flush_entries_per_window as f64,
        ),
        ("reconcile_violations", run.violations.len() as f64),
        ("trace_dropped", run.trace_dropped as f64),
        ("span_export_bytes", run.span_jsonl.len() as f64),
    ] {
        t.metric(metric, value);
    }
    t.finish()
}
