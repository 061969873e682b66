//! The EXPLAIN ANALYZE profile: measured spans folded per stage, the
//! critical path of result latency, and reconciliation against the static
//! cost bounds of `pier-analyze`.

use crate::merge::NodeSpan;
use pier_runtime::SimTime;
use std::collections::{BTreeMap, BTreeSet};

/// Aggregated measurements for one stage across every node and window.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageStats {
    /// Spans recorded for the stage.
    pub spans: u64,
    /// Total rows across those spans.
    pub rows: u64,
    /// Total wire bytes across those spans.
    pub bytes: u64,
    /// Largest single-span row count (the figure static bounds cap).
    pub max_rows: u64,
    /// Largest single-span byte count.
    pub max_bytes: u64,
    /// Summed span durations (virtual µs; overlapping spans double-count —
    /// this is work, not wall time).
    pub busy_us: u64,
    /// Distinct nodes that recorded the stage.
    pub nodes: u64,
    /// Earliest span start.
    pub first_start: SimTime,
    /// Latest span end.
    pub last_end: SimTime,
}

/// Per-operator rows/chunks, harvested from the pipeline stage meters
/// (`op.<name>.rows_in` counters) rather than spans — per-row span
/// recording would blow the ≤1% overhead budget.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OperatorStats {
    /// Rows entering the operator.
    pub rows_in: u64,
    /// Rows surviving the operator.
    pub rows_out: u64,
    /// Columnar chunks entering the operator (batch path only).
    pub chunks_in: u64,
}

/// One hop on the critical path from query dissemination to the final
/// result emit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CriticalHop {
    /// Node the hop executed on.
    pub node: u32,
    /// Stage tag.
    pub stage: &'static str,
    /// Hop start (virtual µs).
    pub start: SimTime,
    /// Hop end (virtual µs).
    pub end: SimTime,
    /// Rows the hop processed.
    pub rows: u64,
    /// Wire bytes the hop shipped.
    pub bytes: u64,
}

/// The static `CostReport` figures a measured profile must stay under.
/// `pier-analyze` produces these; keeping a local mirror struct avoids a
/// dependency cycle (analyze depends on core depends on this crate).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StaticBounds {
    /// Worst-case source rows touched per window per node.
    pub rows_per_window_per_node: u64,
    /// Worst-case `PutBatch` entries shipped per flush per node.
    pub entries_per_flush_per_node: u64,
    /// Worst-case senders converging on the query root per flush.
    pub root_fan_in: u64,
    /// Worst-case window state bytes resident per node.
    pub state_bytes_per_node: u64,
}

/// A query's measured execution profile, assembled from the merged
/// cluster-wide span stream.
#[derive(Debug, Clone, Default)]
pub struct QueryProfile {
    /// The profiled query.
    pub query_id: u64,
    /// Its trace id.
    pub trace_id: u64,
    /// Per-stage aggregates, in stage-name order.
    pub stages: BTreeMap<&'static str, StageStats>,
    /// Per-operator rows/chunks (filled by the harness from pipeline
    /// meters; empty when the run had no operator telemetry).
    pub operators: BTreeMap<String, OperatorStats>,
    /// The span chain ending at the last `result.emit`, root first.
    pub critical_path: Vec<CriticalHop>,
    /// Virtual time from the first critical-path hop's start to the last
    /// hop's end — where one result's latency actually went.
    pub result_latency_us: u64,
    /// Distinct windows observed (distinct `aux` stamps on window stages).
    pub windows_observed: u64,
    /// Spans attributed to the query, across all nodes.
    pub total_spans: u64,
    /// Largest per-node total of ingest-stage rows (used by
    /// [`QueryProfile::reconcile`]).
    pub max_node_ingest_rows: u64,
    /// Largest per-*pane* entry count any single flush shipped: a flush
    /// tick can bundle several closed panes (its span's `aux` counts them),
    /// while the static bound is per closed pane — so each flush span's
    /// rows are normalized by the panes it bundled.
    pub max_flush_entries_per_window: u64,
}

impl QueryProfile {
    /// Fold a merged span stream into a profile for `query_id`.  Spans
    /// charged to other queries are ignored, so one export can serve many
    /// profiles.
    pub fn build(query_id: u64, merged: &[NodeSpan]) -> Self {
        let mut profile = QueryProfile {
            query_id,
            ..QueryProfile::default()
        };
        let mut windows: BTreeSet<u64> = BTreeSet::new();
        let mut stage_nodes: BTreeMap<&'static str, BTreeSet<u32>> = BTreeMap::new();
        let mut ingest_rows_per_node: BTreeMap<u32, u64> = BTreeMap::new();
        let mut by_span_id: BTreeMap<u64, NodeSpan> = BTreeMap::new();
        let mut last: Option<NodeSpan> = None;
        for ns in merged {
            let s = &ns.span;
            if s.query_id != query_id {
                continue;
            }
            profile.trace_id = s.trace_id;
            profile.total_spans += 1;
            let st = profile.stages.entry(s.stage).or_default();
            if st.spans == 0 {
                st.first_start = s.start;
            }
            st.spans += 1;
            st.rows += s.rows;
            st.bytes += s.bytes;
            st.max_rows = st.max_rows.max(s.rows);
            st.max_bytes = st.max_bytes.max(s.bytes);
            st.busy_us += s.end - s.start;
            st.first_start = st.first_start.min(s.start);
            st.last_end = st.last_end.max(s.end);
            stage_nodes.entry(s.stage).or_default().insert(ns.node);
            // Only the emit span's aux is a window stamp (flush reuses aux
            // for its bundled-window count, other stages leave it 0).
            if s.stage == "window.emit" && s.aux != 0 {
                windows.insert(s.aux);
            }
            if s.stage == "window.flush" {
                profile.max_flush_entries_per_window = profile
                    .max_flush_entries_per_window
                    .max(s.rows.div_ceil(s.aux.max(1)));
            }
            if s.stage == "ingest" {
                *ingest_rows_per_node.entry(ns.node).or_default() += s.rows;
            }
            by_span_id.insert(s.span_id, *ns);
            if s.stage == "result.emit" {
                let better = last.is_none_or(|prev| {
                    (s.end, ns.node, s.ordinal) > (prev.span.end, prev.node, prev.span.ordinal)
                });
                if better {
                    last = Some(*ns);
                }
            }
        }
        for (stage, nodes) in stage_nodes {
            if let Some(st) = profile.stages.get_mut(stage) {
                st.nodes = nodes.len() as u64;
            }
        }
        profile.windows_observed = windows.len() as u64;
        profile.max_node_ingest_rows = ingest_rows_per_node.values().copied().max().unwrap_or(0);

        // Walk the parent chain from the final result emit back to the
        // trace root.  The bounded hop count guards against parent cycles
        // in a corrupted export.
        let mut path = Vec::new();
        let mut cursor = last;
        let mut hops = 0;
        while let Some(ns) = cursor {
            path.push(CriticalHop {
                node: ns.node,
                stage: ns.span.stage,
                start: ns.span.start,
                end: ns.span.end,
                rows: ns.span.rows,
                bytes: ns.span.bytes,
            });
            hops += 1;
            if ns.span.parent == ns.span.trace_id || ns.span.parent == 0 || hops > 64 {
                break;
            }
            cursor = by_span_id.get(&ns.span.parent).copied();
        }
        path.reverse();
        profile.result_latency_us = match (path.first(), path.last()) {
            (Some(first), Some(end)) => end.end.saturating_sub(first.start),
            _ => 0,
        };
        profile.critical_path = path;
        profile
    }

    /// Check the measured figures against the static bounds.  Returns one
    /// human-readable violation per exceeded bound (empty = reconciled:
    /// measured ≤ static everywhere).
    pub fn reconcile(&self, bounds: &StaticBounds) -> Vec<String> {
        let mut violations = Vec::new();
        if let Some(flush) = self.stages.get("window.flush") {
            // En-route combining lets a relay flush its whole subtree's
            // merged groups, so the sound per-node figure is the
            // per-sender bound times the fan-in — the same arithmetic the
            // admission-soundness suite applies to the cluster totals.
            let flush_bound = bounds
                .entries_per_flush_per_node
                .saturating_mul(bounds.root_fan_in.max(1));
            if self.max_flush_entries_per_window > flush_bound {
                violations.push(format!(
                    "window.flush shipped {} entries per closed pane; static bound is {} ({} per sender x fan-in {})",
                    self.max_flush_entries_per_window,
                    flush_bound,
                    bounds.entries_per_flush_per_node,
                    bounds.root_fan_in.max(1)
                ));
            }
            if flush.max_bytes > bounds.state_bytes_per_node {
                violations.push(format!(
                    "window.flush shipped {} bytes in one flush; static state bound is {}",
                    flush.max_bytes, bounds.state_bytes_per_node
                ));
            }
            if flush.nodes > bounds.root_fan_in {
                violations.push(format!(
                    "{} nodes flushed toward the root; static fan-in bound is {}",
                    flush.nodes, bounds.root_fan_in
                ));
            }
        }
        if self.windows_observed > 0 {
            let per_window = self.max_node_ingest_rows.div_ceil(self.windows_observed);
            if per_window > bounds.rows_per_window_per_node {
                violations.push(format!(
                    "busiest node ingested {per_window} rows per window; static bound is {}",
                    bounds.rows_per_window_per_node
                ));
            }
        }
        violations
    }

    /// Render the profile as the `EXPLAIN ANALYZE` text summary: the
    /// per-stage table, the per-operator table and the critical path.
    /// Deterministic (stable orders, integer virtual time throughout).
    pub fn explain_analyze(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "EXPLAIN ANALYZE query {} (trace {:#018x}): {} spans, {} windows\n",
            self.query_id, self.trace_id, self.total_spans, self.windows_observed
        ));
        out.push_str("  stage            spans       rows      bytes   busy(us)  nodes\n");
        for (stage, st) in &self.stages {
            out.push_str(&format!(
                "  {:<16} {:>5} {:>10} {:>10} {:>10} {:>6}\n",
                stage, st.spans, st.rows, st.bytes, st.busy_us, st.nodes
            ));
        }
        if !self.operators.is_empty() {
            out.push_str("  operator            rows_in   rows_out  chunks_in\n");
            for (name, op) in &self.operators {
                out.push_str(&format!(
                    "  {:<18} {:>8} {:>10} {:>10}\n",
                    name, op.rows_in, op.rows_out, op.chunks_in
                ));
            }
        }
        out.push_str(&format!(
            "  critical path (result latency {} us):\n",
            self.result_latency_us
        ));
        for hop in &self.critical_path {
            out.push_str(&format!(
                "    node {:<3} {:<16} t={:>10}..{:<10} rows={} bytes={}\n",
                hop.node, hop.stage, hop.start, hop.end, hop.rows, hop.bytes
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pier_telemetry::SpanRecord;

    fn ns(node: u32, span: SpanRecord) -> NodeSpan {
        NodeSpan { node, span }
    }

    fn span(
        start: u64,
        end: u64,
        span_id: u64,
        parent: u64,
        stage: &'static str,
        rows: u64,
    ) -> SpanRecord {
        SpanRecord {
            start,
            end,
            ordinal: span_id,
            trace_id: 77,
            span_id,
            parent,
            query_id: 42,
            stage,
            rows,
            bytes: rows * 32,
            // Mirror the recorder: emit stamps the window start, flush
            // counts the windows it bundled, everything else leaves 0.
            aux: match stage {
                "window.emit" => 1_000_000,
                "window.flush" => 1,
                _ => 0,
            },
        }
    }

    fn sample_spans() -> Vec<NodeSpan> {
        vec![
            // Root: the dissemination span's id IS the trace id.
            ns(0, span(0, 10, 77, 0, "query.disseminate", 1)),
            ns(1, span(5, 5, 101, 77, "ingest", 4)),
            ns(2, span(5, 5, 102, 77, "ingest", 6)),
            ns(1, span(100, 110, 103, 77, "window.flush", 3)),
            ns(0, span(120, 125, 104, 103, "window.combine", 3)),
            ns(0, span(130, 140, 105, 104, "window.emit", 2)),
            ns(0, span(150, 155, 106, 105, "result.emit", 2)),
        ]
    }

    #[test]
    fn build_folds_stages_and_walks_critical_path() {
        let p = QueryProfile::build(42, &sample_spans());
        assert_eq!(p.total_spans, 7);
        assert_eq!(p.stages["ingest"].rows, 10);
        assert_eq!(p.stages["ingest"].nodes, 2);
        assert_eq!(p.stages["window.flush"].max_rows, 3);
        assert_eq!(p.windows_observed, 1);
        assert_eq!(p.max_node_ingest_rows, 6);
        let stages: Vec<&str> = p.critical_path.iter().map(|h| h.stage).collect();
        assert_eq!(
            stages,
            vec![
                "window.flush",
                "window.combine",
                "window.emit",
                "result.emit"
            ]
        );
        assert_eq!(p.result_latency_us, 155 - 100);
        // Spans of other queries are ignored.
        let mut other = sample_spans();
        other.push(ns(
            3,
            SpanRecord {
                query_id: 9,
                ..other[0].span
            },
        ));
        assert_eq!(QueryProfile::build(42, &other).total_spans, 7);
    }

    #[test]
    fn reconcile_flags_each_exceeded_bound() {
        let p = QueryProfile::build(42, &sample_spans());
        let generous = StaticBounds {
            rows_per_window_per_node: 100,
            entries_per_flush_per_node: 10,
            root_fan_in: 8,
            state_bytes_per_node: 1 << 20,
        };
        assert!(p.reconcile(&generous).is_empty());
        let tight = StaticBounds {
            rows_per_window_per_node: 1,
            entries_per_flush_per_node: 1,
            root_fan_in: 0,
            state_bytes_per_node: 1,
        };
        let violations = p.reconcile(&tight);
        assert_eq!(violations.len(), 4, "{violations:?}");
    }

    #[test]
    fn explain_analyze_renders_every_section() {
        let mut p = QueryProfile::build(42, &sample_spans());
        p.operators.insert(
            "select".to_string(),
            OperatorStats {
                rows_in: 10,
                rows_out: 4,
                chunks_in: 2,
            },
        );
        let text = p.explain_analyze();
        assert!(text.contains("EXPLAIN ANALYZE query 42"));
        assert!(text.contains("window.flush"));
        assert!(text.contains("select"));
        assert!(text.contains("critical path (result latency 55 us)"));
        assert_eq!(text, p.explain_analyze(), "rendering must be stable");
    }
}
