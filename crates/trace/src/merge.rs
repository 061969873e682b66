//! Deterministic multi-node export merging.
//!
//! Each node's hub keeps one ring of spans and events.  For a cluster-wide
//! export the per-node streams are merged under a **total** order — virtual
//! time first, then node address, then the node-local ordinal — so the
//! merged file is stable across runs (equal seeds ⇒ byte-identical output)
//! and independent of the collection order.  The same merger backs the
//! all-nodes export and the Chrome `trace_event` profile.

use pier_telemetry::SpanRecord;

/// A span tagged with the node that recorded it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeSpan {
    /// Recording node's address.
    pub node: u32,
    /// The span.
    pub span: SpanRecord,
}

/// Merge per-node record collections into one totally ordered stream:
/// `(start, node, ordinal)` ascending.
pub fn merge_spans(per_node: &[(u32, Vec<SpanRecord>)]) -> Vec<NodeSpan> {
    let mut merged: Vec<NodeSpan> = per_node
        .iter()
        .flat_map(|(node, spans)| {
            spans.iter().map(|s| NodeSpan {
                node: *node,
                span: *s,
            })
        })
        .collect();
    merged.sort_by_key(|ns| (ns.span.start, ns.node, ns.span.ordinal));
    merged
}

/// The merged record stream as JSONL.  Each line is the record's own JSON
/// with a leading `"node"` key injected, so per-node and merged exports
/// share one schema apart from that key.
pub fn merged_span_jsonl(merged: &[NodeSpan]) -> String {
    let mut out = String::new();
    for ns in merged {
        let body = ns.span.to_json();
        out.push_str("{\"node\":");
        out.push_str(&ns.node.to_string());
        out.push(',');
        out.push_str(&body[1..]);
        out.push('\n');
    }
    out
}

/// Render a merged span stream as a Chrome `trace_event` JSON document
/// (the "JSON Array Format" chrome://tracing and Perfetto load).  Each
/// span becomes one complete event (`ph:"X"`): `pid` is the node, `tid`
/// the query, `ts`/`dur` are virtual microseconds.  Events are not spans
/// and are left out.
pub fn chrome_trace_json(merged: &[NodeSpan]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    let spans = merged.iter().filter(|ns| !ns.span.is_event());
    for (i, ns) in spans.enumerate() {
        if i > 0 {
            out.push(',');
        }
        let s = &ns.span;
        let [rows, bytes, aux] = s.values;
        out.push_str("{\"name\":\"");
        out.push_str(s.stage);
        out.push_str("\",\"cat\":\"pier\",\"ph\":\"X\",\"ts\":");
        out.push_str(&s.start.to_string());
        out.push_str(",\"dur\":");
        out.push_str(&(s.end - s.start).to_string());
        out.push_str(",\"pid\":");
        out.push_str(&ns.node.to_string());
        out.push_str(",\"tid\":");
        out.push_str(&s.query_id.to_string());
        out.push_str(",\"args\":{\"trace\":");
        out.push_str(&s.trace_id.to_string());
        out.push_str(",\"span\":");
        out.push_str(&s.span_id.to_string());
        out.push_str(",\"parent\":");
        out.push_str(&s.parent.to_string());
        out.push_str(",\"rows\":");
        out.push_str(&rows.to_string());
        out.push_str(",\"bytes\":");
        out.push_str(&bytes.to_string());
        out.push_str(",\"aux\":");
        out.push_str(&aux.to_string());
        out.push_str("}}");
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pier_telemetry::SPAN_SLOTS;

    fn span(start: u64, ordinal: u64, span_id: u64) -> SpanRecord {
        SpanRecord {
            start,
            end: start + 5,
            ordinal,
            trace_id: 9,
            span_id,
            parent: 9,
            query_id: 42,
            stage: "ingest",
            names: SPAN_SLOTS,
            values: [1, 0, 0],
        }
    }

    #[test]
    fn merge_orders_by_time_then_node_then_ordinal() {
        let per_node = vec![
            (1u32, vec![span(10, 0, 100), span(30, 1, 101)]),
            (0u32, vec![span(10, 0, 200), span(20, 1, 201)]),
        ];
        let merged = merge_spans(&per_node);
        let order: Vec<(u64, u32)> = merged.iter().map(|ns| (ns.span.start, ns.node)).collect();
        assert_eq!(order, vec![(10, 0), (10, 1), (20, 0), (30, 1)]);
        // Collection order must not matter.
        let swapped = vec![per_node[1].clone(), per_node[0].clone()];
        assert_eq!(merged, merge_spans(&swapped));
    }

    #[test]
    fn merged_jsonl_injects_node_key() {
        let merged = merge_spans(&[(3u32, vec![span(10, 0, 100)])]);
        let line = merged_span_jsonl(&merged);
        assert!(line.starts_with("{\"node\":3,\"start\":10,"), "{line}");
        assert!(line.ends_with("}\n"));
    }

    /// An event at `time` with ordinal `ordinal`, as a hub stamps it.
    fn event(time: u64, ordinal: u64) -> SpanRecord {
        SpanRecord {
            start: time,
            end: time,
            ordinal,
            ..SpanRecord::event("query_install", 42, &["graphs"], [1])
        }
    }

    #[test]
    fn merged_export_of_events_is_collection_order_independent() {
        let a = vec![
            (0u32, vec![event(5, 0)]),
            (1u32, vec![event(5, 0), event(9, 1)]),
        ];
        let b = vec![a[1].clone(), a[0].clone()];
        let jsonl = merged_span_jsonl(&merge_spans(&a));
        assert_eq!(jsonl, merged_span_jsonl(&merge_spans(&b)));
        assert!(jsonl.starts_with("{\"node\":0,\"start\":5,\"end\":5,"));
    }

    #[test]
    fn chrome_export_is_one_complete_event_per_span() {
        let merged = merge_spans(&[(0u32, vec![span(10, 0, 100), span(20, 1, 101)])]);
        let doc = chrome_trace_json(&merged);
        assert!(doc.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
        assert_eq!(doc.matches("\"ph\":\"X\"").count(), 2);
        assert!(doc.contains("\"ts\":10,\"dur\":5,\"pid\":0,\"tid\":42"));
        assert!(doc.ends_with("]}"));
    }
}
