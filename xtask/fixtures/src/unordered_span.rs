//! Seeded violation corpus for the span-emit determinism lint markers.
//! Like `unordered_send.rs`, this file is NOT compiled — it exists so CI
//! can prove `cargo xtask lint xtask/fixtures` still flags hash-ordered
//! iteration on the paths that feed the record ring: the merged export
//! must stay byte-identical under equal seeds, so recording a span or an
//! event is as order-sensitive as a send.

use std::collections::{HashMap, HashSet};

struct SpanRecord;
fn span(_at: u64, _stage: &'static str, _values: [u64; 3]) -> SpanRecord {
    SpanRecord
}

struct Telemetry;
impl Telemetry {
    fn record(&self, _rec: SpanRecord) {}
    fn jsonl(&self) -> String {
        String::new()
    }
}

/// VIOLATION: per-group state walked in hash order while the function emits
/// a span — any ordering leak (first/last group, tie-breaks) would make the
/// equal-seed byte-identical span export flap.
fn flush_with_span(tel: &Telemetry, now: u64, groups: &HashMap<String, u64>) {
    let mut rows = 0;
    let mut first = String::new();
    for (key, n) in groups.iter() {
        if rows == 0 {
            first = key.clone();
        }
        rows += n;
    }
    let _ = first;
    tel.record(span(now, "window.flush", [rows, 0, 0]));
}

/// VIOLATION: hash-set order reaches the span export path.
fn export_members(tel: &Telemetry) -> String {
    let members: HashSet<u64> = HashSet::new();
    let mut out = String::new();
    for m in &members {
        out.push_str(&m.to_string());
    }
    out.push_str(&tel.jsonl());
    out
}

/// CLEAN: same shape, materialised into a B-tree order before emission.
fn flush_sorted(tel: &Telemetry, now: u64, groups: &HashMap<String, u64>) {
    let ordered: std::collections::BTreeMap<_, _> = groups.iter().collect();
    let rows = ordered.values().map(|n| **n).sum();
    tel.record(span(now, "window.flush", [rows, 0, 0]));
}
