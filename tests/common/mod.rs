//! Helpers shared by the integration tests (`mod common;`).

// Each test file uses its own subset.
#![allow(dead_code)]

/// Mix the CI seed matrix into a test's default seed: `PIER_SEED`, when
/// set, perturbs the seed so the suites that assert structural properties —
/// equal multisets between execution strategies, byte-identical replays,
/// trace reconciliation — are exercised over distinct topologies and fault
/// realisations (every such assertion must hold for *any* seed).
pub fn seeded(default: u64) -> u64 {
    match std::env::var("PIER_SEED") {
        Ok(s) => default ^ s.trim().parse::<u64>().expect("PIER_SEED must be a u64"),
        Err(_) => default,
    }
}

/// The trace-event kinds `docs/OBSERVABILITY.md` documents ("Trace events").
pub const EVENT_KINDS: [&str; 16] = [
    "query_install",
    "query_teardown",
    "lease_renew",
    "share_join",
    "share_leave",
    "window_shed",
    "window_evict",
    "owner_cache_invalidate",
    "eddy_reorder",
    "fault.inject",
    "partition.heal",
    "window.rehydrate",
    "lease.backoff",
    "admission.admit",
    "admission.shed",
    "admission.reject",
];

/// The span stages `docs/OBSERVABILITY.md` documents ("Stage catalogue").
pub const SPAN_STAGES: [&str; 9] = [
    "query.disseminate",
    "query.install",
    "ingest",
    "window.flush",
    "window.combine",
    "window.upcall",
    "window.emit",
    "result.emit",
    "share.flush",
];

/// The back-quoted first-column names of the table in
/// `docs/OBSERVABILITY.md` whose header row starts `| <header> |`, so the
/// lists above cannot drift from the documentation.
pub fn documented(header: &str) -> Vec<String> {
    let doc = include_str!("../../docs/OBSERVABILITY.md");
    doc.lines()
        .skip_while(|l| !l.starts_with(&format!("| {header} |")))
        .skip(2)
        .take_while(|l| l.starts_with('|'))
        .map(|l| l.split('`').nth(1).expect("a back-quoted name").to_string())
        .collect()
}

/// True when `docs/OBSERVABILITY.md`'s metric catalogue has a row for the
/// counter `name`.
pub fn metric_documented(name: &str) -> bool {
    let doc = include_str!("../../docs/OBSERVABILITY.md");
    doc.lines().any(|l| l.starts_with(&format!("| `{name}` |")))
}

/// `line` with every number replaced by `#` and every string *value* by
/// `$` (keys stay): the line's shape, to hold against a template.  A float
/// or a negative number leaves its `.` or `-` behind, a quoted number shows
/// as `$`, so only unsigned integers match a `#`.
pub fn shape(line: &str) -> String {
    let mut out = String::new();
    let mut rest = line;
    while let Some(c) = rest.chars().next() {
        if c == '"' {
            let mut end = 1;
            while rest.as_bytes()[end] != b'"' {
                end += if rest.as_bytes()[end] == b'\\' { 2 } else { 1 };
            }
            let (string, after) = rest.split_at(end + 1);
            out.push_str(if after.starts_with(':') { string } else { "$" });
            rest = after;
        } else if c.is_ascii_digit() {
            out.push('#');
            rest = rest.trim_start_matches(|c: char| c.is_ascii_digit());
        } else {
            out.push(c);
            rest = &rest[c.len_utf8()..];
        }
    }
    out
}

/// The string under the first `"key":"…"` of `line`.
fn tag<'a>(line: &'a str, key: &str) -> &'a str {
    let from = line.find(&format!("\"{key}\":\"")).expect(key) + key.len() + 4;
    &line[from..from + line[from..].find('"').expect(key)]
}

/// Every line of a non-empty event-trace export (node 0's, or the merged
/// all-nodes form with its leading `node` key) is on the documented schema:
/// integer time stamp and ordinal, a catalogued kind, string-valued fields.
pub fn assert_event_export(jsonl: &str, merged: bool) {
    assert!(!jsonl.is_empty(), "the export must not be empty");
    let node = if merged { "\"node\":#," } else { "" };
    let head = format!("{{{node}\"time\":#,\"ordinal\":#,\"kind\":$,\"fields\":{{");
    for line in jsonl.lines() {
        let shape = shape(line);
        let payload = shape.strip_prefix(&head).and_then(|s| s.strip_suffix("}}"));
        let payload = payload.unwrap_or_else(|| panic!("off the documented schema: {line}"));
        assert!(
            payload.is_empty() || payload.split(',').all(|f| f.ends_with("\":$")),
            "fields must be string-valued: {line}"
        );
        let kind = tag(line, "kind");
        assert!(EVENT_KINDS.contains(&kind), "uncatalogued kind: {line}");
    }
}

/// Every line of a non-empty merged span export is on the documented
/// schema: the merger's node key, integer virtual-time bounds, ids and
/// counts, a catalogued stage.
pub fn assert_span_export(jsonl: &str) {
    assert!(!jsonl.is_empty(), "the export must not be empty");
    for line in jsonl.lines() {
        assert_eq!(
            shape(line),
            "{\"node\":#,\"start\":#,\"end\":#,\"ordinal\":#,\"trace\":#,\"span\":#,\
             \"parent\":#,\"query\":#,\"stage\":$,\"rows\":#,\"bytes\":#,\"aux\":#}",
            "off the documented schema: {line}"
        );
        let stage = tag(line, "stage");
        assert!(SPAN_STAGES.contains(&stage), "uncatalogued stage: {line}");
    }
}
