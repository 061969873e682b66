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

const SPAN: &[&str] = &["rows", "bytes", "aux"];

/// The record catalogue `docs/OBSERVABILITY.md` documents ("Record
/// catalogue"): each stage, whether it is a span or an event, and the
/// names its values are written under.
pub const CATALOGUE: [(&str, &str, &[&str]); 34] = [
    ("query.disseminate", "span", SPAN),
    ("query.install", "span", SPAN),
    ("ingest", "span", SPAN),
    ("window.flush", "span", SPAN),
    ("window.combine", "span", SPAN),
    ("window.upcall", "span", SPAN),
    ("window.emit", "span", SPAN),
    ("result.emit", "span", SPAN),
    ("share.flush", "span", SPAN),
    ("query_install", "event", &["graphs", "continuous"]),
    ("query_teardown", "event", &[]),
    ("lease_renew", "event", &[]),
    ("share_join", "event", &["group", "new_group"]),
    ("share_leave", "event", &["retired_group"]),
    ("window_shed", "event", &["shed"]),
    ("window_evict", "event", &["evicted"]),
    ("owner_cache_invalidate", "event", &["epoch", "dropped"]),
    ("eddy_reorder", "event", &["filters", "order"]),
    (
        "window.rehydrate",
        "event",
        &["windows", "groups", "tuples"],
    ),
    ("lease.backoff", "event", &["queries", "attempt", "delay"]),
    ("admission.admit", "event", &["tenant"]),
    ("admission.shed", "event", &["tenant", "sample_every"]),
    ("admission.reject", "event", &["tenant"]),
    ("loss", "event", &["from", "to"]),
    ("partition_drop", "event", &["from", "to"]),
    ("duplicate", "event", &["from", "to", "extra"]),
    ("reorder", "event", &["from", "to", "extra"]),
    ("delay_spike", "event", &["from", "to", "extra"]),
    ("partition_start", "event", &["id"]),
    ("partition_heal", "event", &["id"]),
    ("crash", "event", &["target"]),
    ("restart", "event", &["target"]),
    ("stall_start", "event", &["target"]),
    ("stall_end", "event", &["target"]),
];

/// The record catalogue as `docs/OBSERVABILITY.md` has it, in
/// [`CATALOGUE`]'s form, so that list cannot drift from the documentation.
/// A row of the table may name several stages that share their values.
pub fn documented() -> Vec<(String, String, Vec<String>)> {
    let doc = include_str!("../../docs/OBSERVABILITY.md");
    let quoted = |cell: &str| -> Vec<String> {
        cell.split('`')
            .skip(1)
            .step_by(2)
            .map(str::to_string)
            .collect()
    };
    let mut rows = Vec::new();
    let table = doc
        .lines()
        .skip_while(|l| !l.starts_with("| Stage | Record |"))
        .skip(2)
        .take_while(|l| l.starts_with('|'));
    for line in table {
        let cells: Vec<&str> = line.split('|').map(str::trim).collect();
        for stage in quoted(cells[1]) {
            rows.push((stage, cells[2].to_string(), quoted(cells[3])));
        }
    }
    rows
}

/// [`CATALOGUE`] in [`documented`]'s form.
pub fn catalogue() -> Vec<(String, String, Vec<String>)> {
    let owned = |names: &[&str]| names.iter().map(ToString::to_string).collect();
    let entry = |(stage, record, names): &(&str, &str, &[&str])| {
        (stage.to_string(), record.to_string(), owned(names))
    };
    CATALOGUE.iter().map(entry).collect()
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

/// Every line of a non-empty export (a node's, or the merged all-nodes
/// form with its leading `node` key) is on the documented schema: integer
/// virtual-time bounds, ordinal, ids and query, a catalogued stage, and
/// the integer values under that stage's names.  An event is
/// zero-duration and carries no trace, span or parent.
pub fn assert_export(jsonl: &str, merged: bool) {
    assert!(!jsonl.is_empty(), "the export must not be empty");
    let node = if merged { "\"node\":#," } else { "" };
    for line in jsonl.lines() {
        let stage = tag(line, "stage");
        let Some((_, record, names)) = CATALOGUE.iter().find(|c| c.0 == stage) else {
            panic!("uncatalogued stage: {line}");
        };
        let values: String = names.iter().map(|n| format!(",\"{n}\":#")).collect();
        assert!(
            !values.contains("\"node\""),
            "a value named like the merger's key"
        );
        assert_eq!(
            shape(line),
            format!(
                "{{{node}\"start\":#,\"end\":#,\"ordinal\":#,\"trace\":#,\"span\":#,\
                 \"parent\":#,\"query\":#,\"stage\":${values}}}"
            ),
            "off the documented schema: {line}"
        );
        if *record == "event" {
            assert!(
                line.contains("\"trace\":0,\"span\":0,\"parent\":0,"),
                "{line}"
            );
            let at = |key| {
                line.split(&format!("\"{key}\":"))
                    .nth(1)
                    .map(|v| v.split(',').next())
            };
            assert_eq!(at("start"), at("end"), "an event has no duration: {line}");
        }
    }
}
