//! The determinism lint against its seeded fixture corpus and the live
//! workspace: the fixture must FAIL with exactly the six seeded findings
//! (two effects-out, two send-path, two span-emit), and the real tree must
//! PASS (PR 7 sorted every send path; the lint's job is to keep it that
//! way).

use std::path::PathBuf;
use xtask::lint;

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("xtask lives one level below the workspace root")
        .to_path_buf()
}

#[test]
fn seeded_fixture_fails_with_expected_findings() {
    let findings = lint::lint_tree(&workspace_root().join("xtask/fixtures"));
    assert_eq!(
        findings.len(),
        6,
        "expected exactly the six seeded violations, got: {findings:?}"
    );
    let found: Vec<(&str, &str)> = findings
        .iter()
        .map(|f| (f.name.as_str(), f.marker.as_str()))
        .collect();
    let seeded = [
        ("buffers", "OverlayEffect"),
        ("by_key", ".put_batch("),
        ("pending", "ctx.send"),
        ("peers", "ctx.output"),
        ("groups", ".record_span("),
        ("members", "span_jsonl"),
    ];
    assert_eq!(found, seeded);
}

#[test]
fn live_tree_passes() {
    let findings = lint::lint_tree(&workspace_root());
    assert!(
        findings.is_empty(),
        "send-path determinism lint must pass on the tree: {findings:?}"
    );
}
