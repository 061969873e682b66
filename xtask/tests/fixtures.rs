//! The lint rules against their seeded fixture corpora and the live
//! workspace.  The determinism fixture must FAIL with exactly the six
//! seeded findings (two effects-out, two send-path, two span-emit), the
//! unreached-code fixture with its two seeded `pub fn`s, the ambient-input
//! fixture with its three seeded reads.  The real tree must PASS all three;
//! the lint's job is to keep it that way.

use std::path::PathBuf;
use xtask::{ambient, lint, unused};

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
        ("groups", ".record("),
        ("members", ".jsonl("),
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

#[test]
fn seeded_unused_functions_are_flagged() {
    let findings = unused::unused_pub_fns(&workspace_root().join("xtask/fixtures/unused"));
    let found: Vec<(&str, &str)> = findings
        .iter()
        .map(|f| (f.file.as_str(), f.name.as_str()))
        .collect();
    assert_eq!(
        found,
        [
            ("crates/demo/src/lib.rs", "seeded_unused"),
            ("crates/demo/src/lib.rs", "seeded_test_only"),
        ],
        "expected exactly the two seeded unreached functions"
    );
}

#[test]
fn live_tree_has_no_unreached_pub_fn() {
    let findings = unused::unused_pub_fns(&workspace_root());
    assert!(
        findings.is_empty(),
        "every `pub fn` in crates/*/src needs a caller outside its own tests: {findings:?}"
    );
}

#[test]
fn only_the_seeded_clock_and_env_reads_are_flagged() {
    let reads = ambient::ambient_reads(&workspace_root().join("xtask/fixtures"));
    let at = |line, read| format!("crates/demo/src/lib.rs:{line}: {read}");
    let seeded = [
        at(10, "wall-clock read `Instant::now`"),
        at(16, "wall-clock read `SystemTime::now`"),
        at(21, "environment read `env::var`"),
    ];
    assert_eq!(reads, seeded);
    assert!(ambient::ambient_reads(&workspace_root()).is_empty());
}
