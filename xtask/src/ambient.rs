//! The ambient-input rule: program code in `crates/*/src` reads neither the
//! wall clock nor the process environment.  What the simulator computes is
//! a function of the seed, and wall-clock is the benchmark's to measure from
//! outside the program, so one file per kind of read is exempt: the
//! physical runtime's clock and the proptest shim's `PROPTEST_CASES`.  The
//! scan is lexical over sanitized text, so a comment or a string naming a
//! call does not count.

use crate::lint::sanitize;
use crate::unused::{collect_rs_files, is_crate_src};
use std::fs;
use std::path::Path;

/// `(kind of read, calls that make it, the one file allowed to)`.
const RULES: [(&str, &[&str], &str); 2] = [
    (
        "wall-clock read",
        &["Instant::now", "SystemTime::now"],
        "crates/runtime/src/physical.rs",
    ),
    (
        "environment read",
        &["env::var"],
        "crates/proptest-shim/src/lib.rs",
    ),
];

/// Every read under `root/crates/*/src` outside its allowed file, one
/// `file:line: kind call` finding each.
pub fn ambient_reads(root: &Path) -> Vec<String> {
    let mut files = Vec::new();
    collect_rs_files(&root.join("crates"), &mut files);
    files.sort();
    let mut reads = Vec::new();
    for path in files {
        let label = path.strip_prefix(root).unwrap_or(&path).display();
        let label = label.to_string().replace('\\', "/");
        if !is_crate_src(&label) {
            continue;
        }
        if let Ok(source) = fs::read_to_string(&path) {
            reads.extend(reads_in(&label, &source));
        }
    }
    reads
}

fn reads_in(label: &str, source: &str) -> Vec<String> {
    let rules: Vec<_> = RULES.iter().filter(|r| r.2 != label).collect();
    let mut reads = Vec::new();
    for (idx, line) in sanitize(source).lines().enumerate() {
        for (what, calls, _) in &rules {
            for call in calls.iter().filter(|c| names(line, c)) {
                reads.push(format!("{label}:{}: {what} `{call}`", idx + 1));
            }
        }
    }
    reads
}

/// `line` names `call` as a path, not as the tail of a longer identifier.
fn names(line: &str, call: &str) -> bool {
    line.match_indices(call).any(|(at, _)| {
        let before = line[..at].chars().next_back();
        !before.is_some_and(|c| c.is_alphanumeric() || c == '_')
    })
}

#[cfg(test)]
mod tests {
    use super::reads_in;

    #[test]
    fn reads_are_flagged_outside_their_own_allowed_file() {
        let src = "fn f() {\n    Instant::now();\n    std::env::var_os(\"X\");\n}\n";
        let at = |label| reads_in(label, src);
        let demo = "crates/demo/src/lib.rs";
        let clock = format!("{demo}:2: wall-clock read `Instant::now`");
        assert_eq!(
            at(demo),
            [clock, format!("{demo}:3: environment read `env::var`")]
        );
        assert_eq!(at("crates/runtime/src/physical.rs").len(), 1);
        assert_eq!(at("crates/proptest-shim/src/lib.rs").len(), 1);
    }

    #[test]
    fn comments_strings_and_longer_names_do_not_fire() {
        let src = "// Instant::now()\nfn f() { \"env::var\"; MyInstant::now(); myenv::var(); }\n";
        assert!(reads_in("crates/demo/src/lib.rs", src).is_empty());
    }
}
