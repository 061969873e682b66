//! The unreached-code lint: a `pub fn` in a workspace crate's `src/` whose
//! name appears nowhere but its own definition and its own file's
//! `#[cfg(test)]` items is code the system does not run.
//!
//! Callers are searched for lexically, by identifier, in the directories a
//! caller can live in: every crate (`src/`, `tests/`, `benches/`,
//! `examples/`), the facade's `src/`, `tests/` and `examples/`, `xtask/` and
//! `benchmark/src`.  Comments and string literals do not count (an
//! intra-doc link is not a caller), nor do definitions (`fn name`) anywhere.
//! Matching by name is conservative: a function sharing its name with any
//! other used item passes.  The fix for a finding is to delete the function
//! or, when a module test uses it as a reference, to move it under
//! `#[cfg(test)]`.

use crate::lint::sanitize;
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

/// Directories (relative to the workspace root) searched for callers.
const CALLER_DIRS: &[&str] = &[
    "crates",
    "src",
    "tests",
    "examples",
    "xtask",
    "benchmark/src",
];

/// One `pub fn` nothing calls.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnusedFn {
    /// File the function is defined in (workspace-relative).
    pub file: String,
    /// 1-based line of the definition.
    pub line: usize,
    /// The function's name.
    pub name: String,
}

impl fmt::Display for UnusedFn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: `pub fn {}` is named nowhere outside its definition and its file's tests",
            self.file, self.line, self.name
        )
    }
}

/// A source file, sanitized, with its `#[cfg(test)]` line ranges.
struct Source {
    label: String,
    lines: Vec<String>,
    test_spans: Vec<(usize, usize)>,
}

impl Source {
    fn in_test(&self, line: usize) -> bool {
        self.test_spans
            .iter()
            .any(|&(s, e)| (s..=e).contains(&line))
    }
}

/// Every `pub fn` under `root/crates/*/src` that nothing calls.
pub fn unused_pub_fns(root: &Path) -> Vec<UnusedFn> {
    let mut files = Vec::new();
    for dir in CALLER_DIRS {
        collect_rs_files(&root.join(dir), &mut files);
    }
    files.sort();
    let sources: Vec<Source> = files
        .iter()
        .filter_map(|path| {
            let text = fs::read_to_string(path).ok()?;
            let lines: Vec<String> = sanitize(&text).lines().map(str::to_string).collect();
            let test_spans = test_spans(&lines);
            let label = path
                .strip_prefix(root)
                .unwrap_or(path)
                .display()
                .to_string();
            Some(Source {
                label,
                lines,
                test_spans,
            })
        })
        .collect();

    let mut unused = Vec::new();
    for (idx, src) in sources.iter().enumerate() {
        if !is_crate_src(&src.label) {
            continue;
        }
        for (line, text) in src.lines.iter().enumerate() {
            let Some(name) = pub_fn_name(text) else {
                continue;
            };
            if src.in_test(line) {
                continue;
            }
            let called = sources.iter().enumerate().any(|(j, other)| {
                other.lines.iter().enumerate().any(|(l, t)| {
                    (j != idx || !other.in_test(l)) && names_outside_definition(t, name)
                })
            });
            if !called {
                unused.push(UnusedFn {
                    file: src.label.clone(),
                    line: line + 1,
                    name: name.to_string(),
                });
            }
        }
    }
    unused
}

/// `label` is `crates/<name>/src/...`.
pub(crate) fn is_crate_src(label: &str) -> bool {
    let parts: Vec<&str> = label.split(['/', '\\']).collect();
    parts.len() > 3 && parts[0] == "crates" && parts[2] == "src"
}

pub(crate) fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name != "target" && name != "fixtures" {
                collect_rs_files(&path, out);
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

/// The name of a `pub fn` defined on this sanitized line.
fn pub_fn_name(line: &str) -> Option<&str> {
    let rest = line.trim_start().strip_prefix("pub ")?;
    let rest = ["const ", "async ", "unsafe "]
        .iter()
        .fold(rest, |r, q| r.strip_prefix(q).unwrap_or(r));
    let rest = rest.strip_prefix("fn ")?;
    let end = rest
        .find(|c: char| !(c.is_alphanumeric() || c == '_'))
        .unwrap_or(rest.len());
    (end > 0).then(|| &rest[..end])
}

fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// `line` names `name` as a whole identifier somewhere other than right
/// after `fn ` (a definition).
fn names_outside_definition(line: &str, name: &str) -> bool {
    let mut search = 0;
    while let Some(found) = line[search..].find(name) {
        let at = search + found;
        search = at + name.len();
        let before = line[..at].chars().next_back();
        let after = line[search..].chars().next();
        if before.is_some_and(is_ident_char) || after.is_some_and(is_ident_char) {
            continue;
        }
        let prefix = line[..at].trim_end();
        let is_definition = prefix
            .strip_suffix("fn")
            .is_some_and(|p| !p.chars().next_back().is_some_and(is_ident_char));
        if !is_definition {
            return true;
        }
    }
    false
}

/// Line ranges of items annotated `#[cfg(test)]`: from the attribute to the
/// brace closing the item (or its `;`, for a body-less item).
fn test_spans(lines: &[String]) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let mut i = 0;
    while i < lines.len() {
        if lines[i].trim_start().starts_with("#[cfg(test)]") {
            let end = item_end(lines, i);
            spans.push((i, end));
            i = end + 1;
        } else {
            i += 1;
        }
    }
    spans
}

fn item_end(lines: &[String], start: usize) -> usize {
    let mut depth = 0i64;
    let mut opened = false;
    for (j, line) in lines.iter().enumerate().skip(start) {
        // Skip the attribute itself; its brackets hold no braces.
        let text = if j == start {
            line.split_once("#[cfg(test)]").map_or("", |(_, r)| r)
        } else {
            line.as_str()
        };
        for c in text.chars() {
            match c {
                '{' => {
                    depth += 1;
                    opened = true;
                }
                '}' => depth -= 1,
                ';' if !opened => return j,
                _ => {}
            }
        }
        if opened && depth <= 0 {
            return j;
        }
    }
    lines.len().saturating_sub(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pub_fn_names_are_read_off_definitions() {
        assert_eq!(pub_fn_name("    pub fn merge(&mut self) {"), Some("merge"));
        assert_eq!(pub_fn_name("pub const fn len() -> usize {"), Some("len"));
        assert_eq!(pub_fn_name("    fn private() {"), None);
        assert_eq!(pub_fn_name("pub(crate) fn scoped() {"), None);
        assert_eq!(pub_fn_name("pub struct Fn;"), None);
    }

    #[test]
    fn a_definition_is_not_a_caller() {
        assert!(!names_outside_definition(
            "pub fn merge(&mut self) {",
            "merge"
        ));
        assert!(!names_outside_definition(
            "fn remerge() { merged }",
            "merge"
        ));
        assert!(names_outside_definition("a.merge(&b);", "merge"));
        assert!(names_outside_definition("let f = Self::merge;", "merge"));
        assert!(names_outside_definition("use m::{fn_a, merge};", "merge"));
    }

    #[test]
    fn test_items_are_spanned_to_their_closing_brace() {
        let lines: Vec<String> = [
            "pub fn a() {}",
            "#[cfg(test)]",
            "impl X {",
            "    fn b() {}",
            "}",
            "#[cfg(test)]",
            "use std::fmt;",
            "pub fn c() {}",
        ]
        .iter()
        .map(ToString::to_string)
        .collect();
        assert_eq!(test_spans(&lines), vec![(1, 4), (5, 6)]);
    }
}
