//! The send-path determinism lint: a dependency-free lexical scanner that
//! flags unordered `HashMap`/`HashSet` iteration inside functions that send
//! messages, emit trace events, or persist state — or that build and return
//! what their caller will send (the plain-struct, "effects out" code: the
//! overlay wrapper, the window engine, the proxy, the opgraph executor and
//! the rehash buffer).
//!
//! Rationale: the simulator's equal-seed byte-identical trace guarantee (and
//! the durable-segment format) dies the moment hash-iteration order reaches
//! a wire, trace, or disk path — the PR 7 bug class.  `syn` is not available
//! offline, so the scanner is lexical: it strips comments/strings, collects
//! identifiers bound to `HashMap`/`HashSet` (lets, struct fields,
//! parameters), carves the file into `fn` bodies by brace matching, and
//! flags `name.iter()`-family calls and `for _ in name` loops inside bodies
//! that contain a send/trace/persist marker.
//!
//! Two suppressions keep it honest with the tree's established idiom:
//!
//! * **sorted-nearby** — the flagged line or the five lines after it call
//!   `.sort`/`.sort_by`/`.sort_unstable`/`.sort_by_key`, or collect into a
//!   `BTreeMap`/`BTreeSet` (the standard "materialise then order" pattern);
//! * **audited allowlist** — the flagged line or the two lines above it
//!   carry a `det-lint: allow (reason)` comment.  Use this only for sites
//!   where order provably cannot reach the wire (e.g. commutative merges).

use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

/// Substrings marking a function as a send/trace/persist path.
const MARKERS: &[&str] = &[
    "ctx.send",
    "ctx.output",
    ".record(",
    "persist",
    "write_segment",
    ".jsonl(",
    // "Effects out" code sends nothing itself: it builds or returns what
    // its caller will send, emit or deliver, or hands it to the overlay.
    "OverlayEffect",
    "ExecOut",
    "Emission",
    "RenewalRound",
    "PierOut",
    "ObjectName::new",
    ".put(",
    ".put_batch(",
    ".send_routed(",
    ".broadcast(",
];

/// Iteration methods whose order is the hash map's internal order.
const UNORDERED_CALLS: &[&str] = &[
    ".iter()",
    ".iter_mut()",
    ".keys()",
    ".values()",
    ".values_mut()",
    ".drain()",
    ".into_iter()",
    ".into_keys()",
    ".into_values()",
];

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// File the finding is in (workspace-relative when possible).
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// The `HashMap`/`HashSet` binding iterated.
    pub name: String,
    /// The marker that makes the enclosing function a sensitive path.
    pub marker: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: unordered iteration of `{}` in a function that reaches `{}`",
            self.file, self.line, self.name, self.marker
        )
    }
}

/// Lint every `.rs` file under `root`'s source directories.
pub fn lint_tree(root: &Path) -> Vec<Finding> {
    let mut files = Vec::new();
    collect_rs_files(root, root, &mut files);
    files.sort();
    let mut findings = Vec::new();
    for path in files {
        if let Ok(source) = fs::read_to_string(&path) {
            let label = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .display()
                .to_string();
            findings.extend(lint_file(&label, &source));
        }
    }
    findings
}

/// Recursively collect linted `.rs` files: only `src/` trees, skipping
/// build output and the lint's own test fixtures.
fn collect_rs_files(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name == ".git" || name == "fixtures" {
                continue;
            }
            collect_rs_files(root, &path, out);
        } else if name.ends_with(".rs") {
            // Lint library/binary sources; tests and benches assert rather
            // than send, and fixtures are the lint's own test corpus.
            let rel = path.strip_prefix(root).unwrap_or(&path);
            let in_src = rel
                .components()
                .any(|c| c.as_os_str().to_string_lossy() == "src");
            if in_src {
                out.push(path.clone());
            }
        }
    }
}

/// Lint one file's source text.
pub fn lint_file(label: &str, source: &str) -> Vec<Finding> {
    let original: Vec<&str> = source.lines().collect();
    let sanitized = sanitize(source);
    let sanitized: Vec<&str> = sanitized.lines().collect();

    let hash_names = collect_hash_names(&sanitized);
    if hash_names.is_empty() {
        return Vec::new();
    }

    let mut findings = Vec::new();
    for (start, end) in function_spans(&sanitized) {
        let Some(marker) = MARKERS.iter().find(|m| {
            sanitized[start..=end.min(sanitized.len() - 1)]
                .iter()
                .any(|l| l.contains(*m))
        }) else {
            continue;
        };
        for idx in start..=end.min(sanitized.len() - 1) {
            let line = sanitized[idx];
            for name in &hash_names {
                if !iterates_unordered(line, name) {
                    continue;
                }
                if sorted_nearby(&sanitized, idx) || allow_annotated(&original, idx) {
                    continue;
                }
                findings.push(Finding {
                    file: label.to_string(),
                    line: idx + 1,
                    name: name.clone(),
                    marker: (*marker).to_string(),
                });
            }
        }
    }
    findings
}

/// `line` iterates `name` in hash order: `name.iter()`-family or a
/// `for _ in name` / `for _ in &name` loop header.
fn iterates_unordered(line: &str, name: &str) -> bool {
    for call in UNORDERED_CALLS {
        let pat = format!("{name}{call}");
        if let Some(pos) = line.find(&pat) {
            if !prev_is_ident(line, pos) {
                return true;
            }
        }
    }
    if let Some(pos) = line.find(" in ") {
        let tail = line[pos + 4..].trim_start().trim_start_matches('&');
        let tail = tail.trim_start_matches("mut ");
        if line.trim_start().starts_with("for ") && tail.starts_with(name) {
            let rest = &tail[name.len()..];
            // Exactly the binding (loop body brace or end of line), not a
            // method call (covered above) or a longer identifier.
            if rest.trim_start().starts_with('{') || rest.trim().is_empty() {
                return true;
            }
        }
    }
    false
}

/// The character before `pos` continues an identifier (so the match is a
/// suffix of a longer name).
fn prev_is_ident(line: &str, pos: usize) -> bool {
    pos > 0
        && line[..pos]
            .chars()
            .next_back()
            .is_some_and(|c| c.is_alphanumeric() || c == '_' || c == '.')
}

/// The flagged line or the five after it impose an order before anything
/// escapes: a `.sort*` call or a collect into an ordered B-tree container.
fn sorted_nearby(lines: &[&str], idx: usize) -> bool {
    lines
        .iter()
        .skip(idx)
        .take(6)
        .any(|l| l.contains(".sort") || l.contains("BTreeMap") || l.contains("BTreeSet"))
}

/// The flagged line or the two above carry an audited-site annotation.
fn allow_annotated(original: &[&str], idx: usize) -> bool {
    original
        .iter()
        .take(idx + 1)
        .rev()
        .take(3)
        .any(|l| l.contains("det-lint: allow"))
}

/// Names bound to a `HashMap`/`HashSet` by a `let`, a struct field, or a
/// typed parameter, collected lexically.
fn collect_hash_names(lines: &[&str]) -> Vec<String> {
    let mut names = Vec::new();
    for line in lines {
        for ty in ["HashMap", "HashSet"] {
            // `name: HashMap<...>` — fields, params, typed lets.
            let mut search = 0;
            while let Some(found) = line[search..].find(ty) {
                let abs = search + found;
                search = abs + ty.len();
                // `name: HashMap<…>`, `name: &HashMap<…>`, `name: &mut
                // HashMap<…>` — fields, params, typed lets all reduce to
                // "identifier, colon" once references are peeled.
                let mut before = line[..abs].trim_end();
                if let Some(b) = before.strip_suffix("mut") {
                    before = b.trim_end();
                }
                before = before.trim_end_matches('&').trim_end();
                if let Some(colon) = before.strip_suffix(':') {
                    if let Some(name) = trailing_ident(colon) {
                        push_unique(&mut names, name);
                    }
                } else if let Some(eq) = before.strip_suffix('=') {
                    // `let name = HashMap::new()` / `with_capacity`.
                    if let Some(name) = trailing_ident(eq.trim_end()) {
                        push_unique(&mut names, name);
                    }
                }
            }
        }
    }
    names
}

/// The identifier ending `s`, if any.
fn trailing_ident(s: &str) -> Option<String> {
    let s = s.trim_end();
    let end = s.len();
    let start = s
        .char_indices()
        .rev()
        .take_while(|(_, c)| c.is_alphanumeric() || *c == '_')
        .map(|(i, _)| i)
        .last()?;
    let ident = &s[start..end];
    let first = ident.chars().next()?;
    (first.is_alphabetic() || first == '_').then(|| ident.to_string())
}

fn push_unique(names: &mut Vec<String>, name: String) {
    if name != "mut" && name != "let" && !names.contains(&name) {
        names.push(name);
    }
}

/// `(start_line, end_line)` spans of `fn` bodies, by brace matching over
/// the sanitized text.  Nested functions fold into their parent's span —
/// conservative in the right direction (a nested helper inherits its
/// parent's sensitivity).
fn function_spans(lines: &[&str]) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let mut i = 0;
    while i < lines.len() {
        let line = lines[i];
        let is_fn = line.trim_start().starts_with("fn ")
            || line.contains(" fn ")
            || line.trim_start().starts_with("pub fn ");
        if !is_fn {
            i += 1;
            continue;
        }
        // Find the opening brace (may be lines below, after the signature).
        let mut depth: i64 = 0;
        let mut opened = false;
        let start = i;
        let mut j = i;
        'outer: while j < lines.len() {
            for c in lines[j].chars() {
                match c {
                    '{' => {
                        depth += 1;
                        opened = true;
                    }
                    '}' => depth -= 1,
                    // A semicolon before any brace: a trait method
                    // declaration, no body to scan.
                    ';' if !opened => {
                        break 'outer;
                    }
                    _ => {}
                }
            }
            if opened && depth <= 0 {
                spans.push((start, j));
                break;
            }
            j += 1;
        }
        i = if opened { j.max(i) + 1 } else { i + 1 };
    }
    spans
}

/// Blank out comments and string/char literals, preserving line structure,
/// so lexical matching never fires inside them.
pub(crate) fn sanitize(source: &str) -> String {
    let mut out = String::with_capacity(source.len());
    let bytes: Vec<char> = source.chars().collect();
    let mut i = 0;
    let mut in_block_comment = 0u32;
    while i < bytes.len() {
        let c = bytes[i];
        let next = bytes.get(i + 1).copied();
        if in_block_comment > 0 {
            if c == '*' && next == Some('/') {
                in_block_comment -= 1;
                i += 2;
            } else {
                if c == '/' && next == Some('*') {
                    in_block_comment += 1;
                    i += 1;
                }
                if c == '\n' {
                    out.push('\n');
                }
                i += 1;
            }
            continue;
        }
        match c {
            '/' if next == Some('/') => {
                // Line comment: skip to end of line.
                while i < bytes.len() && bytes[i] != '\n' {
                    i += 1;
                }
            }
            '/' if next == Some('*') => {
                in_block_comment = 1;
                i += 2;
            }
            '"' => {
                // String literal (handles escapes; raw strings r"…" land
                // here too since the quote is what matters).
                out.push('"');
                i += 1;
                while i < bytes.len() {
                    if bytes[i] == '\\' {
                        i += 2;
                        continue;
                    }
                    if bytes[i] == '"' {
                        i += 1;
                        break;
                    }
                    if bytes[i] == '\n' {
                        out.push('\n');
                    }
                    i += 1;
                }
                out.push('"');
            }
            '\'' => {
                // Char literal vs lifetime: a literal closes within three
                // chars (`'x'`, `'\n'`, `'\''`).
                if next == Some('\\') {
                    // Escaped char literal.
                    let mut j = i + 2;
                    while j < bytes.len() && bytes[j] != '\'' {
                        j += 1;
                    }
                    i = j + 1;
                    out.push('\'');
                } else if bytes.get(i + 2).copied() == Some('\'') {
                    i += 3;
                    out.push('\'');
                } else {
                    // Lifetime: keep the apostrophe, scan on.
                    out.push('\'');
                    i += 1;
                }
            }
            c => {
                out.push(c);
                i += 1;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const VIOLATION: &str = r#"
use std::collections::HashMap;
fn flush(ctx: &mut Ctx) {
    let pending: HashMap<String, u64> = HashMap::new();
    for (k, v) in pending.iter() {
        ctx.send(k, v);
    }
}
"#;

    #[test]
    fn flags_unordered_send() {
        let findings = lint_file("v.rs", VIOLATION);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].name, "pending");
        assert_eq!(findings[0].marker, "ctx.send");
    }

    #[test]
    fn sorted_iteration_passes() {
        let src = r#"
fn flush(ctx: &mut Ctx) {
    let pending: HashMap<String, u64> = HashMap::new();
    let mut items: Vec<_> = pending.iter().collect();
    items.sort();
    for (k, v) in items {
        ctx.send(k, v);
    }
}
"#;
        assert!(lint_file("s.rs", src).is_empty());
    }

    #[test]
    fn allow_annotation_suppresses() {
        let src = r#"
fn flush(ctx: &mut Ctx) {
    let pending: HashMap<String, u64> = HashMap::new();
    // det-lint: allow (merged commutatively before any send)
    for (k, v) in pending.iter() {
        merge(k, v);
    }
    ctx.send(0, merged);
}
"#;
        assert!(lint_file("a.rs", src).is_empty());
    }

    #[test]
    fn non_send_function_passes() {
        let src = r#"
fn count(pending: &HashMap<String, u64>) -> usize {
    pending.iter().count()
}
"#;
        assert!(lint_file("n.rs", src).is_empty());
    }

    #[test]
    fn strings_and_comments_do_not_fire() {
        let src = r#"
fn doc(ctx: &mut Ctx) {
    // pending.iter() in a comment
    let s = "pending.iter()";
    ctx.send(0, s);
}
"#;
        assert!(lint_file("c.rs", src).is_empty());
    }

    #[test]
    fn span_emit_path_is_sensitive() {
        // Span rows/bytes folded in hash order would make the equal-seed
        // byte-identical span export flap — the path is as sensitive as a
        // send.
        let src = r#"
use std::collections::HashMap;
fn flush_span(tel: &Telemetry, now: u64) {
    let per_group: HashMap<String, u64> = HashMap::new();
    let mut rows = 0;
    for (_, n) in per_group.iter() {
        rows += n;
    }
    tel.record(span(now, "window.flush", [rows, 0, 0]));
}
"#;
        let findings = lint_file("sp.rs", src);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].marker, ".record(");
    }

    #[test]
    fn effects_out_path_is_sensitive() {
        // Nothing here sends: the function returns what its caller will.
        let src = r#"
use std::collections::HashMap;
fn flush(buffers: &HashMap<u64, String>) -> Vec<OverlayEffect<String>> {
    let mut effects = Vec::new();
    for (to, msg) in buffers.iter() {
        effects.push(send(*to, msg));
    }
    effects
}
"#;
        let findings = lint_file("fx.rs", src);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].marker, "OverlayEffect");
    }

    #[test]
    fn for_loop_over_set_is_flagged() {
        let src = r#"
use std::collections::HashSet;
fn flush(ctx: &mut Ctx) {
    let peers: HashSet<u64> = HashSet::new();
    for p in &peers {
        ctx.send(p, ());
    }
}
"#;
        let findings = lint_file("f.rs", src);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].name, "peers");
    }
}
