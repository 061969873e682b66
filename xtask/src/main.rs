//! `cargo xtask` — workspace automation.
//!
//! `lint` is the send-path determinism lint that mechanically enforces the
//! invariant PR 7 established by hand — nothing iterates a
//! `HashMap`/`HashSet` in unordered order on a path that sends messages,
//! emits trace events, or persists state.  See `docs/ANALYSIS.md` ("The
//! determinism lint") for the rule, the suppressions, and the
//! allowlist-annotation workflow.  `lint` also runs the unreached-code
//! rule: a `pub fn` in `crates/*/src` that nothing but its own file's
//! tests names fails it; and the ambient-input rule: `crates/*/src` reads
//! neither the wall clock nor the environment, outside one allowed file per
//! kind of read.
//!
//! `identity [--bless]` runs the end-to-end benchmark's workloads at fixed
//! work and compares their behaviour-determined figures with
//! `docs/baselines/identity.json` (see `docs/BENCHMARKS.md`).

use std::path::PathBuf;
use std::process::ExitCode;
use xtask::{ambient, identity, lint, unused};

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    match args.next().as_deref() {
        Some("lint") => {
            let root = match args.next() {
                Some(dir) => PathBuf::from(dir),
                None => workspace_root(),
            };
            let findings = lint::lint_tree(&root);
            for f in &findings {
                eprintln!("{f}");
            }
            if !findings.is_empty() {
                eprintln!(
                    "xtask lint: {} unordered-iteration finding(s) on send/trace/persist paths",
                    findings.len()
                );
                eprintln!(
                    "  fix: sort before emitting, or annotate an audited site with \
                     `// det-lint: allow (reason)`"
                );
            }
            let unused = unused::unused_pub_fns(&root);
            for f in &unused {
                eprintln!("{f}");
            }
            if !unused.is_empty() {
                eprintln!("xtask lint: {} unreached `pub fn`(s)", unused.len());
                eprintln!(
                    "  fix: delete it, or move it under `#[cfg(test)]` if a module test \
                     uses it as a reference"
                );
            }
            let ambient = ambient::ambient_reads(&root);
            for f in &ambient {
                eprintln!("{f}: take it as configuration, or time it from benchmark/");
            }
            if findings.is_empty() && unused.is_empty() && ambient.is_empty() {
                eprintln!("xtask lint: ok");
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Some("identity") => {
            let bless = match args.next().as_deref() {
                None => false,
                Some("--bless") => true,
                Some(other) => {
                    eprintln!("xtask identity: unknown argument `{other}`");
                    return ExitCode::FAILURE;
                }
            };
            match identity::run(&workspace_root(), bless) {
                Ok(()) if bless => eprintln!("xtask identity: wrote {}", identity::BASELINE),
                Ok(()) => eprintln!("xtask identity: ok"),
                Err(report) => {
                    eprintln!("xtask identity: {report}");
                    return ExitCode::FAILURE;
                }
            }
            ExitCode::SUCCESS
        }
        _ => {
            eprintln!("usage: cargo xtask lint [dir] | cargo xtask identity [--bless]");
            ExitCode::FAILURE
        }
    }
}

/// The workspace root: the manifest dir's parent (xtask lives one level in).
fn workspace_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest.parent().map(PathBuf::from).unwrap_or(manifest)
}
