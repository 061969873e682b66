//! Workspace automation library: the send-path determinism lint, the
//! unreached-code lint and the benchmark identity check.
//!
//! The `xtask` binary (`cargo xtask lint`, `cargo xtask identity`) is a thin
//! wrapper over [`lint::lint_tree`], [`unused::unused_pub_fns`] and
//! [`identity::run`]; the logic lives here so tests can drive it in-process.

pub mod identity;
pub mod lint;
pub mod unused;
