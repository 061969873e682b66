//! Workspace automation library: the send-path determinism lint, the
//! unreached-code lint, the ambient-input rule and the benchmark identity
//! check.
//!
//! The `xtask` binary (`cargo xtask lint`, `cargo xtask identity`) is a thin
//! wrapper over [`lint::lint_tree`], [`unused::unused_pub_fns`],
//! [`ambient::ambient_reads`] and [`identity::run`]; the logic lives here so
//! tests can drive it in-process.

pub mod ambient;
pub mod identity;
pub mod lint;
pub mod unused;
