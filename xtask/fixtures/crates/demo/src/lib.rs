//! Seeded corpus for the ambient-input rule (not compiled).  It sits where a
//! crate's source would, so `cargo xtask lint xtask/fixtures` must report
//! exactly the three reads below.  Naming `Instant::now` in a comment, or
//! `std::env::var` in a string as `described` does, is not a read.

use std::time::{Instant, SystemTime};

/// SEEDED: a harness timer.
fn timed() -> f64 {
    let start = Instant::now();
    start.elapsed().as_secs_f64()
}

/// SEEDED: a wall-clock stamp.
fn stamped() -> SystemTime {
    SystemTime::now()
}

/// SEEDED: an environment knob.
fn smoke() -> bool {
    std::env::var_os("DEMO_SMOKE").is_some()
}

fn described() -> &'static str {
    "Instant::now() and std::env::var"
}
