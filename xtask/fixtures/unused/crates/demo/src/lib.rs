//! Seeded corpus for the unreached-code lint.  This file is NOT compiled:
//! it is laid out as a workspace (`crates/demo/src`, `tests/`) so that
//! `xtask::unused::unused_pub_fns` on `xtask/fixtures/unused` must report
//! exactly the two seeded functions below, and nothing else.

/// Reached: `tests/uses.rs` calls it.
pub fn called_from_a_test_file() -> u32 {
    1
}

/// Reached: a private function of the same crate calls it.
pub fn called_in_the_crate() -> u32 {
    2
}

fn private_helper() -> u32 {
    called_in_the_crate()
}

/// SEEDED: nothing calls it.  Naming `seeded_unused` in this comment, or
/// in a string, does not count as a call.
pub fn seeded_unused() -> u32 {
    let _ = "seeded_unused";
    3
}

/// SEEDED: only this file's own tests call it.
pub fn seeded_test_only() -> u32 {
    4
}

#[cfg(test)]
mod tests {
    #[test]
    fn only_the_tests_call_it() {
        assert_eq!(super::seeded_test_only(), 4);
    }
}
