//! Part of the unreached-code lint's seeded corpus (not compiled): the
//! caller that keeps `called_from_a_test_file` reached.

#[test]
fn calls_across_the_tree() {
    assert_eq!(demo::called_from_a_test_file(), 1);
}
