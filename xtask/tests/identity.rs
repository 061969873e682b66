//! The traced half of `cargo xtask identity`: which lines of a traced
//! benchmark run are counts the baseline pins, and which of them it leaves
//! out because they did not repeat.

use xtask::identity::{render, repeating, traced_figures, unrepeated, UNREPEATED};

/// A traced run's output, shaped as the benchmark prints it: notes, one
/// `name value unit` line per metric, and a closing JSON line.
const TRACED: &str = "# workload join_publish seed 1 trace 1\n\
# work_units 78980\n\
# result_digest f4dd7d21d094c8e3\n\
core.node.msg_get.calls                              812.000000 count\n\
core.node.msg_get.busy_ms                              3.141592 ms\n\
core.node.msg_get.bytes                           101328.000000 B\n\
runtime.sim.loop.events                            45738.000000 count\n\
runtime.sim.loop.busy_ms                             130.000000 ms\n\
alloc.allocs_per_op                                    1.217246 count\n\
core.tuple.batch_build_ns_per_row                     83.668945 ns\n\
net_msgs_per_op                                        2.728805 count\n\
{\"correct\": true, \"attempted\": 66992, \"metrics\": {\"core.node.msg_get.calls\": 1}}\n";

#[test]
fn traced_counts_are_the_calls_bytes_and_loop_events() {
    let got = traced_figures(TRACED);
    let pairs: Vec<(&str, &str)> = got.iter().map(|(n, v)| (n.as_str(), v.as_str())).collect();
    // Wall-clock figures, allocation rates, notes and the closing JSON
    // line are not counts.
    assert_eq!(
        pairs,
        [
            ("core.node.msg_get.calls", "812.000000"),
            ("core.node.msg_get.bytes", "101328.000000"),
            ("runtime.sim.loop.events", "45738.000000"),
        ]
    );
    assert!(traced_figures("").is_empty());
}

#[test]
fn a_count_that_does_not_repeat_is_recorded_as_such_and_read_back() {
    let count = |name: &str, value: &str| (name.to_string(), value.to_string());
    let first = vec![
        count("core.node.msg_get.calls", "812.000000"),
        count("core.node.msg_get.bytes", "101328.000000"),
        count("runtime.sim.loop.events", "45738.000000"),
    ];
    let again = [
        count("core.node.msg_get.calls", "812.000000"),
        count("core.node.msg_get.bytes", "101400.000000"),
    ];
    // A count that moved, or that the second run lacks, is left out.
    let kept = repeating(first, &again);
    let values: Vec<&str> = kept.iter().map(|(_, v)| v.as_str()).collect();
    assert_eq!(values, ["812.000000", UNREPEATED, UNREPEATED]);
    let baseline = render(&[], &[("join_publish".to_string(), kept)]);
    assert_eq!(
        unrepeated(&baseline),
        [
            count("join_publish", "core.node.msg_get.bytes"),
            count("join_publish", "runtime.sim.loop.events"),
        ]
    );
    assert!(unrepeated("{}").is_empty());
}
