//! `cargo xtask identity` — the mechanical identity check.
//!
//! A behaviour-preserving change must leave every fixed-work figure of the
//! end-to-end benchmark untouched: for an equal seed and `--segments`, the
//! result digest, the work done, the failures, the simulated latencies and
//! the traffic per operation are functions of the program's behaviour, not
//! of its speed.  This runs each workload `BENCHMARK.json` declares, with
//! the command it declares, and compares those figures to
//! `docs/baselines/identity.json`; `--bless` rewrites the baseline instead
//! (for a change that *means* to alter behaviour, in its own commit).
//!
//! Each workload also runs traced (`--trace 1`), and the per-layer counts
//! — every `.calls` and `.bytes` line and the simulator's event count —
//! are compared with the baseline's traced section: a refactor that moves
//! work from one message or timer class to another, or adds an event,
//! shows there even when the end-to-end figures hold.  `--bless` runs each
//! traced workload twice and records a count that does not repeat as
//! `"unrepeated"`, naming it; the check then skips that count.

use std::fmt::Write as _;
use std::path::Path;
use std::process::Command;

/// The fixed-work arguments every workload is run with.
pub const RUN_ARGS: [&str; 6] = ["--seed", "1", "--segments", "6", "--trace", "0"];

/// The same fixed work, traced: per-layer counters on.
pub const TRACED_ARGS: [&str; 6] = ["--seed", "1", "--segments", "6", "--trace", "1"];

/// Where the baseline lives, relative to the workspace root.
pub const BASELINE: &str = "docs/baselines/identity.json";

/// `# name value` notes of the benchmark's output that must not move.
const NOTES: [&str; 2] = ["result_digest", "work_units"];
/// Fields of its closing JSON line that must not move.
const COUNTS: [&str; 2] = ["attempted", "failed"];
/// `name value unit` metric lines that must not move.
const METRICS: [&str; 4] = [
    "result_latency_ms_p50",
    "result_latency_ms_p99",
    "net_bytes_per_op",
    "net_msgs_per_op",
];

/// The string literals of `json` (escapes left as written), in order.
fn literals(json: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut open = None;
    let mut escaped = false;
    for (i, c) in json.char_indices() {
        match (open, c) {
            (Some(_), _) if escaped => escaped = false,
            (Some(_), '\\') => escaped = true,
            (Some(start), '"') => {
                out.push(&json[start..i]);
                open = None;
            }
            (None, '"') => open = Some(i + 1),
            _ => {}
        }
    }
    out
}

/// The string literals of the array that follows `"key":` in `json` — all
/// of them, or the values of `field` when the array holds flat objects of
/// strings.  (No string here holds a `]`, so the first one ends the array.)
fn strings_after<'a>(json: &'a str, key: &str, field: Option<&str>) -> Vec<&'a str> {
    let Some(at) = json.find(&format!("\"{key}\"")) else {
        return Vec::new();
    };
    let rest = &json[at + key.len() + 2..];
    let Some(open) = rest.find('[') else {
        return Vec::new();
    };
    let body = &rest[open + 1..];
    let body = literals(&body[..body.find(']').unwrap_or(body.len())]);
    match field {
        None => body,
        Some(field) => body
            .chunks(2)
            .filter(|pair| pair[0] == field)
            .filter_map(|pair| pair.get(1).copied())
            .collect(),
    }
}

/// The benchmark's command line and workload names, as `BENCHMARK.json`
/// declares them.
pub fn declared(benchmark_json: &str) -> (Vec<&str>, Vec<&str>) {
    (
        strings_after(benchmark_json, "command", None),
        strings_after(benchmark_json, "workloads", Some("name")),
    )
}

/// The identity figures in one run's output, as `(name, value)` text pairs
/// in a fixed order; a figure the output lacks is reported as `missing`.
pub fn figures(output: &str) -> Vec<(&'static str, String)> {
    let missing = || "missing".to_string();
    let mut out = Vec::new();
    for name in NOTES {
        let prefix = format!("# {name} ");
        let value = output.lines().find_map(|l| l.strip_prefix(&prefix));
        out.push((name, value.map_or_else(missing, |v| v.trim().to_string())));
    }
    let json = output.lines().rev().find(|l| l.starts_with('{'));
    for name in COUNTS {
        let value = json.and_then(|l| {
            let rest = &l[l.find(&format!("\"{name}\": "))? + name.len() + 4..];
            Some(rest[..rest.find([',', '}'])?].trim().to_string())
        });
        out.push((name, value.unwrap_or_else(missing)));
    }
    for name in METRICS {
        let value = output.lines().find_map(|l| {
            let mut words = l.split_whitespace();
            (words.next() == Some(name)).then(|| words.next()).flatten()
        });
        out.push((name, value.map_or_else(missing, str::to_string)));
    }
    out
}

/// The per-layer counts in one traced run's output, as `(name, value)`
/// text pairs in output order: every `.calls` and `.bytes` metric and
/// `runtime.sim.loop.events`.  The `.busy_ms` and per-row timings are wall
/// clock, not counts.
pub fn traced_figures(output: &str) -> Vec<(String, String)> {
    let counted = |name: &str| {
        name.ends_with(".calls") || name.ends_with(".bytes") || name == "runtime.sim.loop.events"
    };
    let pair = |line: &str| {
        let mut words = line.split_whitespace();
        let (name, value) = (words.next()?, words.next()?);
        counted(name).then(|| (name.to_string(), value.to_string()))
    };
    output.lines().filter_map(pair).collect()
}

/// What a traced count recorded as not repeating reads in the baseline.
pub const UNREPEATED: &str = "unrepeated";

/// The traced counts of a `first` run, each whose value `again` does not
/// repeat under the same name read [`UNREPEATED`] instead.
pub fn repeating(
    first: Vec<(String, String)>,
    again: &[(String, String)],
) -> Vec<(String, String)> {
    let repeats =
        |(name, value): &(String, String)| again.iter().any(|(n, v)| (n, v) == (name, value));
    let mark = |count: (String, String)| match repeats(&count) {
        true => count,
        false => (count.0, UNREPEATED.to_string()),
    };
    first.into_iter().map(mark).collect()
}

/// The `(workload, count)` pairs `baseline`'s traced section records as
/// [`UNREPEATED`].
pub fn unrepeated(baseline: &str) -> Vec<(String, String)> {
    let traced = baseline.split_once("\"traced\": {").map_or("", |(_, t)| t);
    let mut workload = "";
    let mut out = Vec::new();
    for line in traced.lines().map(|l| l.trim().trim_end_matches(',')) {
        if let Some(name) = line.strip_suffix("\": {") {
            workload = name.trim_start_matches('"');
        } else if let Some((name, value)) = line.split_once("\": \"") {
            if value.trim_end_matches('"') == UNREPEATED {
                out.push((
                    workload.to_string(),
                    name.trim_start_matches('"').to_string(),
                ));
            }
        }
    }
    out
}

/// One workload's figures: its name and `(figure, value)` pairs.
pub type Run<N> = (String, Vec<(N, String)>);

/// Append `"key": { workload: { figure: value, … }, … }` to `out`.
fn section<N: AsRef<str>>(out: &mut String, key: &str, runs: &[Run<N>]) {
    let _ = writeln!(out, "  \"{key}\": {{");
    for (w, (name, figures)) in runs.iter().enumerate() {
        let _ = writeln!(out, "    \"{name}\": {{");
        for (f, (figure, value)) in figures.iter().enumerate() {
            let comma = if f + 1 < figures.len() { "," } else { "" };
            let figure = figure.as_ref();
            let _ = writeln!(out, "      \"{figure}\": \"{value}\"{comma}");
        }
        let comma = if w + 1 < runs.len() { "," } else { "" };
        let _ = writeln!(out, "    }}{comma}");
    }
    out.push_str("  }");
}

/// The baseline file for `runs` (workload name, figures) and the traced
/// `counts`, one figure a line so a mismatch shows as a line diff.
pub fn render(runs: &[Run<&'static str>], counts: &[Run<String>]) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"args\": \"{}\",", RUN_ARGS.join(" "));
    section(&mut out, "workloads", runs);
    let _ = write!(
        out,
        ",\n  \"traced_args\": \"{}\",\n",
        TRACED_ARGS.join(" ")
    );
    section(&mut out, "traced", counts);
    out.push_str("\n}\n");
    out
}

/// Run `workload` with the declared `command` and `args` under `root`; its
/// standard output.
fn bench(root: &Path, command: &[&str], workload: &str, args: [&str; 6]) -> Result<String, String> {
    let program = command[0];
    let out = Command::new(program)
        .args(&command[1..])
        .args(["--workload", workload])
        .args(args)
        .current_dir(root)
        .output()
        .map_err(|e| format!("{program}: {e}"))?;
    if !out.status.success() {
        let stderr = String::from_utf8_lossy(&out.stderr);
        return Err(format!("{workload}: benchmark failed\n{stderr}"));
    }
    Ok(String::from_utf8_lossy(&out.stdout).into_owned())
}

/// Run every declared workload under `root` and check (or, with `bless`,
/// rewrite) the baseline.  `Err` carries what to print.
pub fn run(root: &Path, bless: bool) -> Result<(), String> {
    let spec = std::fs::read_to_string(root.join("BENCHMARK.json"))
        .map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let (command, workloads) = declared(&spec);
    if command.is_empty() || workloads.is_empty() {
        return Err("BENCHMARK.json declares no command or no workloads".to_string());
    }
    let path = root.join(BASELINE);
    let baseline = match bless {
        true => String::new(),
        false => std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?,
    };
    let skipped = unrepeated(&baseline);
    let (mut runs, mut counts) = (Vec::new(), Vec::new());
    for workload in workloads {
        eprintln!("xtask identity: {workload}");
        let figures = figures(&bench(root, &command, workload, RUN_ARGS)?);
        runs.push((workload.to_string(), figures));
        let mut traced = traced_figures(&bench(root, &command, workload, TRACED_ARGS)?);
        if bless {
            // A count that does not repeat is no identity figure.
            let again = traced_figures(&bench(root, &command, workload, TRACED_ARGS)?);
            traced = repeating(traced, &again);
            let left_out = traced.iter().filter(|(_, v)| v == UNREPEATED);
            let names: Vec<&str> = left_out.map(|(n, _)| n.as_str()).collect();
            if !names.is_empty() {
                eprintln!("xtask identity: {workload}: left out, did not repeat: {names:?}");
            }
        }
        for (name, value) in &mut traced {
            if skipped
                .iter()
                .any(|(w, n)| (w.as_str(), n) == (workload, &*name))
            {
                *value = UNREPEATED.to_string();
            }
        }
        counts.push((workload.to_string(), traced));
    }
    let now = render(&runs, &counts);
    if bless {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        return std::fs::write(&path, now).map_err(|e| format!("{}: {e}", path.display()));
    }
    if baseline == now {
        return Ok(());
    }
    Err(mismatch_report(&baseline, &now))
}

/// The `"name": "value"` of one baseline line, quotes and comma stripped.
fn name_value(line: &str) -> Option<(&str, &str)> {
    let (name, value) = line.trim().trim_end_matches(',').split_once(": ")?;
    Some((name.trim_matches('"'), value.trim_matches('"')))
}

/// What the check prints when `now` differs from the `baseline` file: each
/// changed figure as a `-` and a `+` line, both prefixed `workload/section`
/// (a header line by its own name), and the `+` line closed with the
/// relative change when both values are numbers.
pub fn mismatch_report(baseline: &str, now: &str) -> String {
    let mut report = format!("fixed-work figures differ from {BASELINE}:\n");
    let (mut section, mut workload) = ("", "");
    for (was, is) in baseline.lines().zip(now.lines()) {
        let opened = was
            .trim()
            .strip_suffix(": {")
            .map(|name| name.trim_matches('"'));
        match (was.len() - was.trim_start().len(), opened) {
            (2, Some(name)) => section = name,
            (4, Some(name)) => workload = name,
            _ => {}
        }
        if was == is {
            continue;
        }
        let at = match name_value(was) {
            Some((name, _)) if was.starts_with("  \"") => name.to_string(),
            _ => format!("{workload}/{section}"),
        };
        let change = name_value(was)
            .zip(name_value(is))
            .and_then(|((_, a), (_, b))| {
                let (a, b) = (a.parse::<f64>().ok()?, b.parse::<f64>().ok()?);
                (a != 0.0).then(|| format!("  {:+.2} %", (b - a) / a.abs() * 100.0))
            });
        let change = change.unwrap_or_default();
        let (was, is) = (
            was.trim().trim_end_matches(','),
            is.trim().trim_end_matches(','),
        );
        let _ = writeln!(report, "  {at} - {was}\n  {at} + {is}{change}");
    }
    if baseline.lines().count() != now.lines().count() {
        report.push_str("  (and the set of workloads or figures changed)\n");
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: &str = r#"{
 "command": [ "cargo", "run", "--release", "--" ],
 "paths": [ "benchmark" ],
 "workloads": [
  { "name": "netmon_stream", "why": "the \"single\" path" },
  { "name": "join_publish", "why": "joins" }
 ],
 "end_to_end": [ { "name": "setup_s", "unit": "s" } ]
}"#;

    const OUTPUT: &str = "# workload join_publish seed 1 trace 0\n\
# work_units 78980\n# result_digest f4dd7d21d094c8e3\n\
setup_s                         0.082003 s\n\
result_latency_ms_p50         818.240000 ms\n\
result_latency_ms_p99        2037.888000 ms\n\
net_bytes_per_op              315.951874 B\n\
net_msgs_per_op                 2.728805 count\n\
{\"correct\": true, \"attempted\": 66992, \"failed\": 0, \"metrics\": {}}\n";

    #[test]
    fn the_declared_command_and_workloads_are_read_from_the_spec() {
        let (command, workloads) = declared(SPEC);
        assert_eq!(command, ["cargo", "run", "--release", "--"]);
        // Only the workloads' names: not their reasons, not the metrics'.
        assert_eq!(workloads, ["netmon_stream", "join_publish"]);
        assert_eq!(declared("{}"), (Vec::new(), Vec::new()));
    }

    #[test]
    fn figures_are_picked_by_name_and_a_lost_one_says_so() {
        let got = figures(OUTPUT);
        let value = |name: &str| {
            let found = got.iter().find(|(n, _)| *n == name);
            found.map(|(_, v)| v.as_str()).expect("figure listed")
        };
        assert_eq!(got.len(), 8);
        assert_eq!(value("result_digest"), "f4dd7d21d094c8e3");
        assert_eq!(value("work_units"), "78980");
        assert_eq!((value("attempted"), value("failed")), ("66992", "0"));
        assert_eq!(value("result_latency_ms_p99"), "2037.888000");
        assert_eq!(value("net_msgs_per_op"), "2.728805");
        // Wall-clock figures are not identity figures.
        assert!(got.iter().all(|(n, _)| *n != "setup_s"));
        assert!(figures("").iter().all(|(_, v)| v == "missing"));
    }

    #[test]
    fn a_mismatch_names_its_workload_and_section_and_the_relative_change() {
        let figures = |digest: &str, bytes: &str, calls: &str| {
            let runs = [(
                "join_publish".to_string(),
                vec![
                    ("result_digest", digest.to_string()),
                    ("net_bytes_per_op", bytes.to_string()),
                ],
            )];
            let traced = vec![("core.node.msg_get.calls".to_string(), calls.to_string())];
            render(&runs, &[("join_publish".to_string(), traced)])
        };
        let was = figures("f4dd7d21d094c8e3", "94.646531", "812.000000");
        assert_eq!(
            mismatch_report(
                &was,
                &figures("f4dd7d21d094c8e3", "80.449551", "812.000000")
            ),
            format!(
                "fixed-work figures differ from {BASELINE}:\n\
                 \x20 join_publish/workloads - \"net_bytes_per_op\": \"94.646531\"\n\
                 \x20 join_publish/workloads + \"net_bytes_per_op\": \"80.449551\"  -15.00 %\n"
            )
        );
        // A traced count says so; a digest has no relative change.
        let report = mismatch_report(
            &was,
            &figures("0123456789abcdef", "94.646531", "853.000000"),
        );
        assert!(
            report.contains("  join_publish/workloads + \"result_digest\": \"0123456789abcdef\"\n")
        );
        assert!(report.contains(
            "  join_publish/traced + \"core.node.msg_get.calls\": \"853.000000\"  +5.05 %\n"
        ));
    }

    #[test]
    fn the_baseline_renders_one_figure_a_line() {
        let runs = [("join_publish".to_string(), figures(OUTPUT))];
        let traced = ["core.node.msg_get.calls", "runtime.sim.loop.events"]
            .map(|name| (name.to_string(), "812.000000".to_string()));
        let counts = [("join_publish".to_string(), traced.to_vec())];
        let text = render(&runs, &counts);
        assert!(text.contains("\"args\": \"--seed 1 --segments 6 --trace 0\""));
        assert!(text.contains("      \"result_digest\": \"f4dd7d21d094c8e3\",\n"));
        assert!(text.contains("      \"net_msgs_per_op\": \"2.728805\"\n    }\n  },\n"));
        assert!(text.contains("  \"traced_args\": \"--seed 1 --segments 6 --trace 1\",\n"));
        assert!(text.contains("      \"core.node.msg_get.calls\": \"812.000000\",\n"));
        assert!(
            text.ends_with("      \"runtime.sim.loop.events\": \"812.000000\"\n    }\n  }\n}\n")
        );
    }
}
