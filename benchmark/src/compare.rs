//! `suite` runs every workload over a list of seeds, each run in a fresh
//! child process, into a result file; `compare` reads two result files and
//! applies each end-to-end metric's bound per workload — the in-directory
//! form of the roadmap's `bench-diff`.

use crate::json::{self, Json};
use crate::metrics::{self, Better, Metric};
use crate::stats::{quartiles, spread};
use crate::workload;
use std::collections::BTreeMap;
use std::io::Write;
use std::process::{Command, Stdio};

/// Format a run's result as the one-line JSON object the contract asks for.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    values: &[(String, f64)],
    declared: &[Metric],
) -> String {
    let metrics: Vec<String> = values
        .iter()
        .map(|(name, value)| {
            let unit = declared
                .iter()
                .find(|m| &m.name == name)
                .map_or("", |m| m.unit);
            // `{:?}` prints an f64 with every digit it has.
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

pub struct SuiteArgs {
    pub seeds: Vec<u64>,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    pub segments: Option<usize>,
    pub workloads: Vec<String>,
    pub out: String,
}

/// Run every workload on every seed, one child process per run, one after
/// another.  Returns false when a run failed its checks.
pub fn suite(args: &SuiteArgs) -> std::io::Result<bool> {
    let exe = std::env::current_exe()?;
    let mut file = std::fs::File::create(&args.out)?;
    let mut all_correct = true;
    for name in &args.workloads {
        for seed in &args.seeds {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", name, "--seed", &seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if args.trace { "1" } else { "0" }]);
            if args.smoke {
                cmd.arg("--smoke");
            }
            if let Some(n) = args.segments {
                cmd.args(["--segments", &n.to_string()]);
            }
            // `output` waits for the child to end.
            let output = cmd.stderr(Stdio::inherit()).output()?;
            let stdout = String::from_utf8_lossy(&output.stdout);
            let last = stdout.lines().last().unwrap_or("");
            let ok = output.status.success() && json::parse(last).is_some();
            all_correct &= ok;
            eprintln!("{name} seed {seed}: {}", if ok { "ok" } else { "FAILED" });
            if ok {
                writeln!(
                    file,
                    "{{\"workload\": \"{name}\", \"seed\": {seed}, \"trace\": {}, \"result\": {last}}}",
                    u8::from(args.trace)
                )?;
            } else {
                eprint!("{stdout}");
            }
        }
    }
    file.flush()?;
    print_spreads(&load(&args.out)?);
    Ok(all_correct)
}

/// workload → metric → one value per run.
type Runs = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn load(path: &str) -> std::io::Result<Runs> {
    let mut runs = Runs::new();
    for line in std::fs::read_to_string(path)?.lines() {
        let bad = || std::io::Error::other(format!("{path}: not a result line: {line}"));
        let v = json::parse(line).ok_or_else(bad)?;
        let name = v.get("workload").and_then(Json::as_str).ok_or_else(bad)?;
        let metrics = v
            .get("result")
            .and_then(|r| r.get("metrics"))
            .and_then(Json::as_obj)
            .ok_or_else(bad)?;
        let per_metric = runs.entry(name.to_string()).or_default();
        for (metric, entry) in metrics {
            let value = entry.get("value").and_then(Json::as_f64).ok_or_else(bad)?;
            per_metric.entry(metric.clone()).or_default().push(value);
        }
    }
    Ok(runs)
}

fn workload_order(runs: &Runs) -> Vec<&String> {
    let mut names: Vec<&String> = runs.keys().collect();
    names.sort_by_key(|n| workload::ALL.iter().position(|w| w == n));
    names
}

/// Median, quartiles and spread of each end-to-end metric of one file.
fn print_spreads(runs: &Runs) {
    println!(
        "{:<16} {:<24} {:>4} {:>14} {:>14} {:>14} {:>8} {:>7}",
        "workload", "metric", "runs", "q1", "median", "q3", "spread", "bound"
    );
    for name in workload_order(runs) {
        for m in metrics::end_to_end() {
            let Some(values) = runs[name].get(&m.name).filter(|v| v.len() >= 2) else {
                continue;
            };
            let [q1, q2, q3] = quartiles(values);
            println!(
                "{name:<16} {:<24} {:>4} {q1:>14.6} {q2:>14.6} {q3:>14.6} {:>8.4} {:>7.2}",
                m.name,
                values.len(),
                spread(values),
                m.bound.unwrap_or(0.0)
            );
        }
    }
}

/// Compare result file `candidate` against `baseline`.  Returns false when
/// a metric regressed beyond its bound.
pub fn compare(baseline: &str, candidate: &str) -> std::io::Result<bool> {
    let (base, cand) = (load(baseline)?, load(candidate)?);
    let declared = metrics::end_to_end();
    let mut ok = true;
    println!(
        "{:<16} {:<38} {:>42} {:>42} {:>9} {:>8} {:>6}  verdict",
        "workload",
        "metric",
        "baseline q1 / median / q3",
        "candidate q1 / median / q3",
        "worse by",
        "spread",
        "bound"
    );
    for name in workload_order(&base) {
        let Some(cand_metrics) = cand.get(name) else {
            println!("{name:<16} missing from {candidate}");
            ok = false;
            continue;
        };
        for (metric, base_values) in &base[name] {
            let Some(cand_values) = cand_metrics.get(metric) else {
                continue;
            };
            let (b, c) = (median_of(base_values), median_of(cand_values));
            let m = declared.iter().find(|m| &m.name == metric);
            // Positive when the candidate is worse.
            let worse_by = match m.map_or(Better::Lower, |m| m.better) {
                Better::Lower => (c - b) / b.abs(),
                Better::Higher => (b - c) / b.abs(),
            };
            let widest = [base_values, cand_values]
                .iter()
                .filter(|v| v.len() >= 2)
                .map(|v| spread(v))
                .fold(0.0, f64::max);
            let verdict = match m.and_then(|m| m.bound) {
                // Per-layer metrics have no bound: shown, not judged.
                None => "",
                // `setup_s` is judged on medians alone, like the driver.
                Some(bound) if widest > bound && metric != "setup_s" => "unresolved",
                Some(bound) if worse_by > bound => {
                    ok = false;
                    "REGRESSED"
                }
                Some(bound) if worse_by < -bound => "improved",
                Some(_) => "unchanged",
            };
            println!(
                "{name:<16} {metric:<38} {:>42} {:>42} {:>8.2}% {:>7.2}% {:>6}  {verdict}",
                three(base_values, b),
                three(cand_values, c),
                worse_by * 100.0,
                widest * 100.0,
                m.and_then(|m| m.bound)
                    .map_or(String::new(), |b| format!("{:.0}%", b * 100.0)),
            );
        }
    }
    Ok(ok)
}

/// "q1 / median / q3" of a metric's runs (the median alone for one run).
fn three(values: &[f64], median: f64) -> String {
    if values.len() < 2 {
        return format!("{median:.6}");
    }
    let [q1, q2, q3] = quartiles(values);
    format!("{q1:.6} / {q2:.6} / {q3:.6}")
}

fn median_of(values: &[f64]) -> f64 {
    crate::stats::median(&mut values.to_vec())
}
