//! `e2e_budget` — the repository's end-to-end benchmark with a layer budget.
//! See `README.md` in this directory.

mod alloc;
mod compare;
mod join;
mod json;
mod metrics;
mod runner;
mod stats;
mod stream;
mod sut;
#[cfg(test)]
mod tests;
mod workload;

use join::Join;
use runner::{RunArgs, RunResult};
use std::process::ExitCode;
use stream::{Churn, Netmon, Stream, Tenants};
use sut::{PierNodeBare, Traced};

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

const USAGE: &str = "usage:
  e2e_budget --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke] [--segments <n>]
  e2e_budget suite --out <file> [--seeds <a>..<b>] [--seconds <s>] [--trace <0|1>]
                   [--smoke] [--segments <n>] [--workload <name>]
  e2e_budget compare <baseline file> <candidate file>
workloads: netmon_stream tenants_shared join_publish query_churn";

fn run_workload(name: &str, args: &RunArgs) -> Option<RunResult> {
    Some(match name {
        workload::NETMON_STREAM => {
            runner::run::<Stream<PierNodeBare, Netmon>, Stream<Traced, Netmon>>(args)
        }
        workload::TENANTS_SHARED => {
            runner::run::<Stream<PierNodeBare, Tenants>, Stream<Traced, Tenants>>(args)
        }
        workload::JOIN_PUBLISH => runner::run::<Join<PierNodeBare>, Join<Traced>>(args),
        workload::QUERY_CHURN => {
            runner::run::<Stream<PierNodeBare, Churn>, Stream<Traced, Churn>>(args)
        }
        _ => return None,
    })
}

/// Command-line options shared by a single run and `suite`.
struct Options {
    workload: Option<String>,
    run: RunArgs,
    seeds: Vec<u64>,
    out: Option<String>,
}

fn parse_options(argv: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workload: None,
        run: RunArgs {
            seed: 1,
            seconds: 20.0,
            trace: false,
            smoke: false,
            segments: None,
        },
        seeds: (1..=10).collect(),
        out: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            o.run.smoke = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => o.workload = Some(value.clone()),
            "--seed" => o.run.seed = number()?,
            "--seconds" => {
                o.run.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or(format!("--seconds {value}: not a positive number"))?;
            }
            "--trace" => {
                o.run.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: 0 or 1")),
                };
            }
            "--segments" => o.run.segments = Some(number()?.max(1) as usize),
            "--seeds" => {
                let (a, b) = value.split_once("..").ok_or("--seeds <a>..<b>")?;
                let (a, b): (u64, u64) = (
                    a.parse().map_err(|_| "--seeds <a>..<b>")?,
                    b.parse().map_err(|_| "--seeds <a>..<b>")?,
                );
                o.seeds = (a..=b).collect();
            }
            "--out" => o.out = Some(value.clone()),
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    // Smoke mode is for checking, not measuring: two segments, no budget.
    if o.run.smoke && o.run.segments.is_none() {
        o.run.segments = Some(2);
    }
    Ok(o)
}

fn single_run(o: &Options) -> Result<bool, String> {
    let name = o.workload.as_deref().ok_or("--workload is required")?;
    let result = run_workload(name, &o.run).ok_or(format!("unknown workload {name}"))?;
    let declared = if o.run.trace {
        metrics::per_layer()
    } else {
        metrics::end_to_end()
    };
    println!(
        "# workload {name} seed {} trace {}",
        o.run.seed,
        u8::from(o.run.trace)
    );
    for note in &result.notes {
        println!("# {note}");
    }
    for (metric, value) in &result.metrics {
        let unit = declared
            .iter()
            .find(|m| &m.name == metric)
            .map_or("", |m| m.unit);
        println!("{metric:<44} {value:>18.6} {unit}");
    }
    println!(
        "{}",
        compare::result_line(
            result.correct,
            result.attempted,
            result.failed,
            &result.metrics,
            &declared
        )
    );
    Ok(result.correct)
}

fn dispatch(argv: &[String]) -> Result<bool, String> {
    match argv.first().map(String::as_str) {
        Some("compare") => match argv {
            [_, baseline, candidate] => {
                compare::compare(baseline, candidate).map_err(|e| e.to_string())
            }
            _ => Err("compare takes two result files".into()),
        },
        Some("suite") => {
            let o = parse_options(&argv[1..])?;
            let workloads = match &o.workload {
                Some(name) => vec![name.clone()],
                None => workload::ALL.iter().map(ToString::to_string).collect(),
            };
            compare::suite(&compare::SuiteArgs {
                seeds: o.seeds,
                seconds: o.run.seconds,
                trace: o.run.trace,
                smoke: o.run.smoke,
                segments: o.run.segments,
                workloads,
                out: o.out.ok_or("suite needs --out <file>")?,
            })
            .map_err(|e| e.to_string())
        }
        _ => single_run(&parse_options(argv)?),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&argv) {
        Ok(true) => ExitCode::SUCCESS,
        // A failed check: the result was printed, the exit code says so too.
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("{message}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
