//! Runs one workload and turns what it measured into the declared metrics.
//!
//! `--trace 0` runs the workload on bare `PierNode`s for the time budget and
//! reports the end-to-end metrics.  `--trace 1` runs it three times on the
//! same inputs — bare for a share of the budget, then `Traced` and
//! telemetry-on for the same number of segments — asserts that wrapping the
//! nodes changed neither results nor traffic, and reports the layer budget.

use crate::alloc;
use crate::stats::{median, percentile};
use crate::sut::{self, Node, SpanClass, SpanTable, Traced};
use crate::workload::{Report, Segment, Workload};
use std::time::Instant;

/// An end-to-end run times whole set-ups of its own between the measured
/// segments, for this share of the time the segments have taken, so that
/// the set-ups see the same stretch of machine time as the segments do; and
/// at least `SETUP_REPS` of them, however short the run.
const SETUP_SHARE: f64 = 0.4;
const SETUP_REPS: usize = 5;
/// `setup_s` is this percentile of the timed set-ups, for the reason
/// `throughput_per_s` is not a median either (below).  Timed in one stretch
/// of a few seconds at either end of the run, every set-up of a run read a
/// half high while the fastest tenth of the same run's segments did not move.
const SETUP_PERCENTILE: f64 = 10.0;
/// A measured phase has at least this many segments, however slow the
/// machine: the wall-clock metrics are medians over segments.
const MIN_SEGMENTS: usize = 5;
/// Share of the time budget the bare reference pass of a traced run gets;
/// the traced pass replays its segments and the telemetry pass a quarter.
const TRACE_REFERENCE_SHARE: f64 = 0.38;
/// `throughput_per_s` is this percentile of the segments' throughputs, not
/// their median.  On the shared two-core machine the benchmark was built on,
/// other tenants slow a run for seconds at a time, and only ever slow it; a
/// run's median then depends on how much of it was disturbed (8 % between
/// runs of one seed on `query_churn`), while the speed of its fastest tenth
/// of segments does not (3 %).
const THROUGHPUT_PERCENTILE: f64 = 90.0;
/// `peak_rss_mb` is read when this many measured segments have run, so that
/// it compares equal work: a faster system runs more segments in the same
/// time, and what it leaks or retains per operation must not count against
/// its speed.
const RSS_SEGMENTS: usize = 15;
/// Repetitions of each direct probe.
const PROBE_REPS: usize = 15;

#[derive(Debug, Clone, Copy)]
pub struct RunArgs {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    /// Measure exactly this many segments instead of a time budget, so two
    /// runs of one seed do identical work.
    pub segments: Option<usize>,
}

/// When a measured phase ends.
#[derive(Debug, Clone, Copy)]
enum Stop {
    Budget(f64),
    Segments(usize),
}

/// What one pass over a workload measured.
struct Pass {
    /// Peak resident set after `RSS_SEGMENTS` measured segments.
    rss_mb: f64,
    segments: Vec<Segment>,
    msgs: u64,
    bytes: u64,
    events: u64,
    spans: SpanTable,
    sim_ns: u64,
    report: Report,
}

impl Pass {
    fn work(&self) -> u64 {
        self.segments.iter().map(|s| s.work).sum()
    }

    fn system_ns(&self) -> u64 {
        self.segments.iter().map(|s| s.system_ns).sum()
    }
}

/// Everything before the first measured operation: boot, install, settle,
/// and the warm-up — one segment that fills caches, window stores and share
/// groups; its latency samples are discarded, its results checked.
fn set_up<N: Node, W: Workload<N>>(args: &RunArgs, telemetry: bool) -> W {
    let mut w = W::setup(args.seed, args.smoke, telemetry);
    w.segment();
    w.report().latency_us.clear();
    w
}

/// Wall seconds of one set-up, built beside whatever else is alive and
/// dropped again.
fn time_set_up<N: Node, W: Workload<N>>(args: &RunArgs) -> f64 {
    let started = Instant::now();
    let ready: W = set_up(args, false);
    let seconds = started.elapsed().as_secs_f64();
    drop(ready);
    seconds
}

/// One pass over workload `W`.  With `setups`, set-ups are timed into it
/// between the segments — from the segment on which `peak_rss_mb` has been
/// read, because a set-up is a second cluster in the same process.
fn run_pass<N: Node, W: Workload<N>>(
    args: &RunArgs,
    telemetry: bool,
    stop: Stop,
    mut setups: Option<&mut Vec<f64>>,
) -> Pass {
    let mut w: W = set_up(args, telemetry);

    let (msgs0, bytes0) = w.cluster().net();
    let events0 = w.cluster().events();
    let spans0 = w.cluster().spans();
    let sim0 = w.cluster().sim_ns();
    let mut segments = Vec::new();
    let mut rss_mb = 0.0;
    // Wall seconds in measured segments (the budget) and in set-ups.
    let (mut measured, mut setting_up) = (0.0, 0.0);
    loop {
        let started = Instant::now();
        segments.push(w.segment());
        measured += started.elapsed().as_secs_f64();
        if segments.len() == RSS_SEGMENTS {
            rss_mb = peak_rss_mb();
        }
        let done = match stop {
            Stop::Segments(n) => segments.len() >= n,
            Stop::Budget(seconds) => segments.len() >= MIN_SEGMENTS && measured >= seconds,
        };
        if done {
            break;
        }
        if let Some(setups) = setups.as_deref_mut() {
            if segments.len() >= RSS_SEGMENTS && setting_up < SETUP_SHARE * measured {
                let seconds = time_set_up::<N, W>(args);
                setting_up += seconds;
                setups.push(seconds);
            }
        }
    }
    let (msgs1, bytes1) = w.cluster().net();
    let events = w.cluster().events() - events0;
    let spans = w.cluster().spans().since(&spans0);
    let sim_ns = w.cluster().sim_ns() - sim0;
    w.finish();
    if segments.len() < RSS_SEGMENTS {
        rss_mb = peak_rss_mb();
    }
    Pass {
        rss_mb,
        segments,
        msgs: msgs1 - msgs0,
        bytes: bytes1 - bytes0,
        events,
        spans,
        sim_ns,
        report: std::mem::take(w.report()),
    }
}

/// The result of a run: the contract's four keys plus lines for people.
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(String, f64)>,
    /// Facts that are not metrics (digest, sample counts, segment counts).
    pub notes: Vec<String>,
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Run workload `U` (bare) / `T` (traced) as `args` asks.
pub fn run<U: Workload<sut::PierNodeBare>, T: Workload<Traced>>(args: &RunArgs) -> RunResult {
    if args.trace {
        run_traced::<U, T>(args)
    } else {
        run_end_to_end::<U>(args)
    }
}

fn stop_for(args: &RunArgs, share: f64) -> Stop {
    match args.segments {
        Some(n) => Stop::Segments(n),
        None => Stop::Budget(args.seconds * share),
    }
}

fn run_end_to_end<U: Workload<sut::PierNodeBare>>(args: &RunArgs) -> RunResult {
    // A set-up includes the warm-up segment: booting and installing alone
    // take one to three milliseconds, which page faults and cache state move
    // by a third between runs, and state that a later change builds lazily on
    // the first rows instead of at install must still count as set-up.
    let mut setups: Vec<f64> = Vec::new();
    let pass =
        run_pass::<sut::PierNodeBare, U>(args, false, stop_for(args, 1.0), Some(&mut setups));
    let rss_at_exit_mb = peak_rss_mb();
    while setups.len() < SETUP_REPS {
        setups.push(time_set_up::<sut::PierNodeBare, U>(args));
    }
    setups.sort_by(f64::total_cmp);

    let mut throughputs: Vec<f64> = pass
        .segments
        .iter()
        .map(|s| s.work as f64 / (s.system_ns as f64 / 1e9))
        .collect();
    throughputs.sort_by(f64::total_cmp);
    let latencies = &pass.report.latency_us;
    let work = pass.work().max(1) as f64;
    let latency_ms = |p: f64| latencies.percentile(p).map_or(0.0, |us| us as f64 / 1e3);
    let metrics = vec![
        ("setup_s".to_string(), percentile(&setups, SETUP_PERCENTILE)),
        (
            "throughput_per_s".to_string(),
            percentile(&throughputs, THROUGHPUT_PERCENTILE),
        ),
        ("result_latency_ms_p50".to_string(), latency_ms(50.0)),
        ("result_latency_ms_p99".to_string(), latency_ms(99.0)),
        ("net_bytes_per_op".to_string(), pass.bytes as f64 / work),
        ("net_msgs_per_op".to_string(), pass.msgs as f64 / work),
        ("peak_rss_mb".to_string(), pass.rss_mb),
    ];
    let notes = vec![
        format!("segments {}", pass.segments.len()),
        format!("setups {}", setups.len()),
        format!(
            "setup_s_quartiles {:.6} {:.6} {:.6}",
            percentile(&setups, 25.0),
            percentile(&setups, 50.0),
            percentile(&setups, 75.0)
        ),
        format!("work_units {}", pass.work()),
        format!("system_s {:.3}", pass.system_ns() as f64 / 1e9),
        format!(
            "throughput_per_s_median {:.3}",
            percentile(&throughputs, 50.0)
        ),
        format!("latency_samples {}", latencies.samples()),
        format!("result_digest {:016x}", pass.report.digest),
        format!("peak_rss_mb_at_exit {rss_at_exit_mb:.3}"),
        format!(
            "failed_share {}",
            pass.report.failed as f64 / pass.report.attempted.max(1) as f64
        ),
    ];
    RunResult {
        correct: pass.report.failed == 0 && pass.report.attempted > 0,
        attempted: pass.report.attempted.max(1),
        failed: pass.report.failed,
        metrics,
        notes,
    }
}

fn run_traced<U: Workload<sut::PierNodeBare>, T: Workload<Traced>>(args: &RunArgs) -> RunResult {
    let stop = stop_for(args, TRACE_REFERENCE_SHARE);
    let bare = run_pass::<sut::PierNodeBare, U>(args, false, stop, None);
    let n = bare.segments.len();

    alloc::set_counting(true);
    let traced = run_pass::<Traced, T>(args, false, Stop::Segments(n), None);
    alloc::set_counting(false);

    let tel_segments = (n / 4).max(1);
    let telemetry =
        run_pass::<sut::PierNodeBare, U>(args, true, Stop::Segments(tel_segments), None);

    // The wrapper must not change behaviour: same results, same traffic.
    let mut notes = Vec::new();
    let mut same = true;
    for (what, a, b) in [
        ("result_digest", bare.report.digest, traced.report.digest),
        ("attempted", bare.report.attempted, traced.report.attempted),
        ("failed", bare.report.failed, traced.report.failed),
        ("total_msgs", bare.msgs, traced.msgs),
        ("total_bytes", bare.bytes, traced.bytes),
        ("work_units", bare.work(), traced.work()),
    ] {
        if a != b {
            same = false;
            notes.push(format!("MISMATCH {what}: bare {a} traced {b}"));
        }
    }

    let mut metrics: Vec<(String, f64)> = Vec::new();
    for class in SpanClass::ALL {
        let (i, p) = (class as usize, class.prefix());
        metrics.push((format!("{p}.calls"), traced.spans.calls[i] as f64));
        metrics.push((format!("{p}.busy_ms"), ms(traced.spans.busy_ns[i])));
        if class.is_message() {
            metrics.push((format!("{p}.bytes"), traced.spans.bytes[i] as f64));
        }
    }
    let system = traced.system_ns();
    let handlers = traced.spans.busy_total_ns();
    let loop_ns = traced
        .sim_ns
        .saturating_sub(handlers + traced.spans.tracer_ns);
    let unattributed = 1.0 - traced.sim_ns as f64 / system as f64;
    let work = traced.work().max(1) as f64;
    // Extra system time of a pass over the bare pass, segment by segment on
    // equal inputs; the median shrugs off a disturbed segment.
    let extra_share = |pass: &Pass| {
        let mut ratios: Vec<f64> = pass
            .segments
            .iter()
            .zip(&bare.segments)
            .map(|(with, without)| with.system_ns as f64 / without.system_ns as f64 - 1.0)
            .collect();
        median(&mut ratios)
    };
    let sum = |f: fn(&Segment) -> u64| traced.segments.iter().map(f).sum::<u64>();
    metrics.extend([
        ("runtime.sim.loop.events".to_string(), traced.events as f64),
        ("runtime.sim.loop.busy_ms".to_string(), ms(loop_ns)),
        (
            "harness.generator.busy_ms".to_string(),
            ms(sum(|s| s.generator_ns)),
        ),
        ("trace.overhead_share".to_string(), extra_share(&traced)),
        ("trace.unattributed_share".to_string(), unattributed),
        (
            "alloc.allocs_per_op".to_string(),
            sum(|s| s.allocs) as f64 / work,
        ),
        (
            "alloc.bytes_per_op".to_string(),
            sum(|s| s.alloc_bytes) as f64 / work,
        ),
        (
            "cq.state.open_windows_max".to_string(),
            traced.report.open_windows_max as f64,
        ),
        (
            "cq.state.groups_max".to_string(),
            traced.report.groups_max as f64,
        ),
        (
            "telemetry.hub.enabled_overhead_share".to_string(),
            extra_share(&telemetry),
        ),
        ("trace.segments".to_string(), n as f64),
    ]);
    let probes = sut::probes(args.seed, if args.smoke { 3 } else { PROBE_REPS });
    metrics.extend(probes.into_iter().map(|(name, v)| (name.to_string(), v)));

    let attributed_ok = unattributed <= 0.02;
    if !attributed_ok {
        notes.push(format!("UNATTRIBUTED share {unattributed:.4} exceeds 0.02"));
    }
    notes.extend([
        format!("segments {n}"),
        format!("work_units {}", traced.work()),
        format!("system_s_bare {:.3}", bare.system_ns() as f64 / 1e9),
        format!("system_s_traced {:.3}", system as f64 / 1e9),
        format!("result_digest {:016x}", traced.report.digest),
    ]);
    let failed = traced.report.failed + bare.report.failed + telemetry.report.failed;
    RunResult {
        correct: same && attributed_ok && failed == 0 && traced.report.attempted > 0,
        attempted: traced.report.attempted.max(1),
        failed,
        metrics,
        notes,
    }
}
