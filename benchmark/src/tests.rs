//! `cargo test --manifest-path benchmark/Cargo.toml`: the generators are
//! deterministic, the declared metric names are the emitted ones and the
//! ones in `BENCHMARK.json`, and every workload passes its own checks in
//! smoke size with tracing on and off.

use crate::join::JoinGen;
use crate::json::{self, Json};
use crate::metrics::{self, Metric};
use crate::runner::RunArgs;
use crate::stream::{Churn, Netmon, PacketGen, StreamKind, Tenants};
use crate::workload::{self, LatencyHist};
use std::collections::BTreeSet;

fn packet_digest<K: StreamKind>(seed: u64) -> u64 {
    let params = K::params(true);
    let mut gen = PacketGen::new(seed, &params);
    let mut counts = vec![0; params.sources];
    for tick in 0..8 {
        let rows = gen.tick(tick * 250_000, params.nodes, 20, &mut counts);
        assert_eq!(rows.len(), params.nodes);
    }
    assert_eq!(counts.iter().sum::<u32>() as usize, 8 * 20 * params.nodes);
    gen.digest
}

fn join_digest(seed: u64) -> u64 {
    let mut gen = JoinGen::new(seed, true);
    gen.next_round();
    gen.next_round();
    gen.digest
}

#[test]
fn equal_seeds_generate_equal_inputs_and_different_seeds_do_not() {
    let digests: [fn(u64) -> u64; 4] = [
        packet_digest::<Netmon>,
        packet_digest::<Tenants>,
        packet_digest::<Churn>,
        join_digest,
    ];
    for digest in digests {
        assert_eq!(digest(7), digest(7));
        assert_ne!(digest(7), digest(8));
    }
}

#[test]
fn latency_histogram_keeps_percentiles_to_its_precision() {
    let mut hist = LatencyHist::default();
    assert_eq!(hist.percentile(50.0), None);
    for v in 1..=1000u64 {
        hist.add(v * 1000);
    }
    assert_eq!(hist.samples(), 1000);
    for (p, exact) in [(50.0, 500_000.0), (99.0, 990_000.0), (100.0, 1_000_000.0)] {
        let got = hist.percentile(p).unwrap() as f64;
        assert!((got - exact).abs() / exact < 1e-4, "p{p}: {got} vs {exact}");
    }
    // Small values are exact.
    let mut small = LatencyHist::default();
    small.add(3);
    small.add(16_383);
    assert_eq!(small.percentile(1.0), Some(3));
    assert_eq!(small.percentile(100.0), Some(16_383));
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    json::parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit, better, bound)` of one declared list.
fn declared(list: &str) -> Vec<(String, String, String, Option<f64>)> {
    benchmark_json()
        .get(list)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let text = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
            (
                text("name"),
                text("unit"),
                text("better"),
                m.get("bound").and_then(Json::as_f64),
            )
        })
        .collect()
}

fn in_code(list: Vec<Metric>) -> Vec<(String, String, String, Option<f64>)> {
    list.into_iter()
        .map(|m| {
            (
                m.name,
                m.unit.to_string(),
                m.better.as_str().to_string(),
                m.bound,
            )
        })
        .collect()
}

#[test]
fn benchmark_json_declares_exactly_what_the_code_emits() {
    assert_eq!(declared("end_to_end"), in_code(metrics::end_to_end()));
    assert_eq!(declared("per_layer"), in_code(metrics::per_layer()));
    let spec = benchmark_json();
    let workloads: Vec<&str> = spec
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
        .collect();
    assert_eq!(workloads, workload::ALL);
}

#[test]
fn metric_names_are_valid_unique_and_within_the_limits() {
    let e2e = metrics::end_to_end();
    let layers = metrics::per_layer();
    assert!(
        e2e.len() <= 16 && layers.len() <= 128,
        "{} per-layer metrics",
        layers.len()
    );
    let mut seen = BTreeSet::new();
    for m in e2e.iter().chain(&layers) {
        assert!(valid_name(&m.name), "{}", m.name);
        assert!(seen.insert(m.name.clone()), "{} declared twice", m.name);
        assert!(!m.unit.is_empty() && m.unit.len() <= 16);
    }
    for m in &e2e {
        let bound = m.bound.expect("end-to-end metrics have bounds");
        assert!(bound > 0.0 && bound <= 0.25, "{}", m.name);
    }
    let setup = e2e.iter().find(|m| m.name == "setup_s").expect("setup_s");
    assert_eq!((setup.unit, setup.better), ("s", metrics::Better::Lower));
    assert!(
        e2e.iter().all(|m| m.bound <= setup.bound),
        "setup_s has the largest bound"
    );
    assert!(layers.iter().all(|m| m.bound.is_none()));
}

/// Every workload, smoke size: the traced run equals the bare run (digest,
/// traffic), every check passes, and each mode emits exactly its declared
/// metric names.
#[test]
fn smoke_runs_pass_their_checks_and_emit_the_declared_names() {
    for name in workload::ALL {
        for trace in [false, true] {
            let args = RunArgs {
                seed: 11,
                seconds: 1.0,
                trace,
                smoke: true,
                segments: Some(2),
            };
            let result = crate::run_workload(name, &args).expect("known workload");
            assert!(result.correct, "{name} trace {trace}: {:?}", result.notes);
            assert_eq!(result.failed, 0, "{name}");
            assert!(result.attempted >= 1, "{name}");
            let declared = if trace {
                metrics::per_layer()
            } else {
                metrics::end_to_end()
            };
            let emitted: Vec<&str> = result.metrics.iter().map(|(n, _)| n.as_str()).collect();
            let expected: Vec<&str> = declared.iter().map(|m| m.name.as_str()).collect();
            assert_eq!(emitted, expected, "{name} trace {trace}");
            assert!(result.metrics.iter().all(|(_, v)| v.is_finite()), "{name}");
            if !trace {
                // End-to-end metrics are never zero.
                assert!(
                    result.metrics.iter().all(|(_, v)| *v > 0.0),
                    "{name}: {:?}",
                    result.metrics
                );
            }
        }
    }
    assert!(crate::run_workload(
        "no_such_workload",
        &RunArgs {
            seed: 1,
            seconds: 1.0,
            trace: false,
            smoke: true,
            segments: Some(1),
        }
    )
    .is_none());
}
