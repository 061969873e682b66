//! EXP-H — adaptive query processing with eddies (§4.2.2).
//!
//! PIER has no catalog, so a static optimizer has nothing to order
//! predicates by; the paper's answer is the eddy.  This driver measures the
//! quantity an optimizer (static or adaptive) is trying to minimize —
//! **operator invocations** — for the same conjunctive filter query executed
//! four ways:
//!
//! * a static plan wired in the *worst* order (least selective predicate
//!   first) — what a naive UFL author might produce,
//! * a static plan wired in the *best* order (most selective first) — the
//!   unattainable-without-statistics optimum,
//! * an eddy with round-robin routing (no learning), and
//! * an eddy with lottery routing (learning from observed drop rates),
//!   optionally warm-started with observations merged from other nodes, the
//!   cross-site statistics sharing the paper discusses for distributed
//!   eddies.
//!
//! All variants must return exactly the same tuples; only the work differs.

use crate::{slug, Table};
use pier_core::eddy::{Eddy, OperatorObservation, RoutingPolicy};
use pier_core::{CmpOp, Expr, Tuple, TupleBatch, Value};
use pier_runtime::Rng64;

/// One row of the EXP-H output.
#[derive(Debug, Clone)]
pub struct EddyResult {
    /// Strategy label.
    pub strategy: String,
    /// Total operator invocations over the whole input stream.
    pub invocations: u64,
    /// Tuples that satisfied every predicate.
    pub results: u64,
    /// Input tuples processed.
    pub tuples: u64,
}

/// The three predicates of the experiment, in *worst* (least selective
/// first) wiring order, over a `flows(proto, port, bytes)` stream:
/// `bytes >= 64` passes nearly everything, `port < 1024` passes about a
/// third, `proto = 'udp'` passes a tenth.
fn predicates() -> Vec<(String, Expr)> {
    vec![
        (
            "bytes>=64".to_string(),
            Expr::cmp(CmpOp::Ge, Expr::col("bytes"), Expr::lit(64i64)),
        ),
        (
            "port<1024".to_string(),
            Expr::cmp(CmpOp::Lt, Expr::col("port"), Expr::lit(1024i64)),
        ),
        ("proto=udp".to_string(), Expr::eq("proto", "udp")),
    ]
}

/// Generate the synthetic flow stream.
fn workload(tuples: usize, seed: u64) -> Vec<Tuple> {
    let mut rng = Rng64::new(seed ^ 0xF10);
    (0..tuples)
        .map(|_| {
            let proto = if rng.chance(0.1) { "udp" } else { "tcp" };
            let port = rng.next_below(3072) as i64;
            let bytes = 40 + rng.next_below(1460) as i64;
            Tuple::new(
                "flows",
                vec![
                    ("proto", Value::str(proto)),
                    ("port", Value::Int(port)),
                    ("bytes", Value::Int(bytes)),
                ],
            )
        })
        .collect()
}

/// Stream `tuples` through `eddy` one arrival at a time — each a one-row
/// batch, so the routing order is drawn per tuple — and count the survivors.
fn stream_through(eddy: &mut Eddy, tuples: &[Tuple]) -> u64 {
    tuples
        .iter()
        .map(|t| eddy.route_batch(&TupleBatch::new(vec![t.clone()])).len() as u64)
        .sum()
}

fn run_eddy(mut eddy: Eddy, stream: &[Tuple], label: &str) -> EddyResult {
    let results = stream_through(&mut eddy, stream);
    EddyResult {
        strategy: label.to_string(),
        invocations: eddy.invocations(),
        results,
        tuples: stream.len() as u64,
    }
}

/// Run EXP-H over a stream of `tuples` flow records.
pub fn eddy_policies(tuples: usize, seed: u64) -> Vec<EddyResult> {
    let stream = workload(tuples, seed);
    let mut out = Vec::new();

    // Static, worst wiring order (the order `predicates()` returns).
    out.push(run_eddy(
        Eddy::over_predicates(predicates(), RoutingPolicy::Fixed, seed),
        &stream,
        "static/worst-order",
    ));

    // Static, best wiring order (most selective first).
    let mut best: Vec<(String, Expr)> = predicates();
    best.reverse();
    out.push(run_eddy(
        Eddy::over_predicates(best, RoutingPolicy::Fixed, seed),
        &stream,
        "static/best-order",
    ));

    // Eddy, round-robin (no learning).
    out.push(run_eddy(
        Eddy::over_predicates(predicates(), RoutingPolicy::RoundRobin, seed),
        &stream,
        "eddy/round-robin",
    ));

    // Eddy, lottery (learning).
    out.push(run_eddy(
        Eddy::over_predicates(predicates(), RoutingPolicy::Lottery, seed),
        &stream,
        "eddy/lottery",
    ));

    // Eddy, lottery, warm-started with observations "gossiped" from a node
    // that has already processed a similar stream (distributed eddies
    // aggregating their observations, §4.2.2).
    let mut trainer = Eddy::over_predicates(predicates(), RoutingPolicy::Lottery, seed ^ 1);
    stream_through(&mut trainer, &workload(tuples / 4, seed ^ 2));
    let remote: Vec<OperatorObservation> = trainer.observations().to_vec();
    let mut warmed = Eddy::over_predicates(predicates(), RoutingPolicy::Lottery, seed);
    warmed.absorb_observations(&remote);
    out.push(run_eddy(warmed, &stream, "eddy/lottery+shared-stats"));

    out
}

/// The EXP-H table: a 50,000-tuple stream under every strategy.
pub fn eddy_policies_table() -> String {
    let mut t = Table::new(
        "eddy_policies",
        "# EXP-H — eddy routing policies over a 3-predicate filter query\n\
         # strategy                  tuples  invocations  results",
    );
    for row in eddy_policies(50_000, 29) {
        t.line(format_args!(
            "{:<26} {:>7} {:>12} {:>8}",
            row.strategy, row.tuples, row.invocations, row.results
        ));
        let strategy = slug(&row.strategy);
        t.metric(&format!("invocations_{strategy}"), row.invocations as f64);
    }
    t.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_strategy_returns_the_same_result_count() {
        let rows = eddy_policies(2_000, 7);
        assert_eq!(rows.len(), 5);
        let expected = rows[0].results;
        for r in &rows {
            assert_eq!(
                r.results, expected,
                "{} returned a different answer",
                r.strategy
            );
            assert_eq!(r.tuples, 2_000);
        }
        assert!(expected > 0, "the workload must produce some matches");
    }

    #[test]
    fn lottery_beats_the_worst_static_order_and_approaches_the_best() {
        let rows = eddy_policies(5_000, 3);
        let by = |name: &str| {
            rows.iter()
                .find(|r| r.strategy == name)
                .unwrap_or_else(|| panic!("missing {name}"))
                .invocations
        };
        let worst = by("static/worst-order");
        let best = by("static/best-order");
        let lottery = by("eddy/lottery");
        assert!(best < worst, "sanity: the orders must actually differ");
        assert!(
            lottery < worst,
            "lottery ({lottery}) must do less work than the worst order ({worst})"
        );
        // The adaptive policy should close most of the gap to the optimum.
        let gap = (lottery - best) as f64 / (worst - best) as f64;
        assert!(
            gap < 0.5,
            "lottery should close at least half the gap, closed {gap:.2}"
        );
    }

    #[test]
    fn shared_statistics_do_not_hurt() {
        let rows = eddy_policies(3_000, 11);
        let by = |name: &str| {
            rows.iter()
                .find(|r| r.strategy == name)
                .unwrap()
                .invocations
        };
        assert!(by("eddy/lottery+shared-stats") <= by("eddy/lottery") + by("eddy/lottery") / 10);
    }
}
