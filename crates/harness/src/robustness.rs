//! EXP-I — result fidelity under an adversary, with and without the
//! redundancy defenses of §4.1.2.
//!
//! This is the study the paper describes as in progress: "we are studying
//! the benefits offered by different dissemination and aggregation
//! topologies in minimizing the influence of an adversary on the computed
//! result.  Specifically, we examine the change in simple metrics such as
//! the fraction of data sources suppressed by the adversary and relative
//! result error."
//!
//! The membership is a set of overlay identifiers (the aggregators are the
//! same nodes that hold the data, as in PIER's in-network aggregation);
//! each member contributes one partial COUNT; the adversary compromises a
//! growing fraction of the membership and suppresses (or poisons) whatever
//! passes through the nodes it controls; and four strategies are compared —
//! the undefended single tree, k redundant trees combined exactly, k
//! redundant trees combined with duplicate-insensitive sketches, and a
//! multi-parent DAG with sketches.  A second driver measures the
//! spot-checking defense: how often sampled verification catches an
//! aggregator that suppressed part of its inputs.

use crate::{slug, Table};
use pier_runtime::Rng64;
use pier_security::adversary::{compare_defenses, Adversary, AdversaryConfig, Malice};
use pier_security::spot_check::{CheckOutcome, Commitment, SpotChecker};
use pier_security::FidelityReport;
use std::collections::BTreeSet;

/// One row of the EXP-I fidelity sweep.
#[derive(Debug, Clone)]
pub struct RobustnessResult {
    /// Number of members (data sources / aggregators).
    pub members: usize,
    /// Fraction of members the adversary controls.
    pub compromised_fraction: f64,
    /// The defense strategy evaluated.
    pub strategy: String,
    /// Fraction of honest sources whose contribution never reached the root.
    pub suppressed_fraction: f64,
    /// |estimate − truth| / truth.
    pub relative_error: f64,
    /// Aggregation traffic in bytes.
    pub bytes_shipped: u64,
}

/// Run the fidelity sweep for one membership size over the given compromised
/// fractions.  Each member contributes `value_per_member` units (a COUNT of
/// its local rows).
///
/// Because a DHT aggregation tree concentrates most sources under a handful
/// of near-root relays (the in-bandwidth hot spot of §3.3.4), a *single*
/// adversary draw is close to all-or-nothing: either a chokepoint was
/// compromised or it was not.  The sweep therefore averages `trials`
/// independent adversary draws per fraction, reporting the expected
/// suppressed fraction and relative error — the quantity a deployment
/// actually cares about.
pub fn fidelity_sweep(
    members: usize,
    value_per_member: u64,
    fractions: &[f64],
    malice: Malice,
    trials: usize,
    seed: u64,
) -> Vec<RobustnessResult> {
    let mut rng = Rng64::new(seed ^ 0x0B57);
    let ids: Vec<u64> = (0..members).map(|_| rng.next_u64()).collect();
    let values: Vec<(u64, u64)> = ids.iter().map(|id| (*id, value_per_member)).collect();
    let trials = trials.max(1);
    let mut out = Vec::new();
    for &fraction in fractions {
        // strategy → (suppressed sum, error sum, bytes sum)
        let mut accum: Vec<(String, f64, f64, u64)> = Vec::new();
        for trial in 0..trials {
            let adversary = Adversary::new(
                &ids,
                AdversaryConfig {
                    compromised_fraction: fraction,
                    malice,
                    seed: seed ^ (trial as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                },
            );
            let reports: Vec<FidelityReport> =
                compare_defenses(&ids, &values, &adversary, 3, 2, seed);
            for (i, r) in reports.into_iter().enumerate() {
                if accum.len() <= i {
                    accum.push((r.strategy.clone(), 0.0, 0.0, 0));
                }
                accum[i].1 += r.suppressed_fraction;
                accum[i].2 += r.relative_error;
                accum[i].3 += r.bytes_shipped;
            }
        }
        for (strategy, supp, err, bytes) in accum {
            out.push(RobustnessResult {
                members,
                compromised_fraction: fraction,
                strategy,
                suppressed_fraction: supp / trials as f64,
                relative_error: err / trials as f64,
                bytes_shipped: bytes / trials as u64,
            });
        }
    }
    out
}

/// One row of the spot-checking driver.
#[derive(Debug, Clone)]
pub struct SpotCheckResult {
    /// Fraction of its inputs the cheating aggregator suppressed.
    pub suppressed_fraction: f64,
    /// Spot-check sample size.
    pub sample_size: usize,
    /// Fraction of trials in which the cheat was detected.
    pub detection_rate: f64,
    /// Detection probability predicted analytically (1 − (1−f)^s).
    pub predicted_rate: f64,
}

/// Measure how often spot-checking catches an aggregator that drops a
/// fraction of its inputs before committing, for several sample sizes.
pub fn spot_check_detection(
    sources: usize,
    suppressed_fraction: f64,
    sample_sizes: &[usize],
    trials: usize,
    seed: u64,
) -> Vec<SpotCheckResult> {
    let mut rng = Rng64::new(seed ^ 0x5C0);
    let data: Vec<(u64, i64)> = (0..sources as u64)
        .map(|i| (i + 1, (i as i64 % 9) + 1))
        .collect();
    let legitimate: BTreeSet<u64> = data.iter().map(|(s, _)| *s).collect();
    let drop_count = ((sources as f64) * suppressed_fraction).round() as usize;
    let mut out = Vec::new();
    for &sample_size in sample_sizes {
        let mut detected = 0usize;
        for _ in 0..trials {
            // The cheater drops a random subset of its inputs, then commits.
            let mut kept = data.clone();
            rng.shuffle(&mut kept);
            let kept: Vec<(u64, i64)> = kept.into_iter().skip(drop_count).collect();
            let (commitment, tree) = Commitment::honest(1, &kept);
            let checker = SpotChecker::new(sample_size, rng.next_u64());
            match checker.check(&commitment, &tree, &data, &legitimate) {
                CheckOutcome::Consistent => {}
                _ => detected += 1,
            }
        }
        let predicted = 1.0 - (1.0 - suppressed_fraction).powi(sample_size as i32);
        out.push(SpotCheckResult {
            suppressed_fraction,
            sample_size,
            detection_rate: detected as f64 / trials as f64,
            predicted_rate: predicted,
        });
    }
    out
}

/// The EXP-I tables: the suppression sweep over 200 members, its poisoning
/// variant, and spot-check detection against sample size.
pub fn adversary_fidelity_table() -> String {
    let mut t = Table::new(
        "adversary_fidelity",
        "# EXP-I — aggregation fidelity under a suppression adversary (200 members)\n\
         # compromised  strategy             suppressed  rel_error  bytes",
    );
    let fidelity_row = |t: &mut Table, row: &RobustnessResult| {
        t.line(format_args!(
            "{:>11.0}%  {:<20} {:>9.3} {:>10.3} {:>8}",
            row.compromised_fraction * 100.0,
            row.strategy,
            row.suppressed_fraction,
            row.relative_error,
            row.bytes_shipped
        ));
    };
    let fractions = [0.0, 0.05, 0.10, 0.20, 0.30];
    for row in fidelity_sweep(200, 10, &fractions, Malice::Suppress, 20, 77) {
        fidelity_row(&mut t, &row);
        if (row.compromised_fraction - 0.30).abs() < 1e-9 {
            let strategy = slug(&row.strategy);
            t.metric(&format!("rel_error_{strategy}_30pct"), row.relative_error);
        }
    }
    t.line(format_args!(
        "\n# EXP-I (poisoning variant): 10% compromised nodes inject 1000 bogus units each"
    ));
    for row in fidelity_sweep(200, 10, &[0.10], Malice::Poison { units: 1_000 }, 20, 77) {
        fidelity_row(&mut t, &row);
    }
    t.line(format_args!(
        "\n# EXP-I (spot checking): detection rate vs sample size, 20% of inputs suppressed\n\
         # sample_size  detection_rate  predicted"
    ));
    for row in spot_check_detection(200, 0.20, &[1, 2, 4, 8, 16, 32], 200, 5) {
        t.line(format_args!(
            "{:>11} {:>15.2} {:>10.2}",
            row.sample_size, row.detection_rate, row.predicted_rate
        ));
        if row.sample_size == 32 {
            t.metric("spot_check_detection_s32", row.detection_rate);
        }
    }
    t.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn undefended_error_grows_with_the_adversary_and_redundancy_helps() {
        let rows = fidelity_sweep(120, 10, &[0.0, 0.3], Malice::Suppress, 8, 9);
        let err = |fraction: f64, strategy: &str| {
            rows.iter()
                .find(|r| r.compromised_fraction == fraction && r.strategy == strategy)
                .unwrap()
                .relative_error
        };
        // With no adversary the exact strategies are exact.
        assert_eq!(err(0.0, "single-tree/exact"), 0.0);
        // With 30 % compromised, the undefended tree loses a noticeable
        // fraction on average and redundant trees lose no more than it.
        let undefended = err(0.3, "single-tree/exact");
        let defended = err(0.3, "3-trees/exact-max");
        assert!(undefended > 0.0, "suppression must cost something");
        assert!(defended <= undefended + 1e-9);
    }

    #[test]
    fn sweep_produces_one_row_per_strategy_per_fraction() {
        let rows = fidelity_sweep(60, 5, &[0.0, 0.1, 0.2], Malice::Suppress, 2, 4);
        assert_eq!(rows.len(), 3 * 4);
    }

    #[test]
    fn spot_check_detection_tracks_the_analytic_rate() {
        let rows = spot_check_detection(100, 0.2, &[1, 5, 20], 60, 3);
        assert_eq!(rows.len(), 3);
        // More samples → better detection.
        assert!(rows[2].detection_rate >= rows[0].detection_rate);
        // With 20 samples and 20 % suppression, detection should be nearly
        // certain (predicted ≈ 0.99).
        assert!(rows[2].detection_rate > 0.9, "{rows:?}");
        // The measured rate should be in the same ballpark as the analytic
        // prediction.
        for r in &rows {
            assert!((r.detection_rate - r.predicted_rate).abs() < 0.25, "{r:?}");
        }
    }
}
