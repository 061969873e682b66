//! Integration tests for the §4.1 defense components working together:
//! spot-checking flags a cheating aggregator and the retry's aggregation
//! tree is built without it, and redundant trees limit what a suppression
//! adversary can do — the pieces EXP-I models for running PIER "in the
//! wild".

use pier::security::adversary::{compare_defenses, Adversary, AdversaryConfig, Malice};
use pier::security::spot_check::{CheckOutcome, Commitment, SpotChecker};
use pier::security::topology::AggregationTopology;
use std::collections::BTreeSet;

/// A cheating aggregator is caught by spot checks in every round, no honest
/// aggregator is ever flagged, and the retry's aggregation tree over the
/// unflagged aggregators excludes the cheater.
#[test]
fn spot_check_verdicts_drive_exclusion_and_retry() {
    // Ten aggregator candidates; aggregator 3 suppresses a third of its
    // inputs.
    let aggregators: Vec<u64> = (1..=10).collect();
    let sources: Vec<(u64, i64)> = (100..160).map(|s| (s, 2)).collect();
    let legitimate: BTreeSet<u64> = sources.iter().map(|(s, _)| *s).collect();
    let cheater = 3u64;
    let checker = SpotChecker::new(12, 99);

    // Several queries run; each time, the cheater commits to a truncated
    // input set and the honest aggregators commit to everything.
    let mut flagged = BTreeSet::new();
    for round in 0..3u64 {
        let mut flagged_this_round = BTreeSet::new();
        for &agg in &aggregators {
            let inputs: Vec<(u64, i64)> = if agg == cheater {
                sources.iter().skip(20).copied().collect()
            } else {
                sources.clone()
            };
            let (commitment, tree) = Commitment::honest(agg, &inputs);
            if checker.check(&commitment, &tree, &sources, &legitimate) != CheckOutcome::Consistent
            {
                flagged_this_round.insert(agg);
            }
        }
        assert_eq!(
            flagged_this_round,
            BTreeSet::from([cheater]),
            "round {round}: the cheater and only the cheater is flagged"
        );
        flagged.extend(flagged_this_round);
    }

    // The retry places its aggregation tree over the unflagged candidates.
    let unflagged: Vec<u64> = aggregators
        .iter()
        .copied()
        .filter(|a| !flagged.contains(a))
        .collect();
    assert_eq!(unflagged.len(), aggregators.len() - 1);
    let tree = AggregationTopology::tree(&unflagged, 7, 0);
    assert!(!tree.members().contains(&cheater));
    assert_eq!(tree.members().len(), unflagged.len());
}

/// The redundancy defense measurably reduces the damage a suppression
/// adversary can do, and the duplicate-insensitive sketch variant stays
/// within its approximation error even with multi-path delivery.
#[test]
fn redundancy_limits_suppression_damage_end_to_end() {
    let members: Vec<u64> = (0..250u64)
        .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .collect();
    let values: Vec<(u64, u64)> = members.iter().map(|m| (*m, 4)).collect();
    let adversary = Adversary::new(
        &members,
        AdversaryConfig {
            compromised_fraction: 0.25,
            malice: Malice::Suppress,
            seed: 7,
        },
    );
    let reports = compare_defenses(&members, &values, &adversary, 3, 2, 13);
    let get = |name: &str| reports.iter().find(|r| r.strategy == name).unwrap();
    let undefended = get("single-tree/exact");
    let redundant = get("3-trees/exact-max");
    assert!(
        redundant.relative_error <= undefended.relative_error + 1e-9,
        "redundant trees must not be worse: {} vs {}",
        redundant.relative_error,
        undefended.relative_error
    );
    assert!(
        redundant.suppressed_fraction <= undefended.suppressed_fraction,
        "redundant trees must not suppress more sources"
    );
    // The sketch strategies pay an approximation penalty but must stay in a
    // reasonable band of the (suppression-reduced) truth.
    let sketched = get("3-trees/sketch");
    assert!(
        sketched.relative_error < 0.75,
        "sketch error {}",
        sketched.relative_error
    );
}
