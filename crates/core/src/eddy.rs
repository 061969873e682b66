//! Eddies: adaptive, run-time reordering of query operators (§4.2.2).
//!
//! PIER's answer to query optimization without a catalog is *runtime*
//! reoptimization: "we have implemented a prototype version of an eddy \[2\]
//! as an optional operator that can be employed in UFL plans.  A set of UFL
//! operators can be 'wired up' to an eddy, and in principle benefit from the
//! eddy's ability to reorder the operators."
//!
//! An [`Eddy`] holds a set of commutative row-at-a-time filters
//! (selections) and decides, every [`EDDY_REORDER_ROWS`] rows, which filter
//! to visit first.  The two ingredients the paper names — **observation** of
//! per-operator dataflow rates and a **decision mechanism** for routing —
//! are the [`OperatorObservation`] statistics and the [`RoutingPolicy`]:
//!
//! * [`RoutingPolicy::Fixed`] — always use the wiring order (the behaviour
//!   of a static plan; the baseline in the ablation),
//! * [`RoutingPolicy::RoundRobin`] — rotate the starting operator, spreading
//!   work with no learning, and
//! * [`RoutingPolicy::Lottery`] — the classic eddy policy: favour operators
//!   that drop a larger fraction of the tuples they see ("fast fail"), so
//!   the plan converges toward evaluating the most selective predicate
//!   first without any prior statistics.
//!
//! The distributed dimension discussed in the paper — each node's eddy only
//! observes locally-routed data, and naive cross-site statistics exchange
//! would be too expensive — is captured by [`OperatorObservation::merge`]:
//! observations are mergeable partial states, so nodes *can* gossip or
//! aggregate them through the DHT exactly like any other partial aggregate,
//! and the ablation can quantify what that buys.

use crate::expr::{CompiledPredicate, Expr};
use crate::operators::LocalOperator;
use crate::tuple::{ColumnChunk, TupleBatch};
use pier_runtime::Rng64;

/// Rows routed between two lottery re-draws inside one chunk.  Deciding the
/// order once per chunk is cheap but lets a skewed stream lock in a stale
/// order for the whole chunk (observations arrive in chunk strides);
/// re-drawing every `EDDY_REORDER_ROWS` rows bounds how long a mid-stream
/// selectivity flip can go unnoticed, independent of chunk size.
pub const EDDY_REORDER_ROWS: usize = 32;

/// A filter-style operator an eddy can route rows through: it either passes
/// a row or drops it.  Unlike a full [`LocalOperator`] it can neither
/// multiply nor transform rows, which is what makes reordering safe.
pub trait EddyFilter: std::fmt::Debug {
    /// A short name used in observations and experiment output.
    fn name(&self) -> &str;
    /// Decide row `r` of a columnar chunk without materialising it: `true`
    /// passes the row, `false` drops it.
    fn apply_row(&mut self, chunk: &ColumnChunk, r: usize) -> bool;
}

/// A selection predicate as an eddy filter.  The predicate is compiled
/// against each schema it meets once ([`CompiledPredicate`]), so routing a
/// row evaluates by column index — no per-row name lookups.
#[derive(Debug)]
pub struct PredicateFilter {
    name: String,
    predicate: CompiledPredicate,
}

impl PredicateFilter {
    /// Wrap a predicate.
    pub fn new(name: impl Into<String>, predicate: Expr) -> Self {
        PredicateFilter {
            name: name.into(),
            predicate: CompiledPredicate::new(predicate),
        }
    }
}

impl EddyFilter for PredicateFilter {
    fn name(&self) -> &str {
        &self.name
    }

    fn apply_row(&mut self, chunk: &ColumnChunk, r: usize) -> bool {
        self.predicate
            .for_schema(chunk.schema())
            .matches_row(chunk, r)
    }
}

/// Per-observation retention factor of the exponentially decayed drop-rate
/// estimate: past evidence loses half its weight every
/// [`OBS_HALF_LIFE_ROWS`] tuples an operator sees.  Cumulative rates made
/// the lottery slow to react when a long history had to be overcome (a
/// selectivity flip after 1 000 rows needed ~250 rows of contrary evidence
/// to cross); with decay the crossover happens within roughly two half-lives
/// regardless of how much history preceded the flip.
pub const OBS_HALF_LIFE_ROWS: f64 = 48.0;

/// The per-observation retention factor itself, `0.5^(1/48)`, precomputed
/// so the per-row record path pays no transcendental call (pinned equal to
/// the formula by a test).
const OBS_DECAY: f64 = 0.985_663_198_640_187_6;

/// Per-operator dataflow observations (the eddy's "observation" half).
/// Mergeable so distributed eddies can combine what different nodes saw.
///
/// Two estimates are kept: cumulative totals (`seen`/`dropped`, for
/// diagnostics and the work metrics of the ablation) and an exponentially
/// decayed pair driving [`OperatorObservation::drop_rate`], so the lottery
/// weighs *recent* selectivity and adapts to a mid-stream flip within a
/// bounded row budget instead of dragging the whole history along.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OperatorObservation {
    /// Tuples routed into the operator (cumulative).
    pub seen: u64,
    /// Tuples the operator dropped (cumulative).
    pub dropped: u64,
    /// Exponentially decayed tuple weight.
    decayed_seen: f64,
    /// Exponentially decayed dropped weight.
    decayed_dropped: f64,
}

impl OperatorObservation {
    /// Record one routed tuple and whether the operator dropped it.
    pub fn record(&mut self, dropped: bool) {
        self.seen += 1;
        self.decayed_seen = self.decayed_seen * OBS_DECAY + 1.0;
        self.decayed_dropped *= OBS_DECAY;
        if dropped {
            self.dropped += 1;
            self.decayed_dropped += 1.0;
        }
    }

    /// Recency-weighted drop probability, with an optimistic prior of 0.5
    /// before any evidence (so unexplored operators still get tried).
    pub fn drop_rate(&self) -> f64 {
        if self.decayed_seen <= f64::EPSILON {
            0.5
        } else {
            self.decayed_dropped / self.decayed_seen
        }
    }

    /// Merge another node's observations for the same operator (§4.2.2's
    /// cross-site aggregation of eddy statistics).  Both the cumulative
    /// totals and the decayed estimates combine, so a warm-started eddy
    /// inherits the remote node's *recent* selectivity view.
    pub fn merge(&mut self, other: &OperatorObservation) {
        self.seen += other.seen;
        self.dropped += other.dropped;
        self.decayed_seen += other.decayed_seen;
        self.decayed_dropped += other.decayed_dropped;
    }
}

/// The eddy's routing policy (its "decision mechanism").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoutingPolicy {
    /// Visit operators in wiring order — equivalent to a static plan.
    Fixed,
    /// Rotate the starting operator per draw, no learning.
    RoundRobin,
    /// Lottery scheduling on observed drop rates: operators that fail tuples
    /// faster get visited earlier.
    Lottery,
}

/// The eddy operator: routes each row through every filter until one drops
/// it or all have passed it.
#[derive(Debug)]
pub struct Eddy {
    filters: Vec<Box<dyn EddyFilter + Send>>,
    observations: Vec<OperatorObservation>,
    policy: RoutingPolicy,
    rng: Rng64,
    round_robin_offset: usize,
    /// Total operator invocations — the "work" metric of the ablation.
    invocations: u64,
}

impl Eddy {
    /// Create an eddy over the given filters.
    pub fn new(filters: Vec<Box<dyn EddyFilter + Send>>, policy: RoutingPolicy, seed: u64) -> Self {
        let n = filters.len();
        Eddy {
            filters,
            observations: vec![OperatorObservation::default(); n],
            policy,
            rng: Rng64::new(seed ^ 0xEDD1),
            round_robin_offset: 0,
            invocations: 0,
        }
    }

    /// Convenience: an eddy over named selection predicates.
    pub fn over_predicates(
        predicates: Vec<(String, Expr)>,
        policy: RoutingPolicy,
        seed: u64,
    ) -> Self {
        let filters: Vec<Box<dyn EddyFilter + Send>> = predicates
            .into_iter()
            .map(|(name, p)| Box::new(PredicateFilter::new(name, p)) as Box<dyn EddyFilter + Send>)
            .collect();
        Eddy::new(filters, policy, seed)
    }

    /// Total operator invocations so far (the work an optimizer tries to
    /// minimize: every invocation is CPU spent and, for index filters,
    /// potentially a network probe).
    pub fn invocations(&self) -> u64 {
        self.invocations
    }

    /// The per-operator observations, in wiring order.
    pub fn observations(&self) -> &[OperatorObservation] {
        &self.observations
    }

    /// Fold another eddy's observations into this one's (distributed eddies
    /// aggregating their statistics).  Operators are matched by position;
    /// mismatched lengths are ignored beyond the shorter prefix.
    pub fn absorb_observations(&mut self, remote: &[OperatorObservation]) {
        for (mine, theirs) in self.observations.iter_mut().zip(remote) {
            mine.merge(theirs);
        }
    }

    /// Decide the visiting order for the next run of rows.
    fn route_order(&mut self) -> Vec<usize> {
        let n = self.filters.len();
        match self.policy {
            RoutingPolicy::Fixed => (0..n).collect(),
            RoutingPolicy::RoundRobin => {
                let start = self.round_robin_offset % n.max(1);
                self.round_robin_offset = self.round_robin_offset.wrapping_add(1);
                (0..n).map(|i| (start + i) % n).collect()
            }
            RoutingPolicy::Lottery => {
                // Ticket counts proportional to observed drop rate; break ties
                // with a small random jitter so equally-selective operators
                // share the first position (and keep being explored).
                let mut order: Vec<usize> = (0..n).collect();
                let jitter: Vec<f64> = (0..n).map(|_| self.rng.f64() * 0.05).collect();
                order.sort_by(|a, b| {
                    let score_a = self.observations[*a].drop_rate() + jitter[*a];
                    let score_b = self.observations[*b].drop_rate() + jitter[*b];
                    score_b
                        .partial_cmp(&score_a)
                        .unwrap_or(std::cmp::Ordering::Equal)
                });
                order
            }
        }
    }

    /// Route one borrowed chunk row through the filters in the given order
    /// with full observation bookkeeping and no tuple materialisation.
    /// Returns whether the row survives.
    fn route_row_in_chunk(&mut self, order: &[usize], chunk: &ColumnChunk, r: usize) -> bool {
        for &idx in order {
            self.invocations += 1;
            let passed = self.filters[idx].apply_row(chunk, r);
            self.observations[idx].record(!passed);
            if !passed {
                return false;
            }
        }
        true
    }

    /// Route a batch, emitting the survivors as re-chunked columnar output:
    /// rows are decided in place in the chunk's columns and survivors leave
    /// as one filtered chunk per input chunk — zero per-row tuple
    /// materialisations.
    ///
    /// The visiting order is drawn at the start of every chunk and re-drawn
    /// every [`EDDY_REORDER_ROWS`] rows inside it, so observations keep
    /// feeding back into routing however arrivals were batched — a stream of
    /// one-row chunks re-draws per row, and a mid-stream selectivity flip
    /// re-orders the filters within a bounded number of rows even inside one
    /// huge chunk.  The survivors never depend on the order, since the
    /// filters are commutative.
    pub fn route_batch(&mut self, batch: &TupleBatch) -> TupleBatch {
        let mut out = TupleBatch::default();
        for chunk in batch.chunks() {
            let mut order = self.route_order();
            let mut mask = vec![false; chunk.rows()];
            for (r, kept) in mask.iter_mut().enumerate() {
                if r > 0 && r % EDDY_REORDER_ROWS == 0 {
                    order = self.route_order();
                }
                *kept = self.route_row_in_chunk(&order, chunk, r);
            }
            out.push_chunk(chunk.filter(&mask));
        }
        out
    }
}

impl LocalOperator for Eddy {
    fn name(&self) -> &'static str {
        "eddy"
    }

    fn push_batch(&mut self, batch: &TupleBatch) -> TupleBatch {
        self.route_batch(batch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operators::tests::{chunkings, one};
    use crate::tuple::Tuple;
    use crate::value::Value;

    fn row(a: i64, b: i64, c: i64) -> Tuple {
        Tuple::new(
            "t",
            vec![
                ("a", Value::Int(a)),
                ("b", Value::Int(b)),
                ("c", Value::Int(c)),
            ],
        )
    }

    fn three_predicates() -> Vec<(String, Expr)> {
        vec![
            // Barely selective: a >= 0 passes everything in the workload.
            (
                "weak".to_string(),
                Expr::cmp(crate::expr::CmpOp::Ge, Expr::col("a"), Expr::lit(0i64)),
            ),
            // Medium: b < 50 passes half.
            (
                "medium".to_string(),
                Expr::cmp(crate::expr::CmpOp::Lt, Expr::col("b"), Expr::lit(50i64)),
            ),
            // Strong: c = 7 passes 1 %.
            ("strong".to_string(), Expr::eq("c", 7i64)),
        ]
    }

    fn workload(n: i64) -> Vec<Tuple> {
        (0..n).map(|i| row(i, i % 100, i % 100)).collect()
    }

    /// Stream `tuples` through `eddy` one arrival at a time (one-row
    /// batches: the routing order is drawn per tuple); returns the survivors.
    fn stream(eddy: &mut Eddy, tuples: &[Tuple]) -> Vec<Tuple> {
        tuples
            .iter()
            .flat_map(|t| eddy.route_batch(&one(t.clone())).into_tuples())
            .collect()
    }

    #[test]
    fn all_policies_produce_the_same_result_set() {
        let tuples = workload(500);
        let mut results = Vec::new();
        for policy in [
            RoutingPolicy::Fixed,
            RoutingPolicy::RoundRobin,
            RoutingPolicy::Lottery,
        ] {
            let mut eddy = Eddy::over_predicates(three_predicates(), policy, 1);
            results.push(stream(&mut eddy, &tuples).len());
        }
        assert_eq!(results[0], results[1]);
        assert_eq!(results[1], results[2]);
        assert_eq!(results[0], 5, "c = 7 matches 5 of the 500 rows");
    }

    #[test]
    fn lottery_does_less_work_than_a_bad_fixed_order() {
        let tuples = workload(2_000);
        // Fixed order as wired: weak, medium, strong — the worst order.
        let mut fixed = Eddy::over_predicates(three_predicates(), RoutingPolicy::Fixed, 1);
        // Lottery learns to put the strong predicate first.
        let mut lottery = Eddy::over_predicates(three_predicates(), RoutingPolicy::Lottery, 1);
        stream(&mut fixed, &tuples);
        stream(&mut lottery, &tuples);
        assert!(
            lottery.invocations() < fixed.invocations(),
            "lottery {} must beat bad fixed order {}",
            lottery.invocations(),
            fixed.invocations()
        );
    }

    #[test]
    fn observations_record_selectivity() {
        let mut eddy = Eddy::over_predicates(three_predicates(), RoutingPolicy::Fixed, 1);
        let out = stream(&mut eddy, &workload(200));
        let obs = eddy.observations();
        assert_eq!(obs[0].seen, 200);
        assert!(
            obs[0].drop_rate() < 0.1,
            "weak predicate drops almost nothing"
        );
        assert!(
            obs[2].drop_rate() > 0.9,
            "strong predicate drops almost everything"
        );
        assert!(out.len() <= 2);
    }

    #[test]
    fn merged_observations_accumulate_counts() {
        let record = |drops: u64, passes: u64| {
            let mut o = OperatorObservation::default();
            for _ in 0..drops {
                o.record(true);
            }
            for _ in 0..passes {
                o.record(false);
            }
            o
        };
        let mut a = record(3, 7);
        let b = record(37, 3);
        a.merge(&b);
        assert_eq!(a.seen, 50);
        assert_eq!(a.dropped, 40);
        // The decayed estimate also combines: mostly-dropping history on
        // both sides keeps the merged rate high.
        assert!(a.drop_rate() > 0.4, "decayed rate {}", a.drop_rate());
        assert_eq!(OperatorObservation::default().drop_rate(), 0.5);
    }

    #[test]
    fn precomputed_decay_matches_the_half_life_formula() {
        assert!((OBS_DECAY - 0.5_f64.powf(1.0 / OBS_HALF_LIFE_ROWS)).abs() < 1e-15);
    }

    #[test]
    fn decayed_drop_rate_tracks_recent_selectivity() {
        // 1 000 drops followed by two half-lives of passes: the cumulative
        // rate barely moves, the decayed rate collapses below 0.3.
        let mut o = OperatorObservation::default();
        for _ in 0..1_000 {
            o.record(true);
        }
        assert!(o.drop_rate() > 0.99);
        for _ in 0..(2.0 * OBS_HALF_LIFE_ROWS) as usize {
            o.record(false);
        }
        assert!(
            o.drop_rate() < 0.3,
            "decayed rate {} must forget the old regime within two half-lives",
            o.drop_rate()
        );
        assert!(
            o.dropped as f64 / o.seen as f64 > 0.9,
            "cumulative totals keep the full history: {o:?}"
        );
    }

    #[test]
    fn absorbing_remote_observations_speeds_up_learning() {
        // A "remote" eddy has already seen the workload and learned the drop
        // rates; a fresh eddy that absorbs those observations should start
        // with near-optimal routing.
        let tuples = workload(1_000);
        let mut remote = Eddy::over_predicates(three_predicates(), RoutingPolicy::Lottery, 3);
        stream(&mut remote, &tuples);
        let mut cold = Eddy::over_predicates(three_predicates(), RoutingPolicy::Lottery, 4);
        let mut warmed = Eddy::over_predicates(three_predicates(), RoutingPolicy::Lottery, 4);
        warmed.absorb_observations(remote.observations());
        stream(&mut cold, &tuples);
        stream(&mut warmed, &tuples);
        assert!(
            warmed.invocations() <= cold.invocations(),
            "warm start {} should not do more work than cold start {}",
            warmed.invocations(),
            cold.invocations()
        );
    }

    #[test]
    fn eddy_acts_as_a_local_operator_in_a_pipeline() {
        use crate::operators::Pipeline;
        let eddy = Eddy::over_predicates(three_predicates(), RoutingPolicy::Lottery, 9);
        let mut p = Pipeline::new(vec![Box::new(eddy)]);
        let mut kept = 0;
        for t in workload(300) {
            kept += p.push_batch(&one(t)).len();
        }
        assert_eq!(kept, 3, "c = 7 matches rows 7, 107, 207");
    }

    #[test]
    fn chunking_is_invisible_under_every_policy_and_survivors_stay_chunked() {
        // Every third row is of another shape (no `c`: the strong predicate
        // discards it), so every cut carries mixed-schema runs.
        let tuples: Vec<Tuple> = workload(500)
            .into_iter()
            .enumerate()
            .map(|(i, t)| match i % 3 {
                2 => Tuple::new("u", vec![("a", Value::Int(i as i64))]),
                _ => t,
            })
            .collect();
        let expected: Vec<Tuple> = tuples
            .iter()
            .filter(|t| t.get("c") == Some(&Value::Int(7)))
            .cloned()
            .collect();
        assert_eq!(expected.len(), 3, "rows 7, 207 and 307");
        for policy in [
            RoutingPolicy::Fixed,
            RoutingPolicy::RoundRobin,
            RoutingPolicy::Lottery,
        ] {
            for batches in chunkings(&tuples) {
                let mut eddy = Eddy::over_predicates(three_predicates(), policy, 5);
                let mut got = Vec::new();
                for b in &batches {
                    let out = eddy.route_batch(b);
                    // Survivors leave as one filtered chunk per input chunk.
                    assert!(out.chunks().len() <= b.chunks().len());
                    got.extend(out.into_tuples());
                }
                assert_eq!(got, expected, "{policy:?}");
                // Every row in was dropped by one filter or survived all.
                let dropped: u64 = eddy.observations().iter().map(|o| o.dropped).sum();
                assert_eq!(dropped + 3, 500, "{policy:?}");
                assert!(eddy.flush().is_empty());
            }
        }
    }

    #[test]
    fn redraw_within_chunk_adapts_to_a_mid_stream_selectivity_flip() {
        // Two filters whose selectivities flip mid-stream: rows 0..1000 are
        // all dropped by `flip_a` and all pass `flip_b`; rows 1000..4000 the
        // reverse.  The whole stream arrives as ONE 4000-row chunk, the
        // worst case for once-per-chunk routing (the stale order would cost
        // 2 invocations/row for the entire 3000-row tail ⇒ ≥ 7000 total).
        // Re-drawing the lottery every EDDY_REORDER_ROWS rows must re-order
        // the filters within a bounded number of rows of the flip:
        //   phase 1: ≤ EDDY_REORDER_ROWS rows at 2/row before `flip_a`
        //            (drop rate 1.0) takes the front, then 1/row;
        //   phase 2: the *exponentially decayed* drop rates cross — `flip_a`
        //            halves every OBS_HALF_LIFE_ROWS rows while `flip_b`
        //            climbs — within ~2 half-lives (≈ 96 rows) even against
        //            the worst-case 0.05 jitter, independent of how long
        //            phase 1 ran; then `flip_b` leads for good at 1/row.
        //            (Cumulative rates needed ~250 rows to overcome the
        //            1 000-row history; decay makes the budget constant.)
        let rows: Vec<Tuple> = (0..4000)
            .map(|i| {
                let phase = i64::from(i >= 1000);
                row(i, phase, phase)
            })
            .collect();
        let predicates = vec![
            ("flip_a".to_string(), Expr::eq("b", 1i64)),
            ("flip_b".to_string(), Expr::eq("c", 0i64)),
        ];
        let mut eddy = Eddy::over_predicates(predicates, RoutingPolicy::Lottery, 11);
        let batch = TupleBatch::new(rows);
        assert_eq!(batch.chunks().len(), 1, "one chunk, worst case");
        let survivors = eddy.route_batch(&batch);
        assert!(survivors.is_empty(), "no row passes both phases' filters");
        let bound = 4000 + 5 * EDDY_REORDER_ROWS as u64;
        assert!(
            eddy.invocations() <= bound,
            "re-drawn routing with decayed observations must spend ≤ {bound} \
             invocations, spent {} (a single order per chunk would spend \
             ≥ 7000; cumulative rates spent ≈ 4000 + 250)",
            eddy.invocations()
        );
        // After the crossover `flip_a` stops being visited: its seen count
        // stays within the same bounded window past the flip.
        assert!(
            eddy.observations()[0].seen <= 1000 + 5 * EDDY_REORDER_ROWS as u64,
            "stale filter kept receiving rows: {:?}",
            eddy.observations()
        );
    }

    #[test]
    fn round_robin_rotates_start_but_preserves_coverage() {
        let mut eddy = Eddy::over_predicates(three_predicates(), RoutingPolicy::RoundRobin, 2);
        // A tuple that passes everything visits all three filters regardless
        // of rotation.
        let survivor = row(7, 7, 7);
        for _ in 0..6 {
            assert_eq!(eddy.route_batch(&one(survivor.clone())).len(), 1);
        }
        assert_eq!(eddy.invocations(), 18);
    }

    #[test]
    fn telemetry_reconciles_with_pipeline_operator_counters() {
        use crate::operators::Pipeline;

        use pier_telemetry::Telemetry;

        let tel = Telemetry::attached();
        let mut pipeline = Pipeline::new(vec![Box::new(Eddy::over_predicates(
            three_predicates(),
            RoutingPolicy::Lottery,
            7,
        ))]);
        pipeline.set_telemetry(&tel);

        let mut batch = TupleBatch::default();
        for i in 0..200i64 {
            batch.push_tuple(row(i, i % 100, i % 10));
        }
        let out = pipeline.push_batch(&batch);
        assert!(pipeline.flush().is_empty());

        // The pipeline meters the eddy's stage like any other operator.
        assert_eq!(tel.counter("op.eddy.rows_in"), 200);
        assert_eq!(tel.counter("op.eddy.rows_out"), out.len() as u64);
        assert_eq!(tel.counter("op.eddy.chunks_in"), 1);
    }
}
