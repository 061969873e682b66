//! `join_publish`: DHT writes beside DHT reads on a wide-area topology.
//!
//! Each round publishes a fresh `r(a,b)` and `s(b,c)` hashed on `b`, then
//! runs a symmetric-hash rehash join and a Fetch-Matches index join over
//! them (plans as in the repository's `experiments::join_strategies`) and
//! checks both answers against an in-benchmark hash join.  Rounds use their
//! own table names and a publish lifetime of a few rounds, so the stores
//! hold a steady amount of soft state however long the run is.
//!
//! It is the only workload that exercises router lookups, `PutRequest` /
//! `PutBatch` coalescing and the owner cache, the object manager, the
//! chunk-native join, `GetRequest`/`GetResponse` and `PierMsg::Results`;
//! the window machinery does nothing here.

use crate::sut::{self, Cluster, ClusterSpec, Net, Node, Out, Rng64, SimTime, Tuple, Value, SEC};
use crate::workload::{Report, Segment, SystemSpan, Workload};
use std::collections::{HashMap, HashSet};
use std::time::Instant;

#[derive(Debug, Clone, Copy)]
struct JoinParams {
    nodes: usize,
    r_rows: usize,
    s_rows: usize,
    /// Distinct join-key values; `r_rows * s_rows / domain` rows join.
    domain: usize,
    /// The round's rows are published over this many 250 ms ticks.
    publish_ticks: usize,
    settle: u64,
    timeout: u64,
}

fn params(smoke: bool) -> JoinParams {
    if smoke {
        JoinParams {
            nodes: 8,
            r_rows: 80,
            s_rows: 40,
            domain: 20,
            publish_ticks: 2,
            settle: 3 * SEC,
            timeout: 10 * SEC,
        }
    } else {
        JoinParams {
            nodes: 32,
            r_rows: 2400,
            s_rows: 1200,
            domain: 600,
            publish_ticks: 4,
            settle: 3 * SEC,
            timeout: 8 * SEC,
        }
    }
}

const TICK: u64 = SEC / 4;

/// One round's inputs and reference answer.
pub struct Round {
    index: u64,
    r_table: String,
    s_table: String,
    /// Per publish tick, per node, the `r` rows then the `s` rows.
    ticks: Vec<Vec<(Vec<Tuple>, Vec<Tuple>)>>,
    /// `r ⋈ s` on `b` as `(a, b, c)`; `a` and `c` are unique per row, so
    /// every triple occurs once.
    expected: HashSet<(i64, i64, i64)>,
}

/// Seeded generator of the rounds' relations and their reference join.
pub struct JoinGen {
    params: JoinParams,
    rng: Rng64,
    round: u64,
    /// Running digest of everything generated (the determinism check).
    pub digest: u64,
}

impl JoinGen {
    pub fn new(seed: u64, smoke: bool) -> Self {
        JoinGen {
            params: params(smoke),
            rng: Rng64::new(seed ^ 0x104A),
            round: 0,
            digest: 0,
        }
    }

    fn fold(&mut self, x: i64, y: i64) {
        self.digest =
            (self.digest ^ (x as u64) ^ ((y as u64) << 24)).wrapping_mul(0x0000_0100_0000_01b3);
    }

    pub fn next_round(&mut self) -> Round {
        let p = self.params;
        let k = self.round;
        self.round += 1;
        let r_table = format!("r{k}");
        let s_table = format!("s{k}");
        let r_schema = sut::schema(&r_table, &["a", "b"]);
        let s_schema = sut::schema(&s_table, &["b", "c"]);
        let mut ticks: Vec<Vec<(Vec<Tuple>, Vec<Tuple>)>> = (0..p.publish_ticks)
            .map(|_| (0..p.nodes).map(|_| (Vec::new(), Vec::new())).collect())
            .collect();
        let mut r_by_b: HashMap<i64, Vec<i64>> = HashMap::new();
        for i in 0..p.r_rows {
            let (a, b) = (i as i64, self.rng.index(p.domain) as i64);
            self.fold(a, b);
            r_by_b.entry(b).or_default().push(a);
            ticks[i % p.publish_ticks][i % p.nodes]
                .0
                .push(sut::tuple(&r_schema, vec![Value::Int(a), Value::Int(b)]));
        }
        let mut expected = HashSet::new();
        for i in 0..p.s_rows {
            let (b, c) = (self.rng.index(p.domain) as i64, (i * 7) as i64);
            self.fold(b, c);
            for a in r_by_b.get(&b).into_iter().flatten() {
                expected.insert((*a, b, c));
            }
            ticks[i % p.publish_ticks][i % p.nodes]
                .1
                .push(sut::tuple(&s_schema, vec![Value::Int(b), Value::Int(c)]));
        }
        Round {
            index: k,
            r_table,
            s_table,
            ticks,
            expected,
        }
    }
}

pub struct Join<N: Node> {
    cluster: Cluster<N>,
    params: JoinParams,
    gen: JoinGen,
    report: Report,
}

impl<N: Node> Join<N> {
    /// Check one join's answer against the reference; returns rows delivered.
    fn check(
        &mut self,
        round: u64,
        strategy: u64,
        submitted: SimTime,
        expected: &HashSet<(i64, i64, i64)>,
        outputs: Vec<sut::Output>,
    ) -> u64 {
        let mut got: HashMap<(i64, i64, i64), u32> = HashMap::new();
        let mut delivered = 0;
        for out in outputs {
            let (time, out) = sut::decode(out);
            match out {
                Out::Row { abc } => {
                    delivered += 1;
                    self.report.latency_us.add(time.saturating_sub(submitted));
                    *got.entry(abc).or_default() += 1;
                }
                Out::Done { .. } => {}
                _ => self.report.failed += 1,
            }
        }
        for abc in expected {
            self.report.attempted += 1;
            if got.remove(abc) == Some(1) {
                let (a, b, c) = *abc;
                self.report
                    .digest_add([round * 2 + strategy, a as u64, b as u64, c as u64]);
            } else {
                self.report.failed += 1;
            }
        }
        // Rows the reference does not have.
        self.report.failed += got.values().map(|n| u64::from(*n)).sum::<u64>();
        delivered
    }
}

impl<N: Node> Workload<N> for Join<N> {
    fn setup(seed: u64, smoke: bool, telemetry: bool) -> Self {
        let params = params(smoke);
        let cluster = Cluster::boot(&ClusterSpec {
            nodes: params.nodes,
            seed: crate::stream::LAYOUT_SEED,
            net: Net::Internet,
            sharing: false,
            admission: false,
            telemetry,
            liveness_timeout: 30 * SEC,
            // Long enough for the round that published a row to finish its
            // two joins, short enough that the stores stay bounded.
            publish_lifetime: 3 * (params.settle + 2 * (params.timeout + SEC)),
        });
        Join {
            cluster,
            params,
            gen: JoinGen::new(seed, smoke),
            report: Report::default(),
        }
    }

    fn segment(&mut self) -> Segment {
        let p = self.params;
        let started = Instant::now();
        let round = self.gen.next_round();
        let mut segment = Segment {
            work: (p.r_rows + p.s_rows) as u64,
            generator_ns: started.elapsed().as_nanos() as u64,
            ..Segment::default()
        };
        let key = vec!["b".to_string()];
        let rendezvous = format!("j{}", round.index);

        // Publish both relations into the DHT, hashed on the join key.
        let span = SystemSpan::start();
        for tick in round.ticks {
            for (i, (r_rows, s_rows)) in tick.into_iter().enumerate() {
                let at = self.cluster.addr(i);
                self.cluster.publish(at, &round.r_table, &key, r_rows);
                self.cluster.publish(at, &round.s_table, &key, s_rows);
            }
            self.cluster.run_for(TICK);
        }
        self.cluster.run_for(p.settle);
        let _ = self.cluster.drain();
        span.stop(&mut segment);

        for strategy in 0..2u64 {
            let span = SystemSpan::start();
            let proxy = self.cluster.addr((round.index * 2 + strategy) as usize + 1);
            let plan = if strategy == 0 {
                sut::symmetric_hash_join_plan(
                    proxy,
                    &round.r_table,
                    &round.s_table,
                    &rendezvous,
                    p.timeout,
                )
            } else {
                sut::fetch_matches_plan(proxy, &round.r_table, &round.s_table, p.timeout)
            };
            let submitted = self.cluster.now();
            self.cluster.submit_plan(proxy, plan);
            self.cluster.run_for(p.timeout + SEC);
            let outputs = self.cluster.drain();
            span.stop(&mut segment);
            segment.work += self.check(round.index, strategy, submitted, &round.expected, outputs);
        }
        segment
    }

    fn finish(&mut self) {
        // Every round checks its own answers; nothing is in flight.
    }

    fn cluster(&self) -> &Cluster<N> {
        &self.cluster
    }

    fn report(&mut self) -> &mut Report {
        &mut self.report
    }
}
