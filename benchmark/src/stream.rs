//! The three standing-query workloads.  They share one driver — a packet
//! stream fed to every node in 250 ms virtual ticks, per-window results
//! collected at the proxies and checked against per-window per-source
//! counts kept by the generator — and differ in cluster, rate and tenancy.
//!
//! The stream is open-loop in virtual time (a fixed number of rows per node
//! per tick, whatever the system does) and closed-loop in wall time (one
//! driver thread: the next tick is generated when `run_for` returns).

use crate::sut::{
    self, Cluster, ClusterSpec, Net, Node, NodeAddr, Out, Rng64, Schema, SimTime, Tuple, Value,
    WindowSpec, Zipf, SEC,
};
use crate::workload::{Report, Segment, SystemSpan, Workload};
use std::collections::{BTreeMap, HashMap};
use std::marker::PhantomData;
use std::sync::Arc;
use std::time::Instant;

/// Ingest rounds per virtual second.
const TICKS_PER_SEC: u64 = 4;
const TICK: u64 = SEC / TICKS_PER_SEC;
/// Virtual time after a window's end by which its final rows have reached
/// the proxy (close + grace + partial travel + root emit + refinements);
/// windows are checked once they are this old.
const SETTLE: u64 = 10 * SEC;
/// Ring identifiers and topology draws of every cluster: the deployment is
/// part of the benchmark's configuration, not of its seeded inputs, so the
/// traffic and latency figures of different seeds describe one deployment.
pub const LAYOUT_SEED: u64 = 0x00C1_D205;
/// The stream's phase against the window boundaries is drawn from the seed,
/// up to this much: a packet trace is not phase-locked to the instant a
/// query was installed.
const MAX_PHASE: u64 = 50_000;
/// A query that lives "for the whole run".
const FOREVER: u64 = 100_000 * SEC;
/// A rolling query's windows are checked from this long after its submit
/// (dissemination has reached every node) …
const ROLLING_HEAD: u64 = SEC;
/// … until this long before its timeout (the proxy drops results that
/// arrive after it, and nodes uninstall at it).
const ROLLING_TAIL: u64 = 6 * SEC;

/// Who installs standing queries, and when.
#[derive(Debug, Clone, Copy)]
pub enum Tenancy {
    /// One `GROUP BY src` aggregate over every source, proxied at node 0.
    Single,
    /// This many `WHERE src = '<mine>'` tenants, all installed at set-up;
    /// tenant `i` watches source `i` from proxy `i % nodes`.
    Fixed(usize),
    /// `per_sec` short-lived tenant queries installed every virtual second,
    /// each living `lifetime_secs`; set-up runs one lifetime so the first
    /// measured segment starts at the steady live count.
    Rolling { per_sec: usize, lifetime_secs: u64 },
}

#[derive(Debug, Clone, Copy)]
pub struct StreamParams {
    pub nodes: usize,
    pub sharing: bool,
    pub admission: bool,
    pub rows_per_node_per_tick: usize,
    pub sources: usize,
    pub theta: f64,
    /// Name of the packets' third column (`port` or `len`).
    pub third: &'static str,
    pub segment_secs: u64,
    pub tenancy: Tenancy,
}

/// Picks the parameters of one of the three workloads.
pub trait StreamKind {
    fn params(smoke: bool) -> StreamParams;
}

/// `netmon_stream`: the single-query data path — per-tuple `ingest`,
/// `WindowTick` close/flush, en-route combine on `Routed` — with no sharing
/// layer, no `PutBatch` and almost no control traffic.
pub struct Netmon;

impl StreamKind for Netmon {
    fn params(smoke: bool) -> StreamParams {
        StreamParams {
            nodes: if smoke { 6 } else { 16 },
            sharing: false,
            admission: false,
            rows_per_node_per_tick: if smoke { 50 } else { 1_000 },
            sources: if smoke { 64 } else { 1_024 },
            theta: 0.9,
            third: "port",
            segment_secs: if smoke { 2 } else { 5 },
            tenancy: Tenancy::Single,
        }
    }
}

/// `tenants_shared`: the same ingest entry point used differently —
/// predicate-index fan-out, shared window state, `ShareTick`, per-member
/// emission to every proxy.  A fifth of the rows match no tenant.
pub struct Tenants;

impl StreamKind for Tenants {
    fn params(smoke: bool) -> StreamParams {
        StreamParams {
            nodes: if smoke { 6 } else { 12 },
            sharing: true,
            admission: false,
            rows_per_node_per_tick: if smoke { 50 } else { 1_000 },
            sources: if smoke { 10 } else { 80 },
            theta: 0.6,
            third: "len",
            segment_secs: if smoke { 2 } else { 5 },
            tenancy: Tenancy::Fixed(if smoke { 8 } else { 64 }),
        }
    }
}

/// `query_churn`: the control path — compile, admission, broadcast
/// dissemination and 5 s re-dissemination, lease and lifecycle timers,
/// share-group refcounting — under a trickle of rows.
pub struct Churn;

impl StreamKind for Churn {
    fn params(smoke: bool) -> StreamParams {
        StreamParams {
            nodes: if smoke { 6 } else { 12 },
            sharing: true,
            admission: true,
            rows_per_node_per_tick: 2,
            sources: 80,
            theta: 0.6,
            third: "len",
            segment_secs: if smoke { 4 } else { 20 },
            tenancy: if smoke {
                Tenancy::Rolling {
                    per_sec: 2,
                    lifetime_secs: 12,
                }
            } else {
                Tenancy::Rolling {
                    per_sec: 10,
                    lifetime_secs: 30,
                }
            },
        }
    }
}

// ----- input generator -------------------------------------------------------

/// Seeded packet stream: Zipf-popular sources, one batch per node per tick.
pub struct PacketGen {
    rng: Rng64,
    zipf: Zipf,
    schema: Arc<Schema>,
    sources: Vec<Value>,
    third_is_port: bool,
    /// Running digest of everything generated (the determinism check).
    pub digest: u64,
}

impl PacketGen {
    pub fn new(seed: u64, params: &StreamParams) -> Self {
        PacketGen {
            rng: Rng64::new(seed ^ 0xCAFE_F00D),
            zipf: Zipf::new(params.sources, params.theta),
            schema: sut::schema("packets", &["src", "ts", params.third]),
            sources: (0..params.sources)
                .map(|r| Value::str(sut::source_addr(r)))
                .collect(),
            third_is_port: params.third == "port",
            digest: 0,
        }
    }

    /// One tick's rows for every node, stamped `now`; `counts[rank]` is
    /// raised per generated row of that source.
    pub fn tick(
        &mut self,
        now: SimTime,
        nodes: usize,
        per_node: usize,
        counts: &mut [u32],
    ) -> Vec<Vec<Tuple>> {
        (0..nodes)
            .map(|_| {
                (0..per_node)
                    .map(|_| {
                        // Zipf ranks are 1-based; sources are 0-based.
                        let rank = self.zipf.sample(&mut self.rng) - 1;
                        let third = if self.third_is_port {
                            [22, 80, 443, 445][self.rng.index(4)]
                        } else {
                            40 + self.rng.index(1400) as i64
                        };
                        counts[rank] += 1;
                        self.digest = (self.digest ^ (rank as u64) ^ ((third as u64) << 20))
                            .wrapping_mul(0x0000_0100_0000_01b3);
                        sut::tuple(
                            &self.schema,
                            vec![
                                self.sources[rank].clone(),
                                Value::Int(now as i64),
                                Value::Int(third),
                            ],
                        )
                    })
                    .collect()
            })
            .collect()
    }
}

// ----- reference computation -------------------------------------------------

/// What one standing query must deliver.
struct Watch {
    /// Submission order (the digest uses it, not the query id).
    ordinal: u64,
    /// The one source a tenant watches; `None` watches every source.
    rank: Option<u32>,
    /// Windows starting at or after `from` and ending at or before `to`
    /// are checked.
    from: SimTime,
    to: SimTime,
}

/// Per-window per-source counts from the generator, the rows the proxies
/// delivered, and the comparison between them.
struct Oracle {
    spec: WindowSpec,
    rank_of: HashMap<String, u32>,
    /// Window start → rows generated per source.
    generated: BTreeMap<SimTime, Vec<u32>>,
    /// Window start → query → source → latest delivered count.
    received: BTreeMap<SimTime, HashMap<u64, HashMap<u32, i64>>>,
    watches: HashMap<u64, Watch>,
    /// Windows starting before this have been checked and forgotten.
    checked_before: SimTime,
}

impl Oracle {
    fn new(spec: WindowSpec, sources: usize) -> Self {
        Oracle {
            spec,
            rank_of: (0..sources)
                .map(|r| (sut::source_addr(r), r as u32))
                .collect(),
            generated: BTreeMap::new(),
            received: BTreeMap::new(),
            watches: HashMap::new(),
            checked_before: 0,
        }
    }

    fn record(&mut self, now: SimTime, counts: &[u32]) {
        let spec = self.spec;
        for start in sut::windows_covering(&spec, now) {
            let window = self
                .generated
                .entry(start)
                .or_insert_with(|| vec![0; counts.len()]);
            for (have, add) in window.iter_mut().zip(counts) {
                *have += add;
            }
        }
    }

    fn receive(&mut self, query: u64, start: SimTime, retract: bool, src: &str, count: i64) {
        if start < self.checked_before {
            return; // a refinement of a window already judged
        }
        // A source the generator never made cannot match any expectation.
        let rank = self.rank_of.get(src).copied().unwrap_or(u32::MAX);
        let rows = self
            .received
            .entry(start)
            .or_default()
            .entry(query)
            .or_default();
        if retract {
            if rows.get(&rank) == Some(&count) {
                rows.remove(&rank);
            }
        } else {
            rows.insert(rank, count);
        }
    }

    /// Check and forget every window that ended at or before `horizon`.
    fn settle(&mut self, horizon: SimTime, report: &mut Report) {
        while let Some((&start, _)) = self.generated.first_key_value() {
            let end = start + self.spec.size;
            if end > horizon {
                break;
            }
            let counts = self.generated.remove(&start).expect("first key exists");
            let mut delivered = self.received.remove(&start).unwrap_or_default();
            for (query, watch) in &self.watches {
                if start < watch.from || end > watch.to {
                    continue;
                }
                let rows = delivered.remove(query).unwrap_or_default();
                let mut matched = 0;
                let mut expect = |rank: u32| {
                    let want = i64::from(counts[rank as usize]);
                    if want == 0 {
                        return;
                    }
                    report.attempted += 1;
                    if rows.get(&rank) == Some(&want) {
                        matched += 1;
                        report.digest_add([watch.ordinal, start, u64::from(rank), want as u64]);
                    } else {
                        report.failed += 1;
                    }
                };
                match watch.rank {
                    Some(rank) => expect(rank),
                    None => (0..counts.len() as u32).for_each(&mut expect),
                }
                // Rows the reference does not have.
                report.failed += (rows.len() - matched) as u64;
            }
            self.checked_before = start + 1;
        }
        let oldest = self.checked_before;
        self.received = self.received.split_off(&oldest);
        self.watches.retain(|_, w| w.to >= oldest);
    }
}

// ----- driver ----------------------------------------------------------------

pub struct Stream<N: Node, K: StreamKind> {
    cluster: Cluster<N>,
    params: StreamParams,
    gen: PacketGen,
    /// Draws the source each rolling query watches (its own stream, so
    /// the packets do not depend on the tenancy).
    plan_rng: Rng64,
    oracle: Oracle,
    report: Report,
    submitted: u64,
    ticks: u64,
    /// Rolling queries awaiting their `Done`: query → timeout instant.
    awaiting_done: HashMap<u64, SimTime>,
    /// The first query submitted (the state diagnostics follow it).
    first_query: u64,
    _kind: PhantomData<K>,
}

/// Inputs of one tick, generated before the system clock starts.
struct TickInput {
    rows: Vec<Vec<Tuple>>,
    /// `(proxy, statement, watched source)` per query to submit.
    submits: Vec<(NodeAddr, String, u32)>,
}

impl<N: Node, K: StreamKind> Stream<N, K> {
    fn make_tick(&mut self) -> TickInput {
        let now = self.cluster.now();
        let mut counts = vec![0u32; self.params.sources];
        let rows = self.gen.tick(
            now,
            self.params.nodes,
            self.params.rows_per_node_per_tick,
            &mut counts,
        );
        self.oracle.record(now, &counts);
        self.ticks += 1;
        let mut submits = Vec::new();
        if let Tenancy::Rolling { per_sec, .. } = self.params.tenancy {
            if self.ticks % TICKS_PER_SEC == 1 {
                for i in 0..per_sec {
                    let rank = self.plan_rng.index(self.params.sources);
                    let proxy = self.cluster.addr((self.submitted as usize) + i);
                    submits.push((proxy, sut::tenant_sql(&sut::source_addr(rank)), rank as u32));
                }
            }
        }
        TickInput { rows, submits }
    }

    /// Submit one standing query and tell the oracle what it must deliver.
    /// Inside the system clock when called from a tick.
    fn submit(&mut self, proxy: NodeAddr, sql: &str, rank: Option<u32>, lifetime: Option<u64>) {
        let now = self.cluster.now();
        let ordinal = self.submitted;
        self.submitted += 1;
        let timeout = lifetime.unwrap_or(FOREVER);
        let query = self.cluster.submit_sql(proxy, sql, ordinal, timeout);
        if ordinal == 0 {
            self.first_query = query;
        }
        let (from, to) = match lifetime {
            Some(l) => {
                self.awaiting_done.insert(query, now + l);
                (now + ROLLING_HEAD, (now + l).saturating_sub(ROLLING_TAIL))
            }
            None => (0, SimTime::MAX),
        };
        self.oracle.watches.insert(
            query,
            Watch {
                ordinal,
                rank,
                from,
                to,
            },
        );
    }

    /// Run `ticks` ticks and check what they delivered.  The segment's work
    /// is rows fed, or lifecycles ended under rolling tenancy.
    fn run_ticks(&mut self, ticks: u64) -> Segment {
        let lifetime = match self.params.tenancy {
            Tenancy::Rolling { lifetime_secs, .. } => Some(lifetime_secs * SEC),
            _ => None,
        };
        let mut segment = Segment::default();
        let mut rows_fed = 0;
        for _ in 0..ticks {
            let started = Instant::now();
            let input = self.make_tick();
            segment.generator_ns += started.elapsed().as_nanos() as u64;

            let span = SystemSpan::start();
            for (proxy, sql, rank) in &input.submits {
                self.submit(*proxy, sql, Some(*rank), lifetime);
            }
            for (i, rows) in input.rows.into_iter().enumerate() {
                rows_fed += rows.len() as u64;
                let at = self.cluster.addr(i);
                self.cluster.ingest(at, "packets", rows);
            }
            self.cluster.run_for(TICK);
            span.stop(&mut segment);
        }
        let span = SystemSpan::start();
        let outputs = self.cluster.drain();
        span.stop(&mut segment);
        let ended = self.absorb(outputs);
        segment.work = if lifetime.is_some() { ended } else { rows_fed };
        segment
    }

    /// Take the drained outputs into the oracle; returns lifecycles ended.
    fn absorb(&mut self, outputs: Vec<sut::Output>) -> u64 {
        let mut ended = 0;
        for out in outputs {
            let (time, out) = sut::decode(out);
            match out {
                Out::Window {
                    query,
                    start,
                    end,
                    retract,
                    src,
                    count,
                } => {
                    if !retract {
                        self.report.latency_us.add(time.saturating_sub(end));
                    }
                    self.oracle.receive(query, start, retract, &src, count);
                }
                Out::Done { query } => {
                    if self.awaiting_done.remove(&query).is_some() {
                        ended += 1;
                        self.report.attempted += 1;
                    }
                }
                Out::Admission {
                    accepted,
                    sample_every,
                } => {
                    // Every benchmark query fits the default budget at full
                    // fidelity; a rejected or sampled one is a failure.
                    if !accepted || sample_every != 1 {
                        self.report.failed += 1;
                    }
                }
                Out::Row { .. } | Out::Malformed => self.report.failed += 1,
            }
        }
        let now = self.cluster.now();
        // A lifecycle whose `Done` is overdue has failed.
        let overdue: Vec<u64> = self
            .awaiting_done
            .iter()
            .filter(|(_, &due)| due + 2 * SEC < now)
            .map(|(&q, _)| q)
            .collect();
        for query in overdue {
            self.awaiting_done.remove(&query);
            self.report.attempted += 1;
            self.report.failed += 1;
        }
        self.oracle
            .settle(now.saturating_sub(SETTLE), &mut self.report);
        let (windows, groups) = self.cluster.cq_state_max(self.first_query);
        self.report.open_windows_max = self.report.open_windows_max.max(windows);
        self.report.groups_max = self.report.groups_max.max(groups);
        ended
    }
}

impl<N: Node, K: StreamKind> Workload<N> for Stream<N, K> {
    fn setup(seed: u64, smoke: bool, telemetry: bool) -> Self {
        let params = K::params(smoke);
        let mut cluster = Cluster::boot(&ClusterSpec {
            nodes: params.nodes,
            seed: LAYOUT_SEED,
            net: Net::Lan,
            sharing: params.sharing,
            admission: params.admission,
            telemetry,
            // Standing queries need routes to heal within a window slide.
            liveness_timeout: 3 * SEC,
            // Window partials are stored at their root for this long; the
            // default 600 s would keep the stores (and the resident set)
            // growing for the whole run.
            publish_lifetime: 3 * SETTLE,
        });
        cluster.run_for(Rng64::new(seed ^ 0x0FA5E).next_below(MAX_PHASE));
        let mut stream = Stream {
            cluster,
            gen: PacketGen::new(seed, &params),
            plan_rng: Rng64::new(seed ^ 0x9_1A45),
            oracle: Oracle::new(sut::window_spec(), params.sources),
            params,
            report: Report::default(),
            submitted: 0,
            ticks: 0,
            awaiting_done: HashMap::new(),
            first_query: 0,
            _kind: PhantomData,
        };
        match params.tenancy {
            Tenancy::Single => {
                let proxy = stream.cluster.addr(0);
                stream.submit(proxy, sut::NETMON_SQL, None, None);
            }
            Tenancy::Fixed(tenants) => {
                for t in 0..tenants {
                    let proxy = stream.cluster.addr(t);
                    let sql = sut::tenant_sql(&sut::source_addr(t));
                    stream.submit(proxy, &sql, Some(t as u32), None);
                }
            }
            Tenancy::Rolling { .. } => {}
        }
        // Let dissemination reach everyone before the stream starts.
        stream.cluster.run_for(SEC);
        if let Tenancy::Rolling { lifetime_secs, .. } = params.tenancy {
            // Ramp up to the steady live count.
            stream.run_ticks(lifetime_secs * TICKS_PER_SEC);
        }
        stream
    }

    fn segment(&mut self) -> Segment {
        self.run_ticks(self.params.segment_secs * TICKS_PER_SEC)
    }

    fn finish(&mut self) {
        // No more rows: trailing windows close, travel and emit.
        self.cluster.run_for(self.oracle.spec.size + SETTLE);
        let outputs = self.cluster.drain();
        // `absorb` settles up to `now - SETTLE`, which is past the end of
        // the last window a row was generated for.
        self.absorb(outputs);
    }

    fn cluster(&self) -> &Cluster<N> {
        &self.cluster
    }

    fn report(&mut self) -> &mut Report {
        &mut self.report
    }
}
