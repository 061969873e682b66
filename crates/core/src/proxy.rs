//! The proxy half of a node: what it holds for the queries submitted at it.
//!
//! A [`Proxy`] owns one entry per submitted query from `submit` to `done` —
//! an id absent from it is finished (or was never proxied here), and its
//! late results are dropped without resurrecting anything — and, for the
//! *standing* queries among them, the soft-state renewal clock.
//!
//! Renewal is per proxy, not per query (§3.2.4, Table 2: `renew` by name,
//! `put` again only where the renew fails).  One jittered
//! [`RenewalBackoff`] clock ticks while the proxy owns any standing query;
//! each [`Proxy::renew_round`] names every standing `Broadcast` query in one
//! ascending **roster** — holders renew the leases of the ones they have and
//! pull the ones they lack through [`Proxy::plans_for`] — and hands back the
//! standing keyed, ranged and local plans to re-send whole, because a key's
//! owner is exactly what churn moves.  A query the roster stops naming
//! lapses by its lease; there is no teardown message.
//!
//! On the wire a roster costs its id range, not eight bytes an id
//! ([`encode_roster`]).  A four-byte count leads; its high bit says how the
//! ids follow.  Clear: eight bytes an id (plain).  Set: frame of reference,
//! by the column codec's rule for `Int` buffers — `base` (the smallest id)
//! as eight bytes, a width byte `w ∈ {1, 2, 4, 8}` (the fewest bytes that
//! hold the span), then `w` bytes an id of `id − base`.  One proxy's ids
//! differ only in their low bits (`addr << 32 | sequence`), so a roster of
//! 25 costs 38 bytes instead of 204.  The frame goes only when strictly
//! shorter, so plain wins ties and a one-id roster is the plain twelve
//! bytes; the decoder accepts only that choice ([`decode_roster`]).
//!
//! The clock's bounds follow the tightest standing query: base = the
//! smallest `renew_every`, cap = the smallest `lease − renew_every/2`, so
//! every gap between rounds stays inside every lease whatever the backoff.
//! "Progress" is any standing query that delivered rows since the last
//! round, or has not delivered any yet (a stream that has not started is no
//! evidence of failure).
//!
//! A round may **ride a plan**.  Each delay is drawn from `[d/2, d)` for
//! the backoff's ceiling `d`; once half the ceiling has passed since the
//! last round, any instant before the one drawn would have been as good a
//! draw.  A standing `Broadcast` plan submitted inside that window takes
//! the round at once ([`Proxy::open_round`]): the roster and the plan cross
//! the tree as one broadcast, and no roster-only broadcast follows for that
//! round.  The timer armed for the old instant finds the clock moved on
//! and sends nothing.
//!
//! The proxy is also where a result stops being a chunk.  Both result
//! messages carry one [`TupleBatch`]; [`Proxy::receive`] and
//! [`Proxy::receive_window`] turn its rows into the client's per-row
//! [`PierOut`]s — the only place between the operator that produced a row
//! and the client that reads it where a `Tuple` is built.  A window result
//! travels under its engine's schema (`{tag}.win`, no window bounds) and is
//! re-labelled here `q{id}.win(window_start, window_end, …)`
//! ([`window_result_schema`]), so clients cannot tell shared from unshared
//! results.  The run directory of a window message is data from the wire:
//! one that does not describe its batch drops the whole message.
//!
//! Plain state, no `ProgramContext`: [`crate::node::PierNode`] does the
//! wiring (timers, broadcasts, telemetry), tests drive it directly.

use crate::column::{int_frame, ints_len, put_ints, take_ints};
use crate::plan::{CqSpec, Dissemination, QueryPlan};
use crate::tuple::{ColumnChunk, Schema, SchemaRegistry, Tuple, TupleBatch};
use crate::value::Value;
use pier_cq::RenewalBackoff;
use pier_runtime::{Duration, Rng64, SimTime, WireSize};
use pier_trace::TraceContext;
use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::Arc;

/// Values delivered to the client application attached to a node.
#[derive(Debug, Clone)]
pub enum PierOut {
    /// An answer tuple for a query this node proxies.
    Result {
        /// Query the tuple answers.
        query_id: u64,
        /// The answer tuple.
        tuple: Tuple,
    },
    /// The query's timeout expired; no more results will be delivered.
    Done {
        /// The completed query.
        query_id: u64,
    },
    /// One row of a per-window result of a continuous query.
    WindowResult {
        /// Query the row answers.
        query_id: u64,
        /// Window start (inclusive).
        window_start: SimTime,
        /// Window end (exclusive).
        window_end: SimTime,
        /// True when this row retracts a previously delivered row
        /// (delta-mode refinement); false for inserts/snapshots.
        retract: bool,
        /// The result row.
        tuple: Tuple,
    },
    /// The proxy's admission decision for a submitted query (emitted only
    /// when the node is built with an admission layer,
    /// [`crate::node::PierConfig::admission`]).  A rejected query also
    /// receives a terminating [`PierOut::Done`]; a shed query runs with
    /// `sample_every > 1`.
    Admission {
        /// The assessed query.
        query_id: u64,
        /// The tenant billed ([`QueryPlan::tenant`]).
        tenant: u64,
        /// False when the query was rejected and will not run.
        accepted: bool,
        /// Sampling modulus the plan was disseminated with (1 = full
        /// fidelity, >1 = shed-to-sampling degraded mode).
        sample_every: u32,
        /// The machine-readable static cost report (JSON; schema in
        /// `docs/ANALYSIS.md`).
        report: String,
    },
}

/// One member query's run in the `rows` of a
/// [`crate::node::PierMsg::WindowResults`] message: `retracts` superseded
/// rows (delta mode only) followed by `inserts` current rows.  The runs of a
/// message's directory partition its rows, in order.
#[derive(Debug, Clone, Copy)]
pub struct MemberRun {
    /// Query the rows answer.
    pub query_id: u64,
    /// Rows retracted by this emission.
    pub retracts: u32,
    /// Rows inserted by this emission.
    pub inserts: u32,
    /// Trace context when the member is sampled: the proxy's `result.emit`
    /// span parents to the root's `window.emit` span.
    pub trace: Option<TraceContext>,
}

impl MemberRun {
    fn rows(&self) -> usize {
        self.retracts as usize + self.inserts as usize
    }
}

impl WireSize for MemberRun {
    fn wire_size(&self) -> usize {
        8 + 4 + 4 + self.trace.map_or(0, |t| t.wire_size())
    }
}

/// The payload of one (proxy, window) results message as a window root
/// packs it: every member's rows appended to one batch — one chunk while
/// they share the engine's schema — and the directory that says whose they
/// are.
#[derive(Debug, Default)]
pub struct WindowBundle {
    /// Every member's rows, member by member, retractions before inserts.
    pub rows: TupleBatch,
    /// The run directory over `rows`.
    pub members: Vec<MemberRun>,
}

impl WindowBundle {
    /// Append one member's emission.
    pub fn push(
        &mut self,
        query_id: u64,
        retracts: Vec<Tuple>,
        inserts: Vec<Tuple>,
        trace: Option<TraceContext>,
    ) {
        let count = |rows: &[Tuple]| u32::try_from(rows.len()).expect("under 2^32 rows a window");
        self.members.push(MemberRun {
            query_id,
            retracts: count(&retracts),
            inserts: count(&inserts),
            trace,
        });
        for row in retracts.into_iter().chain(inserts) {
            self.rows.push_tuple(row);
        }
    }
}

/// The schema a client sees member `query_id`'s window results under, given
/// the schema they travelled under: `q{id}.win(window_start, window_end,
/// …wire columns)`, whatever engine produced them.
pub fn window_result_schema(query_id: u64, wire: &Schema) -> Arc<Schema> {
    let mut columns = vec!["window_start".to_string(), "window_end".to_string()];
    columns.extend(wire.columns().iter().cloned());
    SchemaRegistry::global().intern_owned(format!("q{query_id}.win"), columns)
}

/// One piece of a member's run: rows `rows` of `chunk`, the first of them
/// row `offset` of the run of member `member` of the directory.
struct RunPiece<'a> {
    member: usize,
    offset: usize,
    chunk: &'a ColumnChunk,
    rows: Range<usize>,
}

/// Every member's run over `rows`, in order, cut into pieces that each lie
/// in one chunk.  `None` when the directory does not describe the batch: a
/// malformed chunk, counts that do not sum to its rows, or a run that
/// crosses from one schema into another.
fn run_pieces<'a>(rows: &'a TupleBatch, members: &[MemberRun]) -> Option<Vec<RunPiece<'a>>> {
    let named: usize = members.iter().map(MemberRun::rows).sum();
    if named != rows.len() || !rows.is_well_formed() {
        return None;
    }
    let mut pieces = Vec::with_capacity(members.len());
    let mut chunks = rows.chunks().iter();
    let (mut current, mut at) = (chunks.next(), 0);
    for (member, m) in members.iter().enumerate() {
        let mut offset = 0;
        let mut schema: Option<&Arc<Schema>> = None;
        while offset < m.rows() {
            // The counts sum to the rows, so there is a chunk.
            let chunk = current?;
            if at == chunk.rows() {
                (current, at) = (chunks.next(), 0);
                continue;
            }
            if schema.is_some_and(|s| !Arc::ptr_eq(s, chunk.schema())) {
                return None;
            }
            schema = Some(chunk.schema());
            let take = (m.rows() - offset).min(chunk.rows() - at);
            pieces.push(RunPiece {
                member,
                offset,
                chunk,
                rows: at..at + take,
            });
            at += take;
            offset += take;
        }
    }
    Some(pieces)
}

/// The high bit of a roster's count: set when the ids follow frame of
/// reference.
const FRAMED: u32 = 1 << 31;

/// The layout `ids` go in: the column codec's frame of reference when
/// that is shorter, plain otherwise.  Ids travel as the `i64`s with their
/// bits (`as` both ways), so any ids round-trip; ids on both sides of 2^63
/// would merely go plain, and one proxy's ids (`addr << 32 | sequence`)
/// share their high half, so they lie on one side.
fn roster_frame(ids: &[u64]) -> Option<(i64, usize)> {
    int_frame(ids.iter().map(|&id| id as i64))
}

/// Exact length of [`encode_roster`]'s output for `ids`: what a roster
/// costs on the wire.
pub fn roster_len(ids: &[u64]) -> usize {
    4 + ints_len(ids.len(), roster_frame(ids))
}

/// Append the roster `ids` (the module docs have the layout).
pub fn encode_roster(ids: &[u64], buf: &mut Vec<u8>) {
    let frame = roster_frame(ids);
    let count = u32::try_from(ids.len())
        .ok()
        .filter(|n| n & FRAMED == 0)
        .expect("a roster names fewer than 2^31 queries");
    let layout = if frame.is_some() { FRAMED } else { 0 };
    buf.extend_from_slice(&(count | layout).to_le_bytes());
    put_ints(buf, ids.iter().map(|&id| id as i64), frame);
}

/// Decode a roster from the front of `buf`: its ids and the bytes
/// consumed.  `None` on truncated input and on any layout but the one
/// [`encode_roster`] would have chosen for these ids.
pub fn decode_roster(buf: &[u8]) -> Option<(Vec<u64>, usize)> {
    let count = u32::from_le_bytes(buf.get(..4)?.try_into().ok()?);
    let mut at = 4;
    let ids = take_ints(
        buf,
        &mut at,
        (count & !FRAMED) as usize,
        count & FRAMED != 0,
    )?;
    Some((ids.into_iter().map(|id| id as u64).collect(), at))
}

/// What one renewal round sends.
#[derive(Debug, Default)]
pub struct RenewalRound {
    /// The standing `Broadcast` queries this proxy owns, ascending: the
    /// roster to broadcast (nothing to broadcast when empty).
    pub roster: Vec<u64>,
    /// The standing keyed, ranged and local plans, to disseminate whole
    /// with their remaining lifetime.
    pub resend: Vec<QueryPlan>,
    /// When to run the next round.  `None`: the firing timer was stale
    /// (the clock was disarmed or re-armed earlier since it was set) —
    /// send nothing and arm nothing.
    pub next_delay: Option<Duration>,
    /// Backoff escalations behind `next_delay` (0 at the base interval).
    pub attempt: u32,
}

#[derive(Debug)]
struct Standing {
    /// The plan as disseminated, kept for pulls and whole re-sends.
    plan: QueryPlan,
    submitted_at: SimTime,
    /// `results` at the previous renewal round.
    round_results: u64,
}

#[derive(Debug)]
struct Proxied {
    results: u64,
    standing: Option<Standing>,
    /// The wire schema this query's window results last arrived under and
    /// the client schema they are re-labelled with: interned once per
    /// query, dropped with the entry so the registry can forget it.
    window_schema: Option<(Arc<Schema>, Arc<Schema>)>,
}

#[derive(Debug)]
struct RenewalClock {
    backoff: RenewalBackoff,
    /// The instant the next round is due; a timer firing earlier is stale.
    due: SimTime,
    /// From here until `due` the round may ride a plan: the last round
    /// plus half the ceiling its delay was drawn under (`due` itself
    /// before the first round).
    opens: SimTime,
}

/// The longest a round may be put off without endangering `cq`'s lease: a
/// healthy-but-quiet query must still renew in time.
fn renewal_cap(cq: &CqSpec) -> Duration {
    cq.lease
        .saturating_sub(cq.renew_every / 2)
        .max(cq.renew_every)
}

/// Proxy-side state of the queries submitted at one node.
#[derive(Debug, Default)]
pub struct Proxy {
    proxied: BTreeMap<u64, Proxied>,
    /// Standing queries among `proxied`; the clock is armed while nonzero.
    standing: usize,
    clock: Option<RenewalClock>,
}

impl Proxy {
    /// Queries submitted here and not yet done.
    pub fn len(&self) -> usize {
        self.proxied.len()
    }

    /// True when no query is proxied here.
    pub fn is_empty(&self) -> bool {
        self.proxied.is_empty()
    }

    /// True while `query_id` is proxied here (submitted, not yet done).
    pub fn contains(&self, query_id: u64) -> bool {
        self.proxied.contains_key(&query_id)
    }

    /// The instant the next renewal round is due; `None` while the clock is
    /// disarmed (no standing query).
    pub fn next_round_at(&self) -> Option<SimTime> {
        self.clock.as_ref().map(|c| c.due)
    }

    /// Start proxying `plan`.  Returns the delay after which the caller
    /// must fire [`Proxy::renew_round`] when this submission arms the
    /// renewal clock, or needs a round sooner than the one pending.
    pub fn submit(&mut self, plan: &QueryPlan, now: SimTime) -> Option<Duration> {
        // An id submitted again starts over.
        self.done(plan.query_id);
        let standing = plan.cq.is_some().then(|| Standing {
            plan: plan.clone(),
            submitted_at: now,
            round_results: 0,
        });
        let entry = Proxied {
            results: 0,
            standing,
            window_schema: None,
        };
        self.proxied.insert(plan.query_id, entry);
        let cq = plan.cq.as_ref()?;
        self.standing += 1;
        let due = now.saturating_add(cq.renew_every);
        match &mut self.clock {
            Some(clock) if clock.due <= due => return None,
            Some(clock) => clock.due = due,
            None => {
                let backoff = RenewalBackoff::new(cq.renew_every, renewal_cap(cq));
                self.clock = Some(RenewalClock {
                    backoff,
                    due,
                    opens: due,
                });
            }
        }
        Some(cq.renew_every)
    }

    /// The query finished: forget it.  False when it was not proxied here.
    /// The last standing query out disarms the renewal clock.
    pub fn done(&mut self, query_id: u64) -> bool {
        let Some(entry) = self.proxied.remove(&query_id) else {
            return false;
        };
        if entry.standing.is_some() {
            self.standing -= 1;
            if self.standing == 0 {
                self.clock = None;
            }
        }
        true
    }

    /// A renewal timer fired at `now`: what to send, and when to fire next.
    pub fn renew_round(&mut self, now: SimTime, rng: &mut Rng64) -> RenewalRound {
        if self.clock.as_ref().is_some_and(|c| now >= c.due) {
            self.take_round(now, rng)
        } else {
            RenewalRound::default()
        }
    }

    /// A standing `Broadcast` plan is being submitted at `now`: when the
    /// pending round is open (`now` in `[opens, due)`), take it now, for
    /// its roster to ride the plan's broadcast.  `None`: the plan travels
    /// alone and the round waits for its timer.
    pub fn open_round(&mut self, now: SimTime, rng: &mut Rng64) -> Option<RenewalRound> {
        let open = self
            .clock
            .as_ref()
            .is_some_and(|c| (c.opens..c.due).contains(&now));
        open.then(|| self.take_round(now, rng))
    }

    /// Run a round at `now` on the armed clock.
    fn take_round(&mut self, now: SimTime, rng: &mut Rng64) -> RenewalRound {
        let mut round = RenewalRound::default();
        let clock = self.clock.as_mut().expect("a round runs on an armed clock");
        let (mut base, mut cap) = (Duration::MAX, Duration::MAX);
        let mut progress = false;
        for (&query_id, entry) in &mut self.proxied {
            let Some(s) = entry.standing.as_mut() else {
                continue;
            };
            let cq = s.plan.cq.as_ref().expect("a standing plan has a lifecycle");
            base = base.min(cq.renew_every);
            cap = cap.min(renewal_cap(cq));
            progress |= entry.results > s.round_results || entry.results == 0;
            s.round_results = entry.results;
            if s.plan.dissemination == Dissemination::Broadcast {
                round.roster.push(query_id);
            } else {
                round.resend.push(remaining(s, now));
            }
        }
        // Rounds that are not producing results (the stream stalled —
        // partitioned away, or the holders are down) spread out
        // exponentially instead of hammering a dead path in lockstep with
        // every other proxy; the first round that sees progress snaps back
        // to the base interval.
        clock.backoff.retune(base, cap);
        if progress {
            clock.backoff.reset();
        } else {
            clock.backoff.escalate();
        }
        let delay = clock.backoff.next_delay(rng);
        clock.due = now.saturating_add(delay);
        clock.opens = now.saturating_add(clock.backoff.ceiling() / 2);
        round.next_delay = Some(delay);
        round.attempt = clock.backoff.attempt();
        round
    }

    /// The plans of those of `ids` this proxy still owns as standing
    /// queries, each stamped with its remaining lifetime so a late
    /// installer ends with the proxy.  A finished query is not answered:
    /// nothing here resurrects it.
    pub fn plans_for(&self, ids: &[u64], now: SimTime) -> Vec<QueryPlan> {
        ids.iter()
            .filter_map(|id| self.proxied.get(id)?.standing.as_ref())
            .map(|s| remaining(s, now))
            .collect()
    }

    /// Answer rows of `query_id` arrived: the outputs to hand the client,
    /// one per row (none for a finished query).  `None`: a chunk of the
    /// batch is malformed and the message is dropped whole.
    pub fn receive(&mut self, query_id: u64, rows: &TupleBatch) -> Option<Vec<PierOut>> {
        if !rows.is_well_formed() {
            return None;
        }
        let Some(entry) = self.proxied.get_mut(&query_id) else {
            return Some(Vec::new());
        };
        entry.results += rows.len() as u64;
        let out = |tuple| PierOut::Result { query_id, tuple };
        Some(rows.iter().map(out).collect())
    }

    /// One window's results arrived — `rows`, partitioned by the run
    /// directory `members`: the outputs to hand the client, member by
    /// member, retractions before inserts, every row re-labelled with its
    /// member's client schema and the window's bounds.  A finished member's
    /// rows are dropped — the others' are not — and no entry is created for
    /// it.  `None`: the directory does not describe the batch (a malformed
    /// chunk, counts that do not sum to its rows, a run crossing from one
    /// schema into another); nothing is delivered and nothing is counted.
    pub fn receive_window(
        &mut self,
        window_start: SimTime,
        window_end: SimTime,
        rows: &TupleBatch,
        members: &[MemberRun],
    ) -> Option<Vec<PierOut>> {
        let pieces = run_pieces(rows, members)?;
        let bounds = [window_start, window_end].map(|t| Value::Int(t as i64));
        let mut out = Vec::with_capacity(rows.len());
        for piece in pieces {
            let m = &members[piece.member];
            let Some(entry) = self.proxied.get_mut(&m.query_id) else {
                continue;
            };
            let wire = piece.chunk.schema();
            let cached = entry.window_schema.as_ref();
            let schema = match cached.filter(|(of, _)| Arc::ptr_eq(of, wire)) {
                Some((_, client)) => Arc::clone(client),
                None => {
                    let client = window_result_schema(m.query_id, wire);
                    entry.window_schema = Some((Arc::clone(wire), Arc::clone(&client)));
                    client
                }
            };
            // The run's retractions lead it; this piece may start past them.
            let retracts = (m.retracts as usize).saturating_sub(piece.offset);
            let retracts = retracts.min(piece.rows.len());
            entry.results += (piece.rows.len() - retracts) as u64;
            for (i, r) in piece.rows.enumerate() {
                let row = (0..wire.arity()).map(|c| piece.chunk.col(c).value(r));
                let values: Arc<[Value]> = bounds.iter().cloned().chain(row).collect();
                out.push(PierOut::WindowResult {
                    query_id: m.query_id,
                    window_start,
                    window_end,
                    retract: i < retracts,
                    tuple: Tuple::from_schema(Arc::clone(&schema), values),
                });
            }
        }
        Some(out)
    }
}

/// `s`'s plan with the lifetime it has left at `now` (never 0): whoever
/// installs it now ends with the proxy, not a full `timeout` later.
fn remaining(s: &Standing, now: SimTime) -> QueryPlan {
    let mut plan = s.plan.clone();
    let elapsed = now.saturating_sub(s.submitted_at);
    plan.timeout = plan.timeout.saturating_sub(elapsed).max(1);
    plan
}
