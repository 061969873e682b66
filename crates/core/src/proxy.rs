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
//! results.
//!
//! A window root answers each proxy once a tick ([`ProxyBundles`]): every
//! window the tick emitted for it — the new one and those late panes
//! refined — rides one message, the rows in one batch and a run
//! [`Directory`] saying whose they are.  The directory is priced by its
//! encoding ([`directory_len`]).  A layout byte leads: bit 0 says the
//! runs' query ids go frame of reference, bit 1 that their counts do (by
//! the roster's rule, `column::int_frame`), bit 2 that some run is traced.
//! Then, as LEB128 varints (`column::put_varint`), the window count, the
//! run count and each window's start, length and run count; then the ids
//! and the counts (every run's retractions, then every run's insertions).  One proxy's
//! ids share their high half, so an id costs a byte or two and a count
//! about one.  When a run is traced, a presence mark per run (a bit, bytes
//! rounded up) and each traced run's [`TraceContext`] follow; untraced,
//! they cost nothing.  The decoder accepts only the encoder's choice
//! ([`decode_directory`]).  The directory is data from the wire: one that
//! does not describe its batch drops the whole message.
//!
//! Plain state, no `ProgramContext`: [`crate::node::PierNode`] does the
//! wiring (timers, broadcasts, telemetry), tests drive it directly.

use crate::column::{
    int_frame, ints_len, put_ints, put_varint, take_ints, take_varint, varint_len,
};
use crate::node::PierMsg;
use crate::plan::{CqSpec, Dissemination, QueryPlan};
use crate::tuple::{ColumnChunk, Schema, SchemaRegistry, Tuple, TupleBatch};
use crate::value::Value;
use crate::window_engine::Emission;
use pier_cq::RenewalBackoff;
use pier_runtime::{Duration, NodeAddr, Rng64, SimTime};
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

/// One member query's run in a [`Directory`]: `retracts` superseded rows
/// (delta mode only) followed by `inserts` current rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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

/// One window of a [`Directory`]: its bounds, and how many of the
/// directory's runs — the next ones, in order — answer it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowRuns {
    /// Window start (virtual-time microseconds, inclusive).
    pub window_start: SimTime,
    /// Window end (exclusive).  The rows do not repeat the bounds.
    pub window_end: SimTime,
    /// Runs of this window.
    pub runs: u32,
}

/// The run directory of a results message: which window and member each
/// row of its batch answers.  Windows ascending, each followed by its
/// members' runs, members ascending; the runs partition the batch's rows,
/// in order.  On the wire it is [`encode_directory`]'s bytes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Directory {
    /// The windows, each naming how many of `runs` are its.
    pub windows: Vec<WindowRuns>,
    /// Every window's runs, window by window.
    pub runs: Vec<MemberRun>,
}

impl Directory {
    /// Every run with its window, in order.
    pub fn windowed(&self) -> impl Iterator<Item = (&WindowRuns, &MemberRun)> {
        let windows = self.windows.iter();
        let windows = windows.flat_map(|w| std::iter::repeat_n(w, w.runs as usize));
        windows.zip(&self.runs)
    }

    /// The directory's windows ascend, none empty, and their runs are
    /// exactly `runs`.
    fn is_well_formed(&self) -> bool {
        let bounds = |w: &WindowRuns| (w.window_start, w.window_end);
        let ascending = self
            .windows
            .windows(2)
            .all(|p| bounds(&p[0]) < bounds(&p[1]));
        let counted = self.windows.iter().map(|w| w.runs as usize).sum::<usize>();
        ascending && self.windows.iter().all(|w| w.runs > 0) && counted == self.runs.len()
    }
}

/// The payload of one results message as a window root packs it for one
/// proxy: every emission of a tick for that proxy appended to one batch —
/// one chunk while they share the engine's schema — and the directory that
/// says whose rows they are.
#[derive(Debug, Clone, Default)]
pub struct WindowBundle {
    /// Every run's rows, run by run, retractions before inserts.
    pub rows: TupleBatch,
    /// The run directory over `rows`.
    pub directory: Directory,
}

impl WindowBundle {
    /// Append one member's emission.  A tick emits windows ascending and,
    /// within a window, members ascending; pushed in that order, the runs
    /// of one window follow each other under one directory entry.
    pub fn push(&mut self, emission: Emission, trace: Option<TraceContext>) {
        let count = |rows: &[Tuple]| u32::try_from(rows.len()).expect("under 2^32 rows a window");
        let Emission {
            query_id,
            window_start,
            window_end,
            retracts,
            inserts,
            ..
        } = emission;
        let windows = &mut self.directory.windows;
        match windows.last_mut() {
            Some(w) if (w.window_start, w.window_end) == (window_start, window_end) => w.runs += 1,
            _ => windows.push(WindowRuns {
                window_start,
                window_end,
                runs: 1,
            }),
        }
        self.directory.runs.push(MemberRun {
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

/// What one root tick sends: a [`WindowBundle`] per proxy, in the order the
/// proxies were first emitted for.
#[derive(Debug, Default)]
pub struct ProxyBundles(Vec<(NodeAddr, WindowBundle)>);

impl ProxyBundles {
    /// Add `emission` to its proxy's bundle.
    pub fn push(&mut self, emission: Emission, trace: Option<TraceContext>) {
        let at = self.0.iter().position(|(p, _)| *p == emission.proxy);
        let at = at.unwrap_or_else(|| {
            self.0.push((emission.proxy, WindowBundle::default()));
            self.0.len() - 1
        });
        self.0[at].1.push(emission, trace);
    }

    /// One `WindowResults` message per proxy.
    pub fn into_messages(self) -> impl Iterator<Item = (NodeAddr, PierMsg)> {
        let message = |(proxy, bundle)| (proxy, PierMsg::WindowResults(bundle));
        self.0.into_iter().map(message)
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
/// row `offset` of `run`, which answers `window`.
struct RunPiece<'a> {
    window: &'a WindowRuns,
    run: &'a MemberRun,
    offset: usize,
    chunk: &'a ColumnChunk,
    rows: Range<usize>,
}

/// Every run of `directory` over `rows`, in order, cut into pieces that
/// each lie in one chunk.  `None` when the directory does not describe the
/// batch: a malformed chunk, windows out of order, repeated or without a
/// run, counts that do not sum to its rows, or a run that crosses from one
/// schema into another.
fn run_pieces<'a>(rows: &'a TupleBatch, directory: &'a Directory) -> Option<Vec<RunPiece<'a>>> {
    let named: usize = directory.runs.iter().map(MemberRun::rows).sum();
    if named != rows.len() || !rows.is_well_formed() || !directory.is_well_formed() {
        return None;
    }
    let mut pieces = Vec::with_capacity(directory.runs.len());
    let mut chunks = rows.chunks().iter();
    let (mut current, mut at) = (chunks.next(), 0);
    for (window, run) in directory.windowed() {
        let mut offset = 0;
        let mut schema: Option<&Arc<Schema>> = None;
        while offset < run.rows() {
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
            let take = (run.rows() - offset).min(chunk.rows() - at);
            pieces.push(RunPiece {
                window,
                run,
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

/// The layout byte's bit for a directory with a traced run: the presence
/// marks and the contexts follow the run columns.
const TRACED: u8 = 1 << 2;

/// The runs' query ids, as the `i64`s with their bits.
fn run_ids(runs: &[MemberRun]) -> impl ExactSizeIterator<Item = i64> + Clone + '_ {
    runs.iter().map(|r| r.query_id as i64)
}

/// The runs' counts: every run's retractions, then every run's insertions.
fn run_counts(runs: &[MemberRun]) -> impl ExactSizeIterator<Item = i64> + Clone + '_ {
    let n = runs.len();
    (0..2 * n).map(move |i| match runs.get(i) {
        Some(r) => i64::from(r.retracts),
        None => i64::from(runs[i - n].inserts),
    })
}

/// A window's entry: its start, its length and its run count.  The length
/// wraps, so any bounds round-trip.
fn window_words(w: &WindowRuns) -> [u64; 3] {
    let length = w.window_end.wrapping_sub(w.window_start);
    [w.window_start, length, u64::from(w.runs)]
}

/// Exact length of [`encode_directory`]'s output for `d`: what a results
/// message's directory costs on the wire.
pub fn directory_len(d: &Directory) -> usize {
    let counts = [d.windows.len(), d.runs.len()].map(|n| varint_len(n as u64));
    let windows = d.windows.iter().flat_map(window_words).map(varint_len);
    let ids = ints_len(d.runs.len(), int_frame(run_ids(&d.runs)));
    let run_counts = ints_len(2 * d.runs.len(), int_frame(run_counts(&d.runs)));
    let traced = d.runs.iter().filter(|r| r.trace.is_some()).count();
    let marks = if traced > 0 {
        d.runs.len().div_ceil(8) + traced * TraceContext::WIRE_BYTES
    } else {
        0
    };
    1 + counts.iter().sum::<usize>() + windows.sum::<usize>() + ids + run_counts + marks
}

/// Append the directory `d` (the module docs have the layout).
pub fn encode_directory(d: &Directory, buf: &mut Vec<u8>) {
    let (ids, counts) = (int_frame(run_ids(&d.runs)), int_frame(run_counts(&d.runs)));
    let traced = d.runs.iter().any(|r| r.trace.is_some());
    let framed = u8::from(ids.is_some()) | u8::from(counts.is_some()) << 1;
    buf.push(framed | if traced { TRACED } else { 0 });
    put_varint(buf, d.windows.len() as u64);
    put_varint(buf, d.runs.len() as u64);
    for word in d.windows.iter().flat_map(window_words) {
        put_varint(buf, word);
    }
    put_ints(buf, run_ids(&d.runs), ids);
    put_ints(buf, run_counts(&d.runs), counts);
    if traced {
        let at = buf.len();
        buf.resize(at + d.runs.len().div_ceil(8), 0);
        for (i, r) in d.runs.iter().enumerate() {
            buf[at + i / 8] |= u8::from(r.trace.is_some()) << (i % 8);
        }
        for trace in d.runs.iter().filter_map(|r| r.trace) {
            trace.encode(buf);
        }
    }
}

/// Decode a directory from the front of `buf`: it and the bytes consumed.
/// `None` on truncated input and on any layout but the one
/// [`encode_directory`] would have chosen for it: an integer with a byte
/// more than it needs, ids or counts framed or plain against
/// `column::int_frame`, presence marks where no run is traced, or a mark
/// past the last run.
pub fn decode_directory(buf: &[u8]) -> Option<(Directory, usize)> {
    let layout = *buf.first()?;
    if layout & !(TRACED | 0b11) != 0 {
        return None;
    }
    let mut at = 1;
    let windows = take_varint(buf, &mut at)?;
    let runs = usize::try_from(take_varint(buf, &mut at)?).ok()?;
    let windows = (0..windows)
        .map(|_| {
            let [start, length, runs] = [(); 3].map(|()| take_varint(buf, &mut at));
            Some(WindowRuns {
                window_start: start?,
                window_end: start?.wrapping_add(length?),
                runs: u32::try_from(runs?).ok()?,
            })
        })
        .collect::<Option<Vec<_>>>()?;
    let ids = take_ints(buf, &mut at, runs, layout & 1 != 0)?;
    let counts = take_ints(buf, &mut at, runs.checked_mul(2)?, layout & 2 != 0)?;
    let count = |n: i64| u32::try_from(n).ok();
    let (retracts, inserts) = counts.split_at(runs);
    let runs = ids.iter().zip(retracts).zip(inserts);
    let runs = runs.map(|((&id, &retracts), &inserts)| {
        Some(MemberRun {
            query_id: id as u64,
            retracts: count(retracts)?,
            inserts: count(inserts)?,
            trace: None,
        })
    });
    let mut runs = runs.collect::<Option<Vec<_>>>()?;
    if layout & TRACED != 0 {
        let marks = buf.get(at..at + runs.len().div_ceil(8))?;
        at += marks.len();
        // At least one mark, and none past the last run.
        let spare = runs.len() % 8;
        let stray = spare != 0 && marks.last().is_some_and(|&m| m >> spare != 0);
        if stray || marks.iter().all(|&m| m == 0) {
            return None;
        }
        for (i, run) in runs.iter_mut().enumerate() {
            if marks[i / 8] >> (i % 8) & 1 == 1 {
                run.trace = Some(TraceContext::decode(buf.get(at..)?)?);
                at += TraceContext::WIRE_BYTES;
            }
        }
    }
    Some((Directory { windows, runs }, at))
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

    /// A root tick's results arrived — `bundle.rows`, partitioned by its
    /// run directory: the outputs to hand the client, window by window,
    /// member by member, retractions before inserts, every row re-labelled
    /// with its member's client schema and its window's bounds.  A finished
    /// member's rows are dropped — the others' are not — and no entry is
    /// created for it.  `None`: the directory does not describe the batch
    /// (`run_pieces`); nothing is delivered and nothing is counted.
    pub fn receive_window(&mut self, bundle: &WindowBundle) -> Option<Vec<PierOut>> {
        let pieces = run_pieces(&bundle.rows, &bundle.directory)?;
        let mut out = Vec::with_capacity(bundle.rows.len());
        for piece in pieces {
            let (m, window) = (piece.run, piece.window);
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
            let (window_start, window_end) = (window.window_start, window.window_end);
            let bounds = [window_start, window_end].map(|t| Value::Int(t as i64));
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

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A directory drawn from `seed`: up to four windows of any bounds and
    /// run count, up to twenty runs with ids within 2^8, 2^16 or 2^32 of a
    /// base or anywhere, counts of any size, one run in four traced.  Not
    /// necessarily well-formed: the codec carries what it is given, and the
    /// proxy judges it.
    fn directory(seed: u64) -> Directory {
        let mut rng = Rng64::new(seed);
        let windows = (0..rng.next_below(5))
            .map(|_| {
                let window_start = rng.next_u64() >> rng.next_below(64);
                WindowRuns {
                    window_start,
                    window_end: window_start.wrapping_add(rng.next_below(1 << 24)),
                    runs: (rng.next_u64() >> rng.next_below(33)) as u32,
                }
            })
            .collect();
        let base = rng.next_u64();
        let span = *rng.choose(&[1 << 8, 1 << 16, 1 << 32, 0]);
        let count = |rng: &mut Rng64| (rng.next_u64() >> (32 + rng.next_below(32))) as u32;
        let runs = (0..rng.next_below(21))
            .map(|_| MemberRun {
                query_id: match span {
                    0 => rng.next_u64(),
                    span => base.wrapping_add(rng.next_below(span)),
                },
                retracts: count(&mut rng),
                inserts: count(&mut rng),
                trace: rng.chance(0.25).then(|| TraceContext {
                    trace_id: rng.next_u64(),
                    span_id: rng.next_u64(),
                    query_id: rng.next_u64(),
                }),
            })
            .collect();
        Directory { windows, runs }
    }

    proptest! {
        /// A results message's directory is priced at the length of its
        /// encoding, and the encoding decodes to it, whatever it holds.
        #[test]
        fn a_directory_costs_its_encoded_length_and_decodes_to_itself(seed: u64) {
            let d = directory(seed);
            let mut buf = Vec::new();
            encode_directory(&d, &mut buf);
            prop_assert_eq!(directory_len(&d), buf.len());
            prop_assert_eq!(decode_directory(&buf), Some((d, buf.len())));
        }
    }

    #[test]
    fn a_directory_is_cheaper_than_sixteen_bytes_a_run_when_ids_share_their_high_half() {
        // Three windows of one proxy's six members: ids `addr << 32 | seq`,
        // one-digit counts, nothing traced.
        let ids = (0..6).map(|seq| (7 << 32) | (40 + seq));
        let runs: Vec<MemberRun> = ids
            .cycle()
            .take(18)
            .map(|query_id| MemberRun {
                query_id,
                retracts: 0,
                inserts: 3,
                trace: None,
            })
            .collect();
        let windows = (0..3)
            .map(|w| WindowRuns {
                window_start: (100 + w) * 1_000_000,
                window_end: (102 + w) * 1_000_000,
                runs: 6,
            })
            .collect();
        let d = Directory { windows, runs };
        // The layout byte and two one-byte counts; per window a four-byte
        // start, a three-byte length and a one-byte run count; the ids and
        // the counts framed at one byte.
        assert_eq!(directory_len(&d), 3 + 3 * (4 + 3 + 1) + (9 + 18) + (9 + 36));
        assert!(directory_len(&d) < 3 * 16 + 18 * 16);
    }
}
