//! Differential and boundedness tests for the group-directory
//! [`WindowStore`].
//!
//! The layout the store replaced — one `HashMap<String, A>` per open window,
//! every group's key and whole accumulator stored per (window, group), sorted
//! at every close — lives on here as [`RefStore`], the oracle.  Seeded
//! schedules of every store operation drive both under a roomy and under a
//! tight (shedding, evicting) budget; after each operation the two must agree
//! on what they drained (groups *in order*), their [`WindowStats`], their
//! segment bytes and their footprint, and the directory must hold exactly
//! the distinct keys of the open windows — nothing once everything has
//! closed — out of ids it reuses, and renumbers once a burst of keys has
//! left most of them free.  Directed tests pin what a row costs and what a
//! burst leaves behind: nothing.

use pier::cq::{
    CqBudget, RehydrateReport, SegmentCodec, SegmentLog, SegmentRecord, WindowAccumulator,
    WindowId, WindowSegment, WindowSpec, WindowStats, WindowStore,
};
use proptest::prelude::*;
use proptest::TestRng;
use std::cell::Cell;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

type Drained<A> = Vec<(WindowId, Vec<(String, A)>)>;

// ----- the per-window-HashMap oracle ------------------------------------------

#[derive(Debug)]
struct RefWindow<A> {
    groups: HashMap<String, A>,
    seen: HashSet<String>,
    tuples: u64,
    dirty: bool,
}

impl<A> Default for RefWindow<A> {
    fn default() -> Self {
        RefWindow {
            groups: HashMap::new(),
            seen: HashSet::new(),
            tuples: 0,
            dirty: false,
        }
    }
}

/// The window store as it was before the group directory.
#[derive(Debug)]
struct RefStore<A> {
    spec: WindowSpec,
    budget: CqBudget,
    windows: BTreeMap<WindowId, RefWindow<A>>,
    closed_through: Option<WindowId>,
    retired_through: Option<WindowId>,
    stats: WindowStats,
}

fn sorted<A>(groups: impl Iterator<Item = (String, A)>) -> Vec<(String, A)> {
    let mut groups: Vec<(String, A)> = groups.collect();
    groups.sort_unstable_by(|a, b| a.0.cmp(&b.0));
    groups
}

impl<A: WindowAccumulator + SegmentCodec + Clone> RefStore<A> {
    fn new(spec: WindowSpec, budget: CqBudget) -> Self {
        RefStore {
            spec,
            budget,
            windows: BTreeMap::new(),
            closed_through: None,
            retired_through: None,
            stats: WindowStats::default(),
        }
    }

    fn total_groups(&self) -> usize {
        self.windows.values().map(|w| w.groups.len()).sum()
    }

    /// The distinct group keys across the open windows: what the new
    /// store's directory must hold, no more and no less.
    fn distinct_keys(&self) -> BTreeSet<&str> {
        let keys = self.windows.values().flat_map(|w| w.groups.keys());
        keys.map(String::as_str).collect()
    }

    fn push(
        &mut self,
        event_time: u64,
        group_key: &str,
        dedup_key: Option<&str>,
        init: impl Fn() -> A,
        mut fold: impl FnMut(&mut A),
    ) {
        for id in self.spec.windows_containing(event_time) {
            if self.closed_through.is_some_and(|c| id <= c) {
                self.stats.late_tuples += 1;
                continue;
            }
            self.ensure_window(id);
            let Some(win) = self.windows.get_mut(&id) else {
                continue;
            };
            if let Some(dk) = dedup_key {
                if win.seen.contains(dk) {
                    self.stats.duplicates += 1;
                    continue;
                }
                win.seen.insert(dk.to_string());
            }
            if win.tuples >= self.budget.max_tuples_per_window {
                self.stats.shed_tuples += 1;
                continue;
            }
            let at_capacity = win.groups.len() >= self.budget.max_groups_per_window as usize;
            match win.groups.get_mut(group_key) {
                Some(acc) => fold(acc),
                None if at_capacity => {
                    self.stats.shed_groups += 1;
                    continue;
                }
                None => {
                    let mut acc = init();
                    fold(&mut acc);
                    win.groups.insert(group_key.to_string(), acc);
                }
            }
            win.tuples += 1;
            win.dirty = true;
            self.stats.accepted += 1;
        }
    }

    fn accept_refinement(&mut self, id: WindowId, group_key: &str, partial: A) -> bool {
        if self.retired_through.is_some_and(|r| id <= r) {
            self.stats.late_tuples += 1;
            return false;
        }
        let reopened = self.closed_through.is_some_and(|c| id <= c);
        self.ensure_window(id);
        let Some(win) = self.windows.get_mut(&id) else {
            return false;
        };
        let at_capacity =
            !reopened && win.groups.len() >= self.budget.max_groups_per_window as usize;
        match win.groups.get_mut(group_key) {
            Some(acc) => acc.merge(&partial),
            None if at_capacity => {
                self.stats.shed_groups += 1;
                return false;
            }
            None => {
                win.groups.insert(group_key.to_string(), partial);
            }
        }
        win.dirty = true;
        true
    }

    fn close_due(&mut self, now: u64) -> Drained<A> {
        let Some(last) = self.spec.last_closable(now) else {
            return Vec::new();
        };
        let mut out = Vec::new();
        let due: Vec<WindowId> = self.windows.range(..=last).map(|(id, _)| *id).collect();
        for id in due {
            if let Some(win) = self.windows.remove(&id) {
                if !win.groups.is_empty() {
                    out.push((id, sorted(win.groups.into_iter())));
                }
                self.stats.closed_windows += 1;
            }
        }
        self.closed_through = Some(self.closed_through.map_or(last, |c| c.max(last)));
        out
    }

    fn emit_due(&mut self, now: u64) -> Drained<A> {
        let Some(last) = self.spec.last_closable(now) else {
            return Vec::new();
        };
        let mut out = Vec::new();
        for (&id, win) in self.windows.range_mut(..=last) {
            if win.dirty && !win.groups.is_empty() {
                win.dirty = false;
                let groups = win.groups.iter().map(|(k, a)| (k.clone(), a.clone()));
                out.push((id, sorted(groups)));
            }
        }
        out
    }

    fn retire_before(&mut self, horizon: WindowId) {
        if horizon == 0 {
            return;
        }
        self.windows = self.windows.split_off(&horizon);
        let through = horizon - 1;
        self.closed_through = Some(self.closed_through.map_or(through, |c| c.max(through)));
        self.retired_through = Some(self.retired_through.map_or(through, |c| c.max(through)));
    }

    fn write_segments(&self, log: &mut SegmentLog) {
        for (&id, win) in &self.windows {
            let groups = sorted(win.groups.iter().map(|(k, a)| {
                let mut state = Vec::new();
                a.encode_state(&mut state);
                (k.clone(), state)
            }));
            let mut seen: Vec<String> = win.seen.iter().cloned().collect();
            seen.sort();
            log.append(&SegmentRecord::Window(WindowSegment {
                id,
                tuples: win.tuples,
                dirty: win.dirty,
                groups,
                seen,
            }));
        }
        log.append(&SegmentRecord::Watermark {
            closed_through: self.closed_through,
            retired_through: self.retired_through,
        });
    }

    fn rehydrate_from(&mut self, log: &SegmentLog) -> RehydrateReport {
        let scan = log.scan();
        let mut report = RehydrateReport {
            records: scan.records.len(),
            torn_tail: scan.torn_tail,
            ..RehydrateReport::default()
        };
        let mut restored: BTreeMap<WindowId, WindowSegment> = BTreeMap::new();
        for rec in scan.records {
            match rec {
                SegmentRecord::Window(seg) => {
                    restored.insert(seg.id, seg);
                }
                SegmentRecord::Watermark {
                    closed_through,
                    retired_through,
                } => {
                    self.closed_through = self.closed_through.max(closed_through);
                    self.retired_through = self.retired_through.max(retired_through);
                }
            }
        }
        for (id, seg) in restored {
            if self.closed_through.max(self.retired_through) >= Some(id) {
                report.skipped += 1;
                continue;
            }
            let mut win = RefWindow {
                tuples: seg.tuples,
                dirty: seg.dirty,
                ..RefWindow::default()
            };
            for (key, state) in seg.groups {
                match A::decode_state(&state) {
                    Some(acc) => {
                        win.groups.insert(key, acc);
                    }
                    None => report.skipped += 1,
                }
            }
            win.seen.extend(seg.seen);
            report.windows += 1;
            report.groups += win.groups.len();
            report.tuples += win.tuples;
            self.windows.insert(id, win);
        }
        report
    }

    fn ensure_window(&mut self, id: WindowId) {
        if self.windows.contains_key(&id) {
            return;
        }
        while self.windows.len() >= self.budget.max_open_windows as usize {
            let oldest = *self.windows.keys().next().expect("non-empty");
            if oldest > id {
                return;
            }
            self.windows.remove(&oldest);
            self.stats.evicted_windows += 1;
        }
        self.windows.insert(id, RefWindow::default());
    }
}

// ----- accumulators -------------------------------------------------------------

/// An accumulator that is all per-window state (the default hooks).
#[derive(Debug, Clone, PartialEq)]
struct Plain(i64);

impl WindowAccumulator for Plain {
    fn merge(&mut self, other: &Self) {
        self.0 += other.0;
    }
}

impl SegmentCodec for Plain {
    fn encode_state(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.0.to_le_bytes());
    }

    fn decode_state(bytes: &[u8]) -> Option<Self> {
        Some(Plain(i64::from_le_bytes(bytes.try_into().ok()?)))
    }
}

/// An accumulator with an identity part, as `pier-core`'s `GroupAgg` has its
/// group values: `tag` is a function of the group key, moved into the
/// directory by the store and put back on every owned way out.
#[derive(Debug, Clone, PartialEq)]
struct Tagged {
    tag: Vec<u8>,
    sum: i64,
}

impl WindowAccumulator for Tagged {
    fn merge(&mut self, other: &Self) {
        self.sum += other.sum;
    }

    fn take_identity(&mut self) -> Option<Self> {
        Some(Tagged {
            tag: std::mem::take(&mut self.tag),
            sum: 0,
        })
    }

    fn set_identity(&mut self, identity: &Self) {
        self.tag.clone_from(&identity.tag);
    }
}

impl SegmentCodec for Tagged {
    fn encode_state(&self, buf: &mut Vec<u8>) {
        self.encode_split(self, buf);
    }

    fn encode_split(&self, identity: &Self, buf: &mut Vec<u8>) {
        buf.push(identity.tag.len() as u8);
        buf.extend_from_slice(&identity.tag);
        buf.extend_from_slice(&self.sum.to_le_bytes());
    }

    fn decode_state(bytes: &[u8]) -> Option<Self> {
        let (&len, rest) = bytes.split_first()?;
        let (tag, sum) = rest.split_at_checked(len as usize)?;
        Some(Tagged {
            tag: tag.to_vec(),
            sum: i64::from_le_bytes(sum.try_into().ok()?),
        })
    }
}

/// How a schedule builds the accumulator of group `key` holding `v`.
trait Build: WindowAccumulator + SegmentCodec + Clone + PartialEq + std::fmt::Debug {
    fn build(key: &str, v: i64) -> Self;
    fn add(&mut self, v: i64);
}

impl Build for Plain {
    fn build(_: &str, v: i64) -> Self {
        Plain(v)
    }

    fn add(&mut self, v: i64) {
        self.0 += v;
    }
}

impl Build for Tagged {
    fn build(key: &str, v: i64) -> Self {
        Tagged {
            tag: key.bytes().rev().collect(),
            sum: v,
        }
    }

    fn add(&mut self, v: i64) {
        self.sum += v;
    }
}

// ----- schedules ----------------------------------------------------------------

const ROOMY: CqBudget = CqBudget {
    max_open_windows: 64,
    max_groups_per_window: 4_096,
    max_tuples_per_window: 1_000_000,
};

/// Sheds groups and tuples and evicts windows within a few operations.
const TIGHT: CqBudget = CqBudget {
    max_open_windows: 3,
    max_groups_per_window: 2,
    max_tuples_per_window: 2,
};

/// The two stores under test, kept in lock step.
struct Pair<A> {
    spec: WindowSpec,
    budget: CqBudget,
    new: WindowStore<A>,
    old: RefStore<A>,
    /// The most distinct keys the open windows held after any operation.
    peak_keys: usize,
    /// Directory ids at the previous check, and the checks that found the
    /// directory renumbered around surviving groups.
    ids: usize,
    renumbered: u64,
    /// Activity before the last warm restart (a restart zeroes the stats).
    earlier: WindowStats,
}

impl<A: Build> Pair<A> {
    fn new(spec: WindowSpec, budget: CqBudget) -> Self {
        Pair {
            spec,
            budget,
            new: WindowStore::new(spec, budget),
            old: RefStore::new(spec, budget),
            peak_keys: 0,
            ids: 0,
            renumbered: 0,
            earlier: WindowStats::default(),
        }
    }

    /// Everything observable must agree, and the directory must be exactly
    /// the open windows' keys.
    fn check(&mut self, what: &str) {
        assert_eq!(self.new.stats(), self.old.stats, "{what}: stats");
        assert_eq!(
            self.new.total_groups(),
            self.old.total_groups(),
            "{what}: groups"
        );
        assert_eq!(
            self.new.open_windows(),
            self.old.windows.len(),
            "{what}: windows"
        );
        let keys = self.old.distinct_keys().len();
        self.peak_keys = self.peak_keys.max(keys);
        let dir = self.new.directory_stats();
        assert_eq!(dir.live, keys, "{what}: directory entries");
        // A push enters at most one group before evicting any, so ids only
        // ever outnumber the peak by that one: freed ids are reused.
        assert!(
            dir.ids <= self.peak_keys + 1,
            "{what}: {} ids for a peak of {} keys",
            dir.ids,
            self.peak_keys
        );
        // Ids only ever go away by renumbering, which leaves none free.
        if dir.ids < self.ids {
            assert_eq!(dir.ids, dir.live, "{what}: renumbered");
            self.renumbered += u64::from(dir.live > 0);
        }
        self.ids = dir.ids;
    }

    fn segment_bytes(&self) -> (Vec<u8>, Vec<u8>) {
        let (mut new, mut old) = (SegmentLog::new(), SegmentLog::new());
        self.new.write_segments(&mut new);
        self.old.write_segments(&mut old);
        (new.as_bytes().to_vec(), old.as_bytes().to_vec())
    }

    /// One random operation, applied to both stores.
    fn step(&mut self, rng: &mut TestRng, horizon: u64) {
        let key = format!("k{}", rng.below(9));
        let v = rng.below(100) as i64 - 20;
        // Event times and window ids range over closed, retired, open and
        let t = rng.below(horizon);
        // future windows alike — half the window ids just behind the close
        // horizon, where refinements re-open drained windows.
        let wid = match self.old.closed_through {
            Some(closed) if rng.below(2) == 0 => closed.saturating_sub(rng.below(2)),
            _ => rng.below(horizon / self.spec.slide + 2),
        };
        match rng.below(17) {
            16 => {
                // A burst of keys nothing names again: once the windows
                // that took them in are gone most ids are free, and the
                // store renumbers the groups that stay.
                for n in 0..70 {
                    let key = format!("burst{n}");
                    let init = || A::build(&key, 0);
                    self.new.push(t, &key, None, init, |a| a.add(v));
                    self.old.push(t, &key, None, init, |a| a.add(v));
                }
                self.check("burst");
            }
            0..=6 => {
                let dedup = (rng.below(2) == 0).then(|| format!("d{}", rng.below(3)));
                let init = || A::build(&key, 0);
                self.new.push(t, &key, dedup.as_deref(), init, |a| a.add(v));
                self.old.push(t, &key, dedup.as_deref(), init, |a| a.add(v));
                self.check("push");
            }
            7..=10 => {
                let (a, b) = (
                    self.new.accept_refinement(wid, &key, A::build(&key, v)),
                    self.old.accept_refinement(wid, &key, A::build(&key, v)),
                );
                assert_eq!(a, b, "accept_refinement accepted");
                self.check("accept_refinement");
            }
            11 => {
                assert_eq!(self.new.close_due(t), self.old.close_due(t), "close_due");
                self.check("close_due");
            }
            12 => {
                let mut lent = Vec::new();
                self.new.emit_due_with(t, |wid, groups| {
                    let whole = groups.iter().map(|g| {
                        let mut acc = g.acc.clone();
                        acc.set_identity(g.identity);
                        (g.key.to_string(), acc)
                    });
                    lent.push((wid, whole.collect::<Vec<_>>()));
                });
                assert_eq!(lent, self.old.emit_due(t), "emit_due");
                self.check("emit_due");
            }
            13 => {
                self.new.retire_before(wid);
                self.old.retire_before(wid);
                self.check("retire_before");
            }
            _ => {
                // Persist, compare the bytes, and carry on in two stores
                // rehydrated from them (a warm restart).
                let (new, old) = self.segment_bytes();
                assert_eq!(new, old, "segment bytes");
                let log = SegmentLog::from_bytes(new);
                let mut warm = Pair::<A>::new(self.spec, self.budget);
                let reports = (warm.new.rehydrate_from(&log), warm.old.rehydrate_from(&log));
                assert_eq!(reports.0, reports.1, "rehydrate reports");
                warm.peak_keys = self.peak_keys;
                warm.ids = warm.new.directory_stats().ids;
                warm.renumbered = self.renumbered;
                warm.earlier = plus(self.earlier, self.old.stats);
                *self = warm;
                self.check("rehydrate");
                let (new, old) = self.segment_bytes();
                assert_eq!(new, old, "segment bytes after rehydrate");
            }
        }
    }

    /// Run a whole schedule, then close everything: nothing may remain.
    /// Returns the activity the schedule caused and its renumberings.
    fn run(mut self, rng: &mut TestRng, steps: u64) -> (WindowStats, u64) {
        let horizon = 8 * self.spec.slide + self.spec.size;
        for _ in 0..steps {
            self.step(rng, horizon);
        }
        let end = 10 * horizon;
        assert_eq!(
            self.new.close_due(end),
            self.old.close_due(end),
            "final close"
        );
        self.check("final close");
        assert_eq!(self.new.directory_stats().live, 0, "directory drained");
        assert_eq!(self.new.total_groups(), 0);
        (plus(self.earlier, self.old.stats), self.renumbered)
    }
}

fn plus(a: WindowStats, b: WindowStats) -> WindowStats {
    WindowStats {
        accepted: a.accepted + b.accepted,
        shed_tuples: a.shed_tuples + b.shed_tuples,
        shed_groups: a.shed_groups + b.shed_groups,
        duplicates: a.duplicates + b.duplicates,
        evicted_windows: a.evicted_windows + b.evicted_windows,
        closed_windows: a.closed_windows + b.closed_windows,
        late_tuples: a.late_tuples + b.late_tuples,
    }
}

fn specs() -> [WindowSpec; 3] {
    [
        WindowSpec::tumbling(10),
        WindowSpec::sliding(30, 10),
        WindowSpec::sliding(25, 10),
    ]
}

/// Every spec under both budgets with both accumulators, from one seed;
/// returns the activity under the tight budget and the renumberings under
/// the roomy one.
fn run_seed(seed: u64) -> (WindowStats, u64) {
    let mut rng = TestRng::new(seed);
    let (mut tight, mut renumbered) = (WindowStats::default(), 0);
    for spec in specs() {
        renumbered += Pair::<Plain>::new(spec, ROOMY).run(&mut rng, 120).1;
        renumbered += Pair::<Tagged>::new(spec, ROOMY).run(&mut rng, 120).1;
        tight = plus(tight, Pair::<Plain>::new(spec, TIGHT).run(&mut rng, 120).0);
        tight = plus(tight, Pair::<Tagged>::new(spec, TIGHT).run(&mut rng, 120).0);
    }
    (tight, renumbered)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn the_directory_store_equals_the_per_window_hashmap_store(seed in any::<u64>()) {
        run_seed(seed);
    }
}

#[test]
fn the_tight_schedules_reach_every_refusal_path() {
    // The equality above is only worth what the schedules exercise.
    let runs = (0..8).map(run_seed);
    let (tight, renumbered) = runs.fold((WindowStats::default(), 0), |sum, run| {
        (plus(sum.0, run.0), sum.1 + run.1)
    });
    let WindowStats {
        accepted,
        shed_tuples,
        shed_groups,
        duplicates,
        evicted_windows,
        closed_windows,
        late_tuples,
    } = tight;
    for (what, n) in [
        ("renumbered", renumbered),
        ("accepted", accepted),
        ("shed_tuples", shed_tuples),
        ("shed_groups", shed_groups),
        ("duplicates", duplicates),
        ("evicted_windows", evicted_windows),
        ("closed_windows", closed_windows),
        ("late_tuples", late_tuples),
    ] {
        assert!(n >= 8, "{what}: {n} under the tight budget");
    }
}

// ----- directed -------------------------------------------------------------------

const SEC: u64 = 1_000_000;

#[test]
fn a_row_costs_one_directory_probe_however_many_windows_cover_it() {
    // 60 s / 1 s sliding: every row folds into 60 windows.
    let spec = WindowSpec::sliding(60 * SEC, SEC);
    let mut store: WindowStore<Tagged> = WindowStore::new(spec, ROOMY);
    let built = Cell::new(0u32);
    let push = |store: &mut WindowStore<Tagged>, t: u64, key: &str| {
        let before = store.directory_stats().probes;
        store.push(
            t,
            key,
            None,
            || {
                built.set(built.get() + 1);
                Tagged::build(key, 0)
            },
            |a| a.sum += 1,
        );
        store.directory_stats().probes - before
    };
    // Probes are counted where debug assertions are on, as in `cargo test`.
    let one = u64::from(cfg!(debug_assertions));
    // A group new to the store: one probe (the miss), 60 accumulators.
    assert_eq!(push(&mut store, 100 * SEC, "a"), one);
    assert_eq!((store.open_windows(), store.total_groups()), (60, 60));
    assert_eq!(built.replace(0), 60);
    // A known group: one probe, nothing built, at the same instant and at
    // another one (whose newest window is new to the group: one built).
    assert_eq!(push(&mut store, 100 * SEC, "a"), one);
    assert_eq!(built.replace(0), 0);
    assert_eq!(push(&mut store, 101 * SEC + 5, "a"), one);
    assert_eq!(built.replace(0), 1);
    // A relayed partial costs one probe too.
    let before = store.directory_stats().probes;
    assert!(store.accept_refinement(90, "a", Tagged::build("a", 3)));
    assert_eq!(store.directory_stats().probes - before, one);
    // One key, one directory entry — sixty-odd windows hold it.
    assert_eq!(store.directory_stats().live, 1);
    // Every window got the identity back on its way out.
    let closed = store.close_due(1_000 * SEC);
    assert_eq!(closed.len(), 61);
    assert!(closed.iter().all(|(_, g)| g[0].1.tag == b"a"));
    assert_eq!(closed[0].1[0].1.sum, 2 + 3 * i64::from(closed[0].0 == 90));
}

#[test]
fn a_key_that_stops_arriving_leaves_when_its_last_window_closes() {
    let spec = WindowSpec::sliding(3 * SEC, SEC);
    let mut store: WindowStore<Plain> = WindowStore::new(spec, ROOMY);
    assert_eq!(
        store.directory_stats().ids,
        0,
        "an empty store holds no ids"
    );
    let push = |store: &mut WindowStore<Plain>, t: u64, key: &str| {
        store.push(t, key, None, || Plain(0), |a| a.0 += 1);
    };
    // `gone` arrives during second 10 only; `stay` every second.
    push(&mut store, 10 * SEC, "gone");
    for s in 10..20 {
        push(&mut store, s * SEC, "stay");
        store.close_due(s * SEC);
        // Windows 8, 9 and 10 cover second 10; window 10 closes at 13 s.
        let held = store.directory_stats().live;
        assert_eq!(held, if s < 13 { 2 } else { 1 }, "at {s} s");
    }
    // The freed id served no one (no new key arrived): two ids ever.
    assert_eq!(store.directory_stats().ids, 2);
    push(&mut store, 19 * SEC, "new");
    assert_eq!(store.directory_stats().ids, 2, "`new` took `gone`'s id");
    store.close_due(1_000 * SEC);
    assert_eq!(store.directory_stats().live, 0);
    assert_eq!(store.directory_stats().ids, 2);
}

#[test]
fn a_burst_of_keys_leaves_nothing_behind_once_its_windows_closed() {
    // Thirty-two windows cover every instant; ten keys arrive at each.
    let mut store: WindowStore<Plain> = WindowStore::new(WindowSpec::sliding(32, 1), ROOMY);
    let push = |store: &mut WindowStore<Plain>, t: u64, key: &str| {
        store.push(t, key, None, || Plain(0), |a| a.0 += 1);
    };
    let instant = |store: &mut WindowStore<Plain>, t: u64, burst: usize| {
        (0..10).for_each(|k| push(store, t, &format!("steady{k}")));
        (0..burst).for_each(|n| push(store, t, &format!("burst{t}.{n}")));
        store.close_due(t);
        store.approx_state_bytes(&|_| 8)
    };
    let steady = (0..100).map(|t| instant(&mut store, t, 0)).max();
    let steady = steady.expect("instants");
    // Forty instants bring 512 keys each that never come back; `late` first
    // arrives in the thick of them — its id is a high one — and stays.
    let peak = (100..140).map(|t| {
        if t >= 120 {
            push(&mut store, t, "late");
        }
        instant(&mut store, t, 512)
    });
    let peak = peak.max().expect("instants");
    assert!(
        peak > 100 * steady,
        "{peak} B at the peak, {steady} B before"
    );
    let mut after = 0;
    for t in 140..240 {
        push(&mut store, t, "late");
        after = instant(&mut store, t, 0);
    }
    // Eleven keys where ten were: what the burst grew is given back, and a
    // window opened after it is no bigger for the ids the burst used.
    assert!(
        after <= steady * 3 / 2,
        "{after} B after the burst, {steady} B before it"
    );
    let dir = store.directory_stats();
    assert_eq!((dir.live, dir.ids), (11, 11));
}
