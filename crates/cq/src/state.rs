//! Per-node window state: grouped accumulators with budgets and eviction.
//!
//! A [`WindowStore`] holds one **group directory** (`key → id`; the key
//! string and the group's identity stored once, refcounted by the open
//! windows holding it) and, for every *open* window, a dense `id → slot`
//! map over a compact vector of accumulators plus an optional
//! window-scoped duplicate-elimination set.  A row looks its group up once,
//! then folds into one indexed slot per covering window.  Closing a window **drains** it: the caller is lent the
//! accumulated groups in key order and the store forgets the window — and
//! every group no other window holds — so state never outlives the windows
//! it belongs to, and neither does the capacity a burst of keys grew: a
//! window's vectors go with the window, and once most directory ids are
//! free the live ones are renumbered, so the `id → slot` maps of the
//! windows still open, and of those to come, span the groups that are
//! left.  Partial
//! state relayed from other nodes merges into the same structure
//! order-insensitively (the accumulator contract requires commutative,
//! associative `merge`).
//!
//! Unbounded state is the cardinal sin of long-running queries on shared
//! nodes, so every store enforces a [`CqBudget`]: tuples beyond the
//! per-window work budget and groups beyond the per-window state budget are
//! *shed* (dropped and counted) rather than stored, and the number of
//! simultaneously open windows is capped by evicting the oldest.
//!
//! Group and dedup keys are borrowed canonical strings produced by the
//! executor's resolved-column fast path (`pier_core::tuple::ColumnResolver`
//! over interned schemas); the store only copies a key when it actually
//! creates state for it, so the per-tuple path allocates nothing for
//! already-seen groups and duplicates.

use crate::directory::{Directory, DirectoryStats, GroupId};
use crate::lifecycle::CqBudget;
use crate::segment::{RehydrateReport, SegmentCodec, SegmentLog, SegmentRecord, WindowSegment};
use crate::window::{WindowId, WindowSpec};
use pier_runtime::SimTime;
use std::collections::{BTreeMap, HashSet};
use std::fmt::Debug;

/// Mergeable per-group accumulator state (the contract `pier-core`'s
/// aggregate partials satisfy): `merge` must be commutative and associative
/// so relayed partials can arrive in any order.
pub trait WindowAccumulator: Debug + Sized {
    /// Fold another partial of the same shape into this one.
    fn merge(&mut self, other: &Self);

    /// Move out the part of a fresh accumulator that identifies its *group*
    /// and is therefore equal in every window holding it (the grouping
    /// values).  The store keeps it once per group and lends it back as
    /// [`Group::identity`].  Default: an accumulator is all per-window state.
    fn take_identity(&mut self) -> Option<Self> {
        None
    }

    /// Copy an identity [`WindowAccumulator::take_identity`] moved out back
    /// in (owned drains and durable segments carry whole accumulators).
    fn set_identity(&mut self, _identity: &Self) {}
}

/// One group of a window being closed or emitted, lent by the store.
#[derive(Debug)]
pub struct Group<'a, A> {
    /// The canonical group key.
    pub key: &'a str,
    /// What [`WindowAccumulator::take_identity`] moved out when the group
    /// entered the store — `acc` itself for a type that shares nothing.
    pub identity: &'a A,
    /// This window's accumulator, without the identity.
    pub acc: &'a A,
}

/// "No slot" in a window's `id → slot` map.
const VACANT: u32 = u32::MAX;

/// State of one open window.
#[derive(Debug)]
struct OpenWindow<A> {
    id: WindowId,
    /// Directory id → index into `accs` ([`VACANT`] where the window does
    /// not hold the group); as long as the largest id it holds.
    slot_of: Vec<u32>,
    /// Index into `accs` → directory id.
    gids: Vec<GroupId>,
    accs: Vec<A>,
    /// Window-scoped duplicate-elimination keys.
    seen: HashSet<String>,
    /// Tuples folded into this window at this node.
    tuples: u64,
    /// Changed since [`WindowStore::emit_due_with`] last lent it.
    dirty: bool,
}

impl<A> OpenWindow<A> {
    fn new(id: WindowId, tuples: u64, dirty: bool) -> Self {
        OpenWindow {
            id,
            slot_of: Vec::new(),
            gids: Vec::new(),
            accs: Vec::new(),
            seen: HashSet::new(),
            tuples,
            dirty,
        }
    }

    fn slot(&self, gid: GroupId) -> Option<usize> {
        let slot = *self.slot_of.get(gid as usize)?;
        (slot != VACANT).then_some(slot as usize)
    }

    /// Map every id in `gids` to its index there.
    fn index(&mut self, from: usize) {
        for (slot, &gid) in self.gids.iter().enumerate().skip(from) {
            if self.slot_of.len() <= gid as usize {
                self.slot_of.resize(gid as usize + 1, VACANT);
            }
            self.slot_of[gid as usize] = slot as u32;
        }
    }

    fn emittable(&self) -> bool {
        self.dirty && !self.accs.is_empty()
    }
}

/// Counters describing a store's activity (exposed for tests, budgeting
/// decisions and the experiment drivers).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WindowStats {
    /// Tuples accepted into some window.
    pub accepted: u64,
    /// Tuples dropped by the per-window work budget.
    pub shed_tuples: u64,
    /// Groups refused by the per-window state budget.
    pub shed_groups: u64,
    /// Tuples suppressed by window-scoped duplicate elimination.
    pub duplicates: u64,
    /// Windows evicted to respect the open-window cap.
    pub evicted_windows: u64,
    /// Windows closed (drained) normally.
    pub closed_windows: u64,
    /// Tuples rejected because their window was already closed (late data).
    pub late_tuples: u64,
}

/// Window-scoped grouped state for one continuous query at one node.
#[derive(Debug)]
pub struct WindowStore<A> {
    spec: WindowSpec,
    budget: CqBudget,
    dir: Directory<A>,
    /// Open windows by ascending id, so the oldest evicts first.
    windows: Vec<OpenWindow<A>>,
    /// Their ids, in step: what locating a window reads.
    ids: Vec<WindowId>,
    /// Everything at or below this id has been closed; late tuples for those
    /// windows are dropped (and counted) instead of resurrecting state.
    closed_through: Option<WindowId>,
    /// Everything at or below this id has been *retired*: even refinements
    /// ([`WindowStore::accept_refinement`]) are refused, so memory stays
    /// bounded no matter how late a partial straggles in.
    retired_through: Option<WindowId>,
    stats: WindowStats,
}

impl<A: WindowAccumulator> WindowStore<A> {
    /// An empty store for `spec` under `budget`.
    pub fn new(spec: WindowSpec, budget: CqBudget) -> Self {
        WindowStore {
            spec,
            budget,
            dir: Directory::new(),
            windows: Vec::new(),
            ids: Vec::new(),
            closed_through: None,
            retired_through: None,
            stats: WindowStats::default(),
        }
    }

    /// The window specification.
    pub fn spec(&self) -> &WindowSpec {
        &self.spec
    }

    /// Activity counters.
    pub fn stats(&self) -> WindowStats {
        self.stats
    }

    /// Counters of the group directory.
    pub fn directory_stats(&self) -> DirectoryStats {
        self.dir.stats()
    }

    /// Number of currently open windows.
    pub fn open_windows(&self) -> usize {
        self.windows.len()
    }

    /// Total groups across all open windows (the node's state footprint).
    pub fn total_groups(&self) -> usize {
        self.windows.iter().map(|w| w.accs.len()).sum()
    }

    /// Approximate resident bytes of the open-window state: the directory
    /// (each group's key, identity and entry, once), every window's three
    /// slot vectors at their capacities, what the caller-supplied estimator
    /// says each accumulator holds, and the dedup sets.  This is the measured
    /// counterpart of the static analyzer's worst-case state-bytes bound
    /// (gauge `cq.state_bytes`).
    pub fn approx_state_bytes(&self, acc_bytes: &dyn Fn(&A) -> usize) -> usize {
        use std::mem::size_of;
        const SEEN_OVERHEAD: usize = 48; // hash bucket + String header
        let windows = self.windows.iter().map(|w| {
            let held: usize = w.accs.iter().map(acc_bytes).sum();
            let seen: usize = w.seen.iter().map(|k| k.len() + SEEN_OVERHEAD).sum();
            let slots = w.accs.capacity() * size_of::<A>()
                + (w.gids.capacity() + w.slot_of.capacity()) * size_of::<u32>();
            held + seen + slots + size_of::<OpenWindow<A>>() + size_of::<WindowId>()
        });
        self.dir.resident_bytes(acc_bytes) + windows.sum::<usize>()
    }

    /// Fold one tuple with event time `event_time` into every window that
    /// covers it.  `dedup_key` (when given) suppresses duplicates *within
    /// each window*; `group_key` selects the accumulator; `init` creates a
    /// fresh accumulator and `fold` updates it.
    pub fn push(
        &mut self,
        event_time: SimTime,
        group_key: &str,
        dedup_key: Option<&str>,
        init: impl Fn() -> A,
        fold: impl FnMut(&mut A),
    ) {
        self.push_with(event_time, group_key, dedup_key, |_| init(), fold);
    }

    /// [`WindowStore::push`] whose `init` is told whether the group is new
    /// to the store: only then is the identity of what it builds kept, so a
    /// known group entering another window need not build one.
    pub fn push_with(
        &mut self,
        event_time: SimTime,
        group_key: &str,
        dedup_key: Option<&str>,
        init: impl Fn(bool) -> A,
        mut fold: impl FnMut(&mut A),
    ) {
        // The one directory probe the row costs, however many windows it
        // then folds into.
        let mut gid = self.dir.find(group_key);
        for id in self.spec.windows_containing(event_time) {
            if self.closed_through.is_some_and(|c| id <= c) {
                self.stats.late_tuples += 1;
                continue;
            }
            let evicted = self.stats.evicted_windows;
            let Some(pos) = self.ensure_window(id) else {
                continue; // evicted by the cap (id was the oldest)
            };
            if evicted != self.stats.evicted_windows {
                gid = self.dir.find(group_key); // the eviction may have freed it
            }
            let win = &mut self.windows[pos];
            if let Some(dk) = dedup_key {
                // Membership test first: the common duplicate case must not
                // pay for an owned copy of the key.
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
            let slot = match gid.and_then(|g| win.slot(g)) {
                Some(slot) => slot,
                None if win.accs.len() >= self.budget.max_groups_per_window as usize => {
                    self.stats.shed_groups += 1;
                    continue;
                }
                None => Self::enter(&mut self.dir, win, group_key, &mut gid, &init),
            };
            fold(&mut win.accs[slot]);
            win.tuples += 1;
            win.dirty = true;
            self.stats.accepted += 1;
        }
    }

    /// Have `win` hold the group of `key` with the accumulator `make`
    /// builds — entering the group into the directory, with that
    /// accumulator's identity, if it is new to the store — and return the
    /// window's slot for it.
    fn enter(
        dir: &mut Directory<A>,
        win: &mut OpenWindow<A>,
        key: &str,
        gid: &mut Option<GroupId>,
        make: impl FnOnce(bool) -> A,
    ) -> usize {
        let mut acc = make(gid.is_none());
        let identity = acc.take_identity();
        match *gid {
            Some(gid) => dir.retain(gid),
            None => *gid = Some(dir.insert(key, identity)),
        }
        win.gids.push(gid.expect("entered"));
        win.accs.push(acc);
        win.index(win.accs.len() - 1);
        win.accs.len() - 1
    }

    /// Merge a relayed partial accumulator for (`id`, `group_key`) into the
    /// store (the in-network combine step).  Order-insensitive by the
    /// accumulator contract.  Returns `false` when the window was already
    /// closed here (the partial is late) or was refused by the budget.
    pub fn merge_partial(&mut self, id: WindowId, group_key: &str, partial: A) -> bool {
        if self.closed_through.is_some_and(|c| id <= c) {
            self.stats.late_tuples += 1;
            return false;
        }
        self.accept_refinement(id, group_key, partial)
    }

    /// [`WindowStore::refine_with`] for an already-built partial.
    pub fn accept_refinement(&mut self, id: WindowId, group_key: &str, partial: A) -> bool {
        // Exactly one of the two closures runs; the cell lets either take
        // the partial.
        let partial = std::cell::Cell::new(Some(partial));
        let take = || partial.take().expect("hit and make are exclusive");
        self.refine_with(id, group_key, |acc| acc.merge(&take()), |_| take())
    }

    /// Fold a relayed partial for (`id`, `group_key`) into the store: `hit`
    /// merges it into the group's accumulator in place, `make` builds the
    /// accumulator of a group this window has not seen — so the common case,
    /// a partial for a known group, allocates nothing — and is told whether
    /// the group is new to the store (see [`WindowStore::push_with`]).  A
    /// window that was already drained here re-opens for the refinement
    /// (relay nodes must forward refinements up the tree, and the next close
    /// drains the entry again; a re-opened window is not held to the group
    /// budget); the caller takes responsibility for not double-counting.
    /// Returns `false` — having run neither closure — when the window is
    /// retired or was refused by the budget.
    pub fn refine_with(
        &mut self,
        id: WindowId,
        group_key: &str,
        hit: impl FnOnce(&mut A),
        make: impl FnOnce(bool) -> A,
    ) -> bool {
        if self.retired_through.is_some_and(|r| id <= r) {
            self.stats.late_tuples += 1;
            return false;
        }
        let reopened = self.closed_through.is_some_and(|c| id <= c);
        let Some(pos) = self.ensure_window(id) else {
            return false; // evicted by the cap (id was the oldest)
        };
        let mut gid = self.dir.find(group_key);
        let win = &mut self.windows[pos];
        match gid.and_then(|g| win.slot(g)) {
            Some(slot) => hit(&mut win.accs[slot]),
            None if !reopened && win.accs.len() >= self.budget.max_groups_per_window as usize => {
                self.stats.shed_groups += 1;
                return false;
            }
            None => {
                Self::enter(&mut self.dir, win, group_key, &mut gid, make);
            }
        }
        win.dirty = true;
        true
    }

    /// Lend `visit` the groups of each of `windows`, in key order.
    fn walk<'w>(
        dir: &Directory<A>,
        windows: impl Iterator<Item = &'w OpenWindow<A>>,
        mut visit: impl FnMut(&OpenWindow<A>, &[Group<'_, A>]),
    ) where
        A: 'w,
    {
        let order = dir.sorted();
        let mut groups = Vec::new();
        for win in windows {
            groups.clear();
            groups.extend(order.iter().filter_map(|&gid| {
                let acc = &win.accs[win.slot(gid)?];
                Some(Group {
                    key: dir.key(gid),
                    identity: dir.identity(gid).unwrap_or(acc),
                    acc,
                })
            }));
            visit(win, &groups);
        }
    }

    /// `gone` are closed, retired or evicted: every group no other window
    /// holds leaves the directory, and should that leave most ids free the
    /// open windows re-map their slots by the renumbered ones.
    fn release(&mut self, gone: &[OpenWindow<A>]) {
        let held = gone.iter().flat_map(|win| &win.gids);
        held.for_each(|&gid| self.dir.release(gid));
        if let Some(renumbered) = self.dir.compact() {
            for win in &mut self.windows {
                let gids = win.gids.iter_mut();
                gids.for_each(|gid| *gid = renumbered[*gid as usize]);
                win.slot_of = Vec::new();
                win.index(0);
            }
        }
    }

    /// Take every window whose close time has passed at `now` out of the
    /// store, oldest first, with the directory in order for walking them;
    /// the caller [`WindowStore::release`]s their groups.
    fn take_due(&mut self, now: SimTime) -> Vec<OpenWindow<A>> {
        let Some(last) = self.spec.last_closable(now) else {
            return Vec::new();
        };
        // Advance the late-data horizon even for windows that never opened.
        self.closed_through = self.closed_through.max(Some(last));
        let due = self.ids.partition_point(|&id| id <= last);
        if due > 0 {
            self.dir.sort();
        }
        self.stats.closed_windows += due as u64;
        self.ids.drain(..due);
        self.windows.drain(..due).collect()
    }

    /// Close (drain) every window whose close time has passed at `now`,
    /// oldest first: `visit` is lent each non-empty one's groups in key
    /// order (group order feeds message order, and equal-seed runs must
    /// replay byte-for-byte), then the store forgets the drained windows.
    pub fn close_due_with(
        &mut self,
        now: SimTime,
        mut visit: impl FnMut(WindowId, &[Group<'_, A>]),
    ) {
        let due = self.take_due(now);
        let full = due.iter().filter(|win| !win.accs.is_empty());
        Self::walk(&self.dir, full, |win, groups| visit(win.id, groups));
        self.release(&due);
    }

    /// [`WindowStore::close_due_with`] handing the accumulators over, whole:
    /// owned `(window_id, groups)` pairs.
    pub fn close_due(&mut self, now: SimTime) -> Vec<(WindowId, Vec<(String, A)>)> {
        let (mut due, dir) = (self.take_due(now), &self.dir);
        let (order, mut out) = (dir.sorted(), Vec::new());
        for win in due.iter_mut().filter(|win| !win.accs.is_empty()) {
            let accs = std::mem::take(&mut win.accs).into_iter();
            let mut accs: Vec<Option<A>> = accs.map(Some).collect();
            let whole = order.iter().filter_map(|&gid| {
                let mut acc = accs[win.slot(gid)?].take()?;
                if let Some(identity) = dir.identity(gid) {
                    acc.set_identity(identity);
                }
                Some((dir.key(gid).to_string(), acc))
            });
            out.push((win.id, whole.collect()));
        }
        self.release(&due);
        out
    }

    /// Lend `visit` every due window that changed since it was last lent,
    /// **retaining** the state so late partials can still merge and trigger
    /// a refined re-emission.  This is the root-side counterpart of
    /// [`WindowStore::close_due_with`] (which drains — right for nodes that
    /// forward partials and must not re-send).  Pair with
    /// [`WindowStore::retire_before`] to bound memory.
    pub fn emit_due_with(
        &mut self,
        now: SimTime,
        mut visit: impl FnMut(WindowId, &[Group<'_, A>]),
    ) {
        let Some(last) = self.spec.last_closable(now) else {
            return;
        };
        let due = &mut self.windows[..self.ids.partition_point(|&id| id <= last)];
        if due.iter().any(OpenWindow::emittable) {
            self.dir.sort();
            let changed = due.iter().filter(|w| w.emittable());
            Self::walk(&self.dir, changed, |win, groups| visit(win.id, groups));
            due.iter_mut().for_each(|win| win.dirty = false);
        }
    }

    /// Drop every window strictly below `horizon` and refuse future state
    /// for them (the refinement horizon has passed).  Bounds the memory of
    /// an emit-and-retain store.
    pub fn retire_before(&mut self, horizon: WindowId) {
        if horizon == 0 {
            return;
        }
        let gone = self.ids.partition_point(|&id| id < horizon);
        self.ids.drain(..gone);
        let gone: Vec<_> = self.windows.drain(..gone).collect();
        self.release(&gone);
        self.closed_through = self.closed_through.max(Some(horizon - 1));
        self.retired_through = self.retired_through.max(Some(horizon - 1));
    }

    /// Append a snapshot of every open window (plus the close/retire
    /// horizons) to `log`.  Groups and dedup keys are written in sorted
    /// order, so equal states always produce equal bytes.
    pub fn write_segments(&self, log: &mut SegmentLog)
    where
        A: SegmentCodec,
    {
        Self::walk(&self.dir, self.windows.iter(), |win, groups| {
            let groups = groups
                .iter()
                .map(|g| {
                    let mut state = Vec::new();
                    g.acc.encode_split(g.identity, &mut state);
                    (g.key.to_string(), state)
                })
                .collect();
            let mut seen: Vec<String> = win.seen.iter().cloned().collect();
            seen.sort();
            log.append(&SegmentRecord::Window(WindowSegment {
                id: win.id,
                tuples: win.tuples,
                dirty: win.dirty,
                groups,
                seen,
            }));
        });
        log.append(&SegmentRecord::Watermark {
            closed_through: self.closed_through,
            retired_through: self.retired_through,
        });
    }

    /// Rebuild open-window state from a segment log (warm restart).  Later
    /// snapshots of a window supersede earlier ones; snapshots of windows
    /// the log's own watermark says were closed or retired are skipped —
    /// re-opening a drained window would double-count downstream.  A torn
    /// tail is ignored (only the clean prefix rehydrates).
    pub fn rehydrate_from(&mut self, log: &SegmentLog) -> RehydrateReport
    where
        A: SegmentCodec,
    {
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
                    // `None` orders below every id.
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
            let mut win = OpenWindow::new(id, seg.tuples, seg.dirty);
            for (key, state) in seg.groups {
                let Some(acc) = A::decode_state(&state) else {
                    report.skipped += 1;
                    continue;
                };
                let mut gid = self.dir.find(&key);
                match gid.and_then(|g| win.slot(g)) {
                    // A key the segment repeats: the later state wins.
                    Some(slot) => win.accs[slot] = acc,
                    None => {
                        Self::enter(&mut self.dir, &mut win, &key, &mut gid, |_| acc);
                    }
                }
            }
            win.seen.extend(seg.seen);
            report.windows += 1;
            report.groups += win.accs.len();
            report.tuples += win.tuples;
            match self.ids.binary_search(&id) {
                Ok(pos) => {
                    let stale = std::mem::replace(&mut self.windows[pos], win);
                    self.release(&[stale]);
                }
                Err(pos) => {
                    self.ids.insert(pos, id);
                    self.windows.insert(pos, win);
                }
            }
        }
        report
    }

    fn position(&self, id: WindowId) -> Option<usize> {
        self.ids.binary_search(&id).ok()
    }

    /// The position of window `id`, opened if it is not — evicting the
    /// oldest to respect the cap, or `None` when `id` itself is the oldest.
    fn ensure_window(&mut self, id: WindowId) -> Option<usize> {
        if let Some(pos) = self.position(id) {
            return Some(pos);
        }
        while self.windows.len() >= self.budget.max_open_windows as usize {
            if self.windows.first()?.id > id {
                return None;
            }
            self.ids.remove(0);
            let oldest = self.windows.remove(0);
            self.release(&[oldest]);
            self.stats.evicted_windows += 1;
        }
        let pos = self.ids.partition_point(|&open| open < id);
        self.ids.insert(pos, id);
        self.windows.insert(pos, OpenWindow::new(id, 0, false));
        Some(pos)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::window::WindowSpec;
    use std::cell::Cell;

    /// A toy mergeable count.
    #[derive(Debug, Clone, PartialEq)]
    struct Count(u64);

    impl WindowAccumulator for Count {
        fn merge(&mut self, other: &Self) {
            self.0 += other.0;
        }
    }

    fn store(spec: WindowSpec, budget: CqBudget) -> WindowStore<Count> {
        WindowStore::new(spec, budget)
    }

    #[test]
    fn push_and_close_counts_per_window() {
        let mut s = store(WindowSpec::tumbling(10), CqBudget::default());
        for t in 0..25u64 {
            s.push(t, "g", None, || Count(0), |c| c.0 += 1);
        }
        // At t=25 only windows 0 ([0,10)) and 1 ([10,20)) are closable.
        let closed = s.close_due(25);
        assert_eq!(closed.len(), 2);
        assert_eq!(closed[0].0, 0);
        assert_eq!(closed[0].1[0].1, Count(10));
        assert_eq!(closed[1].1[0].1, Count(10));
        // Window 2 (t=20..25 so far) still open.
        assert_eq!(s.open_windows(), 1);
    }

    #[test]
    fn dedup_is_window_scoped() {
        let mut s = store(WindowSpec::tumbling(10), CqBudget::default());
        // Same dedup key in two different windows: counted once per window.
        for t in [1u64, 2, 3, 11, 12] {
            s.push(t, "g", Some("dup"), || Count(0), |c| c.0 += 1);
        }
        let closed = s.close_due(100);
        assert_eq!(closed.len(), 2);
        assert_eq!(closed[0].1[0].1, Count(1));
        assert_eq!(closed[1].1[0].1, Count(1));
        assert_eq!(s.stats().duplicates, 3);
    }

    #[test]
    fn budgets_shed_instead_of_growing() {
        let budget = CqBudget {
            max_open_windows: 2,
            max_groups_per_window: 3,
            max_tuples_per_window: 5,
        };
        let mut s = store(WindowSpec::tumbling(10), budget);
        // 10 distinct groups in window 0: only 3 stored.
        for g in 0..10 {
            s.push(1, &format!("g{g}"), None, || Count(0), |c| c.0 += 1);
        }
        assert_eq!(s.total_groups(), 3);
        assert_eq!(s.stats().shed_groups, 7);
        // Work budget: max 5 tuples per window (3 already accepted).
        for _ in 0..10 {
            s.push(2, "g0", None, || Count(0), |c| c.0 += 1);
        }
        assert_eq!(s.stats().shed_tuples, 8);
        // Open-window cap: touching windows 0,1,2 evicts the oldest.
        s.push(11, "g", None, || Count(0), |c| c.0 += 1);
        s.push(21, "g", None, || Count(0), |c| c.0 += 1);
        assert_eq!(s.open_windows(), 2);
        assert_eq!(s.stats().evicted_windows, 1);
    }

    #[test]
    fn merge_partial_is_order_insensitive() {
        let spec = WindowSpec::sliding(20, 10);
        let parts = [
            (3u64, "a", Count(5)),
            (3, "b", Count(2)),
            (3, "a", Count(7)),
            (4, "a", Count(1)),
        ];
        let mut fwd = store(spec, CqBudget::default());
        let mut rev = store(spec, CqBudget::default());
        for (id, g, c) in &parts {
            fwd.merge_partial(*id, g, c.clone());
        }
        for (id, g, c) in parts.iter().rev() {
            rev.merge_partial(*id, g, c.clone());
        }
        let norm = |mut v: Vec<(WindowId, Vec<(String, Count)>)>| {
            for (_, groups) in &mut v {
                groups.sort_by(|a, b| a.0.cmp(&b.0));
            }
            v
        };
        assert_eq!(norm(fwd.close_due(1_000)), norm(rev.close_due(1_000)));
    }

    #[test]
    fn refinement_hits_merge_in_place_and_only_misses_build() {
        let budget = CqBudget {
            max_groups_per_window: 1,
            ..CqBudget::default()
        };
        let mut s = store(WindowSpec::tumbling(10), budget);
        let built = Cell::new(0u32);
        let refine = |s: &mut WindowStore<Count>, id, key: &str, n| {
            s.refine_with(
                id,
                key,
                |acc| acc.0 += n,
                |_| {
                    built.set(built.get() + 1);
                    Count(n)
                },
            )
        };
        assert!(refine(&mut s, 0, "a", 2));
        assert!(refine(&mut s, 0, "a", 3), "a hit merges");
        assert_eq!(built.get(), 1, "and builds nothing");
        // The group budget refuses a second group without running either
        // closure.
        assert!(!refine(&mut s, 0, "b", 7));
        assert_eq!((built.get(), s.stats().shed_groups), (1, 1));
        assert_eq!(s.close_due(50), [(0, vec![("a".to_string(), Count(5))])]);
        // A drained window re-opens for refinements, past the group budget
        // (the next close drains it again) ...
        assert!(refine(&mut s, 0, "a", 1) && refine(&mut s, 0, "b", 1));
        assert_eq!(s.close_due(60)[0].1.len(), 2);
        // ... but not for `merge_partial`, and not once retired.
        assert!(!s.merge_partial(0, "a", Count(1)));
        s.retire_before(1);
        assert!(!refine(&mut s, 0, "a", 1));
        assert_eq!(s.stats().late_tuples, 2);
        assert_eq!(built.get(), 3);
        assert_eq!(s.open_windows(), 0);
    }

    #[test]
    fn late_data_after_close_is_dropped_and_counted() {
        let mut s = store(WindowSpec::tumbling(10), CqBudget::default());
        s.push(5, "g", None, || Count(0), |c| c.0 += 1);
        assert_eq!(s.close_due(50).len(), 1);
        s.push(5, "g", None, || Count(0), |c| c.0 += 1);
        assert_eq!(s.open_windows(), 0, "late tuple must not reopen state");
        assert_eq!(s.stats().late_tuples, 1);
    }

    impl crate::segment::SegmentCodec for Count {
        fn encode_state(&self, buf: &mut Vec<u8>) {
            buf.extend_from_slice(&self.0.to_le_bytes());
        }
        fn decode_state(bytes: &[u8]) -> Option<Self> {
            Some(Count(u64::from_le_bytes(bytes.try_into().ok()?)))
        }
    }

    #[test]
    fn segments_round_trip_windows_byte_for_byte() {
        let mut s = store(WindowSpec::sliding(20, 10), CqBudget::default());
        for t in 0..35u64 {
            s.push(
                t,
                &format!("g{}", t % 3),
                Some(&format!("d{t}")),
                || Count(0),
                |c| {
                    c.0 += 1;
                },
            );
        }
        s.close_due(25); // advance closed_through so the watermark is real
        let mut log = crate::segment::SegmentLog::new();
        s.write_segments(&mut log);

        let mut warm = store(WindowSpec::sliding(20, 10), CqBudget::default());
        let report = warm.rehydrate_from(&log);
        assert!(!report.torn_tail);
        assert!(report.windows > 0 && report.groups > 0);
        assert_eq!(warm.open_windows(), s.open_windows());
        assert_eq!(warm.total_groups(), s.total_groups());

        // Byte-for-byte: re-encoding the rehydrated store matches exactly.
        let mut relog = crate::segment::SegmentLog::new();
        warm.write_segments(&mut relog);
        assert_eq!(relog.as_bytes(), log.as_bytes());

        // The rehydrated store behaves identically from here on.
        assert_eq!(
            {
                let mut v = warm.close_due(1_000);
                v.iter_mut()
                    .for_each(|(_, g)| g.sort_by(|a, b| a.0.cmp(&b.0)));
                v
            },
            {
                let mut v = s.close_due(1_000);
                v.iter_mut()
                    .for_each(|(_, g)| g.sort_by(|a, b| a.0.cmp(&b.0)));
                v
            }
        );
    }

    #[test]
    #[should_panic(expected = "encodes its two parts itself")]
    fn an_identity_kept_apart_must_bring_its_own_split_encoding() {
        /// Moves its name out as identity, but encodes only as a whole.
        #[derive(Debug)]
        struct Named(String, u64);
        impl WindowAccumulator for Named {
            fn merge(&mut self, other: &Self) {
                self.1 += other.1;
            }
            fn take_identity(&mut self) -> Option<Self> {
                Some(Named(std::mem::take(&mut self.0), 0))
            }
        }
        impl crate::segment::SegmentCodec for Named {
            fn encode_state(&self, buf: &mut Vec<u8>) {
                buf.extend_from_slice(self.0.as_bytes());
            }
            fn decode_state(_: &[u8]) -> Option<Self> {
                None
            }
        }
        let mut s = WindowStore::new(WindowSpec::tumbling(10), CqBudget::default());
        s.push(1, "g", None, || Named("g".into(), 0), |n| n.1 += 1);
        // Writing `g` without its name would be silent loss.
        s.write_segments(&mut crate::segment::SegmentLog::new());
    }

    #[test]
    fn rehydrate_skips_closed_windows_and_torn_tails() {
        let mut s = store(WindowSpec::tumbling(10), CqBudget::default());
        s.push(5, "g", None, || Count(0), |c| c.0 += 1);
        s.push(15, "g", None, || Count(0), |c| c.0 += 1);
        let mut log = crate::segment::SegmentLog::new();
        s.write_segments(&mut log); // snapshot with both windows open
        s.close_due(25); // both now closed
        s.write_segments(&mut log); // second snapshot: watermark closed_through=1

        let mut warm = store(WindowSpec::tumbling(10), CqBudget::default());
        let report = warm.rehydrate_from(&log);
        assert_eq!(report.windows, 0, "all snapshotted windows were closed");
        assert_eq!(report.skipped, 2);
        assert_eq!(warm.open_windows(), 0);

        // A torn tail hides the second watermark: the first snapshot's
        // windows rehydrate, the damage is reported.
        log.tear_tail(7);
        let mut warm2 = store(WindowSpec::tumbling(10), CqBudget::default());
        let report2 = warm2.rehydrate_from(&log);
        assert!(report2.torn_tail);
        assert!(report2.windows > 0);
    }

    #[test]
    fn thousand_windows_leave_no_residue() {
        // The memory-bound property: stream through 1k tumbling windows,
        // closing as we go; open state stays tiny and closed state is gone.
        let mut s = store(WindowSpec::tumbling(10), CqBudget::default());
        let mut closed = 0usize;
        for t in 0..10_000u64 {
            s.push(t, &format!("g{}", t % 4), None, || Count(0), |c| c.0 += 1);
            if t % 100 == 0 {
                closed += s.close_due(t).len();
            }
        }
        closed += s.close_due(20_000).len();
        assert_eq!(closed, 1_000);
        assert_eq!(s.open_windows(), 0);
        assert_eq!(s.total_groups(), 0);
    }
}
