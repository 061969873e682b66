//! The group directory of a [`WindowStore`](crate::state::WindowStore):
//! `key → GroupId`, looked up once per row whatever the number of windows
//! covering it.
//!
//! A group's key string and identity payload (what
//! [`WindowAccumulator::take_identity`](crate::state::WindowAccumulator)
//! moved out of its first accumulator) are stored once, beside a count of
//! the open windows holding the group.  The last window to let go frees the
//! entry and puts its id on a free list, which bounds the directory by the
//! groups of the open windows by construction; once most ids are free
//! ([`Directory::compact`]) the live ones are renumbered and the spare
//! capacity is given back, so a burst of keys is not paid for after its
//! windows closed.  An empty directory owns no heap.
//!
//! The key map is hashed under a per-directory seed (group keys are stream
//! data; a fixed one would let a sender aim rows at one bucket) and its
//! order never shows: every ordered walk goes through
//! [`Directory::sorted`], the ids in key order.

use pier_runtime::FoldState;
use std::borrow::Cow;
use std::cell::Cell;
use std::collections::HashMap;
use std::mem::size_of;
use std::sync::Arc;

/// Index of a group in its store's directory.
pub(crate) type GroupId = u32;

#[derive(Debug)]
struct Entry<A> {
    key: Arc<str>,
    identity: Option<A>,
    /// Open windows holding the group.
    refs: u32,
}

/// What a directory holds and has done (tests assert boundedness, id reuse
/// and probes per row through this).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DirectoryStats {
    /// Groups currently held (distinct keys across the open windows).
    pub live: usize,
    /// Ids in use or on the free list.
    pub ids: usize,
    /// Key look-ups made; counted in builds with debug assertions only.
    pub probes: u64,
}

#[derive(Debug)]
pub(crate) struct Directory<A> {
    ids: HashMap<Arc<str>, GroupId, FoldState>,
    /// By id; `None` while the id is on the free list.
    entries: Vec<Option<Entry<A>>>,
    free: Vec<GroupId>,
    /// The live ids in key order, when `sorted`.
    order: Vec<GroupId>,
    sorted: bool,
    probes: Cell<u64>,
}

impl<A> Directory<A> {
    pub(crate) fn new() -> Self {
        Directory {
            ids: HashMap::default(),
            entries: Vec::new(),
            free: Vec::new(),
            order: Vec::new(),
            sorted: true,
            probes: Cell::new(0),
        }
    }

    fn live(&self) -> usize {
        self.entries.len() - self.free.len()
    }

    pub(crate) fn stats(&self) -> DirectoryStats {
        DirectoryStats {
            live: self.live(),
            ids: self.entries.len(),
            probes: self.probes.get(),
        }
    }

    fn entry(&self, gid: GroupId) -> &Entry<A> {
        self.entries[gid as usize].as_ref().expect("a live id")
    }

    pub(crate) fn key(&self, gid: GroupId) -> &str {
        &self.entry(gid).key
    }

    pub(crate) fn identity(&self, gid: GroupId) -> Option<&A> {
        self.entry(gid).identity.as_ref()
    }

    /// The id of `key`, if held.
    pub(crate) fn find(&self, key: &str) -> Option<GroupId> {
        #[cfg(debug_assertions)]
        self.probes.set(self.probes.get() + 1);
        self.ids.get(key).copied()
    }

    /// Enter `key` — which [`Directory::find`] just missed — held by one
    /// window.
    pub(crate) fn insert(&mut self, key: &str, identity: Option<A>) -> GroupId {
        let key: Arc<str> = key.into();
        let entry = Some(Entry {
            key: Arc::clone(&key),
            identity,
            refs: 1,
        });
        let gid = match self.free.pop() {
            Some(gid) => {
                self.entries[gid as usize] = entry;
                gid
            }
            None => {
                self.entries.push(entry);
                (self.entries.len() - 1) as GroupId
            }
        };
        self.ids.insert(key, gid);
        self.sorted = false;
        gid
    }

    /// One more window holds `gid`.
    pub(crate) fn retain(&mut self, gid: GroupId) {
        self.entries[gid as usize].as_mut().expect("a live id").refs += 1;
    }

    /// One window fewer holds `gid`; the last one out frees it.
    pub(crate) fn release(&mut self, gid: GroupId) {
        let slot = &mut self.entries[gid as usize];
        let entry = slot.as_mut().expect("a live id");
        entry.refs -= 1;
        if entry.refs == 0 {
            self.ids.remove(&*entry.key);
            *slot = None;
            self.free.push(gid);
            self.sorted = false;
        }
    }

    /// When more than three ids in four are free, renumber the live ones
    /// `0..live` and give the spare capacity back.  Returns the new id of
    /// every old live id, for the caller to re-key by.
    pub(crate) fn compact(&mut self) -> Option<Vec<GroupId>> {
        if self.free.len() <= 3 * self.live().max(16) {
            return None;
        }
        let mut renumbered = vec![GroupId::MAX; self.entries.len()];
        let mut kept = Vec::with_capacity(self.live());
        for (old, entry) in std::mem::take(&mut self.entries).into_iter().enumerate() {
            if entry.is_some() {
                renumbered[old] = kept.len() as GroupId;
                kept.push(entry);
            }
        }
        for gid in self.ids.values_mut() {
            *gid = renumbered[*gid as usize];
        }
        self.ids.shrink_to_fit();
        (self.entries, self.free, self.order) = (kept, Vec::new(), Vec::new());
        self.sorted = self.entries.is_empty();
        Some(renumbered)
    }

    /// The live ids in key order.  Borrowed when nothing entered or left
    /// since the last [`Directory::sort`].
    pub(crate) fn sorted(&self) -> Cow<'_, [GroupId]> {
        if self.sorted {
            return Cow::Borrowed(&self.order);
        }
        // Sort `(key, id)` pairs, not ids: a compare then reads the key
        // bytes without going through the entry.  Keys are unique, so the
        // unstable sort yields the one order.
        let live = self.entries.iter().zip(0..);
        let live = live.filter_map(|(e, gid)| Some((&*e.as_ref()?.key, gid)));
        let mut keyed: Vec<(&str, GroupId)> = live.collect();
        keyed.sort_unstable();
        Cow::Owned(keyed.into_iter().map(|(_, gid)| gid).collect())
    }

    /// Bring the key order up to date, so [`Directory::sorted`] borrows:
    /// the order is re-derived when the directory changed, not per walk.
    pub(crate) fn sort(&mut self) {
        if let Cow::Owned(order) = self.sorted() {
            self.order = order;
            self.sorted = true;
        }
    }

    /// Resident bytes: the key map and the three vectors at their
    /// capacities, every key, and what `acc_bytes` says each identity holds.
    pub(crate) fn resident_bytes(&self, acc_bytes: &dyn Fn(&A) -> usize) -> usize {
        const ARC_HEADER: usize = 16; // strong + weak counts
        let held = self
            .entries
            .iter()
            .flatten()
            .map(|e| e.key.len() + ARC_HEADER + e.identity.as_ref().map_or(0, acc_bytes));
        // A hash map's buckets are seven eighths usable, a control byte each.
        let ids = self.ids.capacity() * 8 / 7 * (size_of::<(Arc<str>, GroupId)>() + 1);
        ids + self.entries.capacity() * size_of::<Option<Entry<A>>>()
            + (self.order.capacity() + self.free.capacity()) * size_of::<GroupId>()
            + held.sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn enter(dir: &mut Directory<()>, key: &str) -> GroupId {
        match dir.find(key) {
            Some(gid) => {
                dir.retain(gid);
                gid
            }
            None => dir.insert(key, None),
        }
    }

    fn keys_in_order(dir: &Directory<()>) -> Vec<String> {
        let order = dir.sorted();
        order.iter().map(|&g| dir.key(g).to_string()).collect()
    }

    #[test]
    fn an_empty_directory_owns_no_heap_and_ids_are_reused() {
        let mut dir: Directory<()> = Directory::new();
        assert_eq!(dir.resident_bytes(&|()| 0), 0);
        assert_eq!(dir.find("a"), None);
        let a = enter(&mut dir, "a");
        let b = enter(&mut dir, "b");
        assert_eq!(enter(&mut dir, "a"), a, "a second window holds the same id");
        dir.release(a);
        assert_eq!(dir.stats().live, 2, "one window still holds `a`");
        dir.release(a);
        assert_eq!(dir.find("a"), None);
        assert_eq!(
            enter(&mut dir, "c"),
            a,
            "the freed id serves the next group"
        );
        assert_eq!((dir.key(a), dir.key(b)), ("c", "b"));
        assert_eq!(dir.stats().ids, 2);
    }

    #[test]
    fn churn_keeps_every_live_key_findable_and_the_order_sorted() {
        let mut dir: Directory<()> = Directory::new();
        let key = |i: u32| format!("s:10.0.{}.{}", i / 256, i % 256);
        let mut held = std::collections::BTreeMap::new();
        for i in 0..3_000 {
            held.insert(key(i), enter(&mut dir, &key(i)));
        }
        for i in (0..3_000).filter(|i| i % 3 != 0) {
            dir.release(held.remove(&key(i)).expect("held"));
        }
        assert!(dir.compact().is_none(), "a third of the ids is live");
        for i in 3_000..4_000 {
            held.insert(key(i), enter(&mut dir, &key(i)));
        }
        assert_eq!(dir.stats().live, held.len());
        assert_eq!(dir.stats().ids, 3_000, "growth reused the freed ids");
        for (k, gid) in &held {
            assert_eq!(dir.find(k), Some(*gid), "{k}");
        }
        assert_eq!(dir.find(&key(1)), None);
        // BTreeMap order is key order.
        assert_eq!(
            keys_in_order(&dir),
            held.keys().cloned().collect::<Vec<_>>()
        );
        dir.sort();
        assert!(matches!(dir.sorted(), Cow::Borrowed(_)));
        for gid in held.into_values() {
            dir.release(gid);
        }
        assert_eq!(dir.stats().live, 0);
        assert!(keys_in_order(&dir).is_empty());
    }

    #[test]
    fn a_burst_of_keys_is_given_back_when_its_holders_let_go() {
        let mut dir: Directory<()> = Directory::new();
        let steady = ["m", "a", "z"];
        for k in &steady[..2] {
            enter(&mut dir, k);
        }
        let burst: Vec<GroupId> = (0..10_000)
            .map(|i| enter(&mut dir, &format!("burst{i}")))
            .collect();
        // A key that starts mid-burst and stays takes a high id ...
        let z = enter(&mut dir, steady[2]);
        assert_eq!(z, 10_002);
        let peak = dir.resident_bytes(&|()| 0);
        burst.into_iter().for_each(|gid| dir.release(gid));
        // ... which must not pin the burst's capacity.
        let renumbered = dir.compact().expect("three ids were live of 10,003");
        assert_eq!(renumbered[z as usize], 2);
        assert_eq!(dir.stats().ids, 3);
        assert!(dir.resident_bytes(&|()| 0) * 100 < peak);
        assert_eq!(keys_in_order(&dir), ["a", "m", "z"]);
        for (k, gid) in steady.iter().zip([0, 1, 2]) {
            assert_eq!((dir.find(k), dir.key(gid)), (Some(gid), *k));
        }
        assert!(dir.compact().is_none());
    }
}
