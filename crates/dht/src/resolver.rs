//! The owner cache, the routed lookups in flight and the operations parked
//! behind them: the state behind [`crate::Overlay`]'s one resolver.
//!
//! The cache holds the arcs of the ring other nodes stated an owner for,
//! keyed by the arc's end (the owner's id), so an arc costs one routed
//! lookup per TTL instead of one per operation.  Four bounds keep it
//! honest.  A membership change in the local view (a neighbor joining,
//! leaving or presumed dead) clears it: every read and write states the
//! router's membership epoch.  An arc past its TTL (the liveness timeout,
//! for changes outside that view) resolves nothing; the first operation
//! into it pays the lookup that refreshes it, the rest park behind that
//! answer.  An arc whose owner is presumed dead is dropped.
//! [`OWNER_CACHE_MAX`] bounds the owners, least recently used out.
//!
//! An answer to a lookup asked in an older epoch is not learned, so it
//! cannot re-poison a just-cleared cache.  A refresh unanswered at the
//! `Expire` sweep gives up its arc and releases what is parked behind it:
//! a lost answer costs the operation it carried, never those that waited.
//! Plain state, data in and decisions out, like [`crate::tree`]; the
//! parked operations are whatever the caller parks.

use crate::id::Id;
use crate::router::NodeRef;
use pier_runtime::{Duration, NodeAddr, SimTime};
use std::collections::BTreeMap;

/// Hard cap on cached arcs, i.e. on distinct owners.  Reaching it first
/// purges arcs past their TTL, then evicts the least recently used, so the
/// hot destinations of a steady rehash stream survive.
pub const OWNER_CACHE_MAX: usize = 1024;

/// The arc `(start, owner.id]` a peer stated `owner` is responsible for,
/// when it was learned (TTL anchor) and last resolved something (LRU
/// anchor), and the lookup refreshing it once it is past its TTL.
#[derive(Debug, Clone, Copy)]
struct CachedArc {
    start: Id,
    owner: NodeRef,
    cached_at: SimTime,
    last_used: SimTime,
    refresh: Option<u64>,
}

/// A routed lookup in flight.
#[derive(Debug, Clone)]
pub struct Lookup<T> {
    epoch: u64,
    /// When it was issued.
    pub(crate) issued_at: SimTime,
    /// The operation it carries (`None`: a raw lookup).
    pub(crate) op: Option<T>,
    /// End of the stale arc it refreshes.
    refreshes: Option<Id>,
    /// Operations parked behind that refresh, in arrival order.
    pub parked: Vec<T>,
}

/// What the cache says about an identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Resolution {
    /// A live arc names the owner.
    Owner(NodeRef),
    /// No arc covers it.
    Miss,
    /// The arc covering it named an owner presumed dead, and is gone.
    Dead,
    /// The arc covering it, ending at `end`, is past its TTL; `refreshing`
    /// when a lookup re-asking about it is in flight.
    Stale {
        /// The arc's end.
        end: Id,
        /// Whether a refresh is in flight.
        refreshing: bool,
    },
}

/// Arcs a cache read or write dropped: `flushed` because the membership
/// epoch moved, `evicted` to stay within [`OWNER_CACHE_MAX`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Dropped {
    /// Cleared for a new membership epoch.
    pub(crate) flushed: usize,
    /// Evicted, least recently used first.
    pub(crate) evicted: usize,
}

/// One node's owner cache and lookups in flight.
#[derive(Debug, Clone)]
pub struct Resolver<T> {
    me: NodeAddr,
    ttl: Duration,
    arcs: BTreeMap<Id, CachedArc>,
    /// The membership epoch the arcs were learned in.
    epoch: u64,
    /// By lookup id: issued in order, so oldest first.
    lookups: BTreeMap<u64, Lookup<T>>,
}

impl<T> Resolver<T> {
    /// Node `me`'s resolver, trusting an arc (and waiting for a lookup)
    /// for `ttl`.
    pub fn new(me: NodeAddr, ttl: Duration) -> Self {
        Resolver {
            me,
            ttl,
            arcs: BTreeMap::new(),
            epoch: 0,
            lookups: BTreeMap::new(),
        }
    }

    /// Number of cached arcs.
    pub fn cached(&self) -> usize {
        self.arcs.len()
    }

    /// Number of lookups in flight.
    pub fn in_flight(&self) -> usize {
        self.lookups.len()
    }

    /// Clear the cache if the membership epoch moved; how many arcs went.
    fn sync(&mut self, epoch: u64) -> Dropped {
        let mut dropped = Dropped::default();
        if epoch != self.epoch {
            dropped.flushed = self.arcs.len();
            self.arcs.clear();
            self.epoch = epoch;
        }
        dropped
    }

    /// The cached owner of `id`: the first arc ending at or clockwise after
    /// it, if that arc covers it.  Its LRU stamp is refreshed when it names
    /// a live owner.
    pub fn resolve(
        &mut self,
        id: Id,
        epoch: u64,
        dead: impl Fn(NodeAddr) -> bool,
        now: SimTime,
    ) -> (Resolution, Dropped) {
        let dropped = self.sync(epoch);
        let covering = self
            .arcs
            .range(id..)
            .next()
            .or_else(|| self.arcs.iter().next())
            .filter(|(end, arc)| id.in_interval(arc.start, **end))
            .map(|(end, arc)| (*end, *arc));
        let resolution = match covering {
            None => Resolution::Miss,
            Some((end, arc)) if dead(arc.owner.addr) => {
                self.arcs.remove(&end);
                Resolution::Dead
            }
            Some((end, arc)) if now.saturating_sub(arc.cached_at) > self.ttl => {
                let refreshing = arc.refresh.is_some();
                Resolution::Stale { end, refreshing }
            }
            Some((end, arc)) => {
                self.arcs.entry(end).and_modify(|arc| arc.last_used = now);
                Resolution::Owner(arc.owner)
            }
        };
        (resolution, dropped)
    }

    /// A peer stated that `owner` is responsible for `(start, owner.id]`:
    /// replace what was cached for that owner.
    pub fn learn(&mut self, start: Id, owner: NodeRef, epoch: u64, now: SimTime) -> Dropped {
        // Arcs of this node are the router's to know; and an arc that
        // starts where it ends is how a replier vouches for nothing beyond
        // the identifier asked about (as an interval, the whole ring).
        if owner.addr == self.me || start == owner.id {
            return Dropped::default();
        }
        let mut dropped = self.sync(epoch);
        if self.arcs.len() >= OWNER_CACHE_MAX && !self.arcs.contains_key(&owner.id) {
            let ttl = self.ttl;
            self.arcs
                .retain(|_, arc| now.saturating_sub(arc.cached_at) <= ttl);
            while self.arcs.len() >= OWNER_CACHE_MAX {
                // O(capacity), paid only at the bound with nothing expired.
                let lru = self.arcs.iter().min_by_key(|(_, arc)| arc.last_used);
                let lru = *lru.expect("a full cache is non-empty").0;
                self.arcs.remove(&lru);
                dropped.evicted += 1;
            }
        }
        let arc = CachedArc {
            start,
            owner,
            cached_at: now,
            last_used: now,
            refresh: None,
        };
        self.arcs.insert(owner.id, arc);
        dropped
    }

    /// Park `op` behind the lookup refreshing the stale arc ending at
    /// `stale`, if one is in flight; otherwise hand it back to pay its own.
    pub fn park(&mut self, op: T, stale: Option<Id>) -> Result<(), T> {
        let refresh = stale
            .and_then(|end| self.arcs.get(&end)?.refresh)
            .and_then(|lookup_id| self.lookups.get_mut(&lookup_id));
        match refresh {
            Some(lookup) => {
                lookup.parked.push(op);
                Ok(())
            }
            None => Err(op),
        }
    }

    /// Lookup `lookup_id`, carrying `op`, left at `now` in `epoch`; it
    /// `refreshes` the stale arc ending there, if any.  True when that arc
    /// is cached and now marked as refreshed by it.
    pub fn start(
        &mut self,
        lookup_id: u64,
        op: Option<T>,
        refreshes: Option<Id>,
        epoch: u64,
        now: SimTime,
    ) -> bool {
        let arc = refreshes.and_then(|end| self.arcs.get_mut(&end));
        let marked = arc.map(|arc| arc.refresh = Some(lookup_id)).is_some();
        let parked = Vec::new();
        let lookup = Lookup {
            epoch,
            issued_at: now,
            op,
            refreshes,
            parked,
        };
        self.lookups.insert(lookup_id, lookup);
        marked
    }

    /// Lookup `lookup_id` was answered in `epoch`: `owner` holds
    /// `(start, owner.id]`.  The stale arc it refreshed is forgotten; the
    /// answer's arc is learned if it was asked in the same epoch.  `None`
    /// when the lookup is no longer in flight.
    pub fn answer(
        &mut self,
        lookup_id: u64,
        start: Id,
        owner: NodeRef,
        epoch: u64,
        now: SimTime,
    ) -> Option<(Lookup<T>, Dropped)> {
        let lookup = self.lookups.remove(&lookup_id)?;
        if let Some(end) = lookup.refreshes {
            self.give_up_refresh(lookup_id, end);
        }
        let dropped = if lookup.epoch == epoch {
            self.learn(start, owner, epoch, now)
        } else {
            Dropped::default()
        };
        Some((lookup, dropped))
    }

    /// Forget the stale arc ending at `end` while `lookup_id` refreshes it.
    fn give_up_refresh(&mut self, lookup_id: u64, end: Id) {
        if self.arcs.get(&end).and_then(|arc| arc.refresh) == Some(lookup_id) {
            self.arcs.remove(&end);
        }
    }

    /// The `Expire` sweep, oldest first: every refresh still unanswered
    /// gives up its arc and releases what is parked behind it, in order;
    /// a lookup older than the TTL is abandoned, since nobody will answer
    /// it.  The released operations, and how many lookups were abandoned.
    pub fn sweep(&mut self, now: SimTime) -> (Vec<T>, usize) {
        let mut released = Vec::new();
        let mut stranded = Vec::new();
        for (&lookup_id, lookup) in &mut self.lookups {
            if let Some(end) = lookup.refreshes.take() {
                stranded.push((lookup_id, end));
                released.append(&mut lookup.parked);
            }
        }
        for (lookup_id, end) in stranded {
            self.give_up_refresh(lookup_id, end);
        }
        let (in_flight, ttl) = (self.lookups.len(), self.ttl);
        self.lookups
            .retain(|_, lookup| now.saturating_sub(lookup.issued_at) <= ttl);
        (released, in_flight - self.lookups.len())
    }
}
