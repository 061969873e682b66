//! The soft-state lifecycle of a continuous query.
//!
//! A standing query must not outlive its owner: PIER keeps *all* distributed
//! state soft (§3.2.3), and continuous queries follow the same discipline.
//! The plan crosses the network once; afterwards the query's proxy
//! **renews it by name** — the broadcast form of the DHT's own `renew`
//! (§3.2.4, Table 2: "a renew succeeds only if the item is already at the
//! destination; if it fails, put it again").  Every round of the proxy's
//! renewal clock broadcasts one *lease roster* listing all the standing
//! queries it still owns; a node renews the [`Lease`] of each listed query
//! it holds and pulls the plans of the ones it lacks from the proxy.  A node
//! that misses renewals (partitioned away, or the owner went away — or
//! simply stopped naming the query) silently uninstalls it when the lease
//! expires.  The pull doubles as churn repair: a node that joined — or
//! restarted — after the original dissemination lacks everything on the
//! first roster it sees and joins the computation one round-trip later.
//!
//! [`RenewalBackoff`] is the renewal clock's schedule: one per *proxy*,
//! retuned every round to the tightest of the standing queries it serves
//! (base = the smallest `renew_every`, cap = the smallest `lease −
//! renew_every/2`), so no backoff can stretch a gap past any lease.  A
//! round may also *ride a plan*: when the proxy broadcasts a new standing
//! plan while its pending round is already inside the window the delay was
//! drawn from (`[last round + d/2, due)`), it takes the round then and the
//! roster travels in the plan's broadcast.  The gap it leaves is one the
//! schedule could have drawn, so the bounds above hold either way.
//!
//! [`CqBudget`] is the per-query work/state bound every node enforces
//! locally (PIQL-style bounded-work contracts): a continuous query may be
//! long-lived, but its footprint on any node is capped.

use pier_runtime::{Duration, Rng64, SimTime, WireSize};

/// Per-node, per-query work and state bounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CqBudget {
    /// Maximum simultaneously open windows (oldest evicts beyond this).
    pub max_open_windows: u32,
    /// Maximum groups held per window (further groups are shed).
    pub max_groups_per_window: u32,
    /// Maximum tuples folded into one window at this node (work bound).
    pub max_tuples_per_window: u64,
}

impl Default for CqBudget {
    fn default() -> Self {
        CqBudget {
            max_open_windows: 64,
            max_groups_per_window: 4_096,
            max_tuples_per_window: 1_000_000,
        }
    }
}

impl WireSize for CqBudget {
    fn wire_size(&self) -> usize {
        16
    }
}

/// A node's lease on one continuous query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lease {
    /// When the lease expires if not renewed.
    pub expires_at: SimTime,
    /// How much each renewal extends the lease.
    pub duration: Duration,
    /// Renewals observed (diagnostics).
    pub renewals: u32,
}

impl Lease {
    /// A fresh lease granted at `now`.
    pub fn granted(now: SimTime, duration: Duration) -> Self {
        Lease {
            expires_at: now.saturating_add(duration),
            duration,
            renewals: 0,
        }
    }

    /// Extend the lease from `now` (a renewal arrived).
    pub fn renew(&mut self, now: SimTime) {
        self.expires_at = self.expires_at.max(now.saturating_add(self.duration));
        self.renewals += 1;
    }

    /// True once the lease has lapsed.
    pub fn expired(&self, now: SimTime) -> bool {
        now >= self.expires_at
    }

    /// Classify the lease at `now`, distinguishing a peer that is
    /// *restarted-and-rehydrating* from one that is *gone*.  With durable
    /// window segments, a node that crashes and restarts can rejoin with
    /// warm state — tearing its query down at the instant the lease lapses
    /// would throw that state away.  `rehydrate_grace` is the extra window
    /// after expiry during which the holder keeps the query's state parked
    /// (status [`LeaseStatus::Rehydrating`]) waiting for a renewal from the
    /// restarted owner; only after it passes is the query
    /// [`LeaseStatus::Gone`] and swept.  A zero grace reproduces the
    /// original hard-expiry behaviour.
    pub fn status(&self, now: SimTime, rehydrate_grace: Duration) -> LeaseStatus {
        if now < self.expires_at {
            LeaseStatus::Active
        } else if now < self.expires_at.saturating_add(rehydrate_grace) {
            LeaseStatus::Rehydrating
        } else {
            LeaseStatus::Gone
        }
    }
}

/// Where a lease stands in its life, including the restart grace window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LeaseStatus {
    /// The lease is live.
    Active,
    /// The lease lapsed recently; the owner may be a restarted node still
    /// rehydrating durable state, so keep the query parked.
    Rehydrating,
    /// The lease lapsed beyond the grace window: the owner is gone, sweep.
    Gone,
}

/// Jittered exponential backoff for a proxy's lease-renewal rounds.
///
/// A fixed renewal interval synchronises: after a partition heals, every
/// proxy whose renewals were failing broadcasts at the same instant and
/// the burst congests exactly the links that just recovered.  This schedule
/// instead draws each delay uniformly from `[d/2, d)` ("equal jitter") where
/// `d = min(base << attempt, cap)`: renewals that keep failing spread out
/// exponentially, and a success resets the schedule to the base interval.
///
/// The first no-progress round is **grace**, not failure: a healthy windowed
/// query emits on its own `EVERY` cadence, and a renewal tick landing just
/// before an emission tick routinely sees "no new results" for one round.
/// Backing off on that phase misalignment would throttle the rosters —
/// the very mechanism that repairs churned-in nodes — so the delay only
/// starts doubling on the *second* consecutive miss.  All randomness comes
/// from the caller's [`Rng64`], so runs replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RenewalBackoff {
    base: Duration,
    cap: Duration,
    misses: u32,
}

impl RenewalBackoff {
    /// A schedule starting at `base` and never exceeding `cap` per step.
    pub fn new(base: Duration, cap: Duration) -> Self {
        RenewalBackoff {
            base: base.max(1),
            cap: cap.max(base.max(1)),
            misses: 0,
        }
    }

    /// Move the schedule to a new base interval and cap, keeping the miss
    /// count: a proxy's one renewal clock serves whichever standing queries
    /// it owns *now*, and its bounds follow the tightest of them.
    pub fn retune(&mut self, base: Duration, cap: Duration) {
        *self = RenewalBackoff {
            misses: self.misses,
            ..RenewalBackoff::new(base, cap)
        };
    }

    /// Escalations applied since the last reset (0 while in grace).
    pub fn attempt(&self) -> u32 {
        self.misses.saturating_sub(1)
    }

    /// Note a no-progress renewal round.  The first is forgiven (grace);
    /// from the second consecutive miss on, the next delay doubles, up to
    /// the cap.
    pub fn escalate(&mut self) {
        self.misses = self.misses.saturating_add(1).min(33);
    }

    /// Note a successful renewal: the schedule returns to the base interval.
    pub fn reset(&mut self) {
        self.misses = 0;
    }

    /// The current ceiling `d = min(base << attempt, cap)`.
    pub fn ceiling(&self) -> Duration {
        let factor = 1u64.checked_shl(self.attempt()).unwrap_or(u64::MAX);
        self.base.saturating_mul(factor).min(self.cap).max(2)
    }

    /// Draw the next delay: uniform in `[d/2, d)` for the current
    /// [`ceiling`](RenewalBackoff::ceiling) `d`.
    pub fn next_delay(&self, rng: &mut Rng64) -> Duration {
        let ceiling = self.ceiling();
        let half = ceiling / 2;
        half + rng.next_below(ceiling - half)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lease_expires_without_renewal() {
        let lease = Lease::granted(100, 50);
        assert!(!lease.expired(149));
        assert!(lease.expired(150));
    }

    #[test]
    fn renewal_extends_from_now() {
        let mut lease = Lease::granted(0, 50);
        lease.renew(40);
        assert_eq!(lease.expires_at, 90);
        assert_eq!(lease.renewals, 1);
        // A stale renewal (clock skew) never shortens the lease.
        lease.renew(10);
        assert_eq!(lease.expires_at, 90);
    }

    #[test]
    fn status_distinguishes_rehydrating_from_gone() {
        let lease = Lease::granted(0, 100);
        assert_eq!(lease.status(99, 50), LeaseStatus::Active);
        assert_eq!(lease.status(100, 50), LeaseStatus::Rehydrating);
        assert_eq!(lease.status(149, 50), LeaseStatus::Rehydrating);
        assert_eq!(lease.status(150, 50), LeaseStatus::Gone);
        // Zero grace reproduces hard expiry.
        assert_eq!(lease.status(100, 0), LeaseStatus::Gone);
    }

    #[test]
    fn backoff_grows_jittered_and_resets() {
        let mut rng = Rng64::new(7);
        let mut b = RenewalBackoff::new(1_000, 16_000);
        let d0 = b.next_delay(&mut rng);
        assert!((500..1_000).contains(&d0));
        // The first miss is grace: still the base interval.
        b.escalate();
        assert_eq!(b.attempt(), 0);
        let grace = b.next_delay(&mut rng);
        assert!((500..1_000).contains(&grace));
        // The second consecutive miss starts doubling.
        b.escalate();
        b.escalate();
        let d2 = b.next_delay(&mut rng);
        assert!((2_000..4_000).contains(&d2));
        for _ in 0..10 {
            b.escalate();
        }
        let capped = b.next_delay(&mut rng);
        assert!((8_000..16_000).contains(&capped), "cap bounds the ceiling");
        b.reset();
        let back = b.next_delay(&mut rng);
        assert!((500..1_000).contains(&back));
    }

    #[test]
    fn retuning_moves_the_bounds_and_keeps_the_misses() {
        let mut rng = Rng64::new(7);
        let mut b = RenewalBackoff::new(1_000, 16_000);
        for _ in 0..3 {
            b.escalate();
        }
        assert!((2_000..4_000).contains(&b.next_delay(&mut rng)));
        // A tighter query arrived: same escalation, its bounds.
        b.retune(100, 250);
        assert_eq!(b.attempt(), 2);
        assert!((125..250).contains(&b.next_delay(&mut rng)), "capped");
        b.reset();
        assert!((50..100).contains(&b.next_delay(&mut rng)));
    }

    #[test]
    fn backoff_desynchronises_equal_schedules() {
        // Two proxies with the same schedule but different rng streams must
        // not renew at the same instant — the whole point of the jitter.
        let mut r1 = Rng64::new(1);
        let mut r2 = Rng64::new(2);
        let b = RenewalBackoff::new(1_000_000, 8_000_000);
        let delays1: Vec<Duration> = (0..8).map(|_| b.next_delay(&mut r1)).collect();
        let delays2: Vec<Duration> = (0..8).map(|_| b.next_delay(&mut r2)).collect();
        assert_ne!(delays1, delays2);
        // And the same stream replays identically.
        let mut r1b = Rng64::new(1);
        let replay: Vec<Duration> = (0..8).map(|_| b.next_delay(&mut r1b)).collect();
        assert_eq!(delays1, replay);
    }

    #[test]
    fn default_budget_is_finite() {
        let b = CqBudget::default();
        assert!(b.max_open_windows > 0);
        assert!(b.max_groups_per_window > 0);
        assert!(b.max_tuples_per_window > 0);
    }
}
