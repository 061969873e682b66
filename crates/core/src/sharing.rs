//! The multi-query sharing seam: the executor-side contract of `pier-mqo`.
//!
//! PIER's stated target is *thousands* of simultaneous continuous queries —
//! network-monitoring deployments where many users install near-identical
//! standing queries differing only in constants.  Cross-query work sharing
//! is the decisive optimization at that scale, and it is a *separable
//! subsystem*: plan normalization, predicate indexing and group membership
//! live in the `pier-mqo` crate, while the executor ([`crate::node`]) only
//! knows this trait.  A node constructed with a
//! [`SharingFactory`](crate::node::PierConfig::sharing) routes query
//! install/uninstall and ingest chunks through the layer; without one it
//! behaves exactly as before.
//!
//! The protocol, in the order a query experiences it:
//!
//! 1. **Install** — a standing plan whose share group is live at its proxy
//!    crosses the tree in its **member form** ([`MemberInstall`]): the
//!    group's fingerprint, the query's id and lifetime and its
//!    [`MemberSpec`], not the plan ([`MultiQuerySharing::member_form`]).
//!    A member of a live group installs by its constants
//!    ([`MultiQuerySharing::join`]); a node without the group pulls the
//!    whole plan from the proxy.  A whole plan — the first of its shape, a
//!    pulled one, one that cannot be shared — is offered to the layer
//!    first ([`MultiQuerySharing::try_install`]), which normalizes it and
//!    joins it the same way.  Either way the layer answers with a
//!    [`Membership`]: this query's [`MemberSpec`] and — for a group's
//!    first member — the group's [`EngineSpec`].  The executor builds
//!    **no** per-query dataflow; it adds the member to the group's
//!    [`crate::window_engine::WindowEngine`] (opening and ticking it when
//!    handed the spec) and arms the member's lease/timeout timers.
//! 2. **Ingest** — each arriving [`ColumnChunk`] of a namespace some group
//!    reads is handed to the layer **once** ([`MultiQuerySharing::select`]);
//!    the layer scans it with the group's predicate index and hands back
//!    the union mask, under which the executor's engine absorbs the chunk.
//! 3. **Ticks, partials, leases, durability** — the executor's, through the
//!    same engine code an unshared query runs.
//! 4. **Teardown** — timeouts and lease lapses route through
//!    [`MultiQuerySharing::uninstall`]; when a group loses its last member
//!    the layer retires it and the executor drops the engine.  The group's
//!    interned schemas (`g{fp:016x}.…`) go with the last handle: the schema
//!    registry forgets what nothing holds, so nothing leaks.

use crate::plan::QueryPlan;
use crate::tuple::ColumnChunk;
use crate::window_engine::{EngineSpec, MemberSpec};
use pier_runtime::{Duration, WireSize};

/// Constructor hook for a sharing layer, carried by
/// [`PierConfig`](crate::node::PierConfig) (a plain function pointer so the
/// config stays `Clone`).  `pier-mqo` exports one.
pub type SharingFactory = fn() -> Box<dyn MultiQuerySharing + Send>;

/// Outcome of offering a plan to the sharing layer.
#[derive(Debug, Clone, PartialEq)]
pub enum InstallOutcome {
    /// The plan does not normalize into a share group; the executor must
    /// install it independently, exactly as without a sharing layer.
    NotShareable,
    /// The query joined a share group; the executor owns its engine.
    Member(Box<Membership>),
}

/// A query's place in a share group.
#[derive(Debug, Clone, PartialEq)]
pub struct Membership {
    /// The share-group identifier (the plan fingerprint).
    pub group: u64,
    /// The group's **incarnation**: groups share a fingerprint across
    /// retire/re-create cycles (the last member leaves, a new
    /// constant-varied query re-forms the group), but every incarnation
    /// gets a fresh epoch.  The executor's tick chain carries the epoch it
    /// was armed with and stops when it no longer matches, so a stale
    /// pending timer from a retired incarnation cannot stack a duplicate
    /// permanent tick chain onto the new one.
    pub epoch: u64,
    /// Set when this member created the group (a new incarnation): the
    /// engine the executor must open and start ticking.  Its namespaces
    /// `g{fp:016x}.windows` / `g{fp:016x}.root` are identical on every
    /// node, so partials combine across the overlay with no coordination.
    pub engine: Option<EngineSpec>,
    /// This query's member-level residue.
    pub member: MemberSpec,
}

/// A standing query on its way to join a share group that is live at its
/// proxy: what differs from the group's other members — the group's
/// fingerprint, the query's id and remaining lifetime, and its
/// [`MemberSpec`] — and not the plan the group was formed from.  A node
/// whose group is live joins it by these constants
/// ([`MultiQuerySharing::join`]); any other pulls the whole plan from
/// `member.proxy`.
#[derive(Debug, Clone, PartialEq)]
pub struct MemberInstall {
    /// The share group (plan fingerprint).
    pub group: u64,
    /// The query.
    pub query_id: u64,
    /// The query's remaining lifetime.
    pub timeout: Duration,
    /// The member-level residue: predicate, proxy, lease, output mode and
    /// finishers.
    pub member: MemberSpec,
}

impl WireSize for MemberInstall {
    fn wire_size(&self) -> usize {
        8 + 8 + 8 + self.member.wire_size()
    }
}

/// Outcome of removing a member query (the default: it was not one).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UninstallOutcome {
    /// True when the query was a share-group member here.
    pub was_member: bool,
    /// Set when the member was its group's last: the group has been
    /// retired.
    pub retired_group: Option<u64>,
}

/// Diagnostics of the sharing layer at one node.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SharingStats {
    /// Live share groups.
    pub groups: usize,
    /// Member queries across all groups.
    pub members: usize,
    /// Ingest chunks scanned.
    pub chunks_absorbed: u64,
    /// Rows scanned by the predicate index.
    pub rows_absorbed: u64,
    /// Rows selected by at least one member (folded into shared state).
    pub rows_selected: u64,
}

/// A pluggable cross-query sharing layer (implemented by `pier-mqo`).
///
/// All methods are infallible from the executor's point of view: a layer
/// that cannot handle something answers `NotShareable` / `false` and the
/// executor falls back to independent per-query execution, so plugging a
/// layer in can never change *which* queries run — only how much work they
/// share.
pub trait MultiQuerySharing: std::fmt::Debug + Send {
    /// Attach the node's telemetry hub.  Layers that instrument themselves
    /// (share-group membership events, predicate-index fan-out counters —
    /// `pier-mqo` does) override this; the default keeps plain layers
    /// oblivious.
    fn set_telemetry(&mut self, _tel: pier_telemetry::Telemetry) {}

    /// Offer a freshly disseminated plan for shared installation: a plan
    /// that normalizes into a share group opens the group if it is not
    /// live here and joins it as [`MultiQuerySharing::join`] does.
    fn try_install(&mut self, plan: &QueryPlan) -> InstallOutcome;

    /// The member form of `plan`, when it normalizes into a share group
    /// that is live here; `None` otherwise — the plan travels whole.
    fn member_form(&self, plan: &QueryPlan) -> Option<MemberInstall>;

    /// Join `query_id` to the live share group `group` as `member`; `None`
    /// when the group is not live here (the executor pulls the plan).  The
    /// membership names no engine: a live group has one.
    fn join(&mut self, group: u64, query_id: u64, member: MemberSpec) -> Option<Membership>;

    /// Remove a member query (timeout or lease lapse), refcounting its
    /// group down and retiring the group when it was the last member.
    fn uninstall(&mut self, query_id: u64) -> UninstallOutcome;

    /// True when some share group consumes `namespace`'s tuple stream.
    fn wants_namespace(&self, namespace: &str) -> bool;

    /// Scan one arriving chunk of `namespace` for every share group reading
    /// it (one scan, N members) and hand `absorb` each group with the union
    /// of its members' selections — bit `r % 64` of word `r / 64` set when
    /// some member wants row `r`; groups selecting no row are skipped.
    /// Streamed rows arrive as the chunks the executor's ingest stage
    /// drains; a single DHT-delivered tuple arrives as a one-row chunk.
    fn select(&mut self, namespace: &str, chunk: &ColumnChunk, absorb: &mut dyn FnMut(u64, &[u64]));

    /// Diagnostics snapshot.
    fn stats(&self) -> SharingStats;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uninstall_outcome_default_is_not_member() {
        let out = UninstallOutcome::default();
        assert!(!out.was_member);
        assert!(out.retired_group.is_none());
    }
}
