//! # pier-mqo — multi-query sharing with a vectorised predicate index
//!
//! PIER's design target is *thousands* of simultaneous continuous queries:
//! network-monitoring deployments where many users install near-identical
//! standing queries differing only in constants (`WHERE src = <mine>`).
//! Executed independently, every installed query costs a dataflow, a
//! per-row predicate walk over every arriving tuple, a window store, and a
//! per-query partial stream up the overlay — linear in the query count.
//! This crate turns N similar queries into **one shared dataflow**:
//!
//! * [`fingerprint`] — plan normalization: canonicalise a disseminated
//!   [`QueryPlan`](pier_core::QueryPlan)'s shape with predicate constants
//!   abstracted, so identical and constant-only-different plans hash to the
//!   same **share group** on every node independently.
//! * [`index`] — the [`PredicateIndex`]: member predicates decomposed into
//!   `column op constant` atoms, grouped **by column** into
//!   type-specialised column-at-a-time kernels over `&[Value]` (hash
//!   kernels for equality constants, specialised scans for orderings) that
//!   produce per-member selection [`mask`]s combined with bitwise ops —
//!   the per-chunk cost of N members is one scan per referenced column,
//!   not N expression walks per row.
//! * [`mod@layer`] — share-group membership implementing `pier-core`'s
//!   [`MultiQuerySharing`](pier_core::MultiQuerySharing) seam: the layer
//!   describes each group's [`WindowEngine`](pier_core::WindowEngine) —
//!   **one** shared window store fed by the union mask, **one** partial
//!   stream toward its window root, each member's per-window
//!   snapshot/delta answer derived from the shared per-group accumulators
//!   at flush — and the executor runs it, exactly as it runs an unshared
//!   query's.  A plan whose group is live at its proxy travels as its
//!   member form (fingerprint, id, lifetime, member spec), which a node
//!   with the group joins without the plan.
//!
//! ## Soundness
//!
//! Sharing is an optimization, never a semantics change.  A plan only
//! normalizes into a group when per-member derivation is *exact*: a single
//! windowed-aggregate opgraph whose selection predicate is a conjunction of
//! `column op constant` atoms over GROUP BY columns only (so the predicate
//! is constant within each group, and a member's answer is precisely the
//! subset of shared groups its predicate accepts, with bit-identical
//! accumulators).  Everything else—joins, predicates over non-grouping
//! columns or with no atom form—answers
//! `NotShareable` and runs independently.  The equivalence suite pins that
//! shared and independent execution produce identical per-query result
//! multisets, including under mid-stream install/uninstall and node churn.
//!
//! ## Plugging in
//!
//! ```no_run
//! let mut config = pier_core::PierConfig::default();
//! config.sharing = Some(pier_mqo::layer);
//! // PierNode::with_static_ring(me, &ring, config) now shares.
//! ```

pub mod fingerprint;
pub mod index;
pub mod layer;
pub mod mask;

pub use fingerprint::{normalize, ShareCandidate};
pub use index::PredicateIndex;
pub use layer::{layer, MqoLayer};
pub use mask::SelMask;
