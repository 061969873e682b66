//! # pier-dht — the overlay network (distributed hash table)
//!
//! PIER's communication substrate is a DHT-based overlay network (§3.2 of
//! the paper) with three core components:
//!
//! * **naming** ([`naming`]) — every object is named by a namespace, a
//!   partitioning key and a random suffix; the namespace and key determine
//!   the object's routing identifier ([`id`]),
//! * **routing** ([`router`]) — a Chord-style multi-hop router with
//!   successor lists, finger tables, stabilization and churn handling, and
//! * **state** ([`object_manager`]) — a purely local soft-state store with
//!   per-object lifetimes, renewal and garbage collection.
//!
//! The [`wrapper`] ties the three together behind the Table-2 API (`get`,
//! `put`, `send`, `renew`, `localScan`, `newData`, `upcall`), resolving
//! owners through the arcs earlier answers stated ([`resolver`]), and also
//! provides the query-dissemination **distribution tree** ([`tree`]),
//! whose broadcasts flood from their origin.  [`node::DhtNode`] packages
//! an overlay as a runnable [`pier_runtime::Program`] so the DHT can be
//! exercised on its own.
//!
//! The query processor (`pier-core`) reuses this overlay aggressively — for
//! query dissemination, hash indexes, range-index substrate, partitioned
//! parallelism, operator state and hierarchical operators (§3.3.6).
//!
//! ## Invariants
//!
//! * **Soft state only** (§3.2.3): every stored object carries a lifetime
//!   capped by the node's maximum; expiry is garbage collection, renewal
//!   ([`Overlay::renew`]) fails once an object has lapsed, and no deletion
//!   protocol exists — publishers that want persistence must re-put or
//!   renew before expiry.
//! * **Names route**: an object's routing identifier is derived from
//!   (namespace, key) alone ([`routing_id`]); the random suffix only
//!   distinguishes objects sharing a partition, so all suffixes of a
//!   (namespace, key) land on — and are fetched from — one responsible
//!   node (modulo churn-induced handoff windows).
//! * **Resolve, transfer, check**: every `put`/`get`/`renew` (and each
//!   `put_batch` entry) asks one resolver for the owner — the router's own
//!   neighbor state, then arcs remembered from earlier answers, then a
//!   routed lookup — and sends one direct message; the receiver runs it
//!   only if it [`Router::is_responsible`] for the identifier and
//!   otherwise forwards it through a fresh routed lookup.  A remembered
//!   arc can therefore cost a forward, never a misplaced object or an
//!   answer from the wrong store.
//! * **Batching never changes semantics**: [`DhtMessage::PutBatch`] /
//!   [`Overlay::put_batch`] coalesce message *framing* only — every entry
//!   keeps its own name, payload and lifetime, and the receiver stores
//!   entries exactly as it would separate `PutRequest`s.  The framing is
//!   dictionary-encoded (each distinct namespace charged once per batch),
//!   mirroring the columnar `TupleBatch` payload above it.
//! * **Upcalls may consume**: a `send` travelling hop-by-hop is handed to
//!   every intermediate node's application by value (§3.2.4,
//!   [`RoutedObject`]); the node either continues it with
//!   [`Overlay::forward`] or absorbs it by not doing so — the mechanism
//!   hierarchical aggregation and window-partial combining are built on.
//! * **A broadcast costs at most one delivery per node**: it carries an
//!   identity ([`BroadcastId`]) and every node delivers and forwards it at
//!   most once, whatever the tree's soft state holds — a stale or cyclic
//!   children graph costs messages it would not otherwise, never a storm.

pub mod id;
pub mod messages;
pub mod naming;
pub mod node;
pub mod object_manager;
pub mod resolver;
pub mod router;
pub mod tree;
pub mod wrapper;

pub use id::{hash_str, routing_id, Id};
pub use messages::{DhtMessage, RoutedObject};
pub use naming::{ObjectName, PartitionKey};
pub use node::{make_ring_refs, DhtNode};
pub use object_manager::{ObjectManager, StoredObject};
pub use router::{NodeRef, Router, RouterConfig};
pub use tree::{BroadcastId, Direction, DistributionTree};
pub use wrapper::{
    Overlay, OverlayConfig, OverlayEffect, OverlayEvent, OverlayTimer, TREE_ROOT_NAME,
};
