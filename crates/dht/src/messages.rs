//! Messages exchanged between overlay wrappers.
//!
//! The overlay multiplexes three kinds of traffic over the node-to-node
//! transport: routing-protocol messages ([`RouterMessage`]), the direct
//! transfers of the `get`/`put`/`renew` operations of Figure 6 (sent once
//! the wrapper has resolved an owner, and checked by the receiver), routed
//! `send` traffic that travels hop-by-hop through the overlay, and
//! broadcasts flooded over the distribution tree ([`crate::tree`]).
//!
//! [`DhtMessage::PutBatch`] extends the Figure-6 vocabulary with a
//! *coalesced* direct transfer: when the sender can already name the
//! destination from local routing state, several independent puts share one
//! message.  This preserves the paper's per-object model — every entry
//! keeps its own name, payload and soft-state lifetime, and the receiver
//! stores them exactly as it would separate `PutRequest`s — it only removes
//! the per-object message framing, which dominates the cost of the query
//! processor's rehash/exchange hot path.  The batch framing is
//! dictionary-encoded: each distinct namespace string is charged once per
//! message, mirroring the payload-level counterpart — `pier_core`'s
//! columnar `TupleBatch`, whose wire size charges each self-describing
//! schema once per batch and then counts each chunk's **typed body
//! encoding** exactly: native little-endian `i64`/`f64` buffers, dictionary
//! pages and byte arenas for strings, and packed validity words (§3.3.1's
//! "no catalog" requirement constrains what travels between trust domains,
//! not how often identical column names or value tags must be repeated
//! within a single transfer).  [`DhtMessage::GetRequest`] is the read-side
//! counterpart: the keys one call asks of one owner share a request, the
//! namespace stated once, and come back in one [`DhtMessage::GetResponse`]
//! — each key still answered under its own token, as its own `get`.

use crate::naming::ObjectName;
use crate::object_manager::StoredObject;
use crate::router::RouterMessage;
use crate::tree::BroadcastId;
use crate::Id;
use pier_runtime::{Duration, NodeAddr, WireSize};
use pier_trace::TraceContext;

/// Wire bytes an optional trace context costs: [`TraceContext::WIRE_BYTES`]
/// when present, **zero** when absent — with sampling off every message is
/// bit-identical in size to a build without tracing.
pub(crate) fn trace_wire_size(trace: &Option<TraceContext>) -> usize {
    trace.map_or(0, |t| t.wire_size())
}

/// Most keys one [`DhtMessage::GetRequest`] carries: its count is one byte.
pub const GET_KEYS_MAX: usize = u8::MAX as usize;

/// A message between two overlay instances.  `V` is the application payload
/// type (for PIER: tuples, opgraphs and partial aggregates).
#[derive(Debug, Clone)]
pub enum DhtMessage<V> {
    /// Routing-protocol traffic (lookups, stabilization, notify).
    Routing(RouterMessage),
    /// Direct request for the objects stored under each of `keys` in one
    /// namespace, sent to the node the requester resolved as their owner
    /// (a single `get` is a request of one key).  The receiver answers the
    /// keys it is responsible for in one [`DhtMessage::GetResponse`] and
    /// forwards each other key on its own, `reply_to` and token untouched.
    GetRequest {
        /// Table or result-set namespace.
        namespace: String,
        /// `(partitioning key, correlation token chosen by the requester)`,
        /// at most [`GET_KEYS_MAX`] of them.
        keys: Vec<(String, u64)>,
        /// Where to send the response.
        reply_to: NodeAddr,
    },
    /// Response to [`DhtMessage::GetRequest`]: every key of it the sender
    /// is responsible for.
    GetResponse {
        /// Namespace queried.
        namespace: String,
        /// `(token from the request, key queried, matching objects — all
        /// suffixes)` per key answered.
        answers: Vec<(u64, String, Vec<StoredObject<V>>)>,
    },
    /// Direct transfer of an object to the node the sender resolved as
    /// responsible for it; a receiver that is not forwards it.
    PutRequest {
        /// Full object name.
        name: ObjectName,
        /// Payload.
        value: V,
        /// Requested soft-state lifetime, microseconds.
        lifetime: Duration,
        /// Trace context when the putting query is sampled.
        trace: Option<TraceContext>,
    },
    /// Several independent puts destined for the same node, coalesced into
    /// one transfer ([`Overlay::put_batch`](crate::Overlay::put_batch)).
    /// Each entry keeps its own full name and requested lifetime, so the
    /// receiver stores them exactly as it would `len(entries)` separate
    /// [`DhtMessage::PutRequest`]s — per-object soft-state semantics are
    /// unchanged; only the message framing is shared.
    PutBatch {
        /// `(name, payload, lifetime)` per object.
        entries: Vec<(ObjectName, V, Duration)>,
        /// Trace context when the putting query is sampled (one per batch:
        /// a batch comes from one flush, so its entries share a parent).
        trace: Option<TraceContext>,
    },
    /// Direct request to extend an object's lifetime (fails if the object is
    /// not already stored at the destination).
    RenewRequest {
        /// Full object name.
        name: ObjectName,
        /// Requested lifetime extension, microseconds.
        lifetime: Duration,
        /// Where to send the response.
        reply_to: NodeAddr,
        /// Correlation token chosen by the requester.
        request_id: u64,
    },
    /// Response to [`DhtMessage::RenewRequest`].
    RenewResponse {
        /// Correlation token from the request.
        request_id: u64,
        /// Whether the renewal succeeded.
        success: bool,
    },
    /// A `send`: the object travels hop-by-hop toward the node responsible
    /// for its routing identifier, with an upcall offered at every
    /// intermediate node (§3.2.4, Figure 6).
    Routed(RoutedObject<V>),
    /// Distribution-tree membership: the sender announces itself as a child
    /// to its parent (the first hop on its route toward the tree root).
    TreeJoin,
    /// A broadcast hop from a node to its distribution-tree parent: the
    /// receiver delivers it and sends it on to its own parent and down to
    /// its other children ([`crate::tree`]).
    TreeBroadcastUp {
        /// The broadcast's identity; a node that has seen it drops it.
        id: BroadcastId,
        /// Payload to broadcast.
        payload: V,
    },
    /// A broadcast hop from a node to one of its distribution-tree
    /// children: the receiver delivers it and sends it down to its own
    /// children.
    TreeBroadcastDown {
        /// The broadcast's identity; a node that has seen it drops it.
        id: BroadcastId,
        /// Payload being broadcast.
        payload: V,
    },
}

/// An object on its way, hop by hop, to the node responsible for `target`
/// ([`DhtMessage::Routed`]); an intermediate node's upcall receives it by
/// value and continues it with [`Overlay::forward`](crate::Overlay::forward)
/// or consumes it.
#[derive(Debug, Clone)]
pub struct RoutedObject<V> {
    /// Destination identifier (the object's routing id or an explicit
    /// target such as an aggregation-tree root).
    pub target: Id,
    /// Full object name.
    pub name: ObjectName,
    /// Payload.
    pub value: V,
    /// Requested soft-state lifetime at the destination, microseconds.
    pub lifetime: Duration,
    /// Hops taken so far.
    pub hops: u32,
    /// Trace context when the sending query is sampled; preserved
    /// hop-by-hop so the receiving upcall parents correctly.
    pub trace: Option<TraceContext>,
}

impl<V: WireSize> WireSize for DhtMessage<V> {
    fn wire_size(&self) -> usize {
        match self {
            DhtMessage::Routing(m) => 1 + m.wire_size(),
            // Both get frames: the namespace once, a count byte, then per
            // key its token and string (and, answered, its objects).
            DhtMessage::GetRequest {
                namespace, keys, ..
            } => {
                let keys = keys.iter().map(|(key, _)| key.wire_size() + 8);
                1 + namespace.wire_size() + 6 + 1 + keys.sum::<usize>()
            }
            DhtMessage::GetResponse { namespace, answers } => {
                let answers = answers
                    .iter()
                    .map(|(_, key, objects)| 8 + key.wire_size() + objects.wire_size());
                1 + namespace.wire_size() + 1 + answers.sum::<usize>()
            }
            DhtMessage::PutRequest {
                name, value, trace, ..
            } => 1 + name.wire_size() + value.wire_size() + 8 + trace_wire_size(trace),
            DhtMessage::PutBatch { entries, trace } => {
                // Dictionary-encoded framing, matching the columnar payload
                // layout of `pier_core`'s `TupleBatch`: each distinct
                // namespace string is charged once per batch, every entry
                // then pays a 2-byte namespace reference plus its key,
                // suffix, lifetime and payload.  Entries of one batch almost
                // always share a namespace (they come from one rehash or
                // partial-aggregate flush), so the repeated self-describing
                // header collapses exactly like a chunk's schema does.
                let mut namespaces: Vec<&str> = Vec::new();
                1 + 4
                    + trace_wire_size(trace)
                    + entries
                        .iter()
                        .map(|(name, value, _)| {
                            let ns = if namespaces.contains(&name.namespace.as_str()) {
                                0
                            } else {
                                namespaces.push(&name.namespace);
                                name.namespace.wire_size()
                            };
                            ns + 2 + name.key.wire_size() + 8 + value.wire_size() + 8
                        })
                        .sum::<usize>()
            }
            DhtMessage::RenewRequest { name, .. } => 1 + name.wire_size() + 8 + 6 + 8,
            DhtMessage::RenewResponse { .. } => 1 + 9,
            DhtMessage::Routed(RoutedObject {
                name, value, trace, ..
            }) => 1 + 8 + name.wire_size() + value.wire_size() + 8 + 4 + trace_wire_size(trace),
            DhtMessage::TreeJoin => 1,
            DhtMessage::TreeBroadcastUp { id, payload }
            | DhtMessage::TreeBroadcastDown { id, payload } => {
                1 + id.wire_size() + payload.wire_size()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::RouterMessage;

    #[test]
    fn wire_sizes_scale_with_payload() {
        let id = BroadcastId {
            origin: NodeAddr(1),
            seq: 1,
        };
        let small: DhtMessage<String> = DhtMessage::TreeBroadcastUp {
            id,
            payload: "x".to_string(),
        };
        let big: DhtMessage<String> = DhtMessage::TreeBroadcastDown {
            id,
            payload: "x".repeat(1000),
        };
        assert!(big.wire_size() > small.wire_size() + 900);
    }

    #[test]
    fn put_batch_framing_charges_each_namespace_once() {
        let entries: Vec<(ObjectName, u64, u64)> = (0..16)
            .map(|i| {
                (
                    ObjectName::new("shared.namespace", format!("k{i}"), i),
                    i,
                    60,
                )
            })
            .collect();
        let separate: usize = entries
            .iter()
            .map(|(name, value, _)| {
                DhtMessage::PutRequest {
                    name: name.clone(),
                    value: *value,
                    lifetime: 60,
                    trace: None,
                }
                .wire_size()
            })
            .sum();
        let batched = DhtMessage::PutBatch {
            entries,
            trace: None,
        }
        .wire_size();
        assert!(
            batched < separate,
            "batched framing {batched} must undercut {separate} separate puts"
        );
        // The saving is at least 15 repetitions of the namespace string
        // minus the per-entry 2-byte references and batch overhead.
        let ns_bytes = "shared.namespace".wire_size();
        assert!(batched <= separate - 15 * ns_bytes + 4 + 2 * 16);
    }

    #[test]
    fn absent_trace_context_costs_zero_wire_bytes() {
        let name = ObjectName::new("ns", "k", 1);
        let untraced: DhtMessage<u64> = DhtMessage::PutRequest {
            name: name.clone(),
            value: 7,
            lifetime: 60,
            trace: None,
        };
        let traced: DhtMessage<u64> = DhtMessage::PutRequest {
            name,
            value: 7,
            lifetime: 60,
            trace: Some(TraceContext::root(42)),
        };
        assert_eq!(
            traced.wire_size(),
            untraced.wire_size() + TraceContext::WIRE_BYTES
        );
        let routed_plain: DhtMessage<u64> = DhtMessage::Routed(RoutedObject {
            target: Id(1),
            name: ObjectName::new("ns", "k", 2),
            value: 7,
            lifetime: 60,
            hops: 0,
            trace: None,
        });
        let baseline = 1 + 8 + ObjectName::new("ns", "k", 2).wire_size() + 7u64.wire_size() + 8 + 4;
        assert_eq!(routed_plain.wire_size(), baseline);
        // The third carrier: one context per batch, none when untraced.
        let batch = |trace| DhtMessage::PutBatch {
            entries: vec![(ObjectName::new("ns", "k", 3), 7u64, 60); 2],
            trace,
        };
        assert_eq!(
            batch(Some(TraceContext::root(42))).wire_size(),
            batch(None).wire_size() + TraceContext::WIRE_BYTES
        );
    }

    #[test]
    fn get_frames_charge_the_namespace_once_and_a_single_get_one_count_byte() {
        let object = |key: &str| StoredObject {
            name: ObjectName::new("ns", key, 1),
            value: 7u64,
            expires_at: 60,
        };
        let request = |keys: &[&str]| -> DhtMessage<u64> {
            DhtMessage::GetRequest {
                namespace: "ns".to_string(),
                keys: keys.iter().map(|k| (k.to_string(), 1)).collect(),
                reply_to: NodeAddr(0),
            }
        };
        let response = |keys: &[&str]| DhtMessage::GetResponse {
            namespace: "ns".to_string(),
            answers: keys
                .iter()
                .map(|k| (1, k.to_string(), vec![object(k)]))
                .collect(),
        };
        let (ns, key) = ("ns".wire_size(), "k1".wire_size());
        // One key: type, namespace, reply address, count, key, token.
        assert_eq!(request(&["k1"]).wire_size(), 1 + ns + 6 + 1 + key + 8);
        let objects = vec![object("k1")].wire_size();
        assert_eq!(
            response(&["k1"]).wire_size(),
            1 + ns + 1 + 8 + key + objects
        );
        // Each further key adds its own bytes and nothing else.
        let three = ["k1", "k2", "k3"];
        assert_eq!(
            request(&three).wire_size(),
            request(&["k1"]).wire_size() + 2 * (key + 8)
        );
        assert_eq!(
            response(&three).wire_size(),
            response(&["k1"]).wire_size() + 2 * (8 + key + objects)
        );
    }

    #[test]
    fn a_tree_join_is_its_type_byte() {
        // The receiver reads the joining child off the sender's address.
        assert_eq!(DhtMessage::<u64>::TreeJoin.wire_size(), 1);
    }

    #[test]
    fn routing_messages_have_nonzero_size() {
        let m: DhtMessage<u64> = DhtMessage::Routing(RouterMessage::Notify {
            from: crate::router::NodeRef {
                id: Id(3),
                addr: NodeAddr(1),
            },
        });
        assert!(m.wire_size() > 0);
    }
}
