//! Object naming (§3.2.1 of the paper).
//!
//! Every object stored in the DHT is named by three parts:
//!
//! * a **namespace** — used by the query processor for table names and names
//!   of partial result sets,
//! * a **partitioning key** — generated from one or more relational
//!   attributes (the hashing attributes), which together with the namespace
//!   determines the object's *routing identifier*, and
//! * a **suffix** — a random "uniquifier" that distinguishes objects sharing
//!   the same routing identifier.

use crate::id::{routing_id, Id};
use pier_runtime::WireSize;

/// The partitioning-key component of an object name.
///
/// Keys are canonical strings derived from attribute values; deriving them
/// from strings keeps the DHT independent of the query processor's value
/// representation (the DHT never interprets keys).
pub type PartitionKey = String;

/// A fully qualified object name.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ObjectName {
    /// Table name or partial-result-set name.
    pub namespace: String,
    /// Canonical string form of the hashing attribute(s).
    pub key: PartitionKey,
    /// Uniquifier distinguishing objects with equal (namespace, key): drawn
    /// at random, or derived from what already tells the object apart.
    pub suffix: u64,
}

impl ObjectName {
    /// Construct a name.
    pub fn new(namespace: impl Into<String>, key: impl Into<String>, suffix: u64) -> Self {
        ObjectName {
            namespace: namespace.into(),
            key: key.into(),
            suffix,
        }
    }

    /// The routing identifier: where on the ring this object lives.
    pub fn routing_id(&self) -> Id {
        routing_id(&self.namespace, &self.key)
    }

    /// The (namespace, key) pair without the suffix — the granularity at
    /// which `get` retrieves objects.
    pub fn group(&self) -> (String, PartitionKey) {
        (self.namespace.clone(), self.key.clone())
    }
}

impl std::fmt::Display for ObjectName {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}#{:x}", self.namespace, self.key, self.suffix)
    }
}

impl WireSize for ObjectName {
    fn wire_size(&self) -> usize {
        self.namespace.wire_size() + self.key.wire_size() + 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routing_id_ignores_suffix() {
        let a = ObjectName::new("files", "key=rock", 1);
        let b = ObjectName::new("files", "key=rock", 999);
        assert_eq!(a.routing_id(), b.routing_id());
        assert_ne!(a, b);
    }

    #[test]
    fn routing_id_depends_on_namespace_and_key() {
        let a = ObjectName::new("files", "rock", 0);
        let b = ObjectName::new("files", "jazz", 0);
        let c = ObjectName::new("events", "rock", 0);
        assert_ne!(a.routing_id(), b.routing_id());
        assert_ne!(a.routing_id(), c.routing_id());
    }

    #[test]
    fn display_and_group() {
        let n = ObjectName::new("t", "k", 0x2a);
        assert_eq!(n.to_string(), "t/k#2a");
        assert_eq!(n.group(), ("t".to_string(), "k".to_string()));
        assert!(n.wire_size() > 8);
    }
}
