//! # pier-security — defenses for an unfriendly Internet (§4.1)
//!
//! The PIER paper devotes its first "future work" section to the security
//! and robustness challenges of running a query processor "in the wild":
//! result fidelity under suppression and data poisoning, resource management
//! (isolation, free-riding, service flooding, containment), accountability,
//! and the defenses the authors were investigating — **redundancy**,
//! **rate limitation**, and **spot-checking with early commitment**
//! (§4.1.2).  This crate implements those defenses as reusable components
//! and provides the measurement harness the paper describes:
//!
//! > "we examine the change in simple metrics such as the fraction of data
//! > sources suppressed by the adversary and relative result error"
//!
//! * [`sketch`] — duplicate-insensitive synopses (Flajolet–Martin style
//!   count/sum sketches) so the same datum can be counted along several
//!   redundant paths without inflating the answer, following the
//!   duplicate-insensitive summarization work the paper cites ([3, 13, 50]).
//! * [`topology`] — deterministic aggregation-tree construction over a set
//!   of overlay identifiers, including *k* independent (root-salted) trees
//!   and multi-parent DAGs used by the redundancy defense.
//! * [`adversary`] — an adversary model (suppression, poisoning,
//!   partial-dropping) applied to aggregation topologies, and the fidelity
//!   metrics (suppressed-source fraction, relative result error) used to
//!   compare defenses.
//! * [`rate_limit`] — token buckets, per-client resource accounting over a
//!   sliding window with cluster-wide aggregation hooks, and the
//!   reciprocative peer strategy of \[21\] / \[47\].
//! * [`spot_check`] — early commitment of aggregation inputs through a
//!   Merkle tree plus probabilistic spot-checking of the committed inputs
//!   (the SIA-style verification of \[55\]).
//! * [`reputation`] — an accountability ledger recording per-node verified
//!   misbehaviour and producing an exclusion set for query retry / node
//!   selection.
//!
//! Everything here is deterministic and free of external dependencies so
//! that the adversary experiments replay exactly from a seed.

pub mod adversary;
pub mod rate_limit;
pub mod reputation;
pub mod sketch;
pub mod spot_check;
pub mod topology;

pub use adversary::{Adversary, AdversaryConfig, FidelityReport};
pub use rate_limit::{ClientMonitor, Reciprocation, TokenBucket};
pub use reputation::{Observation, ReputationDb};
pub use sketch::{CountSketch, SumSketch};
pub use spot_check::{Commitment, MerkleProof, MerkleTree, SpotChecker};
pub use topology::{AggregationTopology, TopologyKind};
