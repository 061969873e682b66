//! # pier-security — the §4.1 defenses EXP-I models
//!
//! The PIER paper devotes its first "future work" section to the security
//! and robustness challenges of running a query processor "in the wild":
//! result fidelity under suppression and data poisoning, resource management
//! (isolation, free-riding, service flooding, containment), accountability,
//! and the defenses the authors were investigating — **redundancy**,
//! **rate limitation**, and **spot-checking with early commitment**
//! (§4.1.2).  This crate holds the pieces of those defenses that the EXP-I
//! `adversary_fidelity` experiment measures, with the metrics the paper
//! describes:
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
//! * [`spot_check`] — early commitment of aggregation inputs through a
//!   Merkle tree plus probabilistic spot-checking of the committed inputs
//!   (the SIA-style verification of \[55\]).
//!
//! These are modelled, not deployed: no `PierNode`, overlay or share-group
//! path calls them.  Rate limitation and accountability are not reproduced.
//!
//! Everything here is deterministic and free of external dependencies so
//! that the adversary experiments replay exactly from a seed.

pub mod adversary;
pub mod sketch;
pub mod spot_check;
pub mod topology;

pub use adversary::{Adversary, AdversaryConfig, FidelityReport};
pub use sketch::{CountSketch, SumSketch};
pub use spot_check::{Commitment, MerkleProof, MerkleTree, SpotChecker};
pub use topology::{AggregationTopology, TopologyKind};
