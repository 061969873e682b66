//! Append-only window-segment log: durable state for continuous queries.
//!
//! All window state in PIER is soft — it dies with the node, and soft-state
//! renewal repairs only the *plan*.  The segment log adds the
//! storage discipline the ROADMAP borrows from pre-built binary shards: a
//! [`WindowStore`](crate::state::WindowStore) periodically appends a snapshot
//! of its open windows as **length-prefixed, checksummed records**, and a
//! restarted node *rehydrates* the store from the log instead of recomputing
//! windows from scratch.
//!
//! The format is deliberately dumb:
//!
//! ```text
//! record := len:u32 LE | fnv1a64(payload):u64 LE | payload
//! ```
//!
//! A crash can tear the tail of the log mid-append; the reader detects a
//! short or checksum-corrupt tail, reports it, and rehydrates only the clean
//! prefix ([`SegmentLog::truncate_torn_tail`] chops the damage off).  Within
//! one payload, group and dedup keys are written in sorted order, so
//! encode → rehydrate → encode is **byte-for-byte** stable (the property the
//! segment proptest pins).
//!
//! Accumulators serialise through [`SegmentCodec`], implemented by the
//! executor's aggregate partials (`pier-core`'s `GroupAgg`) and by anything
//! else that wants durable windows.  Scalar values inside those states use
//! the same tagged little-endian codec as the wire (`pier-core`'s
//! `Value::encode`/`Value::decode`), so durable snapshots and DHT payloads
//! share one byte-level value format.

use crate::window::WindowId;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Byte-level serialisation contract for durable accumulator state.
///
/// `decode_state(encode_state(x)) == x` must hold, and `encode_state` must be
/// deterministic (equal states produce equal bytes) for the byte-for-byte
/// round-trip guarantee.
pub trait SegmentCodec: Sized {
    /// Append this accumulator's state to `buf`.
    fn encode_state(&self, buf: &mut Vec<u8>);
    /// Append what [`encode_state`] appends for the whole accumulator, given
    /// its two parts: `self` without, and `identity` holding, what
    /// [`WindowAccumulator::take_identity`] moved out — `identity` is `self`
    /// for a type that moves nothing out, which the default serves.  A type
    /// that overrides `take_identity` overrides this too: a snapshot is
    /// written from the parts, with no copy made to join them.
    ///
    /// [`encode_state`]: SegmentCodec::encode_state
    /// [`WindowAccumulator::take_identity`]: crate::state::WindowAccumulator::take_identity
    fn encode_split(&self, identity: &Self, buf: &mut Vec<u8>) {
        assert!(
            std::ptr::eq(self, identity),
            "an accumulator with an identity part encodes its two parts itself"
        );
        self.encode_state(buf);
    }
    /// Rebuild an accumulator from bytes produced by [`encode_state`].
    /// Returns `None` on malformed input.
    ///
    /// [`encode_state`]: SegmentCodec::encode_state
    fn decode_state(bytes: &[u8]) -> Option<Self>;
}

/// One open window, as stored in a segment record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowSegment {
    /// Window instance this snapshot belongs to.
    pub id: WindowId,
    /// Tuples folded into the window at snapshot time.
    pub tuples: u64,
    /// Whether the window had un-emitted changes at snapshot time.
    pub dirty: bool,
    /// Group key → encoded accumulator state, sorted by key.
    pub groups: Vec<(String, Vec<u8>)>,
    /// Window-scoped dedup keys, sorted.
    pub seen: Vec<String>,
}

/// One record of the segment log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SegmentRecord {
    /// Snapshot of one open window (later records supersede earlier ones
    /// for the same window id).
    Window(WindowSegment),
    /// The store's close/retire horizons at snapshot time.
    Watermark {
        closed_through: Option<WindowId>,
        retired_through: Option<WindowId>,
    },
}

const TAG_WINDOW: u8 = 1;
const TAG_WATERMARK: u8 = 2;

fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_bytes(buf: &mut Vec<u8>, v: &[u8]) {
    put_u32(buf, v.len() as u32);
    buf.extend_from_slice(v);
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn u8(&mut self) -> Option<u8> {
        let v = *self.bytes.get(self.pos)?;
        self.pos += 1;
        Some(v)
    }

    /// A flag byte: 0 or 1 and nothing else, so that what decodes
    /// re-encodes to the same bytes.
    fn flag(&mut self) -> Option<bool> {
        match self.u8()? {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }

    fn u32(&mut self) -> Option<u32> {
        let s = self.bytes.get(self.pos..self.pos + 4)?;
        self.pos += 4;
        Some(u32::from_le_bytes(s.try_into().ok()?))
    }

    fn u64(&mut self) -> Option<u64> {
        let s = self.bytes.get(self.pos..self.pos + 8)?;
        self.pos += 8;
        Some(u64::from_le_bytes(s.try_into().ok()?))
    }

    fn bytes(&mut self) -> Option<&'a [u8]> {
        let len = self.u32()? as usize;
        let s = self.bytes.get(self.pos..self.pos + len)?;
        self.pos += len;
        Some(s)
    }

    fn string(&mut self) -> Option<String> {
        String::from_utf8(self.bytes()?.to_vec()).ok()
    }
}

impl SegmentRecord {
    fn encode_payload(&self, buf: &mut Vec<u8>) {
        match self {
            SegmentRecord::Window(w) => {
                buf.push(TAG_WINDOW);
                put_u64(buf, w.id);
                put_u64(buf, w.tuples);
                buf.push(w.dirty as u8);
                put_u32(buf, w.groups.len() as u32);
                for (key, state) in &w.groups {
                    put_bytes(buf, key.as_bytes());
                    put_bytes(buf, state);
                }
                put_u32(buf, w.seen.len() as u32);
                for key in &w.seen {
                    put_bytes(buf, key.as_bytes());
                }
            }
            SegmentRecord::Watermark {
                closed_through,
                retired_through,
            } => {
                buf.push(TAG_WATERMARK);
                for horizon in [closed_through, retired_through] {
                    buf.push(horizon.is_some() as u8);
                    put_u64(buf, horizon.unwrap_or(0));
                }
            }
        }
    }

    fn decode_payload(payload: &[u8]) -> Option<SegmentRecord> {
        let mut r = Reader {
            bytes: payload,
            pos: 0,
        };
        let rec = match r.u8()? {
            TAG_WINDOW => {
                let id = r.u64()?;
                let tuples = r.u64()?;
                let dirty = r.flag()?;
                let n_groups = r.u32()? as usize;
                // A group takes at least its two length prefixes, a dedup
                // key its one: the counts are input and reserve no more
                // than the payload could hold.
                let mut groups = Vec::with_capacity(n_groups.min((payload.len() - r.pos) / 8));
                for _ in 0..n_groups {
                    let key = r.string()?;
                    let state = r.bytes()?.to_vec();
                    groups.push((key, state));
                }
                let n_seen = r.u32()? as usize;
                let mut seen = Vec::with_capacity(n_seen.min((payload.len() - r.pos) / 4));
                for _ in 0..n_seen {
                    seen.push(r.string()?);
                }
                SegmentRecord::Window(WindowSegment {
                    id,
                    tuples,
                    dirty,
                    groups,
                    seen,
                })
            }
            TAG_WATERMARK => {
                let mut horizons = [None, None];
                for h in &mut horizons {
                    let present = r.flag()?;
                    let v = r.u64()?;
                    if !present && v != 0 {
                        return None; // an absent horizon is written as 0
                    }
                    *h = present.then_some(v);
                }
                SegmentRecord::Watermark {
                    closed_through: horizons[0],
                    retired_through: horizons[1],
                }
            }
            _ => return None,
        };
        (r.pos == payload.len()).then_some(rec)
    }
}

/// Result of scanning a segment log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentScan {
    /// Records recovered from the clean prefix, in append order.
    pub records: Vec<SegmentRecord>,
    /// Byte length of the clean prefix.
    pub valid_len: usize,
    /// True when bytes beyond `valid_len` form a torn or corrupt tail.
    pub torn_tail: bool,
}

/// An append-only log of [`SegmentRecord`]s with per-record checksums and
/// torn-tail detection.  This is the in-memory stand-in for an on-disk
/// segment file: the simulator's "disk" survives a node's crash inside a
/// [`DurableStore`] even though the node's program state is gone.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SegmentLog {
    bytes: Vec<u8>,
}

impl SegmentLog {
    /// An empty log.
    pub fn new() -> Self {
        SegmentLog::default()
    }

    /// Adopt raw bytes (e.g. read back from a file); the records are
    /// whatever a scan recovers.
    pub fn from_bytes(bytes: Vec<u8>) -> Self {
        SegmentLog { bytes }
    }

    /// Append one record: `len | checksum | payload`.
    pub fn append(&mut self, rec: &SegmentRecord) {
        let mut payload = Vec::new();
        rec.encode_payload(&mut payload);
        put_u32(&mut self.bytes, payload.len() as u32);
        put_u64(&mut self.bytes, fnv1a64(&payload));
        self.bytes.extend_from_slice(&payload);
    }

    /// Scan the log: decode every clean record and report whether a torn
    /// tail follows them.
    pub fn scan(&self) -> SegmentScan {
        let mut records = Vec::new();
        let mut pos = 0usize;
        loop {
            let rest = &self.bytes[pos..];
            if rest.is_empty() {
                return SegmentScan {
                    records,
                    valid_len: pos,
                    torn_tail: false,
                };
            }
            let torn = SegmentScan {
                records: Vec::new(),
                valid_len: pos,
                torn_tail: true,
            };
            if rest.len() < 12 {
                return SegmentScan { records, ..torn };
            }
            let len = u32::from_le_bytes(rest[0..4].try_into().unwrap()) as usize;
            let sum = u64::from_le_bytes(rest[4..12].try_into().unwrap());
            if rest.len() < 12 + len {
                return SegmentScan { records, ..torn };
            }
            let payload = &rest[12..12 + len];
            if fnv1a64(payload) != sum {
                return SegmentScan { records, ..torn };
            }
            match SegmentRecord::decode_payload(payload) {
                Some(rec) => records.push(rec),
                None => return SegmentScan { records, ..torn },
            }
            pos += 12 + len;
        }
    }

    /// Chop a torn tail off, keeping only the clean prefix.  Returns the
    /// number of bytes removed (0 when the log was already clean).
    pub fn truncate_torn_tail(&mut self) -> usize {
        let scan = self.scan();
        let removed = self.bytes.len() - scan.valid_len;
        self.bytes.truncate(scan.valid_len);
        removed
    }

    /// Raw log bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Byte length of the log.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// True when nothing has been appended.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Simulate a crash mid-append by dropping the last `drop_bytes` bytes —
    /// the resulting tail record is torn and must not rehydrate.
    pub fn tear_tail(&mut self, drop_bytes: usize) {
        let keep = self.bytes.len().saturating_sub(drop_bytes);
        self.bytes.truncate(keep);
    }
}

/// A shared "disk" of segment logs keyed by name (one key per query per
/// store role, e.g. `q7.local` / `q7.root`).  Nodes hold cheap clones; the
/// harness keeps one per node ref so the log survives the node's crash and
/// is handed to the restarted program — that is the whole point.
#[derive(Debug, Clone, Default)]
pub struct DurableStore {
    inner: Arc<Mutex<HashMap<String, SegmentLog>>>,
}

impl DurableStore {
    /// An empty store.
    pub fn new() -> Self {
        DurableStore::default()
    }

    /// Run `f` against the log under `key`, creating it empty on first use.
    pub fn with_log<R>(&self, key: &str, f: impl FnOnce(&mut SegmentLog) -> R) -> R {
        let mut inner = self.inner.lock().expect("durable store poisoned");
        f(inner.entry(key.to_string()).or_default())
    }

    /// Clone the log under `key`, if present and non-empty.
    pub fn get(&self, key: &str) -> Option<SegmentLog> {
        let inner = self.inner.lock().expect("durable store poisoned");
        inner.get(key).filter(|l| !l.is_empty()).cloned()
    }

    /// All keys with non-empty logs, sorted.
    pub fn keys(&self) -> Vec<String> {
        let inner = self.inner.lock().expect("durable store poisoned");
        let mut keys: Vec<String> = inner
            .iter()
            .filter(|(_, l)| !l.is_empty())
            .map(|(k, _)| k.clone())
            .collect();
        keys.sort();
        keys
    }

    /// Total bytes across all logs (the "disk" footprint).
    pub fn total_bytes(&self) -> usize {
        let inner = self.inner.lock().expect("durable store poisoned");
        inner.values().map(SegmentLog::len).sum()
    }

    /// Drop the log under `key` (e.g. on clean query teardown).
    pub fn remove(&self, key: &str) {
        let mut inner = self.inner.lock().expect("durable store poisoned");
        inner.remove(key);
    }
}

/// What a rehydration recovered (surfaced as the `window.rehydrate`
/// telemetry event and asserted by `tests/chaos_recovery.rs`'s warm-restart
/// check).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RehydrateReport {
    /// Windows restored into the store.
    pub windows: usize,
    /// Groups restored across those windows.
    pub groups: usize,
    /// Tuples those windows had absorbed before the crash.
    pub tuples: u64,
    /// Clean records scanned from the log.
    pub records: usize,
    /// Window snapshots skipped because the log says they were already
    /// closed or retired (re-adding them would double-count downstream).
    pub skipped: usize,
    /// True when a torn tail was detected (and ignored).
    pub torn_tail: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn window(id: WindowId, groups: &[(&str, &[u8])]) -> SegmentRecord {
        SegmentRecord::Window(WindowSegment {
            id,
            tuples: groups.len() as u64,
            dirty: true,
            groups: groups
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_vec()))
                .collect(),
            seen: vec!["d1".to_string()],
        })
    }

    #[test]
    fn append_scan_round_trip() {
        let mut log = SegmentLog::new();
        let recs = vec![
            window(3, &[("a", b"xyz"), ("b", b"")]),
            SegmentRecord::Watermark {
                closed_through: Some(2),
                retired_through: None,
            },
        ];
        for r in &recs {
            log.append(r);
        }
        let scan = log.scan();
        assert!(!scan.torn_tail);
        assert_eq!(scan.records, recs);
        assert_eq!(scan.valid_len, log.len());
    }

    #[test]
    fn torn_tail_detected_and_truncated() {
        let mut log = SegmentLog::new();
        log.append(&window(1, &[("a", b"12345678")]));
        let clean_len = log.len();
        log.append(&window(2, &[("b", b"abcdefgh")]));
        log.tear_tail(5);
        let scan = log.scan();
        assert!(scan.torn_tail);
        assert_eq!(scan.records.len(), 1, "only the clean prefix rehydrates");
        assert_eq!(scan.valid_len, clean_len);
        let removed = log.truncate_torn_tail();
        assert!(removed > 0);
        assert!(!log.scan().torn_tail);
        assert_eq!(log.len(), clean_len);
    }

    #[test]
    fn bit_flip_fails_the_checksum() {
        let mut log = SegmentLog::new();
        log.append(&window(1, &[("a", b"payload")]));
        let mut bytes = log.as_bytes().to_vec();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        let corrupt = SegmentLog::from_bytes(bytes);
        let scan = corrupt.scan();
        assert!(scan.torn_tail);
        assert!(scan.records.is_empty());
    }

    #[test]
    fn from_bytes_recovers_record_count() {
        let mut log = SegmentLog::new();
        log.append(&window(1, &[]));
        log.append(&window(2, &[]));
        let copy = SegmentLog::from_bytes(log.as_bytes().to_vec());
        assert_eq!(copy.scan().records.len(), 2);
        assert_eq!(copy, log);
    }

    #[test]
    fn durable_store_survives_and_lists() {
        let disk = DurableStore::new();
        disk.with_log("q1.local", |l| l.append(&window(1, &[("a", b"s")])));
        let handle = disk.clone();
        assert_eq!(handle.keys(), vec!["q1.local".to_string()]);
        assert!(handle.get("q1.local").is_some());
        assert!(handle.get("q9.local").is_none());
        assert!(handle.total_bytes() > 0);
        disk.remove("q1.local");
        assert!(handle.get("q1.local").is_none());
    }
}
