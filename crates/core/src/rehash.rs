//! The rehash (Put/Exchange) buffer: rows on their way into a rendezvous
//! namespace, coalesced so a flush costs one overlay `put` per partition
//! key instead of one per row.
//!
//! One policy, stated **per appended row**: the moment a namespace's buffer
//! holds [`MAX_TUPLES`] rows it is handed back as a [`Flush`]; otherwise the
//! periodic flush tick, [`BATCH_FLUSH_INTERVAL`] later, must be armed, and
//! [`Rehash::push`] says so the first time.  Nothing in that rule looks at chunk boundaries, so the flushes and
//! the arming do not depend on how the rows were chunked on their way here.
//! A flush is ordered — keys ascending, [`Rehash::flush_all`] namespaces
//! ascending — because that order feeds the RNG stream (name suffixes) and
//! the message order.
//!
//! Plain state, no overlay: [`crate::graph_exec::GraphExec`] hands each
//! flush to `Overlay::put_batch`.

use crate::plan::QpObject;
use crate::tuple::{Tuple, TupleBatch};
use pier_dht::ObjectName;
use pier_runtime::{Duration, Rng64};
use std::collections::HashMap;

/// Rows a namespace's buffer holds before it ships without waiting for the
/// flush tick.
pub const MAX_TUPLES: usize = 64;

/// Upper bound on how long a rehash row may sit in the buffer before the
/// periodic flush tick ships it.
pub const BATCH_FLUSH_INTERVAL: Duration = 100_000;

/// One namespace's buffered rows as `put_batch` entries, one per partition
/// key (a [`TupleBatch`], or a bare tuple when only one accumulated).
pub type Flush = Vec<(ObjectName, QpObject, Duration)>;

#[derive(Debug, Default)]
struct Buffer {
    by_key: HashMap<String, Vec<Tuple>>,
    tuples: usize,
}

/// The per-namespace rehash buffers of one node.
#[derive(Debug)]
pub struct Rehash {
    /// Soft-state lifetime of the published rows.
    lifetime: Duration,
    buffers: HashMap<String, Buffer>,
    tick_armed: bool,
}

impl Rehash {
    /// Buffers whose rows are published for `lifetime`.
    pub fn new(lifetime: Duration) -> Self {
        Rehash {
            lifetime,
            buffers: HashMap::new(),
            tick_armed: false,
        }
    }

    fn flush(&self, namespace: &str, buf: Buffer, rng: &mut Rng64) -> Flush {
        let mut sorted: Vec<(String, Vec<Tuple>)> = buf.by_key.into_iter().collect();
        sorted.sort_by(|a, b| a.0.cmp(&b.0));
        let entry = |(key, mut tuples): (String, Vec<Tuple>)| {
            let value = match tuples.len() {
                1 => QpObject::Tuple(tuples.pop().expect("len checked")),
                _ => QpObject::Batch(TupleBatch::new(tuples)),
            };
            let name = ObjectName::new(namespace, key, rng.next_u64());
            (name, value, self.lifetime)
        };
        sorted.into_iter().map(entry).collect()
    }

    /// Append `rows` to `namespace`'s buffer, partitioned on `key_cols`
    /// (rows without a key are discarded).  Returns the flushes the size
    /// threshold forced, in order, and whether the caller must now arm the
    /// flush tick that ends in [`Rehash::flush_all`].
    pub fn push(
        &mut self,
        namespace: &str,
        key_cols: &[String],
        rows: &TupleBatch,
        rng: &mut Rng64,
    ) -> (Vec<Flush>, bool) {
        let buffered = self.buffers.remove_entry(namespace);
        let (name, mut buf) =
            buffered.unwrap_or_else(|| (namespace.to_string(), Buffer::default()));
        let (mut flushes, mut arm) = (Vec::new(), false);
        for t in rows.iter() {
            let Some(key) = t.partition_key(key_cols) else {
                continue;
            };
            buf.by_key.entry(key).or_default().push(t);
            buf.tuples += 1;
            if buf.tuples >= MAX_TUPLES {
                flushes.push(self.flush(namespace, std::mem::take(&mut buf), rng));
            } else if !self.tick_armed {
                (self.tick_armed, arm) = (true, true);
            }
        }
        if buf.tuples > 0 {
            self.buffers.insert(name, buf);
        }
        (flushes, arm)
    }

    /// The flush tick fired: every buffered namespace, ascending.
    pub fn flush_all(&mut self, rng: &mut Rng64) -> Vec<Flush> {
        self.tick_armed = false;
        let mut buffers: Vec<(String, Buffer)> = self.buffers.drain().collect();
        buffers.sort_by(|a, b| a.0.cmp(&b.0));
        let flush = |(namespace, buf): (String, Buffer)| self.flush(&namespace, buf, rng);
        buffers.into_iter().map(flush).collect()
    }
}
