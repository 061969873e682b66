//! The opgraph executor of a node: installed plans, their local dataflow,
//! and the sinks that take rows back into the network.
//!
//! A [`GraphExec`] owns, per installed (unshared) query, the plan and one
//! state per opgraph — [`Pipeline`], symmetric hash join — plus the
//! Fetch-Matches probes in flight and the node's [`Rehash`] buffers.  Rows
//! go in through [`GraphExec::feed`] (source chunks) and
//! [`GraphExec::fetched`] (a probed key's answer); an [`ExecOut`] comes out.
//! The overlay is reached only through the Table 2 calls (`get_batch`,
//! `put`, `put_batch`) on the `&mut Overlay` the caller lends, and name
//! suffixes are drawn from the caller's one RNG in the order the rows
//! arrive.  What a call would re-derive is resolved once, at install —
//! where a graph's Fetch-Matches operator is — and operators and sinks are
//! read in place from the stored plan.  An aggregating graph, windowed or
//! one-shot (§3.3.4), hands its survivors to the query's
//! [`WindowEngine`], which the caller owns and ticks.
//!
//! It indexes the namespaces its opgraphs read, each namespace's readers
//! ascending by `(query, graph)`: an arriving batch finds its readers in
//! one lookup.
//!
//! Plain state that never sees the runtime: [`crate::node::PierNode`] does
//! the wiring (timers, spans, results to the proxy), tests drive it
//! directly.

use crate::node::PierConfig;
use crate::operators::{JoinSide, Pipeline, SymmetricHashJoin};
use crate::plan::{is_query_scoped_table, OperatorSpec, QpObject, QueryPlan, SinkSpec};
use crate::rehash::Rehash;
use crate::tuple::{Tuple, TupleBatch};
use crate::window_engine::WindowEngine;
use pier_dht::{Overlay, OverlayEffect, StoredObject};
use pier_runtime::{NodeAddr, Rng64, SimTime};
use pier_telemetry::Telemetry;
use std::collections::hash_map::Entry;
use std::collections::HashMap;

/// An opgraph of an installed plan: `(query id, graph index)`.
pub type GraphRef = (u64, usize);

/// What one executor call asks of its caller.  Results are staged, and
/// posted when the handler invocation's effects have been driven: what one
/// invocation produces for a (proxy, query) leaves as one message.
#[derive(Debug, Default)]
pub struct ExecOut {
    /// Overlay effects to drive.
    pub effects: Vec<OverlayEffect<QpObject>>,
    /// Answer chunks: `(proxy, query id, rows)`.
    pub results: Vec<(NodeAddr, u64, TupleBatch)>,
    /// A rehash row is buffered and no flush tick is pending: arm one, and
    /// call [`GraphExec::flush_rehash`] when it fires.
    pub arm_batch_flush: bool,
}

/// A Fetch-Matches operator as `(inner namespace, probe column, the probe
/// column already holds the inner relation's partition-key string — a
/// secondary index's tupleID —, output table of the joined rows)`.
fn fetch_of(op: &OperatorSpec) -> Option<(&str, &str, bool, &str)> {
    match op {
        OperatorSpec::FetchMatches {
            inner_namespace,
            probe_col,
            output_table,
        } => Some((inner_namespace, probe_col, false, output_table)),
        OperatorSpec::FetchByTupleId {
            inner_namespace,
            id_col,
            output_table,
        } => Some((inner_namespace, id_col, true, output_table)),
        _ => None,
    }
}

/// The running state of `plan.opgraphs[i]`.
#[derive(Debug)]
struct GraphState {
    pipeline: Pipeline,
    join: Option<SymmetricHashJoin>,
    /// Where in the graph's `ops` its Fetch-Matches operator is.
    fetch: Option<usize>,
}

#[derive(Debug)]
struct QueryState {
    plan: QueryPlan,
    /// Parallel to `plan.opgraphs`.
    graphs: Vec<GraphState>,
    /// Source rows seen by a shed plan (`sample_every > 1`): the
    /// deterministic per-query per-node sampling counter.
    ingest_seen: u64,
}

/// The opgraph executor of one node.
#[derive(Debug)]
pub struct GraphExec {
    queries: HashMap<u64, QueryState>,
    /// The opgraphs reading each source namespace, ascending.
    sources: HashMap<String, Vec<GraphRef>>,
    /// Fetch-Matches keys awaiting their `get`, by request id, each with
    /// the probe rows of the call that asked for it.
    pending_fetches: HashMap<u64, (GraphRef, Vec<Tuple>)>,
    rehash: Rehash,
    tel: Telemetry,
}

impl GraphExec {
    /// An executor whose rehashed rows live `config`'s `publish_lifetime`,
    /// reporting to `tel`.
    pub fn new(config: &PierConfig, tel: Telemetry) -> Self {
        GraphExec {
            tel,
            queries: HashMap::new(),
            sources: HashMap::new(),
            pending_fetches: HashMap::new(),
            rehash: Rehash::new(config.publish_lifetime),
        }
    }

    /// Instantiate `plan`'s opgraphs, each a reader of its source.
    pub fn install(&mut self, plan: QueryPlan) {
        let mut graphs = Vec::with_capacity(plan.opgraphs.len());
        for (gidx, spec) in plan.opgraphs.iter().enumerate() {
            let at = (plan.query_id, gidx);
            let namespace = spec.source.namespace().to_string();
            let readers = self.sources.entry(namespace).or_default();
            readers.insert(readers.partition_point(|r| *r < at), at);
            let mut pipeline =
                Pipeline::new(spec.ops.iter().filter_map(OperatorSpec::build).collect());
            pipeline.set_telemetry(&self.tel);
            let join = spec.join.as_ref().map(|j| {
                SymmetricHashJoin::new(
                    j.left_key.clone(),
                    j.right_key.clone(),
                    j.output_table.clone(),
                )
            });
            graphs.push(GraphState {
                pipeline,
                join,
                fetch: spec.ops.iter().position(|op| fetch_of(op).is_some()),
            });
        }
        let state = QueryState {
            plan,
            graphs,
            ingest_seen: 0,
        };
        self.queries.insert(state.plan.query_id, state);
    }

    /// Drop a query: its graphs, their reading of their sources, and the
    /// fetches it has in flight (their answers, if they come, find
    /// nothing).  Returns the plan.
    pub fn uninstall(&mut self, query_id: u64) -> Option<QueryPlan> {
        let q = self.queries.remove(&query_id)?;
        self.sources.retain(|_, readers| {
            readers.retain(|(qid, _)| *qid != query_id);
            !readers.is_empty()
        });
        self.pending_fetches
            .retain(|_, ((owner, _), _)| *owner != query_id);
        Some(q.plan)
    }

    /// Queries installed.
    pub fn installed(&self) -> usize {
        self.queries.len()
    }

    /// The plan of `query_id`, while it is installed.
    pub fn plan(&self, query_id: u64) -> Option<&QueryPlan> {
        self.queries.get(&query_id).map(|q| &q.plan)
    }

    /// The opgraphs reading `namespace`, ascending by `(query, graph)`.
    pub(crate) fn readers(&self, namespace: &str) -> &[GraphRef] {
        self.sources.get(namespace).map_or(&[], Vec::as_slice)
    }

    /// Lend out the opgraphs reading `namespace`, for a loop that feeds
    /// them, until [`GraphExec::put_readers`]: feeding installs and
    /// uninstalls nothing.
    pub(crate) fn take_readers(&mut self, namespace: &str) -> Vec<GraphRef> {
        let readers = self.sources.get_mut(namespace);
        readers.map(std::mem::take).unwrap_or_default()
    }

    /// Put back what [`GraphExec::take_readers`] lent out.
    pub(crate) fn put_readers(&mut self, namespace: &str, readers: Vec<GraphRef>) {
        if let Some(slot) = self.sources.get_mut(namespace) {
            *slot = readers;
        }
    }

    /// Fetch-Matches keys awaiting an answer.
    pub fn pending(&self) -> usize {
        self.pending_fetches.len()
    }

    /// Feed a batch of source rows to one opgraph, chunk-to-chunk: a join
    /// consumes whole columnar chunks, the pipeline hands every stage a
    /// re-chunked survivor batch, an aggregating graph's engine —
    /// `windows`, the query's own — absorbs the survivors (the source
    /// chunks themselves when the pipeline is a pass-through), and what is
    /// left goes to the sink as the batch it is.
    pub fn feed(
        &mut self,
        at: GraphRef,
        batch: &TupleBatch,
        now: SimTime,
        windows: Option<&mut WindowEngine>,
        overlay: &mut Overlay<QpObject>,
        rng: &mut Rng64,
    ) -> ExecOut {
        let (query_id, graph_idx) = at;
        let Some(q) = self.queries.get_mut(&query_id) else {
            return ExecOut::default();
        };
        // Shed-to-sampling, chunk-wise: a degraded plan keeps one in
        // `sample_every` *source* rows (query-scoped namespaces — rehashed
        // join sides, shipped partials — are derived data and pass
        // untouched).  The counter is per query per node, so equal-seed
        // runs thin identically.
        let sampled;
        let batch = if q.plan.sample_every > 1 {
            let every = u64::from(q.plan.sample_every);
            let mut kept = TupleBatch::default();
            for chunk in batch.chunks() {
                if is_query_scoped_table(chunk.schema().table()) {
                    kept.push_chunk(chunk.clone());
                    continue;
                }
                let seen = q.ingest_seen;
                q.ingest_seen += chunk.rows() as u64;
                let idx: Vec<u32> = (0..chunk.rows() as u32)
                    .filter(|r| (seen + u64::from(*r)) % every == 0)
                    .collect();
                kept.push_chunk(chunk.gather(&idx));
            }
            sampled = kept;
            &sampled
        } else {
            batch
        };
        let (Some(g), Some(spec)) = (q.graphs.get_mut(graph_idx), q.plan.opgraphs.get(graph_idx))
        else {
            return ExecOut::default();
        };
        let engine = windows.filter(|_| spec.sink.aggregates());
        let direct = engine.is_some() && g.join.is_none() && g.pipeline.is_empty();
        let mut outputs = match (&mut g.join, &spec.join) {
            _ if direct => TupleBatch::default(), // absorbed below, unscanned
            (Some(join), Some(join_spec)) => {
                // Two-input join fed from the rehash namespace: each
                // chunk's table name decides the side it belongs to.  The
                // join emits whole typed chunks (gathered from both sides'
                // stored buffers), which share one output schema — so the
                // staged batch flows into the pipeline's chunk-to-chunk
                // traversal without ever materialising per-row tuples.
                let mut staged = TupleBatch::default();
                for chunk in batch.chunks() {
                    let table = chunk.schema().table();
                    if table == join_spec.left_table {
                        staged.append(join.push_chunk_batch(JoinSide::Left, chunk));
                    } else if table == join_spec.right_table {
                        staged.append(join.push_chunk_batch(JoinSide::Right, chunk));
                    } // unknown table: discard (best effort)
                }
                if staged.is_empty() {
                    TupleBatch::default()
                } else {
                    g.pipeline.push_batch(&staged)
                }
            }
            _ => g.pipeline.push_batch(batch),
        };
        // An aggregating graph folds the survivors into its engine.
        if let Some(engine) = engine {
            let survivors = if direct { batch } else { &outputs };
            for chunk in survivors.chunks() {
                engine.absorb(chunk, None, now);
            }
            outputs = TupleBatch::default();
        }
        self.deliver(at, outputs, now, overlay, rng)
    }

    /// A Fetch-Matches key came back: join every probe row that waited for
    /// it with every fetched inner row and hand the result — one batch under
    /// the join's output table — to the graph's sink.  An answer for a key
    /// that is not pending (its query was uninstalled) yields nothing.
    pub fn fetched(
        &mut self,
        request_id: u64,
        objects: &[StoredObject<QpObject>],
        now: SimTime,
        overlay: &mut Overlay<QpObject>,
        rng: &mut Rng64,
    ) -> ExecOut {
        let Some((at, probes)) = self.pending_fetches.remove(&request_id) else {
            return ExecOut::default();
        };
        let output_table = self.queries.get(&at.0).and_then(|q| {
            let op = q
                .plan
                .opgraphs
                .get(at.1)?
                .ops
                .get(q.graphs.get(at.1)?.fetch?)?;
            Some(fetch_of(op)?.3)
        });
        let Some(output_table) = output_table else {
            return ExecOut::default();
        };
        let inner = objects.iter().flat_map(|o| o.value.iter_tuples());
        let inner: Vec<Tuple> = inner.collect();
        let joined = probes.iter().flat_map(|probe| {
            let join = |inner| probe.join_with(inner, output_table);
            inner.iter().map(join)
        });
        let joined = TupleBatch::new(joined.collect());
        self.deliver(at, joined, now, overlay, rng)
    }

    /// Hand a graph's output rows to its sink.
    fn deliver(
        &mut self,
        at: GraphRef,
        mut rows: TupleBatch,
        now: SimTime,
        overlay: &mut Overlay<QpObject>,
        rng: &mut Rng64,
    ) -> ExecOut {
        let mut out = ExecOut::default();
        if rows.is_empty() {
            return out;
        }
        let (query_id, graph_idx) = at;
        let Some(q) = self.queries.get_mut(&query_id) else {
            return out;
        };
        let (Some(g), Some(spec)) = (q.graphs.get_mut(graph_idx), q.plan.opgraphs.get(graph_idx))
        else {
            return out;
        };
        // Fetch Matches: pipeline outputs are probe rows — issue one
        // asynchronous DHT get per distinct key of the call, keys in
        // first-seen order, and join the rows that wait for a key when its
        // answer comes back (the one place a sink still walks rows).
        // Chunks already carrying the join's output table *are* the joined
        // results returning from a completed fetch; those continue to the
        // opgraph's real sink below.
        let fetch = g.fetch.and_then(|op| fetch_of(&spec.ops[op]));
        if let Some((inner_namespace, probe_col, probe_is_key, output_table)) = fetch {
            let mut completed = TupleBatch::default();
            let mut keys: Vec<String> = Vec::new();
            let mut waiting: Vec<Vec<Tuple>> = Vec::new();
            // Lookup only: `keys` holds the order.
            let mut slot_of: HashMap<String, usize> = HashMap::new();
            for chunk in rows.into_chunks() {
                if chunk.schema().table() == output_table {
                    completed.push_chunk(chunk);
                    continue;
                }
                for probe in chunk.iter_rows() {
                    let Some(key) = probe.get(probe_col).map(|v| match v.as_str() {
                        Some(key) if probe_is_key => key.to_string(),
                        _ => v.key_string(),
                    }) else {
                        continue;
                    };
                    match slot_of.entry(key) {
                        Entry::Occupied(slot) => waiting[*slot.get()].push(probe),
                        Entry::Vacant(slot) => {
                            keys.push(slot.key().clone());
                            slot.insert(waiting.len());
                            waiting.push(vec![probe]);
                        }
                    }
                }
            }
            if !keys.is_empty() {
                let probes = waiting.iter().map(Vec::len).sum::<usize>();
                self.tel.add("query.fetch.probes", probes as u64);
                self.tel.add("query.fetch.keys", keys.len() as u64);
                let (request_ids, effects) = overlay.get_batch(inner_namespace, keys, now);
                let fetches = request_ids.into_iter().zip(waiting);
                self.pending_fetches
                    .extend(fetches.map(|(id, probes)| (id, (at, probes))));
                out.effects.extend(effects);
            }
            if completed.is_empty() {
                return out;
            }
            rows = completed;
        }
        match &spec.sink {
            SinkSpec::ToProxy => out.results = vec![(q.plan.proxy, query_id, rows)],
            SinkSpec::Rehash {
                namespace,
                key_cols,
            } => {
                // Coalesce: buffer per (namespace, partition key); one
                // overlay put per key per flush.
                let (flushes, arm) = self.rehash.push(namespace, key_cols, &rows, rng);
                out.arm_batch_flush = arm;
                let puts = flushes.into_iter().map(|f| overlay.put_batch(f, now));
                out.effects.extend(puts.flatten());
            }
            // Absorbed in `feed`, which leaves such a graph no output.
            SinkSpec::HierarchicalAgg { .. } | SinkSpec::WindowedAgg { .. } => {}
        }
        out
    }

    /// The flush tick fired: ship every buffered rehash namespace, each
    /// through the overlay's batched put so same-owner keys share a single
    /// transfer when local routing state identifies the owner.
    pub fn flush_rehash(
        &mut self,
        now: SimTime,
        overlay: &mut Overlay<QpObject>,
        rng: &mut Rng64,
    ) -> Vec<OverlayEffect<QpObject>> {
        let flushes = self.rehash.flush_all(rng);
        let puts = flushes.into_iter().map(|f| overlay.put_batch(f, now));
        puts.flatten().collect()
    }
}
