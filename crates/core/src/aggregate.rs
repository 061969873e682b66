//! Aggregate functions and mergeable partial aggregates.
//!
//! Hierarchical aggregation (§3.3.4) requires each node to compute a
//! *partial* aggregate over its local data and intermediate nodes to combine
//! partials as they flow toward the aggregation-tree root.  That works for
//! *distributive* aggregates (COUNT, SUM, MIN, MAX) and *algebraic* ones
//! (AVG, carried as sum+count), which are all [`AggFunc`] offers; *holistic*
//! aggregates (e.g. MEDIAN) cannot be combined from constant-size state.

use crate::tuple::{ColumnChunk, Schema, Tuple};
use crate::value::{Value, ValueRef};
use pier_runtime::WireSize;

/// Which aggregate function to compute.
#[derive(Debug, Clone, PartialEq)]
pub enum AggFunc {
    /// `COUNT(*)`.
    Count,
    /// `SUM(column)`.
    Sum(String),
    /// `MIN(column)`.
    Min(String),
    /// `MAX(column)`.
    Max(String),
    /// `AVG(column)` — algebraic: carried as (sum, count).
    Avg(String),
}

impl AggFunc {
    /// Output column name (`count`, `sum_x`, …).
    pub fn output_column(&self) -> String {
        match self {
            AggFunc::Count => "count".to_string(),
            AggFunc::Sum(c) => format!("sum_{c}"),
            AggFunc::Min(c) => format!("min_{c}"),
            AggFunc::Max(c) => format!("max_{c}"),
            AggFunc::Avg(c) => format!("avg_{c}"),
        }
    }

    /// Fresh accumulator state.
    pub fn init(&self) -> AggState {
        match self {
            AggFunc::Count => AggState::Count(0),
            AggFunc::Sum(_) => AggState::Sum(0.0),
            AggFunc::Min(_) => AggState::Min(None),
            AggFunc::Max(_) => AggState::Max(None),
            AggFunc::Avg(_) => AggState::Avg { sum: 0.0, count: 0 },
        }
    }

    /// Column this aggregate reads, if any.
    pub fn input_column(&self) -> Option<&str> {
        match self {
            AggFunc::Count => None,
            AggFunc::Sum(c) | AggFunc::Min(c) | AggFunc::Max(c) | AggFunc::Avg(c) => Some(c),
        }
    }
}

/// Constant-size partial aggregate state.
#[derive(Debug, Clone, PartialEq)]
pub enum AggState {
    /// Running count.
    Count(u64),
    /// Running sum.
    Sum(f64),
    /// Running minimum.
    Min(Option<Value>),
    /// Running maximum.
    Max(Option<Value>),
    /// Running (sum, count) for AVG.
    Avg {
        /// Sum of inputs.
        sum: f64,
        /// Number of inputs.
        count: u64,
    },
}

impl WireSize for AggState {
    fn wire_size(&self) -> usize {
        match self {
            AggState::Count(_) | AggState::Sum(_) => 9,
            AggState::Min(v) | AggState::Max(v) => {
                1 + v.as_ref().map_or(0, pier_runtime::WireSize::wire_size)
            }
            AggState::Avg { .. } => 17,
        }
    }
}

impl AggState {
    /// Fold one already-extracted input value into the accumulator — the
    /// hot-path variant for operators that resolve the aggregate's input
    /// column to a schema index once instead of per tuple.  `value` is the
    /// aggregated column's value, or `None` when the column is absent (or
    /// for `COUNT(*)`, which takes no input).
    pub fn update_with(&mut self, func: &AggFunc, value: Option<&Value>) {
        self.update_ref(func, value.map(Value::as_ref));
    }

    /// [`AggState::update_with`] over a borrowed column view — what the
    /// chunk-at-a-time group-by paths feed straight from the typed buffers
    /// (no per-row [`Value`] materialisation; MIN/MAX of a string column
    /// allocate only when the extremum actually improves).
    pub fn update_ref(&mut self, func: &AggFunc, value: Option<ValueRef<'_>>) {
        match (self, func) {
            (AggState::Count(n), AggFunc::Count) => *n += 1,
            (AggState::Sum(s), AggFunc::Sum(_)) => {
                if let Some(v) = value.and_then(|v| v.as_f64()) {
                    *s += v;
                }
            }
            (AggState::Min(m), AggFunc::Min(_)) => {
                if let Some(v) = value {
                    let better = match m {
                        None => true,
                        Some(cur) => {
                            matches!(v.compare_value(cur), Some(std::cmp::Ordering::Less))
                        }
                    };
                    if better {
                        *m = Some(v.to_value());
                    }
                }
            }
            (AggState::Max(m), AggFunc::Max(_)) => {
                if let Some(v) = value {
                    let better = match m {
                        None => true,
                        Some(cur) => {
                            matches!(v.compare_value(cur), Some(std::cmp::Ordering::Greater))
                        }
                    };
                    if better {
                        *m = Some(v.to_value());
                    }
                }
            }
            (AggState::Avg { sum, count }, AggFunc::Avg(_)) => {
                if let Some(v) = value.and_then(|v| v.as_f64()) {
                    *sum += v;
                    *count += 1;
                }
            }
            _ => {}
        }
    }

    /// Decode the partial state that `tuple` carries for aggregate `func`
    /// (the inverse of the encoding a `PartialCodec` ships partials in:
    /// one output column per aggregate, plus explicit `_sum`/`_count`
    /// companions for AVG).  `None` when the tuple lacks the column or its
    /// type does not fit (a count below zero does not) — the caller
    /// discards it, per the best-effort policy.
    pub fn from_partial_tuple(func: &AggFunc, tuple: &Tuple) -> Option<AggState> {
        let col = func.output_column();
        let v = tuple.get(&col)?;
        match (func, v) {
            (AggFunc::Count, Value::Int(n)) => u64::try_from(*n).ok().map(AggState::Count),
            (AggFunc::Sum(_), v) => v.as_f64().map(AggState::Sum),
            (AggFunc::Min(_), v) => Some(AggState::Min(Some(v.clone()))),
            (AggFunc::Max(_), v) => Some(AggState::Max(Some(v.clone()))),
            (AggFunc::Avg(_), _) => {
                let sum = tuple.get(&format!("{col}_sum")).and_then(Value::as_f64)?;
                let count = tuple.get(&format!("{col}_count")).and_then(Value::as_i64)?;
                let count = u64::try_from(count).ok()?;
                Some(AggState::Avg { sum, count })
            }
            _ => None,
        }
    }

    /// Merge another partial of the same shape into this one (the combine
    /// step of hierarchical aggregation).  See [`PartialDecoder`] for the
    /// compiled (positional) decode used on the relay hot path.
    pub fn merge(&mut self, other: &AggState) {
        match (self, other) {
            (AggState::Count(a), AggState::Count(b)) => *a += b,
            (AggState::Sum(a), AggState::Sum(b)) => *a += b,
            (AggState::Min(a), AggState::Min(Some(b))) => {
                let better = match a {
                    None => true,
                    Some(cur) => matches!(b.compare(cur), Some(std::cmp::Ordering::Less)),
                };
                if better {
                    *a = Some(b.clone());
                }
            }
            (AggState::Max(a), AggState::Max(Some(b))) => {
                let better = match a {
                    None => true,
                    Some(cur) => matches!(b.compare(cur), Some(std::cmp::Ordering::Greater)),
                };
                if better {
                    *a = Some(b.clone());
                }
            }
            (AggState::Avg { sum: sa, count: ca }, AggState::Avg { sum: sb, count: cb }) => {
                *sa += sb;
                *ca += cb;
            }
            _ => {}
        }
    }

    /// Final output value.
    pub fn finish(&self) -> Value {
        match self {
            AggState::Count(n) => Value::Int(*n as i64),
            AggState::Sum(s) => Value::Float(*s),
            AggState::Min(v) | AggState::Max(v) => v.clone().unwrap_or(Value::Null),
            AggState::Avg { sum, count } => {
                if *count == 0 {
                    Value::Null
                } else {
                    Value::Float(sum / *count as f64)
                }
            }
        }
    }
}

/// Positional decoder for one aggregate's partial encoding within an
/// interned partial schema — the compiled counterpart of
/// [`AggState::from_partial_tuple`].  The output column (and AVG's
/// `_sum`/`_count` companions) resolve against the schema **once**; decoding
/// a row is then pure index access.  Relays that absorb chunks of
/// closed-window partials ([`crate::partial::PartialCodec`]) compile one
/// decoder per aggregate per schema instead of re-resolving names per
/// partial.
#[derive(Debug, Clone)]
pub struct PartialDecoder {
    value: usize,
    /// `(_sum, _count)` companion indices, present only for AVG.
    avg: Option<(usize, usize)>,
}

impl PartialDecoder {
    /// Compile the decoder for `func` against `schema`; `None` when the
    /// schema lacks a needed column (every per-tuple decode would fail too,
    /// so the caller can discard that shape wholesale).
    pub fn compile(func: &AggFunc, schema: &Schema) -> Option<PartialDecoder> {
        let col = func.output_column();
        let value = schema.position(&col)?;
        let avg = match func {
            AggFunc::Avg(_) => Some((
                schema.position(&format!("{col}_sum"))?,
                schema.position(&format!("{col}_count"))?,
            )),
            _ => None,
        };
        Some(PartialDecoder { value, avg })
    }

    /// Decode row `r`'s partial state from a chunk of the compiled schema —
    /// exactly the outcomes of [`AggState::from_partial_tuple`] on the
    /// materialised row, read from the typed columns (only MIN/MAX, which
    /// keep the value, materialise one).
    pub fn decode(&self, func: &AggFunc, chunk: &ColumnChunk, r: usize) -> Option<AggState> {
        let cell = chunk.col(self.value);
        match func {
            AggFunc::Count => match cell.value_ref(r) {
                ValueRef::Int(n) => u64::try_from(n).ok().map(AggState::Count),
                _ => None,
            },
            AggFunc::Sum(_) => cell.value_ref(r).as_f64().map(AggState::Sum),
            AggFunc::Min(_) => Some(AggState::Min(Some(cell.value(r)))),
            AggFunc::Max(_) => Some(AggState::Max(Some(cell.value(r)))),
            AggFunc::Avg(_) => {
                let (sum_idx, count_idx) = self.avg?;
                let sum = chunk.col(sum_idx).value_ref(r).as_f64()?;
                let count = chunk.col(count_idx).value_ref(r).as_i64()?;
                let count = u64::try_from(count).ok()?;
                Some(AggState::Avg { sum, count })
            }
        }
    }
}

#[cfg(test)]
impl AggState {
    /// Fold one input tuple into the accumulator (best-effort: tuples whose
    /// aggregated column is missing or non-numeric are ignored for numeric
    /// aggregates): the single-site reference the tests compare against.
    pub fn update(&mut self, func: &AggFunc, tuple: &Tuple) {
        let value = match func.input_column() {
            Some(col) => tuple.get(col),
            None => None,
        };
        self.update_with(func, value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tuples(values: &[i64]) -> Vec<Tuple> {
        values
            .iter()
            .map(|&v| Tuple::new("t", vec![("x", Value::Int(v))]))
            .collect()
    }

    fn run(func: &AggFunc, inputs: &[i64]) -> Value {
        let mut state = func.init();
        for t in tuples(inputs) {
            state.update(func, &t);
        }
        state.finish()
    }

    #[test]
    fn basic_aggregates() {
        assert_eq!(run(&AggFunc::Count, &[1, 2, 3]), Value::Int(3));
        assert_eq!(
            run(&AggFunc::Sum("x".into()), &[1, 2, 3]),
            Value::Float(6.0)
        );
        assert_eq!(run(&AggFunc::Min("x".into()), &[5, 2, 9]), Value::Int(2));
        assert_eq!(run(&AggFunc::Max("x".into()), &[5, 2, 9]), Value::Int(9));
        assert_eq!(run(&AggFunc::Avg("x".into()), &[2, 4]), Value::Float(3.0));
    }

    #[test]
    fn merge_equals_single_site_computation() {
        // Split the input across three "nodes", merge the partials, and check
        // the answer equals computing over all data at one site.
        let all: Vec<i64> = (1..=30).collect();
        for func in [
            AggFunc::Count,
            AggFunc::Sum("x".into()),
            AggFunc::Min("x".into()),
            AggFunc::Max("x".into()),
            AggFunc::Avg("x".into()),
        ] {
            let reference = run(&func, &all);
            let mut merged = func.init();
            for chunk in all.chunks(10) {
                let mut partial = func.init();
                for t in tuples(chunk) {
                    partial.update(&func, &t);
                }
                merged.merge(&partial);
            }
            assert_eq!(merged.finish(), reference, "{func:?}");
        }
    }

    #[test]
    fn malformed_tuples_are_ignored_by_numeric_aggregates() {
        let func = AggFunc::Sum("x".into());
        let mut state = func.init();
        state.update(&func, &Tuple::new("t", vec![("x", Value::Int(5))]));
        state.update(
            &func,
            &Tuple::new("t", vec![("x", Value::Str("bad".into()))]),
        );
        state.update(&func, &Tuple::new("t", vec![("y", Value::Int(7))]));
        assert_eq!(state.finish(), Value::Float(5.0));
    }

    #[test]
    fn empty_aggregates() {
        assert_eq!(AggFunc::Count.init().finish(), Value::Int(0));
        assert_eq!(AggFunc::Min("x".into()).init().finish(), Value::Null);
        assert_eq!(AggFunc::Avg("x".into()).init().finish(), Value::Null);
    }

    #[test]
    fn output_columns() {
        assert_eq!(AggFunc::Count.output_column(), "count");
        assert_eq!(AggFunc::Sum("x".into()).output_column(), "sum_x");
        assert_eq!(AggFunc::Avg("load".into()).output_column(), "avg_load");
        assert_eq!(AggFunc::Sum("x".into()).input_column(), Some("x"));
        assert_eq!(AggFunc::Count.input_column(), None);
    }
}
