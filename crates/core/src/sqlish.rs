//! A naive SQL-like front end (§4.2).
//!
//! The paper notes that, contrary to the designers' expectations, many PIER
//! users preferred a compact SQL-like syntax over wiring UFL dataflow
//! diagrams, and that PIER therefore grew "a naive version of this
//! functionality".  This module reproduces that front end: a small
//! recursive-descent parser for
//!
//! ```sql
//! SELECT col [, col ...] | SELECT col, COUNT(*) ...
//! FROM table
//! [WHERE col op literal [AND ...]]
//! [GROUP BY col [, col ...]]
//! [TOP k BY col]
//! [WINDOW 30s [SLIDE 10s]] [EVERY 20s] [DELTAS]
//! ```
//!
//! and a *naive* planner that maps the statement onto a single-opgraph
//! [`QueryPlan`]: equality predicates on the partitioning column choose
//! equality-index dissemination, aggregates choose hierarchical aggregation,
//! everything else broadcasts — there is no cost-based optimisation, which
//! is exactly the state of the system the paper describes.
//!
//! The windowing clauses register a *continuous* query (the `pier-cq`
//! subsystem): `WINDOW` sets the window size (`SLIDE` defaults to tumbling;
//! a window closes at its end), `EVERY` sets the soft-state renewal period
//! the proxy names the standing query on its lease roster at, and `DELTAS` switches per-window output from snapshots
//! to insert/retract streams.  Durations accept `us`, `ms`, `s` and `m`
//! suffixes (a bare number is seconds).
//!
//! **Multi-query sharing.**  A windowed statement whose `WHERE` predicates
//! reference only `GROUP BY` columns — the shape of the multi-tenant
//! monitoring workload, `… WHERE src = '<mine>' GROUP BY src WINDOW …` —
//! compiles to a plan that `pier-mqo` normalizes into a **share group**:
//! constant-only-different statements installed by different users execute
//! as one shared dataflow on nodes configured with the sharing layer
//! (member-level `DELTAS` and `TOP k` clauses are preserved per user).
//! Nothing here changes for that: the planner emits the same plan either
//! way, and nodes without a sharing layer run it independently.

use crate::aggregate::AggFunc;
use crate::expr::{CmpOp, Expr};
use crate::plan::{
    aggregation_hold, CqSpec, Dissemination, OpGraph, OperatorSpec, PlanBuilder, QueryPlan,
    SinkSpec, SourceSpec,
};
use crate::value::Value;
use pier_cq::{DeltaMode, WindowSpec};
use pier_runtime::{Duration, NodeAddr};

/// A parse or planning error with a human-readable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SqlError(pub String);

impl std::fmt::Display for SqlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SQL error: {}", self.0)
    }
}

/// A parsed SELECT statement.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectStatement {
    /// Plain projection columns.
    pub columns: Vec<String>,
    /// Aggregate expressions.
    pub aggregates: Vec<AggFunc>,
    /// Source table.
    pub table: String,
    /// Conjunctive predicates.
    pub predicates: Vec<Expr>,
    /// GROUP BY columns.
    pub group_by: Vec<String>,
    /// Optional `TOP k BY col`.
    pub top: Option<(usize, String)>,
    /// Optional `WINDOW size [SLIDE slide]` (microseconds).
    pub window: Option<(Duration, Option<Duration>)>,
    /// Optional `EVERY renew-period` (microseconds).
    pub every: Option<Duration>,
    /// `DELTAS`: stream insert/retract refinements instead of snapshots.
    pub deltas: bool,
}

fn tokenize(input: &str) -> Vec<String> {
    let mut tokens = Vec::new();
    let mut current = String::new();
    let mut chars = input.chars().peekable();
    while let Some(c) = chars.next() {
        match c {
            '\'' => {
                // Quoted string literal (kept with quotes for the parser).
                let mut lit = String::from("'");
                for c in chars.by_ref() {
                    if c == '\'' {
                        break;
                    }
                    lit.push(c);
                }
                lit.push('\'');
                tokens.push(lit);
            }
            ',' | '(' | ')' => {
                if !current.is_empty() {
                    tokens.push(std::mem::take(&mut current));
                }
                tokens.push(c.to_string());
            }
            c if c.is_whitespace() => {
                if !current.is_empty() {
                    tokens.push(std::mem::take(&mut current));
                }
            }
            '=' | '<' | '>' | '!' => {
                if !current.is_empty() {
                    tokens.push(std::mem::take(&mut current));
                }
                let mut op = c.to_string();
                if let Some('=') = chars.peek() {
                    op.push('=');
                    chars.next();
                }
                tokens.push(op);
            }
            _ => current.push(c),
        }
    }
    if !current.is_empty() {
        tokens.push(current);
    }
    tokens
}

struct Parser {
    tokens: Vec<String>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> Option<&str> {
        self.tokens.get(self.pos).map(String::as_str)
    }

    fn next(&mut self) -> Option<String> {
        let t = self.tokens.get(self.pos).cloned();
        self.pos += 1;
        t
    }

    fn expect_kw(&mut self, kw: &str) -> Result<(), SqlError> {
        match self.next() {
            Some(t) if t.eq_ignore_ascii_case(kw) => Ok(()),
            other => Err(SqlError(format!("expected {kw}, found {other:?}"))),
        }
    }

    fn peek_is_kw(&self, kw: &str) -> bool {
        self.peek().is_some_and(|t| t.eq_ignore_ascii_case(kw))
    }

    /// Parse a duration literal: `500ms`, `30s`, `2m`, `1500us`; a bare
    /// number means seconds.  Returns microseconds; a zero duration is an
    /// error (a window, slide or renewal period of nothing means nothing).
    fn parse_duration(token: &str) -> Result<Duration, SqlError> {
        let (digits, unit) = match token.find(|c: char| !c.is_ascii_digit()) {
            Some(split) => token.split_at(split),
            None => (token, "s"),
        };
        let n: u64 = digits
            .parse()
            .map_err(|_| SqlError(format!("bad duration {token}")))?;
        let factor = match unit.to_ascii_lowercase().as_str() {
            "us" => 1,
            "ms" => 1_000,
            "s" => 1_000_000,
            "m" => 60_000_000,
            other => return Err(SqlError(format!("unknown duration unit {other}"))),
        };
        if n == 0 {
            return Err(SqlError(format!("duration {token} must be positive")));
        }
        Ok(n.saturating_mul(factor))
    }

    fn parse_literal(token: &str) -> Value {
        if let Some(stripped) = token.strip_prefix('\'') {
            return Value::str(stripped.trim_end_matches('\''));
        }
        if token.eq_ignore_ascii_case("true") {
            return Value::Bool(true);
        }
        if token.eq_ignore_ascii_case("false") {
            return Value::Bool(false);
        }
        if let Ok(i) = token.parse::<i64>() {
            return Value::Int(i);
        }
        if let Ok(f) = token.parse::<f64>() {
            return Value::Float(f);
        }
        Value::str(token)
    }
}

/// Parse a SELECT statement.
pub fn parse(sql: &str) -> Result<SelectStatement, SqlError> {
    let mut p = Parser {
        tokens: tokenize(sql),
        pos: 0,
    };
    p.expect_kw("SELECT")?;
    let mut columns = Vec::new();
    let mut aggregates = Vec::new();
    loop {
        let token = p
            .next()
            .ok_or_else(|| SqlError("unexpected end of SELECT list".into()))?;
        let upper = token.to_ascii_uppercase();
        if ["COUNT", "SUM", "MIN", "MAX", "AVG"].contains(&upper.as_str()) {
            p.expect_kw("(")?;
            let arg = p
                .next()
                .ok_or_else(|| SqlError("aggregate missing argument".into()))?;
            p.expect_kw(")")?;
            let agg = match upper.as_str() {
                "COUNT" => AggFunc::Count,
                "SUM" => AggFunc::Sum(arg),
                "MIN" => AggFunc::Min(arg),
                "MAX" => AggFunc::Max(arg),
                _ => AggFunc::Avg(arg),
            };
            aggregates.push(agg);
        } else {
            columns.push(token);
        }
        if p.peek() == Some(",") {
            p.next();
            continue;
        }
        break;
    }
    p.expect_kw("FROM")?;
    let table = p
        .next()
        .ok_or_else(|| SqlError("missing table name".into()))?;
    let mut predicates = Vec::new();
    if p.peek_is_kw("WHERE") {
        p.next();
        loop {
            let col = p
                .next()
                .ok_or_else(|| SqlError("missing predicate column".into()))?;
            let op = p
                .next()
                .ok_or_else(|| SqlError("missing comparison operator".into()))?;
            let lit = p.next().ok_or_else(|| SqlError("missing literal".into()))?;
            let cmp = match op.as_str() {
                "=" | "==" => CmpOp::Eq,
                "!=" | "<>" => CmpOp::Ne,
                "<" => CmpOp::Lt,
                "<=" => CmpOp::Le,
                ">" => CmpOp::Gt,
                ">=" => CmpOp::Ge,
                other => return Err(SqlError(format!("unknown operator {other}"))),
            };
            predicates.push(Expr::cmp(
                cmp,
                Expr::col(&col),
                Expr::Const(Parser::parse_literal(&lit)),
            ));
            if p.peek_is_kw("AND") {
                p.next();
                continue;
            }
            break;
        }
    }
    let mut group_by = Vec::new();
    if p.peek_is_kw("GROUP") {
        p.next();
        p.expect_kw("BY")?;
        loop {
            group_by.push(
                p.next()
                    .ok_or_else(|| SqlError("missing GROUP BY column".into()))?,
            );
            if p.peek() == Some(",") {
                p.next();
                continue;
            }
            break;
        }
    }
    let mut top = None;
    if p.peek_is_kw("TOP") {
        p.next();
        let k: usize = p
            .next()
            .and_then(|t| t.parse().ok())
            .ok_or_else(|| SqlError("TOP requires a number".into()))?;
        p.expect_kw("BY")?;
        let col = p
            .next()
            .ok_or_else(|| SqlError("TOP ... BY requires a column".into()))?;
        top = Some((k, col));
    }
    let mut window = None;
    if p.peek_is_kw("WINDOW") {
        p.next();
        let size = p
            .next()
            .ok_or_else(|| SqlError("WINDOW requires a duration".into()))
            .and_then(|t| Parser::parse_duration(&t))?;
        let mut slide = None;
        if p.peek_is_kw("SLIDE") {
            p.next();
            slide = Some(
                p.next()
                    .ok_or_else(|| SqlError("SLIDE requires a duration".into()))
                    .and_then(|t| Parser::parse_duration(&t))?,
            );
        }
        window = Some((size, slide));
    }
    let mut every = None;
    if p.peek_is_kw("EVERY") {
        p.next();
        every = Some(
            p.next()
                .ok_or_else(|| SqlError("EVERY requires a duration".into()))
                .and_then(|t| Parser::parse_duration(&t))?,
        );
    }
    let mut deltas = false;
    if p.peek_is_kw("DELTAS") {
        p.next();
        deltas = true;
    }
    if let Some(trailing) = p.peek() {
        return Err(SqlError(format!("unexpected trailing token {trailing}")));
    }
    Ok(SelectStatement {
        columns,
        aggregates,
        table,
        predicates,
        group_by,
        top,
        window,
        every,
        deltas,
    })
}

/// Plan a parsed statement with the naive strategy described in §4.2.
/// Statements with windowing clauses must be planned through
/// [`plan_checked`]; this infallible variant keeps the historical signature
/// and maps windowed statements the same way (invalid combinations fall
/// back to ignoring the window).
pub fn plan(statement: &SelectStatement, proxy: NodeAddr, timeout: Duration) -> QueryPlan {
    plan_checked(statement, proxy, timeout).unwrap_or_else(|_| {
        let mut no_window = statement.clone();
        no_window.window = None;
        plan_checked(&no_window, proxy, timeout).expect("windowless plan is infallible")
    })
}

/// Plan a parsed statement, rejecting invalid windowing combinations: a
/// `WINDOW` clause requires at least one aggregate, and a `SLIDE` longer
/// than its window (which would skip the rows between windows) is
/// refused rather than clamped.
pub fn plan_checked(
    statement: &SelectStatement,
    proxy: NodeAddr,
    timeout: Duration,
) -> Result<QueryPlan, SqlError> {
    if statement.window.is_some() && statement.aggregates.is_empty() {
        return Err(SqlError(
            "WINDOW requires an aggregate (windowed raw streams are not supported)".into(),
        ));
    }
    if let Some((size, Some(slide))) = statement.window {
        if slide > size {
            return Err(SqlError(format!(
                "SLIDE ({slide}us) must not exceed WINDOW ({size}us)"
            )));
        }
    }
    let predicate = Expr::all(statement.predicates.clone());
    // Naive dissemination choice: a selection with an equality predicate
    // on any column is routable to the partition holding that key
    // (assuming the table is published hashed on that column).  An
    // aggregate broadcasts, one-shot or windowed: its answer is combined
    // from every node's rows, and a keyed plan is installed at one node.
    let key = predicate
        .conjuncts()
        .filter_map(Expr::atom)
        .find_map(|a| predicate.equality_constant(&a.column));
    let dissemination = match key {
        Some(v) if statement.aggregates.is_empty() => Dissemination::ByKey {
            namespace: statement.table.clone(),
            key: v.key_string(),
        },
        _ => Dissemination::Broadcast,
    };

    let mut ops = Vec::new();
    if !statement.predicates.is_empty() {
        ops.push(OperatorSpec::Selection(predicate));
    }
    let final_ops = statement
        .top
        .as_ref()
        .map(|(k, col)| {
            vec![OperatorSpec::TopK {
                k: *k,
                order_col: col.clone(),
            }]
        })
        .unwrap_or_default();
    let mut cq = None;
    let sink = if let Some((size, slide)) = statement.window {
        // A standing windowed aggregate: every node must see the stream, so
        // the plan broadcasts and the proxy keeps renewing it.
        let slide = slide.unwrap_or(size);
        let window = WindowSpec::sliding(size, slide);
        cq = Some(
            statement
                .every
                .map(CqSpec::renewing_every)
                .unwrap_or_default(),
        );
        SinkSpec::WindowedAgg {
            window,
            group_cols: statement.group_by.clone(),
            aggs: statement.aggregates.clone(),
            time_col: Some("ts".to_string()),
            delta: if statement.deltas {
                DeltaMode::Deltas
            } else {
                DeltaMode::Snapshot
            },
            final_ops,
        }
    } else if !statement.aggregates.is_empty() {
        SinkSpec::HierarchicalAgg {
            group_cols: statement.group_by.clone(),
            aggs: statement.aggregates.clone(),
            hold: aggregation_hold(timeout),
            final_ops,
            flat: false,
        }
    } else {
        if !statement.columns.is_empty() && statement.columns != vec!["*".to_string()] {
            ops.push(OperatorSpec::Projection(statement.columns.clone()));
        }
        SinkSpec::ToProxy
    };
    let mut builder = PlanBuilder::new(proxy)
        .dissemination(dissemination)
        .timeout(timeout);
    if let Some(cq) = cq {
        builder = builder.cq(cq);
    }
    Ok(builder
        .opgraph(OpGraph {
            id: 0,
            source: SourceSpec::Table {
                namespace: statement.table.clone(),
            },
            join: None,
            ops,
            sink,
        })
        .build())
}

/// Strip a leading `EXPLAIN ANALYZE` prefix (case-insensitive), returning
/// the remaining statement when present.
pub fn strip_explain_analyze(sql: &str) -> Option<&str> {
    let mut rest = sql.trim_start();
    for word in ["EXPLAIN", "ANALYZE"] {
        if rest.len() <= word.len()
            || !rest[..word.len()].eq_ignore_ascii_case(word)
            || !rest[word.len()..].starts_with(char::is_whitespace)
        {
            return None;
        }
        rest = rest[word.len()..].trim_start();
    }
    Some(rest)
}

/// Parse and plan in one step.
///
/// A statement prefixed with `EXPLAIN ANALYZE` compiles to the same plan
/// with [`QueryPlan::trace`] forced on: the query runs normally (same
/// results, same dissemination) while every participating node records
/// `pier-trace` spans, from which the harness assembles the measured
/// per-stage profile (see `pier_trace::QueryProfile`).
pub fn compile(sql: &str, proxy: NodeAddr, timeout: Duration) -> Result<QueryPlan, SqlError> {
    if let Some(inner) = strip_explain_analyze(sql) {
        let mut plan = plan_checked(&parse(inner)?, proxy, timeout)?;
        plan.trace = true;
        return Ok(plan);
    }
    plan_checked(&parse(sql)?, proxy, timeout)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_simple_select() {
        let s =
            parse("SELECT file, size FROM files WHERE keyword = 'rock' AND size > 100").unwrap();
        assert_eq!(s.columns, vec!["file", "size"]);
        assert_eq!(s.table, "files");
        assert_eq!(s.predicates.len(), 2);
        assert!(s.aggregates.is_empty());
    }

    #[test]
    fn parses_aggregate_with_group_by_and_top() {
        let s = parse("SELECT src, COUNT(*) FROM events GROUP BY src TOP 10 BY count").unwrap();
        assert_eq!(s.columns, vec!["src"]);
        assert_eq!(s.aggregates, vec![AggFunc::Count]);
        assert_eq!(s.group_by, vec!["src"]);
        assert_eq!(s.top, Some((10, "count".to_string())));
    }

    #[test]
    fn explain_analyze_prefix_marks_the_plan_traced() {
        let plain = compile("SELECT file FROM files", NodeAddr(1), 5_000_000).unwrap();
        assert!(!plain.trace);
        for sql in [
            "EXPLAIN ANALYZE SELECT file FROM files",
            "  explain   analyze SELECT file FROM files",
            "Explain Analyze SELECT file FROM files",
        ] {
            let traced = compile(sql, NodeAddr(1), 5_000_000).unwrap();
            assert!(traced.trace, "{sql}");
            assert_eq!(traced.opgraphs, plain.opgraphs, "{sql}");
        }
        // Not a prefix: ordinary statements are untouched.
        assert!(strip_explain_analyze("SELECT x FROM explain").is_none());
        assert!(strip_explain_analyze("EXPLAINANALYZE SELECT x FROM t").is_none());
        assert!(strip_explain_analyze("EXPLAIN SELECT x FROM t").is_none());
    }

    #[test]
    fn parse_errors_are_reported() {
        assert!(parse("SELEC x FROM t").is_err());
        assert!(parse("SELECT x FROM").is_err());
        assert!(parse("SELECT x FROM t WHERE a ~ 3").is_err());
        assert!(parse("SELECT x FROM t TOP abc BY c").is_err());
    }

    #[test]
    fn equality_predicate_selects_bykey_dissemination() {
        let q = compile(
            "SELECT file FROM files WHERE keyword = 'rock'",
            NodeAddr(1),
            5_000_000,
        )
        .unwrap();
        match &q.dissemination {
            Dissemination::ByKey { namespace, key } => {
                assert_eq!(namespace, "files");
                assert_eq!(key, &Value::Str("rock".into()).key_string());
            }
            other => panic!("expected ByKey, got {other:?}"),
        }
        assert!(matches!(q.opgraphs[0].sink, SinkSpec::ToProxy));
    }

    #[test]
    fn an_aggregate_with_an_equality_predicate_broadcasts() {
        // Keyed, the plan would run at the key's owner alone and answer
        // nothing: its partials combine at a window root elsewhere.
        let sql = "SELECT src, COUNT(*) FROM events WHERE src = 'a' GROUP BY src";
        for timeout in [5_000_000, 30_000_000] {
            let q = compile(sql, NodeAddr(1), timeout).unwrap();
            assert!(matches!(q.dissemination, Dissemination::Broadcast));
        }
        let windowed = compile(&format!("{sql} WINDOW 10s"), NodeAddr(1), 5_000_000).unwrap();
        assert!(matches!(windowed.dissemination, Dissemination::Broadcast));
    }

    #[test]
    fn range_only_predicate_broadcasts() {
        let q = compile("SELECT file FROM files WHERE size > 10", NodeAddr(1), 1_000).unwrap();
        assert!(matches!(q.dissemination, Dissemination::Broadcast));
    }

    #[test]
    fn aggregate_plans_use_hierarchical_aggregation() {
        let q = compile(
            "SELECT src, COUNT(*) FROM events GROUP BY src TOP 10 BY count",
            NodeAddr(2),
            30_000_000,
        )
        .unwrap();
        match &q.opgraphs[0].sink {
            SinkSpec::HierarchicalAgg {
                group_cols,
                aggs,
                final_ops,
                ..
            } => {
                assert_eq!(group_cols, &vec!["src".to_string()]);
                assert_eq!(aggs, &vec![AggFunc::Count]);
                assert_eq!(final_ops.len(), 1);
            }
            other => panic!("expected hierarchical aggregation, got {other:?}"),
        }
    }

    #[test]
    fn string_literals_and_numbers_parse_into_values() {
        assert_eq!(Parser::parse_literal("'abc'"), Value::Str("abc".into()));
        assert_eq!(Parser::parse_literal("42"), Value::Int(42));
        assert_eq!(Parser::parse_literal("2.5"), Value::Float(2.5));
        assert_eq!(Parser::parse_literal("true"), Value::Bool(true));
    }
}
