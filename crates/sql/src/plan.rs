//! The logical query plan.
//!
//! GSN's query manager "includes the query processor being in charge of SQL parsing, query
//! planning, and execution of queries (using an adaptive query execution plan)" (paper,
//! Section 4).  The planner lowers the AST into a small algebra of logical operators; the
//! optimizer rewrites the plan; the executor interprets it.

use std::fmt;

use gsn_types::{GsnError, GsnResult};

use gsn_types::Value;

use crate::ast::{
    BinaryOp, Expr, Join, JoinOperator, Query, SelectBody, SelectItem, SetOperator, TableFactor,
    TableWithJoins,
};

/// A projection output column: an expression plus its output name.
#[derive(Debug, Clone, PartialEq)]
pub struct ProjectionItem {
    /// The expression to evaluate.
    pub expr: Expr,
    /// The output column name.
    pub name: String,
}

/// Join kinds at the plan level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinKind {
    /// Inner join.
    Inner,
    /// Left outer join.
    LeftOuter,
    /// Cross product.
    Cross,
}

impl fmt::Display for JoinKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JoinKind::Inner => f.write_str("INNER"),
            JoinKind::LeftOuter => f.write_str("LEFT OUTER"),
            JoinKind::Cross => f.write_str("CROSS"),
        }
    }
}

/// One sort key.
#[derive(Debug, Clone, PartialEq)]
pub struct SortKey {
    /// The sort expression.
    pub expr: Expr,
    /// Ascending or descending.
    pub ascending: bool,
}

/// Constraints pushed below a [`LogicalPlan::Scan`] into the storage layer.
///
/// The optimizer absorbs sargable `WHERE` conjuncts over the implicit `PK` /
/// `TIMED` columns into inclusive range bounds, collects the column set the
/// rest of the plan actually reads, and records a limit hint for
/// `LIMIT`-over-scan shapes.  Storage treats every field as a *superset-safe
/// hint*: it may return extra rows (e.g. whole pages overlapping a time
/// bound), so `residual` keeps **all** absorbed conjuncts and the executor
/// re-applies them row-wise above the scan — a catalog that ignores the spec
/// entirely is still correct.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ScanSpec {
    /// Inclusive lower bound on the implicit `PK` sequence column.
    pub min_seq: Option<u64>,
    /// Inclusive upper bound on the implicit `PK` sequence column.
    pub max_seq: Option<u64>,
    /// Inclusive lower bound on the implicit `TIMED` column (epoch millis).
    pub min_ts: Option<i64>,
    /// Inclusive upper bound on the implicit `TIMED` column (epoch millis).
    pub max_ts: Option<i64>,
    /// Every conjunct absorbed from Filters above the scan (bounds included);
    /// the executor evaluates all of them against each scanned row.
    pub residual: Vec<Expr>,
    /// Columns the plan reads from this scan; `None` means all (wildcard).
    pub projection: Option<Vec<String>>,
    /// Maximum rows the plan consumes, when no residual can drop rows first.
    pub limit: Option<u64>,
}

impl ScanSpec {
    /// True when nothing was pushed down (the scan behaves like the seed path).
    pub fn is_default(&self) -> bool {
        *self == ScanSpec::default()
    }

    /// Tries to tighten the range bounds with one conjunct of the form
    /// `PK/TIMED <cmp> <integer literal>` (or reversed).  Returns whether the
    /// conjunct was recognised; the caller records it in `residual` either way.
    pub fn absorb_bound(&mut self, conjunct: &Expr, alias: &str) -> bool {
        let Expr::Binary { left, op, right } = conjunct else {
            return false;
        };
        let on_alias = |qualifier: &Option<String>| {
            qualifier
                .as_deref()
                .is_none_or(|q| q.eq_ignore_ascii_case(alias))
        };
        let (column, op, value) = match (&**left, &**right) {
            (Expr::Column { qualifier, name }, Expr::Literal(Value::Integer(v)))
                if on_alias(qualifier) =>
            {
                (name, *op, *v)
            }
            (Expr::Literal(Value::Integer(v)), Expr::Column { qualifier, name })
                if on_alias(qualifier) =>
            {
                let mirrored = match op {
                    BinaryOp::Lt => BinaryOp::Gt,
                    BinaryOp::LtEq => BinaryOp::GtEq,
                    BinaryOp::Gt => BinaryOp::Lt,
                    BinaryOp::GtEq => BinaryOp::LtEq,
                    BinaryOp::Eq => BinaryOp::Eq,
                    _ => return false,
                };
                (name, mirrored, *v)
            }
            _ => return false,
        };
        let (lo, hi) = match op {
            BinaryOp::Gt => (Some(value.saturating_add(1)), None),
            BinaryOp::GtEq => (Some(value), None),
            BinaryOp::Lt => (None, Some(value.saturating_sub(1))),
            BinaryOp::LtEq => (None, Some(value)),
            BinaryOp::Eq => (Some(value), Some(value)),
            _ => return false,
        };
        if column.eq_ignore_ascii_case("pk") {
            if let Some(lo) = lo {
                let lo = lo.max(0) as u64;
                self.min_seq = Some(self.min_seq.map_or(lo, |cur| cur.max(lo)));
            }
            if let Some(hi) = hi {
                let hi = hi.max(0) as u64;
                self.max_seq = Some(self.max_seq.map_or(hi, |cur| cur.min(hi)));
            }
            true
        } else if column.eq_ignore_ascii_case("timed") {
            if let Some(lo) = lo {
                self.min_ts = Some(self.min_ts.map_or(lo, |cur| cur.max(lo)));
            }
            if let Some(hi) = hi {
                self.max_ts = Some(self.max_ts.map_or(hi, |cur| cur.min(hi)));
            }
            true
        } else {
            false
        }
    }

    /// True when the conjunct would tighten a PK/TIMED bound on `alias`.
    pub fn is_bound_conjunct(conjunct: &Expr, alias: &str) -> bool {
        ScanSpec::default().absorb_bound(conjunct, alias)
    }

    fn bounds_description(&self) -> Vec<String> {
        let mut parts = Vec::new();
        if let Some(v) = self.min_seq {
            parts.push(format!("pk >= {v}"));
        }
        if let Some(v) = self.max_seq {
            parts.push(format!("pk <= {v}"));
        }
        if let Some(v) = self.min_ts {
            parts.push(format!("timed >= {v}"));
        }
        if let Some(v) = self.max_ts {
            parts.push(format!("timed <= {v}"));
        }
        parts
    }

    /// Renders the pushed-down parts as an `EXPLAIN` suffix (empty when default).
    pub fn explain_suffix(&self, alias: &str) -> String {
        let mut s = String::new();
        let bounds = self.bounds_description();
        if !bounds.is_empty() {
            s.push_str(&format!(" [{}]", bounds.join(", ")));
        }
        let residual: Vec<String> = self
            .residual
            .iter()
            .filter(|c| !ScanSpec::is_bound_conjunct(c, alias))
            .map(|c| c.to_string())
            .collect();
        if !residual.is_empty() {
            s.push_str(&format!(" residual={}", residual.join(" AND ")));
        }
        if let Some(cols) = &self.projection {
            s.push_str(&format!(" columns=[{}]", cols.join(", ")));
        }
        if let Some(n) = self.limit {
            s.push_str(&format!(" limit={n}"));
        }
        s
    }
}

/// A logical plan operator tree.
#[derive(Debug, Clone, PartialEq)]
pub enum LogicalPlan {
    /// Scan a named base relation (stream-source window or virtual sensor table).
    Scan {
        /// The table name as written in the query.
        table: String,
        /// The alias the rest of the query uses to refer to it.
        alias: String,
        /// Bounds/residual/projection/limit pushed below the scan.
        spec: ScanSpec,
    },
    /// A single row with no columns; the input of FROM-less SELECTs.
    Empty,
    /// A derived table (subquery in FROM).
    Derived {
        /// The subplan.
        input: Box<LogicalPlan>,
        /// The alias under which its columns are visible.
        alias: String,
    },
    /// Filter rows by a predicate.
    Filter {
        /// The input plan.
        input: Box<LogicalPlan>,
        /// The predicate.
        predicate: Expr,
    },
    /// Join two inputs.
    Join {
        /// Left input.
        left: Box<LogicalPlan>,
        /// Right input.
        right: Box<LogicalPlan>,
        /// Join kind.
        kind: JoinKind,
        /// ON condition (`None` for cross joins).
        on: Option<Expr>,
    },
    /// Evaluate projections (no aggregation).
    Project {
        /// The input plan.
        input: Box<LogicalPlan>,
        /// The output expressions.
        items: Vec<ProjectionItem>,
        /// Wildcard projections to expand at execution time (qualifier or `*`).
        wildcards: Vec<Option<String>>,
    },
    /// Grouped or global aggregation.
    Aggregate {
        /// The input plan.
        input: Box<LogicalPlan>,
        /// GROUP BY expressions (empty = global aggregate).
        group_by: Vec<Expr>,
        /// Output items; may mix group expressions and aggregate calls.
        items: Vec<ProjectionItem>,
        /// HAVING predicate evaluated over the aggregated row.
        having: Option<Expr>,
    },
    /// Remove duplicate rows.
    Distinct {
        /// The input plan.
        input: Box<LogicalPlan>,
    },
    /// Sort rows.
    Sort {
        /// The input plan.
        input: Box<LogicalPlan>,
        /// Sort keys, applied in order.
        keys: Vec<SortKey>,
    },
    /// Limit/offset.
    Limit {
        /// The input plan.
        input: Box<LogicalPlan>,
        /// Maximum number of rows to return.
        limit: Option<u64>,
        /// Number of leading rows to skip.
        offset: u64,
    },
    /// Combine two inputs with a set operator.
    SetOp {
        /// Left input.
        left: Box<LogicalPlan>,
        /// Right input.
        right: Box<LogicalPlan>,
        /// The set operator.
        op: SetOperator,
        /// Keep duplicates (`UNION ALL`)?
        all: bool,
    },
}

impl LogicalPlan {
    /// Returns the direct children of this operator.
    pub fn children(&self) -> Vec<&LogicalPlan> {
        match self {
            LogicalPlan::Scan { .. } | LogicalPlan::Empty => vec![],
            LogicalPlan::Derived { input, .. }
            | LogicalPlan::Filter { input, .. }
            | LogicalPlan::Project { input, .. }
            | LogicalPlan::Aggregate { input, .. }
            | LogicalPlan::Distinct { input }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::Limit { input, .. } => vec![input],
            LogicalPlan::Join { left, right, .. } | LogicalPlan::SetOp { left, right, .. } => {
                vec![left, right]
            }
        }
    }

    /// Renders an `EXPLAIN`-style indented description of the plan.
    pub fn explain(&self) -> String {
        let mut out = String::new();
        self.explain_into(&mut out, 0);
        out
    }

    fn explain_into(&self, out: &mut String, depth: usize) {
        let indent = "  ".repeat(depth);
        let line = match self {
            LogicalPlan::Scan { table, alias, spec } => {
                let mut s = if table.eq_ignore_ascii_case(alias) {
                    format!("Scan {table}")
                } else {
                    format!("Scan {table} AS {alias}")
                };
                s.push_str(&spec.explain_suffix(alias));
                s
            }
            LogicalPlan::Empty => "Empty".to_owned(),
            LogicalPlan::Derived { alias, .. } => format!("Derived AS {alias}"),
            LogicalPlan::Filter { predicate, .. } => format!("Filter {predicate}"),
            LogicalPlan::Join { kind, on, .. } => match on {
                Some(e) => format!("{kind} Join ON {e}"),
                None => format!("{kind} Join"),
            },
            LogicalPlan::Project {
                items, wildcards, ..
            } => {
                let mut parts: Vec<String> = wildcards
                    .iter()
                    .map(|w| match w {
                        Some(q) => format!("{q}.*"),
                        None => "*".to_owned(),
                    })
                    .collect();
                parts.extend(items.iter().map(|i| format!("{} AS {}", i.expr, i.name)));
                format!("Project {}", parts.join(", "))
            }
            LogicalPlan::Aggregate {
                group_by,
                items,
                having,
                ..
            } => {
                let groups: Vec<String> = group_by.iter().map(|g| g.to_string()).collect();
                let outs: Vec<String> = items
                    .iter()
                    .map(|i| format!("{} AS {}", i.expr, i.name))
                    .collect();
                let mut s = format!("Aggregate [{}] -> [{}]", groups.join(", "), outs.join(", "));
                if let Some(h) = having {
                    s.push_str(&format!(" HAVING {h}"));
                }
                s
            }
            LogicalPlan::Distinct { .. } => "Distinct".to_owned(),
            LogicalPlan::Sort { keys, .. } => {
                let ks: Vec<String> = keys
                    .iter()
                    .map(|k| format!("{} {}", k.expr, if k.ascending { "ASC" } else { "DESC" }))
                    .collect();
                format!("Sort {}", ks.join(", "))
            }
            LogicalPlan::Limit { limit, offset, .. } => {
                format!("Limit {:?} OFFSET {offset}", limit)
            }
            LogicalPlan::SetOp { op, all, .. } => {
                format!("{op}{}", if *all { " ALL" } else { "" })
            }
        };
        out.push_str(&indent);
        out.push_str(&line);
        out.push('\n');
        for child in self.children() {
            child.explain_into(out, depth + 1);
        }
    }

    /// Renders the *physical* operator tree the cursor executor instantiates for this
    /// plan, annotating each node as streaming (rows flow one at a time) or buffering
    /// (a pipeline breaker that must hold state before emitting).
    pub fn explain_physical(&self) -> String {
        let mut out = String::new();
        self.explain_physical_into(&mut out, 0);
        out
    }

    fn explain_physical_into(&self, out: &mut String, depth: usize) {
        let indent = "  ".repeat(depth);
        let line = match self {
            LogicalPlan::Scan { table, alias, spec } => {
                // A scan with pushed-down range bounds or a limit hint seeks via
                // the segment index instead of starting at row 0.
                let seeks = spec.min_seq.is_some()
                    || spec.max_seq.is_some()
                    || spec.min_ts.is_some()
                    || spec.max_ts.is_some()
                    || spec.limit.is_some();
                let operator = if seeks {
                    "IndexRangeScan"
                } else {
                    "StreamScan"
                };
                let name = if table.eq_ignore_ascii_case(alias) {
                    table.clone()
                } else {
                    format!("{table} AS {alias}")
                };
                format!(
                    "{operator} {name}{} [streaming]",
                    spec.explain_suffix(alias)
                )
            }
            LogicalPlan::Empty => "SingleRow [streaming]".to_owned(),
            LogicalPlan::Derived { alias, .. } => format!("Derived AS {alias} [streaming]"),
            LogicalPlan::Filter { .. } => "Filter [streaming]".to_owned(),
            LogicalPlan::Join { kind, on, .. } => {
                // Mirror the executor's common case: a plain column-equality ON of an
                // inner join takes the hash path (columns that share a qualifier
                // cannot land on both sides, so they nested-loop).  The executor
                // additionally requires one column to *resolve* on each side — an
                // unresolvable or ambiguous equality falls back to nested loop at run
                // time, which a schema-less EXPLAIN cannot predict.
                let equi = *kind == JoinKind::Inner
                    && matches!(
                        on,
                        Some(Expr::Binary {
                            op: crate::ast::BinaryOp::Eq,
                            left,
                            right,
                        }) if matches!(
                            (&**left, &**right),
                            (
                                Expr::Column { qualifier: lq, .. },
                                Expr::Column { qualifier: rq, .. },
                            ) if lq.is_none() || rq.is_none() || lq != rq
                        )
                    );
                let algo = if equi { "HashJoin" } else { "NestedLoopJoin" };
                format!("{algo} ({kind}) [buffering: build right, stream left]")
            }
            LogicalPlan::Project { .. } => "Project [streaming]".to_owned(),
            LogicalPlan::Aggregate { group_by, .. } => {
                if group_by.is_empty() {
                    "Aggregate (global) [buffering: accumulator state]".to_owned()
                } else {
                    "Aggregate (grouped) [buffering: group state]".to_owned()
                }
            }
            LogicalPlan::Distinct { .. } => "Distinct [streaming: dedup set]".to_owned(),
            LogicalPlan::Sort { .. } => "Sort [buffering: full input]".to_owned(),
            LogicalPlan::Limit { limit, offset, .. } => {
                let mut s = "Limit".to_owned();
                if let Some(n) = limit {
                    s.push_str(&format!(" {n}"));
                }
                if *offset > 0 {
                    s.push_str(&format!(" OFFSET {offset}"));
                }
                s.push_str(" [streaming: early-exit]");
                s
            }
            LogicalPlan::SetOp { op, all, .. } => {
                let suffix = if *all { " ALL" } else { "" };
                match op {
                    SetOperator::Union => format!("{op}{suffix} [streaming: both sides in order]"),
                    SetOperator::Intersect | SetOperator::Except => {
                        format!("{op}{suffix} [buffering: right-side keys]")
                    }
                }
            }
        };
        out.push_str(&indent);
        out.push_str(&line);
        out.push('\n');
        for child in self.children() {
            child.explain_physical_into(out, depth + 1);
        }
    }
}

/// Lowers a parsed [`Query`] into a [`LogicalPlan`].
pub fn plan_query(query: &Query) -> GsnResult<LogicalPlan> {
    let mut plan = plan_select_body(&query.body)?;
    for (op, all, body) in &query.set_ops {
        let rhs = plan_select_body(body)?;
        plan = LogicalPlan::SetOp {
            left: Box::new(plan),
            right: Box::new(rhs),
            op: *op,
            all: *all,
        };
    }

    let keys: Vec<SortKey> = query
        .order_by
        .iter()
        .map(|o| SortKey {
            expr: o.expr.clone(),
            ascending: o.ascending,
        })
        .collect();

    if !keys.is_empty() {
        // SQL allows ORDER BY to reference input columns that are not part of the
        // projection (`select image from cam order by timed desc`).  When the top of the
        // plan is a plain projection and no sort key depends on a computed/renamed output
        // column, the sort (and the limit, which commutes with a row-preserving
        // projection) is applied *below* the projection so those columns are visible.
        plan = if query.set_ops.is_empty() && sort_below_projection(&plan, &keys) {
            match plan {
                LogicalPlan::Project {
                    input,
                    items,
                    wildcards,
                } => {
                    let mut inner = LogicalPlan::Sort { input, keys };
                    if query.limit.is_some() || query.offset.is_some() {
                        inner = LogicalPlan::Limit {
                            input: Box::new(inner),
                            limit: query.limit,
                            offset: query.offset.unwrap_or(0),
                        };
                    }
                    return Ok(LogicalPlan::Project {
                        input: Box::new(inner),
                        items,
                        wildcards,
                    });
                }
                other => other,
            }
        } else {
            LogicalPlan::Sort {
                input: Box::new(plan),
                keys,
            }
        };
    }
    if query.limit.is_some() || query.offset.is_some() {
        plan = LogicalPlan::Limit {
            input: Box::new(plan),
            limit: query.limit,
            offset: query.offset.unwrap_or(0),
        };
    }
    Ok(plan)
}

/// True when the sort keys can (and should) be evaluated below the top-level projection:
/// the top of the plan is a non-distinct `Project` and no key references a projection
/// output that is computed or renamed (those only exist above the projection).
fn sort_below_projection(plan: &LogicalPlan, keys: &[SortKey]) -> bool {
    let LogicalPlan::Project { items, .. } = plan else {
        return false;
    };
    keys.iter().all(|key| {
        key.expr
            .referenced_columns()
            .iter()
            .all(|(qualifier, name)| {
                if qualifier.is_some() {
                    // Qualified names always refer to base relations below the projection.
                    return true;
                }
                match items
                    .iter()
                    .find(|item| item.name.eq_ignore_ascii_case(name))
                {
                    // The key names a projection output: only safe below when that output is a
                    // plain pass-through column with the same name.
                    Some(item) => matches!(
                        &item.expr,
                        Expr::Column { name: col, .. } if col.eq_ignore_ascii_case(name)
                    ),
                    // Not a projection output: it must be an input column, i.e. below.
                    None => true,
                }
            })
    })
}

fn plan_select_body(body: &SelectBody) -> GsnResult<LogicalPlan> {
    // FROM clause: cross-join the comma-separated entries, each of which may itself be a
    // join chain.
    let mut input = match body.from.split_first() {
        None => LogicalPlan::Empty,
        Some((first, rest)) => {
            let mut plan = plan_table_with_joins(first)?;
            for entry in rest {
                let rhs = plan_table_with_joins(entry)?;
                plan = LogicalPlan::Join {
                    left: Box::new(plan),
                    right: Box::new(rhs),
                    kind: JoinKind::Cross,
                    on: None,
                };
            }
            plan
        }
    };

    if let Some(pred) = &body.selection {
        input = LogicalPlan::Filter {
            input: Box::new(input),
            predicate: pred.clone(),
        };
    }

    // Decide between plain projection and aggregation.
    let has_aggregates = body.projection.iter().any(|item| match item {
        SelectItem::Expr { expr, .. } => expr.contains_aggregate(),
        _ => false,
    }) || body
        .having
        .as_ref()
        .map(|h| h.contains_aggregate())
        .unwrap_or(false)
        || !body.group_by.is_empty();

    let mut plan = if has_aggregates {
        let items = projection_items(&body.projection, true)?;
        LogicalPlan::Aggregate {
            input: Box::new(input),
            group_by: body.group_by.clone(),
            items,
            having: body.having.clone(),
        }
    } else {
        if body.having.is_some() {
            return Err(GsnError::sql_parse(
                "HAVING requires GROUP BY or aggregate functions",
            ));
        }
        let items = projection_items(&body.projection, false)?;
        let wildcards: Vec<Option<String>> = body
            .projection
            .iter()
            .filter_map(|p| match p {
                SelectItem::Wildcard => Some(None),
                SelectItem::QualifiedWildcard(q) => Some(Some(q.clone())),
                SelectItem::Expr { .. } => None,
            })
            .collect();
        LogicalPlan::Project {
            input: Box::new(input),
            items,
            wildcards,
        }
    };

    if body.distinct {
        plan = LogicalPlan::Distinct {
            input: Box::new(plan),
        };
    }
    Ok(plan)
}

fn plan_table_with_joins(twj: &TableWithJoins) -> GsnResult<LogicalPlan> {
    let mut plan = plan_table_factor(&twj.relation)?;
    for Join {
        relation,
        join_operator,
    } in &twj.joins
    {
        let rhs = plan_table_factor(relation)?;
        let (kind, on) = match join_operator {
            JoinOperator::Inner(e) => (JoinKind::Inner, Some(e.clone())),
            JoinOperator::LeftOuter(e) => (JoinKind::LeftOuter, Some(e.clone())),
            JoinOperator::Cross => (JoinKind::Cross, None),
        };
        plan = LogicalPlan::Join {
            left: Box::new(plan),
            right: Box::new(rhs),
            kind,
            on,
        };
    }
    Ok(plan)
}

fn plan_table_factor(factor: &TableFactor) -> GsnResult<LogicalPlan> {
    match factor {
        TableFactor::Table { name, alias } => Ok(LogicalPlan::Scan {
            table: name.clone(),
            alias: alias.clone().unwrap_or_else(|| name.clone()),
            spec: ScanSpec::default(),
        }),
        TableFactor::Derived { subquery, alias } => Ok(LogicalPlan::Derived {
            input: Box::new(plan_query(subquery)?),
            alias: alias.clone(),
        }),
    }
}

/// Builds the output items for a projection or aggregation, assigning output names.
fn projection_items(
    projection: &[SelectItem],
    aggregating: bool,
) -> GsnResult<Vec<ProjectionItem>> {
    let mut items = Vec::new();
    for (i, item) in projection.iter().enumerate() {
        match item {
            SelectItem::Wildcard | SelectItem::QualifiedWildcard(_) => {
                if aggregating {
                    return Err(GsnError::sql_parse(
                        "wildcard projection cannot be combined with GROUP BY / aggregates",
                    ));
                }
            }
            SelectItem::Expr { expr, alias } => {
                let name = match alias {
                    Some(a) => a.to_ascii_uppercase(),
                    None => default_output_name(expr, i),
                };
                items.push(ProjectionItem {
                    expr: expr.clone(),
                    name,
                });
            }
        }
    }
    Ok(items)
}

/// Derives an output column name from an expression, mirroring common SQL engines:
/// a bare column keeps its name, a function call uses the function name, anything else
/// gets a positional name.
fn default_output_name(expr: &Expr, index: usize) -> String {
    match expr {
        Expr::Column { name, .. } => name.to_ascii_uppercase(),
        Expr::Function { name, .. } => name.to_ascii_uppercase(),
        _ => format!("EXPR_{}", index + 1),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;

    fn plan(sql: &str) -> LogicalPlan {
        plan_query(&parse_query(sql).unwrap()).unwrap()
    }

    #[test]
    fn plans_simple_select() {
        let p = plan("select * from src1");
        match &p {
            LogicalPlan::Project {
                input,
                items,
                wildcards,
            } => {
                assert!(items.is_empty());
                assert_eq!(wildcards, &vec![None]);
                assert!(matches!(**input, LogicalPlan::Scan { .. }));
            }
            other => panic!("unexpected plan {other:?}"),
        }
    }

    #[test]
    fn plans_filter_and_aliases() {
        let p = plan("select temperature t from wrapper w where temperature > 10");
        let explain = p.explain();
        assert!(explain.contains("Project temperature AS T"));
        assert!(explain.contains("Filter (temperature > 10)"));
        assert!(explain.contains("Scan wrapper AS w"));
    }

    #[test]
    fn plans_aggregates_with_group_by() {
        let p = plan("select room, avg(temp) from motes group by room having avg(temp) > 20");
        match &p {
            LogicalPlan::Aggregate {
                group_by,
                items,
                having,
                ..
            } => {
                assert_eq!(group_by.len(), 1);
                assert_eq!(items.len(), 2);
                assert_eq!(items[0].name, "ROOM");
                assert_eq!(items[1].name, "AVG");
                assert!(having.is_some());
            }
            other => panic!("unexpected plan {other:?}"),
        }
    }

    #[test]
    fn global_aggregate_without_group_by() {
        let p = plan("select avg(temperature) from wrapper");
        assert!(matches!(p, LogicalPlan::Aggregate { ref group_by, .. } if group_by.is_empty()));
    }

    #[test]
    fn plans_joins_and_cross_products() {
        let p = plan("select * from a join b on a.x = b.x, c");
        // Top: Project -> Join(Cross) -> [Join(Inner), Scan c]
        match &p {
            LogicalPlan::Project { input, .. } => match &**input {
                LogicalPlan::Join {
                    kind: JoinKind::Cross,
                    left,
                    ..
                } => {
                    assert!(matches!(
                        **left,
                        LogicalPlan::Join {
                            kind: JoinKind::Inner,
                            ..
                        }
                    ));
                }
                other => panic!("unexpected inner {other:?}"),
            },
            other => panic!("unexpected plan {other:?}"),
        }
    }

    #[test]
    fn plans_order_limit_distinct_setops() {
        let p =
            plan("select distinct a from t union select a from u order by a desc limit 5 offset 2");
        match &p {
            LogicalPlan::Limit {
                limit,
                offset,
                input,
            } => {
                assert_eq!(*limit, Some(5));
                assert_eq!(*offset, 2);
                match &**input {
                    LogicalPlan::Sort { keys, input } => {
                        assert!(!keys[0].ascending);
                        assert!(matches!(
                            **input,
                            LogicalPlan::SetOp {
                                op: SetOperator::Union,
                                all: false,
                                ..
                            }
                        ));
                    }
                    other => panic!("unexpected {other:?}"),
                }
            }
            other => panic!("unexpected plan {other:?}"),
        }
    }

    #[test]
    fn plans_derived_tables() {
        let p = plan("select * from (select a from t) s");
        match &p {
            LogicalPlan::Project { input, .. } => {
                assert!(matches!(**input, LogicalPlan::Derived { ref alias, .. } if alias == "s"));
            }
            other => panic!("unexpected plan {other:?}"),
        }
    }

    #[test]
    fn plans_from_less_select() {
        let p = plan("select 1 + 1");
        match &p {
            LogicalPlan::Project { input, items, .. } => {
                assert!(matches!(**input, LogicalPlan::Empty));
                assert_eq!(items[0].name, "EXPR_1");
            }
            other => panic!("unexpected plan {other:?}"),
        }
    }

    #[test]
    fn having_without_aggregate_is_rejected() {
        let q = parse_query("select a from t having a > 1").unwrap();
        // `having a > 1` forces the aggregate path via group_by/having detection, so it
        // plans as an aggregate when it contains no aggregate function but HAVING is used
        // with no GROUP BY. The engine accepts it only if an aggregate or GROUP BY exists;
        // plain HAVING over a non-aggregate projection without grouping is treated as a
        // global aggregate with zero aggregate items, which the executor rejects at
        // runtime. Here we simply check planning does not panic.
        let _ = plan_query(&q);
    }

    #[test]
    fn wildcard_with_aggregate_is_rejected() {
        let q = parse_query("select *, avg(a) from t").unwrap();
        assert!(plan_query(&q).is_err());
    }

    #[test]
    fn explain_is_indented() {
        // `a` is a pass-through projection column, so the sort runs below the projection.
        let p = plan("select a from t where a > 1 order by a");
        let text = p.explain();
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[0].starts_with("Project"));
        assert!(lines[1].starts_with("  Sort"));
        assert!(lines[2].starts_with("    Filter"));
        assert!(lines[3].starts_with("      Scan t"));
    }

    #[test]
    fn explain_physical_annotates_streaming_vs_buffering() {
        let p = plan("select room, avg(t) as a from motes group by room order by room limit 5");
        let text = p.explain_physical();
        assert!(text.contains("Limit 5 [streaming: early-exit]"), "{text}");
        assert!(text.contains("Sort [buffering: full input]"), "{text}");
        assert!(
            text.contains("Aggregate (grouped) [buffering: group state]"),
            "{text}"
        );
        assert!(text.contains("StreamScan motes [streaming]"), "{text}");

        let p = plan("select * from a join b on a.x = b.x");
        assert!(p
            .explain_physical()
            .contains("HashJoin (INNER) [buffering: build right, stream left]"));
        // Non-equi and same-side ON conditions take the nested-loop path, and the
        // physical plan says so.
        let p = plan("select * from a join b on a.x > b.x");
        assert!(p.explain_physical().contains("NestedLoopJoin (INNER)"));
        let p = plan("select * from a join b on a.x = a.y");
        assert!(p.explain_physical().contains("NestedLoopJoin (INNER)"));
    }

    #[test]
    fn explain_renders_pushed_down_scan_specs() {
        let residual = Expr::binary(
            Expr::col("temp"),
            BinaryOp::Gt,
            Expr::Literal(Value::Integer(20)),
        );
        let bound = Expr::binary(
            Expr::col("timed"),
            BinaryOp::GtEq,
            Expr::Literal(Value::Integer(1_700_000_000)),
        );
        let mut spec = ScanSpec {
            residual: vec![bound.clone(), residual],
            limit: Some(10),
            ..ScanSpec::default()
        };
        assert!(spec.absorb_bound(&bound, "motes"));
        let p = LogicalPlan::Scan {
            table: "motes".to_owned(),
            alias: "motes".to_owned(),
            spec,
        };
        let physical = p.explain_physical();
        assert!(
            physical.contains(
                "IndexRangeScan motes [timed >= 1700000000] residual=(temp > 20) limit=10"
            ),
            "{physical}"
        );
        // The logical EXPLAIN carries the same suffix on its Scan line.
        let logical = p.explain();
        assert!(
            logical.contains("Scan motes [timed >= 1700000000] residual=(temp > 20) limit=10"),
            "{logical}"
        );
        // An un-pushed scan renders exactly as before.
        let plain = plan("select * from motes").explain_physical();
        assert!(plain.contains("StreamScan motes [streaming]"), "{plain}");
    }

    #[test]
    fn scan_spec_bounds_absorb_and_tighten() {
        let mut spec = ScanSpec::default();
        // pk > 10 and pk > 20 keep the tighter lower bound; 5 >= pk mirrors.
        for (sql_left, op, v) in [("pk", BinaryOp::Gt, 10), ("pk", BinaryOp::Gt, 20)] {
            assert!(spec.absorb_bound(
                &Expr::binary(Expr::col(sql_left), op, Expr::Literal(Value::Integer(v))),
                "t"
            ));
        }
        assert_eq!(spec.min_seq, Some(21));
        assert!(spec.absorb_bound(
            &Expr::binary(
                Expr::Literal(Value::Integer(5)),
                BinaryOp::GtEq,
                Expr::qcol("t", "pk")
            ),
            "t"
        ));
        assert_eq!(spec.max_seq, Some(5));
        // timed = v sets both time bounds; other columns are not sargable.
        assert!(spec.absorb_bound(
            &Expr::binary(
                Expr::col("timed"),
                BinaryOp::Eq,
                Expr::Literal(Value::Integer(99))
            ),
            "t"
        ));
        assert_eq!((spec.min_ts, spec.max_ts), (Some(99), Some(99)));
        assert!(!spec.absorb_bound(
            &Expr::binary(
                Expr::col("temp"),
                BinaryOp::Gt,
                Expr::Literal(Value::Integer(1))
            ),
            "t"
        ));
        // A qualifier naming a different alias is left alone.
        assert!(!spec.absorb_bound(
            &Expr::binary(
                Expr::qcol("other", "pk"),
                BinaryOp::Gt,
                Expr::Literal(Value::Integer(1))
            ),
            "t"
        ));
    }

    #[test]
    fn order_by_hidden_column_sorts_below_projection() {
        // ORDER BY references a column that is not projected: the sort must run below.
        let p = plan("select image from cam order by timed desc limit 1");
        match &p {
            LogicalPlan::Project { input, .. } => match &**input {
                LogicalPlan::Limit { input, limit, .. } => {
                    assert_eq!(*limit, Some(1));
                    assert!(matches!(**input, LogicalPlan::Sort { .. }));
                }
                other => panic!("expected Limit below Project, got {other:?}"),
            },
            other => panic!("expected Project on top, got {other:?}"),
        }
    }

    #[test]
    fn order_by_computed_alias_sorts_above_projection() {
        // `t` is a computed output column, so the sort must stay above the projection.
        let p = plan("select temperature * 2 as t from motes order by t");
        assert!(matches!(p, LogicalPlan::Sort { .. }), "{}", p.explain());
    }
}
