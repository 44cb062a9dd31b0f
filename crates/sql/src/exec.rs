//! The plan executor.
//!
//! Executes a [`LogicalPlan`] against a [`Catalog`] of named relations.  The executor is
//! *pull-based* (Volcano-style): [`open_plan`] compiles the plan into a tree of
//! [`RowSource`] cursors and rows flow one at a time from the storage scans to the
//! consumer.  Streaming operators (scan, filter, project, limit, the probe side of a
//! join) never buffer; pipeline breakers (sort, aggregate, join build side, distinct's
//! seen-set, set operations) buffer only what their semantics require.  A `LIMIT k`
//! therefore stops pulling after `k` rows and upstream storage pages are never read.
//!
//! [`execute_plan`] and [`execute_query`] are thin `collect()` shims kept for callers
//! that want a materialised [`Relation`].  A [`Catalog`] has one method, `scan`, and
//! every base table is read through it.  In the GSN pipeline the per-source queries
//! scan the storage layer's live windows (each source's `wrapper` view, read by a
//! storage cursor), and the output query scans the [`MemoryCatalog`] of temporary
//! relations those queries produced.

use std::cmp::Ordering;
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::sync::Arc;

use gsn_types::{GsnError, GsnResult, Value};

use crate::aggregate::{is_aggregate_function, Accumulator, AggregateKind};
use crate::ast::{Expr, Query, SetOperator};
use crate::cursor::{RelationSource, RowSource};
use crate::eval::{evaluate, evaluate_predicate, RowContext};
use crate::optimizer::join_conjuncts;
use crate::plan::{plan_query, JoinKind, LogicalPlan, ProjectionItem, ScanSpec, SortKey};
use crate::relation::{ColumnInfo, Relation};

/// Resolves table names to row sources.
///
/// In GSN the names visible to a virtual sensor query are its stream-source aliases
/// (windowed views of the source's recent elements) and, in the output query, the
/// temporary relations produced by the per-source input queries.
///
/// [`scan`](Catalog::scan) is the one method: a pull-based cursor over the table's
/// rows, oldest first.  Sources must own what they need (`'static`) so a cursor can
/// outlive the catalog that opened it.
pub trait Catalog {
    /// Opens a cursor over the rows of `name`, or an error when the name is unknown,
    /// honouring the pushed-down `spec` where the backing store can exploit it (range
    /// bounds seek, projection skips column decode, the limit stops production
    /// early).  Ignoring the spec is always correct: the executor re-applies the full
    /// residual predicate above the scan and every spec field is a superset-safe hint.
    fn scan(&self, name: &str, spec: &ScanSpec) -> GsnResult<Box<dyn RowSource>>;
}

/// A simple in-memory [`Catalog`] backed by a hash map; used in tests, by the query
/// processor's temporary relations, and by the benchmark harnesses.
#[derive(Debug, Default, Clone)]
pub struct MemoryCatalog {
    tables: HashMap<String, Relation>,
}

impl MemoryCatalog {
    /// Creates an empty catalog.
    pub fn new() -> MemoryCatalog {
        MemoryCatalog::default()
    }

    /// Registers (or replaces) a relation under a case-insensitive name.
    pub fn register(&mut self, name: &str, relation: Relation) {
        self.tables.insert(name.to_ascii_lowercase(), relation);
    }

    /// Removes a relation.
    pub fn deregister(&mut self, name: &str) -> Option<Relation> {
        self.tables.remove(&name.to_ascii_lowercase())
    }

    /// The registered names.
    pub fn names(&self) -> Vec<&str> {
        self.tables.keys().map(|s| s.as_str()).collect()
    }
}

impl Catalog for MemoryCatalog {
    fn scan(&self, name: &str, _spec: &ScanSpec) -> GsnResult<Box<dyn RowSource>> {
        let relation = self
            .tables
            .get(&name.to_ascii_lowercase())
            .cloned()
            .ok_or_else(|| GsnError::not_found(format!("unknown table `{name}`")))?;
        Ok(Box::new(RelationSource::new(relation)))
    }
}

// ---------------------------------------------------------------------------------------
// The cursor executor
// ---------------------------------------------------------------------------------------

/// The root cursor of an opened plan, with execution telemetry.
///
/// `rows_scanned` counts rows actually pulled out of base-table scans; `rows_returned`
/// counts rows handed to the consumer.  Their gap is the early-exit saving: a
/// `LIMIT 10` over a large table scans ~10 rows instead of the whole heap.
pub struct PlanSource {
    root: Box<dyn RowSource>,
    scanned: Arc<AtomicU64>,
    residual_filtered: Arc<AtomicU64>,
    returned: u64,
}

/// The shared telemetry counters threaded through plan compilation.
#[derive(Clone, Default)]
struct ExecCounters {
    /// Rows pulled out of base-table scans.
    scanned: Arc<AtomicU64>,
    /// Rows dropped by residual predicates re-applied above pushed-down scans.
    residual_filtered: Arc<AtomicU64>,
}

impl PlanSource {
    /// Rows pulled from base-table scans so far.
    pub fn rows_scanned(&self) -> u64 {
        self.scanned.load(AtomicOrdering::Relaxed)
    }

    /// Rows dropped by residual predicates re-applied above pushed-down scans.
    pub fn rows_residual_filtered(&self) -> u64 {
        self.residual_filtered.load(AtomicOrdering::Relaxed)
    }

    /// Rows returned to the consumer so far.
    pub fn rows_returned(&self) -> u64 {
        self.returned
    }
}

impl RowSource for PlanSource {
    fn columns(&self) -> &[ColumnInfo] {
        self.root.columns()
    }

    fn next_row(&mut self) -> GsnResult<Option<Vec<Value>>> {
        let row = self.root.next_row()?;
        if row.is_some() {
            self.returned += 1;
        }
        Ok(row)
    }
}

/// Opens a logical plan as a pull-based cursor tree.
///
/// Sort and aggregate buffering is deferred to the first pull; join build sides,
/// INTERSECT/EXCEPT right sides and uncorrelated subqueries are materialised at open
/// time (their row sets gate the streaming probe side).  Plans without those
/// operators open without touching storage.
pub fn open_plan(plan: &LogicalPlan, catalog: &dyn Catalog) -> GsnResult<PlanSource> {
    let counters = ExecCounters::default();
    let root = open_node(plan, catalog, &counters)?;
    Ok(PlanSource {
        root,
        scanned: counters.scanned,
        residual_filtered: counters.residual_filtered,
        returned: 0,
    })
}

/// Executes a logical plan against a catalog, materialising the result (a `collect()`
/// shim over [`open_plan`]).
pub fn execute_plan(plan: &LogicalPlan, catalog: &dyn Catalog) -> GsnResult<Relation> {
    open_plan(plan, catalog)?.collect()
}

/// Parses, plans and executes a query AST directly (used for subqueries).
pub fn execute_query(query: &Query, catalog: &dyn Catalog) -> GsnResult<Relation> {
    let plan = plan_query(query)?;
    let plan = crate::optimizer::optimize_default(plan)?;
    execute_plan(&plan, catalog)
}

fn open_node(
    plan: &LogicalPlan,
    catalog: &dyn Catalog,
    counters: &ExecCounters,
) -> GsnResult<Box<dyn RowSource>> {
    Ok(match plan {
        LogicalPlan::Scan { table, alias, spec } => {
            let inner = catalog.scan(table, spec)?;
            // Re-qualify every column with the alias used in this query so that
            // `alias.column` references resolve.
            let columns = inner
                .columns()
                .iter()
                .map(|c| ColumnInfo::new(Some(alias), &c.name, c.data_type))
                .collect();
            let source: Box<dyn RowSource> = Box::new(ReAliasSource {
                inner,
                columns,
                scanned: Some(Arc::clone(&counters.scanned)),
            });
            // Re-apply every absorbed conjunct row-wise: storage range bounds
            // are superset-safe hints, so this filter makes the result exact
            // (and is a no-op for catalogs that honoured the bounds already).
            match join_conjuncts(spec.residual.clone()) {
                Some(predicate) => Box::new(FilterSource {
                    inner: source,
                    predicate,
                    dropped: Some(Arc::clone(&counters.residual_filtered)),
                }),
                None => source,
            }
        }
        LogicalPlan::Empty => Box::new(RelationSource::new(Relation::single_empty_row())),
        LogicalPlan::Derived { input, alias } => {
            let inner = open_node(input, catalog, counters)?;
            let columns = inner
                .columns()
                .iter()
                .map(|c| ColumnInfo::new(Some(alias), &c.name, c.data_type))
                .collect();
            Box::new(ReAliasSource {
                inner,
                columns,
                scanned: None,
            })
        }
        LogicalPlan::Filter { input, predicate } => {
            let inner = open_node(input, catalog, counters)?;
            let predicate = resolve_subqueries(predicate.clone(), catalog)?;
            Box::new(FilterSource {
                inner,
                predicate,
                dropped: None,
            })
        }
        LogicalPlan::Join {
            left,
            right,
            kind,
            on,
        } => open_join(left, right, *kind, on.as_ref(), catalog, counters)?,
        LogicalPlan::Project {
            input,
            items,
            wildcards,
        } => open_project(input, items, wildcards, catalog, counters)?,
        LogicalPlan::Aggregate {
            input,
            group_by,
            items,
            having,
        } => open_aggregate(input, group_by, items, having.as_ref(), catalog, counters)?,
        LogicalPlan::Distinct { input } => Box::new(DistinctSource {
            inner: open_node(input, catalog, counters)?,
            seen: HashSet::new(),
        }),
        LogicalPlan::Sort { input, keys } => {
            let inner = open_node(input, catalog, counters)?;
            let columns = inner.columns().to_vec();
            let keys = keys
                .iter()
                .map(|key| {
                    Ok(SortKey {
                        expr: resolve_subqueries(key.expr.clone(), catalog)?,
                        ascending: key.ascending,
                    })
                })
                .collect::<GsnResult<_>>()?;
            Box::new(SortSource {
                inner: Some(inner),
                keys,
                columns,
                buffered: None,
            })
        }
        LogicalPlan::Limit {
            input,
            limit,
            offset,
        } => Box::new(LimitSource {
            inner: open_node(input, catalog, counters)?,
            skip: *offset,
            remaining: limit.unwrap_or(u64::MAX),
        }),
        LogicalPlan::SetOp {
            left,
            right,
            op,
            all,
        } => open_set_op(left, right, *op, *all, catalog, counters)?,
    })
}

// ---------------------------------------------------------------------------------------
// Streaming operators
// ---------------------------------------------------------------------------------------

/// Renames the column qualifiers of its input (scan/derived aliasing); when `scanned` is
/// set this is a base-table scan and every pulled row ticks the plan's scan counter.
struct ReAliasSource {
    inner: Box<dyn RowSource>,
    columns: Vec<ColumnInfo>,
    scanned: Option<Arc<AtomicU64>>,
}

impl RowSource for ReAliasSource {
    fn columns(&self) -> &[ColumnInfo] {
        &self.columns
    }

    fn next_row(&mut self) -> GsnResult<Option<Vec<Value>>> {
        let row = self.inner.next_row()?;
        if row.is_some() {
            if let Some(counter) = &self.scanned {
                counter.fetch_add(1, AtomicOrdering::Relaxed);
            }
        }
        Ok(row)
    }
}

struct FilterSource {
    inner: Box<dyn RowSource>,
    predicate: Expr,
    /// When set (residual filters above pushed-down scans), counts dropped rows.
    dropped: Option<Arc<AtomicU64>>,
}

impl RowSource for FilterSource {
    fn columns(&self) -> &[ColumnInfo] {
        self.inner.columns()
    }

    fn next_row(&mut self) -> GsnResult<Option<Vec<Value>>> {
        while let Some(row) = self.inner.next_row()? {
            let keep = {
                let ctx = RowContext::new(self.inner.columns(), &row);
                evaluate_predicate(&self.predicate, &ctx)?
            };
            if keep {
                return Ok(Some(row));
            }
            if let Some(counter) = &self.dropped {
                counter.fetch_add(1, AtomicOrdering::Relaxed);
            }
        }
        Ok(None)
    }
}

struct LimitSource {
    inner: Box<dyn RowSource>,
    skip: u64,
    remaining: u64,
}

impl RowSource for LimitSource {
    fn columns(&self) -> &[ColumnInfo] {
        self.inner.columns()
    }

    fn next_row(&mut self) -> GsnResult<Option<Vec<Value>>> {
        // Early exit: once the limit is reached (or was zero to begin with) the
        // upstream is never pulled again, so storage pages past the limit are never
        // read.
        if self.remaining == 0 {
            return Ok(None);
        }
        while self.skip > 0 {
            if self.inner.next_row()?.is_none() {
                self.remaining = 0;
                return Ok(None);
            }
            self.skip -= 1;
        }
        match self.inner.next_row()? {
            Some(row) => {
                self.remaining -= 1;
                Ok(Some(row))
            }
            None => {
                self.remaining = 0;
                Ok(None)
            }
        }
    }
}

struct DistinctSource {
    inner: Box<dyn RowSource>,
    seen: HashSet<String>,
}

impl RowSource for DistinctSource {
    fn columns(&self) -> &[ColumnInfo] {
        self.inner.columns()
    }

    fn next_row(&mut self) -> GsnResult<Option<Vec<Value>>> {
        while let Some(row) = self.inner.next_row()? {
            if self.seen.insert(row_key(&row)) {
                return Ok(Some(row));
            }
        }
        Ok(None)
    }
}

fn open_project(
    input: &LogicalPlan,
    items: &[ProjectionItem],
    wildcards: &[Option<String>],
    catalog: &dyn Catalog,
    counters: &ExecCounters,
) -> GsnResult<Box<dyn RowSource>> {
    let inner = open_node(input, catalog, counters)?;
    let input_columns = inner.columns().to_vec();

    // Expand wildcards into column positions.
    let mut wildcard_columns: Vec<usize> = Vec::new();
    for w in wildcards {
        match w {
            None => wildcard_columns.extend(0..input_columns.len()),
            Some(q) => {
                let before = wildcard_columns.len();
                for (i, c) in input_columns.iter().enumerate() {
                    if c.qualifier
                        .as_deref()
                        .map(|own| own.eq_ignore_ascii_case(q))
                        .unwrap_or(false)
                    {
                        wildcard_columns.push(i);
                    }
                }
                if wildcard_columns.len() == before {
                    return Err(GsnError::sql_exec(format!(
                        "wildcard `{q}.*` matches no columns"
                    )));
                }
            }
        }
    }

    let items: Vec<ProjectionItem> = items
        .iter()
        .map(|i| {
            Ok(ProjectionItem {
                expr: resolve_subqueries(i.expr.clone(), catalog)?,
                name: i.name.clone(),
            })
        })
        .collect::<GsnResult<_>>()?;

    let mut columns: Vec<ColumnInfo> = wildcard_columns
        .iter()
        .map(|&i| input_columns[i].clone())
        .collect();
    for item in &items {
        columns.push(ColumnInfo::new(None, &item.name, None));
    }

    Ok(Box::new(ProjectSource {
        inner,
        input_columns,
        wildcard_columns,
        items,
        columns,
    }))
}

struct ProjectSource {
    inner: Box<dyn RowSource>,
    input_columns: Vec<ColumnInfo>,
    wildcard_columns: Vec<usize>,
    items: Vec<ProjectionItem>,
    columns: Vec<ColumnInfo>,
}

impl RowSource for ProjectSource {
    fn columns(&self) -> &[ColumnInfo] {
        &self.columns
    }

    fn next_row(&mut self) -> GsnResult<Option<Vec<Value>>> {
        let Some(row) = self.inner.next_row()? else {
            return Ok(None);
        };
        let ctx = RowContext::new(&self.input_columns, &row);
        let mut new_row: Vec<Value> = self
            .wildcard_columns
            .iter()
            .map(|&i| row[i].clone())
            .collect();
        for item in &self.items {
            new_row.push(evaluate(&item.expr, &ctx)?);
        }
        Ok(Some(new_row))
    }
}

// ---------------------------------------------------------------------------------------
// Joins (build side buffered, probe side streamed)
// ---------------------------------------------------------------------------------------

fn open_join(
    left: &LogicalPlan,
    right: &LogicalPlan,
    kind: JoinKind,
    on: Option<&Expr>,
    catalog: &dyn Catalog,
    counters: &ExecCounters,
) -> GsnResult<Box<dyn RowSource>> {
    let left_source = open_node(left, catalog, counters)?;
    // The build side is a pipeline breaker: materialise it once, then stream the left
    // (probe) side row-at-a-time.
    let right_rel = open_node(right, catalog, counters)?.collect()?;
    let columns: Vec<ColumnInfo> = left_source
        .columns()
        .iter()
        .chain(right_rel.columns().iter())
        .cloned()
        .collect();
    let on = on
        .map(|e| resolve_subqueries(e.clone(), catalog))
        .transpose()?;

    // Equi-join detection: use a hash join when the ON condition is a simple equality
    // between one column of each side (the common case for GSN queries joining sensor
    // streams on room / tag ids).
    if matches!(kind, JoinKind::Inner) {
        if let Some(on_expr) = &on {
            if let Some((l_idx, r_idx)) =
                equi_join_columns(on_expr, left_source.columns(), &right_rel)
            {
                let mut index: HashMap<String, Vec<usize>> = HashMap::new();
                for (i, row) in right_rel.rows().iter().enumerate() {
                    let key = &row[r_idx];
                    if key.is_null() {
                        continue;
                    }
                    index.entry(format!("{key:?}")).or_default().push(i);
                }
                return Ok(Box::new(HashJoinSource {
                    left: left_source,
                    right_rows: right_rel.into_rows(),
                    index,
                    l_idx,
                    columns,
                    pending: VecDeque::new(),
                }));
            }
        }
    }

    Ok(Box::new(NestedLoopJoinSource {
        left: left_source,
        right_rows: right_rel.into_rows(),
        total_width: columns.len(),
        kind,
        on,
        columns,
        current: None,
        right_pos: 0,
        matched: false,
    }))
}

/// Identifies `l.col = r.col` equality conditions.
fn equi_join_columns(
    on: &Expr,
    left_columns: &[ColumnInfo],
    right: &Relation,
) -> Option<(usize, usize)> {
    if let Expr::Binary {
        left: a,
        op: crate::ast::BinaryOp::Eq,
        right: b,
    } = on
    {
        let col_in = |e: &Expr, columns: &[ColumnInfo]| -> Option<usize> {
            if let Expr::Column { qualifier, name } = e {
                resolve_column_in(columns, qualifier.as_deref(), name)
            } else {
                None
            }
        };
        if let (Some(l), Some(r)) = (col_in(a, left_columns), col_in(b, right.columns())) {
            return Some((l, r));
        }
        if let (Some(l), Some(r)) = (col_in(b, left_columns), col_in(a, right.columns())) {
            return Some((l, r));
        }
    }
    None
}

/// Resolves a column reference against a bare column list (unambiguous matches only).
fn resolve_column_in(columns: &[ColumnInfo], qualifier: Option<&str>, name: &str) -> Option<usize> {
    let mut found = None;
    for (i, c) in columns.iter().enumerate() {
        if c.matches(qualifier, name) {
            if found.is_some() {
                return None; // ambiguous
            }
            found = Some(i);
        }
    }
    found
}

struct HashJoinSource {
    left: Box<dyn RowSource>,
    right_rows: Vec<Vec<Value>>,
    index: HashMap<String, Vec<usize>>,
    l_idx: usize,
    columns: Vec<ColumnInfo>,
    pending: VecDeque<Vec<Value>>,
}

impl RowSource for HashJoinSource {
    fn columns(&self) -> &[ColumnInfo] {
        &self.columns
    }

    fn next_row(&mut self) -> GsnResult<Option<Vec<Value>>> {
        loop {
            if let Some(row) = self.pending.pop_front() {
                return Ok(Some(row));
            }
            let Some(l_row) = self.left.next_row()? else {
                return Ok(None);
            };
            let key = &l_row[self.l_idx];
            if key.is_null() {
                continue;
            }
            if let Some(matches) = self.index.get(&format!("{key:?}")) {
                for &ri in matches {
                    let mut combined = l_row.clone();
                    combined.extend_from_slice(&self.right_rows[ri]);
                    self.pending.push_back(combined);
                }
            }
        }
    }
}

struct NestedLoopJoinSource {
    left: Box<dyn RowSource>,
    right_rows: Vec<Vec<Value>>,
    /// Total output width (left + right), for LEFT OUTER null padding.
    total_width: usize,
    kind: JoinKind,
    on: Option<Expr>,
    columns: Vec<ColumnInfo>,
    /// The left row currently probing the right side.
    current: Option<Vec<Value>>,
    right_pos: usize,
    matched: bool,
}

impl RowSource for NestedLoopJoinSource {
    fn columns(&self) -> &[ColumnInfo] {
        &self.columns
    }

    fn next_row(&mut self) -> GsnResult<Option<Vec<Value>>> {
        loop {
            if self.current.is_none() {
                match self.left.next_row()? {
                    Some(row) => {
                        self.current = Some(row);
                        self.right_pos = 0;
                        self.matched = false;
                    }
                    None => return Ok(None),
                }
            }
            let l_row = self.current.as_ref().expect("probe row present");
            while self.right_pos < self.right_rows.len() {
                let r_row = &self.right_rows[self.right_pos];
                self.right_pos += 1;
                let mut combined = l_row.clone();
                combined.extend_from_slice(r_row);
                let keep = match &self.on {
                    None => true,
                    Some(cond) => {
                        let ctx = RowContext::new(&self.columns, &combined);
                        evaluate_predicate(cond, &ctx)?
                    }
                };
                if keep {
                    self.matched = true;
                    return Ok(Some(combined));
                }
            }
            // Right side exhausted for this probe row.
            let unmatched_outer = !self.matched && self.kind == JoinKind::LeftOuter;
            let l_row = self.current.take().expect("probe row present");
            if unmatched_outer {
                let mut combined = l_row;
                let pad = self.total_width - combined.len();
                combined.extend(std::iter::repeat_n(Value::Null, pad));
                return Ok(Some(combined));
            }
        }
    }
}

// ---------------------------------------------------------------------------------------
// Pipeline breakers: sort, aggregate, set operations
// ---------------------------------------------------------------------------------------

/// Buffers its whole input on the first pull, then emits the sorted rows.
struct SortSource {
    inner: Option<Box<dyn RowSource>>,
    keys: Vec<SortKey>,
    columns: Vec<ColumnInfo>,
    buffered: Option<std::vec::IntoIter<Vec<Value>>>,
}

impl RowSource for SortSource {
    fn columns(&self) -> &[ColumnInfo] {
        &self.columns
    }

    fn next_row(&mut self) -> GsnResult<Option<Vec<Value>>> {
        if self.buffered.is_none() {
            // `inner` already taken means a previous pull failed mid-buffering: stay
            // exhausted (the trait contract) instead of panicking.
            let Some(mut inner) = self.inner.take() else {
                return Ok(None);
            };
            let mut rows = Vec::new();
            while let Some(row) = inner.next_row()? {
                rows.push(row);
            }
            let rows = sort_rows(&self.columns, rows, &self.keys)?;
            self.buffered = Some(rows.into_iter());
        }
        Ok(self.buffered.as_mut().expect("buffered rows").next())
    }
}

/// One aggregate call extracted from a projection/HAVING expression (shared with the
/// incremental continuous-query executor in [`crate::continuous`]).
pub(crate) struct ExtractedAggregate {
    pub(crate) kind: AggregateKind,
    pub(crate) distinct: bool,
    /// The argument expression (None for `COUNT(*)`).
    pub(crate) arg: Option<Expr>,
    /// The placeholder column name the rewritten expression refers to.
    pub(crate) placeholder: String,
}

fn open_aggregate(
    input: &LogicalPlan,
    group_by: &[Expr],
    items: &[ProjectionItem],
    having: Option<&Expr>,
    catalog: &dyn Catalog,
    counters: &ExecCounters,
) -> GsnResult<Box<dyn RowSource>> {
    let inner = open_node(input, catalog, counters)?;

    // Extract every aggregate call from the output items and the HAVING clause, replacing
    // each with a reference to a placeholder column computed per group.
    let mut aggregates: Vec<ExtractedAggregate> = Vec::new();
    let rewritten_items: Vec<ProjectionItem> = items
        .iter()
        .map(|item| {
            Ok(ProjectionItem {
                expr: extract_aggregates(
                    resolve_subqueries(item.expr.clone(), catalog)?,
                    &mut aggregates,
                )?,
                name: item.name.clone(),
            })
        })
        .collect::<GsnResult<_>>()?;
    let rewritten_having = having
        .map(|h| extract_aggregates(resolve_subqueries(h.clone(), catalog)?, &mut aggregates))
        .transpose()?;

    let out_columns: Vec<ColumnInfo> = rewritten_items
        .iter()
        .map(|i| ColumnInfo::new(None, &i.name, None))
        .collect();

    Ok(Box::new(AggregateSource {
        inner: Some(inner),
        group_by: group_by.to_vec(),
        aggregates,
        rewritten_items,
        rewritten_having,
        columns: out_columns,
        buffered: None,
    }))
}

/// Streams its input into per-group accumulators (only group state is buffered), then
/// emits one row per surviving group.
struct AggregateSource {
    inner: Option<Box<dyn RowSource>>,
    group_by: Vec<Expr>,
    aggregates: Vec<ExtractedAggregate>,
    rewritten_items: Vec<ProjectionItem>,
    rewritten_having: Option<Expr>,
    columns: Vec<ColumnInfo>,
    buffered: Option<std::vec::IntoIter<Vec<Value>>>,
}

impl AggregateSource {
    fn fill(&mut self, mut inner: Box<dyn RowSource>) -> GsnResult<()> {
        let input_columns = inner.columns().to_vec();

        // Group rows by the GROUP BY key, streaming the input.
        let mut groups: Vec<(Vec<Value>, Vec<Accumulator>)> = Vec::new();
        let mut group_index: HashMap<String, usize> = HashMap::new();
        while let Some(row) = inner.next_row()? {
            let ctx = RowContext::new(&input_columns, &row);
            let key_values: Vec<Value> = self
                .group_by
                .iter()
                .map(|g| evaluate(g, &ctx))
                .collect::<GsnResult<_>>()?;
            let key = row_key(&key_values);
            let group_idx = match group_index.get(&key) {
                Some(&i) => i,
                None => {
                    let accs = self
                        .aggregates
                        .iter()
                        .map(|a| Accumulator::new(a.kind, a.distinct))
                        .collect();
                    groups.push((key_values.clone(), accs));
                    group_index.insert(key, groups.len() - 1);
                    groups.len() - 1
                }
            };
            let (_, accs) = &mut groups[group_idx];
            for (agg, acc) in self.aggregates.iter().zip(accs.iter_mut()) {
                let value = match &agg.arg {
                    Some(expr) => evaluate(expr, &ctx)?,
                    None => Value::Integer(1), // COUNT(*)
                };
                acc.update(&value)?;
            }
        }

        // A global aggregate over an empty input still produces one row.
        if groups.is_empty() && self.group_by.is_empty() {
            let accs = self
                .aggregates
                .iter()
                .map(|a| Accumulator::new(a.kind, a.distinct))
                .collect();
            groups.push((Vec::new(), accs));
        }

        // Build the per-group evaluation context: group-by expressions are addressable
        // both by their textual form and by position; aggregate placeholders by their
        // generated name.
        let mut ctx_columns: Vec<ColumnInfo> = Vec::new();
        for (i, g) in self.group_by.iter().enumerate() {
            let name = match g {
                Expr::Column { name, .. } => name.clone(),
                other => format!("GROUP_{}", {
                    let _ = other;
                    i + 1
                }),
            };
            ctx_columns.push(ColumnInfo::new(None, &name, None));
        }
        for agg in &self.aggregates {
            ctx_columns.push(ColumnInfo::new(None, &agg.placeholder, None));
        }

        let mut out_rows: Vec<Vec<Value>> = Vec::with_capacity(groups.len());
        for (key_values, accs) in &groups {
            let mut ctx_row: Vec<Value> = key_values.clone();
            ctx_row.extend(accs.iter().map(|a| a.finish()));
            let ctx = RowContext::new(&ctx_columns, &ctx_row);

            if let Some(h) = &self.rewritten_having {
                if !evaluate_predicate(h, &ctx)? {
                    continue;
                }
            }
            let out_row: Vec<Value> = self
                .rewritten_items
                .iter()
                .map(|item| eval_group_item(&item.expr, &ctx, &self.group_by, key_values))
                .collect::<GsnResult<_>>()?;
            out_rows.push(out_row);
        }
        self.buffered = Some(out_rows.into_iter());
        Ok(())
    }
}

impl RowSource for AggregateSource {
    fn columns(&self) -> &[ColumnInfo] {
        &self.columns
    }

    fn next_row(&mut self) -> GsnResult<Option<Vec<Value>>> {
        if self.buffered.is_none() {
            // `inner` already taken means a previous pull failed mid-buffering: stay
            // exhausted (the trait contract) instead of panicking.
            let Some(inner) = self.inner.take() else {
                return Ok(None);
            };
            self.fill(inner)?;
        }
        Ok(self.buffered.as_mut().expect("buffered rows").next())
    }
}

fn open_set_op(
    left: &LogicalPlan,
    right: &LogicalPlan,
    op: SetOperator,
    all: bool,
    catalog: &dyn Catalog,
    counters: &ExecCounters,
) -> GsnResult<Box<dyn RowSource>> {
    let left_source = open_node(left, catalog, counters)?;
    let right_source = open_node(right, catalog, counters)?;
    if left_source.columns().len() != right_source.columns().len() {
        return Err(GsnError::sql_exec(format!(
            "set operation requires equal column counts ({} vs {})",
            left_source.columns().len(),
            right_source.columns().len()
        )));
    }
    let columns = left_source.columns().to_vec();
    match op {
        // UNION streams both sides in order, deduplicating on the fly unless ALL.
        SetOperator::Union => Ok(Box::new(UnionSource {
            left: Some(left_source),
            right: right_source,
            seen: (!all).then(HashSet::new),
            columns,
        })),
        // INTERSECT / EXCEPT buffer the right side's keys, then stream the left.
        SetOperator::Intersect | SetOperator::Except => {
            let mut right_keys = HashSet::new();
            let mut right = right_source;
            while let Some(row) = right.next_row()? {
                right_keys.insert(row_key(&row));
            }
            Ok(Box::new(SemiSetOpSource {
                left: left_source,
                right_keys,
                include: op == SetOperator::Intersect,
                seen: (!all).then(HashSet::new),
                columns,
            }))
        }
    }
}

struct UnionSource {
    left: Option<Box<dyn RowSource>>,
    right: Box<dyn RowSource>,
    /// `Some` deduplicates (plain UNION); `None` keeps duplicates (UNION ALL).
    seen: Option<HashSet<String>>,
    columns: Vec<ColumnInfo>,
}

impl RowSource for UnionSource {
    fn columns(&self) -> &[ColumnInfo] {
        &self.columns
    }

    fn next_row(&mut self) -> GsnResult<Option<Vec<Value>>> {
        loop {
            let row = match self.left.as_mut() {
                Some(left) => match left.next_row()? {
                    Some(row) => Some(row),
                    None => {
                        self.left = None;
                        continue;
                    }
                },
                None => self.right.next_row()?,
            };
            let Some(row) = row else {
                return Ok(None);
            };
            if let Some(seen) = &mut self.seen {
                if !seen.insert(row_key(&row)) {
                    continue;
                }
            }
            return Ok(Some(row));
        }
    }
}

struct SemiSetOpSource {
    left: Box<dyn RowSource>,
    right_keys: HashSet<String>,
    /// `true` keeps rows whose key appears on the right (INTERSECT), `false` drops them
    /// (EXCEPT).
    include: bool,
    seen: Option<HashSet<String>>,
    columns: Vec<ColumnInfo>,
}

impl RowSource for SemiSetOpSource {
    fn columns(&self) -> &[ColumnInfo] {
        &self.columns
    }

    fn next_row(&mut self) -> GsnResult<Option<Vec<Value>>> {
        while let Some(row) = self.left.next_row()? {
            let key = row_key(&row);
            if self.right_keys.contains(&key) != self.include {
                continue;
            }
            if let Some(seen) = &mut self.seen {
                if !seen.insert(key) {
                    continue;
                }
            }
            return Ok(Some(row));
        }
        Ok(None)
    }
}

// ---------------------------------------------------------------------------------------
// Subquery resolution
// ---------------------------------------------------------------------------------------

/// Rewrites uncorrelated subquery expressions into literal forms by executing them once.
fn resolve_subqueries(expr: Expr, catalog: &dyn Catalog) -> GsnResult<Expr> {
    Ok(match expr {
        Expr::InSubquery {
            expr,
            subquery,
            negated,
        } => {
            let rel = execute_query(&subquery, catalog)?;
            if rel.column_count() != 1 {
                return Err(GsnError::sql_exec(
                    "IN (subquery) must produce exactly one column",
                ));
            }
            let list = rel
                .rows()
                .iter()
                .map(|r| Expr::Literal(r[0].clone()))
                .collect();
            Expr::InList {
                expr: Box::new(resolve_subqueries(*expr, catalog)?),
                list,
                negated,
            }
        }
        Expr::Exists { subquery, negated } => {
            let rel = execute_query(&subquery, catalog)?;
            let exists = !rel.is_empty();
            Expr::Literal(Value::Boolean(if negated { !exists } else { exists }))
        }
        Expr::ScalarSubquery(subquery) => {
            let rel = execute_query(&subquery, catalog)?;
            if rel.column_count() != 1 {
                return Err(GsnError::sql_exec(
                    "scalar subquery must produce exactly one column",
                ));
            }
            match rel.row_count() {
                0 => Expr::Literal(Value::Null),
                1 => Expr::Literal(rel.rows()[0][0].clone()),
                n => {
                    return Err(GsnError::sql_exec(format!(
                        "scalar subquery produced {n} rows"
                    )))
                }
            }
        }
        other => other.try_map_children(|child| resolve_subqueries(child, catalog))?,
    })
}

/// Evaluates an output item in group context.  Group-by expressions that are not plain
/// columns (e.g. `temp / 10`) are matched structurally against the GROUP BY list and
/// replaced by the group key value.
pub(crate) fn eval_group_item(
    expr: &Expr,
    ctx: &RowContext<'_>,
    group_by: &[Expr],
    key_values: &[Value],
) -> GsnResult<Value> {
    for (g, v) in group_by.iter().zip(key_values) {
        if expr == g {
            return Ok(v.clone());
        }
    }
    evaluate(expr, ctx)
}

/// Replaces aggregate calls in `expr` with placeholder column references, recording each
/// extracted aggregate.
pub(crate) fn extract_aggregates(
    expr: Expr,
    aggregates: &mut Vec<ExtractedAggregate>,
) -> GsnResult<Expr> {
    Ok(match expr {
        Expr::Function {
            name,
            distinct,
            args,
        } if is_aggregate_function(&name) => {
            let kind = AggregateKind::parse(&name)?;
            if args.len() > 1 {
                return Err(GsnError::sql_exec(format!(
                    "{name} takes at most one argument"
                )));
            }
            let arg = args.into_iter().next();
            if arg
                .as_ref()
                .map(|a| a.contains_aggregate())
                .unwrap_or(false)
            {
                return Err(GsnError::sql_exec(
                    "nested aggregate functions are not allowed",
                ));
            }
            let placeholder = format!("__AGG_{}", aggregates.len());
            aggregates.push(ExtractedAggregate {
                kind,
                distinct,
                arg,
                placeholder: placeholder.clone(),
            });
            Expr::col(&placeholder)
        }
        other => other.try_map_children(|child| extract_aggregates(child, aggregates))?,
    })
}

/// Sorts rows by the given keys.
///
/// ORDER BY may reference either output columns or the underlying base-table columns.
/// After projection the output columns lose their table qualifiers, so a qualified
/// reference (`order by m.temperature` above a `select m.temperature ...`) is retried
/// without its qualifier before giving up.
fn sort_rows(
    columns: &[ColumnInfo],
    mut rows: Vec<Vec<Value>>,
    keys: &[SortKey],
) -> GsnResult<Vec<Vec<Value>>> {
    // Pre-compute sort keys to keep comparator failures out of the sort closure.
    let mut keyed: Vec<(Vec<Value>, Vec<Value>)> = Vec::with_capacity(rows.len());
    for row in rows.drain(..) {
        let ctx = RowContext::new(columns, &row);
        let key: Vec<Value> = keys
            .iter()
            .map(|k| {
                evaluate(&k.expr, &ctx).or_else(|err| {
                    let stripped = strip_qualifiers(k.expr.clone());
                    if stripped != k.expr {
                        evaluate(&stripped, &ctx)
                    } else {
                        Err(err)
                    }
                })
            })
            .collect::<GsnResult<_>>()?;
        keyed.push((key, row));
    }
    keyed.sort_by(|(ka, _), (kb, _)| {
        for (i, key) in keys.iter().enumerate() {
            let ord = compare_for_sort(&ka[i], &kb[i]);
            let ord = if key.ascending { ord } else { ord.reverse() };
            if ord != Ordering::Equal {
                return ord;
            }
        }
        Ordering::Equal
    });
    Ok(keyed.into_iter().map(|(_, r)| r).collect())
}

/// Removes table qualifiers from every column reference in an expression.
fn strip_qualifiers(expr: Expr) -> Expr {
    match expr {
        Expr::Column { name, .. } => Expr::Column {
            qualifier: None,
            name,
        },
        other => other.map_children(strip_qualifiers),
    }
}

/// Sorting treats NULL as smaller than every value and falls back to the textual form for
/// incomparable values so that sorting never fails.
fn compare_for_sort(a: &Value, b: &Value) -> Ordering {
    match (a.is_null(), b.is_null()) {
        (true, true) => Ordering::Equal,
        (true, false) => Ordering::Less,
        (false, true) => Ordering::Greater,
        (false, false) => a
            .sql_cmp(b)
            .unwrap_or_else(|| a.to_string().cmp(&b.to_string())),
    }
}

/// A hashable textual key for a row (used by DISTINCT, GROUP BY and set operations).
pub(crate) fn row_key(row: &[Value]) -> String {
    let mut s = String::new();
    for v in row {
        s.push_str(&format!("{v:?}|"));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;
    use gsn_types::DataType;

    fn motes_relation() -> Relation {
        Relation::with_rows(
            vec![
                ColumnInfo::new(None, "room", Some(DataType::Varchar)),
                ColumnInfo::new(None, "temperature", Some(DataType::Integer)),
                ColumnInfo::new(None, "light", Some(DataType::Double)),
            ],
            vec![
                vec![
                    Value::varchar("bc143"),
                    Value::Integer(21),
                    Value::Double(400.0),
                ],
                vec![
                    Value::varchar("bc143"),
                    Value::Integer(23),
                    Value::Double(420.0),
                ],
                vec![
                    Value::varchar("bc144"),
                    Value::Integer(30),
                    Value::Double(100.0),
                ],
                vec![Value::varchar("bc145"), Value::Null, Value::Double(0.0)],
            ],
        )
        .unwrap()
    }

    fn cameras_relation() -> Relation {
        Relation::with_rows(
            vec![
                ColumnInfo::new(None, "room", Some(DataType::Varchar)),
                ColumnInfo::new(None, "image_size", Some(DataType::Integer)),
            ],
            vec![
                vec![Value::varchar("bc143"), Value::Integer(32_000)],
                vec![Value::varchar("bc144"), Value::Integer(16_000)],
                vec![Value::varchar("bc999"), Value::Integer(75_000)],
            ],
        )
        .unwrap()
    }

    fn catalog() -> MemoryCatalog {
        let mut c = MemoryCatalog::new();
        c.register("motes", motes_relation());
        c.register("cameras", cameras_relation());
        c
    }

    fn run(sql: &str) -> Relation {
        execute_query(&parse_query(sql).unwrap(), &catalog()).unwrap()
    }

    fn run_err(sql: &str) -> GsnError {
        execute_query(&parse_query(sql).unwrap(), &catalog()).unwrap_err()
    }

    /// Opens a query as a cursor against the standard test catalog.
    fn open(sql: &str) -> PlanSource {
        let plan = plan_query(&parse_query(sql).unwrap()).unwrap();
        let plan = crate::optimizer::optimize_default(plan).unwrap();
        open_plan(&plan, &catalog()).unwrap()
    }

    #[test]
    fn select_star() {
        let r = run("select * from motes");
        assert_eq!(r.row_count(), 4);
        assert_eq!(r.column_count(), 3);
    }

    #[test]
    fn filter_and_projection() {
        let r = run("select room, temperature + 1 as t from motes where temperature > 21");
        assert_eq!(r.row_count(), 2);
        assert_eq!(r.columns()[1].name, "T");
        assert_eq!(r.rows()[0][1], Value::Integer(24));
    }

    #[test]
    fn null_rows_do_not_pass_filters() {
        let r = run("select * from motes where temperature > 0");
        assert_eq!(r.row_count(), 3);
        let r = run("select * from motes where temperature is null");
        assert_eq!(r.row_count(), 1);
    }

    #[test]
    fn global_aggregates() {
        let r = run("select avg(temperature), count(*), count(temperature), min(light), max(light) from motes");
        assert_eq!(r.row_count(), 1);
        let row = &r.rows()[0];
        assert_eq!(row[0], Value::Double((21.0 + 23.0 + 30.0) / 3.0));
        assert_eq!(row[1], Value::Integer(4));
        assert_eq!(row[2], Value::Integer(3));
        assert_eq!(row[3], Value::Double(0.0));
        assert_eq!(row[4], Value::Double(420.0));
    }

    #[test]
    fn global_aggregate_on_empty_input_yields_one_row() {
        let r = run("select count(*), avg(temperature) from motes where room = 'nowhere'");
        assert_eq!(r.row_count(), 1);
        assert_eq!(r.rows()[0][0], Value::Integer(0));
        assert_eq!(r.rows()[0][1], Value::Null);
    }

    #[test]
    fn group_by_with_having_and_order() {
        let r = run(
            "select room, avg(temperature) as t, count(*) as n from motes \
             group by room having count(*) >= 1 order by room",
        );
        assert_eq!(r.row_count(), 3);
        assert_eq!(r.rows()[0][0], Value::varchar("bc143"));
        assert_eq!(r.rows()[0][1], Value::Double(22.0));
        assert_eq!(r.rows()[0][2], Value::Integer(2));
        assert_eq!(r.rows()[2][0], Value::varchar("bc145"));
        assert_eq!(r.rows()[2][1], Value::Null);
    }

    #[test]
    fn having_filters_groups() {
        let r = run("select room from motes group by room having avg(temperature) > 25");
        assert_eq!(r.row_count(), 1);
        assert_eq!(r.rows()[0][0], Value::varchar("bc144"));
    }

    #[test]
    fn aggregate_expression_arithmetic() {
        let r = run("select max(temperature) - min(temperature) from motes");
        assert_eq!(r.rows()[0][0], Value::Integer(9));
    }

    #[test]
    fn count_distinct() {
        let r = run("select count(distinct room) from motes");
        assert_eq!(r.rows()[0][0], Value::Integer(3));
    }

    #[test]
    fn inner_join_hash_path() {
        let r = run("select m.room, m.temperature, c.image_size from motes m \
             join cameras c on m.room = c.room order by m.temperature");
        assert_eq!(r.row_count(), 3);
        assert_eq!(r.rows()[0][2], Value::Integer(32_000));
        assert_eq!(r.rows()[2][0], Value::varchar("bc144"));
    }

    #[test]
    fn left_join_keeps_unmatched_rows() {
        let r = run(
            "select m.room, c.image_size from motes m left join cameras c on m.room = c.room \
             order by m.room",
        );
        assert_eq!(r.row_count(), 4);
        // bc145 has no camera.
        assert_eq!(r.rows()[3][0], Value::varchar("bc145"));
        assert_eq!(r.rows()[3][1], Value::Null);
    }

    #[test]
    fn cross_join_and_comma_from() {
        let r = run("select * from motes, cameras");
        assert_eq!(r.row_count(), 12);
        let r = run("select * from motes cross join cameras");
        assert_eq!(r.row_count(), 12);
    }

    #[test]
    fn non_equi_join_condition() {
        let r = run(
            "select m.room from motes m join cameras c on m.temperature < c.image_size where m.temperature is not null",
        );
        assert_eq!(r.row_count(), 9);
    }

    #[test]
    fn distinct_limit_offset() {
        let r = run("select distinct room from motes order by room");
        assert_eq!(r.row_count(), 3);
        let r = run("select distinct room from motes order by room limit 2");
        assert_eq!(r.row_count(), 2);
        let r = run("select distinct room from motes order by room limit 2 offset 2");
        assert_eq!(r.row_count(), 1);
        assert_eq!(r.rows()[0][0], Value::varchar("bc145"));
    }

    #[test]
    fn order_by_desc_and_nulls() {
        let r = run("select room, temperature from motes order by temperature desc");
        assert_eq!(r.rows()[0][1], Value::Integer(30));
        // NULL sorts smallest, so with DESC it comes last.
        assert_eq!(r.rows()[3][1], Value::Null);
        let r = run("select room, temperature from motes order by temperature");
        assert_eq!(r.rows()[0][1], Value::Null);
    }

    #[test]
    fn set_operations() {
        let r = run("select room from motes union select room from cameras order by room");
        assert_eq!(r.row_count(), 4); // bc143, bc144, bc145, bc999
        let r = run("select room from motes union all select room from cameras");
        assert_eq!(r.row_count(), 7);
        let r = run("select room from motes intersect select room from cameras order by room");
        assert_eq!(r.row_count(), 2);
        let r = run("select room from motes except select room from cameras");
        assert_eq!(r.row_count(), 1);
        assert_eq!(r.rows()[0][0], Value::varchar("bc145"));
    }

    #[test]
    fn set_operation_arity_mismatch() {
        assert!(
            run_err("select room, temperature from motes union select room from cameras")
                .to_string()
                .contains("equal column counts")
        );
    }

    #[test]
    fn subqueries() {
        let r = run("select room from cameras where room in (select room from motes)");
        assert_eq!(r.row_count(), 2);
        let r = run("select room from cameras where room not in (select room from motes)");
        assert_eq!(r.row_count(), 1);
        let r = run(
            "select room from motes where exists (select 1 from cameras where image_size > 50000)",
        );
        assert_eq!(r.row_count(), 4);
        let r =
            run("select room from motes where temperature > (select avg(temperature) from motes)");
        assert_eq!(r.row_count(), 1);
        assert_eq!(r.rows()[0][0], Value::varchar("bc144"));
    }

    #[test]
    fn order_by_keys_may_hold_subqueries() {
        let r = run("select temperature from motes order by (select max(temperature) from motes)");
        assert_eq!(r.row_count(), 4);
        let r = run("select room from cameras \
             order by image_size + (select max(temperature) from motes) desc");
        let rooms: Vec<Value> = r.rows().iter().map(|row| row[0].clone()).collect();
        assert_eq!(
            rooms,
            vec![
                Value::varchar("bc999"),
                Value::varchar("bc143"),
                Value::varchar("bc144")
            ]
        );
        let r = run("select room from cameras where room in \
             (select room from motes order by temperature + (select min(temperature) from motes))");
        assert_eq!(r.row_count(), 2);
    }

    #[test]
    fn derived_tables() {
        let r = run(
            "select room, t from (select room, avg(temperature) as t from motes group by room) s \
             where t > 20 order by t desc",
        );
        assert_eq!(r.row_count(), 2);
        assert_eq!(r.rows()[0][1], Value::Double(30.0));
    }

    #[test]
    fn from_less_select() {
        let r = run("select 1 + 1 as two, 'x' as label");
        assert_eq!(r.row_count(), 1);
        assert_eq!(r.rows()[0][0], Value::Integer(2));
        assert_eq!(r.rows()[0][1], Value::varchar("x"));
    }

    #[test]
    fn qualified_wildcard() {
        let r = run("select m.* from motes m join cameras c on m.room = c.room");
        assert_eq!(r.column_count(), 3);
        assert_eq!(r.row_count(), 3);
    }

    #[test]
    fn errors_surface() {
        assert!(run_err("select * from nosuchtable")
            .to_string()
            .contains("unknown table"));
        assert!(run_err("select nosuchcolumn from motes")
            .to_string()
            .contains("unknown column"));
        assert!(run_err("select avg(avg(temperature)) from motes")
            .to_string()
            .contains("nested aggregate"));
        assert!(run_err("select avg(temperature, light) from motes")
            .to_string()
            .contains("at most one argument"));
        assert!(
            run_err("select room from motes where room in (select * from cameras)")
                .to_string()
                .contains("exactly one column")
        );
        assert!(run_err("select (select room from cameras) from motes")
            .to_string()
            .contains("rows"));
    }

    #[test]
    fn memory_catalog_management() {
        let mut c = catalog();
        assert_eq!(c.names().len(), 2);
        let spec = ScanSpec::default();
        let scanned = c.scan("MOTES", &spec).unwrap().collect().unwrap();
        assert_eq!(scanned.rows(), motes_relation().rows());
        assert!(c.deregister("motes").is_some());
        assert!(c.scan("motes", &spec).is_err());
        assert!(c.deregister("motes").is_none());
    }

    // -----------------------------------------------------------------------------------
    // Cursor semantics
    // -----------------------------------------------------------------------------------

    #[test]
    fn limit_early_exits_the_scan() {
        let mut c = MemoryCatalog::new();
        c.register(
            "big",
            Relation::with_rows(
                vec![ColumnInfo::new(None, "v", Some(DataType::Integer))],
                (0..1_000).map(|i| vec![Value::Integer(i)]).collect(),
            )
            .unwrap(),
        );
        let plan = plan_query(&parse_query("select v from big limit 3").unwrap()).unwrap();
        let mut source = open_plan(&plan, &c).unwrap();
        let rel = source.collect().unwrap();
        assert_eq!(rel.row_count(), 3);
        assert_eq!(source.rows_returned(), 3);
        // Early exit: the scan was pulled only as far as the limit needed.
        assert!(
            source.rows_scanned() <= 4,
            "scanned {} rows for LIMIT 3",
            source.rows_scanned()
        );
    }

    #[test]
    fn batched_pulls_match_collect() {
        let full = run("select room, temperature from motes order by temperature desc");
        let mut source = open("select room, temperature from motes order by temperature desc");
        let mut batched: Vec<Vec<Value>> = Vec::new();
        loop {
            let batch = source.next_batch(2).unwrap();
            if batch.is_empty() {
                break;
            }
            batched.extend(batch);
        }
        assert_eq!(batched, full.rows());
    }

    #[test]
    fn scan_counter_covers_joins_and_aggregates() {
        let mut source =
            open("select count(*) from motes join cameras on motes.room = cameras.room");
        let rel = source.collect().unwrap();
        assert_eq!(rel.rows()[0][0], Value::Integer(3));
        // Both base tables were scanned fully (4 + 3 rows).
        assert_eq!(source.rows_scanned(), 7);
        assert_eq!(source.rows_returned(), 1);
    }

    #[test]
    fn union_streams_both_sides_in_order() {
        let mut source = open("select room from motes union all select room from cameras");
        let rel = source.collect().unwrap();
        assert_eq!(rel.row_count(), 7);
        assert_eq!(rel.rows()[0][0], Value::varchar("bc143"));
        assert_eq!(rel.rows()[4][0], Value::varchar("bc143"));
    }
}
