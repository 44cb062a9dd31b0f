//! Incremental execution of registered continuous queries.
//!
//! The query repository re-executes every registered client query whenever a new element
//! arrives on a table it reads (the paper's Figure 4 workload).  Re-running the full
//! plan costs `O(window × queries)` per element; a [`ContinuousPlan`] instead keeps
//! *resident operator state* per query and folds in only the delta rows the storage
//! layer's delta cursor hands it, turning the per-element cost into
//! `O(delta × affected-queries)`:
//!
//! * **Filters / projections / derivations** are applied to delta rows only; the
//!   projected window contents stay resident and slide with the window.
//! * **Windowed aggregates** (`COUNT` / `SUM` / `AVG` / `MIN` / `MAX` / `FIRST` /
//!   `LAST`, with `GROUP BY` and `HAVING`) maintain running per-group state:
//!   insert-side updates for delta rows and retraction as rows age out of the history
//!   window (count bound, time cutoff, or storage pruning).  `MIN`/`MAX` use the
//!   classic sliding-window monotonic deque, so retraction is `O(1)` amortised.
//! * Plans the incremental path cannot maintain — joins, sorts, `DISTINCT`, `LIMIT`,
//!   set operations, derived tables, subqueries, `STDDEV`/`VARIANCE` — are rejected by
//!   [`ContinuousPlan::compile`], and the query repository transparently falls back to
//!   full re-evaluation for them.
//!
//! Results are identical to re-executing the plan over the current window (the
//! incremental-vs-full parity property test asserts this).  Running `SUM`/`AVG` state
//! uses a Kahan–Babuška (Neumaier) *compensated* accumulator: every add/retract also
//! tracks the rounding error it lost, so floating-point running sums stay within one
//! ulp of a fresh left-to-right summation instead of drifting as the window slides
//! (integer inputs are exact either way — their `f64` sums carry zero compensation —
//! and an empty window still resets the state to exact zero).
//!
//! Memory: resident state is `O(window)` per query — the same order as the history the
//! storage layer already retains for the query's window.

use std::collections::{HashMap, VecDeque};

use gsn_types::{GsnError, GsnResult, Timestamp, Value};

use crate::aggregate::AggregateKind;
use crate::ast::Expr;
use crate::eval::{evaluate, evaluate_predicate, RowContext};
use crate::exec::{eval_group_item, extract_aggregates, row_key, ExtractedAggregate};
use crate::plan::{LogicalPlan, ProjectionItem};
use crate::relation::{ColumnInfo, Relation};

/// The bound of the sliding history window at one evaluation instant.
///
/// The caller (the query repository) derives it from the registered query's window
/// specification: count windows map to [`WindowBound::Count`], time windows to
/// [`WindowBound::Since`] with `cutoff = now - duration`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WindowBound {
    /// Keep the trailing `n` input rows.
    Count(usize),
    /// Keep input rows from the first one timestamped at or after the cutoff onwards
    /// (partition-point semantics, matching a storage time-window scan).
    Since(Timestamp),
}

/// One input row resident in the window, with whatever the operators derived from it.
#[derive(Debug, Clone)]
struct WindowRow {
    seq: u64,
    ts: Timestamp,
    payload: Payload,
}

#[derive(Debug, Clone)]
enum Payload {
    /// Filtered or sampled out: occupies a window slot, contributes nothing.
    Skip,
    /// Projection output for this row.
    Projected(Vec<Value>),
    /// Aggregate mode: the row's group key and its evaluated aggregate inputs
    /// (retraction feeds them back when the row ages out).
    Grouped { key: String, inputs: Vec<Value> },
}

/// One aggregate call of the plan, in evaluation-ready form.
#[derive(Debug, Clone)]
struct AggSpec {
    kind: AggregateKind,
    distinct: bool,
    /// The argument expression (`None` for `COUNT(*)`).
    arg: Option<Expr>,
}

/// One step of Kahan–Babuška (Neumaier) compensated summation: adds `x` to `sum`,
/// banking the low-order bits the addition rounds away into `comp`.  The true running
/// total is `sum + comp`.  Retraction is just adding `-x`, so the compensation tracks
/// the error of the *whole* add/retract history, closing the rounding-drift gap
/// between a slid window and a fresh summation.
fn kahan_add(sum: &mut f64, comp: &mut f64, x: f64) {
    let t = *sum + x;
    if sum.abs() >= x.abs() {
        *comp += (*sum - t) + x;
    } else {
        *comp += (x - t) + *sum;
    }
    *sum = t;
}

/// Retractable running state for one aggregate of one group.
///
/// Matches [`crate::Accumulator`]'s finish semantics exactly for the supported kinds,
/// including NULL skipping, DISTINCT multiset counting and SUM's integer/double typing
/// (tracked as a count of non-integer inputs so it follows the *current* window, not
/// the whole stream).
#[derive(Debug, Clone)]
struct DeltaAccumulator {
    kind: AggregateKind,
    /// Multiset of distinct keys currently in the window (`None` = not DISTINCT).
    distinct: Option<HashMap<String, u32>>,
    count: u64,
    sum: f64,
    /// Neumaier compensation term for `sum` (see [`kahan_add`]).
    comp: f64,
    /// Counted inputs that are not `Value::Integer` (SUM stays integer-typed iff 0).
    non_integer: u64,
    /// All non-null inputs in window order (FIRST/LAST read the ends).
    values: VecDeque<Value>,
    /// Sliding-window minimum/maximum: a monotonic deque of `(seq, value)`.  The front
    /// is the current extremum; ties keep the earliest occurrence, mirroring the full
    /// accumulator's replace-only-on-strict-improvement rule.
    mono: VecDeque<(u64, Value)>,
}

impl DeltaAccumulator {
    fn new(kind: AggregateKind, distinct: bool) -> DeltaAccumulator {
        DeltaAccumulator {
            kind,
            distinct: distinct.then(HashMap::new),
            count: 0,
            sum: 0.0,
            comp: 0.0,
            non_integer: 0,
            values: VecDeque::new(),
            mono: VecDeque::new(),
        }
    }

    fn numeric(&self, value: &Value) -> GsnResult<f64> {
        value.as_double().ok_or_else(|| {
            GsnError::sql_exec(format!(
                "{} expects numeric input, got `{value}`",
                self.kind.name()
            ))
        })
    }

    fn insert(&mut self, seq: u64, value: &Value) -> GsnResult<()> {
        if value.is_null() {
            return Ok(());
        }
        match self.kind {
            AggregateKind::Count | AggregateKind::Sum | AggregateKind::Avg => {
                if let Some(seen) = &mut self.distinct {
                    let slot = seen.entry(format!("{value:?}")).or_insert(0);
                    *slot += 1;
                    if *slot > 1 {
                        return Ok(()); // duplicate: already counted
                    }
                }
                if self.kind != AggregateKind::Count {
                    let x = self.numeric(value)?;
                    kahan_add(&mut self.sum, &mut self.comp, x);
                    if !matches!(value, Value::Integer(_)) {
                        self.non_integer += 1;
                    }
                }
                self.count += 1;
            }
            // DISTINCT is a no-op for extrema: duplicates cannot change them.
            AggregateKind::Min | AggregateKind::Max => {
                let keep_strictly_better = |held: &Value| match value.sql_cmp(held) {
                    Some(std::cmp::Ordering::Less) => Ok(self.kind == AggregateKind::Min),
                    Some(std::cmp::Ordering::Greater) => Ok(self.kind == AggregateKind::Max),
                    Some(std::cmp::Ordering::Equal) => Ok(false),
                    None => Err(GsnError::sql_exec(format!(
                        "{} over incomparable values `{held}` / `{value}`",
                        self.kind.name()
                    ))),
                };
                while let Some((_, held)) = self.mono.back() {
                    if keep_strictly_better(held)? {
                        self.mono.pop_back();
                    } else {
                        break;
                    }
                }
                self.mono.push_back((seq, value.clone()));
            }
            AggregateKind::First | AggregateKind::Last => {
                self.values.push_back(value.clone());
            }
            // Rejected by `compile`.
            AggregateKind::StdDev | AggregateKind::Variance => {
                return Err(GsnError::internal(
                    "incremental plan compiled with unsupported aggregate",
                ))
            }
        }
        Ok(())
    }

    fn retract(&mut self, seq: u64, value: &Value) -> GsnResult<()> {
        if value.is_null() {
            return Ok(());
        }
        match self.kind {
            AggregateKind::Count | AggregateKind::Sum | AggregateKind::Avg => {
                if let Some(seen) = &mut self.distinct {
                    let key = format!("{value:?}");
                    match seen.get_mut(&key) {
                        Some(slot) if *slot > 1 => {
                            *slot -= 1;
                            return Ok(()); // a duplicate leaves: still counted
                        }
                        Some(_) => {
                            seen.remove(&key);
                        }
                        None => {
                            return Err(GsnError::internal(
                                "retracted value missing from distinct multiset",
                            ))
                        }
                    }
                }
                if self.kind != AggregateKind::Count {
                    let x = self.numeric(value)?;
                    kahan_add(&mut self.sum, &mut self.comp, -x);
                    if !matches!(value, Value::Integer(_)) {
                        self.non_integer = self.non_integer.saturating_sub(1);
                    }
                }
                self.count = self.count.saturating_sub(1);
                if self.count == 0 {
                    // Free drift reset: an empty window restores the exact zero.
                    self.sum = 0.0;
                    self.comp = 0.0;
                    self.non_integer = 0;
                }
            }
            AggregateKind::Min | AggregateKind::Max => {
                if self.mono.front().is_some_and(|(s, _)| *s == seq) {
                    self.mono.pop_front();
                }
            }
            AggregateKind::First | AggregateKind::Last => {
                // Non-null inputs retract oldest-first, so the front is this value.
                self.values.pop_front();
            }
            AggregateKind::StdDev | AggregateKind::Variance => {}
        }
        Ok(())
    }

    fn finish(&self) -> Value {
        match self.kind {
            AggregateKind::Count => Value::Integer(self.count as i64),
            AggregateKind::Sum => {
                if self.count == 0 {
                    Value::Null
                } else if self.non_integer == 0 {
                    // Integer window: the f64 sum is exact and the compensation zero.
                    Value::Integer((self.sum + self.comp) as i64)
                } else {
                    Value::Double(self.sum + self.comp)
                }
            }
            AggregateKind::Avg => {
                if self.count == 0 {
                    Value::Null
                } else {
                    Value::Double((self.sum + self.comp) / self.count as f64)
                }
            }
            AggregateKind::Min | AggregateKind::Max => self
                .mono
                .front()
                .map(|(_, v)| v.clone())
                .unwrap_or(Value::Null),
            AggregateKind::First => self.values.front().cloned().unwrap_or(Value::Null),
            AggregateKind::Last => self.values.back().cloned().unwrap_or(Value::Null),
            AggregateKind::StdDev | AggregateKind::Variance => Value::Null,
        }
    }
}

/// Running state for one `GROUP BY` group.
#[derive(Debug, Clone)]
struct GroupState {
    key_values: Vec<Value>,
    /// Sequence numbers of this group's in-window rows, oldest first.  The front orders
    /// group emission (first-occurrence order within the current window, matching the
    /// streaming full evaluation).
    seqs: VecDeque<u64>,
    accs: Vec<DeltaAccumulator>,
}

#[derive(Debug, Clone)]
enum Mode {
    Project {
        /// Input column positions expanded from `*` / `alias.*` projections.
        wildcard_columns: Vec<usize>,
        items: Vec<ProjectionItem>,
    },
    Aggregate {
        group_by: Vec<Expr>,
        aggregates: Vec<AggSpec>,
        /// Output items with aggregate calls rewritten to placeholder references.
        items: Vec<ProjectionItem>,
        having: Option<Expr>,
        /// Per-group evaluation context layout: group keys, then placeholders.
        ctx_columns: Vec<ColumnInfo>,
        groups: HashMap<String, GroupState>,
    },
}

/// Resident incremental state for one registered continuous query.
///
/// Built once per query by [`compile`](Self::compile); each evaluation feeds the delta
/// rows since the last one plus the current window bound, and receives the full result
/// relation — identical to re-executing the plan over the current window contents.
#[derive(Debug, Clone)]
pub struct ContinuousPlan {
    /// The scan's column layout (alias-qualified, `PK`/`TIMED` first).
    input_columns: Vec<ColumnInfo>,
    output_columns: Vec<ColumnInfo>,
    filter: Option<Expr>,
    /// Uniform sampling stride: keep rows whose sequence is a multiple of this
    /// (`usize::MAX` keeps nothing), mirroring the storage layer's cursor sampling.
    keep_every: Option<usize>,
    rows: VecDeque<WindowRow>,
    mode: Mode,
    /// Set once an evaluation failed: resident state may no longer mirror full
    /// evaluation, so every later call errors and the caller falls back.
    poisoned: bool,
}

impl ContinuousPlan {
    /// Tries to compile `plan` for incremental evaluation.
    ///
    /// `base_columns` is the referenced table's scan layout (`PK`, `TIMED`, then the
    /// stream fields); the qualifier is replaced with the plan's scan alias, mirroring
    /// the full executor.  Returns `None` when the plan shape is not maintainable
    /// incrementally — the caller falls back to full re-evaluation.
    pub fn compile(
        plan: &LogicalPlan,
        base_columns: &[ColumnInfo],
        keep_every: Option<usize>,
    ) -> Option<ContinuousPlan> {
        let (project, aggregate, inner) = match plan {
            LogicalPlan::Project {
                input,
                items,
                wildcards,
            } => (Some((items, wildcards)), None, input),
            LogicalPlan::Aggregate {
                input,
                group_by,
                items,
                having,
            } => (None, Some((group_by, items, having)), input),
            _ => return None,
        };
        let (filter, scan) = match &**inner {
            LogicalPlan::Filter { input, predicate } => (Some(predicate.clone()), &**input),
            other => (None, other),
        };
        let LogicalPlan::Scan { alias, spec, .. } = scan else {
            return None;
        };
        // The optimizer absorbs WHERE conjuncts into the scan's spec; the
        // incremental engine evaluates them per delta row like any filter.
        let filter = {
            let mut conjuncts = spec.residual.clone();
            conjuncts.extend(filter);
            crate::optimizer::join_conjuncts(conjuncts)
        };
        if let Some(predicate) = &filter {
            if predicate.contains_aggregate() || predicate.contains_subquery() {
                return None;
            }
        }
        let input_columns: Vec<ColumnInfo> = base_columns
            .iter()
            .map(|c| ColumnInfo::new(Some(alias), &c.name, c.data_type))
            .collect();

        let (mode, output_columns) = if let Some((items, wildcards)) = project {
            if items
                .iter()
                .any(|i| i.expr.contains_aggregate() || i.expr.contains_subquery())
            {
                return None;
            }
            // Expand wildcards into input column positions (mirrors the full executor;
            // a qualified wildcard matching nothing errors there, so fall back).
            let mut wildcard_columns: Vec<usize> = Vec::new();
            for wildcard in wildcards {
                match wildcard {
                    None => wildcard_columns.extend(0..input_columns.len()),
                    Some(qualifier) => {
                        let before = wildcard_columns.len();
                        for (i, c) in input_columns.iter().enumerate() {
                            if c.qualifier
                                .as_deref()
                                .map(|own| own.eq_ignore_ascii_case(qualifier))
                                .unwrap_or(false)
                            {
                                wildcard_columns.push(i);
                            }
                        }
                        if wildcard_columns.len() == before {
                            return None;
                        }
                    }
                }
            }
            let mut columns: Vec<ColumnInfo> = wildcard_columns
                .iter()
                .map(|&i| input_columns[i].clone())
                .collect();
            for item in items {
                columns.push(ColumnInfo::new(None, &item.name, None));
            }
            (
                Mode::Project {
                    wildcard_columns,
                    items: items.clone(),
                },
                columns,
            )
        } else {
            let (group_by, items, having) = aggregate?;
            if group_by
                .iter()
                .any(|g| g.contains_aggregate() || g.contains_subquery())
            {
                return None;
            }
            if items.iter().any(|i| i.expr.contains_subquery())
                || having.as_ref().is_some_and(|h| h.contains_subquery())
            {
                return None;
            }
            let mut extracted: Vec<ExtractedAggregate> = Vec::new();
            let rewritten_items: Vec<ProjectionItem> = items
                .iter()
                .map(|item| {
                    Ok(ProjectionItem {
                        expr: extract_aggregates(item.expr.clone(), &mut extracted)?,
                        name: item.name.clone(),
                    })
                })
                .collect::<GsnResult<_>>()
                .ok()?;
            let rewritten_having = match having {
                Some(h) => Some(extract_aggregates(h.clone(), &mut extracted).ok()?),
                None => None,
            };
            let mut aggregates = Vec::with_capacity(extracted.len());
            let mut ctx_columns: Vec<ColumnInfo> = Vec::new();
            for (i, g) in group_by.iter().enumerate() {
                let name = match g {
                    Expr::Column { name, .. } => name.clone(),
                    _ => format!("GROUP_{}", i + 1),
                };
                ctx_columns.push(ColumnInfo::new(None, &name, None));
            }
            for agg in extracted {
                let supported = matches!(
                    agg.kind,
                    AggregateKind::Count
                        | AggregateKind::Sum
                        | AggregateKind::Avg
                        | AggregateKind::Min
                        | AggregateKind::Max
                        | AggregateKind::First
                        | AggregateKind::Last
                );
                // DISTINCT LAST depends on *insertion* order of distinct-new values,
                // which retraction cannot replay; STDDEV/VARIANCE would accumulate
                // floating-point drift in the squared sums.
                if !supported || (agg.distinct && agg.kind == AggregateKind::Last) {
                    return None;
                }
                if agg
                    .arg
                    .as_ref()
                    .is_some_and(|a| a.contains_subquery() || a.contains_aggregate())
                {
                    return None;
                }
                ctx_columns.push(ColumnInfo::new(None, &agg.placeholder, None));
                aggregates.push(AggSpec {
                    kind: agg.kind,
                    distinct: agg.distinct,
                    arg: agg.arg,
                });
            }
            let columns: Vec<ColumnInfo> = rewritten_items
                .iter()
                .map(|i| ColumnInfo::new(None, &i.name, None))
                .collect();
            let mut groups = HashMap::new();
            if group_by.is_empty() {
                // A global aggregate emits one row even over an empty window.
                groups.insert(
                    String::new(),
                    GroupState {
                        key_values: Vec::new(),
                        seqs: VecDeque::new(),
                        accs: aggregates
                            .iter()
                            .map(|a| DeltaAccumulator::new(a.kind, a.distinct))
                            .collect(),
                    },
                );
            }
            (
                Mode::Aggregate {
                    group_by: group_by.clone(),
                    aggregates,
                    items: rewritten_items,
                    having: rewritten_having,
                    ctx_columns,
                    groups,
                },
                columns,
            )
        };

        Some(ContinuousPlan {
            input_columns,
            output_columns,
            filter,
            keep_every,
            rows: VecDeque::new(),
            mode,
            poisoned: false,
        })
    }

    /// The result column layout (identical to the full executor's).
    pub fn columns(&self) -> &[ColumnInfo] {
        &self.output_columns
    }

    /// Input rows currently resident in the window (bookkeeping / tests).
    pub fn resident_rows(&self) -> usize {
        self.rows.len()
    }

    /// Folds the delta rows into the resident state, slides the window to `bound`
    /// (retracting rows older than `oldest_live` first, so storage pruning is tracked),
    /// and returns the full current result.
    ///
    /// `delta` rows are `(sequence, timestamp, scan row)` with the scan row laid out as
    /// `[PK, TIMED, fields...]`, oldest first — exactly what the storage delta cursor
    /// produces.  After an error the plan is poisoned: every later call errors and the
    /// caller must fall back to full re-evaluation.
    pub fn evaluate(
        &mut self,
        delta: impl IntoIterator<Item = (u64, Timestamp, Vec<Value>)>,
        bound: WindowBound,
        oldest_live: Option<u64>,
    ) -> GsnResult<Relation> {
        if self.poisoned {
            return Err(GsnError::sql_exec(
                "incremental plan poisoned by an earlier failure",
            ));
        }
        let result = self.try_evaluate(delta, bound, oldest_live);
        if result.is_err() {
            self.poisoned = true;
        }
        result
    }

    fn try_evaluate(
        &mut self,
        delta: impl IntoIterator<Item = (u64, Timestamp, Vec<Value>)>,
        bound: WindowBound,
        oldest_live: Option<u64>,
    ) -> GsnResult<Relation> {
        for (seq, ts, row) in delta {
            self.insert_row(seq, ts, row)?;
        }
        // Retract rows the storage layer pruned (retention may be narrower than the
        // query window for count windows over horizon-retained tables).
        if let Some(oldest) = oldest_live {
            while self.rows.front().is_some_and(|r| r.seq < oldest) {
                self.retract_front()?;
            }
        }
        // Slide the window.  The time bound pops leading rows below the cutoff — the
        // same partition-point semantics a storage time-window scan applies to the stored
        // suffix, monotone as long as `now` does not go backwards (the repository
        // re-seeds the state when it does).
        match bound {
            WindowBound::Count(n) => {
                while self.rows.len() > n {
                    self.retract_front()?;
                }
            }
            WindowBound::Since(cutoff) => {
                while self.rows.front().is_some_and(|r| r.ts < cutoff) {
                    self.retract_front()?;
                }
            }
        }
        self.emit()
    }

    fn insert_row(&mut self, seq: u64, ts: Timestamp, row: Vec<Value>) -> GsnResult<()> {
        let sampled_in = match self.keep_every {
            Some(usize::MAX) => false,
            Some(stride) => (seq as usize).is_multiple_of(stride),
            None => true,
        };
        let passes = sampled_in && {
            match &self.filter {
                Some(predicate) => {
                    let ctx = RowContext::new(&self.input_columns, &row);
                    evaluate_predicate(predicate, &ctx)?
                }
                None => true,
            }
        };
        let payload = if !passes {
            Payload::Skip
        } else {
            match &mut self.mode {
                Mode::Project {
                    wildcard_columns,
                    items,
                } => {
                    let ctx = RowContext::new(&self.input_columns, &row);
                    let mut out: Vec<Value> =
                        wildcard_columns.iter().map(|&i| row[i].clone()).collect();
                    for item in items.iter() {
                        out.push(evaluate(&item.expr, &ctx)?);
                    }
                    Payload::Projected(out)
                }
                Mode::Aggregate {
                    group_by,
                    aggregates,
                    groups,
                    ..
                } => {
                    let ctx = RowContext::new(&self.input_columns, &row);
                    let key_values: Vec<Value> = group_by
                        .iter()
                        .map(|g| evaluate(g, &ctx))
                        .collect::<GsnResult<_>>()?;
                    let key = if group_by.is_empty() {
                        String::new()
                    } else {
                        row_key(&key_values)
                    };
                    let inputs: Vec<Value> = aggregates
                        .iter()
                        .map(|agg| match &agg.arg {
                            Some(expr) => evaluate(expr, &ctx),
                            None => Ok(Value::Integer(1)), // COUNT(*)
                        })
                        .collect::<GsnResult<_>>()?;
                    let group = groups.entry(key.clone()).or_insert_with(|| GroupState {
                        key_values,
                        seqs: VecDeque::new(),
                        accs: aggregates
                            .iter()
                            .map(|a| DeltaAccumulator::new(a.kind, a.distinct))
                            .collect(),
                    });
                    group.seqs.push_back(seq);
                    for (acc, input) in group.accs.iter_mut().zip(&inputs) {
                        acc.insert(seq, input)?;
                    }
                    Payload::Grouped { key, inputs }
                }
            }
        };
        self.rows.push_back(WindowRow { seq, ts, payload });
        Ok(())
    }

    fn retract_front(&mut self) -> GsnResult<()> {
        let Some(row) = self.rows.pop_front() else {
            return Ok(());
        };
        if let (
            Payload::Grouped { key, inputs },
            Mode::Aggregate {
                groups, group_by, ..
            },
        ) = (row.payload, &mut self.mode)
        {
            let Some(group) = groups.get_mut(&key) else {
                return Err(GsnError::internal("retracted row's group missing"));
            };
            group.seqs.pop_front();
            for (acc, input) in group.accs.iter_mut().zip(&inputs) {
                acc.retract(row.seq, input)?;
            }
            // Grouped aggregation drops empty groups (a full re-evaluation would not
            // see them); the single global group persists to emit its empty-window row.
            if group.seqs.is_empty() && !group_by.is_empty() {
                groups.remove(&key);
            }
        }
        Ok(())
    }

    fn emit(&self) -> GsnResult<Relation> {
        match &self.mode {
            Mode::Project { .. } => {
                let rows: Vec<Vec<Value>> = self
                    .rows
                    .iter()
                    .filter_map(|r| match &r.payload {
                        Payload::Projected(out) => Some(out.clone()),
                        _ => None,
                    })
                    .collect();
                Relation::with_rows(self.output_columns.clone(), rows)
            }
            Mode::Aggregate {
                group_by,
                items,
                having,
                ctx_columns,
                groups,
                ..
            } => {
                // First-occurrence order within the current window == ascending oldest
                // sequence, matching the streaming full evaluation.
                let mut ordered: Vec<&GroupState> = groups.values().collect();
                ordered.sort_by_key(|g| g.seqs.front().copied().unwrap_or(u64::MAX));
                let mut out_rows: Vec<Vec<Value>> = Vec::with_capacity(ordered.len());
                for group in ordered {
                    let mut ctx_row: Vec<Value> = group.key_values.clone();
                    ctx_row.extend(group.accs.iter().map(DeltaAccumulator::finish));
                    let ctx = RowContext::new(ctx_columns, &ctx_row);
                    if let Some(h) = having {
                        if !evaluate_predicate(h, &ctx)? {
                            continue;
                        }
                    }
                    let out_row: Vec<Value> = items
                        .iter()
                        .map(|item| eval_group_item(&item.expr, &ctx, group_by, &group.key_values))
                        .collect::<GsnResult<_>>()?;
                    out_rows.push(out_row);
                }
                Relation::with_rows(self.output_columns.clone(), out_rows)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{execute_plan, MemoryCatalog};
    use crate::optimizer::optimize_default;
    use crate::parser::parse_query;
    use crate::plan::plan_query;
    use gsn_types::DataType;

    /// The scan layout of a little sensor stream: PK, TIMED, TEMPERATURE, ROOM.
    fn base_columns() -> Vec<ColumnInfo> {
        vec![
            ColumnInfo::new(Some("t"), "PK", Some(DataType::Integer)),
            ColumnInfo::new(Some("t"), "TIMED", Some(DataType::Timestamp)),
            ColumnInfo::new(Some("t"), "TEMPERATURE", Some(DataType::Integer)),
            ColumnInfo::new(Some("t"), "ROOM", Some(DataType::Varchar)),
        ]
    }

    fn row(seq: u64, ts: i64, temp: i64, room: &str) -> (u64, Timestamp, Vec<Value>) {
        (
            seq,
            Timestamp(ts),
            vec![
                Value::Integer(seq as i64),
                Value::Timestamp(Timestamp(ts)),
                Value::Integer(temp),
                Value::varchar(room),
            ],
        )
    }

    fn compiled(sql: &str) -> ContinuousPlan {
        try_compile(sql).expect("plan should compile incrementally")
    }

    fn try_compile(sql: &str) -> Option<ContinuousPlan> {
        let plan = optimize_default(plan_query(&parse_query(sql).unwrap()).unwrap()).unwrap();
        ContinuousPlan::compile(&plan, &base_columns(), None)
    }

    /// Executes the same SQL over the full window via the materialising executor.
    fn full(sql: &str, window: &[(u64, Timestamp, Vec<Value>)]) -> Relation {
        let plan = optimize_default(plan_query(&parse_query(sql).unwrap()).unwrap()).unwrap();
        let mut catalog = MemoryCatalog::new();
        let rel = Relation::with_rows(
            base_columns()
                .iter()
                .map(|c| ColumnInfo::new(None, &c.name, c.data_type))
                .collect(),
            window.iter().map(|(_, _, r)| r.clone()).collect(),
        )
        .unwrap();
        catalog.register("t", rel);
        execute_plan(&plan, &catalog).unwrap()
    }

    /// Drives both executors over a sliding count window and asserts identical results
    /// at every step.
    fn assert_parity(sql: &str, window_size: usize, stream: &[(u64, Timestamp, Vec<Value>)]) {
        let mut plan = compiled(sql);
        let mut window: VecDeque<(u64, Timestamp, Vec<Value>)> = VecDeque::new();
        for element in stream {
            window.push_back(element.clone());
            while window.len() > window_size {
                window.pop_front();
            }
            let incremental = plan
                .evaluate(
                    [element.clone()],
                    WindowBound::Count(window_size),
                    window.front().map(|(s, _, _)| *s),
                )
                .unwrap();
            let window_vec: Vec<_> = window.iter().cloned().collect();
            let reference = full(sql, &window_vec);
            assert_eq!(incremental.rows(), reference.rows(), "query {sql}");
            assert_eq!(incremental.columns(), reference.columns(), "query {sql}");
        }
    }

    fn sample_stream() -> Vec<(u64, Timestamp, Vec<Value>)> {
        let rooms = ["bc143", "bc144", "bc145"];
        (1..=40u64)
            .map(|i| {
                row(
                    i,
                    (i as i64) * 100,
                    ((i * 7) % 31) as i64,
                    rooms[(i % 3) as usize],
                )
            })
            .collect()
    }

    #[test]
    fn projection_and_filter_track_the_window() {
        assert_parity(
            "select temperature, room from t where temperature > 10",
            5,
            &sample_stream(),
        );
        assert_parity("select * from t", 3, &sample_stream());
        assert_parity(
            "select t.*, temperature * 2 as d from t where room = 'bc143'",
            7,
            &sample_stream(),
        );
    }

    #[test]
    fn global_aggregates_track_the_window() {
        assert_parity(
            "select count(*) as n, sum(temperature) as s, avg(temperature) as a, \
             min(temperature) as lo, max(temperature) as hi from t",
            6,
            &sample_stream(),
        );
        assert_parity(
            "select first(temperature) as f, last(temperature) as l from t \
             where temperature > 5",
            4,
            &sample_stream(),
        );
        assert_parity(
            "select count(distinct room) as n from t where temperature < 25",
            8,
            &sample_stream(),
        );
    }

    #[test]
    fn grouped_aggregates_track_the_window() {
        assert_parity(
            "select room, avg(temperature) as a, count(*) as n from t group by room",
            7,
            &sample_stream(),
        );
        assert_parity(
            "select room, max(temperature) as hi from t group by room having count(*) > 1",
            9,
            &sample_stream(),
        );
    }

    #[test]
    fn time_bound_retracts_by_cutoff() {
        let mut plan = compiled("select count(*) as n from t");
        let stream = sample_stream();
        for (i, element) in stream.iter().enumerate() {
            let now = Timestamp((i as i64 + 1) * 100);
            let cutoff = now.saturating_sub(gsn_types::Duration::from_millis(250));
            let rel = plan
                .evaluate([element.clone()], WindowBound::Since(cutoff), None)
                .unwrap();
            // 250 ms at 100 ms spacing covers the last 3 elements once warmed up.
            let expected = (i + 1).min(3) as i64;
            assert_eq!(rel.rows()[0][0], Value::Integer(expected));
        }
    }

    #[test]
    fn oldest_live_retraction_tracks_pruning() {
        let mut plan = compiled("select count(*) as n from t");
        let stream = sample_stream();
        let rel = plan
            .evaluate(stream[..10].to_vec(), WindowBound::Count(100), None)
            .unwrap();
        assert_eq!(rel.rows()[0][0], Value::Integer(10));
        // Storage pruned everything below sequence 6.
        let rel = plan.evaluate([], WindowBound::Count(100), Some(6)).unwrap();
        assert_eq!(rel.rows()[0][0], Value::Integer(5));
        assert_eq!(plan.resident_rows(), 5);
    }

    #[test]
    fn sampling_stride_thins_the_delta() {
        let plan_full = optimize_default(
            plan_query(&parse_query("select count(*) as n from t").unwrap()).unwrap(),
        )
        .unwrap();
        let mut plan = ContinuousPlan::compile(&plan_full, &base_columns(), Some(2)).unwrap();
        let rel = plan
            .evaluate(
                sample_stream()[..10].to_vec(),
                WindowBound::Count(100),
                None,
            )
            .unwrap();
        // Sequences 2, 4, 6, 8, 10.
        assert_eq!(rel.rows()[0][0], Value::Integer(5));
    }

    #[test]
    fn unsupported_shapes_fall_back() {
        for sql in [
            "select temperature from t order by temperature",
            "select distinct room from t",
            "select temperature from t limit 3",
            "select stddev(temperature) from t",
            "select last(distinct temperature) from t",
            "select a.temperature from t a join t b on a.room = b.room",
            "select room from (select room from t) s",
            "select room from t where temperature > (select avg(temperature) from t)",
            "select room from t union select room from t",
        ] {
            assert!(try_compile(sql).is_none(), "{sql} should not compile");
        }
    }

    #[test]
    fn poisoned_plans_stay_poisoned() {
        // ROOM is a varchar: SUM fails, and every later evaluation fails fast.
        let mut plan = compiled("select sum(room) as s from t");
        assert!(plan
            .evaluate([row(1, 100, 5, "x")], WindowBound::Count(10), None)
            .is_err());
        assert!(plan.evaluate([], WindowBound::Count(10), None).is_err());
    }

    #[test]
    fn empty_global_aggregate_emits_one_row() {
        let mut plan = compiled("select count(*) as n, avg(temperature) as a from t");
        let rel = plan.evaluate([], WindowBound::Count(10), None).unwrap();
        assert_eq!(rel.row_count(), 1);
        assert_eq!(rel.rows()[0][0], Value::Integer(0));
        assert_eq!(rel.rows()[0][1], Value::Null);
    }

    #[test]
    fn compensated_sum_survives_magnitude_cancellation() {
        // A huge transient swamps the small addends: every 1.0 inserted while 1e17 is
        // in the window vanishes below its ulp in a naive running sum, and retracting
        // the transient would leave 0.  The Kahan–Babuška compensation banks exactly
        // those lost bits, so the slid window finishes at the true sum.
        let mut sum = DeltaAccumulator::new(AggregateKind::Sum, false);
        let mut avg = DeltaAccumulator::new(AggregateKind::Avg, false);
        sum.insert(1, &Value::Double(1e17)).unwrap();
        avg.insert(1, &Value::Double(1e17)).unwrap();
        for i in 0..100u64 {
            sum.insert(i + 2, &Value::Double(1.0)).unwrap();
            avg.insert(i + 2, &Value::Double(1.0)).unwrap();
        }
        sum.retract(1, &Value::Double(1e17)).unwrap();
        avg.retract(1, &Value::Double(1e17)).unwrap();
        assert_eq!(sum.finish(), Value::Double(100.0));
        assert_eq!(avg.finish(), Value::Double(1.0));
    }

    #[test]
    fn compensated_sum_stays_exact_for_integers() {
        // Integer windows must keep producing Integer results with zero compensation.
        let mut acc = DeltaAccumulator::new(AggregateKind::Sum, false);
        for i in 1..=1_000u64 {
            acc.insert(i, &Value::Integer(i as i64)).unwrap();
        }
        for i in 1..=990u64 {
            acc.retract(i, &Value::Integer(i as i64)).unwrap();
        }
        assert_eq!(acc.finish(), Value::Integer((991..=1_000).sum::<i64>()));
    }
}
